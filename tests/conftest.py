"""Fixtures shared by the test modules."""

from __future__ import annotations

import contextlib

import pytest


@pytest.fixture
def closing():
    """Call it on an object to have the object closed when the test ends; returns the object."""
    with contextlib.ExitStack() as stack:
        yield lambda thing: stack.enter_context(contextlib.closing(thing))
