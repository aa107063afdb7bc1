"""Seeded synthetic traffic: desk-scale stand-in for live partner requests.

The simulator drives the same handler functions the HTTP listener uses, but
in process: each request picks a query document, optionally stamps a crawler
user agent, parses the JSON response like a partner page would, and flips a
seeded coin per delivered item to decide clicks. Crawler-stamped requests
never click, mirroring click logging that runs in the partner's browser.
With a fixed seed and clock start, repeated runs produce byte-identical
logs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import partial
from pathlib import Path
from typing import Iterable, Mapping

from .corpus import _NUMBER, AlgorithmArm, DocumentRecord, _checked
from .recommenders import PartnerConfig
from .service import HttpRequestContext, build_service

HUMAN_USER_AGENT = (
    "Mozilla/5.0 (X11; Linux x86_64; rv:102.0) Gecko/20100101 Firefox/102.0"
)
BOT_USER_AGENT = "Mozilla/5.0 (compatible; SyntheticBot/1.0; +http://example.com/bot.html)"

SIM_CLOCK_START = datetime(2016, 9, 1, tzinfo=timezone.utc)


class SimulationError(ValueError):
    """The simulation spec or its inputs are unusable."""


_spec_value = partial(_checked, error=SimulationError)  # a spec value, if it is of the kinds named


@dataclass(frozen=True)
class SimulationSpec:
    request_count: int
    click_probability: Mapping[AlgorithmArm, float]
    bot_fraction: float
    seed: int
    partner_id: str
    k: int

    def __post_init__(self) -> None:
        if self.request_count < 1:
            raise SimulationError("request_count must be >= 1")
        if not 0.0 <= self.bot_fraction <= 1.0:
            raise SimulationError("bot_fraction must be in [0, 1]")
        if any(not 0.0 <= p <= 1.0 for p in self.click_probability.values()):
            raise SimulationError("click probabilities must be in [0, 1]")
        if self.k < 1:
            raise SimulationError("k must be >= 1")

    @classmethod
    def load(cls, path: str | Path) -> "SimulationSpec":
        try:
            with Path(path).open("r", encoding="utf-8") as fh:
                raw = _spec_value(json.load(fh), "simulation spec", dict)
            probabilities = _spec_value(raw["click_probability"], "click_probability", dict)
            return cls(
                request_count=_spec_value(raw["request_count"], "request_count", int),
                click_probability={
                    AlgorithmArm(label): float(
                        _spec_value(p, f"click_probability of {label}", _NUMBER)
                    )
                    for label, p in probabilities.items()
                },
                bot_fraction=float(
                    _spec_value(raw.get("bot_fraction", 0.0), "bot_fraction", _NUMBER)
                ),
                seed=_spec_value(raw["seed"], "seed", int),
                partner_id=_spec_value(raw["partner_id"], "partner_id", str),
                k=_spec_value(raw.get("k", 5), "k", int),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:  # float() of a huge int overflows
            raise SimulationError(f"invalid simulation spec: {exc}") from None


class SimClock:
    """Deterministic clock from ``SIM_CLOCK_START``: time advances only when told to."""

    def __init__(self):
        self._now = SIM_CLOCK_START

    def now(self) -> datetime:
        return self._now

    def advance(self, seconds: float) -> None:
        self._now += timedelta(seconds=seconds)


@dataclass(frozen=True)
class SimulationResult:
    requests: int
    deliveries: int
    clicks: int


def run_simulation(
    documents: Iterable[DocumentRecord],
    partners: Mapping[str, PartnerConfig],
    spec: SimulationSpec,
    logs_dir: str | Path,
) -> SimulationResult:
    """Issue ``spec.request_count`` seeded requests in process and log them.

    ``documents`` is indexed in one read, as :func:`build_service` reads it,
    so it may be a stream such as :func:`~docrecs.corpus.read_store`.
    """
    if spec.partner_id not in partners:
        raise SimulationError(f"unknown partner_id: {spec.partner_id}")

    clock = SimClock()
    service = build_service(documents, partners, logs_dir, seed=spec.seed, clock=clock.now)
    try:
        traffic_rng = random.Random(spec.seed)
        doc_ids = sorted(service.index.doc_ids)

        deliveries = 0
        clicks = 0
        for _ in range(spec.request_count):
            clock.advance(1.0)
            doc_id = traffic_rng.choice(doc_ids)
            is_bot = traffic_rng.random() < spec.bot_fraction
            user_agent = BOT_USER_AGENT if is_bot else HUMAN_USER_AGENT
            ctx = HttpRequestContext(
                method="GET",
                path=f"/v1/documents/{doc_id}/related_documents/",
                query={"partner_id": spec.partner_id, "count": str(spec.k), "format": "json"},
                user_agent=user_agent,
            )
            response = service.handle(ctx)
            if response.status != 200:
                raise SimulationError(
                    f"request for {doc_id} failed: {response.status} "
                    f"{response.body.decode('utf-8', 'replace')}"
                )
            payload = json.loads(response.body)
            deliveries += len(payload["items"])
            if is_bot:
                continue  # crawlers do not execute the click logging
            probability = spec.click_probability.get(AlgorithmArm(payload["algorithm"]), 0.0)
            for item in payload["items"]:
                if traffic_rng.random() < probability:
                    click_ctx = HttpRequestContext(
                        method="POST",
                        path=f"/v1/recommendations/{item['recommendation_id']}/clicks",
                        query={},
                        user_agent=user_agent,
                    )
                    click_response = service.handle(click_ctx)
                    if click_response.status != 204:
                        raise SimulationError(
                            f"click on {item['recommendation_id']} failed: {click_response.status}"
                        )
                    clicks += 1
        return SimulationResult(requests=spec.request_count, deliveries=deliveries, clicks=clicks)
    finally:
        service.close()
