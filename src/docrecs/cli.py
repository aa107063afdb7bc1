"""Command-line entry point: ingest, serve, report, simulate.

Every option ``--name`` that the command line leaves unset is read from the
environment variable ``RAAS_NAME``, then from key ``name`` of the JSON config
file (``--config``). A config value must be a string or an integer, which is
read as its decimal text. Exit codes: 0 success, 1 usage error, 2 data error:
unusable input, such as a bad line or file, a path that cannot be read or
written, or an address that cannot be bound.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Mapping

# Beyond the corpus module, each command imports what it runs when it runs,
# so that `ingest` loads no other docrecs module and `report` only analytics.
from .corpus import CorpusStore, IngestAborted, ingest_corpus, read_store

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


def _brief(value: str, show: Callable[[str], str] = str) -> str:
    """``show(value)`` for an option value to echo; past 40 characters, its start and length."""
    if len(value) <= 40:
        return show(value)
    return f"{show(value[:40])}... ({len(value)} characters)"


def _seed(text: str) -> int:
    """The integer ``text`` holds; ArgumentTypeError quoting it by :func:`_brief`."""
    try:
        return int(text)
    except ValueError:
        if re.fullmatch(r"\s*[+-]?\d+(?:_\d+)*\s*", text):  # what int() reads, but too long
            raise argparse.ArgumentTypeError("has more digits than can be read") from None
        raise argparse.ArgumentTypeError(f"must be an integer, got {_brief(text, repr)}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="docrecs", description=__doc__)
    parser.add_argument("--config", help="JSON file with default option values")
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser("ingest", help="load a JSON Lines corpus into a store")
    ingest.add_argument("--corpus", help="corpus file (JSON Lines)")
    ingest.add_argument("--store", help="store directory")

    serve = commands.add_parser("serve", help="run the HTTP service")
    serve.add_argument("--store", help="store directory")
    serve.add_argument("--partners", help="partner configuration file")
    serve.add_argument("--listen", help="HOST:PORT to bind")
    serve.add_argument("--logs", help="analytics log directory")
    serve.add_argument("--seed", type=_seed, help="seed for arm rotation and ids")

    report = commands.add_parser("report", help="write the monthly CTR report CSV")
    report.add_argument("--logs", help="analytics log directory")
    report.add_argument("--store", help="accepted for compatibility; not read")
    report.add_argument("--variant", help="raw (default) or bot_filtered")
    report.add_argument("--out", help="output CSV path")

    simulate = commands.add_parser("simulate", help="run seeded synthetic traffic in process")
    simulate.add_argument("--store", help="store directory")
    simulate.add_argument("--partners", help="partner configuration file")
    simulate.add_argument("--spec", help="simulation spec JSON file")
    simulate.add_argument("--logs", help="analytics log directory")

    return parser


def _load_config(path: str | None) -> Mapping[str, object]:
    if not path:
        return {}
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    return raw


# Options each command refuses to run without, in the order they are checked.
_REQUIRED = {
    "ingest": ("corpus", "store"),
    "serve": ("store", "partners", "listen", "logs"),
    "report": ("logs", "out"),
    "simulate": ("store", "partners", "spec", "logs"),
}


def _resolve(parser: _Parser, args: argparse.Namespace, config: Mapping[str, object]) -> None:
    """Fill each option the command line left unset from ``RAAS_<NAME>``, then ``config``."""
    for name, value in vars(args).items():
        if value is not None or name in ("command", "config"):
            continue
        value = os.environ.get(source := f"RAAS_{name.upper()}")
        if value is None and name in config:
            source, value = f"config key {name}", config[name]  # read as the environment's text would be
            if type(value) not in (str, int):
                raise ValueError(f"{source} must be a string or an integer")
            value = str(value)
        if value is not None and name == "seed":  # converted as argparse converts --seed
            try:
                value = _seed(value)
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"--seed from {source} {exc}") from None
        setattr(args, name, value)
    for name in _REQUIRED[args.command]:
        if getattr(args, name) is None:
            parser.error(f"missing required option --{name}")


def _report_torn_tail(store_dir, tail: bytes) -> None:
    print(
        f"docrecs: {store_dir}: ignored a torn final line "
        f"({len(tail)} bytes) left by an interrupted write",
        file=sys.stderr,
    )


@contextmanager
def _named(prefix: str):
    """Start each data error (ValueError) raised inside with ``prefix``, which names its file."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{prefix}: {exc}") from None


def _streamed_store(store_dir):
    """The store's records, read once; a torn final line is reported on stderr."""
    with _named(f"{store_dir}: unreadable store"):
        yield from read_store(store_dir, lambda tail: _report_torn_tail(store_dir, tail))


def _cmd_ingest(parser: _Parser, args) -> int:
    # a bad line before the last one is a data error; a torn last line loads
    with _named(f"{args.store}: unreadable store"):
        store = CorpusStore(args.store)
    if store.torn_tail is not None:
        _report_torn_tail(args.store, store.torn_tail)
    try:
        with open(args.corpus, encoding="utf-8") as fh:
            summary = ingest_corpus(fh, store)
    except FileNotFoundError:
        raise FileNotFoundError(f"corpus file not found: {args.corpus}") from None
    except IngestAborted as exc:
        raise OSError(
            f"corpus stream failed after "
            f"accepted={exc.summary.accepted} rejected={exc.summary.rejected}"
        ) from None
    for lineno, reason in summary.reject_reasons:
        print(f"line {lineno}: {reason}", file=sys.stderr)
    print(f"accepted={summary.accepted} rejected={summary.rejected}")
    return EXIT_OK


def _startup_line(partners_ms: float, service) -> str:
    """``serve``'s account of its startup: each phase in ms, then what it built and skipped."""
    startup, index = service.startup, service.index
    return (
        f"docrecs: started in {partners_ms:.1f} ms partner load, "
        f"{startup.index_ms:.1f} ms store read and index build, "
        f"{startup.replay_ms:.1f} ms log replay; "
        f"{len(index)} documents, {len(index.terms)} terms, {len(index.posting_ords)} postings, "
        f"{startup.delivered_ids} delivered ids; skipped "
        f"{len(startup.log_issues.delivery_rejects)} malformed delivery lines and "
        f"{len(startup.log_issues.click_rejects)} malformed click lines"
    )


def _cmd_serve(parser: _Parser, args) -> int:
    from .recommenders import load_partner_configs
    from .service import _capped_int, build_service, serve_http

    host, _, digits = args.listen.rpartition(":")
    port = _capped_int(digits, 65536) if digits.isascii() and digits.isdigit() else 65536
    if not host or port > 65535:
        parser.error(f"--listen expects HOST:PORT, got {_brief(args.listen)}")
    start = time.perf_counter()
    with _named(args.partners):
        partners = load_partner_configs(args.partners)
    partners_ms = (time.perf_counter() - start) * 1000
    # The store is streamed into the index, so no record outlives startup.
    service = build_service(_streamed_store(args.store), partners, args.logs, seed=args.seed)
    try:
        try:
            server = serve_http(service, host, port)
        except OSError as exc:
            raise OSError(f"cannot listen on {_brief(f'{host}:{port}')}: {exc}") from None
        with server:
            # What startup built lives as long as the process: move it out of the
            # cyclic collector's reach, so that no later collection scans it again.
            gc.collect()
            gc.freeze()
            # the port actually bound: port 0 binds a free one
            print(f"listening on {host}:{server.server_address[1]}", flush=True)
            print(_startup_line(partners_ms, service), file=sys.stderr, flush=True)
            server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return EXIT_OK


def _cmd_report(parser: _Parser, args) -> int:
    from .analytics import (
        CLICK_LOG_FILENAME,
        DELIVERY_LOG_FILENAME,
        REPORT_VARIANTS,
        LogIssues,
        monthly_report,
        write_report_csv,
    )

    variant = "raw" if args.variant is None else args.variant
    if variant not in REPORT_VARIANTS:
        parser.error(f"--variant must be {' or '.join(REPORT_VARIANTS)}, got {_brief(variant)}")
    logs = Path(args.logs)
    if not logs.is_dir():  # a mistyped path is not an empty history
        raise FileNotFoundError(f"logs directory not found: {args.logs}")
    issues: list[LogIssues] = []
    rows = monthly_report(
        logs / DELIVERY_LOG_FILENAME, logs / CLICK_LOG_FILENAME, variant, issues=issues
    )
    try:
        write_report_csv(rows, args.out)
    except OSError as exc:  # e.g. a missing directory or no permission
        raise OSError(f"cannot write report: {exc}") from None
    (found,) = issues
    print(
        f"docrecs: skipped {len(found.delivery_rejects)} malformed delivery lines, "
        f"{len(found.click_rejects)} malformed click lines and "
        f"{len(found.orphan_click_ids)} orphan click ids",
        file=sys.stderr,
    )
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_simulate(parser: _Parser, args) -> int:
    from .recommenders import load_partner_configs
    from .simulate import SimulationSpec, run_simulation

    with _named(args.partners):
        partners = load_partner_configs(args.partners)
    with _named(args.spec):
        spec = SimulationSpec.load(args.spec)
    result = run_simulation(_streamed_store(args.store), partners, spec, args.logs)
    print(f"requests={result.requests} deliveries={result.deliveries} clicks={result.clicks}")
    return EXIT_OK


_COMMANDS = {
    "ingest": _cmd_ingest,
    "serve": _cmd_serve,
    "report": _cmd_report,
    "simulate": _cmd_simulate,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _resolve(parser, args, _load_config(args.config))
        return _COMMANDS[args.command](parser, args)
    except SystemExit as exc:  # argparse, or parser.error() in _resolve or a command
        return int(exc.code or 0)
    except (OSError, ValueError) as exc:  # unusable input: a path, a file's content, an address
        print(f"docrecs: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run())
