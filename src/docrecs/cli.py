"""Command-line entry point: ingest, serve, report, simulate.

Option values resolve with precedence flags > environment variables
(``RAAS_`` prefix) > JSON config file (``--config``). Exit codes: 0 success,
1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path
from typing import Mapping

from .analytics import (
    CLICK_LOG_FILENAME,
    DELIVERY_LOG_FILENAME,
    LogIssues,
    monthly_report,
    write_report_csv,
)
from .corpus import (
    ConfigError,
    CorpusStore,
    IngestAborted,
    ingest_corpus,
    load_partner_configs,
    read_store,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


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
    serve.add_argument("--seed", type=int, help="seed for arm rotation and ids")

    report = commands.add_parser("report", help="write the monthly CTR report CSV")
    report.add_argument("--logs", help="analytics log directory")
    report.add_argument("--store", help="accepted for compatibility; not read")
    report.add_argument("--variant", choices=["raw", "bot_filtered"])
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
    with Path(path).open("r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    return raw


def _resolve(flag_value, env_key: str, config: Mapping[str, object], config_key: str, default=None):
    if flag_value is not None:
        return flag_value
    env_value = os.environ.get(env_key)
    if env_value is not None:
        return env_value
    if config_key in config:
        return config[config_key]
    return default


def _require(parser: _Parser, value, option: str):
    if value is None:
        parser.error(f"missing required option {option}")
    return value


def _report_torn_tail(store_dir, tail: bytes) -> None:
    print(
        f"docrecs: {store_dir}: ignored a torn final line "
        f"({len(tail)} bytes) left by an interrupted write",
        file=sys.stderr,
    )


def _streamed_store(store_dir):
    """The store's records, read once; a torn final line is reported on stderr."""
    return read_store(store_dir, lambda tail: _report_torn_tail(store_dir, tail))


def _cmd_ingest(parser: _Parser, args, config) -> int:
    corpus_path = _require(parser, _resolve(args.corpus, "RAAS_CORPUS", config, "corpus"), "--corpus")
    store_dir = _require(parser, _resolve(args.store, "RAAS_STORE", config, "store"), "--store")
    try:
        store = CorpusStore(store_dir)
    except ValueError as exc:  # a bad line before the last one; a torn last line loads
        print(f"docrecs: {store_dir}: unreadable store: {exc}", file=sys.stderr)
        return EXIT_DATA
    if store.torn_tail is not None:
        _report_torn_tail(store_dir, store.torn_tail)
    try:
        with open(corpus_path, encoding="utf-8") as fh:
            summary = ingest_corpus(fh, store)
    except FileNotFoundError:
        print(f"docrecs: corpus file not found: {corpus_path}", file=sys.stderr)
        return EXIT_DATA
    except IngestAborted as exc:
        print(
            f"docrecs: corpus stream failed after "
            f"accepted={exc.summary.accepted} rejected={exc.summary.rejected}",
            file=sys.stderr,
        )
        return EXIT_DATA
    for lineno, reason in summary.reject_reasons:
        print(f"line {lineno}: {reason}", file=sys.stderr)
    print(f"accepted={summary.accepted} rejected={summary.rejected}")
    return EXIT_OK


def _cmd_serve(parser: _Parser, args, config) -> int:
    from .service import build_service, serve_http  # only serve and simulate need the HTTP layer

    store_dir = _require(parser, _resolve(args.store, "RAAS_STORE", config, "store"), "--store")
    partners_path = _require(
        parser, _resolve(args.partners, "RAAS_PARTNERS", config, "partners"), "--partners"
    )
    listen = _require(parser, _resolve(args.listen, "RAAS_LISTEN", config, "listen"), "--listen")
    logs_dir = _require(parser, _resolve(args.logs, "RAAS_LOGS", config, "logs"), "--logs")
    seed = _resolve(args.seed, "RAAS_SEED", config, "seed")

    host, _, port_text = str(listen).rpartition(":")
    if not host or not port_text.isdigit():
        parser.error(f"--listen expects HOST:PORT, got {listen}")
    try:
        partners = load_partner_configs(partners_path)
        # The store is streamed into the index, so no record outlives startup.
        documents = _streamed_store(store_dir)
        service = build_service(
            documents, partners, logs_dir, seed=int(seed) if seed is not None else None
        )
    except (FileNotFoundError, ConfigError, ValueError) as exc:
        print(f"docrecs: {exc}", file=sys.stderr)
        return EXIT_DATA
    server = serve_http(service, host, int(port_text))
    # What startup built lives as long as the process: move it out of the
    # cyclic collector's reach, so that no later collection scans it again.
    gc.collect()
    gc.freeze()
    print(f"listening on {host}:{server.server_address[1]}", flush=True)  # port 0 binds a free one
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return EXIT_OK


def _cmd_report(parser: _Parser, args, config) -> int:
    logs_dir = _require(parser, _resolve(args.logs, "RAAS_LOGS", config, "logs"), "--logs")
    variant = _resolve(args.variant, "RAAS_VARIANT", config, "variant", default="raw")
    out_path = _require(parser, _resolve(args.out, "RAAS_OUT", config, "out"), "--out")
    if variant not in ("raw", "bot_filtered"):
        parser.error(f"--variant must be raw or bot_filtered, got {variant}")
    logs = Path(logs_dir)
    if not logs.is_dir():  # a mistyped path is not an empty history
        print(f"docrecs: logs directory not found: {logs_dir}", file=sys.stderr)
        return EXIT_DATA
    issues: list[LogIssues] = []
    rows = monthly_report(
        logs / DELIVERY_LOG_FILENAME, logs / CLICK_LOG_FILENAME, variant, issues=issues
    )
    write_report_csv(rows, out_path)
    (found,) = issues
    print(
        f"docrecs: skipped {len(found.delivery_rejects)} malformed delivery lines, "
        f"{len(found.click_rejects)} malformed click lines and "
        f"{len(found.orphan_click_ids)} orphan click ids",
        file=sys.stderr,
    )
    print(f"wrote {out_path} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_simulate(parser: _Parser, args, config) -> int:
    from .simulate import SimulationError, SimulationSpec, run_simulation

    store_dir = _require(parser, _resolve(args.store, "RAAS_STORE", config, "store"), "--store")
    partners_path = _require(
        parser, _resolve(args.partners, "RAAS_PARTNERS", config, "partners"), "--partners"
    )
    spec_path = _require(parser, _resolve(args.spec, "RAAS_SPEC", config, "spec"), "--spec")
    logs_dir = _require(parser, _resolve(args.logs, "RAAS_LOGS", config, "logs"), "--logs")
    try:
        partners = load_partner_configs(partners_path)
        spec = SimulationSpec.load(spec_path)
        result = run_simulation(_streamed_store(store_dir), partners, spec, logs_dir)
    except (FileNotFoundError, ConfigError, SimulationError, ValueError) as exc:
        print(f"docrecs: {exc}", file=sys.stderr)
        return EXIT_DATA
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
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"docrecs: cannot read config file: {exc}", file=sys.stderr)
        return EXIT_DATA
    try:
        return _COMMANDS[args.command](parser, args, config)
    except SystemExit as exc:  # parser.error() inside a command
        return int(exc.code or 0)


def main() -> None:
    sys.exit(run())
