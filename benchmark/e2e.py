"""The untraced run: real CLI processes and HTTP, timed from one client.

A run is CYCLES cycles. Each ingests the corpus into an empty store, cold
starts ``docrecs serve`` on it and on a fresh log directory (holding the
generated history, if the workload has one), sends one untimed warm-up round,
runs its share of the timed closed-loop phase, in which each round of
related requests is followed by its clicks, stops the server and runs
``docrecs report`` in both variants over that cycle's logs. Latencies pool
over the cycles; the once-per-cycle figures report their median.

``drive`` is the one round driver. It sends through a ``send(method, path,
user_agent, length=None) -> (status, body)`` callable: here one HTTP request
per call, in the traced run ``RaasService.handle`` in process.
"""

from __future__ import annotations

import csv
import functools
import gc
import http.client
import json
import math
import os
import re
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen
import oracle

CYCLES = 6
START_TIMEOUT_S = 120.0
CONTENT_STRIDE = 40  # every 40th response of each (content arm, partner) is brute-force checked
_SCORE_TEXT = re.compile(r"^[01]\.\d{4}$")


class PhaseError(RuntimeError):
    """A phase could not run to its end; the run has no result."""


# --- processes -------------------------------------------------------------


def docrecs_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "docrecs", *args]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_cli(root: Path, *args: str) -> tuple[float, str]:
    """Run one docrecs command to its end; return (wall seconds, stdout)."""
    start = time.perf_counter()
    done = subprocess.run(
        docrecs_cmd(*args), cwd=root, env=child_env(root), capture_output=True, text=True, timeout=170
    )
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise PhaseError(f"docrecs {args[0]} exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return elapsed, done.stdout


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One `docrecs serve` process on a fixed local port."""

    def __init__(self, root: Path, store: Path, partners: Path, logs: Path, seed: int, stderr: Path):
        self.port = free_port()
        self._stderr = stderr.open("ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            docrecs_cmd(
                "serve", "--store", str(store), "--partners", str(partners),
                "--listen", f"127.0.0.1:{self.port}", "--logs", str(logs), "--seed", str(seed),
            ),
            cwd=root,
            env=child_env(root),
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        # `serve` prints its banner after binding, so a blocking read costs the
        # starting server no CPU, unlike polling the port would
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("listening on"):
            self.stop()
            raise PhaseError(f"docrecs serve did not start (stderr in {stderr.name})")
        status, _ = request(self.port, "GET", "/v1/health")
        self.setup_s = time.perf_counter() - start
        if status != 200:
            self.stop()
            raise PhaseError(f"/v1/health answered {status}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise PhaseError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


# --- HTTP ------------------------------------------------------------------


def request(
    port: int, method: str, path: str, user_agent: str = "docrecs-bench", length: str | None = None
) -> tuple[int, bytes]:
    """One request on its own connection (the server speaks HTTP/1.0).

    A POST sends an empty body with ``Content-Length: <length>`` ("0" by
    default). Status 0 means the server closed the connection without a
    response."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.putrequest(method, path)
        conn.putheader("User-Agent", user_agent)
        if method == "POST":
            conn.putheader("Content-Length", length or "0")
        conn.endheaders()
        response = conn.getresponse()
        return response.status, response.read()
    except (http.client.HTTPException, OSError):
        return 0, b""
    finally:
        conn.close()


Send = Callable[..., tuple[int, bytes]]


@dataclass
class Served:
    """One related-documents response as the client saw it."""

    planned: gen.PlannedRequest
    status: int
    body: bytes
    parsed: dict | None = None


def parse_set(body: bytes, fmt: str) -> dict:
    """Normalise an XML or JSON set; scores stay as the exact text sent."""
    if fmt == "xml":
        root = ET.fromstring(body)
        if root.tag != "related_documents":
            raise ValueError(f"root element {root.tag}")
        items = [
            (e.get("recommendation_id"), e.get("rank"), e.get("document_id"), e.get("score"), e.findtext("title"))
            for e in root.findall("related_document")
        ]
        return {"set_id": root.get("set_id"), "query": root.get("query_document_id"),
                "algorithm": root.get("algorithm"), "items": items}
    raw = json.loads(body, parse_float=str, parse_int=str)
    items = [
        (i["recommendation_id"], i["rank"], i["document_id"], i["score"], i["title"]) for i in raw["items"]
    ]
    return {"set_id": raw["set_id"], "query": raw["query_document_id"],
            "algorithm": raw["algorithm"], "items": items}


def related_path(req: gen.PlannedRequest, workload: gen.Workload) -> str:
    return (
        f"/v1/documents/{req.doc_id}/related_documents/"
        f"?partner_id={req.partner_id}&count={gen.K}&format={workload.fmt}"
    )


@dataclass
class Traffic:
    served: list[Served] = field(default_factory=list)  # warm-up and timed
    click_ids: list[str] = field(default_factory=list)  # accepted clicks, in order
    click_seconds: list[float] = field(default_factory=list)
    related_seconds: list[float] = field(default_factory=list)  # timed phase only
    attempted: int = 0
    failed: int = 0
    timed_s: float = 0.0
    rounds: int = 0
    errors: list[str] = field(default_factory=list)


def rec_ids(served: Served, fmt: str) -> list[str]:
    if served.parsed is None:
        served.parsed = parse_set(served.body, fmt)
    return [item[0] for item in served.parsed["items"]]


def drive(send: Send, inputs: gen.Inputs, plan: gen.RequestPlan, warmup: gen.RequestPlan,
          seconds: float, min_requests: int) -> Traffic:
    """An untimed warm-up round, then whole rounds until both the serving
    time and the request floor are reached. A round is a serving round of
    related requests and then its clicks and malformed POSTs. Only the
    serving rounds count in ``timed_s``; the clicks are timed apart, so
    their samples spread over the whole phase without entering throughput."""
    w = inputs.workload
    traffic = Traffic()
    for req in warmup.round():
        status, body = send("GET", related_path(req, w), req.user_agent)
        traffic.served.append(Served(req, status, body))

    history_ids = inputs.history.human_rec_ids if inputs.history else []
    while True:
        round_served = []
        round_start = time.perf_counter()
        for req in plan.round():
            sent = time.perf_counter()
            status, body = send("GET", related_path(req, w), req.user_agent)
            traffic.related_seconds.append(time.perf_counter() - sent)
            round_served.append(Served(req, status, body))
            traffic.attempted += 1
            if status != 200:
                traffic.failed += 1
        traffic.timed_s += time.perf_counter() - round_start
        traffic.served.extend(round_served)
        traffic.rounds += 1

        humans = [s for s in round_served if s.status == 200 and s.planned.user_agent in gen.HUMAN_AGENTS]
        picks = plan.pick([(s, rank) for s in humans for rank in range(gen.K)], w.fresh_clicks + w.bad_posts)
        fresh = [rec_ids(s, w.fmt)[rank] for s, rank in picks[: w.fresh_clicks]]
        for rec_id in fresh + plan.pick(history_ids, w.history_clicks):
            sent = time.perf_counter()
            status, _ = send("POST", f"/v1/recommendations/{rec_id}/clicks", gen.HUMAN_AGENTS[0])
            elapsed = time.perf_counter() - sent
            traffic.attempted += 1
            if status == 204:
                traffic.click_ids.append(rec_id)
                traffic.click_seconds.append(elapsed)
            else:
                traffic.failed += 1
                traffic.errors.append(f"click on {rec_id} answered {status}")
        for s, rank in picks[w.fresh_clicks:]:
            path = f"/v1/recommendations/{rec_ids(s, w.fmt)[rank]}/clicks"
            status, _ = send("POST", path, gen.HUMAN_AGENTS[0], length="twelve")
            traffic.attempted += 1
            if status != 400:  # the adapter should refuse the request, not drop it
                traffic.failed += 1
        if traffic.timed_s >= seconds and len(traffic.related_seconds) >= min_requests:
            return traffic


# --- checks ----------------------------------------------------------------


class Checker:
    """Checks every response, a brute-force sample of content responses, the
    logs and the report against values computed from the generated inputs."""

    def __init__(self, inputs: gen.Inputs):
        self.inputs = inputs
        self.w = inputs.workload
        self.records = {r["id"]: r for r in inputs.records}
        self.partners = {p["partner_id"]: p for p in inputs.partners}
        self.scopes = {pid: set(p["allowed_collections"]) for pid, p in self.partners.items()}
        order = oracle.most_popular_order(inputs.records, inputs.history)
        self.popular = {
            pid: [d for d in order if self.records[d]["collection_id"] in scope][: gen.K + 1]
            for pid, scope in self.scopes.items()
        }
        self.errors: list[str] = []
        self.sampled: dict[tuple[str, str], list[Served]] = {}
        self.content_seen: dict[tuple[str, str], int] = {}
        self.checked_content = 0

    def fail(self, message: str) -> None:
        self.errors.append(message)

    def popular_for(self, pid: str, query: str) -> list[tuple[str, float]]:
        k = gen.K
        top = [d for d in self.popular[pid] if d != query][:k]
        return [(d, 1.0 - i / k) for i, d in enumerate(top)]

    def padded(self, primary: list[tuple[str, float]], pid: str, query: str) -> list[tuple[str, float]]:
        chosen = list(primary[: gen.K])
        seen = {query} | {d for d, _ in chosen}
        for doc, score in self.popular_for(pid, query):
            if len(chosen) < gen.K and doc not in seen:
                chosen.append((doc, score))
                seen.add(doc)
        return chosen

    def response(self, served: Served, seen_rec_ids: set[str]) -> None:
        req, k = served.planned, gen.K
        where = f"{req.doc_id} for {req.partner_id}"
        if served.status != 200:
            self.fail(f"{where}: status {served.status}")
            return
        try:
            parsed = served.parsed or parse_set(served.body, self.w.fmt)
        except (ValueError, KeyError, TypeError, ET.ParseError) as exc:
            self.fail(f"{where}: unparsable body ({exc})")
            return
        served.parsed = parsed
        partner = self.partners[req.partner_id]
        items = parsed["items"]
        ids = [i[2] for i in items]
        if parsed["query"] != req.doc_id:
            self.fail(f"{where}: query_document_id {parsed['query']}")
        if parsed["algorithm"] not in {a for a, wt in partner["arm_weights"].items() if wt > 0}:
            self.fail(f"{where}: algorithm {parsed['algorithm']} not configured")
        if len(items) != k or len(set(ids)) != k or req.doc_id in ids:
            self.fail(f"{where}: {len(items)} items, {len(set(ids))} distinct, query included={req.doc_id in ids}")
            return
        for rank, (rec_id, rank_text, doc, score, title) in enumerate(items, start=1):
            if str(rank_text) != str(rank):
                self.fail(f"{where}: rank {rank_text} at position {rank}")
            if not _SCORE_TEXT.match(str(score)) or float(score) > 1.0:
                self.fail(f"{where}: score {score!r}")
            record = self.records.get(doc)
            if record is None or record["collection_id"] not in self.scopes[req.partner_id]:
                self.fail(f"{where}: {doc} outside the partner's scope")
                continue
            if title != record["title"]:
                self.fail(f"{where}: title of {doc} differs")
            if rec_id in seen_rec_ids:
                self.fail(f"{where}: recommendation id {rec_id} repeated")
            seen_rec_ids.add(rec_id)
        algorithm = parsed["algorithm"]
        if algorithm == "most_popular":
            self.expect(where, items, self.popular_for(req.partner_id, req.doc_id))
        elif algorithm == "stereotype":
            scope = self.scopes[req.partner_id]
            listed = [
                d for d in partner["stereotype_list"]
                if d != req.doc_id and self.records[d]["collection_id"] in scope
            ][:k]
            primary = [(d, 1.0 - i / k) for i, d in enumerate(listed)]
            self.expect(where, items, self.padded(primary, req.partner_id, req.doc_id))
        else:
            key = (algorithm, req.partner_id)
            self.content_seen[key] = self.content_seen.get(key, 0) + 1
            if self.content_seen[key] % CONTENT_STRIDE == 1:
                self.sampled.setdefault(key, []).append(served)

    def expect(self, where: str, items: list, want: list[tuple[str, float]]) -> None:
        got = [(i[2], i[3]) for i in items]
        if [d for d, _ in got] != [d for d, _ in want] or not all(
            oracle.score_matches(s, e) for (_, s), (_, e) in zip(got, want)
        ):
            self.fail(f"{where}: got {got}, expected {[(d, oracle.render4(s)) for d, s in want]}")

    def content_samples(self) -> None:
        """Brute-force cosine for the sampled content-arm responses."""
        if not self.sampled:
            return
        brute = oracle.BruteForce(self.inputs.records)
        k = gen.K
        for (algorithm, pid), bucket in sorted(self.sampled.items()):
            for served in bucket:
                query = served.planned.doc_id
                ranking = brute.ranking(query, self.scopes[pid])
                scores = dict(ranking)
                got = [(i[2], float(i[3])) for i in served.parsed["items"]]
                where = f"{algorithm} {query} for {pid}"
                if algorithm == "content_based_readership_rerank":
                    pool = ranking[: max(k, oracle.RERANK_POOL)]
                    want = brute.rerank(pool)[:k]
                    ok = self._rerank_ok(got, want, pool, ranking, brute)
                else:
                    want = ranking[:k]
                    ok = oracle.same_up_to_ties(got[: len(want)], want, scores)
                if len(want) < k:  # the arm ran short: the rest is most-popular padding
                    rest = self.padded(want, pid, query)[len(want):]
                    ok = ok and [d for d, _ in got[len(want):]] == [d for d, _ in rest]
                ok = ok and all(
                    oracle.score_matches(i[3], scores.get(i[2], s))
                    for i, (_, s) in zip(served.parsed["items"], self.padded(want, pid, query))
                )
                self.checked_content += 1
                if not ok:
                    self.fail(f"{where}: got {got}, brute force {[(d, round(s, 6)) for d, s in want]}")

    @staticmethod
    def _rerank_ok(got, want, pool, ranking, brute) -> bool:
        if [d for d, _ in got[: len(want)]] == [d for d, _ in want]:
            return True
        # near-ties may move a candidate across the pool's edge or swap two
        # equal-readership neighbours: accept any order the tolerance allows
        if not pool:
            return False
        floor = pool[-1][1] - oracle.TIE_EPS
        scores = dict(ranking)
        eligible = [d for d, s in ranking if s >= floor]
        if any(d not in scores or scores[d] < floor for d, _ in got[: len(want)]):
            return False
        keys = [(-brute.readership[d], -scores[d]) for d, _ in got[: len(want)]]
        ordered = all(
            a[0] < b[0] or (a[0] == b[0] and a[1] <= b[1] + oracle.TIE_EPS) for a, b in zip(keys, keys[1:])
        )
        best = sorted((-brute.readership[d], -scores[d]) for d in eligible)[: len(want)]
        return ordered and all(
            g[0] == b[0] and abs(g[1] - b[1]) < oracle.TIE_EPS for g, b in zip(keys, best)
        )

    def live_deliveries(self, traffic: Traffic) -> list[oracle.Delivery]:
        return [
            oracle.Delivery(item[0], s.parsed["algorithm"], s.planned.user_agent, "live")
            for s in traffic.served
            if s.parsed is not None
            for item in s.parsed["items"]
        ]

    def logs(self, logs_dir: Path, traffic: Traffic) -> None:
        history = self.inputs.history
        base_d = base_c = 0
        if history is not None:
            base_d = len(history.deliveries) + len(history.malformed_delivery_lines)
            base_c = len(history.clicks) + len(history.malformed_click_lines)
        delivered = [d.recommendation_id for d in self.live_deliveries(traffic)]
        d_lines = (logs_dir / "deliveries.jsonl").read_text(encoding="utf-8").splitlines()
        c_lines = (logs_dir / "clicks.jsonl").read_text(encoding="utf-8").splitlines() if (
            logs_dir / "clicks.jsonl"
        ).exists() else []
        if len(d_lines) != base_d + len(delivered):
            self.fail(f"delivery log has {len(d_lines)} lines, expected {base_d + len(delivered)}")
        elif sorted(json.loads(x)["recommendation_id"] for x in d_lines[base_d:]) != sorted(delivered):
            self.fail("delivery log ids differ from the delivered items")
        if len(c_lines) != base_c + len(traffic.click_ids):
            self.fail(f"click log has {len(c_lines)} lines, expected {base_c + len(traffic.click_ids)}")

    def report(self, path: Path, variant: str, traffic: Traffic, live_months: set[str]) -> None:
        history = self.inputs.history
        deliveries = self.live_deliveries(traffic)
        clicks = list(traffic.click_ids)
        if history is not None:
            deliveries = oracle.history_deliveries(history) + deliveries
            clicks = oracle.history_click_ids(history) + clicks
        want = oracle.expected_rows(deliveries, clicks, variant)
        with path.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["period", "variant", "algorithm", "deliveries", "clicks", "ctr_percent"]:
            self.fail(f"{variant} report header {rows[0]}")
        known = {r[0] for r in want}
        got = [tuple(r) for r in rows[1:] if r[0] in known]
        extra = {r[0] for r in rows[1:]} - known
        if got != want:
            self.fail(f"{variant} report rows differ: got {got[-6:]}, expected {want[-6:]}")
        if not extra <= live_months:
            self.fail(f"{variant} report has periods {sorted(extra - live_months)}")


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the CPU this run is pinned to, from /proc/stat."""
    label = f"cpu{min(os.sched_getaffinity(0))}"
    with open("/proc/stat", encoding="ascii") as fh:
        for line in fh:
            if line.split(maxsplit=1)[0] == label:
                fields = [int(x) for x in line.split()[1:9]]
                return fields[7], sum(fields)
    return 0, 0


def utc_month() -> str:
    return time.strftime("%Y-%m", time.gmtime())


# --- the run ---------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with q % of the sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


@dataclass
class Cycle:
    traffic: Traffic
    ingest_s: float
    setup_s: float
    report_s: float
    rss_mb: float
    steal: float  # share of the pinned CPU's time the hypervisor took during the cycle


def run_cycle(root: Path, work: Path, inputs: gen.Inputs, checker: Checker, plan: gen.RequestPlan,
              warmup: gen.RequestPlan, server_seed: int, seconds: float, min_requests: int) -> Cycle:
    corpus, partners = work / "corpus.jsonl", work / "partners.jsonl"
    store, logs = work / "store", work / "logs"
    steal0, total0 = cpu_ticks()
    ingest_s, out = run_cli(root, "ingest", "--corpus", str(corpus), "--store", str(store))
    if out.strip() != f"accepted={len(inputs.records)} rejected=0":
        raise PhaseError(f"ingest printed {out.strip()!r}")
    if inputs.history is not None:
        gen.write_history(inputs.history, logs)

    months = {utc_month()}
    server = Server(root, store, partners, logs, server_seed, work / "serve.stderr")
    try:
        traffic = drive(functools.partial(request, server.port), inputs, plan, warmup, seconds, min_requests)
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    months.add(utc_month())

    report_s = 0.0
    for variant in ("raw", "bot_filtered"):
        elapsed, _ = run_cli(
            root, "report", "--logs", str(logs), "--store", str(store),
            "--variant", variant, "--out", str(work / f"report_{variant}.csv"),
        )
        report_s += elapsed
    steal1, total1 = cpu_ticks()

    seen: set[str] = set()  # recommendation ids are unique within one server's life
    for served in traffic.served:
        checker.response(served, seen)
    checker.logs(logs, traffic)
    for variant in ("raw", "bot_filtered"):
        checker.report(work / f"report_{variant}.csv", variant, traffic, months)
    shutil.rmtree(store)
    shutil.rmtree(logs)
    return Cycle(traffic, ingest_s, server.setup_s, report_s, rss_mb, (steal1 - steal0) / max(1, total1 - total0))


def run(root: Path, work: Path, workload: gen.Workload, seed: int, seconds: float) -> dict:
    """CYCLES cycles of ingest, cold start, a share of the timed phase and the
    two reports, so that every repeated figure samples the whole run rather
    than one stretch of it."""
    inputs = gen.make_inputs(workload, seed)
    gen.write_corpus(inputs.records, work / "corpus.jsonl")
    gen.write_partners(inputs.partners, work / "partners.jsonl")
    gc.freeze()  # the generated inputs are never garbage: keep them out of client collections
    checker = Checker(inputs)
    plan, warmup = gen.RequestPlan(inputs), gen.RequestPlan(inputs, "warmup")

    # each cycle's server gets its own --seed, so the run's arm draws are
    # CYCLES different sequences rather than one sequence six times over
    cycles = [
        run_cycle(root, work, inputs, checker, plan, warmup, seed * CYCLES + i,
                  seconds / CYCLES, -(-gen.MIN_REQUESTS // CYCLES))
        for i in range(CYCLES)
    ]
    checker.content_samples()
    timed = [c.traffic for c in cycles]

    attempted = sum(c.traffic.attempted for c in cycles)
    failed = sum(c.traffic.failed for c in cycles)
    errors = [e for c in cycles for e in c.traffic.errors] + checker.errors
    related_ms = [s * 1000.0 for t in timed for s in t.related_seconds]
    phases = [
        {"phase": "ingest", "attempted": len(cycles), "failed": 0},
        {"phase": "cold_start", "attempted": len(cycles), "failed": 0},
        {"phase": "serve", "attempted": attempted, "failed": failed,
         "rounds": sum(c.traffic.rounds for c in cycles),
         "related": sum(len(c.traffic.related_seconds) for c in cycles),
         "clicks": sum(len(c.traffic.click_ids) for c in cycles),
         "timed_s": round(sum(c.traffic.timed_s for c in cycles), 3),
         "related_p99_ms": round(percentile(related_ms, 99), 3), "related_max_ms": round(max(related_ms), 3)},
        {"phase": "report", "attempted": 2 * len(cycles), "failed": 0},
        {"phase": "cycles", **{
            name: [round(getattr(c, name), 4) for c in cycles]
            for name in ("ingest_s", "setup_s", "report_s", "rss_mb", "steal")
        }},
        {"phase": "checks", "responses": sum(len(c.traffic.served) for c in cycles),
         "brute_force": checker.checked_content, "errors": len(errors)},
    ]
    for phase in phases:
        print(json.dumps(phase))
    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)

    click_ms = [s * 1000.0 for t in timed for s in t.click_seconds]
    metrics = {
        "setup_s": (statistics.median(c.setup_s for c in cycles), "s"),
        "ingest_s": (statistics.median(c.ingest_s for c in cycles), "s"),
        "related_p50_ms": (statistics.median(related_ms), "ms"),
        "related_p95_ms": (percentile(related_ms, 95), "ms"),
        "throughput_rps": (len(related_ms) / sum(t.timed_s for t in timed), "1/s"),
        "click_p50_ms": (statistics.median(click_ms), "ms"),
        "report_s": (statistics.median(c.report_s for c in cycles), "s"),
        "server_peak_rss_mb": (statistics.median(c.rss_mb for c in cycles), "MB"),
    }
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
