"""The traced run: the workload's inputs replayed in process, one span per layer call.

Spans are recorded from outside the program: the public functions of each
module are wrapped where their callers look them up (``docrecs.service``
imports ``produce_recommendations``, ``build_index`` and
``popularity_table`` by name; ``docrecs.recommenders`` calls
``more_like_this``, ``recommend_most_popular`` and ``rerank_bibliometric``
through its globals). A name a later change removes is reported as an absent
layer with value 0. Spans stay in memory and are written to
``.bench_out/spans-<workload>-<seed>.jsonl`` when the run ends.
"""

from __future__ import annotations

import contextlib
import gc
import json
import random
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import docrecs
import docrecs.analytics
import docrecs.corpus
import docrecs.index
import docrecs.recommenders
import docrecs.service
from docrecs import AlgorithmArm, CorpusStore, HttpRequestContext, PartnerConfig, load_partner_configs

import e2e
import gen

PROBE_QUERIES = 30  # direct produce_recommendations calls per arm
HEALTH_REQUESTS = 200

PER_LAYER = (
    ("corpus.ingest_corpus.docs_per_s", "1/s"),
    ("corpus.store_load_s", "s"),
    ("index.build_index_s", "s"),
    ("index.index_mb", "MB"),
    ("index.more_like_this.k5.p50_ms", "ms"),
    ("index.more_like_this.k5.p99_ms", "ms"),
    ("index.more_like_this.k50.p50_ms", "ms"),
    ("index.more_like_this.k50.p99_ms", "ms"),
    ("recommenders.recommend_most_popular.p50_ms", "ms"),
    ("recommenders.padded_share", "ratio"),
    ("recommenders.rerank_bibliometric.p50_us", "us"),
    *(
        (f"recommenders.produce.{arm}.{q}", "ms")
        for arm in gen.ARMS
        for q in ("p50_ms", "p99_ms")
    ),
    ("service.handle.related.p50_ms", "ms"),
    ("service.handle.related.p99_ms", "ms"),
    ("service.handle.click.p50_us", "us"),
    ("service.serialize_set_xml.p50_us", "us"),
    ("service.serialize_set_json.p50_us", "us"),
    ("service.http_health.p50_ms", "ms"),
    ("analytics.record_delivery.p50_us", "us"),
    ("analytics.record_click.p50_us", "us"),
    ("analytics.read_delivery_log.lines_per_s", "1/s"),
    ("analytics.known_recommendation_ids_s", "s"),
    ("analytics.popularity_table_s", "s"),
    ("analytics.monthly_report.raw_s", "s"),
    ("analytics.monthly_report.bot_filtered_s", "s"),
    ("gc.gen2.count", "count"),
    ("gc.gen2.pause_ms", "ms"),
    ("gc.pause.max_ms", "ms"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "attrs")

    def __init__(self, name, start, parent, request):
        self.name, self.start, self.end = name, start, 0
        self.parent, self.request, self.attrs = parent, request, None

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


class Tracer:
    """Spans with parent links, kept in memory; one open-span stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = None
        self.absent: list[str] = []
        self._local = threading.local()
        self._restore = []

    def open(self, name: str) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(name, time.perf_counter_ns(), stack[-1] if stack else None, self.request)
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._local.stack.pop()

    def wrap(self, owner, attr: str, name, attrs=None) -> None:
        """Replace ``owner.attr`` by a function that records a span per call.

        ``name`` is the span name, or a function of the call's arguments
        giving it; ``attrs`` maps (args, kwargs, result) to span attributes.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.end]

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name: duration minus what child spans cover."""
        child_ms = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None and span.end:
                child_ms[span.parent] += span.ms
        totals: dict[str, float] = {}
        for span, children in zip(self.spans, child_ms):
            if span.end:
                totals[span.name] = totals.get(span.name, 0.0) + span.ms - children
        return totals

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                                     "parent": s.parent, "request": s.request, "attrs": s.attrs}) + "\n")


def _arg(args, kwargs, position: int, name: str, default=None):
    return args[position] if len(args) > position else kwargs.get(name, default)


def install(tracer: Tracer) -> None:
    service, recs, analytics = docrecs.service, docrecs.recommenders, docrecs.analytics
    tracer.wrap(docrecs.corpus, "ingest_corpus", "corpus.ingest_corpus", lambda a, k, r: {"docs": r.accepted})
    tracer.wrap(service, "build_index", "index.build_index")
    tracer.wrap(recs, "more_like_this", lambda a, k: f"index.more_like_this.k{_arg(a, k, 2, 'k')}")
    tracer.wrap(recs, "recommend_most_popular", "recommenders.recommend_most_popular")
    tracer.wrap(recs, "rerank_bibliometric", "recommenders.rerank_bibliometric")
    tracer.wrap(service, "produce_recommendations", "recommenders.produce_recommendations",
                lambda a, k, r: {"arm": r.algorithm.value, "k": _arg(a, k, 4, "k")})
    tracer.wrap(service, "serialize_set_xml", "service.serialize_set_xml")
    tracer.wrap(service, "serialize_set_json", "service.serialize_set_json")
    tracer.wrap(service, "popularity_table", "analytics.popularity_table")
    tracer.wrap(analytics.AnalyticsLog, "record_delivery", "analytics.record_delivery")
    tracer.wrap(analytics.AnalyticsLog, "record_click", "analytics.record_click")
    tracer.wrap(analytics.AnalyticsLog, "known_recommendation_ids", "analytics.known_recommendation_ids")
    tracer.wrap(analytics, "read_delivery_log", "analytics.read_delivery_log",
                lambda a, k, r: {"lines": len(r[0]) + len(r[1])})
    tracer.wrap(analytics, "monthly_report", lambda a, k: f"analytics.monthly_report.{_arg(a, k, 2, 'variant', 'raw')}")


class GcWatch:
    """Collection pauses by generation, through ``gc.callbacks``."""

    def __init__(self):
        self.pauses: list[tuple[int, float]] = []
        self._start = 0

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter_ns()
        else:
            self.pauses.append((info["generation"], (time.perf_counter_ns() - self._start) / 1e6))

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


def _context(method: str, path: str, agent: str) -> HttpRequestContext:
    route, _, query = path.partition("?")
    params = dict(pair.split("=", 1) for pair in query.split("&")) if query else {}
    return HttpRequestContext(method=method, path=route, query=params, user_agent=agent)


def in_process_send(tracer: Tracer, service, port: int, counter: list[int]) -> e2e.Send:
    """``e2e.drive``'s send through ``RaasService.handle``, one span per call.

    A POST with a malformed ``Content-Length`` exists only over HTTP, so it
    goes to ``port``, an HTTP adapter serving the same service."""

    def send(method: str, path: str, user_agent: str, length: str | None = None) -> tuple[int, bytes]:
        if length is not None:
            return e2e.request(port, method, path, user_agent, length)
        counter[0] += 1
        tracer.request = counter[0]
        span = tracer.open("service.handle.related" if method == "GET" else "service.handle.click")
        try:
            response = service.handle(_context(method, path, user_agent))
        finally:
            tracer.close(span)
            tracer.request = None
        return response.status, response.body

    return send


@contextlib.contextmanager
def http_adapter(service, stderr: Path):
    """``serve_http`` on a free port in a thread; yields the port. The
    handler threads' tracebacks go to ``stderr``."""
    server = docrecs.service.serve_http(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with stderr.open("w", encoding="utf-8") as fh, contextlib.redirect_stderr(fh):
            yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def probe(service, inputs: gen.Inputs) -> None:
    """Each arm on its own over the first partner's scope, so that every
    per-arm and per-serializer metric has samples on every workload."""
    partner = inputs.partners[0]
    rng = random.Random(f"{inputs.workload.name}:{inputs.seed}:probe")
    scope = inputs.scope_ids(partner)
    stereotype = tuple(partner["stereotype_list"]) or tuple(sorted(rng.sample(scope, 10)))
    queries = rng.sample(scope, PROBE_QUERIES)
    for arm in gen.ARMS:
        config = PartnerConfig(
            partner_id=partner["partner_id"],
            allowed_collections=frozenset(partner["allowed_collections"]),
            arm_weights={AlgorithmArm(arm): 1.0},
            stereotype_list=stereotype,
            default_k=gen.K,
        )
        for i, query in enumerate(queries):
            rec_set = docrecs.service.produce_recommendations(
                service.index, service.pop, config, query, gen.K, random.Random(i)
            )
            docrecs.service.serialize_set_xml(rec_set)
            docrecs.service.serialize_set_json(rec_set)


def http_health(tracer: Tracer, port: int) -> None:
    for _ in range(HEALTH_REQUESTS):
        span = tracer.open("service.http_health")
        status, _ = e2e.request(port, "GET", "/v1/health")
        tracer.close(span)
        if status != 200:
            raise e2e.PhaseError(f"/v1/health answered {status}")


def span_overhead_ns() -> float:
    """Cost of one recorded span: a wrapped no-op against the bare one."""
    holder = type("Holder", (), {"noop": staticmethod(lambda: None)})
    calls = 20_000
    bare = holder.noop
    start = time.perf_counter_ns()
    for _ in range(calls):
        bare()
    bare_ns = time.perf_counter_ns() - start
    scratch = Tracer()
    scratch.wrap(holder, "noop", "noop")
    wrapped = holder.noop
    start = time.perf_counter_ns()
    for _ in range(calls):
        wrapped()
    return (time.perf_counter_ns() - start - bare_ns) / calls


def _q(values: list[float], q: float) -> float:
    return e2e.percentile(values, q) if values else 0.0


def metrics(tracer: Tracer, gc_watch: GcWatch, full_pass_ms: float, index_mb: float) -> dict[str, float]:
    def ms(name):
        return [s.ms for s in tracer.named(name)]

    def total_s(name):
        return sum(ms(name)) / 1000.0

    out = {}
    ingest = tracer.named("corpus.ingest_corpus")
    out["corpus.ingest_corpus.docs_per_s"] = (
        sum(s.attrs["docs"] for s in ingest) / (sum(s.ms for s in ingest) / 1000.0) if ingest else 0.0
    )
    out["corpus.store_load_s"] = total_s("corpus.store_load")
    out["index.build_index_s"] = total_s("index.build_index")
    out["index.index_mb"] = index_mb
    for k in (5, 50):
        out[f"index.more_like_this.k{k}.p50_ms"] = _q(ms(f"index.more_like_this.k{k}"), 50)
        out[f"index.more_like_this.k{k}.p99_ms"] = _q(ms(f"index.more_like_this.k{k}"), 99)
    out["recommenders.recommend_most_popular.p50_ms"] = _q(ms("recommenders.recommend_most_popular"), 50)
    out["recommenders.rerank_bibliometric.p50_us"] = _q(ms("recommenders.rerank_bibliometric"), 50) * 1000.0

    produced = [(i, s) for i, s in enumerate(tracer.spans) if s.name == "recommenders.produce_recommendations" and s.attrs]
    popular_calls: dict[int, int] = {}
    for s in tracer.spans:
        if s.name == "recommenders.recommend_most_popular" and s.parent is not None:
            popular_calls[s.parent] = popular_calls.get(s.parent, 0) + 1
    # a set was padded when most-popular ran beyond the call its own arm makes
    padded = sum(
        1 for i, s in produced if popular_calls.get(i, 0) > (1 if s.attrs["arm"] == "most_popular" else 0)
    )
    out["recommenders.padded_share"] = padded / len(produced) if produced else 0.0
    for arm in gen.ARMS:
        arm_ms = [s.ms for _, s in produced if s.attrs["arm"] == arm]
        out[f"recommenders.produce.{arm}.p50_ms"] = _q(arm_ms, 50)
        out[f"recommenders.produce.{arm}.p99_ms"] = _q(arm_ms, 99)

    out["service.handle.related.p50_ms"] = _q(ms("service.handle.related"), 50)
    out["service.handle.related.p99_ms"] = _q(ms("service.handle.related"), 99)
    out["service.handle.click.p50_us"] = _q(ms("service.handle.click"), 50) * 1000.0
    out["service.serialize_set_xml.p50_us"] = _q(ms("service.serialize_set_xml"), 50) * 1000.0
    out["service.serialize_set_json.p50_us"] = _q(ms("service.serialize_set_json"), 50) * 1000.0
    out["service.http_health.p50_ms"] = _q(ms("service.http_health"), 50)
    out["analytics.record_delivery.p50_us"] = _q(ms("analytics.record_delivery"), 50) * 1000.0
    out["analytics.record_click.p50_us"] = _q(ms("analytics.record_click"), 50) * 1000.0
    reads = tracer.named("analytics.read_delivery_log")
    read_s = sum(s.ms for s in reads) / 1000.0
    out["analytics.read_delivery_log.lines_per_s"] = sum(s.attrs["lines"] for s in reads) / read_s if read_s else 0.0
    out["analytics.known_recommendation_ids_s"] = total_s("analytics.known_recommendation_ids")
    out["analytics.popularity_table_s"] = total_s("analytics.popularity_table")
    out["analytics.monthly_report.raw_s"] = total_s("analytics.monthly_report.raw")
    out["analytics.monthly_report.bot_filtered_s"] = total_s("analytics.monthly_report.bot_filtered")
    out["gc.gen2.count"] = sum(1 for g, _ in gc_watch.pauses if g == 2)
    out["gc.gen2.pause_ms"] = full_pass_ms
    out["gc.pause.max_ms"] = max((p for _, p in gc_watch.pauses), default=0.0)
    return out


def run(out_dir: Path, work: Path, workload: gen.Workload, seed: int, seconds: float) -> dict:
    inputs = gen.make_inputs(workload, seed)
    lines = [json.dumps(r) for r in inputs.records]
    partners_path = work / "partners.jsonl"
    gen.write_partners(inputs.partners, partners_path)
    logs = work / "logs"
    if inputs.history is not None:
        gen.write_history(inputs.history, logs)

    tracer = Tracer()
    install(tracer)
    try:
        docrecs.corpus.ingest_corpus(lines, CorpusStore(work / "store"))
        span = tracer.open("corpus.store_load")
        store = CorpusStore(work / "store")
        tracer.close(span)

        tracemalloc.start()  # index memory: a separate, untimed build
        before = tracemalloc.get_traced_memory()[0]
        index = docrecs.index.build_index(store)
        index_mb = (tracemalloc.get_traced_memory()[0] - before) / 2**20
        tracemalloc.stop()
        del index

        service = docrecs.service.build_service(store, load_partner_configs(partners_path), logs, seed=seed)
        gc.collect()
        with GcWatch() as forced:  # one full pass over everything the index holds
            gc.collect()
        full_pass_ms = sum(p for _, p in forced.pauses)

        with http_adapter(service, work / "http.stderr") as port:
            calls = [0]  # requests through handle, warm-up included
            send = in_process_send(tracer, service, port, calls)
            with GcWatch() as gc_watch:
                traffic = e2e.drive(send, inputs, gen.RequestPlan(inputs), gen.RequestPlan(inputs, "warmup"),
                                    seconds, gen.MIN_REQUESTS)
            probe(service, inputs)
            http_health(tracer, port)
        for variant in ("raw", "bot_filtered"):
            docrecs.analytics.monthly_report(service.log.delivery_path, service.log.click_path, variant)
        per_span_ns = span_overhead_ns()
    finally:
        tracer.unwrap_all()

    checker = e2e.Checker(inputs)
    seen: set[str] = set()
    for served in traffic.served:
        checker.response(served, seen)
    checker.content_samples()
    checker.logs(logs, traffic)
    for message in (traffic.errors + checker.errors)[:20]:
        print(f"check failed: {message}", file=sys.stderr)

    values = metrics(tracer, gc_watch, full_pass_ms, index_mb)
    requests = calls[0]
    tracer.dump(out_dir / f"spans-{workload.name}-{seed}.jsonl")
    in_requests = sum(1 for s in tracer.spans if s.request is not None)
    handle_ms = values["service.handle.related.p50_ms"]
    print(json.dumps({"trace_overhead": {
        "ns_per_span": round(per_span_ns, 1),
        "spans_per_request": round(in_requests / requests, 2),
        "share_of_handle_related_p50": round(in_requests / requests * per_span_ns / 1e6 / handle_ms, 5),
    }}))
    top = sorted(tracer.self_ms().items(), key=lambda kv: -kv[1])
    print(json.dumps({"self_ms": {name: round(v, 1) for name, v in top}}))
    if tracer.absent:
        print(f"absent layers (reported as 0): {', '.join(tracer.absent)}", file=sys.stderr)
    return {
        "correct": not checker.errors and not traffic.errors,
        "attempted": traffic.attempted,
        "failed": traffic.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER},
    }
