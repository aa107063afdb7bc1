"""HTTP surface: related-document requests, click notifications, serialization.

Request handling is a pure function over :class:`HttpRequestContext`, so the
same code path serves real sockets (via the bundled threading HTTP server)
and in-process callers such as the traffic simulator. Scores are rendered
with exactly four decimal places, rounding half to even.

Routes:
    GET  /v1/documents/{document_id}/related_documents/
         query params: partner_id, count (clamped to [1, 100]), format
         (xml default, json optional)
    POST /v1/recommendations/{recommendation_id}/clicks
    GET  /v1/health
"""

from __future__ import annotations

import json
import random
import re
import threading
import traceback
from dataclasses import dataclass, field
from datetime import datetime, timezone
from decimal import ROUND_HALF_EVEN, Decimal
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Collection, Mapping
from urllib.parse import parse_qs, unquote, urlsplit

from .analytics import AnalyticsLog, popularity_table
from .arms import AlgorithmArm
from .corpus import CorpusStore, PartnerConfig
from .index import DEFAULT_QUERY_TERMS, Index, build_index
from .recommenders import (
    PopularityTable,
    RecommendationSet,
    RecommendedItem,
    produce_recommendations,
)

MAX_COUNT = 100
MAX_BODY_BYTES = 64 * 1024  # no route reads a body; this only bounds what is drained

_COUNT_RE = re.compile(r"[+-]?\d+")
_RELATED_ROUTE = re.compile(r"^/v1/documents/([^/]+)/related_documents/?$")
_CLICK_ROUTE = re.compile(r"^/v1/recommendations/([^/]+)/clicks/?$")


def _utc_now() -> datetime:
    return datetime.now(timezone.utc)


@dataclass(frozen=True)
class HttpRequestContext:
    method: str
    path: str
    query: Mapping[str, str] = field(default_factory=dict)
    user_agent: str = ""
    received_at: datetime = field(default_factory=_utc_now)


@dataclass(frozen=True)
class HttpResponse:
    status: int
    body: bytes
    content_type: str


@dataclass(frozen=True)
class LatencySample:
    set_id: str
    elapsed_ms: float


def _text(status: int, message: str) -> HttpResponse:
    return HttpResponse(status, message.encode("utf-8"), "text/plain; charset=utf-8")


def render_score(score: float) -> str:
    """Four decimal places, round half to even (0.25005 renders as 0.2500)."""
    return str(Decimal(repr(float(score))).quantize(Decimal("0.0001"), rounding=ROUND_HALF_EVEN))


def _xml_escape(value: str) -> str:
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def serialize_set_xml(rec_set: RecommendationSet) -> bytes:
    """Bit-exact UTF-8 XML: one line per element, two-space indents.

    An empty set keeps the opening and closing tags on a single line.
    """
    esc = _xml_escape
    opening = (
        f'<related_documents set_id="{esc(rec_set.set_id)}"'
        f' query_document_id="{esc(rec_set.query_document_id)}"'
        f' algorithm="{esc(rec_set.algorithm.value)}">'
    )
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    if not rec_set.items:
        lines.append(opening + "</related_documents>")
    else:
        lines.append(opening)
        for item in rec_set.items:
            lines.append(
                f'  <related_document recommendation_id="{esc(item.recommendation_id)}"'
                f' rank="{item.rank}" document_id="{esc(item.document_id)}"'
                f' score="{render_score(item.score)}">'
                f"<title>{esc(item.title)}</title></related_document>"
            )
        lines.append("</related_documents>")
    return ("\n".join(lines) + "\n").encode("utf-8")


def serialize_set_json(rec_set: RecommendationSet) -> bytes:
    """Same content as the XML form, with pinned key order and score format."""

    def js(value: str) -> str:
        return json.dumps(value, ensure_ascii=False)

    items = ",".join(
        '{"recommendation_id":%s,"rank":%d,"document_id":%s,"score":%s,"title":%s}'
        % (js(i.recommendation_id), i.rank, js(i.document_id), render_score(i.score), js(i.title))
        for i in rec_set.items
    )
    body = (
        '{"set_id":%s,"query_document_id":%s,"algorithm":%s,"items":[%s]}'
        % (js(rec_set.set_id), js(rec_set.query_document_id), js(rec_set.algorithm.value), items)
    )
    return (body + "\n").encode("utf-8")


def parse_set_json(payload: bytes | str) -> RecommendationSet:
    """Rebuild a set from its JSON form (fields absent from the wire are blank)."""
    raw = json.loads(payload)
    items = tuple(
        RecommendedItem(
            recommendation_id=i["recommendation_id"],
            rank=i["rank"],
            document_id=i["document_id"],
            score=float(i["score"]),
            title=i["title"],
        )
        for i in raw["items"]
    )
    return RecommendationSet(
        set_id=raw["set_id"],
        partner_id="",
        query_document_id=raw["query_document_id"],
        algorithm=AlgorithmArm(raw["algorithm"]),
        created_at=datetime.fromtimestamp(0, tz=timezone.utc),
        items=items,
    )


class RaasService:
    """Serves related-document requests and click notifications.

    The index and popularity table are immutable and shared across handler
    threads; analytics appends go through the log's single-writer lock, and
    per-request randomness is derived from one seeded master source so runs
    with the same seed, inputs, and clock are reproducible. Clicks are
    accepted for ``delivered_ids`` (read from ``log`` when not given) plus
    every id the service delivers.
    """

    def __init__(
        self,
        store: CorpusStore,
        partners: Mapping[str, PartnerConfig],
        log: AnalyticsLog,
        *,
        index: Index | None = None,
        pop: PopularityTable | None = None,
        seed: int | None = None,
        clock: Callable[[], datetime] | None = None,
        max_query_terms: int | None = DEFAULT_QUERY_TERMS,
        delivered_ids: set[str] | None = None,
    ):
        self.store = store
        self.partners = dict(partners)
        self.log = log
        self.index = index
        self.pop = pop if pop is not None else PopularityTable.from_store(store)
        self.clock = clock or _utc_now
        self.max_query_terms = max_query_terms
        self.latency_samples: list[LatencySample] = []
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._delivered_ids: set[str] = (
            delivered_ids if delivered_ids is not None else log.known_recommendation_ids()
        )

    def handle(self, ctx: HttpRequestContext) -> HttpResponse:
        """Dispatch one request; unknown routes never touch the analytics log."""
        match = _RELATED_ROUTE.match(ctx.path)
        if match:
            if ctx.method != "GET":
                return _text(405, "method not allowed")
            return self.handle_related_documents(ctx, unquote(match.group(1)))
        match = _CLICK_ROUTE.match(ctx.path)
        if match:
            if ctx.method != "POST":
                return _text(405, "method not allowed")
            return self.handle_click(ctx, unquote(match.group(1)))
        if ctx.path in ("/v1/health", "/v1/health/"):
            if ctx.method != "GET":
                return _text(405, "method not allowed")
            return self.handle_health()
        return _text(404, "unknown route")

    def handle_health(self) -> HttpResponse:
        if self.index is None:
            return _text(503, "not ready")
        return _text(200, "ok")

    def handle_related_documents(self, ctx: HttpRequestContext, doc_id: str) -> HttpResponse:
        if self.index is None:
            return _text(503, "index not ready")

        partner_id = ctx.query.get("partner_id")
        if partner_id is None and len(self.partners) == 1:
            partner_id = next(iter(self.partners))
        config = self.partners.get(partner_id) if partner_id is not None else None
        if config is None:
            return _text(403, "unknown partner_id")

        raw_count = ctx.query.get("count")
        if raw_count is None:
            k = config.default_k
        elif _COUNT_RE.fullmatch(raw_count):
            k = int(raw_count)
        else:
            return _text(400, "malformed count")
        k = min(max(k, 1), MAX_COUNT)

        fmt = ctx.query.get("format", "xml")
        if fmt not in ("xml", "json"):
            return _text(400, "unknown format")

        if doc_id not in self.index:
            return _text(404, "unknown document_id")

        with self._rng_lock:
            request_seed = self._rng.getrandbits(64)
        rec_set = produce_recommendations(
            self.index,
            self.pop,
            config,
            doc_id,
            k,
            random.Random(request_seed),
            max_query_terms=self.max_query_terms,
            clock=self.clock,
        )
        if fmt == "xml":
            body = serialize_set_xml(rec_set)
            content_type = "application/xml; charset=utf-8"
        else:
            body = serialize_set_json(rec_set)
            content_type = "application/json; charset=utf-8"

        self.log.record_delivery(rec_set, ctx.user_agent)
        elapsed_ms = max(0.0, (self.clock() - ctx.received_at).total_seconds() * 1000.0)
        with self._state_lock:
            self._delivered_ids.update(item.recommendation_id for item in rec_set.items)
            self.latency_samples.append(LatencySample(rec_set.set_id, elapsed_ms))
        return HttpResponse(200, body, content_type)

    def handle_click(self, ctx: HttpRequestContext, recommendation_id: str) -> HttpResponse:
        with self._state_lock:
            known = recommendation_id in self._delivered_ids
        if not known:
            return _text(404, "unknown recommendation_id")
        self.log.record_click(recommendation_id, self.clock())
        return HttpResponse(204, b"", "text/plain; charset=utf-8")

    def mean_latency_ms(self) -> float:
        with self._state_lock:
            samples = list(self.latency_samples)
        if not samples:
            return 0.0
        return sum(s.elapsed_ms for s in samples) / len(samples)


def build_service(
    store: CorpusStore,
    partners: Mapping[str, PartnerConfig],
    logs_dir: str | Path,
    *,
    seed: int | None = None,
    clock: Callable[[], datetime] | None = None,
    field_weights: Mapping[str, float] | None = None,
    stopwords: Collection[str] = frozenset(),
    max_query_terms: int | None = DEFAULT_QUERY_TERMS,
) -> RaasService:
    """Index the store, replay the existing logs once, wire a service.

    The replay yields both the popularity table and the set of delivered
    recommendation ids that later clicks are checked against.
    """
    log = AnalyticsLog(logs_dir)
    index = build_index(store, field_weights, stopwords)
    delivered_ids: set[str] = set()
    pop = popularity_table(log.delivery_path, log.click_path, store, delivered_ids=delivered_ids)
    return RaasService(
        store,
        partners,
        log,
        index=index,
        pop=pop,
        seed=seed,
        clock=clock,
        max_query_terms=max_query_terms,
        delivered_ids=delivered_ids,
    )


class _RequestHandler(BaseHTTPRequestHandler):
    server: "RaasHttpServer"

    # Seconds any one socket read or write may wait; bounds a client that
    # declares more body bytes than it sends, or goes silent mid-request.
    timeout = 10.0

    def _dispatch(self) -> None:
        split = urlsplit(self.path)
        query = {
            key: values[0]
            for key, values in parse_qs(split.query, keep_blank_values=True).items()
        }
        ctx = HttpRequestContext(
            method=self.command,
            path=split.path,
            query=query,
            user_agent=self.headers.get("User-Agent", ""),
            received_at=self.server.service.clock(),
        )
        try:
            response = self.server.service.handle(ctx)
        except Exception:
            # the connection must still get an answer; keep the traceback
            traceback.print_exc()
            response = _text(500, "internal error")
        self._respond(response)

    def _respond(self, response: HttpResponse) -> None:
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        self.end_headers()
        if response.body:
            self.wfile.write(response.body)

    def do_GET(self) -> None:
        self._dispatch()

    def do_POST(self) -> None:
        raw_length = (self.headers.get("Content-Length") or "0").strip()
        if not (raw_length.isascii() and raw_length.isdigit()):
            self._respond(_text(400, "malformed Content-Length"))
            return
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            self._respond(_text(400, "request body too large"))
            return
        if length:
            try:
                body = self.rfile.read(length)
            except TimeoutError:
                body = b""
            if len(body) < length:
                self._respond(_text(400, "request body shorter than Content-Length"))
                return
        self._dispatch()

    def log_message(self, format: str, *args) -> None:
        pass  # the analytics log is the record; keep stderr quiet


class RaasHttpServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: RaasService):
        super().__init__(address, _RequestHandler)
        self.service = service


def serve_http(service: RaasService, host: str, port: int) -> RaasHttpServer:
    """Bind a threading HTTP server; the caller runs serve_forever()."""
    return RaasHttpServer((host, port), service)
