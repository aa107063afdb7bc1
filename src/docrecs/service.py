"""HTTP surface: related-document requests, click notifications, serialization.

Request handling is a pure function over :class:`HttpRequestContext`, so the
same code path serves real sockets (via the bundled HTTP/1.1 server)
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

import queue
import random
import re
import selectors
import socket
import socketserver
import threading
import time
import traceback
from dataclasses import dataclass, field
from datetime import datetime
from decimal import ROUND_HALF_EVEN, Decimal
from http import HTTPStatus
from pathlib import Path
from typing import Callable, Iterable, Mapping
from urllib.parse import parse_qs, unquote, urlsplit

from .analytics import AnalyticsLog, popularity_table
from .corpus import DocumentRecord, PartnerConfig, to_json
from .index import build_index
from .recommenders import PopularityTable, RecommendationSet, _utc_now, produce_recommendations

MAX_COUNT = 100
MAX_BODY_BYTES = 64 * 1024  # no route reads a body; this only bounds what is drained

_COUNT_RE = re.compile(r"[+-]?\d+")
_RELATED_ROUTE = re.compile(r"^/v1/documents/([^/]+)/related_documents/?$")
_CLICK_ROUTE = re.compile(r"^/v1/recommendations/([^/]+)/clicks/?$")


@dataclass(frozen=True)
class HttpRequestContext:
    method: str
    path: str
    query: Mapping[str, str] = field(default_factory=dict)
    user_agent: str = ""


@dataclass(frozen=True)
class HttpResponse:
    status: int
    body: bytes
    content_type: str


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
    js = to_json  # a string's JSON form, quoted and escaped
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


class RaasService:
    """Serves related-document requests and click notifications.

    The popularity table and the index it ranks (``index``, taken from
    ``pop``) are immutable and shared across handler threads; analytics
    appends go through the log's single-writer lock, and per-request
    randomness is derived from one seeded master source so runs with the
    same seed, inputs, and clock are reproducible. Clicks are accepted for
    ``delivered_ids`` (:func:`build_service` fills it from its log replay)
    plus every id the service delivers; the service adds to that set.
    """

    def __init__(
        self,
        partners: Mapping[str, PartnerConfig],
        log: AnalyticsLog,
        pop: PopularityTable,
        delivered_ids: set[str],
        *,
        seed: int | None = None,
        clock: Callable[[], datetime] = _utc_now,
    ):
        self.partners = dict(partners)
        self.log = log
        self.pop = pop
        self.index = pop.index
        self.clock = clock
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._delivered_ids = delivered_ids

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
            return _text(200, "ok")
        return _text(404, "unknown route")

    def handle_related_documents(self, ctx: HttpRequestContext, doc_id: str) -> HttpResponse:
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
            clock=self.clock,
        )
        if fmt == "xml":
            body = serialize_set_xml(rec_set)
            content_type = "application/xml; charset=utf-8"
        else:
            body = serialize_set_json(rec_set)
            content_type = "application/json; charset=utf-8"

        self.log.record_delivery(rec_set, ctx.user_agent)
        with self._state_lock:
            self._delivered_ids.update(item.recommendation_id for item in rec_set.items)
        return HttpResponse(200, body, content_type)

    def handle_click(self, ctx: HttpRequestContext, recommendation_id: str) -> HttpResponse:
        with self._state_lock:
            known = recommendation_id in self._delivered_ids
        if not known:
            return _text(404, "unknown recommendation_id")
        self.log.record_click(recommendation_id, self.clock())
        return HttpResponse(204, b"", "text/plain; charset=utf-8")

    def close(self) -> None:
        """Close the analytics log's append handles; safe to call twice."""
        self.log.close()


def build_service(
    documents: Iterable[DocumentRecord],
    partners: Mapping[str, PartnerConfig],
    logs_dir: str | Path,
    *,
    seed: int | None = None,
    clock: Callable[[], datetime] = _utc_now,
) -> RaasService:
    """Index ``documents``, replay the existing logs once, wire a service.

    ``documents`` is read once, so it may be a stream such as
    :func:`~docrecs.corpus.read_store`; the service keeps no record. The
    replay yields both the popularity table and the set of delivered
    recommendation ids that later clicks are checked against.
    """
    log = AnalyticsLog(logs_dir)
    index = build_index(documents)
    delivered_ids: set[str] = set()
    pop = popularity_table(log.delivery_path, log.click_path, index, delivered_ids=delivered_ids)
    return RaasService(partners, log, pop, delivered_ids, seed=seed, clock=clock)


# --- HTTP/1.1 front end ----------------------------------------------------

# Bounds on a request head, its line ending included; past them the request
# is refused with 431 and the connection closed.
MAX_LINE_BYTES = 8 * 1024
MAX_HEADER_FIELDS = 100
RECV_BYTES = 64 * 1024  # most bytes taken from a socket in one read

_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
_HTTP_VERSION = re.compile(r"HTTP/\d\.\d")
_DAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTH_NAMES = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _http_date(epoch_s: int) -> str:
    """IMF-fixdate (RFC 9110 §5.6.7), with English names whatever the locale."""
    t = time.gmtime(epoch_s)
    return (
        f"{_DAY_NAMES[t.tm_wday]}, {t.tm_mday:02d} {_MONTH_NAMES[t.tm_mon - 1]} {t.tm_year}"
        f" {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT"
    )


class _Refused(Exception):
    """A request the connection cannot be read past: answer it, then close."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.response = _text(status, message)


class _RequestHandler(socketserver.BaseRequestHandler):
    """One connection: its requests in order, until either side closes it.

    An HTTP/1.1 connection stays open unless a request says
    ``Connection: close``; an HTTP/1.0 connection closes after one response.
    Every request's body is drained by its ``Content-Length``, so the next
    request starts where that body ends.
    """

    server: "RaasHttpServer"

    # Seconds a request may take to arrive: once for its head, counted from
    # when the connection starts to wait for it (so an idle keep-alive
    # connection closes after this long), and once more for its body. A
    # deadline, not a per-read timeout, so a client that trickles bytes
    # cannot hold its thread longer. Also bounds the send of each response.
    timeout = 10.0

    def setup(self) -> None:
        self._buffer = bytearray()  # received, not yet parsed
        self._deadline = 0.0

    def handle(self) -> None:
        try:
            while self._serve_one():
                pass
        except OSError:
            pass  # the client closed, reset or went quiet: no one to answer

    def _serve_one(self) -> bool:
        """Read and answer one request; True when the connection stays open."""
        self.version = "HTTP/1.1"  # the status line's, until the request names its own
        try:
            request = self._read_request()
        except _Refused as refused:
            self._respond(refused.response, keep_alive=False)
            return False
        if request is None:
            return False
        method, target, user_agent, keep_alive = request
        if method in ("GET", "POST"):
            response = self._dispatch(method, target, user_agent)
        else:
            response = _text(501, "unsupported method")
        self._respond(response, keep_alive)
        return keep_alive

    def _receive(self) -> bool:
        """Append the client's next bytes to the buffer; False at its close.

        Raises TimeoutError once the deadline has passed.
        """
        remaining = self._deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("request deadline passed")
        self.request.settimeout(remaining)
        chunk = self.request.recv(RECV_BYTES)
        self._buffer += chunk
        return bool(chunk)

    def _read_line(self) -> str | None:
        """One head line without its ending; None when the client closed first."""
        while (end := self._buffer.find(b"\n", 0, MAX_LINE_BYTES)) < 0:
            if len(self._buffer) >= MAX_LINE_BYTES:
                raise _Refused(431, "request line or header field too long")
            if not self._receive():
                return None
        line = self._buffer[: end + 1]
        del self._buffer[: end + 1]
        return line.decode("latin-1").rstrip("\r\n")

    def _read_request(self) -> tuple[str, str, str, bool] | None:
        """Parse a request head and drain its body.

        Returns (method, target, user agent, keep-alive), or None when the
        client closed the connection before a whole head arrived.
        """
        self._deadline = time.monotonic() + self.timeout
        line = self._read_line()
        if line == "":  # one empty line before a request line is ignored (RFC 9112 §2.2)
            line = self._read_line()
        if line is None:
            return None
        words = line.split()
        if len(words) != 3 or not _TOKEN.fullmatch(words[0]) or not _HTTP_VERSION.fullmatch(words[2]):
            raise _Refused(400, "malformed request line")
        method, target, version = words
        if version not in ("HTTP/1.0", "HTTP/1.1"):
            raise _Refused(505, "HTTP version not supported")
        self.version = version

        user_agent = ""
        lengths: list[str] = []
        close = version == "HTTP/1.0"
        transfer_coded = False
        fields = 0
        while line := self._read_line():
            fields += 1
            if fields > MAX_HEADER_FIELDS:
                raise _Refused(431, "too many header fields")
            name, colon, value = line.partition(":")
            if not colon or not _TOKEN.fullmatch(name):
                raise _Refused(400, "malformed header field")
            name = name.lower()
            value = value.strip(" \t")
            if name == "user-agent":
                user_agent = value
            elif name == "content-length":
                lengths.append(value)
            elif name == "connection":
                close = close or "close" in (token.strip().lower() for token in value.split(","))
            elif name == "transfer-encoding":
                transfer_coded = True
        if line is None:
            return None

        # Framing (RFC 9112 §6.3): a body this server cannot delimit leaves
        # the rest of the connection unreadable.
        if transfer_coded:
            raise _Refused(501, "Transfer-Encoding not supported")
        if len(lengths) > 1:
            raise _Refused(400, "repeated Content-Length")
        raw_length = lengths[0] if lengths else "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise _Refused(400, "malformed Content-Length")
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            raise _Refused(400, "request body too large")
        self._deadline = time.monotonic() + self.timeout
        try:
            while len(self._buffer) < length and self._receive():
                pass
        except TimeoutError:
            pass
        if len(self._buffer) < length:
            raise _Refused(400, "request body shorter than Content-Length")
        del self._buffer[:length]  # drained, not read: no route takes a body
        return method, target, user_agent, not close

    def _dispatch(self, method: str, target: str, user_agent: str) -> HttpResponse:
        try:
            split = urlsplit(target)
        except ValueError:  # e.g. "//[x": an unbalanced IPv6 bracket
            return _text(400, "malformed request target")
        query = {
            key: values[0]
            for key, values in parse_qs(split.query, keep_blank_values=True).items()
        }
        ctx = HttpRequestContext(method=method, path=split.path, query=query, user_agent=user_agent)
        try:
            return self.server.service.handle(ctx)
        except Exception:
            # the connection must still get an answer; keep the traceback
            traceback.print_exc()
            return _text(500, "internal error")

    def _respond(self, response: HttpResponse, keep_alive: bool) -> None:
        """Status line, headers and body in one send."""
        lines = [
            f"{self.version} {response.status} {HTTPStatus(response.status).phrase}",
            f"Content-Type: {response.content_type}",
            f"Date: {_http_date(int(time.time()))}",
        ]
        if response.status != 204:  # a 204 carries no Content-Length (RFC 9110 §8.6)
            lines.append(f"Content-Length: {len(response.body)}")
        if not keep_alive:
            lines.append("Connection: close")
        head = "\r\n".join(lines) + "\r\n\r\n"
        self.request.settimeout(self.timeout)
        self.request.sendall(head.encode("latin-1") + response.body)


class RaasHttpServer(socketserver.TCPServer):
    """Serves each connection on a thread of its own, to the connection's end.

    ``WORKERS`` threads start with the server and wait on a queue, so a
    connection that arrives while one of them is free starts no thread.
    When all of them are busy, a new thread serves the connection and ends
    with it, as under ``socketserver.ThreadingMixIn``: ``WORKERS`` is how
    many threads are kept ready, not how many connections are served at once.

    ``serve_forever`` waits on the listening socket and on a wake-up socket
    pair with no timeout; ``shutdown`` writes to that pair, so it returns at
    once rather than after a poll interval.
    """

    WORKERS = 8
    request_queue_size = 128  # listen backlog; socketserver's default is 5
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: RaasService):
        super().__init__(address, _RequestHandler)
        self.service = service
        self._wake_reader, self._wake_writer = socket.socketpair()
        self._stop_requested = False
        self._stopped = threading.Event()
        self._connections: queue.SimpleQueue = queue.SimpleQueue()
        self._idle = self.WORKERS  # workers not yet promised a connection
        self._idle_lock = threading.Lock()
        self._workers = [
            threading.Thread(target=self._work, name=f"docrecs-http-{i}", daemon=True)
            for i in range(self.WORKERS)
        ]
        for worker in self._workers:
            worker.start()

    def serve_forever(self) -> None:
        """Accept connections until :meth:`shutdown` is called."""
        self._stopped.clear()
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self, selectors.EVENT_READ)
                selector.register(self._wake_reader, selectors.EVENT_READ)
                while not self._stop_requested:
                    for key, _ in selector.select():
                        if key.fileobj is self._wake_reader:
                            self._wake_reader.recv(64)
                        elif not self._stop_requested:
                            self._handle_request_noblock()
        finally:
            self._stop_requested = False
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop ``serve_forever`` and wait for it to return; call from another thread."""
        self._stop_requested = True
        self._wake_writer.send(b"\0")
        self._stopped.wait()

    def process_request(self, request, client_address) -> None:
        with self._idle_lock:
            pooled = self._idle > 0
            if pooled:
                self._idle -= 1
        if pooled:
            self._connections.put((request, client_address))
        else:
            threading.Thread(
                target=self._serve, args=(request, client_address), name="docrecs-http", daemon=True
            ).start()

    def _serve(self, request, client_address) -> None:
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)

    def _work(self) -> None:
        while (item := self._connections.get()) is not None:
            self._serve(*item)
            with self._idle_lock:
                self._idle += 1

    def server_close(self) -> None:
        super().server_close()
        self._wake_reader.close()
        self._wake_writer.close()
        for _ in self._workers:
            self._connections.put(None)  # each worker exits on one None


def serve_http(service: RaasService, host: str, port: int) -> RaasHttpServer:
    """Bind the HTTP/1.1 server and start its workers; the caller runs serve_forever()."""
    return RaasHttpServer((host, port), service)
