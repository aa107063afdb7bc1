"""Request handling, serialization byte-contracts, and the HTTP adapter."""

from __future__ import annotations

import gc
import http.client
import json
import random
import socket
import threading
import time
import xml.etree.ElementTree as ET
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime
from pathlib import Path

import pytest

import docrecs
from docrecs import (
    AlgorithmArm,
    CorpusStore,
    DocumentRecord,
    HttpRequestContext,
    PartnerConfig,
    RecommendationSet,
    SimulationSpec,
    build_service,
    monthly_report,
    read_store,
    run_simulation,
    serialize_set_json,
    serialize_set_xml,
    serve_http,
)
from docrecs import analytics
from docrecs.analytics import delivered_documents
from docrecs.recommenders import RecommendedItem
from docrecs.service import (
    MAX_BODY_BYTES,
    MAX_HEADER_FIELDS,
    MAX_LINE_BYTES,
    RaasHttpServer,
    _http_date,
    _RequestHandler,
    render_score,
)

from support import build_store, make_corpus, read_jsonl

DATA_DIR = Path(__file__).parent / "data"

FIXTURE_SET = RecommendationSet(
    set_id="set-fixture-0001",
    partner_id="lib",
    query_document_id="doc-query",
    algorithm=AlgorithmArm.CONTENT_BASED,
    created_at=datetime(2016, 9, 18, tzinfo=timezone.utc),
    items=(
        RecommendedItem("rec-0001", 1, "doc-a", 1.0, "Indexing & Retrieval <at scale>"),
        RecommendedItem("rec-0002", 2, "doc-b", 0.25005, 'She said "hi"'),
        RecommendedItem("rec-0003", 3, "doc-c", 0.123456, "Plain title"),
    ),
)


def partner(collections={"main"}, default_k=5, partner_id="lib", weights=None, stereotype=()):
    return PartnerConfig(
        partner_id=partner_id,
        allowed_collections=frozenset(collections),
        arm_weights=weights or {AlgorithmArm.CONTENT_BASED: 1.0},
        stereotype_list=tuple(stereotype),
        default_k=default_k,
    )


@pytest.fixture
def make_service(closing):
    """Builds a service over a fresh store in ``tmp_path``; each is closed when the test ends."""

    def make(tmp_path, n_docs=10, partners=None, seed=7):
        store = build_store(tmp_path, make_corpus(random.Random(seed), n_docs))
        partners = partners or {"lib": partner()}
        return closing(build_service(store, partners, tmp_path / "logs", seed=seed))

    return make


def get(service, path, query=None, ua="pytest-agent"):
    return service.handle(
        HttpRequestContext(method="GET", path=path, query=query or {}, user_agent=ua)
    )


def related(service, doc_id, **query):
    return get(service, f"/v1/documents/{doc_id}/related_documents/", query=query)


class TestScoreRendering:
    @pytest.mark.parametrize(
        "value,rendered",
        [
            (0.25005, "0.2500"),  # half rounds to even
            (0.12345, "0.1234"),
            (0.12335, "0.1234"),
            (1.0, "1.0000"),
            (0.0, "0.0000"),
            (0.123456, "0.1235"),
            (0.99995, "1.0000"),
        ],
    )
    def test_four_decimals_half_even(self, value, rendered):
        assert render_score(value) == rendered


class TestSerialization:
    def test_xml_matches_golden_fixture(self):
        assert serialize_set_xml(FIXTURE_SET) == (DATA_DIR / "golden_set.xml").read_bytes()

    def test_json_matches_golden_fixture(self):
        assert serialize_set_json(FIXTURE_SET) == (DATA_DIR / "golden_set.json").read_bytes()

    def test_empty_set_single_line_element(self):
        empty = RecommendationSet(
            set_id="s0",
            partner_id="lib",
            query_document_id="q",
            algorithm=AlgorithmArm.MOST_POPULAR,
            created_at=datetime(2016, 9, 18, tzinfo=timezone.utc),
            items=(),
        )
        body = serialize_set_xml(empty)
        assert body == (
            b'<?xml version="1.0" encoding="UTF-8"?>\n'
            b'<related_documents set_id="s0" query_document_id="q" '
            b'algorithm="most_popular"></related_documents>\n'
        )
        assert serialize_set_json(empty).rstrip().endswith(b'"items":[]}')

    def test_xml_parses_and_escapes(self):
        root = ET.fromstring(serialize_set_xml(FIXTURE_SET))
        assert root.tag == "related_documents"
        assert root.attrib["set_id"] == "set-fixture-0001"
        titles = [el.find("title").text for el in root]
        assert titles[0] == "Indexing & Retrieval <at scale>"
        assert titles[1] == 'She said "hi"'

    def test_item_count_equals_set_size(self):
        root = ET.fromstring(serialize_set_xml(FIXTURE_SET))
        assert len(root.findall("related_document")) == len(FIXTURE_SET.items)


class TestRelatedDocumentsEndpoint:
    def test_success_returns_xml(self, tmp_path, make_service):
        service = make_service(tmp_path)
        doc_id = service.index.doc_ids[0]
        response = related(service, doc_id)
        assert response.status == 200
        assert response.content_type.startswith("application/xml")
        root = ET.fromstring(response.body)
        assert root.attrib["query_document_id"] == doc_id

    def test_count_param_controls_item_count(self, tmp_path, make_service):
        service = make_service(tmp_path, n_docs=10)
        doc_id = service.index.doc_ids[0]
        response = related(service, doc_id, count="3")
        root = ET.fromstring(response.body)
        assert len(root.findall("related_document")) == 3

    def test_unknown_document_404(self, tmp_path, make_service):
        service = make_service(tmp_path)
        assert related(service, "NO-SUCH-DOC").status == 404

    def test_unknown_partner_403(self, tmp_path, make_service):
        service = make_service(tmp_path)
        doc_id = service.index.doc_ids[0]
        assert related(service, doc_id, partner_id="intruder").status == 403

    def test_missing_partner_with_multiple_configured_403(self, tmp_path, make_service):
        partners = {
            "a": partner(partner_id="a"),
            "b": partner(partner_id="b"),
        }
        service = make_service(tmp_path, partners=partners)
        doc_id = service.index.doc_ids[0]
        assert related(service, doc_id).status == 403
        assert related(service, doc_id, partner_id="a").status == 200

    def test_single_partner_default(self, tmp_path, make_service):
        service = make_service(tmp_path)
        doc_id = service.index.doc_ids[0]
        assert related(service, doc_id).status == 200

    @pytest.mark.parametrize("bad", ["five", "3.5", "", "1e2"])
    def test_malformed_count_400(self, tmp_path, make_service, bad):
        service = make_service(tmp_path)
        doc_id = service.index.doc_ids[0]
        response = related(service, doc_id, count=bad)
        assert response.status == 400

    def test_numeric_count_clamped(self, tmp_path, make_service):
        service = make_service(tmp_path, n_docs=8)
        doc_id = service.index.doc_ids[0]
        low = related(service, doc_id, count="0")
        assert len(ET.fromstring(low.body).findall("related_document")) == 1
        high = related(service, doc_id, count="5000")
        # clamped to 100, then bounded by corpus exhaustion (7 other docs)
        assert len(ET.fromstring(high.body).findall("related_document")) == 7

    def test_unknown_format_400(self, tmp_path, make_service):
        service = make_service(tmp_path)
        doc_id = service.index.doc_ids[0]
        assert related(service, doc_id, format="yaml").status == 400

    def test_json_format(self, tmp_path, make_service):
        service = make_service(tmp_path)
        doc_id = service.index.doc_ids[0]
        response = related(service, doc_id, format="json", count="4")
        assert response.status == 200
        assert response.content_type.startswith("application/json")
        payload = json.loads(response.body)
        assert payload["query_document_id"] == doc_id
        assert len(payload["items"]) == 4

    def test_default_count_comes_from_partner_config(self, tmp_path, make_service):
        service = make_service(tmp_path, partners={"lib": partner(default_k=2)})
        doc_id = service.index.doc_ids[0]
        response = related(service, doc_id)
        assert len(ET.fromstring(response.body).findall("related_document")) == 2


class TestDeliveryAndLatencyAccounting:
    def test_one_event_per_item_one_sample_per_response(self, tmp_path, make_service):
        service = make_service(tmp_path, n_docs=12)
        ids = list(service.index.doc_ids)
        total_items = 0
        for i in range(30):
            response = related(service, ids[i % len(ids)], count="4")
            assert response.status == 200
            total_items += len(ET.fromstring(response.body).findall("related_document"))
        events = read_jsonl(service.log.delivery_path)
        assert len(list(delivered_documents(service.log.delivery_path))) == len(events)
        assert len(events) == total_items == 30 * 4

    def test_failed_requests_never_touch_logs(self, tmp_path, make_service):
        service = make_service(tmp_path)
        get(service, "/v1/unknown/route")
        related(service, "NO-SUCH-DOC")
        doc_id = service.index.doc_ids[0]
        related(service, doc_id, count="bogus")
        related(service, doc_id, partner_id="intruder")
        assert not service.log.delivery_path.exists()
        assert not service.log.click_path.exists()


class TestClickEndpoint:
    def click(self, service, rec_id):
        return service.handle(
            HttpRequestContext(
                method="POST", path=f"/v1/recommendations/{rec_id}/clicks", query={}
            )
        )

    def delivered_rec_id(self, service):
        doc_id = service.index.doc_ids[0]
        response = related(service, doc_id, format="json")
        return json.loads(response.body)["items"][0]["recommendation_id"]

    def test_click_on_delivered_is_204_and_logged(self, tmp_path, make_service):
        service = make_service(tmp_path)
        rec_id = self.delivered_rec_id(service)
        response = self.click(service, rec_id)
        assert response.status == 204
        events = read_jsonl(service.log.click_path)
        assert [e["recommendation_id"] for e in events] == [rec_id]

    def test_click_on_random_id_404_no_event(self, tmp_path, make_service):
        service = make_service(tmp_path)
        self.delivered_rec_id(service)
        assert self.click(service, "made-up").status == 404
        assert not service.log.click_path.exists()

    def test_duplicate_clicks_append_two_events(self, tmp_path, make_service):
        service = make_service(tmp_path)
        rec_id = self.delivered_rec_id(service)
        assert self.click(service, rec_id).status == 204
        assert self.click(service, rec_id).status == 204
        assert len(read_jsonl(service.log.click_path)) == 2

    def test_clicks_survive_service_restart(self, tmp_path, make_service, closing):
        service = make_service(tmp_path)
        rec_id = self.delivered_rec_id(service)
        # a fresh service over the same logs still recognizes the delivery
        reborn = closing(
            build_service(CorpusStore(tmp_path / "store"), service.partners, tmp_path / "logs")
        )
        assert self.click(reborn, rec_id).status == 204

    def test_torn_delivery_line_does_not_swallow_the_next(self, tmp_path, make_service, closing):
        service = make_service(tmp_path)
        assert related(service, service.index.doc_ids[0], count="1").status == 200
        whole = service.log.delivery_path.read_bytes()
        with service.log.delivery_path.open("ab") as fh:  # a crash mid-append
            fh.write(whole[:40])
        reborn = closing(
            build_service(CorpusStore(tmp_path / "store"), service.partners, tmp_path / "logs")
        )
        rec_id = self.delivered_rec_id(reborn)
        again = closing(
            build_service(CorpusStore(tmp_path / "store"), service.partners, tmp_path / "logs")
        )
        assert self.click(again, rec_id).status == 204
        overall = monthly_report(again.log.delivery_path, again.log.click_path)[-1]
        assert (overall.period, overall.deliveries, overall.clicks) == ("overall", 6, 1)

    def test_each_event_is_in_its_log_when_handle_returns(self, tmp_path, make_service):
        service = make_service(tmp_path)
        doc_id = service.index.doc_ids[0]
        for sets in (1, 2):
            response = related(service, doc_id, count="3", format="json")
            assert len(read_jsonl(service.log.delivery_path)) == 3 * sets
        rec_id = json.loads(response.body)["items"][0]["recommendation_id"]
        for clicks in (1, 2):
            assert self.click(service, rec_id).status == 204
            assert len(read_jsonl(service.log.click_path)) == clicks

    def test_close_releases_the_log_handles_and_may_repeat(self, tmp_path, make_service):
        service = make_service(tmp_path)
        assert self.click(service, self.delivered_rec_id(service)).status == 204
        handles = list(service.log._files.values())
        service.close()
        service.close()
        assert len(handles) == 2 and all(fh.closed for fh in handles)

    def test_build_service_reads_the_delivery_log_once(self, tmp_path, make_service, closing, monkeypatch):
        service = make_service(tmp_path)
        rec_id = self.delivered_rec_id(service)
        reads = []
        real_read = analytics._numbered_lines
        monkeypatch.setattr(
            analytics, "_numbered_lines", lambda path: reads.append(path) or real_read(path)
        )
        reborn = closing(
            build_service(CorpusStore(tmp_path / "store"), service.partners, tmp_path / "logs")
        )
        assert reads.count(service.log.delivery_path) == 1
        assert self.click(reborn, rec_id).status == 204
        assert self.click(reborn, "made-up").status == 404


class TestStreamedStartup:
    @staticmethod
    def held_records(id_prefix):
        gc.collect()
        return sum(
            1
            for o in gc.get_objects()
            if isinstance(o, DocumentRecord) and o.id.startswith(id_prefix)
        )

    def test_no_document_record_outlives_build_service(self, tmp_path):
        build_store(tmp_path, make_corpus(random.Random(5), 20, id_prefix="streamed"))
        service = build_service(read_store(tmp_path / "store"), {"lib": partner()}, tmp_path / "logs")
        assert len(service.index) == 20
        assert self.held_records("streamed-") == 0
        held = list(read_store(tmp_path / "store"))  # the check does see records that are held
        assert self.held_records("streamed-") == len(held) == 20

    def test_no_document_record_outlives_ingest_or_reopening(self, tmp_path):
        build_store(tmp_path, make_corpus(random.Random(5), 20, id_prefix="ingested"))
        assert self.held_records("ingested-") == 0
        store = CorpusStore(tmp_path / "store")
        assert len(store) == 20
        assert self.held_records("ingested-") == 0

    def test_no_document_record_outlives_run_simulation(self, tmp_path):
        build_store(tmp_path, make_corpus(random.Random(5), 20, id_prefix="simulated"))
        spec = SimulationSpec(
            request_count=10,
            click_probability={arm: 0.5 for arm in AlgorithmArm},
            bot_fraction=0.0,
            seed=3,
            partner_id="lib",
            k=3,
        )
        documents = read_store(tmp_path / "store")
        result = run_simulation(documents, {"lib": partner()}, spec, tmp_path / "logs")
        assert result.requests == 10
        assert self.held_records("simulated-") == 0


@pytest.mark.parametrize("name", sorted(docrecs._LAZY_EXPORTS))
def test_every_lazy_export_resolves(name):
    assert getattr(docrecs, name).__name__ == name


class TestRouting:
    def test_health_ok(self, tmp_path, make_service):
        service = make_service(tmp_path)
        response = get(service, "/v1/health")
        assert (response.status, response.body) == (200, b"ok")

    def test_unknown_route_404(self, tmp_path, make_service):
        service = make_service(tmp_path)
        assert get(service, "/v2/documents/x/related_documents/").status == 404

    def test_wrong_method_405(self, tmp_path, make_service):
        service = make_service(tmp_path)
        doc_id = service.index.doc_ids[0]
        response = service.handle(
            HttpRequestContext(
                method="POST", path=f"/v1/documents/{doc_id}/related_documents/", query={}
            )
        )
        assert response.status == 405

    def test_trailing_slash_optional(self, tmp_path, make_service):
        service = make_service(tmp_path)
        doc_id = service.index.doc_ids[0]
        assert get(service, f"/v1/documents/{doc_id}/related_documents").status == 200


class TestHttpAdapter:
    @pytest.fixture()
    def server(self, tmp_path, make_service):
        service = make_service(tmp_path, n_docs=8)
        server = serve_http(service, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()

    def request(self, server, method, path, content_length=None):
        host, port = server.server_address
        conn = http.client.HTTPConnection(host, port, timeout=5)
        conn.putrequest(method, path)
        conn.putheader("User-Agent", "pytest-agent")
        if content_length is not None:
            conn.putheader("Content-Length", content_length)
        conn.endheaders()
        response = conn.getresponse()
        body = response.read()
        conn.close()
        return response.status, body

    def test_health_over_socket(self, server):
        assert self.request(server, "GET", "/v1/health") == (200, b"ok")

    def test_related_documents_over_socket(self, server):
        doc_id = server.service.index.doc_ids[0]
        status, body = self.request(
            server, "GET", f"/v1/documents/{doc_id}/related_documents/?count=3&format=json"
        )
        assert status == 200
        payload = json.loads(body)
        assert len(payload["items"]) == 3
        rec_id = payload["items"][0]["recommendation_id"]
        status, _ = self.request(server, "POST", f"/v1/recommendations/{rec_id}/clicks")
        assert status == 204
        events = read_jsonl(server.service.log.click_path)
        assert [e["recommendation_id"] for e in events] == [rec_id]

    def test_unknown_route_over_socket(self, server):
        status, _ = self.request(server, "GET", "/nowhere")
        assert status == 404

    @pytest.mark.parametrize("length", ["twelve", "-5", "1e3", "\u00b2", str(MAX_BODY_BYTES + 1)])
    def test_bad_content_length_is_400(self, server, length):
        status, _ = self.request(server, "POST", "/v1/recommendations/r/clicks", length)
        assert status == 400
        assert not server.service.log.click_path.exists()

    def raw_post(self, server, head: bytes, close_write: bool) -> bytes:
        with socket.create_connection(server.server_address, timeout=5) as sock:
            sock.sendall(head)
            if close_write:
                sock.shutdown(socket.SHUT_WR)
            return sock.makefile("rb").read()

    def test_missing_body_times_out_as_400(self, server, monkeypatch):
        monkeypatch.setattr(_RequestHandler, "timeout", 0.2)
        head = b"POST /v1/recommendations/r/clicks HTTP/1.0\r\nContent-Length: 10\r\n\r\n"
        answer = self.raw_post(server, head, close_write=False)
        assert answer.startswith(b"HTTP/1.0 400 ")
        assert not server.service.log.click_path.exists()

    def test_short_body_is_400(self, server):
        head = b"POST /v1/recommendations/r/clicks HTTP/1.0\r\nContent-Length: 10\r\n\r\nabc"
        answer = self.raw_post(server, head, close_write=True)
        assert answer.startswith(b"HTTP/1.0 400 ")
        assert answer.endswith(b"request body shorter than Content-Length")

    def test_exception_in_handle_is_500(self, server, monkeypatch, capsys):
        def broken(ctx):
            raise RuntimeError("boom")

        monkeypatch.setattr(server.service, "handle", broken)
        assert self.request(server, "GET", "/v1/health") == (500, b"internal error")
        assert "RuntimeError: boom" in capsys.readouterr().err

    def test_a_set_that_cannot_be_encoded_is_500_and_logs_nothing(self, server, monkeypatch, capsys):
        partner_id = "lib\ud800"  # a lone surrogate, which UTF-8 cannot encode
        monkeypatch.setattr(server.service, "partners", {partner_id: partner(partner_id=partner_id)})
        doc_id = server.service.index.doc_ids[0]
        path = f"/v1/documents/{doc_id}/related_documents/"
        assert self.request(server, "GET", path) == (500, b"internal error")
        assert "UnicodeEncodeError" in capsys.readouterr().err
        assert not server.service.log.delivery_path.exists()

    # --- keep-alive and framing, over raw sockets --------------------------

    def exchange(self, server, data: bytes) -> list[tuple[str, dict[str, str], bytes]]:
        """Send ``data``, read until the server closes, split the responses."""
        with socket.create_connection(server.server_address, timeout=5) as sock:
            sock.sendall(data)
            return split_responses(sock.makefile("rb").read())

    def test_two_requests_share_one_http11_connection(self, server):
        host, port = server.server_address
        conn = http.client.HTTPConnection(host, port, timeout=5)
        doc_id = server.service.index.doc_ids[0]
        conn.request("GET", f"/v1/documents/{doc_id}/related_documents/?count=2&format=json")
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 200
        assert response.getheader("Connection") is None
        sock = conn.sock
        rec_id = payload["items"][0]["recommendation_id"]
        conn.request("POST", f"/v1/recommendations/{rec_id}/clicks", headers={"Content-Length": "0"})
        response = conn.getresponse()
        assert (response.status, response.read()) == (204, b"")
        assert conn.sock is sock
        conn.close()
        events = read_jsonl(server.service.log.click_path)
        assert [e["recommendation_id"] for e in events] == [rec_id]

    @pytest.mark.parametrize(
        "version, extra",
        [("HTTP/1.1", "Connection: keep-alive, close\r\n"), ("HTTP/1.0", "")],
    )
    def test_close_requested_or_http10_ends_after_one_response(self, server, version, extra):
        request = f"GET /v1/health {version}\r\n{extra}\r\n"
        responses = self.exchange(server, (request * 2).encode())
        assert len(responses) == 1
        status_line, headers, body = responses[0]
        assert status_line == f"{version} 200 OK"
        assert headers["Connection"] == "close"
        assert body == b"ok"
        date = parsedate_to_datetime(headers["Date"])
        assert abs(date.timestamp() - time.time()) < 60

    def test_body_is_drained_for_every_method(self, server):
        head = "GET /v1/health HTTP/1.1\r\nContent-Length: 21\r\n\r\n"
        smuggled = "GET /nowhere HTTP/1.1"  # 21 bytes of body, not a request
        last = "GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n"
        responses = self.exchange(server, (head + smuggled + last).encode())
        assert [(r[0], r[2]) for r in responses] == [("HTTP/1.1 200 OK", b"ok")] * 2

    def test_transfer_encoding_is_501_and_smuggles_nothing(self, server):
        smuggled = b"GET /v1/health HTTP/1.1\r\n\r\n"
        body = b"0\r\n\r\n" + smuggled
        head = (
            b"POST /v1/recommendations/r/clicks HTTP/1.1\r\n"
            b"Content-Length: %d\r\nTransfer-Encoding: chunked\r\n\r\n" % len(body)
        )
        responses = self.exchange(server, head + body)
        assert len(responses) == 1
        status_line, headers, _ = responses[0]
        assert status_line == "HTTP/1.1 501 Not Implemented"
        assert headers["Connection"] == "close"
        assert not server.service.log.click_path.exists()

    @pytest.mark.parametrize(
        "head, status",
        [
            (b"POST /v1/recommendations/r/clicks HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\n", 400),
            (b"POST /v1/recommendations/r/clicks HTTP/1.1\r\nContent-Length: twelve\r\n\r\n", 400),
            (b"GET /v1/health\r\n\r\n", 400),
            (b"GET /v1/health HTTP/1.1 extra\r\n\r\n", 400),
            (b"GET /v1/health FTP/1.1\r\n\r\n", 400),
            (b"G(T /v1/health HTTP/1.1\r\n\r\n", 400),
            (b"\r\n\r\n", 400),  # only one empty line before a request line is ignored
            (b"GET /v1/health HTTP/1.1\r\nUser Agent: x\r\n\r\n", 400),
            (b"GET /v1/health HTTP/1.1\r\nUser-Agent : x\r\n\r\n", 400),
            (b"GET /v1/health HTTP/1.1\r\nUser-Agent: x\r\n folded\r\n\r\n", 400),
            (b"GET /v1/health HTTP/1.1\r\nno colon\r\n\r\n", 400),
            (b"GET /v1/health HTTP/2.0\r\n\r\n", 505),
            (b"GET /" + b"a" * MAX_LINE_BYTES + b" HTTP/1.1\r\n\r\n", 431),
            (b"GET /v1/health HTTP/1.1\r\nX: " + b"a" * MAX_LINE_BYTES + b"\r\n\r\n", 431),
            (b"GET /v1/health HTTP/1.1\r\n" + b"X: 1\r\n" * (MAX_HEADER_FIELDS + 1) + b"\r\n", 431),
        ],
    )
    def test_unframeable_request_is_refused_and_closed(self, server, head, status):
        # a well-formed request follows each bad one; it must not be served
        responses = self.exchange(server, head + b"GET /v1/health HTTP/1.1\r\n\r\n")
        assert len(responses) == 1
        status_line, headers, _ = responses[0]
        assert status_line.split(" ")[1] == str(status)
        assert headers["Connection"] == "close"
        assert not server.service.log.click_path.exists()

    def test_one_empty_line_before_a_request_is_ignored(self, server):
        # e.g. a client's stray CRLF after a POST body (RFC 9112 §2.2)
        data = (
            b"\r\nPOST /v1/recommendations/r/clicks HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
            b"\r\nGET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        responses = self.exchange(server, data)
        assert [r[0] for r in responses] == ["HTTP/1.1 404 Not Found", "HTTP/1.1 200 OK"]

    def test_head_at_its_limits_is_served(self, server):
        long_field = b"Y: " + b"a" * (MAX_LINE_BYTES - 5) + b"\r\n"  # MAX_LINE_BYTES with its CRLF
        fields = b"X: 1\r\n" * (MAX_HEADER_FIELDS - 2) + long_field + b"Connection: close\r\n"
        responses = self.exchange(server, b"GET /v1/health HTTP/1.1\r\n" + fields + b"\r\n")
        assert [(r[0], r[2]) for r in responses] == [("HTTP/1.1 200 OK", b"ok")]

    def test_malformed_target_is_400_and_keeps_the_connection(self, server):
        data = b"GET //[x HTTP/1.1\r\n\r\nGET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n"
        responses = self.exchange(server, data)
        assert [(r[0], r[2]) for r in responses] == [
            ("HTTP/1.1 400 Bad Request", b"malformed request target"),
            ("HTTP/1.1 200 OK", b"ok"),
        ]

    def test_unsupported_method_is_501_and_keeps_the_connection(self, server):
        data = b"PUT /v1/health HTTP/1.1\r\n\r\nGET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n"
        responses = self.exchange(server, data)
        assert [r[0] for r in responses] == ["HTTP/1.1 501 Not Implemented", "HTTP/1.1 200 OK"]

    def test_idle_connections_time_out_and_free_their_workers(self, server, monkeypatch):
        monkeypatch.setattr(_RequestHandler, "timeout", 0.2)
        socks = [socket.create_connection(server.server_address, timeout=5) for _ in range(RaasHttpServer.WORKERS)]
        try:
            for sock in socks:  # one answered request each, then silence
                sock.sendall(b"GET /v1/health HTTP/1.1\r\n\r\n")
            for sock in socks:
                data = sock.makefile("rb").read()  # returns at the server's close
                assert [(r[0], r[2]) for r in split_responses(data)] == [("HTTP/1.1 200 OK", b"ok")]
        finally:
            for sock in socks:
                sock.close()
        assert self.request(server, "GET", "/v1/health") == (200, b"ok")


    def test_busy_workers_do_not_delay_a_new_connection(self, server):
        # more idle keep-alive connections than pre-started workers, each
        # holding its thread until the 10 s idle timeout
        socks = [socket.create_connection(server.server_address, timeout=5) for _ in range(RaasHttpServer.WORKERS + 2)]
        try:
            for sock in socks:
                sock.sendall(b"GET /v1/health HTTP/1.1\r\n\r\n")
                assert sock.recv(4096).startswith(b"HTTP/1.1 200 OK\r\n")
            started = time.monotonic()
            assert self.request(server, "GET", "/v1/health") == (200, b"ok")
            assert time.monotonic() - started < 2.0
        finally:
            for sock in socks:
                sock.close()

    def test_trickled_head_is_cut_off_at_the_deadline(self, server, monkeypatch):
        # a byte every 0.05 s never lets one read wait 0.5 s; the head's
        # deadline still ends the connection
        monkeypatch.setattr(_RequestHandler, "timeout", 0.5)
        with socket.create_connection(server.server_address, timeout=0.05) as sock:
            started = time.monotonic()
            sock.sendall(b"GET /v1/health HTTP/1.1\r\n")
            closed = False
            while not closed and time.monotonic() - started < 5.0:
                try:
                    sock.sendall(b"X")
                    closed = sock.recv(4096) == b""
                except TimeoutError:
                    pass
                except (ConnectionResetError, BrokenPipeError):
                    closed = True
            assert closed
            assert time.monotonic() - started < 2.0

def split_responses(data: bytes) -> list[tuple[str, dict[str, str], bytes]]:
    """(status line, headers, body) of each response in ``data``, in order."""
    responses = []
    while data:
        head, _, data = data.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines)
        length = int(headers.get("Content-Length", "0"))
        responses.append((status_line, headers, data[:length]))
        data = data[length:]
    return responses


def test_http_date_uses_fixed_english_names():
    assert _http_date(784111777) == "Sun, 06 Nov 1994 08:49:37 GMT"  # RFC 9110 §5.6.7
    assert _http_date(951782400) == "Tue, 29 Feb 2000 00:00:00 GMT"


def test_server_close_ends_the_workers(tmp_path, make_service):
    server = RaasHttpServer(("127.0.0.1", 0), make_service(tmp_path, n_docs=3))
    server.server_close()
    for worker in server._workers:
        worker.join(timeout=5)
    assert not any(worker.is_alive() for worker in server._workers)


def test_shutdown_does_not_wait_for_a_poll(tmp_path, make_service):
    server = serve_http(make_service(tmp_path, n_docs=3), "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    time.sleep(0.05)  # serve_forever is now waiting for a connection
    start = time.monotonic()
    server.shutdown()
    elapsed = time.monotonic() - start
    thread.join(timeout=5)
    server.server_close()
    assert not thread.is_alive()
    assert elapsed < 0.25  # socketserver's own loop polls every 0.5 s
