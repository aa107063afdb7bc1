"""Request handling, serialization byte-contracts, and the HTTP adapter."""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import xml.etree.ElementTree as ET
from datetime import datetime, timezone
from pathlib import Path

import pytest

from docrecs import (
    AlgorithmArm,
    AnalyticsLog,
    HttpRequestContext,
    PartnerConfig,
    RaasService,
    RecommendationSet,
    build_service,
    serialize_set_json,
    serialize_set_xml,
    serve_http,
)
from docrecs import analytics
from docrecs.analytics import read_click_log, read_delivery_log
from docrecs.recommenders import RecommendedItem
from docrecs.service import MAX_BODY_BYTES, _RequestHandler, parse_set_json, render_score

from support import build_store, make_corpus

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


def make_service(tmp_path, n_docs=10, partners=None, seed=7, **kwargs):
    store = build_store(tmp_path, make_corpus(random.Random(seed), n_docs))
    partners = partners or {"lib": partner()}
    return build_service(store, partners, tmp_path / "logs", seed=seed, **kwargs)


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

    def test_json_round_trip_is_byte_identical(self):
        payload = serialize_set_json(FIXTURE_SET)
        assert serialize_set_json(parse_set_json(payload)) == payload

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
    def test_success_returns_xml(self, tmp_path):
        service = make_service(tmp_path)
        doc_id = service.index.doc_ids[0]
        response = related(service, doc_id)
        assert response.status == 200
        assert response.content_type.startswith("application/xml")
        root = ET.fromstring(response.body)
        assert root.attrib["query_document_id"] == doc_id

    def test_count_param_controls_item_count(self, tmp_path):
        service = make_service(tmp_path, n_docs=10)
        doc_id = service.index.doc_ids[0]
        response = related(service, doc_id, count="3")
        root = ET.fromstring(response.body)
        assert len(root.findall("related_document")) == 3

    def test_unknown_document_404(self, tmp_path):
        service = make_service(tmp_path)
        assert related(service, "NO-SUCH-DOC").status == 404

    def test_unknown_partner_403(self, tmp_path):
        service = make_service(tmp_path)
        doc_id = service.index.doc_ids[0]
        assert related(service, doc_id, partner_id="intruder").status == 403

    def test_missing_partner_with_multiple_configured_403(self, tmp_path):
        partners = {
            "a": partner(partner_id="a"),
            "b": partner(partner_id="b"),
        }
        service = make_service(tmp_path, partners=partners)
        doc_id = service.index.doc_ids[0]
        assert related(service, doc_id).status == 403
        assert related(service, doc_id, partner_id="a").status == 200

    def test_single_partner_default(self, tmp_path):
        service = make_service(tmp_path)
        doc_id = service.index.doc_ids[0]
        assert related(service, doc_id).status == 200

    @pytest.mark.parametrize("bad", ["five", "3.5", "", "1e2"])
    def test_malformed_count_400(self, tmp_path, bad):
        service = make_service(tmp_path)
        doc_id = service.index.doc_ids[0]
        response = related(service, doc_id, count=bad)
        assert response.status == 400

    def test_numeric_count_clamped(self, tmp_path):
        service = make_service(tmp_path, n_docs=8)
        doc_id = service.index.doc_ids[0]
        low = related(service, doc_id, count="0")
        assert len(ET.fromstring(low.body).findall("related_document")) == 1
        high = related(service, doc_id, count="5000")
        # clamped to 100, then bounded by corpus exhaustion (7 other docs)
        assert len(ET.fromstring(high.body).findall("related_document")) == 7

    def test_unknown_format_400(self, tmp_path):
        service = make_service(tmp_path)
        doc_id = service.index.doc_ids[0]
        assert related(service, doc_id, format="yaml").status == 400

    def test_json_format(self, tmp_path):
        service = make_service(tmp_path)
        doc_id = service.index.doc_ids[0]
        response = related(service, doc_id, format="json", count="4")
        assert response.status == 200
        assert response.content_type.startswith("application/json")
        payload = json.loads(response.body)
        assert payload["query_document_id"] == doc_id
        assert len(payload["items"]) == 4

    def test_not_ready_503(self, tmp_path):
        store = build_store(tmp_path, make_corpus(random.Random(1), 4))
        service = RaasService(store, {"lib": partner()}, AnalyticsLog(tmp_path / "logs"))
        assert service.index is None
        response = related(service, "anything")
        assert response.status == 503

    def test_default_count_comes_from_partner_config(self, tmp_path):
        service = make_service(tmp_path, partners={"lib": partner(default_k=2)})
        doc_id = service.index.doc_ids[0]
        response = related(service, doc_id)
        assert len(ET.fromstring(response.body).findall("related_document")) == 2


class TestDeliveryAndLatencyAccounting:
    def test_one_event_per_item_one_sample_per_response(self, tmp_path):
        service = make_service(tmp_path, n_docs=12)
        ids = list(service.index.doc_ids)
        total_items = 0
        for i in range(30):
            response = related(service, ids[i % len(ids)], count="4")
            assert response.status == 200
            total_items += len(ET.fromstring(response.body).findall("related_document"))
        events, rejects = read_delivery_log(service.log.delivery_path)
        assert rejects == []
        assert len(events) == total_items == 30 * 4
        assert len(service.latency_samples) == 30
        assert all(sample.elapsed_ms >= 0 for sample in service.latency_samples)

    def test_mean_latency_matches_sum_over_n(self, tmp_path):
        service = make_service(tmp_path)
        ids = list(service.index.doc_ids)
        for doc_id in ids:
            related(service, doc_id)
        samples = service.latency_samples
        expected = sum(s.elapsed_ms for s in samples) / len(samples)
        assert service.mean_latency_ms() == pytest.approx(expected, abs=1e-9)

    def test_failed_requests_never_touch_logs(self, tmp_path):
        service = make_service(tmp_path)
        get(service, "/v1/unknown/route")
        related(service, "NO-SUCH-DOC")
        doc_id = service.index.doc_ids[0]
        related(service, doc_id, count="bogus")
        related(service, doc_id, partner_id="intruder")
        assert not service.log.delivery_path.exists()
        assert not service.log.click_path.exists()
        assert service.latency_samples == []


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

    def test_click_on_delivered_is_204_and_logged(self, tmp_path):
        service = make_service(tmp_path)
        rec_id = self.delivered_rec_id(service)
        response = self.click(service, rec_id)
        assert response.status == 204
        events, _ = read_click_log(service.log.click_path)
        assert [e.recommendation_id for e in events] == [rec_id]

    def test_click_on_random_id_404_no_event(self, tmp_path):
        service = make_service(tmp_path)
        self.delivered_rec_id(service)
        assert self.click(service, "made-up").status == 404
        assert not service.log.click_path.exists()

    def test_duplicate_clicks_append_two_events(self, tmp_path):
        service = make_service(tmp_path)
        rec_id = self.delivered_rec_id(service)
        assert self.click(service, rec_id).status == 204
        assert self.click(service, rec_id).status == 204
        events, _ = read_click_log(service.log.click_path)
        assert len(events) == 2

    def test_clicks_survive_service_restart(self, tmp_path):
        service = make_service(tmp_path)
        rec_id = self.delivered_rec_id(service)
        # a fresh service over the same logs still recognizes the delivery
        reborn = RaasService(
            service.store,
            service.partners,
            AnalyticsLog(tmp_path / "logs"),
            index=service.index,
            pop=service.pop,
        )
        assert self.click(reborn, rec_id).status == 204

    def test_build_service_reads_the_delivery_log_once(self, tmp_path, monkeypatch):
        service = make_service(tmp_path)
        rec_id = self.delivered_rec_id(service)
        reads = []
        real_read = analytics.read_delivery_log
        monkeypatch.setattr(
            analytics, "read_delivery_log", lambda path: reads.append(path) or real_read(path)
        )
        reborn = build_service(service.store, service.partners, tmp_path / "logs")
        assert len(reads) == 1
        assert self.click(reborn, rec_id).status == 204
        assert self.click(reborn, "made-up").status == 404


class TestRouting:
    def test_health_ok(self, tmp_path):
        service = make_service(tmp_path)
        response = get(service, "/v1/health")
        assert (response.status, response.body) == (200, b"ok")

    def test_health_not_ready(self, tmp_path):
        store = build_store(tmp_path, make_corpus(random.Random(1), 3))
        service = RaasService(store, {"lib": partner()}, AnalyticsLog(tmp_path / "logs"))
        assert get(service, "/v1/health").status == 503

    def test_unknown_route_404(self, tmp_path):
        service = make_service(tmp_path)
        assert get(service, "/v2/documents/x/related_documents/").status == 404

    def test_wrong_method_405(self, tmp_path):
        service = make_service(tmp_path)
        doc_id = service.index.doc_ids[0]
        response = service.handle(
            HttpRequestContext(
                method="POST", path=f"/v1/documents/{doc_id}/related_documents/", query={}
            )
        )
        assert response.status == 405

    def test_trailing_slash_optional(self, tmp_path):
        service = make_service(tmp_path)
        doc_id = service.index.doc_ids[0]
        assert get(service, f"/v1/documents/{doc_id}/related_documents").status == 200


class TestHttpAdapter:
    @pytest.fixture()
    def server(self, tmp_path):
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
        events, _ = read_click_log(server.service.log.click_path)
        assert [e.recommendation_id for e in events] == [rec_id]

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
