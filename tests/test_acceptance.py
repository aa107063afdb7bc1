"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion. The latency criterion builds a 50,000-document corpus and
drives a real HTTP listener, so the module takes around a minute in total.
"""

from __future__ import annotations

import csv
import http.client
import json
import random
import threading
import time
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

import pytest

from docrecs import (
    AlgorithmArm,
    HttpRequestContext,
    PartnerConfig,
    RecommendationSet,
    build_index,
    build_service,
    compute_ctr,
    monthly_report,
    more_like_this,
    select_arm,
    serialize_set_json,
    serialize_set_xml,
    serve_http,
)
from docrecs.cli import run
from docrecs.recommenders import RecommendedItem
from docrecs.service import render_score

import xml.etree.ElementTree as ET

from support import build_store, make_corpus, oracle_more_like_this

DATA_DIR = Path(__file__).parent / "data"

LATENCY_CEILING_MS = 682.0  # production-average reference, used as a generous bound


def all_arm_partner(collections, partner_id="lib", default_k=5, stereotype=()):
    return PartnerConfig(
        partner_id=partner_id,
        allowed_collections=frozenset(collections),
        arm_weights={arm: 1.0 for arm in AlgorithmArm},
        stereotype_list=tuple(stereotype),
        default_k=default_k,
    )


def test_criterion_01_ctr_arithmetic():
    """compute_ctr(57,435,086, 77,468) renders exactly "0.13%"."""
    assert compute_ctr(57_435_086, 77_468).rendered == "0.13%"


def test_criterion_02_monthly_report_extremes(tmp_path):
    """September 19/10,000 and December 10/10,000 cohorts render 0.19% and 0.10%."""
    dpath = tmp_path / "deliveries.jsonl"
    cpath = tmp_path / "clicks.jsonl"
    with dpath.open("w", encoding="utf-8") as fh:
        for month, n in (("2016-09", 10_000), ("2016-12", 10_000)):
            for i in range(n):
                fh.write(
                    json.dumps(
                        {
                            "recommendation_id": f"{month}-r{i}",
                            "set_id": f"{month}-s{i // 5}",
                            "partner_id": "lib",
                            "document_id": f"d{i % 97}",
                            "algorithm": "content_based",
                            "delivered_at": f"{month}-10T08:00:00Z",
                            "user_agent": "Mozilla/5.0 Firefox/52.0",
                        }
                    )
                    + "\n"
                )
    with cpath.open("w", encoding="utf-8") as fh:
        for month, n in (("2016-09", 19), ("2016-12", 10)):
            for i in range(n):
                fh.write(
                    json.dumps(
                        {
                            "recommendation_id": f"{month}-r{i}",
                            "clicked_at": f"{month}-11T09:00:00Z",
                        }
                    )
                    + "\n"
                )
    start = time.perf_counter()
    rows = {(r.period, r.algorithm): r for r in monthly_report(dpath, cpath, "raw")}
    elapsed = time.perf_counter() - start
    assert rows[("2016-09", "all")].ctr_percent == "0.19%"
    assert rows[("2016-12", "all")].ctr_percent == "0.10%"
    assert elapsed < 1.0


def test_criterion_03_oracle_equivalence(tmp_path):
    """20 random 200-doc corpora, 50 queries each: unrestricted more_like_this
    equals the brute-force TF-IDF cosine oracle in ids and order."""
    start = time.perf_counter()
    seed_rng = random.Random(20160918)
    for trial in range(20):
        rng = random.Random(seed_rng.getrandbits(32))
        records = make_corpus(rng, 200, id_prefix=f"c{trial}")
        store = build_store(tmp_path, records, name=f"store{trial}")
        index = build_index(store)
        ids = [r["id"] for r in records]
        for query_id in rng.sample(ids, 50):
            got = more_like_this(index, query_id, 10, {"main"}, max_query_terms=None)
            expected = oracle_more_like_this(records, query_id, 10)
            assert [c.document_id for c in got] == [doc for doc, _ in expected], (
                f"trial {trial}, query {query_id}"
            )
    assert time.perf_counter() - start < 60.0


def test_criterion_04_recommendability_via_duplicates(tmp_path):
    """Duplicating any of 20 sampled docs in a 1,000-doc corpus and querying
    the duplicate ranks the original first with score 1.0 (tolerance 1e-9)."""
    rng = random.Random(1357)
    records = make_corpus(rng, 1000, with_abstract=False)
    sampled = rng.sample(records, 20)
    duplicates = [dict(original, id=f"dup-{original['id']}") for original in sampled]
    store = build_store(tmp_path, records + duplicates)
    index = build_index(store)
    for original in sampled:
        results = more_like_this(index, f"dup-{original['id']}", 5, {"main"})
        assert results, f"no candidates for duplicate of {original['id']}"
        assert results[0].document_id == original["id"]
        assert results[0].score == pytest.approx(1.0, abs=1e-9)


def test_criterion_05_response_completeness(tmp_path, closing):
    """500 seeded requests over a 100-doc corpus with k=5: every 200 response
    has exactly 5 items, no duplicates, never the query document, and every
    item inside the partner's allowed collections."""
    rng = random.Random(24680)
    records = make_corpus(rng, 100, collections=("keep", "drop"))
    by_id = {r["id"]: r for r in records}
    store = build_store(tmp_path, records)
    stereotype = tuple(r["id"] for r in records[:8]) + ("no-such-doc",)
    partners = {"lib": all_arm_partner({"keep"}, stereotype=stereotype)}
    service = closing(build_service(store, partners, tmp_path / "logs", seed=5))

    ids = [r["id"] for r in records]
    for i in range(500):
        query_id = rng.choice(ids)
        response = service.handle(
            HttpRequestContext(
                method="GET",
                path=f"/v1/documents/{query_id}/related_documents/",
                query={"partner_id": "lib", "count": "5"},
                user_agent="acceptance-suite",
            )
        )
        assert response.status == 200, f"request {i} failed: {response.body!r}"
        root = ET.fromstring(response.body)
        items = root.findall("related_document")
        assert len(items) == 5
        doc_ids = [el.attrib["document_id"] for el in items]
        assert len(set(doc_ids)) == 5
        assert query_id not in doc_ids
        for doc_id in doc_ids:
            assert by_id[doc_id]["collection_id"] == "keep"


def test_criterion_06_latency_bound(tmp_path, closing):
    """1,000 sequential HTTP requests over a 50,000-doc corpus: p95
    end-to-end latency below 682 ms."""
    rng = random.Random(86420)
    records = make_corpus(rng, 50_000, with_abstract=False, vocab_size=20_000)
    store = build_store(tmp_path, records)
    stereotype = tuple(r["id"] for r in records[:10])
    partners = {"lib": all_arm_partner({"main"}, stereotype=stereotype)}
    service = closing(build_service(store, partners, tmp_path / "logs", seed=6))
    server = serve_http(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address
        ids = [r["id"] for r in records]
        latencies = []
        for _ in range(1000):
            doc_id = rng.choice(ids)
            start = time.perf_counter()
            conn = http.client.HTTPConnection(host, port, timeout=30)
            conn.request(
                "GET",
                f"/v1/documents/{doc_id}/related_documents/?partner_id=lib&count=5",
                headers={"User-Agent": "acceptance-suite"},
            )
            response = conn.getresponse()
            body = response.read()
            conn.close()
            latencies.append((time.perf_counter() - start) * 1000.0)
            assert response.status == 200, body
        latencies.sort()
        p95 = latencies[int(0.95 * len(latencies))]
        assert p95 < LATENCY_CEILING_MS, f"p95 latency {p95:.1f} ms"
    finally:
        server.shutdown()
        server.server_close()


def test_criterion_07_golden_serialization():
    """XML and JSON bytes for a fixed 3-item set match frozen fixtures;
    0.25005 renders as "0.2500"."""
    fixture_set = RecommendationSet(
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
    assert serialize_set_xml(fixture_set) == (DATA_DIR / "golden_set.xml").read_bytes()
    assert serialize_set_json(fixture_set) == (DATA_DIR / "golden_set.json").read_bytes()
    assert render_score(0.25005) == "0.2500"


def test_criterion_08_arm_selection_statistics():
    """Weights {content_based: 3, most_popular: 1} over 100,000 seeded draws:
    content_based frequency within [0.74, 0.76]."""
    weights = {AlgorithmArm.CONTENT_BASED: 3.0, AlgorithmArm.MOST_POPULAR: 1.0}
    rng = random.Random(97531)
    counts = Counter(select_arm(weights, rng) for _ in range(100_000))
    share = counts[AlgorithmArm.CONTENT_BASED] / 100_000
    assert 0.74 <= share <= 0.76, f"content_based share {share:.4f}"


def test_criterion_09_bot_filtering(tmp_path):
    """2 human + 1 bot deliveries with 1 human click: raw CTR 33.33%,
    bot_filtered 50.00%."""
    dpath = tmp_path / "deliveries.jsonl"
    cpath = tmp_path / "clicks.jsonl"
    human = "Mozilla/5.0 (Windows NT 10.0; rv:52.0) Firefox/52.0"
    bot = "Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)"
    events = [("h1", human), ("h2", human), ("b1", bot)]
    with dpath.open("w", encoding="utf-8") as fh:
        for rec_id, agent in events:
            fh.write(
                json.dumps(
                    {
                        "recommendation_id": rec_id,
                        "set_id": "s1",
                        "partner_id": "lib",
                        "document_id": "d1",
                        "algorithm": "most_popular",
                        "delivered_at": "2016-10-02T10:00:00Z",
                        "user_agent": agent,
                    }
                )
                + "\n"
            )
    cpath.write_text(
        json.dumps({"recommendation_id": "h1", "clicked_at": "2016-10-02T10:05:00Z"}) + "\n",
        encoding="utf-8",
    )
    raw = monthly_report(dpath, cpath, "raw")
    filtered = monthly_report(dpath, cpath, "bot_filtered")
    assert raw[-1].ctr_percent == "33.33%"
    assert filtered[-1].ctr_percent == "50.00%"


def test_criterion_10_end_to_end_simulation(tmp_path):
    """`simulate` with 10,000 requests at flat click probability 0.0013 and a
    fixed seed reports an overall raw CTR within [0.05%, 0.25%], and
    per-algorithm rows sum to the overall row."""
    rng = random.Random(11223)
    records = make_corpus(rng, 150)
    corpus_path = tmp_path / "docs.jsonl"
    corpus_path.write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )
    partners_path = tmp_path / "partners.jsonl"
    partners_path.write_text(
        json.dumps(
            {
                "partner_id": "lib",
                "allowed_collections": ["main"],
                "arm_weights": {arm.value: 1.0 for arm in AlgorithmArm},
                "stereotype_list": [r["id"] for r in records[:6]],
                "default_k": 5,
            }
        )
        + "\n",
        encoding="utf-8",
    )
    spec_path = tmp_path / "sim.json"
    spec_path.write_text(
        json.dumps(
            {
                "request_count": 10_000,
                "click_probability": {arm.value: 0.0013 for arm in AlgorithmArm},
                "bot_fraction": 0.1,
                "seed": 20160918,
                "partner_id": "lib",
                "k": 5,
            }
        ),
        encoding="utf-8",
    )
    store_dir = tmp_path / "store"
    logs_dir = tmp_path / "logs"
    out_path = tmp_path / "report.csv"

    assert run(["ingest", "--corpus", str(corpus_path), "--store", str(store_dir)]) == 0
    assert (
        run(
            [
                "simulate",
                "--store",
                str(store_dir),
                "--partners",
                str(partners_path),
                "--spec",
                str(spec_path),
                "--logs",
                str(logs_dir),
            ]
        )
        == 0
    )
    assert (
        run(
            [
                "report",
                "--logs",
                str(logs_dir),
                "--store",
                str(store_dir),
                "--variant",
                "raw",
                "--out",
                str(out_path),
            ]
        )
        == 0
    )

    with out_path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    overall_all = next(r for r in rows if r["period"] == "overall" and r["algorithm"] == "all")
    deliveries = int(overall_all["deliveries"])
    clicks = int(overall_all["clicks"])
    assert deliveries == 50_000  # 10,000 requests x k=5
    ctr = 100.0 * clicks / deliveries
    assert 0.05 <= ctr <= 0.25, f"overall raw CTR {ctr:.4f}%"

    arm_rows = [r for r in rows if r["period"] == "overall" and r["algorithm"] != "all"]
    assert sum(int(r["deliveries"]) for r in arm_rows) == deliveries
    assert sum(int(r["clicks"]) for r in arm_rows) == clicks
