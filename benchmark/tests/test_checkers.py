"""The benchmark's own checkers against the program and a hand-worked case.

    PYTHONPATH=src python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

import gen
import oracle
from docrecs import CorpusStore, build_index, ingest_corpus, monthly_report, more_like_this
from docrecs.analytics import popularity_table
from docrecs.recommenders import recommend_most_popular
from support import make_corpus


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    records = make_corpus(random.Random(7), 300, collections=("a", "b"), vocab_size=400)
    store = CorpusStore(tmp_path_factory.mktemp("store"))
    summary = ingest_corpus([json.dumps(r) for r in records], store)
    assert summary.rejected == 0
    return records, store


@pytest.mark.parametrize("k", [5, 50])
@pytest.mark.parametrize("scope", [{"a"}, {"a", "b"}])
def test_brute_force_agrees_with_more_like_this(small_corpus, k, scope):
    records, store = small_corpus
    index = build_index(store)
    brute = oracle.BruteForce(records)
    for record in random.Random(3).sample(records, 25):
        ranking = brute.ranking(record["id"], scope)
        got = more_like_this(index, record["id"], k, scope)
        assert oracle.same_up_to_ties(got, ranking[:k], dict(ranking)), record["id"]


def test_same_up_to_ties_allows_only_near_equal_swaps():
    scores = {"x": 0.5, "y": 0.5 + 1e-12, "z": 0.4}
    want = [("y", 0.5 + 1e-12), ("x", 0.5)]
    assert oracle.same_up_to_ties([("x", 0), ("y", 0)], want, scores)
    assert not oracle.same_up_to_ties([("x", 0), ("z", 0)], want, scores)
    assert not oracle.same_up_to_ties([("x", 0)], want, scores)


def test_most_popular_order_matches_the_program(small_corpus, tmp_path):
    records, store = small_corpus
    main = [dict(r, collection_id="main") for r in records]
    workload = dataclasses.replace(gen.WORKLOADS["restart_report"], history_sets=2_000)
    history = gen.make_history(random.Random(5), workload, main, {"partner_id": "p"})
    gen.write_history(history, tmp_path)
    pop = popularity_table(tmp_path / "deliveries.jsonl", tmp_path / "clicks.jsonl", store)
    order = [d for d in oracle.most_popular_order(records, history)]
    for query in order[:3] + order[-2:]:
        got = [c.document_id for c in recommend_most_popular(pop, query, 5, {"a", "b"})]
        assert got == [d for d in order if d != query][:5]


@pytest.mark.parametrize(
    "deliveries, clicks, text",
    [(8, 1, "12.50%"), (3, 1, "33.33%"), (3, 2, "66.67%"), (1600, 1, "0.06%"),
     (800, 1, "0.13%"), (0, 0, "0.00%"), (2, 3, "150.00%")],
)
def test_ctr_text_rounds_half_away_from_zero(deliveries, clicks, text):
    assert oracle.ctr_text(deliveries, clicks) == text


HUMAN = "Mozilla/5.0 (X11; Linux x86_64) Firefox/102.0"

# r1 is clicked twice, r2 went to an empty user agent (a bot), r4 to a
# crawler, "rec-x" was never delivered and each log has one malformed line.
HAND_DELIVERIES = [
    ("r1", "content_based", HUMAN, "2016-09-03T10:00:00Z"),
    ("r2", "content_based", "", "2016-09-04T10:00:00Z"),
    ("r3", "most_popular", HUMAN, "2016-10-05T10:00:00Z"),
    ("r4", "most_popular", "Googlebot/2.1", "2016-10-06T10:00:00Z"),
]
HAND_CLICKS = ["r1", "r1", "r2", "r3", "rec-x"]
HAND_ROWS = {
    "raw": [
        ("2016-09", "raw", "all", "2", "3", "150.00%"),
        ("2016-09", "raw", "content_based", "2", "3", "150.00%"),
        ("2016-10", "raw", "all", "2", "1", "50.00%"),
        ("2016-10", "raw", "most_popular", "2", "1", "50.00%"),
        ("overall", "raw", "all", "4", "4", "100.00%"),
        ("overall", "raw", "content_based", "2", "3", "150.00%"),
        ("overall", "raw", "most_popular", "2", "1", "50.00%"),
    ],
    "bot_filtered": [
        ("2016-09", "bot_filtered", "all", "1", "1", "100.00%"),
        ("2016-09", "bot_filtered", "content_based", "1", "1", "100.00%"),
        ("2016-10", "bot_filtered", "all", "1", "1", "100.00%"),
        ("2016-10", "bot_filtered", "most_popular", "1", "1", "100.00%"),
        ("overall", "bot_filtered", "all", "2", "2", "100.00%"),
        ("overall", "bot_filtered", "content_based", "1", "1", "100.00%"),
        ("overall", "bot_filtered", "most_popular", "1", "1", "100.00%"),
    ],
}


@pytest.mark.parametrize("variant", ["raw", "bot_filtered"])
def test_report_tally_matches_hand_worked_case(tmp_path, variant):
    deliveries = [oracle.Delivery(r, a, ua, at[:7]) for r, a, ua, at in HAND_DELIVERIES]
    assert oracle.expected_rows(deliveries, HAND_CLICKS, variant) == HAND_ROWS[variant]

    delivery_lines = [
        json.dumps({"recommendation_id": r, "set_id": "s", "partner_id": "p", "document_id": "d",
                    "algorithm": a, "delivered_at": at, "user_agent": ua})
        for r, a, ua, at in HAND_DELIVERIES
    ] + ['{"recommendation_id": "r9", "set_id": ']
    click_lines = [
        json.dumps({"recommendation_id": r, "clicked_at": "2016-10-20T00:00:00Z"}) for r in HAND_CLICKS
    ] + ["not json"]
    (tmp_path / "d.jsonl").write_text("\n".join(delivery_lines) + "\n")
    (tmp_path / "c.jsonl").write_text("\n".join(click_lines) + "\n")
    rows = monthly_report(tmp_path / "d.jsonl", tmp_path / "c.jsonl", variant)
    assert [(r.period, r.variant, r.algorithm, str(r.deliveries), str(r.clicks), r.ctr_percent)
            for r in rows] == HAND_ROWS[variant]
