"""Arm selection, the four arms, bibliometric re-ranking, and set assembly."""

from __future__ import annotations

import functools
import json
import random
from array import array
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from docrecs import (
    AlgorithmArm,
    PartnerConfig,
    PopularityTable,
    build_index,
    more_like_this,
    parse_document_record,
    produce_recommendations,
    recommend_most_popular,
    recommend_stereotype,
    rerank_bibliometric,
)
from docrecs.corpus import arm_rotation
from docrecs.index import Index, ScoredCandidate
from docrecs.recommenders import DEFAULT_RERANK_POOL

from support import build_store, make_corpus, oracle_more_like_this, reference_select_arm


def config_for(
    collections={"main"},
    weights=None,
    stereotype=(),
    default_k=5,
    partner_id="lib",
):
    return PartnerConfig(
        partner_id=partner_id,
        allowed_collections=frozenset(collections),
        arm_weights=weights or {AlgorithmArm.CONTENT_BASED: 1.0},
        stereotype_list=tuple(stereotype),
        default_k=default_k,
    )


def bare_index(collections, readership=None):
    """An index of termless documents: ids, collections and readership only."""
    ids = tuple(collections)
    readership = readership or {}
    return Index(
        doc_ids=ids,
        terms=(),
        posting_starts=array("q", [0]),
        posting_ords=array("i"),
        posting_weights=array("d"),
        doc_starts=array("q", [0] * (len(ids) + 1)),
        doc_term_ids=array("i"),
        doc_weights=array("d"),
        doc_norms=array("d", [0.0] * len(ids)),
        doc_collections=tuple(collections.values()),
        titles=tuple(d.upper() for d in ids),
        readership=array("q", [readership.get(d, 0) for d in ids]),
    )


class TestSelectArm:
    def test_single_positive_arm_always_wins(self):
        rng = random.Random(0)
        for _ in range(100):
            assert arm_rotation({AlgorithmArm.CONTENT_BASED: 1.0}).draw(rng) is AlgorithmArm.CONTENT_BASED

    def test_zero_weight_arm_never_selected(self):
        rng = random.Random(1)
        weights = {AlgorithmArm.CONTENT_BASED: 0.0, AlgorithmArm.MOST_POPULAR: 2.0}
        for _ in range(200):
            assert arm_rotation(weights).draw(rng) is AlgorithmArm.MOST_POPULAR

    def test_all_zero_weights_error(self):
        with pytest.raises(ValueError):
            arm_rotation({AlgorithmArm.CONTENT_BASED: 0.0}).draw(random.Random(2))

    def test_negative_weight_error(self):
        with pytest.raises(ValueError):
            arm_rotation({AlgorithmArm.CONTENT_BASED: -0.5}).draw(random.Random(2))

    def test_consumes_exactly_one_draw(self):
        weights = {AlgorithmArm.CONTENT_BASED: 3.0, AlgorithmArm.MOST_POPULAR: 1.0}
        probe = random.Random(42)
        arm_rotation(weights).draw(probe)
        reference = random.Random(42)
        reference.random()
        assert probe.getstate() == reference.getstate()

    def test_frequency_tracks_weights(self):
        rng = random.Random(7)
        weights = {AlgorithmArm.CONTENT_BASED: 3.0, AlgorithmArm.MOST_POPULAR: 1.0}
        counts = Counter(arm_rotation(weights).draw(rng) for _ in range(10_000))
        share = counts[AlgorithmArm.CONTENT_BASED] / 10_000
        assert 0.73 <= share <= 0.77  # generous band; the 100k run is in acceptance


# Weights at the draw's edges: zero (never drawn), tiny ones that a running
# sum loses to round-off, and integers whose float running sum falls short of
# their exact total.
ARM_WEIGHTS = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=1e3),
    st.sampled_from([5e-324, 1e-300, 1e-17]),
    st.integers(0, 2**60),
)


@st.composite
def arm_weight_maps(draw):
    arms = draw(st.lists(st.sampled_from(list(AlgorithmArm)), min_size=1, unique=True))
    weights = {arm: draw(ARM_WEIGHTS) for arm in arms}
    assume(any(w > 0 for w in weights.values()))
    return weights


@functools.cache
def small_corpus() -> tuple[Index, PopularityTable]:
    records = make_corpus(random.Random(61), 12)
    index = build_index(parse_document_record(json.dumps(r)) for r in records)
    return index, PopularityTable(index)


class TopDraw(random.Random):
    """Draws the largest float below 1 every time."""

    def random(self):
        return 1 - 2**-53


class TestArmRotation:
    """A partner's rotation, built once, draws the arm that checking and
    summing the weights on every request drew."""

    @settings(max_examples=300, deadline=None)
    @given(weights=arm_weight_maps(), seed=st.integers(0, 2**32))
    def test_draws_the_reference_arm(self, weights, seed):
        index, pop = small_corpus()
        config = config_for(weights=weights, stereotype=index.doc_ids[1:4])
        rec_set = produce_recommendations(index, pop, config, index.doc_ids[0], 3, random.Random(seed))
        assert rec_set.algorithm is reference_select_arm(weights, random.Random(seed))
        assert arm_rotation(weights).draw(random.Random(seed)) is rec_set.algorithm

    def test_a_draw_past_the_last_running_sum_takes_the_last_arm(self):
        # As floats, 2**53 + 1 + 1 sums to 2**53, and the top draw of the
        # exact total 2**53 + 2 rounds to 2**53: no running sum exceeds it.
        weights = {
            AlgorithmArm.CONTENT_BASED: 2**53,
            AlgorithmArm.STEREOTYPE: 1,
            AlgorithmArm.MOST_POPULAR: 1,
        }
        assert TopDraw().random() * sum(weights.values()) == 2.0**53 == 2.0**53 + 1.0 + 1.0
        index, pop = small_corpus()
        config = config_for(weights=weights)
        rec_set = produce_recommendations(index, pop, config, index.doc_ids[0], 3, TopDraw())
        assert rec_set.algorithm is AlgorithmArm.MOST_POPULAR
        assert reference_select_arm(weights, TopDraw()) is AlgorithmArm.MOST_POPULAR
        assert arm_rotation(weights).draw(TopDraw()) is AlgorithmArm.MOST_POPULAR


class TestContentBasedArm:
    def test_duplicate_doc_ranks_first_with_score_one(self, tmp_path):
        base = {"collection_id": "main", "title": "twin study of twins"}
        store = build_store(tmp_path, [{"id": "a", **base}, {"id": "b", **base}])
        index = build_index(store)
        results = more_like_this(index, "a", 3, {"main"})
        assert results[0] == ("b", 1.0)

    def test_no_term_overlap_gives_empty_list(self, tmp_path):
        records = [
            {"id": "q", "collection_id": "main", "title": "zebra quagga"},
            {"id": "x", "collection_id": "main", "title": "granite basalt"},
        ]
        store = build_store(tmp_path, records)
        index = build_index(store)
        assert more_like_this(index, "q", 3, {"main"}) == []

    def test_matches_oracle(self, tmp_path):
        records = make_corpus(random.Random(31), 25)
        store = build_store(tmp_path, records)
        index = build_index(store)
        got = more_like_this(index, records[0]["id"], 8, {"main"}, max_query_terms=None)
        expected = oracle_more_like_this(records, records[0]["id"], 8)
        assert [c.document_id for c in got] == [d for d, _ in expected]


class TestMostPopularArm:
    def test_empty_table_falls_back_to_id_order(self):
        pop = PopularityTable(bare_index({d: "main" for d in ("a", "b", "c")}))
        results = recommend_most_popular(pop, "b", 2, {"main"})
        assert [c.document_id for c in results] == ["a", "c"]
        assert [c.score for c in results] == [1.0, 0.5]

    def test_clicks_dominate(self):
        pop = PopularityTable(
            bare_index({d: "main" for d in ("a", "b", "c")}),
            clicks={"a": 5, "b": 7, "c": 9},
        )
        results = recommend_most_popular(pop, "b", 5, {"main"})
        assert [c.document_id for c in results] == ["c", "a"]

    def test_tie_break_chain(self):
        pop = PopularityTable(
            bare_index({d: "main" for d in ("a", "b", "c")}, readership={"c": 4}),
            clicks={"a": 1, "b": 1, "c": 1},
            deliveries={"a": 5, "b": 9, "c": 9},
        )
        results = recommend_most_popular(pop, "zz", 3, {"main"})
        assert [c.document_id for c in results] == ["c", "b", "a"]

    def test_synthetic_log_matches_count_and_sort_script(self):
        # 20 synthetic events: clicks/deliveries per doc, then an
        # independent count-and-sort pass over the same event list.
        rng = random.Random(55)
        docs = [f"d{i}" for i in range(6)]
        events = [(rng.choice(docs), rng.random() < 0.4) for _ in range(20)]
        deliveries = Counter(doc for doc, _ in events)
        clicks = Counter(doc for doc, clicked in events if clicked)
        pop = PopularityTable(bare_index({d: "main" for d in docs}), clicks, deliveries)
        expected = sorted(
            (d for d in docs if d != "d0"),
            key=lambda d: (-clicks[d], -deliveries[d], 0, d),
        )
        got = recommend_most_popular(pop, "d0", 5, {"main"})
        assert [c.document_id for c in got] == expected[:5]

    def test_scope_filter(self):
        pop = PopularityTable(bare_index({"a": "other", "b": "main"}), clicks={"a": 9})
        results = recommend_most_popular(pop, "q", 5, {"main"})
        assert [c.document_id for c in results] == ["b"]


def reference_most_popular(entries, collections, query_doc, k, scope):
    """Full sort of every in-scope entry, kept apart from the ranked table.

    ``entries`` maps a document id to its (clicks, deliveries, readership).
    """
    ranked = sorted(
        (d for d in entries if d != query_doc and collections[d] in scope),
        key=lambda d: (-entries[d][0], -entries[d][1], -entries[d][2], d),
    )
    return [(d, 1.0 - i / k) for i, d in enumerate(ranked[:k])]


def table_of(entries, collections):
    index = bare_index(collections, {d: e[2] for d, e in entries.items()})
    return PopularityTable(
        index, {d: e[0] for d, e in entries.items()}, {d: e[1] for d, e in entries.items()}
    )


@st.composite
def popularity_tables(draw):
    """Small tables with many ties; some documents are in no partner's collection."""
    small = st.integers(0, 3)
    entries = draw(
        st.dictionaries(
            st.text("abcde", min_size=1, max_size=3),
            st.tuples(small, small, small),
            max_size=25,
        )
    )
    collections = {d: draw(st.sampled_from(["main", "other", ""])) for d in entries}
    return entries, collections


class TestMostPopularMatchesFullSort:
    @settings(max_examples=300, deadline=None)
    @given(
        table=popularity_tables(),
        query=st.text("abcdez", min_size=1, max_size=3),  # "z" ids are never in the table
        scope=st.sets(st.sampled_from(["main", "other", "elsewhere"])),
        k=st.integers(1, 20),
    )
    def test_equals_reference(self, table, query, scope, k):
        entries, collections = table
        got = recommend_most_popular(table_of(entries, collections), query, k, frozenset(scope))
        assert [tuple(c) for c in got] == reference_most_popular(
            entries, collections, query, k, scope
        )

    @settings(max_examples=200, deadline=None)
    @given(
        table=popularity_tables(),
        listed=st.lists(st.text("abcde", min_size=1, max_size=3), max_size=4, unique=True),
        k=st.integers(1, 20),
        data=st.data(),
    )
    def test_padding_follows_popularity_order(self, table, listed, k, data):
        entries, collections = table
        in_scope = sorted(d for d, c in collections.items() if c == "main")
        assume(in_scope)
        query = data.draw(st.sampled_from(in_scope))
        pop = table_of(entries, collections)
        config = config_for(weights={AlgorithmArm.STEREOTYPE: 1.0}, stereotype=tuple(listed))
        rec_set = produce_recommendations(pop.index, pop, config, query, k, random.Random(0))

        served_list = [d for d in listed if d != query and d in in_scope][:k]
        expected = [(d, 1.0 - i / k) for i, d in enumerate(served_list)]
        seen = {query} | {d for d, _ in expected}
        for doc_id, score in reference_most_popular(entries, collections, query, k, {"main"}):
            if len(expected) < k and doc_id not in seen:
                expected.append((doc_id, score))
                seen.add(doc_id)
        assert [(i.document_id, i.score) for i in rec_set.items] == expected
        assert [i.title for i in rec_set.items] == [d.upper() for d, _ in expected]


class TestStereotypeArm:
    # every listed id below lies in "main" unless it is "other" or missing
    INDEX = {"q": "main", "a": "main", "b": "main", "c": "main", "x": "main", "y": "main",
             "z": "main", "other": "elsewhere"}

    def listed(self, stereotype, query, k):
        config = config_for(stereotype=stereotype)
        return [c.document_id for c in recommend_stereotype(bare_index(self.INDEX), config, query, k)]

    def test_self_exclusion(self):
        assert self.listed(("x", "y", "z"), "y", 3) == ["x", "z"]

    def test_empty_list_gives_empty(self):
        assert self.listed((), "q", 3) == []

    def test_out_of_scope_id_absent(self):
        assert self.listed(("x", "gone", "other", "z"), "q", 3) == ["x", "z"]

    def test_id_missing_from_index_absent(self):
        assert self.listed(("gone", "x"), "q", 3) == ["x"]

    def test_id_in_collection_outside_scope_absent(self):
        assert self.listed(("other", "x"), "q", 3) == ["x"]

    def test_order_preserved_and_truncated(self):
        assert self.listed(("c", "a", "b"), "q", 2) == ["c", "a"]


class TestOneScopeRule:
    """The most-popular and stereotype arms, and the padding, admit exactly
    the documents that :meth:`Index.scope_mask` admits."""

    COLLECTIONS = {"a1": "a", "b1": "b", "a2": "a", "b2": "b", "b3": "b"}

    @pytest.mark.parametrize(
        "scope", [set(), {"a"}, {"a", "b"}, {"zz"}], ids=["empty", "one", "both", "unknown"]
    )
    def test_arms_admit_what_scope_mask_admits(self, scope):
        index = bare_index(self.COLLECTIONS, {"b1": 3, "a2": 2})
        mask = index.scope_mask(scope)
        admitted = [d for o, d in enumerate(index.doc_ids) if mask is None or mask[o]]
        assert admitted == [d for d, c in self.COLLECTIONS.items() if c in scope]
        pop, k = PopularityTable(index), len(index)

        popular = recommend_most_popular(pop, "none", k, scope)
        assert sorted(c.document_id for c in popular) == sorted(admitted)

        listed = index.doc_ids + ("ghost",)
        config = config_for(collections=scope, stereotype=listed)
        assert [c.document_id for c in recommend_stereotype(index, config, "none", k)] == admitted

        padding_only = config_for(collections=scope, weights={AlgorithmArm.STEREOTYPE: 1.0})
        rec_set = produce_recommendations(index, pop, padding_only, "b3", k, random.Random(0))
        assert {i.document_id for i in rec_set.items} == set(admitted) - {"b3"}


class TestRerankBibliometric:
    def test_readership_reorders(self):
        index = bare_index({"d1": "main", "d2": "main"}, {"d1": 1, "d2": 10})
        candidates = [ScoredCandidate("d1", 0.9), ScoredCandidate("d2", 0.8)]
        assert [c.document_id for c in rerank_bibliometric(candidates, index)] == ["d2", "d1"]

    def test_zero_readership_keeps_original_order(self):
        candidates = [ScoredCandidate(f"d{i}", 1.0 - i / 10) for i in range(5)]
        index = bare_index({c.document_id: "main" for c in candidates})
        assert rerank_bibliometric(candidates, index) == candidates

    def test_tail_beyond_pool_keeps_positions(self):
        rng = random.Random(77)
        pool = DEFAULT_RERANK_POOL
        candidates = [ScoredCandidate(f"d{i:03d}", 1.0 - i / 1000) for i in range(pool + 10)]
        readership = {c.document_id: rng.randint(0, 30) for c in candidates}
        index = bare_index({d: "main" for d in readership}, readership)
        result = rerank_bibliometric(candidates, index)
        assert result[pool:] == candidates[pool:]
        # the head is exactly a plain sort of the pool
        expected_head = sorted(
            candidates[:pool],
            key=lambda c: (-readership[c.document_id], -c.score, c.document_id),
        )
        assert result[:pool] == expected_head

    def test_is_a_permutation(self):
        rng = random.Random(78)
        candidates = [ScoredCandidate(f"d{i}", rng.random()) for i in range(DEFAULT_RERANK_POOL + 10)]
        candidates.sort(key=lambda c: (-c.score, c.document_id))
        readership = {c.document_id: rng.randint(0, 5) for c in candidates}
        index = bare_index({d: "main" for d in readership}, readership)
        result = rerank_bibliometric(candidates, index)
        assert Counter(c.document_id for c in result) == Counter(
            c.document_id for c in candidates
        )
        assert {c.document_id: c.score for c in result} == {
            c.document_id: c.score for c in candidates
        }


class TestProduceRecommendations:
    def test_partial_overlap_pads_to_k(self, tmp_path):
        # Query shares terms with exactly two other documents; the rest of
        # the corpus has disjoint vocabulary, so padding must fill 3 slots.
        records = [
            {"id": "q0", "collection_id": "main", "title": "quark meson physics"},
            {"id": "m1", "collection_id": "main", "title": "quark lattice"},
            {"id": "m2", "collection_id": "main", "title": "meson decay"},
        ] + [
            {"id": f"f{i}", "collection_id": "main", "title": f"pottery glaze kiln{i}"}
            for i in range(7)
        ]
        store = build_store(tmp_path, records)
        index = build_index(store)
        pop = PopularityTable(index)
        config = config_for()
        rec_set = produce_recommendations(index, pop, config, "q0", 5, random.Random(3))
        assert rec_set.algorithm is AlgorithmArm.CONTENT_BASED
        assert [item.rank for item in rec_set.items] == [1, 2, 3, 4, 5]
        scored = [item for item in rec_set.items if item.document_id in ("m1", "m2")]
        assert len(scored) == 2
        assert {item.document_id for item in rec_set.items[:2]} == {"m1", "m2"}

    def test_corpus_exhaustion_returns_fewer(self, tmp_path):
        records = make_corpus(random.Random(41), 3)
        store = build_store(tmp_path, records)
        index = build_index(store)
        pop = PopularityTable(index)
        rec_set = produce_recommendations(
            index, pop, config_for(), records[0]["id"], 3, random.Random(4)
        )
        assert len(rec_set.items) == 2  # only two non-query docs exist

    def test_stereotype_arm_serves_list_prefix(self, tmp_path):
        records = make_corpus(random.Random(43), 8)
        ids = [r["id"] for r in records]
        store = build_store(tmp_path, records)
        index = build_index(store)
        pop = PopularityTable(index)
        config = config_for(
            weights={AlgorithmArm.STEREOTYPE: 1.0},
            stereotype=tuple(ids[:5]),
        )
        rec_set = produce_recommendations(index, pop, config, ids[1], 3, random.Random(5))
        assert rec_set.algorithm is AlgorithmArm.STEREOTYPE
        expected_prefix = [d for d in ids[:5] if d != ids[1]][:3]
        assert [item.document_id for item in rec_set.items] == expected_prefix

    def test_rerank_arm_orders_pool_by_readership(self, tmp_path):
        base = {"collection_id": "main", "title": "common shared topic"}
        records = [
            {"id": "q", **base},
            {"id": "low", **base, "readership": 1},
            {"id": "high", **base, "readership": 40},
        ]
        store = build_store(tmp_path, records)
        index = build_index(store)
        pop = PopularityTable(index)
        config = config_for(weights={AlgorithmArm.CONTENT_BASED_READERSHIP_RERANK: 1.0})
        rec_set = produce_recommendations(index, pop, config, "q", 2, random.Random(6))
        assert [item.document_id for item in rec_set.items] == ["high", "low"]

    def test_unknown_query_doc_raises(self, tmp_path):
        store = build_store(tmp_path, make_corpus(random.Random(44), 4))
        index = build_index(store)
        pop = PopularityTable(index)
        with pytest.raises(KeyError):
            produce_recommendations(index, pop, config_for(), "ghost", 3, random.Random(7))

    def test_empty_scope_returns_empty_set(self, tmp_path):
        records = make_corpus(random.Random(45), 4)
        store = build_store(tmp_path, records)
        index = build_index(store)
        pop = PopularityTable(index)
        config = config_for(collections={"elsewhere"})
        rec_set = produce_recommendations(
            index, pop, config, records[0]["id"], 3, random.Random(8)
        )
        assert rec_set.items == ()

    def test_scope_soundness_two_collections(self, tmp_path):
        rng = random.Random(46)
        records = make_corpus(rng, 30, collections=("allowed", "blocked"))
        store = build_store(tmp_path, records)
        index = build_index(store)
        pop = PopularityTable(index)
        config = config_for(
            collections={"allowed"},
            weights={arm: 1.0 for arm in AlgorithmArm},
            stereotype=tuple(r["id"] for r in records[:6]),
        )
        by_id = {r["id"]: r for r in records}
        for trial in range(40):
            query = rng.choice(records)["id"]
            rec_set = produce_recommendations(index, pop, config, query, 5, random.Random(trial))
            for item in rec_set.items:
                assert by_id[item.document_id]["collection_id"] == "allowed"

    def test_structure_invariants_across_arms_and_corpora(self, tmp_path):
        rng = random.Random(47)
        for trial in range(12):
            records = make_corpus(rng, rng.randint(6, 25), id_prefix=f"t{trial}")
            store = build_store(tmp_path, records, name=f"s{trial}")
            index = build_index(store)
            pop = PopularityTable(index)
            arm = list(AlgorithmArm)[trial % 4]
            config = config_for(
                weights={arm: 1.0},
                stereotype=tuple(r["id"] for r in records[:4]),
            )
            k = rng.randint(1, 8)
            query = rng.choice(records)["id"]
            rec_set = produce_recommendations(index, pop, config, query, k, random.Random(trial))
            assert rec_set.algorithm is arm
            doc_ids = [item.document_id for item in rec_set.items]
            assert query not in doc_ids  # self-exclusion
            assert len(set(doc_ids)) == len(doc_ids)  # no duplicates
            assert [item.rank for item in rec_set.items] == list(
                range(1, len(rec_set.items) + 1)
            )
            available = len(records) - 1
            assert len(rec_set.items) == min(k, available)  # exactness of k
            rec_ids = [item.recommendation_id for item in rec_set.items]
            assert len(set(rec_ids)) == len(rec_ids)

    def test_titles_attached_to_items(self, tmp_path):
        records = make_corpus(random.Random(48), 6)
        store = build_store(tmp_path, records)
        index = build_index(store)
        pop = PopularityTable(index)
        rec_set = produce_recommendations(
            index, pop, config_for(), records[0]["id"], 3, random.Random(9)
        )
        by_id = {r["id"]: r["title"] for r in records}
        for item in rec_set.items:
            assert item.title == by_id[item.document_id]

    def test_ids_unique_across_calls(self, tmp_path):
        records = make_corpus(random.Random(49), 10)
        store = build_store(tmp_path, records)
        index = build_index(store)
        pop = PopularityTable(index)
        rng = random.Random(10)
        seen: set[str] = set()
        for _ in range(50):
            rec_set = produce_recommendations(index, pop, config_for(), records[0]["id"], 5, rng)
            ids = {item.recommendation_id for item in rec_set.items} | {rec_set.set_id}
            assert not (ids & seen)
            seen |= ids

    def test_reproducible_under_seed(self, tmp_path):
        records = make_corpus(random.Random(50), 10)
        store = build_store(tmp_path, records)
        index = build_index(store)
        pop = PopularityTable(index)
        config = config_for(weights={arm: 1.0 for arm in AlgorithmArm})
        first = produce_recommendations(index, pop, config, records[0]["id"], 5, random.Random(99))
        second = produce_recommendations(index, pop, config, records[0]["id"], 5, random.Random(99))
        assert first.set_id == second.set_id
        assert first.items == second.items
        assert first.algorithm == second.algorithm
