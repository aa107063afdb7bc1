"""Tokenization, index construction, TF-IDF weighting, and more-like-this."""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import threading
import tracemalloc
from array import array
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docrecs import (
    CorpusStore,
    build_index,
    more_like_this,
    parse_document_record,
    read_store,
    tokenize,
)

from support import (
    build_store,
    document_vector,
    idf,
    make_corpus,
    oracle_more_like_this,
    oracle_vectors,
    postings,
    reference_more_like_this,
    term_ids,
)

TOY_RECORDS = [
    {"id": "d1", "collection_id": "c", "title": "sparse vector search", "keywords": ["vector"]},
    {"id": "d2", "collection_id": "c", "title": "vector ranking", "abstract": "ranking by cosine"},
    {"id": "d3", "collection_id": "c", "title": "corpus metadata", "venue": "search letters"},
    {"id": "d4", "collection_id": "c", "title": "reading habits survey", "authors": ["ada lovelace"]},
    {"id": "d5", "collection_id": "c", "title": "cosine search", "keywords": ["ranking", "search"]},
]


class TestTokenize:
    def test_punctuation_and_short_tokens(self):
        assert tokenize("Mr. Reader's eBooks") == ["mr", "reader", "ebooks"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_unicode_letters_kept(self):
        assert tokenize("Empfehlungs-Systeme für Soziologie") == [
            "empfehlungs",
            "systeme",
            "für",
            "soziologie",
        ]

    def test_digits_are_tokens(self):
        assert tokenize("census 2016 wave-2") == ["census", "2016", "wave"]

    def test_underscore_splits(self):
        assert tokenize("alpha_beta") == ["alpha", "beta"]


class TestBuildIndex:
    def test_title_weight_multiplies_counts(self, tmp_path):
        store = build_store(tmp_path, [{"id": "d", "collection_id": "c", "title": "alpha alpha"}])
        index = build_index(store)  # the title's weight is 3
        ords, weights = postings(index, term_ids(index)["alpha"])
        assert [index.doc_ids[o] for o in ords] == ["d"]
        assert list(weights) == [pytest.approx(6.0 * math.log(2.0))]  # tf 2 x 3, N=1, df=1

    def test_absent_term_absent_from_postings(self, tmp_path):
        store = build_store(tmp_path, TOY_RECORDS)
        index = build_index(store)
        assert "zeppelin" not in term_ids(index)

    def test_empty_store_rejected(self, tmp_path):
        store = CorpusStore(tmp_path / "empty")
        with pytest.raises(ValueError, match="empty"):
            build_index(store)

    def test_stream_and_store_build_the_same_index(self, tmp_path):
        records = make_corpus(random.Random(9), 20)
        build_store(tmp_path, records)
        streamed = build_index(read_store(tmp_path / "store"))
        assert streamed == build_index([parse_document_record(json.dumps(r)) for r in records])
        assert list(streamed.readership) == [r["readership"] for r in records]

    def test_streamed_build_holds_one_string_per_collection(self, tmp_path):
        # names longer than one letter, which CPython would share anyway
        records = make_corpus(random.Random(21), 60, collections=("arxiv", "pubmed", "main"))
        build_store(tmp_path, records)
        index = build_index(read_store(tmp_path / "store"))
        assert len({id(c) for c in index.doc_collections}) == len(index.collection_ids) == 3

    def test_repeated_document_id_rejected(self):
        record = parse_document_record('{"id": "d", "title": "alpha"}')
        with pytest.raises(ValueError, match="unique"):
            build_index([record, record])

    def test_toy_corpus_matches_hand_counted_table(self, tmp_path):
        # Independent df/tf table computed directly from the raw records.
        expected_tf: dict[str, dict[str, float]] = {}
        weights = {"title": 3.0, "keywords": 2.0, "abstract": 1.0, "venue": 1.0, "authors": 1.0}
        for record in TOY_RECORDS:
            counts: dict[str, float] = {}
            fields = {
                "title": record.get("title", ""),
                "keywords": " ".join(record.get("keywords", [])),
                "abstract": record.get("abstract", ""),
                "venue": record.get("venue", ""),
                "authors": " ".join(record.get("authors", [])),
            }
            for field, text in fields.items():
                for token in text.lower().split():
                    if len(token) >= 2:
                        counts[token] = counts.get(token, 0.0) + weights[field]
            expected_tf[record["id"]] = counts

        store = build_store(tmp_path, TOY_RECORDS)
        index = build_index(store)

        expected_df: dict[str, int] = {}
        for counts in expected_tf.values():
            for term in counts:
                expected_df[term] = expected_df.get(term, 0) + 1
        assert sorted(index.terms) == sorted(expected_df)
        ids = term_ids(index)
        for term, df_value in expected_df.items():
            assert len(postings(index, ids[term])[0]) == df_value
        for term_id, term in enumerate(index.terms):
            ords, weights = postings(index, term_id)
            idf_value = math.log(1.0 + len(TOY_RECORDS) / expected_df[term])
            for ordinal, weight in zip(ords, weights):
                tf_value = expected_tf[index.doc_ids[ordinal]][term]
                assert weight == pytest.approx(tf_value * idf_value)

    def test_df_bounds_invariant(self, tmp_path):
        store = build_store(tmp_path, make_corpus(random.Random(5), 40))
        index = build_index(store)
        for term_id in range(len(index.terms)):
            ords, weights = postings(index, term_id)
            distinct = {index.doc_ids[o] for o in ords}
            assert 1 <= len(distinct) <= len(index)
            assert len(distinct) == len(ords) == len(weights)

    def test_df_monotone_under_document_addition(self, tmp_path):
        rng = random.Random(11)
        records = make_corpus(rng, 30)
        smaller = build_index(build_store(tmp_path, records[:-1], name="small"))
        larger = build_index(build_store(tmp_path, records, name="large"))
        larger_ids = term_ids(larger)
        for term_id, term in enumerate(smaller.terms):
            ords, _ = postings(smaller, term_id)
            assert len(postings(larger, larger_ids[term])[0]) >= len(ords)

    def test_build_peak_stays_near_the_index_it_keeps(self):
        # A build that gathers each term's postings in a list of its own before
        # packing them peaks near 1.3 times the index it keeps; one that counts
        # the postings first and places each straight into its slot, with no
        # list per term, stays under 1.2.
        records = [
            parse_document_record(json.dumps(r))
            for r in make_corpus(random.Random(18), 2000, with_abstract=True)
        ]
        tracemalloc.start()
        try:
            index = build_index(records)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(index) == 2000
        assert peak <= 1.2 * kept, f"build peak {peak} B against {kept} B kept"

    @pytest.mark.parametrize("empty_at", [None, 0, 2, 4], ids=["none", "first", "middle", "last"])
    def test_token_less_documents_take_no_postings(self, empty_at):
        records = [
            {"id": f"d{i}", "collection_id": "c", "title": f"shared word{i % 2}"} for i in range(5)
        ]
        if empty_at is not None:
            records[empty_at]["title"] = "a b ."  # no token of two characters
        index = build_index(parse_document_record(json.dumps(r)) for r in records)
        _assert_postings_transpose_the_documents(index)
        for ordinal in range(len(records)):
            empty = ordinal == empty_at
            assert (index.doc_starts[ordinal] == index.doc_starts[ordinal + 1]) is empty
            assert (index.doc_norms[ordinal] == 0.0) is empty
            assert (ordinal in index.posting_ords) is not empty

    def test_single_document_corpus(self):
        record = {"id": "only", "collection_id": "c", "title": "lone lone paper", "keywords": ["lone"]}
        index = build_index([parse_document_record(json.dumps(record))])
        _assert_postings_transpose_the_documents(index)
        assert index.terms == ("lone", "paper")
        assert list(index.posting_starts) == [0, 1, 2]
        assert list(index.posting_ords) == [0, 0]
        assert list(index.doc_tfs) == [3 + 3 + 2, 3]


class TestIdf:
    def test_rare_term(self, tmp_path):
        records = [
            {"id": f"d{i}", "collection_id": "c", "title": t}
            for i, t in enumerate(["unique alpha", "beta beta", "gamma delta", "epsilon zeta"])
        ]
        store = build_store(tmp_path, records)
        index = build_index(store)
        assert idf(index, "unique") == pytest.approx(math.log(5.0))  # N=4, df=1

    def test_ubiquitous_term(self, tmp_path):
        records = [
            {"id": f"d{i}", "collection_id": "c", "title": f"shared word{i}"} for i in range(4)
        ]
        store = build_store(tmp_path, records)
        index = build_index(store)
        assert idf(index, "shared") == pytest.approx(math.log(2.0))  # N=4, df=4

    def test_unseen_term_is_zero(self, tmp_path):
        store = build_store(tmp_path, TOY_RECORDS)
        assert idf(build_index(store), "nowhere") == 0.0


class TestDocumentVector:
    def test_stopword_only_document_has_empty_vector(self, tmp_path):
        records = [
            {"id": "empty", "collection_id": "c", "title": "a b ."},  # no token of two characters
            {"id": "full", "collection_id": "c", "title": "real words"},
        ]
        store = build_store(tmp_path, records)
        index = build_index(store)
        assert document_vector(index, "empty") == {}
        assert index.doc_norms[index.ordinals["empty"]] == 0.0
        assert index.doc_norms[index.ordinals["full"]] > 0.0

    def test_duplicate_documents_have_identical_vectors(self, tmp_path):
        base = {"collection_id": "c", "title": "twin study", "keywords": ["twin"]}
        store = build_store(tmp_path, [{"id": "a", **base}, {"id": "b", **base}])
        index = build_index(store)
        assert document_vector(index, "a") == document_vector(index, "b")

    def test_matches_brute_force_tf_idf(self, tmp_path):
        store = build_store(tmp_path, TOY_RECORDS)
        index = build_index(store)
        expected_vectors, expected_norms = oracle_vectors(TOY_RECORDS)
        for record in TOY_RECORDS:
            doc_id = record["id"]
            vector = document_vector(index, doc_id)
            assert set(vector) == set(expected_vectors[doc_id])
            for term, weight in expected_vectors[doc_id].items():
                assert vector[term] == pytest.approx(weight)
            assert index.doc_norms[index.ordinals[doc_id]] == pytest.approx(expected_norms[doc_id])

    def test_unknown_doc_raises(self, tmp_path):
        store = build_store(tmp_path, TOY_RECORDS)
        with pytest.raises(KeyError):
            document_vector(build_index(store), "missing")

    def test_stable_across_calls(self, tmp_path):
        store = build_store(tmp_path, TOY_RECORDS)
        index = build_index(store)
        assert document_vector(index, "d1") == document_vector(index, "d1")


class TestMoreLikeThis:
    def test_identical_pair_scores_one(self, tmp_path):
        base = {"collection_id": "c", "title": "same metadata here", "keywords": ["same"]}
        store = build_store(tmp_path, [{"id": "A", **base}, {"id": "B", **base}])
        index = build_index(store)
        assert more_like_this(index, "A", 5, {"c"}) == [("B", 1.0)]

    def test_query_never_in_results(self, tmp_path):
        store = build_store(tmp_path, make_corpus(random.Random(2), 30))
        index = build_index(store)
        for doc_id in index.doc_ids[:10]:
            results = more_like_this(index, doc_id, 10, {"main"})
            assert doc_id not in [c.document_id for c in results]

    def test_toy_corpus_matches_exhaustive_oracle(self, tmp_path):
        store = build_store(tmp_path, TOY_RECORDS)
        index = build_index(store)
        got = more_like_this(index, "d1", 3, {"c"}, max_query_terms=None)
        expected = oracle_more_like_this(TOY_RECORDS, "d1", 3)
        assert [c.document_id for c in got] == [d for d, _ in expected]
        for candidate, (_, score) in zip(got, expected):
            assert candidate.score == pytest.approx(score, abs=1e-12)

    def test_unknown_query_raises(self, tmp_path):
        store = build_store(tmp_path, TOY_RECORDS)
        with pytest.raises(KeyError):
            more_like_this(build_index(store), "missing", 3, {"c"})

    def test_empty_scope_yields_empty_list(self, tmp_path):
        store = build_store(tmp_path, TOY_RECORDS)
        assert more_like_this(build_index(store), "d1", 3, set()) == []

    def test_out_of_scope_collection_excluded(self, tmp_path):
        records = [
            {"id": "q", "collection_id": "c1", "title": "shared topic words"},
            {"id": "in", "collection_id": "c1", "title": "shared topic words"},
            {"id": "out", "collection_id": "c2", "title": "shared topic words"},
        ]
        store = build_store(tmp_path, records)
        index = build_index(store)
        results = more_like_this(index, "q", 5, {"c1"})
        assert [c.document_id for c in results] == ["in"]

    def test_k_must_be_positive(self, tmp_path):
        store = build_store(tmp_path, TOY_RECORDS)
        with pytest.raises(ValueError):
            more_like_this(build_index(store), "d1", 0, {"c"})

    def test_oracle_equivalence_random_corpora(self, tmp_path):
        # Unrestricted query terms against the pairwise-cosine oracle.
        rng = random.Random(97)
        for trial in range(4):
            records = make_corpus(rng, rng.randint(20, 60))
            store = build_store(tmp_path, records, name=f"store{trial}")
            index = build_index(store)
            ids = [r["id"] for r in records]
            for query_id in rng.sample(ids, 10):
                got = more_like_this(index, query_id, 10, {"main"}, max_query_terms=None)
                expected = oracle_more_like_this(records, query_id, 10)
                assert [c.document_id for c in got] == [d for d, _ in expected]
                for candidate, (_, score) in zip(got, expected):
                    assert candidate.score == pytest.approx(score, abs=1e-9)

    def test_score_bounds(self, tmp_path):
        store = build_store(tmp_path, make_corpus(random.Random(13), 50))
        index = build_index(store)
        for doc_id in index.doc_ids[:20]:
            for candidate in more_like_this(index, doc_id, 50, {"main"}):
                assert 0.0 < candidate.score <= 1.0

    def test_full_vector_symmetry(self, tmp_path):
        records = make_corpus(random.Random(17), 25)
        store = build_store(tmp_path, records)
        index = build_index(store)
        ids = [r["id"] for r in records]

        def score_of(query, target):
            for candidate in more_like_this(index, query, len(ids), {"main"}, max_query_terms=None):
                if candidate.document_id == target:
                    return candidate.score
            return 0.0

        rng = random.Random(18)
        for _ in range(15):
            a, b = rng.sample(ids, 2)
            assert score_of(a, b) == pytest.approx(score_of(b, a), abs=1e-12)

    def test_self_retrievability_with_duplicate(self, tmp_path):
        # Every document is reachable: clone a doc and query the clone.
        rng = random.Random(23)
        records = make_corpus(rng, 40)
        target = rng.choice(records)
        clone = dict(target, id="clone-of-target")
        store = build_store(tmp_path, records + [clone])
        index = build_index(store)
        results = more_like_this(index, "clone-of-target", 5, {"main"}, max_query_terms=None)
        assert results[0].document_id == target["id"]
        assert results[0].score == pytest.approx(1.0, abs=1e-9)

    def test_restricted_query_uses_strongest_terms(self, tmp_path):
        # With m=1 only the heaviest query term contributes: candidates
        # sharing just weaker terms are not reachable.
        records = [
            {"id": "q", "collection_id": "c", "title": "heavy heavy light"},
            {"id": "h", "collection_id": "c", "title": "heavy something else"},
            {"id": "l", "collection_id": "c", "title": "light matter other"},
        ]
        store = build_store(tmp_path, records)
        index = build_index(store)
        results = more_like_this(index, "q", 5, {"c"}, max_query_terms=1)
        assert [c.document_id for c in results] == ["h"]


class TestMoreLikeThisAgainstOracle:
    """The paths criterion 03 leaves out: restricted queries, partial scopes, k=5 and 50."""

    @pytest.mark.parametrize("k", [5, 50])
    @pytest.mark.parametrize("max_query_terms", [None, 25, 3])
    @pytest.mark.parametrize("scope", [{"a"}, {"a", "c"}, {"a", "b", "c"}], ids=["a", "ac", "abc"])
    def test_matches_oracle(self, tmp_path, k, max_query_terms, scope):
        rng = random.Random(4100)
        records = make_corpus(rng, 150, collections=("a", "b", "c"))
        index = build_index(build_store(tmp_path, records))
        assert max(len(document_vector(index, r["id"])) for r in records) > 25
        for query_id in rng.sample([r["id"] for r in records], 12):
            got = more_like_this(index, query_id, k, scope, max_query_terms)
            expected = oracle_more_like_this(records, query_id, k, scope, max_query_terms)
            assert [c.document_id for c in got] == [d for d, _ in expected]
            for candidate, (_, score) in zip(got, expected):
                assert candidate.score == pytest.approx(score, abs=1e-9)

    @pytest.mark.parametrize("k", [5, 50])
    @pytest.mark.parametrize("max_query_terms", [None, 25])
    def test_tied_duplicates_straddling_kth_place_break_by_id(self, tmp_path, k, max_query_terms):
        # k + 3 exact copies of the query tie for first place, so the tie runs
        # across the k-th place; a few more copies sit outside the scope.
        rng = random.Random(4200 + k)
        records = make_corpus(rng, 80, collections=("a", "b"))
        query = next(r for r in records if r["collection_id"] == "a")
        names = [f"dup-{i:03d}" for i in range(k + 6)]
        rng.shuffle(names)
        records += [
            dict(query, id=name, collection_id="b" if i < 3 else "a") for i, name in enumerate(names)
        ]
        index = build_index(build_store(tmp_path, records))
        expected = oracle_more_like_this(records, query["id"], k + 3, {"a"}, max_query_terms)
        assert expected[k - 1][1] == expected[k][1]  # the tie does straddle the k-th place
        got = more_like_this(index, query["id"], k, {"a"}, max_query_terms)
        assert [c.document_id for c in got] == [d for d, _ in expected[:k]]
        assert [c.document_id for c in got] == sorted(names[3:])[:k]
        assert len({c.score for c in got}) == 1


    def test_kth_place_in_a_tie_only_the_clamp_creates(self):
        # Both candidates are the query's title repeated, so both vectors are
        # multiples of the query's. Summed the way the kernel sums them, the
        # cosines round to 1.0 and to the next float up; clamped, they tie,
        # and the smaller id, the smaller raw cosine, takes the one place.
        title = "user citation query"
        records = [
            {"id": "q", "collection_id": "main", "title": title},
            {"id": "doc-2x", "collection_id": "main", "title": " ".join([title] * 2)},
            {"id": "doc-3x", "collection_id": "main", "title": " ".join([title] * 3)},
        ]
        index = build_index(parse_document_record(json.dumps(r)) for r in records)
        query_terms = sorted(
            zip(*index.document(index.ordinals["q"])), key=lambda tw: (-tw[1], index.terms[tw[0]])
        )
        query_norm = math.sqrt(sum(w * w for _, w in query_terms))
        raw = {}
        for doc_id in ("doc-2x", "doc-3x"):
            ordinal = index.ordinals[doc_id]
            weights = dict(zip(*index.document(ordinal)))
            dot = 0.0
            for term_id, query_weight in query_terms:
                dot += query_weight * weights[term_id]
            raw[doc_id] = dot / (query_norm * index.doc_norms[ordinal])
        assert raw == {"doc-2x": 1.0, "doc-3x": 1.0000000000000002}
        assert more_like_this(index, "q", 1, {"main"}) == [("doc-2x", 1.0)]
        assert more_like_this(index, "q", 2, {"main"}) == [("doc-2x", 1.0), ("doc-3x", 1.0)]


def _with_copies(records: list[dict], copies: dict[int, int]) -> list[dict]:
    """``records`` plus exact copies of some of them, dealt round-robin over a, b, c."""
    out = list(records)
    for source, n in copies.items():
        out += [
            dict(records[source], id=f"copy-{source}-{i:02d}", collection_id="abc"[i % 3])
            for i in range(n)
        ]
    return out


# SHA-256 over every (scope, k, max_query_terms, query) result of the corpus
# below, ids and float.hex scores, taken before the kernel was rewritten for
# speed: a rewrite that changes no output keeps it.
FROZEN_RETRIEVAL_SHA256 = "588dff9cf61f53d947641a6d674af556688101565450ed4fe73b970fda161406"


def test_retrieval_matches_frozen_digest():
    rng = random.Random(9100)
    # Nine copies of record 0 tie across the 1st and 5th places, 81 copies of
    # record 1 across the 50th, for every scope holding two or more collections.
    records = _with_copies(make_corpus(rng, 240, collections=("a", "b", "c")), {0: 9, 1: 81})
    index = build_index(parse_document_record(json.dumps(r)) for r in records)
    queries = [records[0]["id"], "copy-0-04", records[1]["id"], "copy-1-40"]
    queries += rng.sample([r["id"] for r in records[2:240]], 12)
    scopes = [{"a", "b", "c"}, {"b"}, {"a", "c"}, {"zz"}, {"c", "zz"}]
    tie = more_like_this(index, "copy-1-40", 51, {"a", "b", "c"})
    assert tie[49].score == tie[50].score  # the tie does straddle the 50th place
    digest = hashlib.sha256()
    for scope in scopes:
        for k in (1, 5, 50):
            for max_query_terms in (None, 25, 3):
                for query in queries:
                    got = more_like_this(index, query, k, scope, max_query_terms)
                    line = " ".join(f"{c.document_id}:{c.score.hex()}" for c in got)
                    digest.update(f"{sorted(scope)} {k} {max_query_terms} {query} {line}\n".encode())
    assert digest.hexdigest() == FROZEN_RETRIEVAL_SHA256


# SHA-256 over every array's typecode and bytes and every tuple of strings of
# the index of the retrieval-digest corpus, taken before build_index was
# rewritten to hold each posting once. Index == compares array values only, so
# this also pins the typecodes and every weight's bits.
FROZEN_INDEX_SHA256 = "a47a022c71f608dbffe5e989c98bc1e2c2d216a03c6de153662b8a1e5e5c9a66"


def test_index_matches_frozen_digest():
    records = _with_copies(
        make_corpus(random.Random(9100), 240, collections=("a", "b", "c")), {0: 9, 1: 81}
    )
    index = build_index(parse_document_record(json.dumps(r)) for r in records)
    # the digest was taken when the index held these weights as doc_weights
    doc_weights = array("d")
    for ordinal in range(len(index)):
        doc_weights += index.document(ordinal)[1]
    digest = hashlib.sha256()
    for name in (
        "posting_starts",
        "posting_ords",
        "posting_weights",
        "doc_starts",
        "doc_term_ids",
        "doc_weights",
        "doc_norms",
        "readership",
    ):
        values = doc_weights if name == "doc_weights" else getattr(index, name)
        digest.update(f"{name} {values.typecode} {len(values)}\n".encode())
        digest.update(values.tobytes())
    for name in ("doc_ids", "terms", "doc_collections", "titles"):
        digest.update(f"{name} {json.dumps(getattr(index, name))}\n".encode())
    assert digest.hexdigest() == FROZEN_INDEX_SHA256


SCOPE_NAMES = ["a", "b", "c", "zz"]


@st.composite
def retrieval_cases(draw):
    records = make_corpus(
        random.Random(draw(st.integers(0, 2**32))),
        draw(st.integers(1, 30)),
        collections=tuple(draw(st.lists(st.sampled_from("abc"), min_size=1, unique=True))),
        with_abstract=draw(st.booleans()),
    )
    copies = {draw(st.integers(0, len(records) - 1)): draw(st.integers(0, 8))}
    scope = draw(st.sets(st.sampled_from(SCOPE_NAMES)))
    shape = draw(st.sampled_from([set, frozenset, sorted]))
    k = draw(st.integers(1, 40))
    max_query_terms = draw(st.none() | st.integers(1, 30))
    return _with_copies(records, copies), shape(scope), k, max_query_terms


@settings(max_examples=100, deadline=None)
@given(case=retrieval_cases())
def test_document_weights_are_the_posting_weights_bit_for_bit(case):
    index = build_index(parse_document_record(json.dumps(r)) for r in case[0])
    assert len(index.doc_term_ids) == len(index.posting_ords)
    for ordinal in range(len(index)):
        for term_id, weight in zip(*index.document(ordinal)):
            ords, weights = postings(index, term_id)
            assert weights[ords.index(ordinal)].hex() == weight.hex()


def _assert_postings_transpose_the_documents(index) -> None:
    """Each term's postings are its documents' entries, ordinals strictly ascending."""
    assert index.posting_starts[0] == 0
    assert index.posting_starts[-1] == len(index.doc_term_ids) == len(index.posting_ords)
    assert len(index.posting_starts) == len(index.terms) + 1
    posting_pairs = []
    for term_id in range(len(index.terms)):
        ords, _ = postings(index, term_id)
        assert len(ords) >= 1
        assert all(a < b for a, b in zip(ords, ords[1:]))
        posting_pairs += [(term_id, o) for o in ords]
    document_pairs = [
        (term_id, ordinal)
        for ordinal in range(len(index))
        for term_id in index.document(ordinal)[0]
    ]
    assert sorted(document_pairs) == posting_pairs


@settings(max_examples=100, deadline=None)
@given(case=retrieval_cases())
def test_postings_transpose_the_documents(case):
    _assert_postings_transpose_the_documents(
        build_index(parse_document_record(json.dumps(r)) for r in case[0])
    )


@settings(max_examples=100, deadline=None)
@given(case=retrieval_cases())
def test_document_norms_sum_left_to_right_bit_for_bit(case):
    index = build_index(parse_document_record(json.dumps(r)) for r in case[0])
    for ordinal in range(len(index)):
        total = 0.0
        for weight in index.document(ordinal)[1]:
            total += weight * weight
        assert index.doc_norms[ordinal].hex() == math.sqrt(total).hex()


class TestMoreLikeThisExactness:
    @settings(max_examples=150, deadline=None)
    @given(case=retrieval_cases())
    def test_equals_the_reference_kernel(self, case):
        records, scope, k, max_query_terms = case
        index = build_index(parse_document_record(json.dumps(r)) for r in records)
        for record in records:
            expected = reference_more_like_this(index, record["id"], k, scope, max_query_terms)
            # twice: the second call answers from the scope resolved by the first
            for _ in range(2):
                got = more_like_this(index, record["id"], k, scope, max_query_terms)
                assert got == expected


class TestScopeMask:
    def test_one_byte_per_document_none_when_every_collection_is_in(self):
        records = [
            {"id": f"d{i}", "collection_id": c, "title": "shared words"}
            for i, c in enumerate("abcab")
        ]
        index = build_index(parse_document_record(json.dumps(r)) for r in records)
        assert index.scope_mask({"a", "b", "c"}) is None
        assert index.scope_mask(["c", "b", "a", "zz"]) is None
        assert index.scope_mask({"a", "zz"}) == bytes([1, 0, 0, 1, 0])
        assert index.scope_mask({"zz"}) == bytes(5)

    def test_resolved_once_per_set_of_present_collections(self):
        index = build_index(
            parse_document_record(json.dumps(r))
            for r in make_corpus(random.Random(3), 30, collections=("a", "b", "c"))
        )
        first = index.scope_mask({"a", "b"})
        assert index.scope_mask(["b", "a", "zz"]) is first
        assert index.scope_mask(frozenset({"a", "b"})) is first

    def test_threads_resolving_scopes_at_once_share_one_mask_each(self):
        # Eight threads at a time on a fresh index, switching as often as the
        # interpreter allows: a lost update would hand some thread a mask
        # other than the one the index keeps.
        records = make_corpus(random.Random(8), 120, collections=("a", "b", "c"))
        scopes = [{"a"}, {"b"}, {"a", "c"}, {"b", "c"}]
        queries = [r["id"] for r in records[:8]]
        reference = build_index(parse_document_record(json.dumps(r)) for r in records)
        expected = [[reference_more_like_this(reference, q, 5, s) for s in scopes] for q in queries]
        start = threading.Barrier(len(queries))

        def work(index, query):
            start.wait(timeout=10)
            return [(index.scope_mask(s), more_like_this(index, query, 5, s)) for s in scopes]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(queries)) as pool:
                for _ in range(10):
                    index = build_index(parse_document_record(json.dumps(r)) for r in records)
                    futures = [pool.submit(work, index, q) for q in queries]
                    results = [f.result(timeout=60) for f in futures]
                    kept = [index.scope_mask(s) for s in scopes]
                    for result, want in zip(results, expected):
                        assert [ranked for _, ranked in result] == want
                        assert all(mask is mine for (mask, _), mine in zip(result, kept))
        finally:
            sys.setswitchinterval(interval)
