"""Shared test helpers: synthetic corpora and an independent relevance oracle.

The oracle computes relatedness from raw record dicts with its own counting
and pairwise cosine code so index-path results can be checked against a
second, unrelated implementation of the same definition.
"""

from __future__ import annotations

import heapq
import json
import math
import random
import re
from collections import Counter
from functools import reduce
from operator import add
from pathlib import Path

from docrecs import (
    AlgorithmArm,
    CorpusStore,
    DocumentRecord,
    ingest_corpus,
    monthly_report,
    popularity_table,
)

WORDS = [
    "retrieval", "ranking", "corpus", "metadata", "citation", "library",
    "digital", "search", "query", "vector", "cosine", "index", "term",
    "frequency", "weight", "cluster", "topic", "model", "neural", "graph",
    "network", "social", "science", "survey", "analysis", "method", "study",
    "evaluation", "system", "user", "behavior", "click", "log", "archive",
    "repository", "journal", "conference", "proceedings", "abstract",
    "semantic", "lexical", "language", "translation", "entity", "linking",
    "knowledge", "ontology", "taxonomy", "classification", "regression",
    "learning", "feature", "sparse", "dense", "embedding", "similarity",
    "relevance", "feedback", "precision", "recall", "measure", "benchmark",
    "dataset", "sample", "random", "distribution", "statistics", "inference",
    "bayesian", "markov", "chain", "process", "stream", "filter", "signal",
    "noise", "pattern", "mining", "discovery", "recommendation", "profile",
    "interest", "reading", "annotation", "review", "editorial", "policy",
    "economics", "history", "culture", "education", "media", "discourse",
    "migration", "labor", "health", "survey2", "panel", "cohort", "interview",
]

VENUES = ["Journal of Findings", "Annual Workshop", "Field Review", "Open Letters"]

FIRST_NAMES = ["ada", "grace", "alan", "edsger", "barbara", "donald", "radia", "vint"]
LAST_NAMES = ["lovelace", "hopper", "turing", "dijkstra", "liskov", "knuth", "perlman", "cerf"]

TOKEN_RE = re.compile(r"[^\W_]+")


class Vocabulary:
    """A word population with Zipf-shaped draw weights.

    ``size`` beyond the base list is filled with derived rare words, and the
    author/venue pools grow with it, giving large corpora the long
    vocabulary tail real metadata has.
    """

    def __init__(self, size: int | None = None):
        if size is None or size <= len(WORDS):
            self.words = list(WORDS)
            self.author_names = [f"{f} {l}" for f in FIRST_NAMES for l in LAST_NAMES]
            self.venues = list(VENUES)
        else:
            extra = [f"{WORDS[i % len(WORDS)]}{i}" for i in range(size - len(WORDS))]
            self.words = list(WORDS) + extra
            pool = max(64, size // 10)
            self.author_names = [
                f"{FIRST_NAMES[i % len(FIRST_NAMES)]}{i} {LAST_NAMES[i % len(LAST_NAMES)]}{i}"
                for i in range(pool)
            ]
            venue_pool = max(32, size // 100)
            self.venues = [
                f"{self.words[(i * 13) % len(self.words)]} press{i}" for i in range(venue_pool)
            ]
        weights = [1.0 / (rank + 50.0) for rank in range(len(self.words))]
        self.cum_weights = []
        total = 0.0
        for w in weights:
            total += w
            self.cum_weights.append(total)

    def sample(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self.cum_weights, k=k)

    def sample_distinct(self, rng: random.Random, k: int) -> list[str]:
        picked: dict[str, None] = {}
        while len(picked) < k:
            for word in self.sample(rng, k - len(picked)):
                picked.setdefault(word, None)
        return list(picked)


_DEFAULT_VOCAB = Vocabulary()

ORACLE_FIELD_WEIGHTS = {
    "title": 3.0,
    "keywords": 2.0,
    "abstract": 1.0,
    "venue": 1.0,
    "authors": 1.0,
}


def make_record(
    rng: random.Random,
    doc_id: str,
    collection: str = "main",
    with_abstract: bool = True,
    vocab: Vocabulary = _DEFAULT_VOCAB,
) -> dict:
    """A plausible metadata record as a raw dict (JSON Lines shape)."""
    record = {
        "id": doc_id,
        "collection_id": collection,
        "title": " ".join(vocab.sample(rng, rng.randint(4, 8))),
        "authors": rng.sample(vocab.author_names, rng.randint(1, 3)),
        "venue": rng.choice(vocab.venues),
        "keywords": vocab.sample_distinct(rng, rng.randint(0, 4)),
        "year": rng.randint(1990, 2017),
        "readership": rng.randint(0, 50),
    }
    if with_abstract:
        record["abstract"] = " ".join(vocab.sample(rng, rng.randint(15, 40)))
    return record


def make_corpus(
    rng: random.Random,
    n_docs: int,
    collections: tuple[str, ...] = ("main",),
    with_abstract: bool = True,
    id_prefix: str = "doc",
    vocab_size: int | None = None,
) -> list[dict]:
    vocab = _DEFAULT_VOCAB if vocab_size is None else Vocabulary(vocab_size)
    width = len(str(max(n_docs - 1, 1)))
    return [
        make_record(
            rng,
            f"{id_prefix}-{i:0{width}d}",
            collection=rng.choice(collections),
            with_abstract=with_abstract,
            vocab=vocab,
        )
        for i in range(n_docs)
    ]


def build_store(tmp_path, records: list[dict], name: str = "store") -> CorpusStore:
    store = CorpusStore(tmp_path / name)
    summary = ingest_corpus([json.dumps(r) for r in records], store)
    assert summary.rejected == 0, summary.reject_reasons
    return store


def term_ids(index) -> dict[str, int]:
    """Term -> term id, from the index's id-ordered ``terms``."""
    return {term: term_id for term_id, term in enumerate(index.terms)}


def postings(index, term_id: int):
    """A term's document ordinals and tf * idf weights, sliced from the index's arrays."""
    start, end = index.posting_starts[term_id], index.posting_starts[term_id + 1]
    return index.posting_ords[start:end], index.posting_weights[start:end]


def idf(index, term: str) -> float:
    """Inverse document frequency, ``ln(1 + N / df)``; 0.0 for unseen terms."""
    term_id = term_ids(index).get(term)
    if term_id is None:
        return 0.0
    df = index.posting_starts[term_id + 1] - index.posting_starts[term_id]
    return math.log(1.0 + len(index) / df)


def document_vector(index, doc_id: str) -> dict[str, float]:
    """The stored (term, tf * idf) pairs of an indexed document."""
    ordinal = index.ordinals.get(doc_id)
    if ordinal is None:
        raise KeyError(f"unknown document id: {doc_id}")
    term_ids, weights = index.document(ordinal)
    return {index.terms[t]: w for t, w in zip(term_ids, weights)}


# --- independent oracle -------------------------------------------------


def oracle_tokens(text: str) -> list[str]:
    return [t for t in TOKEN_RE.findall(text.lower()) if len(t) >= 2]


def _oracle_field_text(record: dict, field: str) -> str:
    value = record.get(field)
    if value is None:
        return ""
    if isinstance(value, list):
        return " ".join(value)
    return str(value)


def oracle_vectors(records: list[dict]) -> tuple[dict[str, dict[str, float]], dict[str, float]]:
    """TF-IDF vectors and norms computed directly from raw records."""
    weighted_counts: dict[str, dict[str, float]] = {}
    for record in records:
        counts: dict[str, float] = {}
        for field, weight in ORACLE_FIELD_WEIGHTS.items():
            for token in oracle_tokens(_oracle_field_text(record, field)):
                counts[token] = counts.get(token, 0.0) + weight
        weighted_counts[record["id"]] = counts

    df: dict[str, int] = {}
    for counts in weighted_counts.values():
        for term in counts:
            df[term] = df.get(term, 0) + 1
    n = len(records)

    vectors: dict[str, dict[str, float]] = {}
    norms: dict[str, float] = {}
    for doc_id, counts in weighted_counts.items():
        vector = {
            term: tf * math.log(1.0 + n / df[term]) for term, tf in counts.items()
        }
        vectors[doc_id] = vector
        norms[doc_id] = math.sqrt(sum(w * w for w in vector.values()))
    return vectors, norms


def oracle_more_like_this(
    records: list[dict],
    query_id: str,
    k: int,
    scope: set[str] | None = None,
    max_query_terms: int | None = None,
) -> list[tuple[str, float]]:
    """Exhaustive pairwise cosine, same tie policy.

    The query vector keeps its ``max_query_terms`` heaviest terms (weight
    descending, then term ascending) when that is given; candidates always
    keep their full vectors.
    """
    vectors, norms = oracle_vectors(records)
    collections = {r["id"]: r.get("collection_id", "") for r in records}
    query_vector = vectors[query_id]
    query_norm = norms[query_id]
    if max_query_terms is not None:
        heaviest = sorted(query_vector.items(), key=lambda pair: (-pair[1], pair[0]))
        query_vector = dict(heaviest[:max_query_terms])
        query_norm = math.sqrt(sum(w * w for w in query_vector.values()))
    results: list[tuple[str, float]] = []
    for record in records:
        doc_id = record["id"]
        if doc_id == query_id:
            continue
        if scope is not None and collections[doc_id] not in scope:
            continue
        candidate = vectors[doc_id]
        dot = sum(w * candidate[t] for t, w in query_vector.items() if t in candidate)
        if dot <= 0.0 or query_norm == 0.0 or norms[doc_id] == 0.0:
            continue
        results.append((doc_id, min(1.0, dot / (query_norm * norms[doc_id]))))
    results.sort(key=lambda pair: (-pair[1], pair[0]))
    return results[:k]


def reference_more_like_this(index, query_doc, k, scope, max_query_terms=25) -> list[tuple[str, float]]:
    """``more_like_this`` as it stood before its kernel was rewritten for speed.

    It reads the same ``Index`` arrays and does the same float operations in
    the same order, so a faster kernel that keeps every output bit for bit
    compares ``==`` with it.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    query = index.ordinals.get(query_doc)
    if query is None:
        raise KeyError(f"unknown document id: {query_doc}")
    if not scope:
        return []

    names = index.terms
    terms = sorted(zip(*index.document(query)), key=lambda item: (-item[1], names[item[0]]))
    if max_query_terms is not None:
        terms = terms[:max_query_terms]
    if not terms:
        return []
    # left to right from 0.0, as sum adds floats before Python 3.12
    query_norm = math.sqrt(reduce(add, (w * w for _, w in terms), 0.0))

    dots: dict[int, float] = {}
    get = dots.get
    for term_id, query_weight in terms:
        ords, weights = postings(index, term_id)
        for ordinal, product in zip(ords, map(query_weight.__mul__, weights)):
            dots[ordinal] = get(ordinal, 0.0) + product
    dots.pop(query, None)
    if not index.collection_ids <= frozenset(scope):
        collections = index.doc_collections
        dots = {o: dot for o, dot in dots.items() if collections[o] in scope}

    norms, doc_ids = index.doc_norms, index.doc_ids
    ords = list(dots)
    scores = [dot / (query_norm * norms[o]) for o, dot in dots.items()]
    floor = min(1.0, heapq.nlargest(k, scores)[-1]) if len(scores) > k else 0.0
    top = sorted(
        (-min(1.0, s), doc_ids[o]) for o, s in zip(ords, scores) if s >= floor and s > 0.0
    )
    return [(doc_id, -negated) for negated, doc_id in top[:k]]


def reference_select_arm(arm_weights, rng: random.Random):
    """Arm selection as it stood before each partner's rotation was built once.

    It checks and sums the weights on every call; a faster draw that picks
    the same arm from the same ``rng`` state compares ``is`` with it.
    """
    weights = [(arm, arm_weights[arm]) for arm in AlgorithmArm if arm in arm_weights]
    if any(w < 0 for _, w in weights):
        raise ValueError("arm weights must be non-negative")
    total = sum(w for _, w in weights)
    if total <= 0:
        raise ValueError("at least one arm weight must be positive")
    draw = rng.random() * total
    cumulative = 0.0
    chosen = None
    for arm, weight in weights:
        if weight <= 0:
            continue
        chosen = arm
        cumulative += weight
        if draw < cumulative:
            return arm
    return chosen  # round-off fallback: the last positive-weight arm


# --- event logs -----------------------------------------------------------


def read_jsonl(path) -> list[dict]:
    """Every line of a JSON Lines file as a dict; a malformed line raises."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def accepted_delivery_ids(path) -> list[str]:
    """The recommendation ids of the delivery lines that both log readers accept, in line order.

    The report's rejected line numbers pick the lines; the startup replay
    must take the same ids from the log.
    """
    absent = Path(path).with_name("absent-clicks.jsonl")
    issues = []
    monthly_report(path, absent, issues=issues)
    rejected = {lineno for lineno, _ in issues[0].delivery_rejects}
    with open(path, "rb") as fh:
        lines = [(n, line) for n, line in enumerate(fh, start=1) if line.strip()]
    ids = [json.loads(line)["recommendation_id"] for n, line in lines if n not in rejected]
    replayed: set[str] = set()
    popularity_table(path, absent, [DocumentRecord("d", "main", "D")], delivered_ids=replayed)
    assert replayed == set(ids)
    return ids


def oracle_ctr_text(deliveries: int, clicks: int) -> str:
    """100 * clicks / deliveries with two decimals, half away from zero, in integers."""
    if deliveries == 0:
        return "0.00%"
    hundredths = (clicks * 20_000 + deliveries) // (2 * deliveries)
    return f"{hundredths // 100}.{hundredths % 100:02d}%"


def oracle_monthly_report(
    deliveries: list[tuple[dict, str, bool]], click_ids: list[str], variant: str
) -> tuple[list[tuple], tuple[str, ...]]:
    """Report rows and orphan click ids, tallied row by row from the events themselves.

    ``deliveries`` holds (event, UTC month, is bot) for each well-formed
    delivery line and ``click_ids`` the recommendation id of each well-formed
    click line, both in log order. A click counts for the last counted
    delivery of its id; ``bot_filtered`` counts no bot delivery and at most
    one click per id. Orphans are ids that no well-formed delivery carries.
    """
    counted = [(e, month) for e, month, bot in deliveries if variant == "raw" or not bot]
    last = {e["recommendation_id"]: (e["algorithm"], month) for e, month in counted}
    clicks = [last[rec_id] for rec_id in click_ids if rec_id in last]
    if variant == "bot_filtered":
        clicks = [last[rec_id] for rec_id in sorted({r for r in click_ids if r in last})]
    cells = [(e["algorithm"], month) for e, month in counted]

    def row(period, algorithm):
        def inside(cell):
            return period in ("overall", cell[1]) and algorithm in ("all", cell[0])

        n = sum(map(inside, cells))
        c = sum(map(inside, clicks))
        return (period, variant, algorithm, n, c, oracle_ctr_text(n, c))

    rows = []
    for period in sorted({month for _, month in cells}) + ["overall"]:
        arms = sorted({arm for arm, month in cells if period in ("overall", month)})
        rows += [row(period, algorithm) for algorithm in ["all"] + arms]
    known = {e["recommendation_id"] for e, _, _ in deliveries}
    return rows, tuple(sorted({rec_id for rec_id in click_ids if rec_id not in known}))


def oracle_popularity(
    deliveries: list[tuple[dict, str, bool]], click_ids: list[str], readership: dict[str, int]
) -> tuple[list[str], set[str]]:
    """The documents of ``readership`` in most-popular order, and the delivered ids.

    ``deliveries`` and ``click_ids`` are as for :func:`oracle_monthly_report`.
    Every well-formed delivery counts for its document, a bot's too. A
    clicked id counts once, for the document of its last well-formed
    delivery; a click on an id no such delivery carries counts nowhere.
    """
    delivered = Counter(e["document_id"] for e, _, _ in deliveries)
    last_document = {e["recommendation_id"]: e["document_id"] for e, _, _ in deliveries}
    clicks = Counter(last_document[rec_id] for rec_id in set(click_ids) if rec_id in last_document)
    ranked = sorted(readership, key=lambda d: (-clicks[d], -delivered[d], -readership[d], d))
    return ranked, set(last_document)
