"""Inverted index over document metadata with TF-IDF more-like-this retrieval.

Each document field is tokenized and counted with a per-field weight, so the
weighted term frequency is ``tf(t, d) = sum over fields f of weight(f) *
count(t in field f)``. Vector weights are ``tf(t, d) * idf(t)`` with
``idf(t) = ln(1 + N / df(t))``, and relatedness is the cosine between a
query vector restricted to its strongest terms and each candidate's full
vector.
"""

from __future__ import annotations

import gc
import heapq
import math
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import accumulate, chain, count, pairwise, repeat
from operator import mul, neg
from typing import Callable, Collection, Iterable, Mapping, NamedTuple

from .corpus import DocumentRecord

# How many of the query document's strongest terms feed the similarity
# computation; None disables the restriction.
DEFAULT_QUERY_TERMS = 25

_TOKEN_RE = re.compile(r"[^\W_]{2,}")  # runs of two or more Unicode letters and digits


def tokenize(text: str) -> list[str]:
    """Lowercase and split on every character that is not a letter or digit.

    Tokens shorter than two characters are dropped; input order is preserved.
    """
    return _TOKEN_RE.findall(text.lower())


class ScoredCandidate(NamedTuple):
    document_id: str
    score: float


@dataclass(frozen=True)
class Index:
    """Immutable TF-IDF index; safe to share across threads once built.

    Documents are numbered by ordinal in input order, terms by id in order of
    first appearance. The postings of every term lie in two parallel arrays,
    ``posting_ords`` (document ordinals) and ``posting_weights`` (tf * idf);
    term ``t`` owns the slice ``posting_starts[t]:posting_starts[t + 1]``,
    ordinals ascending. Each document's term ids and integer tfs lie the same
    way in ``doc_term_ids`` and ``doc_tfs``, sliced by ``doc_starts``, and
    ``idfs`` holds one idf per term: :meth:`document` multiplies them into
    the very floats its postings hold, so each weight is stored once. A
    handful of large arrays hold every weight, so the cyclic garbage
    collector has next to nothing of the index to scan. The one thing it adds
    after it is built is the memo of :meth:`scope_mask`.
    """

    doc_ids: tuple[str, ...]  # ordinal -> document id
    terms: tuple[str, ...]  # term id -> term
    posting_starts: array  # term id -> first posting; one entry more than terms
    posting_ords: array
    posting_weights: array
    doc_starts: array  # ordinal -> first entry; one entry more than documents
    doc_term_ids: array
    doc_tfs: array
    idfs: array  # term id -> idf
    doc_norms: array  # ordinal -> Euclidean norm of the document's vector
    doc_collections: tuple[str, ...]  # ordinal -> collection id
    titles: tuple[str, ...]  # ordinal -> title
    readership: array  # ordinal -> readership count
    ordinals: Mapping[str, int] = field(init=False)  # document id -> ordinal
    collection_ids: frozenset[str] = field(init=False)  # every collection present
    # collections present in a scope -> its scope_mask, filled on first use
    _scope_masks: dict[frozenset[str], bytes] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "ordinals", {d: o for o, d in enumerate(self.doc_ids)})
        if len(self.ordinals) != len(self.doc_ids):
            raise ValueError("document ids must be unique")
        object.__setattr__(self, "collection_ids", frozenset(self.doc_collections))

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self.ordinals

    def __len__(self) -> int:
        return len(self.doc_ids)

    def document(self, ordinal: int) -> tuple[array, array]:
        """A document's term ids and tf * idf weights, as new arrays."""
        start, end = self.doc_starts[ordinal], self.doc_starts[ordinal + 1]
        term_ids = self.doc_term_ids[start:end]
        return term_ids, _weights(self.idfs, term_ids, self.doc_tfs[start:end])

    def scope_mask(self, scope: Collection[str]) -> bytes | None:
        """Which documents lie in ``scope``: None when every one does.

        Otherwise one byte per ordinal, 1 for a document whose collection is
        in ``scope`` and 0 for the rest. Each distinct set of collections is
        resolved once and kept; handler threads may ask concurrently, as two
        that race build the same bytes and keep the first.
        """
        present = self.collection_ids.intersection(scope)
        if len(present) == len(self.collection_ids):
            return None
        mask = self._scope_masks.get(present)
        if mask is None:
            mask = bytes(collection in present for collection in self.doc_collections)
            mask = self._scope_masks.setdefault(present, mask)
        return mask


def _weights(idfs: array, term_ids: Iterable[int], tfs: Iterable[int]) -> array:
    """Each entry's idf * tf, the operands in the order the postings multiply them."""
    return array("d", map(mul, map(idfs.__getitem__, term_ids), tfs))


# Each field's text and integer weight, in the order its counts are summed
# into a document's tf; the order is part of every weight's bits. Integer
# weights keep the pairs lists of build_index to shared small-int objects
# rather than one float object per posting.
_FIELDS: tuple[tuple[Callable[[DocumentRecord], str], int], ...] = (
    (lambda record: record.title, 3),
    (lambda record: " ".join(record.keywords), 2),
    (lambda record: record.abstract or "", 1),
    (lambda record: record.venue or "", 1),
    (lambda record: " ".join(record.authors), 1),
)


def build_index(documents: Iterable[DocumentRecord]) -> Index:
    """Build an immutable index over ``documents`` in one pass.

    ``documents`` may be a one-shot stream such as :func:`~docrecs.corpus.read_store`:
    each record is dropped once it is counted, and only its id, collection,
    title and readership are kept. Automatic cyclic garbage collection is
    paused while it runs.
    """
    # A build allocates only acyclic objects, so every collection it would
    # trigger scans a growing heap and frees nothing.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        doc_ids: list[str] = []
        collections: list[str] = []
        names: dict[str, str] = {}  # one object per distinct collection id
        titles: list[str] = []
        readership = array("q")
        term_ids: defaultdict[str, int] = defaultdict(count().__next__)
        # Pass 1: each document's weighted term frequencies; each term's list
        # gets (ordinal, tf) for every document that contains it, interleaved.
        pairs_by_term: list[list] = []
        doc_starts = array("q", [0])
        doc_term_ids = array("i")
        doc_tfs = array("i")
        for ordinal, record in enumerate(documents):
            doc_ids.append(record.id)
            collections.append(names.setdefault(record.collection_id, record.collection_id))
            titles.append(record.title)
            readership.append(record.readership)
            counts: dict[str, int] = {}
            get = counts.get
            for text, weight in _FIELDS:
                for token in tokenize(text(record)):
                    counts[token] = get(token, 0) + weight
            tids = array("i", map(term_ids.__getitem__, counts))
            pairs_by_term.extend([] for _ in range(len(term_ids) - len(pairs_by_term)))
            for tid, tf in zip(tids, counts.values()):
                pairs_by_term[tid] += (ordinal, tf)
            doc_term_ids.extend(tids)
            doc_tfs.extend(counts.values())
            doc_starts.append(len(doc_term_ids))

        # Pass 2: the per-term lists are packed one at a time into one array in
        # term-id order, each dropped once packed, so no posting is ever held
        # twice. tf * idf is then taken over the postings in one streamed
        # pass; the documents' entries keep their integer tfs, and each norm
        # is taken over the products Index.document computes.
        doc_count = len(doc_ids)
        if doc_count == 0:
            raise ValueError("cannot index an empty corpus store")
        terms = tuple(term_ids)
        del term_ids
        dfs = [len(pairs) // 2 for pairs in pairs_by_term]
        idf_by_id = array("d", [math.log(1.0 + doc_count / df) for df in dfs])
        packed = array("i")  # (ordinal, tf) pairs, interleaved
        for term_id in range(len(pairs_by_term)):
            packed.fromlist(pairs_by_term[term_id])
            pairs_by_term[term_id] = None
        del pairs_by_term
        posting_ords = array("i", [0]) * (len(packed) // 2)  # sized exactly, then filled
        with memoryview(packed) as view:
            memoryview(posting_ords)[:] = view[0::2]
            idfs = chain.from_iterable(map(repeat, idf_by_id, dfs))  # one per posting
            posting_weights = array("d", map(mul, idfs, view[1::2]))
        del packed
        doc_norms = array("d")
        for start, end in pairwise(doc_starts):
            vector = _weights(idf_by_id, doc_term_ids[start:end], doc_tfs[start:end])
            doc_norms.append(math.sqrt(sum(map(mul, vector, vector))))

        return Index(
            doc_ids=tuple(doc_ids),
            terms=terms,
            posting_starts=array("q", accumulate(dfs, initial=0)),
            posting_ords=posting_ords,
            posting_weights=posting_weights,
            doc_starts=doc_starts,
            doc_term_ids=doc_term_ids,
            doc_tfs=doc_tfs,
            idfs=idf_by_id,
            doc_norms=doc_norms,
            doc_collections=tuple(collections),
            titles=tuple(titles),
            readership=readership,
        )
    finally:
        if was_enabled:
            gc.enable()


def more_like_this(
    index: Index,
    query_doc: str,
    k: int,
    scope: Collection[str],
    max_query_terms: int | None = DEFAULT_QUERY_TERMS,
) -> list[ScoredCandidate]:
    """Rank in-scope documents by cosine relatedness to ``query_doc``.

    The query vector is restricted to its ``max_query_terms`` strongest terms
    (ties broken by term string ascending); each candidate keeps its full
    vector. Candidates are every indexed document whose collection is in
    ``scope`` except the query document itself; zero-score candidates are
    omitted and the result is ordered by (score descending, document id
    ascending). Cosine values are clamped to [0, 1] against float round-off.

    Dot products accumulate term at a time, strongest term first, in a dict
    holding only the in-scope documents that the query's postings touch; the
    scope is read from the index's memoized :meth:`Index.scope_mask`, so a
    posting outside it costs one byte test and opens no accumulator.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    query = index.ordinals.get(query_doc)
    if query is None:
        raise KeyError(f"unknown document id: {query_doc}")
    if not scope:
        return []

    # (-weight, term, term id) sorts strongest first, ties by term string
    term_ids, weights = index.document(query)
    terms = sorted(zip(map(neg, weights), map(index.terms.__getitem__, term_ids), term_ids))
    if max_query_terms is not None:
        terms = terms[:max_query_terms]
    if not terms:
        return []
    query_norm = math.sqrt(sum(w * w for w, _, _ in terms))

    mask = index.scope_mask(scope)
    starts = index.posting_starts
    dots: dict[int, float] = {}
    get = dots.get
    for negated, _, term_id in terms:
        query_weight = -negated
        start, end = starts[term_id], starts[term_id + 1]
        postings = zip(index.posting_ords[start:end], index.posting_weights[start:end])
        # two loops: the byte test would cost an unscoped query a tenth of its time
        if mask is None:
            for ordinal, weight in postings:
                dots[ordinal] = get(ordinal, 0.0) + query_weight * weight
        else:
            for ordinal, weight in postings:
                if mask[ordinal]:
                    dots[ordinal] = get(ordinal, 0.0) + query_weight * weight
    dots.pop(query, None)

    norms, doc_ids = index.doc_norms, index.doc_ids
    scores = [dot / (query_norm * norms[o]) for o, dot in dots.items()]
    # Keep everything that clamps to at least the k-th best score: the clamp
    # can only create ties, which the id order settles.
    floor = min(1.0, heapq.nlargest(k, scores)[-1]) if len(scores) > k else 0.0
    top = sorted(
        [(-min(1.0, s), doc_ids[o]) for o, s in zip(dots, scores) if s >= floor and s > 0.0]
    )
    return [ScoredCandidate(doc_id, -negated) for negated, doc_id in top[:k]]
