"""Recommendation arms, weighted rotation, re-ranking, and set assembly.

All functions here are pure over an immutable :class:`~docrecs.index.Index`
and the :class:`PopularityTable` ranked over it; callers supply their own
random source, so concurrent calls are safe as long as each call owns its
``rng``.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, Collection, Mapping, NamedTuple, Sequence

from .corpus import AlgorithmArm, PartnerConfig
from .index import Index, ScoredCandidate, more_like_this

DEFAULT_RERANK_POOL = 50


def _utc_now() -> datetime:
    return datetime.now(timezone.utc)


class PopularityTable:
    """The documents of an index, ranked once by popularity.

    ``ranked`` holds every ordinal of ``index`` by (clicks, deliveries,
    readership) descending, then document id ascending, so a most-popular
    request only walks that order. ``clicks`` and ``deliveries`` count by
    document id; ids the index lacks are ignored. Readership is the index's,
    by ordinal.
    """

    def __init__(
        self,
        index: Index,
        clicks: Mapping[str, int] | None = None,
        deliveries: Mapping[str, int] | None = None,
    ):
        clicks, deliveries = clicks or {}, deliveries or {}
        doc_ids, readership = index.doc_ids, index.readership

        def popularity_key(ordinal: int):
            doc_id = doc_ids[ordinal]
            return (
                -clicks.get(doc_id, 0),
                -deliveries.get(doc_id, 0),
                -readership[ordinal],
                doc_id,
            )

        self.index = index
        self.ranked = array("i", sorted(range(len(doc_ids)), key=popularity_key))


class RecommendedItem(NamedTuple):
    recommendation_id: str
    rank: int
    document_id: str
    score: float
    title: str


@dataclass(frozen=True)
class RecommendationSet:
    """One delivered ranked list; ``set_id`` links deliveries to later clicks."""

    set_id: str
    partner_id: str
    query_document_id: str
    algorithm: AlgorithmArm
    created_at: datetime
    items: tuple[RecommendedItem, ...]


def recommend_most_popular(
    pop: PopularityTable,
    query_doc: str,
    k: int,
    scope: Collection[str],
) -> list[ScoredCandidate]:
    """Top-k in-scope documents by (clicks, deliveries, readership) descending.

    Full ties fall back to document id ascending. The score field carries the
    normalized rank ``1 - (rank - 1) / k`` for serialization uniformity. Walks
    the table's precomputed order, so the cost grows with how far down that
    order the k-th in-scope document sits, not with the table's size.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    doc_ids, mask = pop.index.doc_ids, pop.index.scope_mask(scope)
    query = pop.index.ordinals.get(query_doc, -1)
    top: list[str] = []
    for ordinal in pop.ranked:
        if (mask is None or mask[ordinal]) and ordinal != query:
            top.append(doc_ids[ordinal])
            if len(top) == k:
                break
    return [ScoredCandidate(d, 1.0 - i / k) for i, d in enumerate(top)]


def recommend_stereotype(
    index: Index,
    config: PartnerConfig,
    query_doc: str,
    k: int,
) -> list[ScoredCandidate]:
    """The partner's curated list, filtered and truncated.

    Keeps the listed documents that ``index`` holds in the partner's
    collections, in list order and without the query document. Scores carry
    the normalized rank as in most-popular.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ordinals = index.ordinals
    mask = index.scope_mask(config.allowed_collections)
    picked = [
        d
        for d in config.stereotype_list
        if d != query_doc and d in ordinals and (mask is None or mask[ordinals[d]])
    ]
    return [ScoredCandidate(d, 1.0 - i / k) for i, d in enumerate(picked[:k])]


def rerank_bibliometric(candidates: Sequence[ScoredCandidate], index: Index) -> list[ScoredCandidate]:
    """Re-sort the leading pool by readership; the tail keeps its positions.

    The first ``min(DEFAULT_RERANK_POOL, len(candidates))`` entries are
    ordered by (readership descending, original score descending, document
    id ascending); scores are never altered, so the output is a permutation
    of the input. Every candidate must be a document of ``index``.
    """
    ordinals, readership = index.ordinals, index.readership
    head = sorted(
        candidates[:DEFAULT_RERANK_POOL],
        key=lambda c: (-readership[ordinals[c.document_id]], -c.score, c.document_id),
    )
    return head + list(candidates[DEFAULT_RERANK_POOL:])


def _opaque_id(prefix: str, rng: random.Random) -> str:
    return f"{prefix}{rng.getrandbits(96):024x}"


def produce_recommendations(
    index: Index,
    pop: PopularityTable,
    config: PartnerConfig,
    query_doc: str,
    k: int,
    rng: random.Random,
    *,
    clock: Callable[[], datetime] = _utc_now,
) -> RecommendationSet:
    """Draw an arm from the partner's rotation, run it, and pad to exactly ``k`` items.

    ``pop`` must rank the documents of ``index``. The readership-rerank arm
    retrieves a relevance pool of ``max(k, DEFAULT_RERANK_POOL)`` content-based
    candidates, re-ranks it, and keeps the top ``k``, so relevance still
    gates readership. Shortfalls are padded with most-popular results not
    already present; as the table ranks every indexed document, the only
    case with fewer than ``k`` items is corpus exhaustion.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if query_doc not in index:
        raise KeyError(f"unknown document id: {query_doc}")

    arm = config.rotation.draw(rng)
    scope = config.allowed_collections

    if arm is AlgorithmArm.CONTENT_BASED:
        primary = more_like_this(index, query_doc, k, scope)
    elif arm is AlgorithmArm.CONTENT_BASED_READERSHIP_RERANK:
        pool = more_like_this(index, query_doc, max(k, DEFAULT_RERANK_POOL), scope)
        primary = rerank_bibliometric(pool, index)[:k]
    elif arm is AlgorithmArm.STEREOTYPE:
        primary = recommend_stereotype(index, config, query_doc, k)
    else:
        primary = recommend_most_popular(pop, query_doc, k, scope)

    chosen = list(primary[:k])
    seen = {query_doc} | {c.document_id for c in chosen}
    if len(chosen) < k:
        for candidate in recommend_most_popular(pop, query_doc, k, scope):
            if len(chosen) >= k:
                break
            if candidate.document_id in seen:
                continue
            chosen.append(candidate)
            seen.add(candidate.document_id)

    set_id = _opaque_id("set-", rng)
    ordinals, titles = index.ordinals, index.titles
    items = tuple(
        RecommendedItem(
            recommendation_id=_opaque_id("rec-", rng),
            rank=rank,
            document_id=candidate.document_id,
            score=candidate.score,
            title=titles[ordinals[candidate.document_id]],
        )
        for rank, candidate in enumerate(chosen, start=1)
    )
    return RecommendationSet(
        set_id=set_id,
        partner_id=config.partner_id,
        query_document_id=query_doc,
        algorithm=arm,
        created_at=clock(),
        items=items,
    )
