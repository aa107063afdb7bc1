"""Expected outputs computed apart from the program.

Nothing here imports ``docrecs``: relatedness is a brute-force TF-IDF cosine
over the generated records, popularity is counted from the generated
history, and the CTR report is tallied from the generated history plus the
benchmark client's own record of what it was served and what it clicked.
The definitions follow the README of the repository (top-25 query terms,
``idf = ln(1 + N / df)``, field weights title 3, keywords 2, abstract, venue
and authors 1, cosine clamped to 1, ties by id).
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

FIELD_WEIGHTS = (("title", 3.0), ("keywords", 2.0), ("abstract", 1.0), ("venue", 1.0), ("authors", 1.0))
QUERY_TERMS = 25
RERANK_POOL = 50
BOT_MARKERS = ("bot", "crawler", "spider", "slurp")
TIE_EPS = 1e-9

_TOKEN = re.compile(r"[^\W_]+")


def _tokens(value) -> list[str]:
    if value is None:
        return []
    text = " ".join(value) if isinstance(value, list) else str(value)
    return [t for t in _TOKEN.findall(text.lower()) if len(t) >= 2]


class BruteForce:
    """Exhaustive TF-IDF cosine over raw record dicts."""

    def __init__(self, records: list[dict]):
        self.tf: dict[str, dict[str, float]] = {}
        self.collection = {}
        self.readership = {}
        df: Counter[str] = Counter()
        for record in records:
            counts: dict[str, float] = {}
            for field_name, weight in FIELD_WEIGHTS:
                for token in _tokens(record.get(field_name)):
                    counts[token] = counts.get(token, 0.0) + weight
            self.tf[record["id"]] = counts
            df.update(counts.keys())
            self.collection[record["id"]] = record.get("collection_id", "")
            self.readership[record["id"]] = record.get("readership", 0)
        n = len(records)
        self.idf = {term: math.log(1.0 + n / count) for term, count in df.items()}
        self.norm = {
            doc: math.sqrt(sum((w * self.idf[t]) ** 2 for t, w in counts.items()))
            for doc, counts in self.tf.items()
        }

    def ranking(self, query: str, scope: set[str]) -> list[tuple[str, float]]:
        """Every in-scope document with a positive cosine, best first."""
        vector = {t: w * self.idf[t] for t, w in self.tf[query].items()}
        terms = sorted(vector.items(), key=lambda item: (-item[1], item[0]))[:QUERY_TERMS]
        if not terms:
            return []
        qnorm = math.sqrt(sum(w * w for _, w in terms))
        factors = [(t, w * self.idf[t]) for t, w in terms]
        scored = []
        for doc, counts in self.tf.items():
            if doc == query or self.collection[doc] not in scope:
                continue
            dot = 0.0
            for term, factor in factors:
                value = counts.get(term)
                if value:
                    dot += factor * value
            if dot > 0.0:
                scored.append((doc, min(1.0, dot / (qnorm * self.norm[doc]))))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored

    def rerank(self, pool: list[tuple[str, float]]) -> list[tuple[str, float]]:
        return sorted(pool, key=lambda pair: (-self.readership[pair[0]], -pair[1], pair[0]))


def same_up_to_ties(got: list[tuple[str, float]], want: list[tuple[str, float]], scores: dict) -> bool:
    """``got`` lists the ids of ``want`` in order, except that ids whose
    brute-force scores differ by less than TIE_EPS may trade places (also
    with a tied candidate just beyond ``want``)."""
    if len(got) != len(want):
        return False
    for (doc, _), (_, want_score) in zip(got, want):
        score = scores.get(doc)
        if score is None or abs(score - want_score) >= TIE_EPS:
            return False
    return True


def most_popular_order(records: list[dict], history) -> list[str]:
    """Documents by (deduplicated clicks, deliveries, readership) descending, then id."""
    clicks: Counter[str] = Counter()
    deliveries: Counter[str] = Counter()
    if history is not None:
        doc_of = {d["recommendation_id"]: d["document_id"] for d in history.deliveries}
        deliveries.update(d["document_id"] for d in history.deliveries)
        clicked = {c["recommendation_id"] for c in history.clicks if c["recommendation_id"] in doc_of}
        clicks.update(doc_of[r] for r in clicked)
    return [
        r["id"]
        for r in sorted(
            records,
            key=lambda r: (-clicks[r["id"]], -deliveries[r["id"]], -r.get("readership", 0), r["id"]),
        )
    ]


def render4(score: float) -> str:
    return f"{score:.4f}"


def score_matches(rendered: str, exact: float) -> bool:
    return abs(float(rendered) - exact) <= 0.00005 + TIE_EPS


# --- CTR report tally ------------------------------------------------------


def is_bot(user_agent: str) -> bool:
    return not user_agent or any(marker in user_agent.lower() for marker in BOT_MARKERS)


def ctr_text(deliveries: int, clicks: int) -> str:
    """Percent with two decimals, halves rounded away from zero, by integer arithmetic."""
    if deliveries == 0:
        return "0.00%"
    hundredths, rest = divmod(clicks * 10_000, deliveries)
    if 2 * rest >= deliveries:
        hundredths += 1
    return f"{hundredths // 100}.{hundredths % 100:02d}%"


@dataclass(frozen=True)
class Delivery:
    recommendation_id: str
    algorithm: str
    user_agent: str
    month: str  # "YYYY-MM", or "live" for deliveries the timed phase produced


def tally(deliveries: list[Delivery], clicked_ids: list[str], variant: str) -> dict:
    """{(period, algorithm): (deliveries, clicks)} as the report should count them.

    Clicks are the recommendation ids of accepted click events, one entry per
    event. Orphan clicks are dropped; ``bot_filtered`` drops bot deliveries
    and their clicks and counts a recommendation's clicks once.
    """
    if variant == "bot_filtered":
        deliveries = [d for d in deliveries if not is_bot(d.user_agent)]
    by_id = {d.recommendation_id: d for d in deliveries}
    clicked = [r for r in clicked_ids if r in by_id]
    if variant == "bot_filtered":
        clicked = list(dict.fromkeys(clicked))
    counts: Counter = Counter()
    for d in deliveries:
        for period in (d.month, "overall"):
            counts[(period, "all", "d")] += 1
            counts[(period, d.algorithm, "d")] += 1
    for r in clicked:
        d = by_id[r]
        for period in (d.month, "overall"):
            counts[(period, "all", "c")] += 1
            counts[(period, d.algorithm, "c")] += 1
    out = {}
    for (period, algorithm, kind), n in counts.items():
        if kind == "d":
            out[(period, algorithm)] = (n, counts.get((period, algorithm, "c"), 0))
    return out


def expected_rows(deliveries: list[Delivery], clicked_ids: list[str], variant: str) -> list[tuple]:
    """Report rows for the periods the checker can know: every generated
    history month and ``overall``; live months are left out."""
    counts = tally(deliveries, clicked_ids, variant)
    rows = []
    periods = sorted({p for p, _ in counts if p not in ("live", "overall")}) + ["overall"]
    for period in periods:
        algorithms = sorted(a for p, a in counts if p == period and a != "all")
        for algorithm in ["all"] + algorithms:
            d, c = counts[(period, algorithm)]
            rows.append((period, variant, algorithm, str(d), str(c), ctr_text(d, c)))
    return rows


def history_deliveries(history) -> list[Delivery]:
    return [
        Delivery(d["recommendation_id"], d["algorithm"], d["user_agent"], d["delivered_at"][:7])
        for d in history.deliveries
    ]


def history_click_ids(history) -> list[str]:
    return [c["recommendation_id"] for c in history.clicks]

