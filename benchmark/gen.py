"""Seeded inputs for every benchmark workload.

Everything here is a pure function of the workload and the seed: the corpus
records, the partner file, the generated delivery/click history and the
request plan of the timed phase. The program under test receives only the
files written from these values; the checkers in ``oracle.py`` recompute the
expected outputs from the same values.

The corpus comes from the test suite's generator (``tests/support.py``
``make_corpus``, the criterion-06 corpus) at the workload's size, so the
repository's root and its ``tests`` directory must be on ``sys.path``.
The history's traffic rates are those of the repository's simulation spec
(README "Simulation spec", acceptance criterion 10): a click probability of
0.0013 per item delivered to a human and a bot share of 0.1.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

from support import make_corpus

ARMS = ("content_based", "content_based_readership_rerank", "stereotype", "most_popular")

HUMAN_AGENTS = (
    "Mozilla/5.0 (X11; Linux x86_64; rv:102.0) Gecko/20100101 Firefox/102.0",
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 Chrome/108.0 Safari/537.36",
    "Mozilla/5.0 (Macintosh; Intel Mac OS X 13_1) AppleWebKit/605.1.15 Version/16.2 Safari/605.1.15",
)
CRAWLER_AGENTS = (
    "Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)",
    "Mozilla/5.0 (compatible; YandexCrawler/3.0)",
    "Baiduspider+(+http://www.baidu.com/search/spider.htm)",
    "Mozilla/5.0 (compatible; Yahoo! Slurp)",
)

K = 5  # items per recommendation set, on every workload
VOCAB_SIZE = 20_000
BOT_FRACTION = 0.1  # the simulation spec's bot_fraction
CLICK_PROBABILITY = 0.0013  # the simulation spec's click_probability, per human-delivered item
ROUND_REQUESTS = 20
CRAWLERS = 2  # per round: BOT_FRACTION of the requests
MIN_REQUESTS = 1_000  # the timed phase runs at least this many related requests, so p99 has 10 beyond it


@dataclass(frozen=True)
class Workload:
    """Shape of one workload's inputs; sizes are documented in README.md."""

    name: str
    n_docs: int
    with_abstract: bool
    collections: tuple[str, ...]
    partners: tuple[dict, ...]
    fmt: str
    # A round is ROUND_REQUESTS related requests, CRAWLERS of them with a
    # crawler user agent, then, timed apart, `fresh_clicks` clicks on items
    # the round delivered to humans, `history_clicks` clicks on generated
    # history ids and `bad_posts` click POSTs whose Content-Length is not a
    # number.
    fresh_clicks: int = 2
    history_clicks: int = 0
    bad_posts: int = 0
    history_sets: int = 0  # delivered sets in the generated history (0: fresh logs)


def _all_arms_partner(stereotype: list[str]) -> dict:
    return {
        "partner_id": "sowiport",
        "allowed_collections": ["main"],
        "arm_weights": {arm: 1.0 for arm in ARMS},
        "stereotype_list": stereotype,
        "default_k": K,
    }


WORKLOADS = {
    "all_arms_xml": Workload(
        name="all_arms_xml",
        n_docs=10_000,
        with_abstract=False,
        collections=("main",),
        partners=({"stereotype": 10},),
        fmt="xml",
    ),
    "content_json_scoped": Workload(
        name="content_json_scoped",
        n_docs=10_000,
        with_abstract=True,
        collections=("soc", "econ"),
        partners=(
            {"partner_id": "gesis", "allowed_collections": ["econ", "soc"]},
            {"partner_id": "econbiz", "allowed_collections": ["econ"]},
        ),
        fmt="json",
    ),
    "restart_report": Workload(
        name="restart_report",
        n_docs=10_000,
        with_abstract=False,
        collections=("main",),
        partners=({"stereotype": 10},),
        fmt="xml",
        fresh_clicks=1,
        history_clicks=1,
        bad_posts=1,
        history_sets=6_000,
    ),
}


def _rng(workload: Workload, seed: int, purpose: str) -> random.Random:
    return random.Random(f"{workload.name}:{seed}:{purpose}")


@dataclass
class Inputs:
    """One workload's generated inputs for one seed."""

    workload: Workload
    seed: int
    records: list[dict]
    partners: list[dict]
    history: "History | None"

    def scope_ids(self, partner: dict) -> list[str]:
        allowed = set(partner["allowed_collections"])
        return [r["id"] for r in self.records if r["collection_id"] in allowed]


def make_inputs(workload: Workload, seed: int) -> Inputs:
    # restart_report restarts all_arms_xml's corpus: same records for the same seed
    corpus_key = WORKLOADS["all_arms_xml"] if workload.name == "restart_report" else workload
    records = make_corpus(
        _rng(corpus_key, seed, "corpus"),
        workload.n_docs,
        collections=workload.collections,
        with_abstract=workload.with_abstract,
        vocab_size=VOCAB_SIZE,
    )
    partners = []
    prng = _rng(workload, seed, "partners")
    for spec in workload.partners:
        if "stereotype" in spec:
            stereotype = sorted(prng.sample([r["id"] for r in records], spec["stereotype"]))
            partners.append(_all_arms_partner(stereotype))
        else:
            partners.append(
                {
                    "partner_id": spec["partner_id"],
                    "allowed_collections": spec["allowed_collections"],
                    "arm_weights": {"content_based": 1.0, "content_based_readership_rerank": 1.0},
                    "stereotype_list": [],
                    "default_k": K,
                }
            )
    history = None
    if workload.history_sets:
        history = make_history(_rng(workload, seed, "history"), workload, records, partners[0])
    return Inputs(workload, seed, records, partners, history)


def write_corpus(records: list[dict], path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def write_partners(partners: list[dict], path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for partner in partners:
            fh.write(json.dumps(partner) + "\n")


# --- generated delivery/click history (restart_report) ---------------------

HISTORY_MONTHS = ((2016, 9), (2016, 10), (2016, 11))


@dataclass
class History:
    """A delivery/click history as the program's logs would hold it.

    ``deliveries`` and ``clicks`` are the well-formed events; the malformed
    lines are kept apart so the writer can interleave them into the files.
    """

    deliveries: list[dict]
    clicks: list[dict]
    malformed_delivery_lines: list[str]
    malformed_click_lines: list[str]
    human_rec_ids: list[str]  # delivered to humans: the timed phase clicks these too


def _rfc3339(ts: datetime) -> str:
    return ts.isoformat().replace("+00:00", "Z")


DUPLICATE_CLICKS = 3  # clicks sent twice, for the bot_filtered variant's dedup
ORPHAN_CLICKS = 3  # clicks on ids never delivered, which the report drops


def make_history(
    rng: random.Random, workload: Workload, records: list[dict], partner: dict
) -> History:
    """Sets of k items over three calendar months. Each set goes to a bot
    (a crawler or an empty user agent) with probability BOT_FRACTION; each
    item delivered to a human is clicked with probability CLICK_PROBABILITY.
    A few duplicate and orphan clicks and malformed lines in each log cover
    the report's edge cases; their counts are fixed, not rates."""
    doc_ids = [r["id"] for r in records]
    bot_agents = CRAWLER_AGENTS + ("",)
    deliveries: list[dict] = []
    clicks: list[dict] = []
    human_rec_ids: list[str] = []
    start = datetime(*HISTORY_MONTHS[0], 1, tzinfo=timezone.utc)
    end = datetime(2016, 12, 1, tzinfo=timezone.utc)
    span = (end - start).total_seconds()
    step = span / workload.history_sets
    for n in range(workload.history_sets):
        at = start + timedelta(seconds=int(n * step + rng.random() * step * 0.5))
        is_bot = rng.random() < BOT_FRACTION
        agent = rng.choice(bot_agents) if is_bot else rng.choice(HUMAN_AGENTS)
        algorithm = rng.choice(ARMS)
        set_id = f"set-h{n:07d}"
        for rank, doc in enumerate(rng.sample(doc_ids, K), start=1):
            rec_id = f"rec-h{n:07d}-{rank}"
            deliveries.append(
                {
                    "recommendation_id": rec_id,
                    "set_id": set_id,
                    "partner_id": partner["partner_id"],
                    "document_id": doc,
                    "algorithm": algorithm,
                    "delivered_at": _rfc3339(at),
                    "user_agent": agent,
                }
            )
            if is_bot:
                continue  # crawlers do not execute the click logging
            human_rec_ids.append(rec_id)
            if rng.random() < CLICK_PROBABILITY:
                clicked_at = at + timedelta(seconds=rng.randint(5, 600))
                clicks.append({"recommendation_id": rec_id, "clicked_at": _rfc3339(clicked_at)})
    for click in clicks[:DUPLICATE_CLICKS]:
        again = datetime.fromisoformat(click["clicked_at"].replace("Z", "+00:00"))
        again += timedelta(seconds=rng.randint(1, 30))
        clicks.append({"recommendation_id": click["recommendation_id"], "clicked_at": _rfc3339(again)})
    for n in range(ORPHAN_CLICKS):
        at = start + timedelta(seconds=rng.random() * span)
        clicks.append({"recommendation_id": f"rec-orphan-{n:05d}", "clicked_at": _rfc3339(at)})
    clicks.sort(key=lambda c: c["clicked_at"])
    malformed_deliveries = [
        '{"recommendation_id": "rec-torn", "set_id": ',
        '{"recommendation_id": "rec-nokeys"}',
        "not json at all",
    ]
    malformed_clicks = ['{"recommendation_id": "rec-h0000000-1", "clicked_at": "yesterday"}', "{"]
    return History(deliveries, clicks, malformed_deliveries, malformed_clicks, human_rec_ids)


def write_history(history: History, logs_dir: Path) -> None:
    """Write the history as deliveries.jsonl and clicks.jsonl, malformed lines spread in."""
    logs_dir.mkdir(parents=True, exist_ok=True)
    for name, events, bad in (
        ("deliveries.jsonl", history.deliveries, history.malformed_delivery_lines),
        ("clicks.jsonl", history.clicks, history.malformed_click_lines),
    ):
        lines = [json.dumps(e) for e in events]
        for i, line in enumerate(bad):
            lines.insert((i + 1) * len(lines) // (len(bad) + 1), line)
        (logs_dir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


# --- timed-phase request plan ----------------------------------------------


@dataclass(frozen=True)
class PlannedRequest:
    partner_id: str
    doc_id: str
    user_agent: str


class RequestPlan:
    """Rounds of related requests with a fixed make-up, drawn from the seed.

    Every round has the same number of requests, crawler agents and clicks,
    so the share of each operation kind is the same in every run however many
    rounds fit in the timed phase.
    """

    def __init__(self, inputs: Inputs, purpose: str = "traffic"):
        self.inputs = inputs
        self.rng = _rng(inputs.workload, inputs.seed, purpose)
        self.scopes = {p["partner_id"]: inputs.scope_ids(p) for p in inputs.partners}
        self.partner_ids = [p["partner_id"] for p in inputs.partners]

    def round(self) -> list[PlannedRequest]:
        w = self.inputs.workload
        crawler_slots = set(self.rng.sample(range(ROUND_REQUESTS), CRAWLERS))
        requests = []
        for i in range(ROUND_REQUESTS):
            partner_id = self.partner_ids[i % len(self.partner_ids)]
            doc_id = self.rng.choice(self.scopes[partner_id])
            agents = CRAWLER_AGENTS if i in crawler_slots else HUMAN_AGENTS
            requests.append(PlannedRequest(partner_id, doc_id, self.rng.choice(agents)))
        return requests

    def pick(self, population: list, n: int) -> list:
        return self.rng.sample(population, n)
