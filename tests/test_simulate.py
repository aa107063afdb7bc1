"""Frozen simulation logs: a refactor that changes no behaviour keeps these bytes.

The digests were taken once from a known-good build. Delivery lines carry
ids, arms and timestamps but no scores, so a change that keeps every ranking,
every arm draw and every recommendation id keeps both digests; a changed
tie-break, scope check or random draw does not.
"""

from __future__ import annotations

import hashlib
import json
import random

from docrecs import (
    AlgorithmArm,
    PartnerConfig,
    SimulationSpec,
    classify_requester,
    monthly_report,
    run_simulation,
    write_report_csv,
)
from docrecs.analytics import REPORT_VARIANTS

from support import build_store, make_corpus

FROZEN_DELIVERIES_SHA256 = "62fefeb2686a55c2917e725946b0daec5d0cfa59bd96b67fe843167e403bde6d"
FROZEN_CLICKS_SHA256 = "72d6b427bc8388cda5b850bd364ac9bcf281f701d08671ef2f70a1e455628d05"
# Both report variants' CSV bytes, raw first, over those logs plus the damaged,
# repeated and orphan lines that ``damage_logs`` appends.
FROZEN_REPORTS_SHA256 = "bee4b55e39d017faf8a088c0ad021bb0c64a24f3cc6bf53fbf9d6429a37a66fc"


def frozen_inputs(tmp_path):
    """300 documents over three collections plus exact duplicates of 12 of them."""
    rng = random.Random(4242)
    records = make_corpus(rng, 300, collections=("soc", "econ", "misc"))
    records += [dict(r, id=f"dup-{i:02d}") for i, r in enumerate(rng.sample(records, 12))]
    store = build_store(tmp_path, records)
    in_scope = sorted(r["id"] for r in records if r["collection_id"] != "misc")
    partner = PartnerConfig(
        partner_id="lib",
        allowed_collections=frozenset({"soc", "econ"}),
        arm_weights={arm: 1.0 for arm in AlgorithmArm},
        stereotype_list=tuple(in_scope[::25]),
        default_k=5,
    )
    spec = SimulationSpec(
        request_count=400,
        click_probability={arm: 0.05 for arm in AlgorithmArm},
        bot_fraction=0.2,
        seed=77,
        partner_id="lib",
        k=6,
    )
    return store, {"lib": partner}, spec


def test_seeded_simulation_logs_match_frozen_digests(tmp_path):
    store, partners, spec = frozen_inputs(tmp_path)
    logs = tmp_path / "logs"
    result = run_simulation(store, partners, spec, logs)
    assert (result.requests, result.deliveries) == (400, 2400)
    deliveries = hashlib.sha256((logs / "deliveries.jsonl").read_bytes()).hexdigest()
    clicks = hashlib.sha256((logs / "clicks.jsonl").read_bytes()).hexdigest()
    assert (deliveries, clicks) == (FROZEN_DELIVERIES_SHA256, FROZEN_CLICKS_SHA256)


def damage_logs(logs):
    """Append what a long-lived log collects: torn lines, repeated ids, orphan and duplicate clicks.

    A bot repeats a human's recommendation id, a human repeats a bot's one
    with an offset timestamp that falls in the next UTC month, and that id
    is clicked.
    """
    dpath, cpath = logs / "deliveries.jsonl", logs / "clicks.jsonl"
    events = [json.loads(line) for line in dpath.read_bytes().splitlines()]
    human = next(e for e in events if classify_requester(e["user_agent"]) == "human")
    bot = next(e for e in events if classify_requester(e["user_agent"]) == "bot")
    clicks = cpath.read_bytes().splitlines(keepends=True)
    deliveries = [
        dict(human, user_agent=bot["user_agent"]),
        dict(bot, user_agent=human["user_agent"], delivered_at="2016-09-30T23:30:00-01:00"),
    ]
    with dpath.open("ab") as fh:
        fh.write(b'{"recommendation_id": "torn\n')
        fh.writelines(json.dumps(e).encode() + b"\n" for e in deliveries)
        fh.write(json.dumps(dict(human, algorithm="no_such_arm")).encode() + b"\n")
    more_clicks = [
        {"recommendation_id": bot["recommendation_id"], "clicked_at": "2016-10-02T00:00:00Z"},
        {"recommendation_id": "ghost-1", "clicked_at": "2016-09-02T00:00:00Z"},
        {"recommendation_id": "ghost-2", "clicked_at": "2016-09-02T00:00:00Z"},
        {"recommendation_id": "ghost-1", "clicked_at": "2016-09-03T00:00:00Z"},
    ]
    with cpath.open("ab") as fh:
        fh.writelines(clicks[:3])
        fh.writelines(json.dumps(c).encode() + b"\n" for c in more_clicks)
        fh.write(b"not json\n")
    return dpath, cpath


def test_reports_over_the_seeded_logs_match_frozen_digest(tmp_path):
    store, partners, spec = frozen_inputs(tmp_path)
    logs = tmp_path / "logs"
    run_simulation(store, partners, spec, logs)
    dpath, cpath = damage_logs(logs)
    digest = hashlib.sha256()
    for variant in REPORT_VARIANTS:
        issues = []
        out = tmp_path / f"{variant}.csv"
        write_report_csv(monthly_report(dpath, cpath, variant, issues=issues), out)
        digest.update(out.read_bytes())
        (found,) = issues
        assert [n for n, _ in found.delivery_rejects] == [2401, 2404]
        assert [n for n, _ in found.click_rejects] == [len(cpath.read_bytes().splitlines())]
        assert found.orphan_click_ids == ("ghost-1", "ghost-2")
    assert digest.hexdigest() == FROZEN_REPORTS_SHA256
