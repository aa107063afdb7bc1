"""Frozen simulation logs: a refactor that changes no behaviour keeps these bytes.

The digests were taken once from a known-good build. Delivery lines carry
ids, arms and timestamps but no scores, so a change that keeps every ranking,
every arm draw and every recommendation id keeps both digests; a changed
tie-break, scope check or random draw does not.
"""

from __future__ import annotations

import hashlib
import random

from docrecs import AlgorithmArm, PartnerConfig, SimulationSpec, run_simulation

from support import build_store, make_corpus

FROZEN_DELIVERIES_SHA256 = "62fefeb2686a55c2917e725946b0daec5d0cfa59bd96b67fe843167e403bde6d"
FROZEN_CLICKS_SHA256 = "72d6b427bc8388cda5b850bd364ac9bcf281f701d08671ef2f70a1e455628d05"


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
