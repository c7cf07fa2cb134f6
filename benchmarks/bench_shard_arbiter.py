"""Sharded engine: budget arbitration vs static equal split.

Shape claims (engine-layer acceptance): two tables of very different
sizes under one global soft bound, sharded twice each, running a
shifting hotspot YCSB-B mix.  The arbiter strictly dominates the static
``split_budget`` carve-up — lower total weighted cost units at equal
global memory — and its rebalance decisions are visible as
``budget_rebalance`` events.
"""

from repro import obs
from repro.bench import shard

from conftest import run_once, scaled


def test_shard_arbiter(benchmark, show):
    result = run_once(
        benchmark,
        shard.run,
        n_big=scaled(9000),
        n_small=scaled(500),
        txn_ops=scaled(12_000),
        observer=obs.Observer(),
    )
    show(result)
    meta = result.meta

    # --- acceptance: strict dominance at equal global memory -------------
    assert meta["arbiter_cost_units"] < meta["static_cost_units"], meta
    assert meta["cost_saving"] >= 0.05, meta

    # The win comes from undoing the static misallocation: equal split
    # leaves the big table's shards compact-heavy while the small
    # table's shards sit idle under an oversized bound.
    static_big = [
        row for row in meta["static_shards"] if row["name"].startswith("big")
    ]
    arbiter_big = [
        row for row in meta["arbiter_shards"] if row["name"].startswith("big")
    ]
    assert max(r["compact_fraction"] for r in static_big) > max(
        r["compact_fraction"] for r in arbiter_big
    ), (static_big, arbiter_big)
    # The arbiter granted the big table more bound than the equal split.
    assert sum(r["soft_bound_bytes"] for r in arbiter_big) > sum(
        r["soft_bound_bytes"] for r in static_big
    )

    # --- rebalance decisions are observable -------------------------------
    assert meta["rebalances"] > 0
    assert meta["rebalance_events"] == meta["rebalances"]
    assert meta["bytes_moved"] > 0
