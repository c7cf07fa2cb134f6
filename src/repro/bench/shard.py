"""Budget arbitration vs static equal split (sharded engine layer).

Two tables of very different sizes share one global soft memory bound
under a skewed, shifting YCSB-B-style mix (95% reads / 5% inserts,
hotspot key distribution).  The static arm carves the bound once at
index creation with :meth:`Database.split_budget` — the paper's
single-index configuration applied naively to a multi-index database.
The arbiter arm enables :class:`~repro.engine.arbiter.BudgetArbiter`,
which periodically reapportions the same global bound by occupancy and
pressure state.

The global bound is sufficient *in aggregate* (by default the combined
standard-leaf footprint), but the equal split starves the big, hot
table (driving many of its leaves compact, so the dominant query
stream pays blind-trie probes and key loads) while the small table
hoards slack it never uses.  The arbiter moves that slack to the
occupied shards, so at identical global memory the total weighted cost
units of the same operation stream drop.
Reported per arm: per-phase cost units, per-shard compact-leaf fraction
and pressure state, and the arbiter's rebalance decisions (also written
as a ``budget_rebalance`` event log when ``events_dir`` is given).
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.bench.harness import (
    ExperimentResult,
    estimate_stx_bytes_per_key,
    watch,
)
from repro.db.database import Database
from repro.table.table import RowSchema

SCHEMA_BIG = RowSchema("big", ("k", "v"), (8, 8))
SCHEMA_SMALL = RowSchema("small", ("k", "v"), (8, 8))


def _make_ops(
    n_big: int, n_small: int, txn_ops: int, seed: int
) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]], List[Tuple]]:
    """Deterministic load rows and transaction stream, shared by both
    arms.  Ops are ``(phase, table, "get"|"insert", key)``; the skew
    shifts between the two transaction phases."""
    rng = random.Random(seed)

    def fresh_rows(n: int, tag: int) -> List[Tuple[int, int]]:
        values = set()
        while len(values) < n:
            values.add(rng.getrandbits(46) * 4 + tag)
        return [(v, v & 0xFFFF) for v in values]

    big_rows = fresh_rows(n_big, 0)
    small_rows = fresh_rows(n_small, 1)
    keys = {"big": [r[0] for r in big_rows], "small": [r[0] for r in small_rows]}
    next_fresh = [1]

    def pick_key(table: str) -> int:
        pool = keys[table]
        if rng.random() < 0.8:  # hotspot: 80% of reads hit 20% of keys
            return pool[rng.randrange(max(1, len(pool) // 5))]
        return pool[rng.randrange(len(pool))]

    ops: List[Tuple] = []
    for phase, big_share in ((1, 0.85), (2, 0.45)):
        for _ in range(txn_ops // 2):
            table = "big" if rng.random() < big_share else "small"
            if rng.random() < 0.95:
                ops.append((phase, table, "get", pick_key(table)))
            else:
                value = next_fresh[0] * 4 + 2  # disjoint from load keys
                next_fresh[0] += 1
                keys[table].append(value)
                ops.append((phase, table, "insert", value))
    return big_rows, small_rows, ops


def _shard_rows(table) -> List[Dict[str, object]]:
    """Per-shard occupancy/bound/compact-fraction snapshot."""
    index = table.indexes["by_k"].index
    if hasattr(index, "shard_report"):
        return index.shard_report()
    compact = index.allocator.bytes_in("leaf.compact")
    return [{
        "name": table.schema.name,
        "items": len(index),
        "index_bytes": index.index_bytes,
        "soft_bound_bytes": index.controller.budget.soft_bound_bytes,
        "compact_fraction": compact / max(1, index.index_bytes),
        "state": index.pressure_state.value,
    }]


def _run_arm(
    use_arbiter: bool,
    total_budget: int,
    big_rows,
    small_rows,
    ops,
    shards: int,
    interval_ops: int,
    observer: Optional[obs.Observer],
) -> Dict[str, object]:
    db = Database()
    watch(observer, db.cost)
    start = observer.seq if observer is not None else 0
    big = db.create_table(SCHEMA_BIG)
    small = db.create_table(SCHEMA_SMALL)
    per_index = Database.split_budget(total_budget, [1.0, 1.0])
    big.create_index("by_k", ("k",), kind="elastic",
                     size_bound_bytes=per_index[0], shards=shards)
    small.create_index("by_k", ("k",), kind="elastic",
                       size_bound_bytes=per_index[1], shards=shards)
    if use_arbiter:
        db.enable_budget_arbiter(total_budget, interval_ops=interval_ops)

    tables = {"big": big, "small": small}
    phase_costs: Dict[str, float] = {}
    with db.cost.measure() as delta:
        for i in range(0, len(big_rows), 1024):
            big.insert_batch(big_rows[i:i + 1024])
        for i in range(0, len(small_rows), 1024):
            small.insert_batch(small_rows[i:i + 1024])
    phase_costs["load"] = delta.weighted_cost()
    for phase in (1, 2):
        with db.cost.measure() as delta:
            for _, table, op, key in (o for o in ops if o[0] == phase):
                if op == "get":
                    tables[table].get("by_k", (key,))
                else:
                    tables[table].insert((key, key & 0xFFFF))
        phase_costs[f"txn{phase}"] = delta.weighted_cost()
    rebalance_log = [] if observer is None else [
        event.as_dict() for event in observer.since(start)
        if event.kind == "budget_rebalance"
    ]

    return {
        "phase_costs": phase_costs,
        "total_cost": sum(phase_costs.values()),
        "shards": _shard_rows(big) + _shard_rows(small),
        "rebalances": db.arbiter.stats.rebalances if use_arbiter else 0,
        "bytes_moved": db.arbiter.stats.bytes_moved if use_arbiter else 0,
        "rebalance_log": rebalance_log,
    }


def run(
    n_big: int = 9000,
    n_small: int = 500,
    txn_ops: int = 12_000,
    shards: int = 2,
    budget_fraction: float = 1.0,
    interval_ops: int = 1024,
    seed: int = 17,
    events_dir: Optional[str] = None,
    observer: Optional[obs.Observer] = None,
) -> ExperimentResult:
    """Arbitrated vs statically-split global budget, same op stream.

    ``observer`` watches both arms' databases; the arbiter arm's
    ``budget_rebalance`` events are its rebalance log.  With
    ``events_dir`` set and no observer the run makes its own.  With
    neither, no event is recorded (``rebalance_events`` is 0), but the
    arbiter's own ``stats`` counters still are.
    """
    if observer is None and events_dir is not None:
        observer = obs.Observer()
    big_rows, small_rows, ops = _make_ops(n_big, n_small, txn_ops, seed)
    total_budget = int(
        budget_fraction * (n_big + n_small) * estimate_stx_bytes_per_key()
    )
    result = ExperimentResult(
        "shard_arbiter",
        f"two tables ({n_big} + {n_small} rows, {shards} shards each) under "
        f"one global bound of {total_budget} bytes; shifting YCSB-B mix of "
        f"{txn_ops} ops: budget arbitration vs static equal split",
        x_label="phase (0=load, 1=txn1, 2=txn2)",
    )
    result.xs = [0, 1, 2]

    arms: Dict[str, Dict[str, object]] = {}
    for label, use_arbiter in (("static", False), ("arbiter", True)):
        arms[label] = _run_arm(
            use_arbiter, total_budget, big_rows, small_rows, ops,
            shards, interval_ops, observer,
        )
    for label, arm in arms.items():
        costs = arm["phase_costs"]
        result.add_series(
            f"{label} cost units", [costs["load"], costs["txn1"], costs["txn2"]]
        )
        for row in arm["shards"]:
            result.add_row(
                f"{label} {row['name']}",
                f"{row['index_bytes']}B of {row['soft_bound_bytes']}B bound, "
                f"compact {row['compact_fraction'] * 100:.0f}%, "
                f"{row['state']}",
            )

    static_cost = arms["static"]["total_cost"]
    arbiter_cost = arms["arbiter"]["total_cost"]
    saving = 1.0 - arbiter_cost / static_cost
    result.add_row(
        "total cost units",
        f"static {static_cost:.0f} vs arbiter {arbiter_cost:.0f} "
        f"({saving * 100:+.1f}% saving at equal global memory)",
    )
    result.add_row(
        "arbiter activity",
        f"{arms['arbiter']['rebalances']} rebalances moved "
        f"{arms['arbiter']['bytes_moved']} bytes of bound",
    )
    if events_dir is not None:
        os.makedirs(events_dir, exist_ok=True)
        path = os.path.join(events_dir, "shard_arbiter_rebalances.jsonl")
        with open(path, "w") as fh:
            for record in arms["arbiter"]["rebalance_log"]:
                fh.write(json.dumps(record) + "\n")
        result.add_row("rebalance event log", path)
    result.meta = {  # type: ignore[attr-defined]
        "static_cost_units": static_cost,
        "arbiter_cost_units": arbiter_cost,
        "cost_saving": saving,
        "rebalances": arms["arbiter"]["rebalances"],
        "rebalance_events": len(arms["arbiter"]["rebalance_log"]),
        "bytes_moved": arms["arbiter"]["bytes_moved"],
        "static_shards": arms["static"]["shards"],
        "arbiter_shards": arms["arbiter"]["shards"],
    }
    return result
