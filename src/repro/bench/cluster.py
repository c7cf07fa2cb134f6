"""Divergent replica cluster vs. uniform replicas at equal total memory.

The cluster tier's claim (ROADMAP: "unlocking the power of diversity")
is that N *differently*-configured replicas of one index beat N
identical replicas holding the same total memory, because each query
class gets routed to the replica whose configuration serves it best:

* **divergent** — three replicas under one cluster bound ``B``: the
  elastic 3-kind lattice at weight 0.55 (fat, scan- and cold-read
  friendly), a cache-heavy elastic tree at 0.30 (hot-row cache absorbs
  the skewed point reads), and a compact-heavy tree at 0.15;
* **uniform** — three identical elastic replicas, ``B/3`` each (what a
  replication-for-availability deployment does by default).

Both arms run the same mixed workload — skewed point reads with a
contiguous hot key range, range scans, batched reads, inserts fanned
out to all replicas — and must return identical answers; the
reproduction gate is a strictly lower weighted cost for the divergent
arm.  Two further arms pin the tier's contracts:

* **replicas=1 passthrough** — ``replicas=ReplicaConfig(replicas=1)``
  must cost byte-identically to the same index created with no
  ``replicas`` argument at all;
* **failover determinism** — the divergent cluster with a scripted
  :class:`~repro.engine.FaultPlan` outage of the hot-serving replica,
  run twice: identical results and costs both times, and recovery
  re-admits the replica from cached scores (no rebuild, no extra
  charge).
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.bench.harness import ExperimentResult, watch
from repro.cache import CacheConfig
from repro.cluster import ReplicaConfig, ReplicaProfile
from repro.db.database import Database
from repro.engine import FaultPlan
from repro.table.table import RowSchema

#: Divergent profile weights (shares of the cluster bound).
DIVERGENT_WEIGHTS = (0.55, 0.30, 0.15)

#: Heat-histogram bucket holding the workload's hot range (of 64).
_HOT_BUCKET = 10
_HEAT_BUCKETS = 64


def _divergent_profiles(cache_budget: int) -> Tuple[ReplicaProfile, ...]:
    lattice, cache_w, compact = DIVERGENT_WEIGHTS
    return (
        ReplicaProfile(
            name="lattice", kind="elastic", weight=lattice,
            leaf_kinds=("standard", "compact", "learned"),
        ),
        ReplicaProfile(
            name="cache", kind="elastic", weight=cache_w,
            cache=CacheConfig(
                budget_bytes=cache_budget, sketch_width=1024,
                adaptive=False,
            ),
        ),
        ReplicaProfile(
            name="compact", kind="elastic", weight=compact,
            index_kwargs=(
                ("shrink_trigger_fraction", 0.6),
                ("expand_trigger_fraction", 0.45),
            ),
        ),
    )


def _make_workload(
    n_keys: int, ops: int, seed: int
) -> Tuple[List[int], List[Tuple]]:
    """Deterministic load values + mixed op stream.

    Hot point reads target a contiguous key range (one heat-histogram
    bucket: 16-bit prefixes ``[10240, 11264)``), so the router's hot
    classification has something to find.
    """
    rng = random.Random(seed)
    hot_lo = _HOT_BUCKET * (65536 // _HEAT_BUCKETS)
    hot_hi = hot_lo + 65536 // _HEAT_BUCKETS

    def hot_value() -> int:
        prefix = rng.randrange(hot_lo, hot_hi)
        return (prefix << 48) | rng.getrandbits(48)

    # A small hot working set inside one contiguous bucket: skewed
    # point traffic the cache replica's budget can actually cover.
    hot = sorted({hot_value() for _ in range(max(64, n_keys // 20))})
    cold = [rng.getrandbits(64) for _ in range(n_keys - len(hot))]
    values = sorted(set(cold) | set(hot))
    ops_list: List[Tuple] = []
    fresh = 1
    for _ in range(ops):
        roll = rng.random()
        if roll < 0.50:  # skewed point read
            if rng.random() < 0.8:
                ops_list.append(("point", rng.choice(hot)))
            else:
                ops_list.append(("point", rng.choice(cold)))
        elif roll < 0.65:  # batched point reads, same skew
            ops_list.append((
                "batch",
                [rng.choice(hot) if rng.random() < 0.8 else rng.choice(cold)
                 for _ in range(8)],
            ))
        elif roll < 0.85:  # range scan
            ops_list.append(("scan", rng.choice(values), 32))
        else:  # insert
            ops_list.append(("insert", (1 << 16) + fresh))
            fresh += 1
    return values, ops_list


def _run_arm(
    values: List[int],
    ops_list: List[Tuple],
    bound: int,
    replicas: Optional[ReplicaConfig],
    observer: Optional[obs.Observer],
    chunk: int = 512,
) -> Dict[str, object]:
    """Load, index, and run the op stream on one fresh database,
    watched by ``observer`` if given."""
    db = Database()
    watch(observer, db.cost)
    table = db.create_table(RowSchema("bench", ("k", "v"), (8, 8)))
    table.create_index(
        "by_k", ("k",), kind="elastic", size_bound_bytes=bound,
        replicas=replicas,
    )
    for start in range(0, len(values), chunk):
        table.insert_batch([
            (v, v & 0xFFFF) for v in values[start:start + chunk]
        ])
    results: List = []
    with db.cost.measure() as delta:
        for op in ops_list:
            if op[0] == "point":
                results.append(table.get("by_k", (op[1],)))
            elif op[0] == "batch":
                results.append(
                    table.get_batch("by_k", [(v,) for v in op[1]])
                )
            elif op[0] == "scan":
                results.append(
                    table.scan("by_k", (op[1],), count=op[2],
                               include_rows=False)
                )
            else:
                results.append(table.insert((op[1], op[1] & 0xFFFF)))
    index = table.indexes["by_k"].index
    return {
        "results": results,
        "cost_units": delta.weighted_cost(),
        "index_bytes": index.index_bytes,
        "index": index,
        "db": db,
    }


def _failover_config(
    bound: int, cache_budget: int, after_beats: int
) -> ReplicaConfig:
    """Divergent config plus a scripted mid-workload outage of the
    cache replica (``after_beats`` skips the load phase's heartbeats)."""
    plan = FaultPlan().down(replica=1, beats=6, after=after_beats)
    return ReplicaConfig(
        replicas=3,
        profiles=_divergent_profiles(cache_budget),
        total_bound_bytes=bound,
        score_interval_ops=512,
        heartbeat_interval_ops=128,
        probe_keys=4,
        faults=plan,
    )


def run(
    n_keys: int = 6_000,
    ops: int = 3_000,
    bound_per_replica_fraction: float = 0.6,
    seed: int = 41,
    observer: Optional[obs.Observer] = None,
) -> ExperimentResult:
    """Divergent vs. uniform 3-replica cluster at equal total memory.

    The cluster bound is ``3 * bound_per_replica_fraction *`` the
    workload's unconstrained STX footprint — tight enough that a
    uniform ``B/3`` replica sits partly compact, leaving the divergent
    arm room to specialize.  ``observer`` watches every arm's database;
    the first failover run's slice of its log is reported as the
    failover arm's event mix.
    """
    from repro.bench.harness import estimate_stx_bytes_per_key

    values, ops_list = _make_workload(n_keys, ops, seed)
    per_replica = int(len(values) * estimate_stx_bytes_per_key()
                      * bound_per_replica_fraction)
    bound = 3 * per_replica
    cache_budget = max(4096, per_replica // 3)

    divergent_cfg = ReplicaConfig(
        replicas=3,
        profiles=_divergent_profiles(cache_budget),
        total_bound_bytes=bound,
        score_interval_ops=512,
        heartbeat_interval_ops=128,
        probe_keys=4,
    )
    uniform_cfg = ReplicaConfig(
        replicas=3, total_bound_bytes=bound, score_interval_ops=512,
        heartbeat_interval_ops=128, probe_keys=4,
    )

    single = _run_arm(values, ops_list, per_replica, None, observer)
    r1 = _run_arm(
        values, ops_list, per_replica, ReplicaConfig(replicas=1), observer
    )
    uniform = _run_arm(values, ops_list, bound, uniform_cfg, observer)
    divergent = _run_arm(values, ops_list, bound, divergent_cfg, observer)

    r1_exact = (
        single["cost_units"] == r1["cost_units"]
        and single["results"] == r1["results"]
        and single["index_bytes"] == r1["index_bytes"]
    )
    results_identical = (
        uniform["results"] == divergent["results"]
        and uniform["results"] == single["results"]
    )
    saving = 1.0 - divergent["cost_units"] / uniform["cost_units"]

    # Failover arm: a scripted mid-workload outage of the hot-serving
    # cache replica, run twice — must replay exactly.  The load phase
    # fires one heartbeat per insert_batch chunk; the outage starts ten
    # beats into the measured stream and recovery happens mid-stream.
    load_beats = (len(values) + 511) // 512
    after_beats = load_beats + 10
    failover_events: Dict[str, int] = {}
    fail_runs = []
    for attempt in range(2):
        start = observer.seq if observer is not None else 0
        arm = _run_arm(
            values, ops_list, bound,
            _failover_config(bound, cache_budget, after_beats), observer,
        )
        if observer is not None and attempt == 0:
            failover_events = dict(Counter(
                event.kind for event in observer.since(start)
            ))
        fail_runs.append(arm)
    failover_deterministic = (
        fail_runs[0]["cost_units"] == fail_runs[1]["cost_units"]
        and fail_runs[0]["results"] == fail_runs[1]["results"]
    )

    result = ExperimentResult(
        "cluster",
        f"divergent vs uniform 3-replica cluster at equal total memory "
        f"({bound} B cluster bound): {len(values)} keys, {ops} mixed "
        f"point/batch/scan/insert ops with a contiguous hot range",
        x_label="arm (0=uniform, 1=divergent)",
    )
    result.xs = [0, 1]
    result.add_series(
        "cluster cost units",
        [uniform["cost_units"], divergent["cost_units"]],
    )
    result.add_series(
        "cluster index bytes",
        [uniform["index_bytes"], divergent["index_bytes"]],
    )
    result.add_row(
        "divergent vs uniform",
        f"{uniform['cost_units']:.0f} -> {divergent['cost_units']:.0f} "
        f"cost units ({saving * 100:+.1f}% saving at equal total memory)",
    )
    result.add_row(
        "replicas=1 passthrough",
        "byte-identical to the plain index"
        if r1_exact else "NOT IDENTICAL — PASSTHROUGH BROKEN",
    )
    result.add_row(
        "failover replay",
        f"deterministic={failover_deterministic}, "
        f"outage cost {fail_runs[0]['cost_units']:.0f} units "
        f"(healthy divergent {divergent['cost_units']:.0f})",
    )
    result.add_row(
        "results identical",
        "yes" if results_identical else "NO — ARMS DISAGREE",
    )
    if observer is not None:
        result.add_row(
            "failover events",
            ", ".join(f"{k}={v}" for k, v in sorted(failover_events.items()))
            or "(none)",
        )
    routing = divergent["index"].replica_report()
    for row in routing:
        result.add_row(
            f"replica {row['profile']}",
            f"classes={','.join(row['classes']) or '-'} "
            f"bound={row['bound_bytes']} B items={row['items']}",
        )
    meta: Dict[str, object] = {
        "uniform_cost_units": uniform["cost_units"],
        "divergent_cost_units": divergent["cost_units"],
        "divergent_saving": saving,
        "single_cost_units": single["cost_units"],
        "r1_cost_units": r1["cost_units"],
        "r1_exact": r1_exact,
        "failover_cost_units": fail_runs[0]["cost_units"],
        "failover_deterministic": failover_deterministic,
        "results_identical": results_identical,
        "total_bound_bytes": bound,
        "uniform_index_bytes": uniform["index_bytes"],
        "divergent_index_bytes": divergent["index_bytes"],
        "failover_events": failover_events,
        "routing": {
            row["profile"]: row["classes"] for row in routing
        },
    }
    result.meta = meta  # type: ignore[attr-defined]
    return result
