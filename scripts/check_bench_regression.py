#!/usr/bin/env python
"""Gate the modeled-cost economics of nine subsystems against regressions.

Each entry of ``GATES`` is one *gate*: a smoke run of the driver
``repro.bench.<name>.run`` in a small, deterministic configuration
(seeded rngs, so weighted cost units are exactly reproducible, unlike
wall-clock), checked three ways:

* its **contract** — predicates over the run's ``meta``, each with the
  message it fails with (answers identical across arms, acceptance
  floors, passthrough arms exact, ...);
* its **baseline** — the committed ``BENCH_<name>.json``.  Every stored
  metric must be present and match the run exactly at the stored
  4-decimal precision; a metric that grew past ``TOLERANCE`` is
  reported as a regression.  The base run is unobserved (the default),
  so any drift at all means instrumentation or wiring leaked into the
  hot path — the zero-overhead guarantee of ``repro.obs``;
* its **enabled replay** — the same smoke rerun with an ``Observer``
  handed to the driver, which watches every ledger the driver builds;
  the replay must reproduce every cost metric and make the gate's
  activity visible: state changes as events and registry metrics,
  per-call activity as the layer ``stats`` fields the driver copies
  into its ``meta``.

A subprocess smoke also exercises the ``DBTable`` read/write surface
under ``-W error::DeprecationWarning`` to prove the current spellings
are warning-free.  A missing baseline fails the run and is named.

Not part of the tier-1 test suite (pytest testpaths excludes scripts/);
run it by hand or from CI:

    PYTHONPATH=src python scripts/check_bench_regression.py
    PYTHONPATH=src python scripts/check_bench_regression.py --only wal cache
    PYTHONPATH=src python scripts/check_bench_regression.py --update
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, Union

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOLERANCE = 0.25
#: Higher-is-better metric suffixes: growth is no regression, so they
#: get only the exact-match check.
HIGHER_IS_BETTER = ("cost_saving", "hit_rate")
#: Batched lookups must cut cost by at least this much on every index.
SAVING_FLOOR = 0.30
#: The arbiter must beat static equal split by at least this saving in
#: the sharded smoke configuration (strict-dominance acceptance).
SHARD_SAVING_FLOOR = 0.05
#: The adaptive cache must cut weighted cost by at least this much at
#: equal total memory on each skewed smoke workload (acceptance floor).
CACHE_SAVING_FLOOR = 0.25
#: The wave-priced elastic arm at W=4 must beat the flat batched (W=1)
#: pricing by at least this saving (acceptance floor).
MLP_SAVING_FLOOR = 0.20
#: The divergent 3-replica cluster must beat three identical replicas
#: at equal total memory by at least this saving (acceptance floor).
CLUSTER_SAVING_FLOOR = 0.03
#: Group commit must cut the durability overhead (cost above the
#: WAL-off arm) by at least this much vs per-operation fsync at the
#: smoke's group size (acceptance floor; in practice it is far lower —
#: one barrier per 64 records).
WAL_SAVING_FLOOR = 0.30
WAL_GROUP_SIZE = 64
#: The self-tuned arm must be strictly cheaper than the *best* static
#: arm on at least this many of the five scenarios (and never worse on
#: any).
SELFTUNE_STRICT_WINS_FLOOR = 3

BATCH_INDEXES = ("elastic", "stx")
MLP_INDEXES = ("elastic", "stx", "seqtree128")
MLP_WIDTHS = (1, 2, 3, 4)
LEARNED_ARMS = ("full", "compact", "learned", "elastic-2way",
                "elastic-3way")

#: A failure message: fixed text, or built from the run's ``meta``.
Message = Union[str, Callable[[dict], str]]


@dataclass(frozen=True)
class Gate:
    """One smoke run of ``repro.bench.<name>.run`` and its checks.

    ``config`` is the smoke's driver kwargs, stored as the baseline's
    ``config``; ``metrics`` maps ``meta`` to the stored metrics;
    ``contract`` pairs predicates over ``meta`` with their messages;
    ``replay`` pairs counts over ``(observer, meta)`` that must be
    non-zero with theirs.
    """

    config: dict
    metrics: Callable[[dict], Dict[str, float]]
    contract: Tuple[Tuple[Callable[[dict], bool], Message], ...]
    replay: Tuple[Tuple[Callable[[object, dict], float], Message], ...]


def registry(metric: str):
    """Replay count: the total of an observer registry metric."""
    def total(observer, meta):
        found = observer.registry.get(metric)
        return 0 if found is None else found.total()
    return total


def events(kind: str, where=lambda event: True):
    """Replay count: retained observer events of ``kind``."""
    return lambda observer, meta: sum(
        1 for event in observer.event_log(kind) if where(event)
    )


def captured(log: str, kind: str):
    """Replay count: events of ``kind`` the driver captured itself."""
    return lambda observer, meta: meta[log].get(kind, 0)


def stat(*path: str):
    """Replay count: a layer ``stats`` field the driver copied into its
    ``meta`` at ``path``."""
    def count(observer, meta):
        for key in path:
            meta = meta[key]
        return meta
    return count


def every(*counts):
    """Replay count: the smallest of ``counts``, so any zero fails."""
    return lambda observer, meta: min(count(observer, meta)
                                      for count in counts)


def _answers(gate: str, what: str, changes: str) -> tuple:
    """The contract most gates share: arms differ in cost, not answers."""
    return (lambda m: m["results_identical"],
            f"{gate}: {what} — {changes} must change cost accounting, "
            "never answers")


def _mlp_contract() -> tuple:
    """Per index: answers and W=1 exact, wave pricing below serial."""
    contract = []
    for kind in MLP_INDEXES:
        contract += [
            (lambda m, k=kind: m[k]["results_identical"],
             f"mlp: {kind} wave-priced results diverged — wave pricing "
             "must change cost accounting, never answers"),
            (lambda m, k=kind: m[k]["w1_exact"],
             f"mlp: {kind} W=1 arm did not reproduce plain batched "
             "event counts exactly (serial-passthrough contract)"),
        ]
        for width in (str(w) for w in MLP_WIDTHS if w >= 2):
            contract.append((
                lambda m, k=kind, w=width: m[k]["per_width_cost_units"][w]
                < m[k]["scalar_cost_units"],
                lambda m, k=kind, w=width: f"mlp: {k} W={w} wave pricing "
                f"{m[k]['per_width_cost_units'][w]:.1f} not strictly below "
                f"serial pricing {m[k]['scalar_cost_units']:.1f}",
            ))
    return tuple(contract)


def _selftune_metrics(meta: dict) -> Dict[str, float]:
    """Per-scenario costs plus pack totals, summed in scenario order."""
    scenarios = sorted(meta["scenarios"].items())
    metrics = {
        f"selftune.{name}.{metric}": verdict[metric]
        for name, verdict in scenarios
        for metric in ("self_cost_units", "best_static_units")
    }
    metrics["selftune.self_cost_units"] = round(
        sum(v["self_cost_units"] for _, v in scenarios), 2)
    metrics["selftune.best_static_cost_units"] = round(
        sum(v["best_static_units"] for _, v in scenarios), 2)
    return metrics


#: The gate registry, in the order the mechanisms landed.
GATES: Dict[str, Gate] = {
    # Batched lookups against the scalar loop on each index family.
    "batch": Gate(
        config=dict(n_keys=20_000, query_count=2048,
                    batch_sizes=(1, 16, 256, 2048), indexes=BATCH_INDEXES,
                    seed=11, wall_repeats=1),
        metrics=lambda m: {
            f"{kind}.{name}": m[kind][name]
            for kind in BATCH_INDEXES
            for name in ("scalar_cost_units", "batch_cost_units",
                         "cost_saving")
        },
        contract=tuple(
            (lambda m, k=kind: m[k]["cost_saving"] >= SAVING_FLOOR,
             lambda m, k=kind: f"{k}.cost_saving: saving "
             f"{m[k]['cost_saving']:.3f} below floor {SAVING_FLOOR}")
            for kind in BATCH_INDEXES
        ),
        replay=(
            (lambda observer, meta: len(observer.events),
             "no events captured — emission is wired wrong"),
            (every(*(stat(kind, "dispatched_gets")
                     for kind in BATCH_INDEXES)),
             "no batch dispatches counted (BatchExecutor.stats.by_kind)"),
        ),
    ),
    # Two tables, two shards each, one global bound: the budget arbiter
    # must strictly dominate the static equal split, having rebalanced.
    "shard": Gate(
        config=dict(n_big=4000, n_small=300, txn_ops=6000, shards=2,
                    seed=17),
        metrics=lambda m: {
            f"shard.{name}": m[name]
            for name in ("static_cost_units", "arbiter_cost_units",
                         "cost_saving")
        },
        contract=(
            (lambda m: m["arbiter_cost_units"] < m["static_cost_units"],
             lambda m: "shard: arbiter does not dominate static split "
             f"({m['arbiter_cost_units']:.1f} vs "
             f"{m['static_cost_units']:.1f} cost units)"),
            (lambda m: m["cost_saving"] >= SHARD_SAVING_FLOOR,
             lambda m: f"shard: arbiter saving {m['cost_saving']:.3f} "
             f"below floor {SHARD_SAVING_FLOOR}"),
            (lambda m: m["rebalances"],
             "shard: arbiter never rebalanced in the smoke run"),
        ),
        replay=(
            (lambda observer, meta: meta["rebalance_events"],
             "no budget_rebalance events captured — the arbiter's "
             "decisions must be observable"),
            (lambda observer, meta:
                meta["rebalance_events"] == meta["rebalances"],
             lambda m: f"{m['rebalance_events']} budget_rebalance events "
             f"vs {m['rebalances']} rebalances counted"),
        ),
    ),
    # Serial vs parallel scatter/gather over a hash-sharded index: one
    # shard (single-task short-cut) must charge exactly serial cost, four
    # shards must put the critical path strictly below the serial sum.
    "parallel": Gate(
        config=dict(n_keys=6000, batch_ops=512, scan_ops=64, scan_count=8,
                    shard_counts=(1, 4), workers=4, seed=19),
        metrics=lambda m: {
            f"parallel.s{shards}.{name}": arm[name]
            for shards, arm in sorted(m["per_shards"].items(),
                                      key=lambda kv: int(kv[0]))
            for name in ("serial_lookup_cost", "parallel_lookup_cost",
                         "serial_scan_cost", "parallel_scan_cost")
        },
        contract=(
            _answers("parallel", "results diverged from serial",
                     "the executor"),
            (lambda m: m["per_shards"]["1"]["parallel_lookup_cost"]
                == m["per_shards"]["1"]["serial_lookup_cost"]
                and m["per_shards"]["1"]["parallel_scan_cost"]
                == m["per_shards"]["1"]["serial_scan_cost"],
             lambda m: "parallel: single-shard scatter not charged "
             "exactly serial cost "
             f"({m['per_shards']['1']['parallel_lookup_cost']:.4f} vs "
             f"{m['per_shards']['1']['serial_lookup_cost']:.4f} lookup "
             "units)"),
            (lambda m: m["per_shards"]["4"]["parallel_lookup_cost"]
                < m["per_shards"]["4"]["serial_lookup_cost"],
             lambda m: "parallel: critical path not below serial sum on "
             "4-shard batched lookups "
             f"({m['per_shards']['4']['parallel_lookup_cost']:.1f} vs "
             f"{m['per_shards']['4']['serial_lookup_cost']:.1f} cost "
             "units)"),
            (lambda m: m["per_shards"]["4"]["critical_path_units"]
                < m["per_shards"]["4"]["serial_sum_units"],
             lambda m: "parallel: executor ledger critical path "
             f"{m['per_shards']['4']['critical_path_units']:.1f} not "
             "below serial sum "
             f"{m['per_shards']['4']['serial_sum_units']:.1f} at 4 "
             "shards"),
        ),
        replay=(
            (lambda observer, meta: meta["results_identical"],
             "parallel results diverged from serial"),
            (stat("per_shards", "4", "dispatches"),
             "no shard dispatches counted at 4 shards "
             "(ExecutorStats.dispatches)"),
            (stat("per_shards", "4", "gathers"),
             "no parallel gathers counted at 4 shards "
             "(ExecutorStats.batches)"),
        ),
    ),
    # YCSB-C zipfian + IOTTA trace, cache on vs off at one soft bound:
    # identical answers, a saving floor on both skewed workloads, and
    # the cache-off arm exact (the wiring costs nothing without a cache).
    "cache": Gate(
        config=dict(n_keys=8000, query_count=16_000, iotta_rows=6000,
                    seed=23),
        metrics=lambda m: {
            f"cache.{workload}.{name}": m[f"{workload}_{name}"]
            for workload in ("zipf", "iotta")
            for name in ("base_cost_units", "cached_cost_units",
                         "cost_saving", "hit_rate")
        },
        contract=(
            _answers("cache", "cached results diverged from uncached",
                     "the cache"),
        ) + tuple(
            check
            for w in ("zipf", "iotta")
            for check in (
                (lambda m, w=w: m[f"{w}_cost_saving"] >= CACHE_SAVING_FLOOR,
                 lambda m, w=w: f"cache: {w} saving "
                 f"{m[f'{w}_cost_saving']:.3f} below floor "
                 f"{CACHE_SAVING_FLOOR} at equal total memory"),
                (lambda m, w=w: m[f"{w}_hit_rate"] > 0.0,
                 f"cache: {w} arm recorded no hits"),
            )
        ),
        replay=(
            (every(stat("zipf_cache_report", "lookups"),
                   stat("iotta_cache_report", "lookups")),
             "no cache lookups counted (CacheStats.lookups)"),
            (every(stat("zipf_hit_rate"), stat("iotta_hit_rate")),
             "cache hit rate is zero (CacheStats.hit_rate)"),
        ),
    ),
    # Scalar vs batched vs wave-priced lookups across wave widths on
    # three index families; W=1 reproduces plain batched counts exactly
    # (the passthrough that keeps every pre-wave baseline byte-identical).
    "mlp": Gate(
        config=dict(n_keys=10_000, query_count=1024, widths=MLP_WIDTHS,
                    indexes=MLP_INDEXES, seed=13, batch_size=256),
        metrics=lambda m: {
            f"mlp.{kind}.{name}": value
            for kind in MLP_INDEXES
            for name, value in [
                ("scalar_cost_units", m[kind]["scalar_cost_units"]),
                ("batched_cost_units", m[kind]["batched_cost_units"]),
            ] + [
                (f"w{width}_cost_units", cost)
                for width, cost in m[kind]["per_width_cost_units"].items()
            ]
        },
        contract=_mlp_contract() + (
            (lambda m: m["elastic"]["saving_at_w4_vs_batched"]
                >= MLP_SAVING_FLOOR,
             lambda m: "mlp: elastic W=4 saving "
             f"{m['elastic']['saving_at_w4_vs_batched']:.3f} vs batched "
             f"pricing below floor {MLP_SAVING_FLOOR}"),
        ),
        replay=(
            (every(*(stat(kind, "mlp_waves") for kind in MLP_INDEXES)),
             "no prefetch waves counted (CostModel.mlp_totals.waves)"),
            (every(*(stat(kind, "mlp_loads") for kind in MLP_INDEXES)),
             "no wave-priced loads counted (CostModel.mlp_totals.loads)"),
        ),
    ),
    # Full vs compact vs learned leaves vs 2-way and 3-way elastic arms
    # at one soft bound: learned leaves are a genuine third frontier
    # point, and an explicit two-kind ``leaf_kinds`` build reproduces
    # the default config exactly (learned-off passthrough).
    "learned": Gate(
        config=dict(n_keys=9_000, query_count=2_048, seed=29,
                    batch_size=256),
        metrics=lambda m: {
            f"learned.{arm}.{name}": m["arms"][arm][name]
            for arm in LEARNED_ARMS
            for name in ("index_bytes", "sorted_cost_units",
                         "zipf_cost_units")
        },
        contract=(
            _answers("learned", "result sets diverged across leaf kinds",
                     "the representation"),
            (lambda m: m["learned_mem_lt_full"],
             lambda m: "learned: learned arm not strictly smaller than "
             f"full arm ({m['arms']['learned']['index_bytes']} vs "
             f"{m['arms']['full']['index_bytes']} bytes)"),
            (lambda m: m["learned_cost_lt_compact"],
             lambda m: "learned: learned arm not strictly cheaper than "
             "compact on sorted probes "
             f"({m['arms']['learned']['sorted_cost_per_lookup']:.4f} vs "
             f"{m['arms']['compact']['sorted_cost_per_lookup']:.4f} "
             "units/lookup)"),
            (lambda m: m["elastic3_not_worse"],
             lambda m: "learned: 3-way elastic arm worse than 2-way at the "
             "same soft bound (sorted "
             f"{m['arms']['elastic-3way']['sorted_cost_per_lookup']:.4f}"
             f" vs {m['arms']['elastic-2way']['sorted_cost_per_lookup']:.4f}"
             f", zipf {m['arms']['elastic-3way']['zipf_cost_per_lookup']:.4f}"
             f" vs {m['arms']['elastic-2way']['zipf_cost_per_lookup']:.4f})"),
            (lambda m: m["learned_off_exact"],
             "learned: explicit leaf_kinds=('standard', 'compact') build "
             "did not reproduce the default-config costs exactly "
             "(learned-off passthrough contract)"),
        ),
        replay=(
            (registry("repro_leaf_retrains_total"),
             "no leaf retrain metrics recorded — emission is wired wrong"),
            (events("leaf_retrain"), "no leaf_retrain events captured"),
            (events("leaf_conversion",
                    lambda event: event.direction == "to_learned"),
             "no to_learned leaf_conversion events captured"),
        ),
    ),
    # Divergent vs uniform 3-replica cluster at equal total memory;
    # ``ReplicaConfig(replicas=1)`` byte-identical to the plain index; a
    # scripted mid-workload outage replays deterministically, and the
    # replay sees its failover.
    "cluster": Gate(
        config=dict(n_keys=6_000, ops=3_000, seed=41),
        metrics=lambda m: {
            f"cluster.{arm}_cost_units": m[f"{arm}_cost_units"]
            for arm in ("uniform", "divergent", "single", "r1", "failover")
        },
        contract=(
            _answers("cluster", "result sets diverged across arms",
                     "replica routing"),
            (lambda m: m["divergent_saving"] >= CLUSTER_SAVING_FLOOR,
             lambda m: "cluster: divergent saving "
             f"{m['divergent_saving']:.3f} vs uniform replicas below floor "
             f"{CLUSTER_SAVING_FLOOR} at equal total memory"),
            (lambda m: m["r1_exact"],
             "cluster: replicas=1 arm did not reproduce the plain index "
             "exactly (single-replica passthrough contract)"),
            (lambda m: m["failover_deterministic"],
             "cluster: scripted-outage arm did not replay to identical "
             "results and cost units (failover determinism contract)"),
        ),
        replay=(
            (registry("repro_replica_routes_total"),
             "no replica route metrics recorded — emission is wired "
             "wrong"),
            (captured("failover_events", "replica_route"),
             "no replica_route events captured in the failover arm"),
            (captured("failover_events", "replica_failover"),
             "no replica_failover events captured — the scripted outage "
             "was invisible"),
            (captured("failover_events", "cluster_budget"),
             "no cluster_budget event captured at build"),
        ),
    ),
    # WAL off vs per-op fsync vs group commit, plus a scripted kill +
    # recovery differential replayed across two cycles; the WAL-off arm
    # exact shows the write surface costs nothing when no log is attached.
    "wal": Gate(
        config=dict(n_rows=2_000, batch_rows=24, group_size=WAL_GROUP_SIZE,
                    kill_after_applies=90, seed=43),
        metrics=lambda m: {
            f"wal.{arm}_cost_units": m[f"{arm}_cost_units"]
            for arm in ("off", "perop", "group", "recovery")
        },
        contract=(
            _answers("wal", "digests diverged across arms", "the WAL"),
            (lambda m: m["overhead_saving"] >= WAL_SAVING_FLOOR,
             lambda m: "wal: group-commit overhead saving "
             f"{m['overhead_saving']:.3f} vs per-op fsync below floor "
             f"{WAL_SAVING_FLOOR} at group size {WAL_GROUP_SIZE}"),
            (lambda m: m["recovery_match"],
             "wal: recovered database diverged from the committed-prefix "
             "reference replay (kill + recover differential)"),
            (lambda m: m["recovery_deterministic"],
             "wal: crash/recover cycle did not replay to identical "
             "digests and reports across runs"),
            (lambda m: m["records_discarded"],
             "wal: scripted kill discarded no volatile records — the "
             "crash landed on a group boundary and proves nothing"),
        ),
        replay=(
            (stat("group_records"),
             "no records in the group-commit arm's log "
             "(WriteAheadLog.records)"),
            (stat("crash_records"),
             "no records appended in the crash arm "
             "(WriteAheadLog.records)"),
            (stat("crash_fsyncs"),
             "no fsync barriers in the crash arm (WriteAheadLog.fsyncs)"),
            (captured("crash_events", "recovery_replay"),
             "no recovery_replay event captured — the recovery was "
             "invisible"),
        ),
    ),
    # The five-scenario adversarial pack at equal total memory: the
    # self-tuned arm returns identical answers, never loses to the best
    # static arm (graded post-hoc against the sweep's luckiest entry),
    # wins strictly on at least the floor, and acts on every scenario
    # (a zero-action pass would be dominance by coincidence).
    "selftune": Gate(
        config=dict(scale=1),
        metrics=_selftune_metrics,
        contract=(
            _answers("selftune", "query answers diverged across arms",
                     "tuning"),
            (lambda m: all(v["dominates"] for v in m["scenarios"].values()),
             lambda m: "selftune: self-tuned arm lost to the best static "
             "arm on " + ", ".join(
                 f"{name} ({v['self_cost_units']:.0f} vs "
                 f"{v['best_static_units']:.0f} {v['best_static_label']})"
                 for name, v in m["scenarios"].items()
                 if not v["dominates"])),
            (lambda m: m["strict_wins"] >= SELFTUNE_STRICT_WINS_FLOOR,
             lambda m: f"selftune: only {m['strict_wins']} strict wins vs "
             f"the best static arm, floor {SELFTUNE_STRICT_WINS_FLOOR}"),
            (lambda m: all(v["actions_applied"]
                           for v in m["scenarios"].values()),
             lambda m: "selftune: advisor fired no action on " + ", ".join(
                 sorted(name for name, v in m["scenarios"].items()
                        if v["actions_applied"] == 0))),
        ),
        replay=(
            (registry("repro_tuning_actions_total"),
             "no repro_tuning_actions_total metrics recorded — emission "
             "is wired wrong"),
            (lambda observer, meta: min(v["candidates_scored"]
                                        for v in meta["scenarios"].values()),
             "advisor scored no candidate on a scenario "
             "(TuningStats.candidates_scored)"),
            (events("tuning_action"),
             "no tuning_action events captured — the advisor's decisions "
             "were invisible"),
        ),
    ),
}


def baseline_path(name: str) -> str:
    return os.path.join(REPO, f"BENCH_{name}.json")


def _text(message: Message, meta: dict) -> str:
    return message(meta) if callable(message) else message


def run_gate(name: str, **kwargs):
    """Run gate ``name``'s driver at its smoke config; returns the result."""
    driver = importlib.import_module(f"repro.bench.{name}")
    return driver.run(**GATES[name].config, **kwargs)


def check_contract(name: str, meta: dict) -> List[str]:
    """The messages of gate ``name``'s contract predicates that fail."""
    return [_text(message, meta) for holds, message in GATES[name].contract
            if not holds(meta)]


def check_baseline(metrics: dict, baseline: dict) -> List[str]:
    """One rule for every stored metric: present, and exact at the
    baseline's 4-decimal precision; growth past ``TOLERANCE`` is named
    as a regression, except for higher-is-better metrics."""
    failures = []
    for name, value in metrics.items():
        base = baseline.get(name)
        if base is None:
            failures.append(f"{name}: missing from baseline (run --update)")
        elif (not name.endswith(HIGHER_IS_BETTER)
              and value > base * (1 + TOLERANCE)):
            failures.append(
                f"{name}: {value:.1f} cost units vs baseline {base:.1f} "
                f"(+{(value / base - 1) * 100:.1f}%, tolerance "
                f"{TOLERANCE * 100:.0f}%)"
            )
        elif round(value, 4) != base:
            failures.append(
                f"zero-overhead: {name} = {value!r} with observability "
                f"disabled, baseline {base!r} (must match exactly)"
            )
    return failures


def enabled_replay(name: str, base_metrics: dict) -> List[str]:
    """Rerun gate ``name`` with an observer watching every ledger its
    driver builds: every cost metric must equal the base run's, and
    every replay requirement must be non-zero."""
    from repro import obs

    gate = GATES[name]
    observer = obs.Observer()
    try:
        meta = run_gate(name, observer=observer).meta
    finally:
        observer.close()
    failures = [
        f"enabled-replay: {metric} = {value!r} with observability "
        f"enabled vs {base_metrics.get(metric)!r} disabled "
        f"(instrumentation must not charge cost units)"
        for metric, value in gate.metrics(meta).items()
        if value != base_metrics.get(metric)
    ]
    failures += [f"enabled-replay: {_text(message, meta)}"
                 for count, message in gate.replay
                 if not count(observer, meta)]
    if not failures:
        print(f"{name} enabled-replay: cost identical; "
              f"{len(observer.events)} events captured")
    return failures


def smoke_deprecation_free_db_surface() -> int:
    """The DBTable read/write surface must not trip DeprecationWarning."""
    script = (
        "from repro.db import Database\n"
        "from repro.table.table import RowSchema\n"
        "from repro.wal import WalConfig\n"
        "db = Database()\n"
        "t = db.create_table(RowSchema('t', ('a', 'b'), (8, 8)))\n"
        "t.create_index('by_a', ('a',))\n"
        "t.insert_batch([(i, i * 2) for i in range(200)])\n"
        "assert t.get('by_a', (5,)) == (5, 10)\n"
        "wal_db = Database(wal=WalConfig(group_size=16))\n"
        "wt = wal_db.create_table(RowSchema('t', ('a', 'b'), (8, 8)))\n"
        "wt.create_index('by_a', ('a',))\n"
        "with wal_db.begin_batch() as batch:\n"
        "    batch.insert_batch(wt, [(i, i) for i in range(32)])\n"
        "    batch.insert(wt, (99, 99))\n"
        "stale = wt.insert((500, 0))\n"
        "with wal_db.begin_batch() as batch:\n"
        "    batch.delete(wt, stale)\n"
        "assert wt.get('by_a', (99,)) == (99, 99)\n"
        "assert wt.get('by_a', (500,)) is None\n"
        "assert len(t.get_batch('by_a', [(i,) for i in range(8)])) == 8\n"
        "assert len(t.scan('by_a', (0,), count=10)) == 10\n"
        "keys = t.scan('by_a', (0,), count=4, include_rows=False)\n"
        "assert len(keys) == 4 and isinstance(keys[0], bytes)\n"
        "batches = t.scan_batch('by_a', [(0,), (50,)], count=3)\n"
        "assert [len(b) for b in batches] == [3, 3]\n"
        "snapshot = db.metrics_snapshot()\n"
        "assert snapshot.startswith('# HELP')\n"
        "print('db surface smoke ok')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return subprocess.call(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", script],
        env=env,
        cwd=REPO,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the BENCH baselines (restricted by --only) from "
        "the current run",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        metavar="GATE",
        default=None,
        choices=sorted(GATES),
        help="run only the named gates (default: all of "
        f"{', '.join(GATES)}); with --update, only their baselines "
        "are rewritten",
    )
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(REPO, "src"))

    selected = [name for name in GATES
                if args.only is None or name in args.only]
    failures = []
    runs = {}
    for name in selected:
        result = run_gate(name)
        print(result.render())
        print()
        runs[name] = GATES[name].metrics(result.meta), result.meta

    if args.update:
        for name in selected:
            config = {k: list(v) if isinstance(v, tuple) else v
                      for k, v in GATES[name].config.items()}
            payload = {"config": config,
                       **{k: round(v, 4) for k, v in runs[name][0].items()}}
            with open(baseline_path(name), "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"baseline written to {baseline_path(name)}")
        return 0

    for name in selected:
        metrics, meta = runs[name]
        failures += check_contract(name, meta)
        path = baseline_path(name)
        if os.path.exists(path):
            with open(path) as fh:
                failures += check_baseline(metrics, json.load(fh))
        else:
            failures.append(f"no baseline at {path}; run with --update first")
        failures += enabled_replay(name, metrics)

    for failure in failures:
        print(f"REGRESSION: {failure}")
    if not failures:
        print("cost metrics within tolerance of baseline "
              "(and bit-identical with observability disabled)")

    print("\nDBTable read-surface smoke (-W error::DeprecationWarning):")
    if smoke_deprecation_free_db_surface() != 0:
        failures.append("DBTable read-surface deprecation smoke failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
