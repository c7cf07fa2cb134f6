"""Serial vs parallel scatter/gather cost over shard counts.

One hash-sharded index is driven through the same batched operation
stream twice per shard count: once with the serial executor (the cost
baseline — byte-identical to the pre-executor router) and once with the
parallel executor, which overlaps per-shard sub-batches in waves of
``workers`` dispatches and charges critical-path cost plus a modeled
coordination fee (see :mod:`repro.engine.executor`).

Reported per shard count and arm: weighted cost units of the batched
lookup phase and the batched scan phase, plus the parallel arm's
serial-sum vs critical-path ledger and the resulting speedup.  Results
must be identical between arms — the parallel backend changes the cost
accounting, never the answers — and at ``shards >= workers`` the
critical path must sit strictly below the serial sum (the regression
guard pins both).

Shape expectations: with one shard there is nothing to overlap (the
single-task short-cut charges exactly serial cost); speedup grows with
shard count until waves saturate at ``workers`` concurrent dispatches,
after which extra shards only deepen the wave count.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from repro.bench.harness import ExperimentResult
from repro.engine import ParallelShardExecutor, build_sharded_index
from repro.keys.encoding import encode_u64
from repro.memory.cost_model import CostModel
from repro.table.table import Table

DEFAULT_SHARD_COUNTS = (1, 2, 4, 8)


def _mint_values(n: int, seed: int) -> List[int]:
    rng = random.Random(seed)
    values = set()
    while len(values) < n:
        values.add(rng.getrandbits(48))
    ordered = list(values)
    rng.shuffle(ordered)
    return ordered


def _build(kind: str, shards: int, values: Sequence[int], executor):
    cost = CostModel()
    table = Table(encode_u64, row_bytes=32, cost_model=cost)
    index = build_sharded_index(
        kind, table=table, cost=cost, key_width=8, n_shards=shards,
        partitioner="hash", executor=executor,
    )
    pairs = [(encode_u64(v), table.insert_row(v)) for v in values]
    for i in range(0, len(pairs), 1024):
        index.insert_sorted_batch(pairs[i : i + 1024])
    return index, cost


def _run_arm(
    kind: str,
    shards: int,
    values: Sequence[int],
    probes: Sequence[bytes],
    starts: Sequence[bytes],
    scan_count: int,
    executor,
) -> Dict[str, object]:
    index, cost = _build(kind, shards, values, executor)
    with cost.measure() as delta:
        lookups = index.lookup_batch(probes)
    lookup_cost = delta.weighted_cost()
    with cost.measure() as delta:
        scans = index.scan_batch(starts, scan_count)
    scan_cost = delta.weighted_cost()
    return {
        "lookup_cost": lookup_cost,
        "scan_cost": scan_cost,
        "lookups": lookups,
        "scans": scans,
    }


def run(
    n_keys: int = 40_000,
    batch_ops: int = 2048,
    scan_ops: int = 256,
    scan_count: int = 16,
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    workers: int = 4,
    kind: str = "stx",
    seed: int = 19,
) -> ExperimentResult:
    """Serial vs parallel executor cost across shard counts."""
    values = _mint_values(n_keys, seed)
    rng = random.Random(seed ^ 0x7E57)
    probes = [encode_u64(rng.choice(values)) for _ in range(batch_ops)]
    starts = [encode_u64(rng.choice(values)) for _ in range(scan_ops)]

    result = ExperimentResult(
        "parallel_executor",
        f"serial vs parallel scatter/gather over a hash-sharded {kind} "
        f"index: {batch_ops} batched lookups + {scan_ops} batched "
        f"{scan_count}-item scans over {n_keys} keys, {workers} workers",
        x_label="shards",
    )
    result.xs = list(shard_counts)

    series: Dict[str, List[float]] = {
        "serial lookup cost units": [],
        "parallel lookup cost units": [],
        "serial scan cost units": [],
        "parallel scan cost units": [],
        "parallel saved units": [],
    }
    per_shards: Dict[int, Dict[str, float]] = {}
    results_identical = True
    for shards in shard_counts:
        serial_arm = _run_arm(
            kind, shards, values, probes, starts, scan_count, None
        )
        executor = ParallelShardExecutor(workers=workers)
        parallel_arm = _run_arm(
            kind, shards, values, probes, starts, scan_count, executor
        )
        stats = executor.stats
        saved = stats.saved_units
        identical = (
            serial_arm["lookups"] == parallel_arm["lookups"]
            and serial_arm["scans"] == parallel_arm["scans"]
        )
        results_identical = results_identical and identical

        series["serial lookup cost units"].append(serial_arm["lookup_cost"])
        series["parallel lookup cost units"].append(
            parallel_arm["lookup_cost"]
        )
        series["serial scan cost units"].append(serial_arm["scan_cost"])
        series["parallel scan cost units"].append(parallel_arm["scan_cost"])
        series["parallel saved units"].append(saved)

        speedup = (
            serial_arm["lookup_cost"] / parallel_arm["lookup_cost"]
            if parallel_arm["lookup_cost"] else 0.0
        )
        per_shards[shards] = {
            "serial_lookup_cost": serial_arm["lookup_cost"],
            "parallel_lookup_cost": parallel_arm["lookup_cost"],
            "serial_scan_cost": serial_arm["scan_cost"],
            "parallel_scan_cost": parallel_arm["scan_cost"],
            "lookup_speedup": speedup,
            "serial_sum_units": stats.serial_sum_units,
            "critical_path_units": stats.critical_path_units,
            "saved_units": saved,
            "dispatches": stats.dispatches,
            "gathers": stats.batches,
            "results_identical": identical,
        }
        result.add_row(
            f"shards={shards}",
            f"lookup {serial_arm['lookup_cost']:.0f} -> "
            f"{parallel_arm['lookup_cost']:.0f} units ({speedup:.2f}x), "
            f"critical path hid {saved:.0f} units"
            + ("" if identical else "  [RESULTS DIVERGED]"),
        )
    for name, ys in series.items():
        result.add_series(name, ys)
    result.add_row(
        "results",
        "parallel identical to serial on every op"
        if results_identical else "DIVERGED",
    )
    result.meta = {  # type: ignore[attr-defined]
        "workers": workers,
        "results_identical": results_identical,
        "per_shards": {str(k): v for k, v in per_shards.items()},
    }
    return result
