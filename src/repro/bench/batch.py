"""Batch-vs-scalar lookup economics (batched execution layer).

Loads ``n_keys`` uniform 64-bit keys into an index, then answers the
same ``query_count`` uniform point lookups two ways: a scalar loop of
``index.lookup`` calls, and ``BatchExecutor.get_batch`` with the batch
(chunk) size swept over ``batch_sizes``.  Reported per batch size:
weighted cost units, wall-clock, the cost saving and the wall-clock
speedup over the scalar loop.  Sorted-run descent sharing amortizes the
inner-node line fetches and routing compares; independent verify loads
charge at the overlapped ``key_load_batched`` rate.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Sequence

from repro.bench.harness import (
    ExperimentResult,
    estimate_stx_bytes_per_key,
    make_u64_environment,
    measure,
    watch,
)
from repro.exec import BatchExecutor
from repro.keys.encoding import encode_u64
from repro.obs import Observer

DEFAULT_BATCH_SIZES = (1, 16, 256, 4096)


def _build(kind: str, n_keys: int, seed: int,
           observer: Optional[Observer] = None):
    """Build an index over ``n_keys`` uniform keys, its ledger watched
    by ``observer`` if given; returns (env, keys)."""
    if kind == "elastic":
        bound = int(estimate_stx_bytes_per_key() * n_keys * 0.75 / 0.9)
        env = make_u64_environment("elastic", size_bound_bytes=bound)
    else:
        env = make_u64_environment(kind)
    watch(observer, env.cost)
    rng = random.Random(seed)
    values = set()
    while len(values) < n_keys:
        values.add(rng.getrandbits(63))
    ordered = list(values)
    rng.shuffle(ordered)
    loader = BatchExecutor(env.index, max_batch=4096)
    pending = []
    for value in ordered:
        key = encode_u64(value)
        tid = env.table.insert_row(value)
        pending.append((key, tid))
        if len(pending) >= 4096:
            loader.insert_batch(pending)
            pending.clear()
    if pending:
        loader.insert_batch(pending)
    keys = [encode_u64(v) for v in ordered]
    return env, keys


def _best_wall(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds for ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run(
    n_keys: int = 100_000,
    query_count: int = 4096,
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    indexes: Sequence[str] = ("elastic", "stx"),
    seed: int = 11,
    wall_repeats: int = 3,
    observer: Optional[Observer] = None,
) -> ExperimentResult:
    """Batch-vs-scalar lookup cost and wall-clock across batch sizes."""
    result = ExperimentResult(
        "batch_lookup",
        f"get_batch vs scalar lookups: {query_count} uniform point queries "
        f"over {n_keys} keys",
        x_label="batch size",
    )
    result.xs = list(batch_sizes)
    summary: Dict[str, Dict[str, float]] = {}
    for kind in indexes:
        env, keys = _build(kind, n_keys, seed, observer)
        rng = random.Random(seed ^ 0x5A5A)
        queries = [keys[rng.randrange(len(keys))] for _ in range(query_count)]
        expected = [env.index.lookup(k) for k in queries]

        def scalar() -> List:
            return [env.index.lookup(k) for k in queries]

        m_scalar = measure(env.cost, query_count, scalar)
        wall_scalar = _best_wall(scalar, wall_repeats)

        batch_costs: List[float] = []
        batch_walls: List[float] = []
        for size in batch_sizes:
            executor = BatchExecutor(env.index, max_batch=size)
            got = executor.get_batch(queries)
            if got != expected:
                raise AssertionError(
                    f"{kind}: batched results diverge at batch={size}"
                )
            m_batch = measure(
                env.cost, query_count, lambda: executor.get_batch(queries)
            )
            batch_costs.append(m_batch.cost_units)
            batch_walls.append(
                _best_wall(lambda: executor.get_batch(queries), wall_repeats)
            )
        result.add_series(f"{kind} batch cost units", batch_costs)
        result.add_series(
            f"{kind} scalar cost units", [m_scalar.cost_units] * len(batch_sizes)
        )
        result.add_series(
            f"{kind} batch wall ms", [w * 1e3 for w in batch_walls]
        )
        result.add_series(
            f"{kind} scalar wall ms", [wall_scalar * 1e3] * len(batch_sizes)
        )
        top = len(batch_sizes) - 1
        saving = 1.0 - batch_costs[top] / m_scalar.cost_units
        speedup = wall_scalar / batch_walls[top] if batch_walls[top] else 0.0
        summary[kind] = {
            "scalar_cost_units": m_scalar.cost_units,
            "batch_cost_units": batch_costs[top],
            "cost_saving": saving,
            "scalar_wall_s": wall_scalar,
            "batch_wall_s": batch_walls[top],
            "wall_speedup": speedup,
            "dispatched_gets": executor.stats.by_kind.get("get", 0),
        }
        result.add_row(
            f"{kind} @batch={batch_sizes[top]}",
            f"cost -{saving * 100:.1f}%, wall {speedup:.2f}x",
        )
    result.meta = summary  # type: ignore[attr-defined]
    return result
