"""Budget-aware adaptive caching: cost at equal total memory.

The elastic index under pressure answers point queries out of compact
leaves, where every key comparison is an indirect load into the row
table.  On skewed read traffic most of those loads fetch the same few
rows over and over — exactly the work a small hot-row cache absorbs.
The catch is memory: a cache only makes sense under the paper's soft
bound if its bytes are charged against the *same* bound the fat leaves
compete for.

This experiment runs the same read stream against two arms with one
identical soft memory bound:

* **cache off** — the elastic index exactly as in every other
  experiment (byte-identical cost accounting, guarded by the
  regression baselines);
* **cache on** — the same index with an :class:`~repro.cache.
  IndexCache` attached; the cache's slabs and sketch are charged to
  the shard allocator's ``cache`` category, so the index sees them as
  occupancy and holds correspondingly more leaves compact.

Workloads: YCSB-C (read-only, zipfian theta 0.99 — the canonical
skewed-read benchmark) and the IOTTA-like object-storage trace of
section 6.3 (16-byte ``(timestamp, object id)`` keys, zipfian object
popularity).  Both arms must return identical answers on every query;
the reproduction target is a >= 25% weighted-cost saving on the
zipfian stream at equal total memory, with the achieved hit rate
reported alongside.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.bench.harness import (
    ExperimentResult,
    IndexEnv,
    estimate_stx_bytes_per_key,
    make_u64_environment,
    watch,
)
from repro.cache import CacheConfig, IndexCache
from repro.keys.encoding import encode_u64
from repro.memory.allocator import TrackingAllocator
from repro.memory.cost_model import CostModel
from repro.obs import Observer
from repro.registry import build_index
from repro.table.table import Table
from repro.workloads.distributions import ZipfianGenerator
from repro.workloads.iotta import IottaTraceGenerator

#: Fraction of the soft bound granted to the cache in the cached arm.
CACHE_FRACTION = 0.25


def _cache_config(bound: int) -> CacheConfig:
    return CacheConfig(
        budget_bytes=int(bound * CACHE_FRACTION),
        sketch_width=1024,
        adaptive=False,  # fixed budget: the bench isolates the cache
    )


def _run_queries(env: IndexEnv, keys: List[bytes]) -> Tuple[List, float]:
    with env.cost.measure() as delta:
        results = [env.index.lookup(key) for key in keys]
    return results, delta.weighted_cost()


# ----------------------------------------------------------------------
# YCSB-C: read-only zipfian over a u64 keyspace
# ----------------------------------------------------------------------
def _zipf_arm(
    values: List[int], queries: List[int], bound: int, cached: bool,
    observer: Optional[Observer],
) -> Dict[str, object]:
    env = make_u64_environment("elastic", size_bound_bytes=bound)
    watch(observer, env.cost)
    if cached:
        env.index.attach_cache(IndexCache(_cache_config(bound)))
    for v in values:
        tid = env.table.insert_row(v)
        env.index.insert(env.table.peek_key(tid), tid)
    keys = [encode_u64(values[i]) for i in queries]
    results, cost = _run_queries(env, keys)
    cache = env.index.cache
    return {
        "results": results,
        "cost_units": cost,
        "index_bytes": env.index.index_bytes,
        "hit_rate": cache.hit_rate if cache is not None else 0.0,
        "cache_report": cache.report().as_dict() if cache else None,
    }


# ----------------------------------------------------------------------
# IOTTA trace: 16-byte (timestamp, object id) keys
# ----------------------------------------------------------------------
def _iotta_env(bound: int) -> IndexEnv:
    cost = CostModel()
    allocator = TrackingAllocator(cost_model=cost)
    table = Table(
        key_of_row=lambda row: row.index_key(),
        row_bytes=32,
        cost_model=cost,
    )
    index = build_index(
        "elastic",
        table=table,
        allocator=allocator,
        cost=cost,
        key_width=16,
        size_bound_bytes=bound,
    )
    return IndexEnv("elastic", index, table, cost, allocator)


def _iotta_arm(
    rows, queries: List[int], bound: int, cached: bool,
    observer: Optional[Observer],
) -> Dict[str, object]:
    env = _iotta_env(bound)
    watch(observer, env.cost)
    if cached:
        env.index.attach_cache(IndexCache(_cache_config(bound)))
    keys = []
    for row in rows:
        tid = env.table.insert_row(row)
        key = row.index_key()
        env.index.insert(key, tid)
        keys.append(key)
    probe_keys = [keys[i] for i in queries]
    results, cost = _run_queries(env, probe_keys)
    cache = env.index.cache
    return {
        "results": results,
        "cost_units": cost,
        "index_bytes": env.index.index_bytes,
        "hit_rate": cache.hit_rate if cache is not None else 0.0,
        "cache_report": cache.report().as_dict() if cache else None,
    }


def run(
    n_keys: int = 20_000,
    query_count: int = 60_000,
    theta: float = 0.99,
    bound_fraction: float = 0.55,
    iotta_rows: int = 15_000,
    seed: int = 23,
    observer: Optional[Observer] = None,
) -> ExperimentResult:
    """Cache-on vs cache-off at one identical soft memory bound.

    ``bound_fraction`` scales the soft bound relative to the workload's
    unconstrained STX footprint; 0.55 puts the index deep in compact
    territory, the regime where indirect key loads dominate reads and
    the cache has something to absorb.
    """
    rng = random.Random(seed)
    stx_rate = estimate_stx_bytes_per_key()
    bound = int(n_keys * stx_rate * bound_fraction)

    values = rng.sample(range(1 << 40), n_keys)
    zipf = ZipfianGenerator(n_keys, theta=theta, seed=seed ^ 0x51)
    queries = [zipf.next() for _ in range(query_count)]

    iotta_bound = int(
        iotta_rows * stx_rate * bound_fraction * 2  # 16B keys, ~2x rate
    )
    trace = IottaTraceGenerator(
        base_rows_per_day=max(1, iotta_rows // 30),
        days=30,
        seed=seed ^ 0xA5,
    )
    rows = list(trace.rows(limit=iotta_rows))
    iotta_zipf = ZipfianGenerator(
        len(rows), theta=theta, seed=seed ^ 0x77
    )
    iotta_queries = [iotta_zipf.next() for _ in range(query_count // 2)]

    arms = {
        "zipf": {
            "off": _zipf_arm(values, queries, bound, False, observer),
            "on": _zipf_arm(values, queries, bound, True, observer),
        },
        "iotta": {
            "off": _iotta_arm(rows, iotta_queries, iotta_bound, False,
                              observer),
            "on": _iotta_arm(rows, iotta_queries, iotta_bound, True,
                             observer),
        },
    }

    result = ExperimentResult(
        "cache_adaptive",
        f"budget-aware adaptive cache at equal total memory: YCSB-C "
        f"zipfian(theta={theta}) over {n_keys} keys under a "
        f"{bound} B bound, and an IOTTA-like trace of {iotta_rows} rows; "
        f"{query_count} point queries per workload",
        x_label="workload (0=zipf, 1=iotta)",
    )
    result.xs = [0, 1]
    meta: Dict[str, object] = {}
    identical = True
    for i, workload in enumerate(("zipf", "iotta")):
        off, on = arms[workload]["off"], arms[workload]["on"]
        same = off["results"] == on["results"]
        identical = identical and same
        saving = 1.0 - on["cost_units"] / off["cost_units"]
        meta[f"{workload}_base_cost_units"] = off["cost_units"]
        meta[f"{workload}_cached_cost_units"] = on["cost_units"]
        meta[f"{workload}_cost_saving"] = saving
        meta[f"{workload}_hit_rate"] = on["hit_rate"]
        meta[f"{workload}_cache_report"] = on["cache_report"]
        result.add_row(
            f"{workload} cost units",
            f"off {off['cost_units']:.0f} vs on {on['cost_units']:.0f} "
            f"({saving * 100:+.1f}% saving at equal total memory)",
        )
        result.add_row(
            f"{workload} cache",
            f"hit rate {on['hit_rate'] * 100:.1f}%, "
            f"{on['cache_report']['bytes_used']} B of "
            f"{on['cache_report']['budget_bytes']} B budget, "
            f"index {on['index_bytes']} B (off arm {off['index_bytes']} B)",
        )
    result.add_series(
        "cache off cost units",
        [arms["zipf"]["off"]["cost_units"],
         arms["iotta"]["off"]["cost_units"]],
    )
    result.add_series(
        "cache on cost units",
        [arms["zipf"]["on"]["cost_units"],
         arms["iotta"]["on"]["cost_units"]],
    )
    result.add_row(
        "results identical",
        "yes" if identical else "NO — CACHE RETURNED WRONG ANSWERS",
    )
    meta["results_identical"] = identical
    result.meta = meta  # type: ignore[attr-defined]
    return result
