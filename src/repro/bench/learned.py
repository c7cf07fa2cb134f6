"""Three-point elastic frontier: full vs compact vs learned leaves.

Loads ``n_keys`` uniform 64-bit keys (shuffled insert order) into five
index arms and answers the same two read workloads on each:

* **full** — elastic tree with an effectively unbounded budget: every
  leaf stays standard (the speed end of the frontier);
* **compact** — the same build bulk-converted to blind-trie compact
  leaves (the space end);
* **learned** — the same build bulk-converted to FITing-Tree learned
  leaves (the third point: model-guided probes over indirect keys);
* **elastic-2way** — a tight soft bound with the default
  ``leaf_kinds=("standard", "compact")`` lattice, built with sorted
  query sweeps interleaved into the insert stream (so the conversion
  policy sees realistic leaf heat);
* **elastic-3way** — the same bound and build with ``leaf_kinds=
  ("standard", "compact", "learned")``: hot leaves convert to learned,
  cold ones to compact.

Workloads: a **sorted-probe** sweep (every key once, in order, through
``BatchExecutor`` — the regime learned leaves are built for) and a
**zipfian** point-query mix (``ScrambledZipfianGenerator``).  Result
sets must be identical on every arm — leaf representation is a cost/
space trade, never a correctness one.

The acceptance contract re-checked by
``scripts/check_bench_regression.py``:

* learned leaves cost strictly fewer units per sorted-probe lookup than
  compact leaves, in strictly less memory than full leaves — a real
  third point, not a dominated one;
* the 3-way elastic arm is never worse than the 2-way arm on either
  workload at the same soft bound;
* building the 2-way arm with an explicit ``leaf_kinds=("standard",
  "compact")`` reproduces the default-config cost event counts and
  bytes exactly (the learned-off passthrough that keeps every pre-
  registry BENCH baseline byte-identical).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.bench.harness import (
    ExperimentResult,
    IndexEnv,
    Measurement,
    make_u64_environment,
    measure,
    watch,
)
from repro.btree.stats import collect_stats
from repro.exec import BatchExecutor
from repro.obs import Observer
from repro.workloads.distributions import ScrambledZipfianGenerator

#: The three-kind conversion lattice of the 3-way arm.
THREE_KINDS = ("standard", "compact", "learned")
#: An effectively unbounded soft bound (the static arms never shrink).
UNBOUND = 1 << 40
#: Fraction of the full arm's bytes given to the elastic arms as their
#: soft bound — tight enough that the controller must convert leaves.
BOUND_FRACTION = 0.62
#: Fraction of the keys inserted before query sweeps start interleaving
#: into the build (the remainder lands on leaves with realistic heat).
PLAIN_FRACTION = 0.55


def _build_arm(
    n_keys: int,
    seed: int,
    size_bound_bytes: int,
    batch_size: int,
    interleave: bool,
    observer: Optional[Observer],
    **config_kwargs,
) -> Tuple[IndexEnv, List[bytes], List[int]]:
    """One fully loaded index arm.

    Returns ``(env, sorted_keys, expected_tids)``.  Every arm inserts
    the same shuffled key order; with ``interleave`` the tail of the
    stream is broken into chunks separated by full sorted-probe sweeps,
    so leaves carry realistic ``access_count`` heat when they overflow
    under pressure (that heat is what routes hot leaves to the learned
    kind in the 3-way lattice).
    """
    env = make_u64_environment(
        "elastic", size_bound_bytes=size_bound_bytes, **config_kwargs
    )
    watch(observer, env.cost)
    rng = random.Random(seed)
    values = list(range(n_keys))
    rng.shuffle(values)
    by_value: Dict[int, Tuple[bytes, int]] = {}

    def insert(value: int) -> None:
        tid = env.table.insert_row(value)
        key = env.table.peek_key(tid)
        env.index.insert(key, tid)
        by_value[value] = (key, tid)

    split = n_keys if not interleave else int(n_keys * PLAIN_FRACTION)
    for value in values[:split]:
        insert(value)
    if interleave:
        executor = BatchExecutor(env.index, max_batch=batch_size)
        chunk = max(256, n_keys // 16)
        for start in range(split, n_keys, chunk):
            sweep = sorted(k for k, _ in by_value.values())
            executor.get_batch(sweep)
            for value in values[start:start + chunk]:
                insert(value)
    sorted_keys = [by_value[v][0] for v in range(n_keys)]
    expected = [by_value[v][1] for v in range(n_keys)]
    return env, sorted_keys, expected


def _measure_arm(
    env: IndexEnv,
    sorted_keys: List[bytes],
    zipf_queries: List[bytes],
    batch_size: int,
) -> Tuple[Measurement, Measurement, List[Optional[int]],
           List[Optional[int]]]:
    """Warm both workloads once (letting any deferred elastic work
    settle), then measure each; returns the measurements plus the
    warm-pass result sets for the cross-arm identity check."""
    executor = BatchExecutor(env.index, max_batch=batch_size)
    sorted_got = executor.get_batch(sorted_keys)
    zipf_got = executor.get_batch(zipf_queries)
    m_sorted = measure(
        env.cost, len(sorted_keys),
        lambda: executor.get_batch(sorted_keys),
    )
    m_zipf = measure(
        env.cost, len(zipf_queries),
        lambda: executor.get_batch(zipf_queries),
    )
    return m_sorted, m_zipf, sorted_got, zipf_got


def run(
    n_keys: int = 30_000,
    query_count: int = 8_192,
    seed: int = 29,
    batch_size: int = 256,
    observer: Optional[Observer] = None,
) -> ExperimentResult:
    """Space/cost frontier across leaf kinds at equal memory budgets."""
    result = ExperimentResult(
        "learned_frontier",
        f"leaf-kind frontier: {n_keys} keys, sorted-probe sweep + "
        f"{query_count} zipf queries, batch={batch_size}",
        x_label="workload (1=sorted-probe, 2=zipf)",
    )
    result.xs = [1, 2]

    # Static arms share one unbounded build; the elastic arms share one
    # tight bound derived from the full arm's measured footprint.
    env_full, sorted_keys, expected = _build_arm(
        n_keys, seed, UNBOUND, batch_size, False, observer
    )
    bound = int(env_full.index_bytes * BOUND_FRACTION)
    arms: Dict[str, IndexEnv] = {"full": env_full}

    env, _, _ = _build_arm(n_keys, seed, UNBOUND, batch_size, False,
                           observer)
    env.index.controller.bulk_convert("compact")
    arms["compact"] = env

    env, _, _ = _build_arm(n_keys, seed, UNBOUND, batch_size, False,
                           observer, leaf_kinds=THREE_KINDS)
    env.index.controller.bulk_convert("learned")
    arms["learned"] = env

    env2, _, _ = _build_arm(n_keys, seed, bound, batch_size, True,
                            observer)
    arms["elastic-2way"] = env2
    env3, _, _ = _build_arm(n_keys, seed, bound, batch_size, True,
                            observer, leaf_kinds=THREE_KINDS)
    arms["elastic-3way"] = env3

    rng = ScrambledZipfianGenerator(n_keys, seed=seed ^ 0x2F)
    zipf_draws = [rng.next() for _ in range(query_count)]
    zipf_queries = [sorted_keys[i] for i in zipf_draws]
    zipf_expected = [expected[i] for i in zipf_draws]

    summary: Dict[str, object] = {"arms": {}, "soft_bound_bytes": bound}
    results_identical = True
    per_arm: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, Tuple[Dict[str, int], Dict[str, int]]] = {}
    for name, env in arms.items():
        m_sorted, m_zipf, sorted_got, zipf_got = _measure_arm(
            env, sorted_keys, zipf_queries, batch_size
        )
        counts[name] = (m_sorted.counts, m_zipf.counts)
        if sorted_got != expected or zipf_got != zipf_expected:
            results_identical = False
        stats = collect_stats(env.index)
        arm = {
            "index_bytes": env.index_bytes,
            "sorted_cost_units": m_sorted.cost_units,
            "sorted_cost_per_lookup": m_sorted.cost_units / len(sorted_keys),
            "zipf_cost_units": m_zipf.cost_units,
            "zipf_cost_per_lookup": m_zipf.cost_units / len(zipf_queries),
            "leaves_by_kind": dict(stats.leaves_by_kind),
        }
        per_arm[name] = arm
        summary["arms"][name] = arm  # type: ignore[index]
        result.add_series(
            f"{name} cost/lookup",
            [arm["sorted_cost_per_lookup"], arm["zipf_cost_per_lookup"]],
        )
        result.add_row(
            name,
            f"{env.index_bytes} B, "
            f"{arm['sorted_cost_per_lookup']:.4f} u/sorted-probe, "
            f"{arm['zipf_cost_per_lookup']:.4f} u/zipf, "
            f"kinds={stats.leaves_by_kind}",
        )

    # Learned-off passthrough: spelling the default lattice explicitly
    # must reproduce the default build's event counts and bytes exactly.
    env_off, _, _ = _build_arm(
        n_keys, seed, bound, batch_size, True, observer,
        leaf_kinds=("standard", "compact"),
    )
    m_off_sorted, m_off_zipf, off_sorted_got, off_zipf_got = _measure_arm(
        env_off, sorted_keys, zipf_queries, batch_size
    )
    env2_m = per_arm["elastic-2way"]
    # Compare the measured event-count dicts directly — the real
    # byte-identity check (weighted costs follow from the counts).
    learned_off_exact = (
        env_off.index_bytes == env2_m["index_bytes"]
        and off_sorted_got == expected
        and off_zipf_got == zipf_expected
        and m_off_sorted.counts == counts["elastic-2way"][0]
        and m_off_zipf.counts == counts["elastic-2way"][1]
    )

    learned_mem_lt_full = (
        per_arm["learned"]["index_bytes"] < per_arm["full"]["index_bytes"]
    )
    learned_cost_lt_compact = (
        per_arm["learned"]["sorted_cost_per_lookup"]
        < per_arm["compact"]["sorted_cost_per_lookup"]
    )
    eps = 1e-9
    elastic3_not_worse = (
        per_arm["elastic-3way"]["sorted_cost_per_lookup"]
        <= per_arm["elastic-2way"]["sorted_cost_per_lookup"] * (1 + eps)
        and per_arm["elastic-3way"]["zipf_cost_per_lookup"]
        <= per_arm["elastic-2way"]["zipf_cost_per_lookup"] * (1 + eps)
    )
    summary.update(
        results_identical=results_identical,
        learned_mem_lt_full=learned_mem_lt_full,
        learned_cost_lt_compact=learned_cost_lt_compact,
        elastic3_not_worse=elastic3_not_worse,
        learned_off_exact=learned_off_exact,
    )
    result.add_row(
        "contract",
        f"identical={results_identical}, "
        f"learned<full mem={learned_mem_lt_full}, "
        f"learned<compact cost={learned_cost_lt_compact}, "
        f"3way<=2way={elastic3_not_worse}, "
        f"learned-off exact={learned_off_exact}",
    )
    result.meta = summary  # type: ignore[attr-defined]
    return result
