"""Prefetch-wave (memory-level parallelism) pricing across read paths.

Loads ``n_keys`` uniform 64-bit keys into each index, then answers the
same ``query_count`` uniform point lookups three ways:

* **scalar** — a loop of ``index.lookup`` calls: every descent line and
  verify load priced serially (dependent-load rates);
* **batched** — ``BatchExecutor.get_batch`` with no wave width (W=1):
  today's descent-sharing economy, where only indirect key loads take
  the flat ``key_load_batched`` MLP discount;
* **wave-priced** — the same batched execution under
  ``CostModel.mlp_window`` widths from ``widths``: all independent
  loads (subtree descents, leaf accesses, verify loads) grouped into
  waves of W outstanding misses, charged max-of-wave plus a per-wave
  issue fee.

Result sets must be byte-identical across all arms — wave pricing is an
accounting change, never an execution change — and an explicit
``mlp_width=1`` executor arm must reproduce the plain batched counts
exactly (the serial-passthrough contract that keeps every pre-wave
BENCH baseline byte-identical).  Both invariants are asserted here and
re-checked by ``scripts/check_bench_regression.py``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.bench.batch import _build
from repro.bench.harness import ExperimentResult, measure
from repro.obs import Observer
from repro.exec import BatchExecutor

DEFAULT_WIDTHS = (1, 2, 3, 4, 8)
#: The blindi-family member used as the third kind: every leaf compact,
#: so batched lookups are dominated by indirect verify loads.
DEFAULT_INDEXES = ("elastic", "stx", "seqtree128")


def run(
    n_keys: int = 50_000,
    query_count: int = 4096,
    widths: Sequence[int] = DEFAULT_WIDTHS,
    indexes: Sequence[str] = DEFAULT_INDEXES,
    seed: int = 13,
    batch_size: int = 256,
    observer: Optional[Observer] = None,
) -> ExperimentResult:
    """Scalar vs batched vs wave-priced lookup cost across wave widths."""
    result = ExperimentResult(
        "mlp_waves",
        f"prefetch-wave pricing: {query_count} uniform point queries over "
        f"{n_keys} keys, batch={batch_size}",
        x_label="wave width",
    )
    result.xs = list(widths)
    summary: Dict[str, Dict[str, object]] = {}
    for kind in indexes:
        env, keys = _build(kind, n_keys, seed, observer)
        rng = random.Random(seed ^ 0x5A5A)
        queries = [keys[rng.randrange(len(keys))] for _ in range(query_count)]
        expected = [env.index.lookup(k) for k in queries]

        m_scalar = measure(
            env.cost, query_count,
            lambda: [env.index.lookup(k) for k in queries],
        )

        # Plain batched arm (no wave machinery touched at all).
        plain = BatchExecutor(env.index, max_batch=batch_size)
        m_plain = measure(
            env.cost, query_count, lambda: plain.get_batch(queries)
        )

        per_width: Dict[str, float] = {}
        wave_costs: List[float] = []
        results_identical = True
        w1_exact = True
        for width in widths:
            executor = BatchExecutor(
                env.index, max_batch=batch_size, mlp_width=width
            )
            got = executor.get_batch(queries)
            if got != expected:
                results_identical = False
            m_wave = measure(
                env.cost, query_count, lambda: executor.get_batch(queries)
            )
            if width == 1 and m_wave.counts != m_plain.counts:
                w1_exact = False
            per_width[str(width)] = m_wave.cost_units
            wave_costs.append(m_wave.cost_units)
        result.add_series(f"{kind} wave cost units", wave_costs)
        result.add_series(
            f"{kind} scalar cost units", [m_scalar.cost_units] * len(widths)
        )
        result.add_series(
            f"{kind} batched cost units", [m_plain.cost_units] * len(widths)
        )

        cost_w4 = per_width.get("4", wave_costs[-1])
        saving_vs_batched = 1.0 - cost_w4 / m_plain.cost_units
        saving_vs_scalar = 1.0 - cost_w4 / m_scalar.cost_units
        summary[kind] = {
            "scalar_cost_units": m_scalar.cost_units,
            "batched_cost_units": m_plain.cost_units,
            "per_width_cost_units": per_width,
            "saving_at_w4_vs_batched": saving_vs_batched,
            "saving_at_w4_vs_scalar": saving_vs_scalar,
            "results_identical": results_identical,
            "w1_exact": w1_exact,
            "mlp_waves": env.cost.mlp_totals.waves,
            "mlp_loads": env.cost.mlp_totals.loads,
        }
        result.add_row(
            f"{kind} @W=4",
            f"cost -{saving_vs_batched * 100:.1f}% vs batched, "
            f"-{saving_vs_scalar * 100:.1f}% vs scalar, "
            f"identical={results_identical}, w1_exact={w1_exact}",
        )
    result.meta = summary  # type: ignore[attr-defined]
    return result
