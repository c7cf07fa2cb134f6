"""Command-line runner: regenerate the paper's figures and tables.

Usage::

    python -m repro.bench --experiment all          # everything, scaled
    python -m repro.bench --experiment fig5 fig8    # a subset
    python -m repro.bench --experiment fig5 --full  # paper-closer sizes
    python -m repro.bench --outdir bench_results    # also save .txt files
    python -m repro.bench --experiment fig5 --events --outdir bench_results
                                  # + event logs / metrics / timelines

Throughputs are in operations per simulated cost unit (see
repro.memory.cost_model); shapes and ratios are the reproduction target,
not absolute numbers (DESIGN.md).
"""

from __future__ import annotations

import argparse
import os
import time

from repro import obs
from repro.bench import ablation, fig1, fig5, fig6, fig7, fig8, fig9, fig10, fig11
from repro.bench import cache, cluster, latency, learned, mlp, parallel
from repro.bench import sec61, sec64, selftune, shard, wal


def _experiments(full: bool, events_dir=None):
    scale = 4 if full else 1

    def observer():
        return obs.Observer() if events_dir is not None else None

    return {
        "fig1": lambda: fig1.run(events_dir=events_dir),
        "fig5": lambda: fig5.run(
            n_items=60_000 * scale, events_dir=events_dir
        ),
        "sec61": lambda: sec61.run(base_items=12_000 * scale),
        "fig6": lambda: fig6.run(
            load_n=15_000 * scale, txn_n=30_000 * scale,
            events_dir=events_dir,
        ),
        "fig7": lambda: fig7.run(load_n=8_000 * scale, op_n=4_000 * scale),
        "fig8": lambda: fig8.run(rows_n=30_000 * scale),
        "fig9": lambda: fig9.run(n=8_000 * scale),
        "fig10": lambda: fig10.run(n=8_000 * scale),
        "fig11": lambda: fig11.run(n=8_000 * scale),
        "sec64": lambda: sec64.run(x_items=4_000 * scale),
        "ablation-policies": lambda: ablation.run_policies(
            n_items=8_000 * scale
        ),
        "ablation-representation": lambda: ablation.run_representations(
            n_items=8_000 * scale
        ),
        "ablation-hysteresis": lambda: ablation.run_hysteresis(
            n_items=6_000 * scale
        ),
        "ablation-hosts": lambda: ablation.run_hosts(n_items=6_000 * scale),
        "ablation-cold-policy": lambda: ablation.run_cold_policy(
            n_items=8_000 * scale
        ),
        "latency": lambda: latency.run(n_items=10_000 * scale),
        "ablation-scan-length": lambda: ablation.run_scan_lengths(
            n_items=8_000 * scale
        ),
        "shard-arbiter": lambda: shard.run(
            n_big=9_000 * scale, n_small=500 * scale,
            txn_ops=12_000 * scale, events_dir=events_dir,
        ),
        "parallel-executor": lambda: parallel.run(
            n_keys=40_000 * scale, batch_ops=2_048 * scale,
            scan_ops=256 * scale,
        ),
        "cache": lambda: cache.run(
            n_keys=20_000 * scale, query_count=60_000 * scale,
            iotta_rows=15_000 * scale,
        ),
        "mlp": lambda: mlp.run(
            n_keys=50_000 * scale, query_count=4_096 * scale,
        ),
        "learned": lambda: learned.run(
            n_keys=30_000 * scale, query_count=8_192 * scale,
        ),
        "cluster": lambda: cluster.run(
            n_keys=6_000 * scale, ops=3_000 * scale,
            observer=observer(),
        ),
        "wal": lambda: wal.run(
            n_rows=4_000 * scale, observer=observer(),
        ),
        "selftune": lambda: selftune.run(scale=scale),
    }


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's evaluation figures/tables."
    )
    parser.add_argument(
        "--experiment",
        nargs="+",
        default=["all"],
        help="experiment ids (or 'all'); see DESIGN.md's experiment index",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="4x larger workloads (slower, closer to the paper's scale)",
    )
    parser.add_argument(
        "--outdir",
        default=None,
        help="directory to save rendered .txt results into",
    )
    parser.add_argument(
        "--markdown",
        default=None,
        help="also write a combined markdown report to this path",
    )
    parser.add_argument(
        "--events",
        action="store_true",
        help="observe the event-capable experiments (fig1/fig5/fig6 "
        "dump JSON-lines event logs, Prometheus snapshots and pressure "
        "timelines, shard-arbiter its rebalance log, cluster and wal "
        "an event-mix row) into the output directory",
    )
    args = parser.parse_args()
    events_dir = None
    if args.events:
        events_dir = args.outdir if args.outdir else "bench_results"
    experiments = _experiments(args.full, events_dir=events_dir)
    names = (
        list(experiments) if args.experiment == ["all"] else args.experiment
    )
    for name in names:
        if name not in experiments:
            parser.error(
                f"unknown experiment {name!r}; choose from "
                f"{', '.join(experiments)}"
            )
    if args.outdir:
        os.makedirs(args.outdir, exist_ok=True)
    collected = []
    for name in names:
        started = time.time()
        result = experiments[name]()
        elapsed = time.time() - started
        print(result.render())
        print(f"[{name} took {elapsed:.1f}s]\n")
        collected.append(result)
        if args.outdir:
            result.save(os.path.join(args.outdir, f"{name}.txt"))
    if args.markdown:
        from repro.bench.report import save_report

        save_report(
            collected,
            args.markdown,
            title="Elastic Indexes reproduction — measured results",
            preamble=(
                "Throughputs are operations per simulated cost unit; "
                "memory is byte-exact structural accounting (see "
                "DESIGN.md)."
            ),
        )
        print(f"markdown report written to {args.markdown}")


if __name__ == "__main__":
    main()
