#!/usr/bin/env python3
"""A/B comparison of two sets of end-to-end benchmark results.

    python3 benchmarks/e2e/compare.py BASE_DIR CHANGE_DIR

Each directory holds the ``<workload>.seed<n>.json`` files that
``run.py --out DIR`` writes; run the same seeds on both sides, at least
ten, alternating which side runs first.  For every workload and every
end-to-end metric of ``BENCHMARK.json`` this prints each side's median
and quartiles and a verdict, following the choosing-metrics rule:

* ``improved`` -- the change is better in at least nine tenths of the
  seed-matched pairs (ties count for neither) and the medians differ by
  more than the base's own quartile spread;
* ``unresolved`` -- either side's quartile spread, as a share of its
  median, is wider than the metric's bound, unless every change run
  beats every base run;
* ``regressed`` -- the change's median is worse than the base's by more
  than the bound;
* ``unchanged`` -- anything else.

Exits 1 when any pairing regressed, else 0.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_results(directory: str) -> Dict[str, Dict[int, dict]]:
    """workload -> seed -> end-to-end metric values, untraced runs only."""
    out: Dict[str, Dict[int, dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            result = json.load(fh)
        if result.get("trace") or "workload" not in result:
            continue
        out.setdefault(result["workload"], {})[result["seed"]] = {
            name: entry["value"] for name, entry in result["metrics"].items()
        }
    return out


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: List[float], change: List[float], pairs, better: str,
            bound: float) -> str:
    """The comparison rule of the module docstring."""
    def gain(new: float, old: float) -> float:
        return new - old if better == "higher" else old - new

    b1, b_med, b3 = quartiles(base)
    c1, c_med, c3 = quartiles(change)
    spread = max((b3 - b1) / abs(b_med) if b_med else 0.0,
                 (c3 - c1) / abs(c_med) if c_med else 0.0)
    all_better = all(gain(c, b) > 0 for c in change for b in base)
    wins = sum(1 for b, c in pairs if gain(c, b) > 0)
    if (pairs and wins >= 0.9 * len(pairs) and gain(c_med, b_med) > 0
            and abs(c_med - b_med) > b3 - b1):
        return "improved"
    if spread > bound and not all_better:
        return "unresolved"
    if b_med and gain(c_med, b_med) / abs(b_med) < -bound:
        return "regressed"
    return "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark) as fh:
        metrics = json.load(fh)["end_to_end"]
    base, change = load_results(args.base), load_results(args.change)
    regressed = False
    header = (f"{'workload':<14} {'metric':<20} {'base median [q1, q3]':>32} "
              f"{'change median [q1, q3]':>32} {'delta':>8}  verdict")
    print(header)
    print("-" * len(header))
    for workload in sorted(set(base) & set(change)):
        seeds = sorted(set(base[workload]) & set(change[workload]))
        for metric in metrics:
            name = metric["name"]
            a = [r[name] for r in base[workload].values() if name in r]
            b = [r[name] for r in change[workload].values() if name in r]
            if not a or not b:
                continue
            pairs = [
                (base[workload][s][name], change[workload][s][name])
                for s in seeds
                if name in base[workload][s] and name in change[workload][s]
            ]
            result = verdict(a, b, pairs, metric["better"], metric["bound"])
            regressed = regressed or result == "regressed"
            qa, qb = quartiles(a), quartiles(b)
            delta = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            side_a = f"{qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
            side_b = f"{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]"
            print(f"{workload:<14} {name:<20} {side_a:>32} {side_b:>32} "
                  f"{delta:>+8.2%}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
