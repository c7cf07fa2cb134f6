#!/usr/bin/env python3
"""End-to-end benchmark of the database stack, with per-layer tracing.

Run one workload, from the repository root::

    python3 benchmarks/e2e/run.py --workload point_tight --seed 1 \\
        --seconds 10 --trace 0

or all four by leaving out ``--workload``.  ``--trace 1`` (or plain
``--trace``) is a separate traced run that reports the per-layer metrics
instead of the end-to-end ones.

An untraced run measures the workload in ``PARTS`` fresh interpreters
in turn, each for its share of ``--seconds``, and merges them (see
``measure.py``); a traced or ``--quick`` run uses one.  Metric lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with every part's rounds and the raw times, goes to
``<out>/<workload>.seed<seed>[.trace].json``, and a traced run also
writes the spans of its first ops to ``<out>/<workload>.trace.jsonl``.
The exit code is 0 only when every answer was right; it is 2, with no
result printed, when the program under ``src/`` cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

WORKLOAD_NAMES = ("point_tight", "oltp_composed", "batch_roomy", "churn_cycle")

#: Interpreters an untraced full-size run is spread over.
PARTS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured time; a minimum of rounds always runs")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes")
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="directory for result files")
    parser.add_argument("--part", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _command(args, workload: str, seconds: float, part: bool):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace), "--out", args.out]
    if args.quick:
        cmd.append("--quick")
    if part:
        cmd.append("--part")
    return cmd


def run_part(args) -> int:
    """Measure one part in this interpreter; print it as one JSON line."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import measure
    except ImportError as exc:
        print(f"run.py: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    part = measure.run_part(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.quick, args.out)
    print(json.dumps(part))
    return 0


def run_workload(args) -> int:
    """Measure one workload over its parts, each in a fresh interpreter,
    one after another; then report the merged result."""
    n = 1 if (args.trace or args.quick) else PARTS
    parts = []
    for _ in range(n):
        done = subprocess.run(
            _command(args, args.workload, args.seconds / n, part=True),
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        if done.returncode != 0:
            return done.returncode
        parts.append(json.loads(done.stdout.splitlines()[-1]))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import measure

    return measure.report(parts, args.workload, args.seed, args.seconds,
                          bool(args.trace), args.quick, args.out)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.part:
        return run_part(args)
    if args.workload is not None:
        return run_workload(args)
    status = 0
    for name in WORKLOAD_NAMES:
        # One fresh interpreter per workload too: enabling self-tuning
        # turns event emission on for the whole process.
        status = status or subprocess.run(
            _command(args, name, args.seconds, part=False), cwd=ROOT
        ).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
