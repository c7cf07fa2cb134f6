"""Benchmark-suite configuration.

Every file regenerates one of the paper's figures/tables through the
cost-model harness (wrapped in pytest-benchmark so wall-clock is also
recorded) and asserts the paper's *shape* claims — who wins, by roughly
what factor, where curves cross.  Set ``REPRO_BENCH_SCALE`` (default 1,
e.g. 4) to run closer to the paper's sizes.
"""

import os

import pytest

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))


def scaled(n: int) -> int:
    """Scale a workload size by REPRO_BENCH_SCALE."""
    return max(64, int(n * SCALE))


@pytest.fixture
def show():
    """Print an ExperimentResult (visible with ``pytest -s``) and save it
    under benchmarks/results/, a scratch directory git ignores.  The
    tracked figure outputs are ``bench_results/``, written by
    ``python -m repro.bench --outdir bench_results``."""

    def _show(result):
        print()
        print(result.render())
        outdir = os.path.join(os.path.dirname(__file__), "results")
        os.makedirs(outdir, exist_ok=True)
        result.save(os.path.join(outdir, f"{result.experiment_id}.txt"))
        return result

    return _show


def run_once(benchmark, fn, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, kwargs=kwargs, rounds=1, iterations=1)
