"""Smoke tests: every experiment driver runs end-to-end at tiny scale.

The full-shape assertions live in ``benchmarks/``; these only guarantee
that ``pytest tests/`` alone exercises every driver's code path and that
the results are structurally sane.
"""

import hashlib
import math
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.bench import (
    ablation,
    fig1,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    latency,
    sec61,
    sec64,
)


def assert_sane(result, min_series=1):
    assert result.experiment_id
    assert len(result.series) >= min_series
    for series in result.series:
        assert len(series.ys) == len(result.xs) or not result.xs
        for y in series.ys:
            assert y == y or math.isnan(y)  # finite or explicit NaN pad
    assert result.render()


def test_fig1_driver():
    assert_sane(fig1.run(days=20))


def test_fig5_driver():
    result = fig5.run(n_items=2_000, indexes=("stx", "elastic"))
    assert_sane(result, min_series=10)
    assert len(result.xs) == 20


def test_fig6_driver():
    result = fig6.run(load_n=1_200, txn_n=1_500, workloads=("A",),
                      distributions=("zipfian",),
                      indexes=("stx", "elastic75"))
    assert_sane(result, min_series=2)


def test_event_dirs_log_only_state_changes(tmp_path):
    """fig1/fig5/fig6 with ``events_dir``: every file is written, every
    logged kind is a kept (state-change) kind, ``seq`` strictly rises,
    and the fig1/fig5 timelines carry their pressure transitions."""
    from tests.test_obs import KEPT_KINDS

    out = str(tmp_path)
    fig1.run(days=20, events_dir=out)
    fig5.run(n_items=3_000, indexes=("elastic",), events_dir=out)
    fig6.run(load_n=1_500, txn_n=1_500, workloads=("A",),
             distributions=("uniform",), indexes=("elastic50",),
             events_dir=out)
    for name in ("fig1", "fig5", "fig6"):
        records = obs.read_event_log(tmp_path / f"{name}_events.jsonl")
        assert records
        assert {record["kind"] for record in records} <= KEPT_KINDS
        seqs = [record["seq"] for record in records]
        assert all(a < b for a, b in zip(seqs, seqs[1:]))
        metrics = (tmp_path / f"{name}_metrics.prom").read_text()
        assert "repro_leaf_conversions_total" in metrics
    for name in ("fig1", "fig5"):
        rows = obs.read_event_log(
            tmp_path / f"{name}_pressure_timeline.jsonl"
        )
        assert any(row["kind"] == "pressure_transition" for row in rows)
        assert any(row["kind"] == "sample" for row in rows)


#: The ``events_dir`` calls pinned by :data:`EVENT_DIGESTS`.
EVENT_CALLS = {
    "fig1": "fig1.run(days=20, events_dir=OUT)",
    "fig5": "fig5.run(n_items=3_000, indexes=('elastic',), events_dir=OUT)",
    "fig6": "fig6.run(load_n=1_500, txn_n=1_500, workloads=('A',), "
            "distributions=('uniform',), indexes=('elastic50',), "
            "events_dir=OUT)",
}

#: sha256 of every file each call writes, recorded when events were
#: published on a process-wide bus; observers on the ledgers must
#: reproduce them byte for byte.
EVENT_DIGESTS = {
    "fig1": {
        "fig1_events.jsonl": "113ced1dbca3e35912050e804d4b7ec1"
                             "399d5b1b3468951e18ca1f0c13922801",
        "fig1_metrics.prom": "512f3634502975c0ca83d2f840d6c1a8"
                             "d7fe855870650f81859fae26870bbb0c",
        "fig1_pressure_timeline.jsonl": "6258e36a330885a29aa5d113dbaa3a77"
                                        "3317f29d8d6936a1039848fe7b58ee1d",
    },
    "fig5": {
        "fig5_events.jsonl": "faada17c0cd8fb884880d7b496eaf0c0"
                             "c414bd64282c1391366b87262c4a4b9e",
        "fig5_metrics.prom": "431a01fd5855858df098d5a81925bb69"
                             "080f48caa3e0f2f800a7c28ad8b83c88",
        "fig5_pressure_timeline.jsonl": "ff692d821189fa8cb0064802fdc7d889"
                                        "3518356eb00843e4bb6ac40d94cb6718",
    },
    "fig6": {
        "fig6_events.jsonl": "b87e1ece9c61ba6b39384521993e1d85"
                             "a08dbc68cacffb5c44b2f87d211a1089",
        "fig6_metrics.prom": "37e77f9664b4c9969670499f2985d9dd"
                             "27421a977279258287ea3cac23f6c3c1",
    },
}


@pytest.mark.parametrize("name", sorted(EVENT_CALLS))
def test_event_artifacts_are_pinned(name, tmp_path):
    """Each call runs in a fresh interpreter: node ids are process-wide,
    so a run's artifacts depend on what ran before it in the process."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    script = (f"from repro.bench import {name}\nOUT = {str(tmp_path)!r}\n"
              f"{EVENT_CALLS[name]}\n")
    subprocess.run([sys.executable, "-c", script], check=True,
                   env=dict(os.environ, PYTHONPATH=src),
                   stdout=subprocess.DEVNULL)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert digests == EVENT_DIGESTS[name]


def test_fig7_driver():
    result = fig7.run(load_n=1_000, op_n=400, threads=(1, 4))
    assert_sane(result, min_series=6)


def test_fig8_driver():
    result = fig8.run(rows_n=2_000, lookups=100, scans=5,
                      indexes=("stx", "elastic50", "hot"))
    assert_sane(result, min_series=3)


def test_fig9_driver():
    result = fig9.run(n=600, leaf_slots=(32,), max_level=3)
    assert_sane(result, min_series=2)


def test_fig10_driver():
    assert_sane(fig10.run(n=600, leaf_slots=(32,)), min_series=3)


def test_fig11_driver():
    result = fig11.run(n=600, leaf_slots=(16,), slacks=(None, 4))
    assert_sane(result, min_series=6)


def test_sec61_driver():
    result = sec61.run(base_items=800, key_widths=(8,))
    assert_sane(result, min_series=2)
    assert any("conversion" in label for label, _ in result.rows)


def test_sec64_driver():
    assert_sane(sec64.run(x_items=600, multiples=(1, 2)), min_series=2)


def test_latency_driver():
    assert_sane(latency.run(n_items=1_200), min_series=3)


def test_ablation_drivers():
    assert_sane(ablation.run_policies(n_items=1_200), min_series=3)
    assert_sane(ablation.run_representations(n_items=1_200), min_series=3)
    assert_sane(ablation.run_hysteresis(n_items=800), min_series=1)
    assert_sane(ablation.run_hosts(n_items=1_200), min_series=3)
    assert_sane(ablation.run_cold_policy(n_items=1_500), min_series=2)
    assert_sane(ablation.run_scan_lengths(n_items=1_000, lengths=(1, 10)),
                min_series=3)
