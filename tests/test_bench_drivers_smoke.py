"""Smoke tests: every experiment driver runs end-to-end at tiny scale.

The full-shape assertions live in ``benchmarks/``; these only guarantee
that ``pytest tests/`` alone exercises every driver's code path and that
the results are structurally sane.
"""

import math

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
