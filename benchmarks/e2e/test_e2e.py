"""Tests of the end-to-end benchmark itself: ``pytest benchmarks/e2e``.

The smoke runs use the ``--quick`` sizes; each workload runs in its own
interpreter, as the benchmark always does.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import layertrace  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.memory.cost_model import CostModel  # noqa: E402

SEED = 3


def _run_all(out_dir, trace):
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick",
         "--seconds", "0", "--seed", str(SEED), "--trace", str(trace),
         "--out", str(out_dir)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - started
    results = {}
    suffix = ".trace.json" if trace else ".json"
    for name in run.WORKLOAD_NAMES:
        with open(os.path.join(out_dir, f"{name}.seed{SEED}{suffix}")) as fh:
            results[name] = json.load(fh)
    return done, elapsed, results


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _run_all(tmp_path_factory.mktemp("untraced"), trace=0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _run_all(tmp_path_factory.mktemp("traced"), trace=1)


def test_quick_smoke_of_all_workloads(untraced):
    done, elapsed, results = untraced
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 30
    last_lines = [
        json.loads(line) for line in done.stdout.splitlines()
        if line.startswith("{")
    ]
    assert len(last_lines) == len(run.WORKLOAD_NAMES)
    for line in last_lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        assert set(line["metrics"]) == set(measure.END_TO_END)
        for name, entry in line["metrics"].items():
            assert entry["unit"] == measure.END_TO_END[name]
            assert entry["value"] > 0
    for result in results.values():
        assert result["extra"]["failed_ops_frac"] == 0


def test_parts_merge_into_one_result(tmp_path):
    parts = []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--part",
             "--workload", "point_tight", "--quick", "--seconds", "0",
             "--seed", str(SEED), "--out", str(tmp_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        parts.append(json.loads(done.stdout))
    # Two interpreters, one op stream: the modeled numbers agree.
    assert parts[0]["index_bytes"] == parts[1]["index_bytes"]
    assert measure.report(parts, "point_tight", SEED, 0.0, False, True,
                          str(tmp_path)) == 0
    with open(tmp_path / f"point_tight.seed{SEED}.json") as fh:
        result = json.load(fh)
    assert result["attempted"] == sum(p["attempted"] for p in parts)
    setups = sorted(p["setup_s"] for p in parts)
    assert result["end_to_end"]["setup_s"] == sum(setups) / 2
    assert len(result["parts"]) == 2


def test_same_seed_gives_identical_op_streams():
    for cls in workloads.WORKLOADS.values():
        first, second = cls(SEED, quick=True), cls(SEED, quick=True)
        assert first.rows == second.rows
        for _ in range(2):
            assert first.next_round() == second.next_round()
        other = cls(SEED + 1, quick=True)
        assert other.rows != first.rows


def test_modeled_metrics_repeat_and_tracing_leaves_them_alone(untraced, traced):
    # Separate processes, and the traced run traces every other modeled
    # round: the modeled numbers must still agree exactly.
    for name in run.WORKLOAD_NAMES:
        plain = untraced[2][name]["end_to_end"]
        with_trace = traced[2][name]["end_to_end"]
        assert plain["units_per_op"] == with_trace["units_per_op"], name
        assert (plain["index_bytes_per_key"]
                == with_trace["index_bytes_per_key"]), name


def test_traced_run_reports_every_per_layer_metric(traced):
    done, _, results = traced
    assert done.returncode == 0, done.stdout + done.stderr
    for result in results.values():
        assert result["correct"]
        assert set(result["metrics"]) == set(measure.PER_LAYER)


def test_ledger_sums_to_the_modeled_total(traced):
    for name, result in traced[2].items():
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(
            metrics[f"{layer}.self_units_per_op"]
            for layer in layertrace.LAYER_NAMES
        )
        total = result["extra"]["traced_units_per_op"]
        residue = metrics["memory.unattributed_units_per_op"]
        assert layers + residue == pytest.approx(total, rel=1e-9), name
        if name in ("point_tight", "churn_cycle"):
            # Nothing rebates here, so every unit lands in some layer.
            assert residue == 0, name
        else:
            assert residue < 0, name  # critical-path and what-if rebates


def test_workloads_reach_the_layers_they_were_built_for(traced):
    m = {
        name: {k: v["value"] for k, v in result["metrics"].items()}
        for name, result in traced[2].items()
    }
    point = m["point_tight"]
    assert point["core.index.compact_leaf_fraction"] >= 0.5
    assert point["core.elasticity.conversions_per_kop"] < 1
    for layer in ("wal", "cluster", "cache"):
        assert point[f"{layer}.calls_per_op"] == 0
    assert m["batch_roomy"]["core.index.compact_leaf_fraction"] == 0
    assert m["batch_roomy"]["cache.hit_rate"] <= 0.05
    assert m["oltp_composed"]["cache.hit_rate"] >= 0.3
    for rec in traced[2]["churn_cycle"]["parts"][0]["rounds"]:
        assert rec["conversions"] > 0 and rec["reversions"] > 0


def test_tracer_restores_every_wrapped_method():
    def snapshot():
        return {
            (cls, name): vars(cls)[name]
            for _, specs in layertrace.LAYERS
            for cls in map(layertrace._resolve, specs)
            for name in layertrace._wrappable(cls)
        }

    wl = workloads.ChurnCycle(SEED, quick=True)
    db, table, _ = wl.setup()
    controllers = workloads.controllers(db)
    before = snapshot()
    charge = vars(CostModel)["charge"]
    tracer = layertrace.Tracer(db.cost, controllers=lambda: controllers)
    tracer.install()
    try:
        assert snapshot() != before
        table.insert((1, 2))
        assert tracer.ops == 1 and tracer.charge_calls > 0
    finally:
        tracer.uninstall()
    assert snapshot() == before
    assert vars(CostModel)["charge"] is charge
    for controller in controllers:
        hook = controller.tree.overflow_handler
        assert hook.__func__ is vars(type(controller))["_handle_overflow"]


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def verdict(change, better):
        return compare.verdict(base, change, list(zip(base, change)),
                               better, 0.1)

    assert verdict([v * 1.2 for v in base], "higher") == "improved"
    assert verdict([v * 0.8 for v in base], "higher") == "regressed"
    assert verdict([v * 0.8 for v in base], "lower") == "improved"
    assert verdict(list(base), "higher") == "unchanged"
    noisy = [50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 70.0, 130.0, 90.0, 110.0]
    assert verdict(noisy, "higher") == "unresolved"


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"][1:] == ["benchmarks/e2e/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, workloads.WORKLOADS[name].why) for name in run.WORKLOAD_NAMES
    ]
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
    for key, expected in (("end_to_end", measure.END_TO_END),
                          ("per_layer", measure.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == expected


def test_fails_without_the_program(tmp_path):
    # Only BENCHMARK.json and the benchmark's own files: nothing to
    # measure, so no result line and a non-zero exit.
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "point_tight",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
