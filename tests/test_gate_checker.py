"""The cost-regression gate table in ``scripts/check_bench_regression.py``.

The script lives outside the package, so it is loaded from its path.
"""

import importlib.util
import json
import os
import sys

import pytest

SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "scripts", "check_bench_regression.py",
)
_spec = importlib.util.spec_from_file_location("check_bench_regression",
                                               SCRIPT)
gates = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = gates  # dataclasses resolve annotations here
_spec.loader.exec_module(gates)


def _baseline(name):
    with open(gates.baseline_path(name)) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", list(gates.GATES))
def test_config_is_the_stored_config(name):
    # The stored config is the driver's kwargs with tuples as lists.
    config = json.loads(json.dumps(gates.GATES[name].config))
    assert config == _baseline(name)["config"]


class TestCheckBaseline:
    def test_exact_match_passes(self):
        metrics = {"a.cost_units": 100.00001, "a.cost_saving": 0.5}
        baseline = {"a.cost_units": 100.0, "a.cost_saving": 0.5}
        assert gates.check_baseline(metrics, baseline) == []

    def test_growth_past_tolerance_is_a_regression(self):
        failures = gates.check_baseline({"a.cost_units": 130.0},
                                        {"a.cost_units": 100.0})
        assert failures == [
            "a.cost_units: 130.0 cost units vs baseline 100.0 "
            "(+30.0%, tolerance 25%)"
        ]

    @pytest.mark.parametrize("value", [100.01, 120.0, 70.0])
    def test_drift_within_tolerance_must_match_exactly(self, value):
        failures = gates.check_baseline({"a.cost_units": value},
                                        {"a.cost_units": 100.0})
        assert failures == [
            f"zero-overhead: a.cost_units = {value!r} with observability "
            "disabled, baseline 100.0 (must match exactly)"
        ]

    @pytest.mark.parametrize("name", ["a.cost_saving", "a.hit_rate"])
    def test_higher_is_better_gets_only_the_exact_match(self, name):
        # 0.5 -> 0.9 grows 80%, past the tolerance, but is no regression.
        failures = gates.check_baseline({name: 0.9}, {name: 0.5})
        assert failures == [
            f"zero-overhead: {name} = 0.9 with observability disabled, "
            "baseline 0.5 (must match exactly)"
        ]

    def test_missing_metric_fails(self):
        failures = gates.check_baseline(
            {"elastic.cost_units": 1.0, "elastic.cost_saving": 0.7},
            {"elastic.cost_units": 1.0},
        )
        assert failures == [
            "elastic.cost_saving: missing from baseline (run --update)"
        ]


def test_wal_gate_end_to_end():
    meta = gates.run_gate("wal").meta
    metrics = gates.GATES["wal"].metrics(meta)
    assert gates.check_contract("wal", meta) == []
    assert gates.check_baseline(metrics, _baseline("wal")) == []
    assert gates.enabled_replay("wal", metrics) == []

    assert gates.check_contract("wal", dict(meta, recovery_match=False)) == [
        "wal: recovered database diverged from the committed-prefix "
        "reference replay (kill + recover differential)"
    ]


def _requirement(gate, fragment):
    """The replay count of ``gate`` whose message names ``fragment``."""
    counts = [count for count, message in gates.GATES[gate].replay
              if isinstance(message, str) and fragment in message]
    assert len(counts) == 1, (gate, fragment)
    return counts[0]


_PARALLEL = {"per_shards": {"1": {"dispatches": 0, "gathers": 0},
                            "4": {"dispatches": 8, "gathers": 2}}}
_CACHE = {"zipf_cache_report": {"lookups": 9},
          "iotta_cache_report": {"lookups": 7},
          "zipf_hit_rate": 0.5, "iotta_hit_rate": 0.25}
_MLP = {kind: {"mlp_waves": 3, "mlp_loads": 12}
        for kind in gates.MLP_INDEXES}
_WAL = {"group_records": 2000, "crash_records": 90, "crash_fsyncs": 1}

#: The replay requirements read from layer stats: the gate, the stats
#: field its message names, a ``meta`` with that field set, and the key
#: path of each place the field lives (zeroed one at a time).
STATS_REQUIREMENTS = [
    ("batch", "BatchExecutor.stats.by_kind",
     {kind: {"dispatched_gets": 2048} for kind in gates.BATCH_INDEXES},
     [(kind, "dispatched_gets") for kind in gates.BATCH_INDEXES]),
    ("parallel", "ExecutorStats.dispatches", _PARALLEL,
     [("per_shards", "4", "dispatches")]),
    ("parallel", "ExecutorStats.batches", _PARALLEL,
     [("per_shards", "4", "gathers")]),
    ("cache", "CacheStats.lookups", _CACHE,
     [("zipf_cache_report", "lookups"), ("iotta_cache_report", "lookups")]),
    ("cache", "CacheStats.hit_rate", _CACHE,
     [("zipf_hit_rate",), ("iotta_hit_rate",)]),
    ("mlp", "mlp_totals.waves", _MLP,
     [(kind, "mlp_waves") for kind in gates.MLP_INDEXES]),
    ("mlp", "mlp_totals.loads", _MLP,
     [(kind, "mlp_loads") for kind in gates.MLP_INDEXES]),
    ("wal", "group-commit arm", _WAL, [("group_records",)]),
    ("wal", "appended in the crash arm", _WAL, [("crash_records",)]),
    ("wal", "WriteAheadLog.fsyncs", _WAL, [("crash_fsyncs",)]),
    ("selftune", "TuningStats.candidates_scored",
     {"scenarios": {"cold": {"candidates_scored": 4},
                    "shift": {"candidates_scored": 11}}},
     [("scenarios", "cold", "candidates_scored"),
      ("scenarios", "shift", "candidates_scored")]),
]


@pytest.mark.parametrize(
    "gate, fragment, meta, paths", STATS_REQUIREMENTS,
    ids=[f"{gate}-{fragment}" for gate, fragment, *_ in STATS_REQUIREMENTS],
)
def test_stats_requirement_fails_when_its_field_is_zero(
    gate, fragment, meta, paths
):
    count = _requirement(gate, fragment)
    assert count(None, meta)
    for path in paths:
        zeroed = json.loads(json.dumps(meta))
        target = zeroed
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = 0
        assert not count(None, zeroed), path
