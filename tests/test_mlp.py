"""Differential tests for prefetch-wave (MLP) pricing across read paths.

The wave model is an *accounting* change, never an execution change —
so every test here is differential: run the same workload scalar,
batched, and wave-priced, and pin that

* result sets are byte-identical across all arms and widths;
* ``mlp_width=1`` reproduces the plain batched cost counts exactly
  (the serial-passthrough contract behind every pre-wave baseline);
* widths >= 2 price batched descents strictly below scalar pricing;
* wave windows compose with the parallel executor's critical-path
  ledger without double-discounting (DESIGN.md §10): wave-priced
  parallel execution returns identical results at no more cost than
  wave-priced serial execution, and no counter — global or tagged —
  ever goes negative.
"""

from __future__ import annotations

import random
from typing import List

import pytest

from repro import obs
from repro.bench import mlp
from repro.bench.harness import make_u64_environment
from repro.db.database import Database
from repro.engine import ParallelShardExecutor, build_sharded_index
from repro.exec import BatchExecutor
from repro.keys.encoding import encode_u64
from repro.memory.cost_model import CostModel
from repro.table.table import RowSchema, Table
from repro.tools import mlp_summary

KINDS = ("elastic", "stx", "seqtree128")


def _env(name: str, **kwargs):
    if name == "elastic" and "size_bound_bytes" not in kwargs:
        kwargs["size_bound_bytes"] = 1 << 22
    return make_u64_environment(name, **kwargs)


def _loaded(name: str, n: int = 3000, seed: int = 11):
    env = _env(name)
    rng = random.Random(seed)
    values = sorted({rng.getrandbits(48) for _ in range(n)})
    pairs = [(encode_u64(v), env.table.insert_row(v)) for v in values]
    for key, tid in pairs:
        env.index.insert(key, tid)
    probes = [encode_u64(rng.getrandbits(48)) for _ in range(300)]
    probes += [pairs[rng.randrange(len(pairs))][0] for _ in range(300)]
    return env, probes


class TestWaveDifferential:
    @pytest.mark.parametrize("kind", KINDS)
    def test_results_identical_across_widths(self, kind):
        env, probes = _loaded(kind)
        expected = [env.index.lookup(k) for k in probes]
        for width in (1, 2, 3, 4, 8):
            executor = BatchExecutor(
                env.index, max_batch=128, mlp_width=width
            )
            assert executor.get_batch(probes) == expected, width

    @pytest.mark.parametrize("kind", KINDS)
    def test_width_one_matches_plain_batched_counts(self, kind):
        env, probes = _loaded(kind)
        plain = BatchExecutor(env.index, max_batch=128)
        with env.cost.measure() as plain_delta:
            plain.get_batch(probes)
        w1 = BatchExecutor(env.index, max_batch=128, mlp_width=1)
        with env.cost.measure() as w1_delta:
            w1.get_batch(probes)
        assert w1_delta.counts == plain_delta.counts
        assert w1.stats.mlp_loads == 0 and w1.stats.mlp_waves == 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_waves_strictly_cheaper_than_scalar(self, kind):
        env, probes = _loaded(kind)
        with env.cost.measure() as scalar_delta:
            for k in probes:
                env.index.lookup(k)
        scalar = scalar_delta.weighted_cost()
        previous = scalar
        for width in (2, 4):
            executor = BatchExecutor(
                env.index, max_batch=128, mlp_width=width
            )
            with env.cost.measure() as wave_delta:
                executor.get_batch(probes)
            waved = wave_delta.weighted_cost()
            assert waved < scalar, (kind, width)
            assert waved <= previous + 1e-9, (kind, width)
            previous = waved
            assert executor.stats.mlp_loads > 0
            assert executor.stats.mlp_waves > 0
            assert executor.stats.mlp_saved_units > 0.0

    def test_scan_batch_results_identical_and_wave_priced(self):
        env, _ = _loaded("elastic")
        rng = random.Random(23)
        starts = [encode_u64(rng.getrandbits(48)) for _ in range(60)]
        expected = [env.index.scan(start, 15) for start in starts]
        executor = BatchExecutor(env.index, max_batch=16, mlp_width=4)
        assert executor.scan_batch(starts, 15) == expected
        assert executor.stats.mlp_loads > 0


class TestBatchExecutorValidation:
    def test_rejects_nonpositive_width(self):
        env, _ = _loaded("stx", n=50)
        with pytest.raises(ValueError):
            BatchExecutor(env.index, mlp_width=0)

    def test_requires_a_cost_model(self):
        class Bare:
            def lookup_batch(self, keys):
                return [None] * len(keys)

        with pytest.raises(ValueError):
            BatchExecutor(Bare(), mlp_width=4)
        # Without a width the same index is fine (fallback dispatch).
        BatchExecutor(Bare())


class TestParallelInteraction:
    """Wave windows inside the critical-path ledger (DESIGN.md §10)."""

    def _sharded(self, executor=None, shards=4):
        cost = CostModel()
        table = Table(encode_u64, row_bytes=32, cost_model=cost)
        index = build_sharded_index(
            "stx", table=table, cost=cost, key_width=8, n_shards=shards,
            partitioner="hash", executor=executor,
        )
        rng = random.Random(31)
        values = sorted({rng.getrandbits(48) for _ in range(2500)})
        for v in values:
            index.insert(encode_u64(v), table.insert_row(v))
        probes = [encode_u64(rng.getrandbits(48)) for _ in range(256)]
        probes += [encode_u64(v) for v in rng.sample(values, 256)]
        return index, cost, probes

    def test_no_double_discount_and_no_negative_residues(self):
        serial_index, serial_cost, probes = self._sharded()
        parallel_index, parallel_cost, _ = self._sharded(
            executor=ParallelShardExecutor(workers=4)
        )
        with serial_cost.using_mlp_width(4):
            with serial_cost.measure() as serial_delta:
                serial_results = serial_index.lookup_batch(probes)
        with parallel_cost.using_mlp_width(4):
            with parallel_cost.measure() as parallel_delta:
                parallel_results = parallel_index.lookup_batch(probes)
        assert parallel_results == serial_results
        # Critical-path rebates subtract wave-priced deltas whole
        # (fees included): the discounts compose, so the parallel run
        # never exceeds the wave-priced serial cost, and rebating never
        # drives any counter negative.
        assert parallel_delta.weighted_cost() <= \
            serial_delta.weighted_cost() + 1e-9
        for ledger in (parallel_cost.counts, *parallel_cost.tagged.values()):
            for category, count in ledger.items():
                assert count >= 0, (category, ledger)

    def test_width_one_parallel_matches_plain_parallel(self):
        a_index, a_cost, probes = self._sharded(
            executor=ParallelShardExecutor(workers=4)
        )
        b_index, b_cost, _ = self._sharded(
            executor=ParallelShardExecutor(workers=4)
        )
        with a_cost.measure() as plain_delta:
            a_index.lookup_batch(probes)
        with b_cost.using_mlp_width(1):
            with b_cost.measure() as w1_delta:
                b_index.lookup_batch(probes)
        assert w1_delta.counts == plain_delta.counts


class TestObsVisibility:
    def test_wave_events_and_metrics_when_enabled(self):
        env, probes = _loaded("elastic", n=1500)
        executor = BatchExecutor(env.index, max_batch=128, mlp_width=4)
        observer = obs.Observer()
        observer.watch(env.cost)
        executor.get_batch(probes)
        observer.close()
        totals = env.cost.mlp_totals
        assert totals.loads > totals.waves > 0
        assert executor.stats.mlp_waves == totals.waves
        assert executor.stats.mlp_loads == totals.loads
        assert executor.stats.mlp_saved_units == totals.saved_units > 0
        # Waves are counted on the cost model, never published.
        assert not observer.events

        db = Database()
        table = db.create_table(RowSchema("t", ("a",), (8,)))
        table.create_index("by_a", ("a",))
        table.insert_batch([(v,) for v in range(0, 3000, 3)])
        with db.cost.using_mlp_width(4):
            table.get_batch("by_a", [(v,) for v in range(0, 3000, 7)])
        totals = db.cost.mlp_totals
        assert totals.waves > 0
        lines = db.metrics_snapshot().splitlines()
        assert f"repro_mlp_waves_total {totals.waves}" in lines
        assert f"repro_mlp_loads_total {totals.loads}" in lines
        assert (
            f"repro_mlp_units_saved_total {totals.saved_units:.10g}"
        ) in lines

    def test_no_wave_events_at_width_one(self):
        env, probes = _loaded("stx", n=800)
        executor = BatchExecutor(env.index, max_batch=128, mlp_width=1)
        observer = obs.Observer()
        observer.watch(env.cost)
        executor.get_batch(probes)
        observer.close()
        assert not observer.events
        assert env.cost.mlp_totals.waves == env.cost.mlp_totals.loads == 0
        assert executor.stats.mlp_waves == 0


class TestDriverAndTools:
    def test_driver_smoke_meta_contract(self):
        result = mlp.run(
            n_keys=2000, query_count=256, widths=(1, 2, 4),
            indexes=("elastic", "stx"), seed=7, batch_size=64,
        )
        assert result.xs == [1, 2, 4]
        for kind in ("elastic", "stx"):
            meta = result.meta[kind]
            assert meta["results_identical"] is True
            assert meta["w1_exact"] is True
            per_width = meta["per_width_cost_units"]
            assert per_width["4"] < meta["scalar_cost_units"]
            assert per_width["2"] < meta["scalar_cost_units"]
            assert per_width["4"] < meta["batched_cost_units"]

    def test_mlp_summary_renders_totals(self):
        env, probes = _loaded("stx", n=800)
        executor = BatchExecutor(env.index, max_batch=128, mlp_width=4)
        executor.get_batch(probes)
        text = mlp_summary(env.index)
        assert "loads wave-priced" in text
        assert "saving vs serial" in text
        assert mlp_summary(env.cost) == text

    def test_mlp_summary_idle_model(self):
        text = mlp_summary(CostModel())
        assert "loads wave-priced   0" in text
        assert "saving vs serial" not in text
