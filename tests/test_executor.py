"""Tests for the scatter/gather executor (repro.engine.executor).

Five contracts:

* **equivalence** — the parallel backend returns results byte-identical
  to the serial backend for every op type, shard count, and partitioner;
* **critical-path accounting** — a parallel scatter charges the max
  over concurrent waves (plus the coordination fee), strictly below the
  serial sum whenever at least two shards do real work, and exactly the
  serial cost for scatters of at most one shard;
* **inline dispatch** — sub-batches run on the calling thread, in task
  order, and no thread is started;
* **database facade** — ``create_index(parallel=...)`` builds the
  parallel backend and keeps the serial answers;
* **typed errors** — configuration mistakes raise the repro.errors
  hierarchy, which still satisfies ``except ValueError`` callers.
"""

from __future__ import annotations

import random
import threading
import warnings

import pytest

from repro import obs
from repro.db.database import Database
from repro.engine import (
    ParallelShardExecutor,
    SerialShardExecutor,
    build_sharded_index,
    make_executor,
)
from repro.engine.executor import COORDINATION_UNITS
from repro.errors import (
    IndexExistsError,
    InvalidBudgetError,
    ReplicaConfigError,
    ReproError,
    ShardConfigError,
)
from repro.keys.encoding import encode_u64
from repro.memory.cost_model import CostModel
from repro.table.table import RowSchema, Table

SCHEMA = RowSchema("log", ("ts", "obj", "size"), (8, 8, 8))


def make_rows(n, seed=3):
    rng = random.Random(seed)
    return [
        (rng.getrandbits(40), rng.getrandbits(30), rng.randrange(100))
        for _ in range(n)
    ]


def fixed_op_weight() -> float:
    cost = CostModel()
    with cost.measure() as delta:
        cost.fixed_ops(1.0)
    return delta.weighted_cost()


def make_bare_index(shards, partitioner, executor=None):
    """A bare stx ShardedIndex plus its table and cost model."""
    cost = CostModel()
    table = Table(encode_u64, row_bytes=32, cost_model=cost)
    index = build_sharded_index(
        "stx", table=table, cost=cost, key_width=8, n_shards=shards,
        partitioner=partitioner, executor=executor,
    )
    return index, table, cost


def load_values(index, table, n=1200, seed=17):
    rng = random.Random(seed)
    values = sorted({rng.getrandbits(48) for _ in range(n)})
    pairs = [(encode_u64(v), table.insert_row(v)) for v in values]
    # Point inserts route to one shard: no scatter.
    for key, tid in pairs:
        index.insert(key, tid)
    return values


def synthetic_tasks(cost, costs):
    """One callable per entry of ``costs``, each charging that many
    ``fixed_op`` units and returning ``(position, units)``."""
    def make(position, units):
        def run():
            cost.fixed_ops(units)
            return (position, units)
        return run
    return [make(i, u) for i, u in enumerate(costs)]


# ----------------------------------------------------------------------
# make_executor knob resolution
# ----------------------------------------------------------------------
class TestMakeExecutor:
    def test_falsy_means_serial_default(self):
        assert make_executor(False) is None

    def test_true_builds_default_parallel(self):
        executor = make_executor(True)
        assert isinstance(executor, ParallelShardExecutor)
        assert executor.workers == 4

    def test_int_is_worker_count(self):
        assert make_executor(3).workers == 3

    def test_instance_passthrough(self):
        executor = ParallelShardExecutor(workers=2)
        assert make_executor(executor) is executor

    def test_bad_values_rejected(self):
        with pytest.raises(ShardConfigError):
            make_executor(0)
        with pytest.raises(ShardConfigError):
            make_executor("yes")

    def test_knob_validation(self):
        with pytest.raises(ShardConfigError):
            ParallelShardExecutor(workers=0)
        with pytest.raises(ShardConfigError):
            ParallelShardExecutor(workers=-2)


# ----------------------------------------------------------------------
# Serial vs parallel equivalence (router level, every op type)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("partitioner", ["hash", "range"])
@pytest.mark.parametrize("shards", [1, 2, 8])
class TestSerialParallelEquivalence:
    def test_all_ops_identical(self, shards, partitioner):
        serial_index, serial_table, _ = make_bare_index(
            shards, partitioner, SerialShardExecutor()
        )
        executor = ParallelShardExecutor(workers=4)
        parallel_index, parallel_table, _ = make_bare_index(
            shards, partitioner, executor
        )
        rng = random.Random(23)
        values = sorted({rng.getrandbits(48) for _ in range(1500)})
        pairs_s = [
            (encode_u64(v), serial_table.insert_row(v)) for v in values
        ]
        pairs_p = [
            (encode_u64(v), parallel_table.insert_row(v)) for v in values
        ]
        assert pairs_s == pairs_p
        # Batched inserts (scattered) in shuffled chunks.
        order = list(range(len(values)))
        rng.shuffle(order)
        for i in range(0, len(order), 256):
            chunk = order[i : i + 256]
            assert serial_index.insert_sorted_batch(
                [pairs_s[j] for j in chunk]
            ) == parallel_index.insert_sorted_batch(
                [pairs_p[j] for j in chunk]
            )
        assert len(serial_index) == len(parallel_index) == len(values)

        # Batched lookups, hits and misses.
        probes = [encode_u64(rng.choice(values)) for _ in range(400)]
        probes += [encode_u64(rng.getrandbits(48)) for _ in range(50)]
        assert serial_index.lookup_batch(probes) == \
            parallel_index.lookup_batch(probes)

        # Scalar surface.
        for v in rng.sample(values, 40):
            key = encode_u64(v)
            assert serial_index.lookup(key) == parallel_index.lookup(key)
        assert serial_index.scan(encode_u64(0), 64) == \
            parallel_index.scan(encode_u64(0), 64)

        # Batched scans (scatter+merge under hash, spill under range).
        starts = [encode_u64(rng.choice(values)) for _ in range(30)]
        starts += [encode_u64(0)]
        for count in (1, 17):
            assert serial_index.scan_batch(starts, count) == \
                parallel_index.scan_batch(starts, count)

        # Removals route identically.
        for v in rng.sample(values, 25):
            key = encode_u64(v)
            assert serial_index.remove(key) == parallel_index.remove(key)
        assert serial_index.lookup_batch(probes) == \
            parallel_index.lookup_batch(probes)

    def test_insert_results_match_serial(self, shards, partitioner):
        # Duplicate keys inside one scatter resolve in input order on
        # both backends.
        executor = ParallelShardExecutor(workers=2)
        parallel_index, table, _ = make_bare_index(
            shards, partitioner, executor
        )
        serial_index, serial_table, _ = make_bare_index(shards, partitioner)
        rng = random.Random(7)
        values = [rng.getrandbits(32) for _ in range(64)]
        pairs = []
        for v in values * 3:  # every key three times
            pairs.append((encode_u64(v), table.insert_row(v)))
            serial_table.insert_row(v)
        rng.shuffle(pairs)
        assert parallel_index.insert_sorted_batch(pairs) == \
            serial_index.insert_sorted_batch(pairs)


# ----------------------------------------------------------------------
# Critical-path cost accounting
# ----------------------------------------------------------------------
class TestCriticalPath:
    def test_parallel_cheaper_than_serial_on_hash_scatter(self):
        serial_index, serial_table, serial_cost = make_bare_index(8, "hash")
        executor = ParallelShardExecutor(workers=8)
        parallel_index, parallel_table, parallel_cost = make_bare_index(
            8, "hash", executor
        )
        load_values(serial_index, serial_table)
        values = load_values(parallel_index, parallel_table)
        rng = random.Random(5)
        probes = [encode_u64(rng.choice(values)) for _ in range(512)]
        with serial_cost.measure() as serial_delta:
            expected = serial_index.lookup_batch(probes)
        with parallel_cost.measure() as parallel_delta:
            got = parallel_index.lookup_batch(probes)
        assert got == expected
        assert parallel_delta.weighted_cost() < \
            serial_delta.weighted_cost()
        stats = executor.stats
        assert stats.batches == 1
        assert stats.dispatches == 8
        assert stats.critical_path_units < stats.serial_sum_units
        assert stats.saved_units > 0

    def test_single_shard_scatter_charges_exactly_serial(self):
        # A scatter that lands on one shard takes the serial short-cut:
        # no coordination fee, identical cost units.
        serial_index, serial_table, serial_cost = make_bare_index(4, "range")
        executor = ParallelShardExecutor(workers=4)
        parallel_index, parallel_table, parallel_cost = make_bare_index(
            4, "range", executor
        )
        load_values(serial_index, serial_table)
        values = load_values(parallel_index, parallel_table)
        # Range partitioning puts a narrow key slice on one shard.
        probes = [encode_u64(v) for v in values[:64]]
        probes = [p for p in probes
                  if parallel_index.partitioner.shard_of(p)
                  == parallel_index.partitioner.shard_of(probes[0])]
        assert len(probes) > 1
        with serial_cost.measure() as serial_delta:
            serial_index.lookup_batch(probes)
        with parallel_cost.measure() as parallel_delta:
            parallel_index.lookup_batch(probes)
        assert parallel_delta.weighted_cost() == pytest.approx(
            serial_delta.weighted_cost()
        )
        assert executor.stats.batches == 0  # short-cut, not a gather

    def test_scatter_of_at_most_one_task_runs_the_serial_loop(self):
        cost = CostModel()
        unit = fixed_op_weight()
        executor = ParallelShardExecutor(workers=2)
        assert executor.run_tasks([], cost) == []
        with cost.measure() as delta:
            assert executor.run_tasks(synthetic_tasks(cost, [3]), cost) \
                == [(0, 3)]
        assert delta.weighted_cost() == pytest.approx(3 * unit)
        assert (executor.stats.batches, executor.stats.dispatches) == (0, 0)

    def test_wave_accounting_with_synthetic_tasks(self):
        # workers=2, four tasks costing [1, 5, 2, 8] fixed-op units:
        # waves (1,5) and (2,8) keep their maxima -> 5 + 8 + coordination.
        assert COORDINATION_UNITS == 0.05
        cost = CostModel()
        unit = fixed_op_weight()
        executor = ParallelShardExecutor(workers=2)
        tasks = synthetic_tasks(cost, [1, 5, 2, 8])
        with cost.measure() as delta:
            results = executor.run_tasks(tasks, cost)
        assert results == [(0, 1), (1, 5), (2, 2), (3, 8)]
        expected_units = 5 + 8 + 0.05 * 4
        assert delta.weighted_cost() == pytest.approx(expected_units * unit)
        stats = executor.stats
        assert (stats.batches, stats.dispatches) == (1, 4)
        assert stats.serial_sum_units == pytest.approx(16 * unit)
        assert stats.critical_path_units == pytest.approx(
            expected_units * unit
        )
        assert stats.saved_units == pytest.approx(
            (16 - expected_units) * unit
        )

    def test_parallel_run_is_deterministic(self):
        def run_once():
            executor = ParallelShardExecutor(workers=4)
            index, table, cost = make_bare_index(8, "hash", executor)
            values = load_values(index, table, n=800)
            rng = random.Random(9)
            probes = [encode_u64(rng.choice(values)) for _ in range(256)]
            observer = obs.Observer()
            observer.watch(cost)
            with cost.measure() as delta:
                results = index.lookup_batch(probes)
            return (
                results,
                delta.weighted_cost(),
                [(e.kind, getattr(e, "shard", None))
                 for e in observer.event_log()],
            )

        assert run_once() == run_once()

    def test_gather_event_and_metrics(self):
        executor = ParallelShardExecutor(workers=4)
        db = Database()
        table = db.create_table(SCHEMA)
        table.create_index(
            "by_key", ("ts", "obj"), kind="stx", shards=4,
            partitioner="hash", parallel=executor,
        )
        rows = make_rows(600)
        table.insert_batch(rows)
        stats = executor.stats
        batches, dispatches = stats.batches, stats.dispatches
        saved = stats.saved_units
        observer = obs.Observer()
        observer.watch(db.cost)
        table.get_batch("by_key", [(r[0], r[1]) for r in rows[:200]])
        observer.close()
        # One gather over all four shards, counted, not published.
        assert not observer.events
        assert (stats.batches, stats.dispatches) == (
            batches + 1, dispatches + 4
        )
        assert stats.saved_units > saved
        assert stats.critical_path_units < stats.serial_sum_units
        assert (
            f"repro_parallel_saved_units_total "
            f"{stats.saved_units:.10g}"
        ) in db.metrics_snapshot().splitlines()

    def test_close_is_a_noop(self):
        # No backend holds a resource: a closed executor still prices
        # its scatters on the critical path.
        cost = CostModel()
        unit = fixed_op_weight()
        executor = ParallelShardExecutor(workers=2)
        executor.close()
        executor.close()
        SerialShardExecutor().close()
        with cost.measure() as delta:
            results = executor.run_tasks(synthetic_tasks(cost, [1, 2]), cost)
        assert results == [(0, 1), (1, 2)]
        assert delta.weighted_cost() == pytest.approx((2 + 0.05 * 2) * unit)
        assert executor.stats.batches == 1


class TestInlineDispatch:
    """The parallel backend models its overlap in the ledger only: the
    sub-batches run on the calling thread, in task order."""

    def test_scatter_starts_no_thread(self):
        executor = ParallelShardExecutor(workers=4)
        index, table, _ = make_bare_index(4, "hash", executor)
        values = load_values(index, table, n=400)
        probes = [encode_u64(v) for v in values[:100]]
        before = threading.active_count()
        index.lookup_batch(probes)
        index.scan_batch(probes[:8], 5)
        index.scan(probes[0], 10)
        assert executor.stats.batches == 3
        assert threading.active_count() == before
        assert not [
            thread.name for thread in threading.enumerate()
            if thread.name.startswith("repro-shard")
        ]

    def test_tasks_run_on_the_caller_in_task_order(self):
        cost = CostModel()
        caller = threading.current_thread()
        ran = []

        def make(shard_id):
            def run():
                ran.append((shard_id, threading.current_thread() is caller))
                cost.fixed_ops(1.0)
                return shard_id
            return run

        executor = ParallelShardExecutor(workers=2)
        order = [3, 0, 2, 1]
        assert executor.run_tasks([make(s) for s in order], cost) == order
        assert ran == [(shard_id, True) for shard_id in order]


# ----------------------------------------------------------------------
# Database facade integration (create_index(parallel=...))
# ----------------------------------------------------------------------
class TestDatabaseParallel:
    def make_pair(self, parallel):
        db = Database()
        table = db.create_table(SCHEMA)
        table.create_index(
            "by_key", ("ts", "obj"), kind="stx", shards=4,
            partitioner="hash", parallel=parallel,
        )
        return db, table

    def test_parallel_table_matches_serial_table(self):
        _, serial = self.make_pair(False)
        _, parallel = self.make_pair(True)
        rows = make_rows(1000)
        assert serial.insert_batch(rows) == parallel.insert_batch(rows)
        probes = [(r[0], r[1]) for r in rows[:200]] + [(0, 0)]
        assert serial.get_batch("by_key", probes) == \
            parallel.get_batch("by_key", probes)
        starts = [(r[0], r[1]) for r in rows[:20]]
        assert serial.scan_batch("by_key", starts, count=7) == \
            parallel.scan_batch("by_key", starts, count=7)

    def test_parallel_needs_shards(self):
        db = Database()
        table = db.create_table(SCHEMA)
        with pytest.raises(ShardConfigError):
            table.create_index("bad", ("ts",), shards=1, parallel=True)

    def test_prebuilt_executor_accepted(self):
        executor = ParallelShardExecutor(workers=2)
        db = Database()
        table = db.create_table(SCHEMA)
        secondary = table.create_index(
            "by_key", ("ts",), kind="stx", shards=2, parallel=executor
        )
        assert secondary.index.executor is executor


# ----------------------------------------------------------------------
# Typed error hierarchy
# ----------------------------------------------------------------------
class TestTypedErrors:
    def test_hierarchy_roots(self):
        for exc in (IndexExistsError, InvalidBudgetError,
                    ReplicaConfigError, ShardConfigError):
            assert issubclass(exc, ReproError)
            assert issubclass(exc, ValueError)

    def test_duplicate_index_raises_index_exists(self):
        db = Database()
        table = db.create_table(SCHEMA)
        table.create_index("by_ts", ("ts",), kind="stx")
        with pytest.raises(IndexExistsError):
            table.create_index("by_ts", ("obj",), kind="stx")
        # Legacy callers catching ValueError still work.
        with pytest.raises(ValueError):
            table.create_index("by_ts", ("obj",), kind="stx")

    def test_shard_config_errors(self):
        db = Database()
        table = db.create_table(SCHEMA)
        with pytest.raises(ShardConfigError):
            table.create_index("bad", ("ts",), shards=0)
        with pytest.raises(ShardConfigError):
            table.create_index("bad", ("ts",), shards=2,
                               partitioner="mystery")

    def test_budget_errors(self):
        from repro.engine import BudgetArbiter

        with pytest.raises(InvalidBudgetError):
            BudgetArbiter(total_bytes=0)
        with pytest.raises(InvalidBudgetError):
            Database.split_budget(-5, [1.0])
        db = Database()
        with pytest.raises(InvalidBudgetError):
            db.rebalance_budget()
        db.enable_budget_arbiter(1 << 20)
        with pytest.raises(InvalidBudgetError):
            db.enable_budget_arbiter(1 << 20)


# ----------------------------------------------------------------------
# The internal tree runs shim-free
# ----------------------------------------------------------------------
def test_internal_callers_raise_no_deprecation_warnings():
    """Every internal caller of the batch/read surface uses the new
    spellings; DeprecationWarning escalated to an error must not fire."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)

        # Database surface: batched writes, reads, scans.
        db = Database()
        table = db.create_table(SCHEMA)
        table.create_index("by_key", ("ts", "obj"), kind="stx", shards=2)
        rows = make_rows(400)
        table.insert_batch(rows)
        probes = [(r[0], r[1]) for r in rows[:50]]
        table.get_batch("by_key", probes)
        table.scan_batch("by_key", probes[:8], count=4)
        table.scan("by_key", probes[0], count=4, include_rows=False)

        # YCSB batched load + transaction phases drive BatchExecutor.
        from repro.table.table import Table
        from repro.workloads.ycsb import YCSB_CORE, YCSBRunner

        cost = CostModel()
        ycsb_table = Table(encode_u64, row_bytes=32, cost_model=cost)
        index = build_sharded_index(
            "stx", table=ycsb_table, cost=cost, key_width=8,
            n_shards=2, partitioner="hash",
        )
        runner = YCSBRunner(index, ycsb_table, YCSB_CORE["B"], seed=11)
        runner.load(500, batch_size=128)
        runner.run_batched(300, batch_size=64)

        # The batch bench's loader path.
        from repro.bench import batch as bench_batch

        bench_batch.run(
            n_keys=2000, query_count=256, batch_sizes=(64,),
            indexes=("stx",), wall_repeats=1,
        )
