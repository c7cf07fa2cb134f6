"""Tests for the concurrent scatter/gather executor (repro.engine.executor).

Four contracts:

* **equivalence** — the parallel backend returns results byte-identical
  to the serial backend for every op type, shard count, and partitioner;
* **critical-path accounting** — a parallel scatter charges the max
  over concurrent waves (plus the coordination fee), strictly below the
  serial sum whenever at least two shards do real work, and exactly the
  serial cost for single-shard scatters;
* **robustness** — every scripted fault (conflict retry, exhausted
  retries, straggler hedging, pool saturation, closed pool) recovers to
  correct results and emits its obs events;
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
    FaultPlan,
    ParallelShardExecutor,
    SerialShardExecutor,
    ShardExecutor,
    ShardTask,
    build_sharded_index,
    make_executor,
)
from repro.errors import (
    ExecutorSaturatedError,
    IndexExistsError,
    InvalidBudgetError,
    ReplicaConfigError,
    ReproError,
    ShardConfigError,
    ShardConflictError,
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
    # Point inserts: no scatter, so fault-plan ordinals start at the
    # first batch operation.
    for key, tid in pairs:
        index.insert(key, tid)
    return values


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

    def test_instance_plus_knobs_rejected(self):
        executor = ParallelShardExecutor(workers=2)
        with pytest.raises(ShardConfigError):
            make_executor(executor, faults=FaultPlan())
        with pytest.raises(ShardConfigError):
            make_executor(executor, max_retries=5)

    def test_bad_values_rejected(self):
        with pytest.raises(ShardConfigError):
            make_executor(0)
        with pytest.raises(ShardConfigError):
            make_executor("yes")

    def test_knob_validation(self):
        with pytest.raises(ShardConfigError):
            ParallelShardExecutor(workers=0)
        with pytest.raises(ShardConfigError):
            ParallelShardExecutor(coordination_units=-1)
        with pytest.raises(ShardConfigError):
            ParallelShardExecutor(deadline_units=0)
        with pytest.raises(ShardConfigError):
            ParallelShardExecutor(max_retries=-1)
        with pytest.raises(ShardConfigError):
            ParallelShardExecutor(backoff_units=-0.5)


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
        try:
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
        finally:
            executor.close()

    def test_insert_results_match_serial(self, shards, partitioner):
        # Duplicate keys inside one scatter resolve in input order on
        # both backends.
        executor = ParallelShardExecutor(workers=2)
        parallel_index, table, _ = make_bare_index(
            shards, partitioner, executor
        )
        serial_index, serial_table, _ = make_bare_index(shards, partitioner)
        try:
            rng = random.Random(7)
            values = [rng.getrandbits(32) for _ in range(64)]
            pairs = []
            for v in values * 3:  # every key three times
                pairs.append((encode_u64(v), table.insert_row(v)))
                serial_table.insert_row(v)
            rng.shuffle(pairs)
            assert parallel_index.insert_sorted_batch(pairs) == \
                serial_index.insert_sorted_batch(pairs)
        finally:
            executor.close()


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
        try:
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
        finally:
            executor.close()

    def test_single_shard_scatter_charges_exactly_serial(self):
        # A scatter that lands on one shard takes the serial short-cut:
        # no coordination fee, identical cost units.
        serial_index, serial_table, serial_cost = make_bare_index(4, "range")
        executor = ParallelShardExecutor(workers=4)
        parallel_index, parallel_table, parallel_cost = make_bare_index(
            4, "range", executor
        )
        try:
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
        finally:
            executor.close()

    def test_wave_accounting_with_synthetic_tasks(self):
        # workers=2, four tasks costing [1, 5, 2, 8] fixed-op units:
        # waves (1,5) and (2,8) keep their maxima -> 5 + 8 + coordination.
        cost = CostModel()
        unit = fixed_op_weight()
        executor = ParallelShardExecutor(workers=2, coordination_units=0.25)

        def make_task(shard_id, units):
            def run():
                cost.fixed_ops(units)
                return units
            return ShardTask(shard_id=shard_id, ops=1, read_only=True,
                             run=run)

        tasks = [make_task(i, u) for i, u in enumerate([1, 5, 2, 8])]
        try:
            with cost.measure() as delta:
                results = executor.run_tasks("get", tasks, cost)
            assert results == [1, 5, 2, 8]
            expected_units = 5 + 8 + 0.25 * 4
            assert delta.weighted_cost() == pytest.approx(
                expected_units * unit
            )
            assert executor.stats.serial_sum_units == pytest.approx(
                16 * unit
            )
        finally:
            executor.close()

    def test_parallel_run_is_deterministic(self):
        def run_once():
            executor = ParallelShardExecutor(workers=4)
            index, table, cost = make_bare_index(8, "hash", executor)
            try:
                values = load_values(index, table, n=800)
                rng = random.Random(9)
                probes = [encode_u64(rng.choice(values)) for _ in range(256)]
                with obs.enabled() as bus:
                    events = []
                    unsubscribe = bus.subscribe(events.append)
                    try:
                        with cost.measure() as delta:
                            results = index.lookup_batch(probes)
                    finally:
                        unsubscribe()
                return (
                    results,
                    delta.weighted_cost(),
                    [(e.kind, getattr(e, "shard", None)) for e in events],
                )
            finally:
                executor.close()

        assert run_once() == run_once()


# ----------------------------------------------------------------------
# Fault matrix: retry, degrade, hedge, saturation
# ----------------------------------------------------------------------
def synthetic_tasks(cost, costs, read_only=True):
    def make(shard_id, units):
        def run():
            cost.fixed_ops(units)
            return (shard_id, units)
        return ShardTask(shard_id=shard_id, ops=1, read_only=read_only,
                         run=run)
    return [make(i, u) for i, u in enumerate(costs)]


def run_with_events(executor, op, tasks, cost):
    with obs.enabled() as bus:
        events = []
        unsubscribe = bus.subscribe(events.append)
        try:
            results = executor.run_tasks(op, tasks, cost)
        finally:
            unsubscribe()
    return results, events


class TestFaultMatrix:
    def test_transient_conflict_retries_and_recovers(self):
        cost = CostModel()
        plan = FaultPlan().fail(shard=1, op=0, times=1)
        executor = ParallelShardExecutor(
            workers=4, backoff_units=0.5, faults=plan
        )
        tasks = synthetic_tasks(cost, [1, 1, 1])
        try:
            results, events = run_with_events(executor, "get", tasks, cost)
            assert results == [(0, 1), (1, 1), (2, 1)]
            assert executor.stats.retries == 1
            assert executor.stats.degraded_shards == 0
            assert plan.exhausted
            retries = [e for e in events if e.kind == "shard_retry"]
            assert len(retries) == 1
            assert retries[0].shard == 1
            assert retries[0].attempt == 1
            assert retries[0].backoff_units == pytest.approx(0.5)
            assert executor.stats.dispatches == 3
            assert [e.kind for e in events] == ["shard_retry"]
        finally:
            executor.close()

    def test_retry_backoff_doubles_and_is_charged(self):
        cost = CostModel()
        unit = fixed_op_weight()
        plan = FaultPlan().fail(shard=0, op=0, times=2)
        executor = ParallelShardExecutor(
            workers=2, coordination_units=0.0, backoff_units=0.5,
            max_retries=3, faults=plan,
        )
        tasks = synthetic_tasks(cost, [1, 1])
        try:
            with cost.measure() as delta:
                results, events = run_with_events(
                    executor, "get", tasks, cost
                )
            assert results == [(0, 1), (1, 1)]
            retries = [e for e in events if e.kind == "shard_retry"]
            assert [r.backoff_units for r in retries] == [0.5, 1.0]
            # Critical path: shard 0 paid 1 + 0.5 + 1.0 units, shard 1
            # paid 1; one wave keeps the max.
            assert delta.weighted_cost() == pytest.approx(2.5 * unit)
        finally:
            executor.close()

    def test_exhausted_retries_degrade_per_shard(self):
        cost = CostModel()
        plan = FaultPlan().fail(shard=2, op=0, times=10)
        executor = ParallelShardExecutor(
            workers=4, max_retries=2, faults=plan
        )
        tasks = synthetic_tasks(cost, [1, 1, 1, 1])
        try:
            results, events = run_with_events(executor, "get", tasks, cost)
            # The unconditional final attempt still produces the result.
            assert results == [(0, 1), (1, 1), (2, 1), (3, 1)]
            assert executor.stats.degraded_shards == 1
            assert executor.stats.retries == 2
            assert plan.exhausted  # remaining conflicts dropped
            degrades = [e for e in events if e.kind == "executor_degrade"]
            assert len(degrades) == 1
            assert degrades[0].scope == "shard"
            assert degrades[0].shard == 2
            assert degrades[0].reason == "retries_exhausted"
        finally:
            executor.close()

    def test_heartbeat_outages_script_deterministically(self):
        # The cluster tier's vocabulary on the same plan object: a
        # scripted outage of `beats` failed heartbeats after `after`
        # healthy ones, consumed beat by beat.
        plan = FaultPlan().down(replica=0, beats=2).down(
            replica=0, beats=1, after=1)
        assert not plan.exhausted
        seen = [plan.take_heartbeat(0) for _ in range(5)]
        assert seen == [True, True, False, True, False]
        assert plan.exhausted
        # Unscripted replicas never fail a beat.
        assert not plan.take_heartbeat(3)

    def test_heartbeat_outage_validates_arguments(self):
        with pytest.raises(ValueError):
            FaultPlan().down(replica=0, beats=0)
        with pytest.raises(ValueError):
            FaultPlan().down(replica=0, beats=1, after=-1)

    def test_task_raised_conflict_is_retried_too(self):
        # Conflicts surfacing as ShardConflictError from the index side
        # (the OLC Restart analogue) take the same retry path as
        # scripted ones.
        cost = CostModel()
        executor = ParallelShardExecutor(workers=2, max_retries=2)
        state = {"raised": 0}

        def flaky():
            if state["raised"] < 2:
                state["raised"] += 1
                raise ShardConflictError("version check failed")
            return "ok"

        tasks = [
            ShardTask(shard_id=0, ops=1, read_only=True, run=flaky),
            synthetic_tasks(cost, [1])[0],
        ]
        tasks[1].shard_id = 1
        try:
            results, events = run_with_events(executor, "get", tasks, cost)
            assert results[0] == "ok"
            assert executor.stats.retries == 2
            assert len([e for e in events if e.kind == "shard_retry"]) == 2
        finally:
            executor.close()

    def test_straggler_hedge_wins_on_transient_delay(self):
        cost = CostModel()
        unit = fixed_op_weight()
        # Shard 1 is transiently slow (once=True): the hedge re-runs at
        # full speed and wins; the slow attempt is rebated.
        plan = FaultPlan().delay(shard=1, units=100.0, once=True)
        executor = ParallelShardExecutor(
            workers=2, coordination_units=0.0, deadline_units=50.0 * unit,
            faults=plan,
        )
        tasks = synthetic_tasks(cost, [1, 1])
        try:
            with cost.measure() as delta:
                results, events = run_with_events(
                    executor, "get", tasks, cost
                )
            assert results == [(0, 1), (1, 1)]
            hedges = [e for e in events if e.kind == "shard_hedge"]
            assert len(hedges) == 1
            assert hedges[0].winner == "hedge"
            assert hedges[0].primary_units == pytest.approx(101 * unit)
            assert hedges[0].hedge_units == pytest.approx(1 * unit)
            assert executor.stats.hedges == 1
            assert executor.stats.hedge_wins == 1
            # The loser's 101 units are rebated: one wave of two 1-unit
            # deltas charges 1 unit.
            assert delta.weighted_cost() == pytest.approx(1 * unit)
        finally:
            executor.close()

    def test_straggler_hedge_loses_on_persistent_slowness(self):
        cost = CostModel()
        unit = fixed_op_weight()
        # Persistent slowness (once=False): the hedge is just as slow,
        # the primary keeps its result (ties go to the primary).
        plan = FaultPlan().delay(shard=1, units=100.0, once=False)
        executor = ParallelShardExecutor(
            workers=2, coordination_units=0.0, deadline_units=50.0 * unit,
            faults=plan,
        )
        tasks = synthetic_tasks(cost, [1, 1])
        try:
            results, events = run_with_events(executor, "get", tasks, cost)
            assert results == [(0, 1), (1, 1)]
            hedges = [e for e in events if e.kind == "shard_hedge"]
            assert len(hedges) == 1
            assert hedges[0].winner == "primary"
            assert executor.stats.hedges == 1
            assert executor.stats.hedge_wins == 0
        finally:
            executor.close()

    def test_writes_are_never_hedged(self):
        cost = CostModel()
        unit = fixed_op_weight()
        plan = FaultPlan().delay(shard=1, units=100.0, once=True)
        executor = ParallelShardExecutor(
            workers=2, deadline_units=50.0 * unit, faults=plan,
        )
        tasks = synthetic_tasks(cost, [1, 1], read_only=False)
        try:
            results, events = run_with_events(
                executor, "insert", tasks, cost
            )
            assert results == [(0, 1), (1, 1)]
            assert executor.stats.hedges == 0
            assert [e for e in events if e.kind == "shard_hedge"] == []
        finally:
            executor.close()

    def test_saturated_pool_degrades_whole_batch(self):
        cost = CostModel()
        unit = fixed_op_weight()
        plan = FaultPlan().saturate(calls=1)
        executor = ParallelShardExecutor(
            workers=2, coordination_units=0.25, faults=plan,
        )
        tasks = synthetic_tasks(cost, [1, 2, 3])
        try:
            with cost.measure() as delta:
                results, events = run_with_events(
                    executor, "get", tasks, cost
                )
            assert results == [(0, 1), (1, 2), (2, 3)]
            assert executor.stats.degraded_batches == 1
            # Degraded batches charge the full serial sum, no fee.
            assert delta.weighted_cost() == pytest.approx(6 * unit)
            degrades = [e for e in events if e.kind == "executor_degrade"]
            assert len(degrades) == 1
            assert degrades[0].scope == "batch"
            assert degrades[0].reason == "pool_saturated"
            assert plan.exhausted
            # The next scatter runs parallel again.
            more = synthetic_tasks(cost, [1, 2])
            assert executor.run_tasks("get", more, cost) == [(0, 1), (1, 2)]
            assert executor.stats.batches == 1
        finally:
            executor.close()

    def test_closed_pool_degrades_whole_batch(self):
        cost = CostModel()
        executor = ParallelShardExecutor(workers=2)
        executor.close()
        executor.close()  # idempotent
        tasks = synthetic_tasks(cost, [1, 2])
        results, events = run_with_events(executor, "get", tasks, cost)
        assert results == [(0, 1), (1, 2)]
        assert executor.stats.degraded_batches == 1
        degrades = [e for e in events if e.kind == "executor_degrade"]
        assert degrades[0].reason == "pool_closed"

    def test_strict_saturation_raises_instead_of_degrading(self):
        cost = CostModel()
        plan = FaultPlan().saturate(calls=1)
        executor = ParallelShardExecutor(
            workers=2, faults=plan, strict_saturation=True,
        )
        tasks = synthetic_tasks(cost, [1, 2])
        try:
            with pytest.raises(ExecutorSaturatedError):
                executor.run_tasks("get", tasks, cost)
            assert executor.stats.degraded_batches == 0
            # Saturation consumed; the retried scatter runs parallel.
            assert executor.run_tasks("get", tasks, cost) == [(0, 1), (1, 2)]
        finally:
            executor.close()

    def test_strict_saturation_raises_on_closed_pool(self):
        cost = CostModel()
        executor = ParallelShardExecutor(workers=2, strict_saturation=True)
        executor.close()
        tasks = synthetic_tasks(cost, [1, 2])
        with pytest.raises(ExecutorSaturatedError):
            executor.run_tasks("get", tasks, cost)

    def test_gather_event_and_metrics(self):
        executor = ParallelShardExecutor(workers=4)
        db = Database()
        table = db.create_table(SCHEMA)
        table.create_index(
            "by_key", ("ts", "obj"), kind="stx", shards=4,
            partitioner="hash", parallel=executor,
        )
        try:
            rows = make_rows(600)
            table.insert_batch(rows)
            stats = executor.stats
            batches, dispatches = stats.batches, stats.dispatches
            saved = stats.saved_units
            with obs.enabled():
                observer = obs.Observer()
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
        finally:
            executor.close()


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
            return ShardTask(shard_id=shard_id, ops=1, read_only=True,
                             run=run)

        executor = ParallelShardExecutor(workers=2)
        order = [3, 0, 2, 1]
        assert executor.run_tasks("get", [make(s) for s in order], cost) \
            == order
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
        executor.close()


# ----------------------------------------------------------------------
# Typed error hierarchy
# ----------------------------------------------------------------------
class TestTypedErrors:
    def test_hierarchy_roots(self):
        for exc in (IndexExistsError, InvalidBudgetError,
                    ReplicaConfigError, ShardConfigError,
                    ShardConflictError):
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
