"""Tests for the durable write pipeline: WAL, group commit, recovery.

The kill-and-recover differential is the heart of this suite: a
workload runs against a WAL-backed database with a scripted
:meth:`~repro.engine.FaultPlan.kill` point, the crash loses everything
volatile, :func:`~repro.wal.recover_database` rebuilds from the durable
prefix — and the recovered state must equal, digest-for-digest, a
reference database built by replaying exactly the committed unit-op
prefix through the public write surface.  The matrix crosses kill
points (mid-append, mid-fsync, mid-apply) with index configurations
whose replay exercises leaf splits, leaf-kind conversions (including
learned leaves), engine shards, and replica sets.
"""

import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cluster import ReplicaConfig
from repro.db.database import Database
from repro.engine import FaultPlan
from repro.errors import RecoveryError, WalError
from repro.table.table import RowSchema, Table
from repro.tools import wal_summary
from repro.wal import (
    CrashError,
    WalConfig,
    WriteAheadLog,
    recover_database,
    state_digest,
)


def make_db(wal=None, index_kwargs=None):
    """One-table one-index database; rows are (key, value) u64 pairs."""
    db = Database(wal=wal)
    table = db.create_table(RowSchema("t", ("k", "v"), (8, 8)))
    table.create_index("by_k", ("k",), **(index_kwargs or {}))
    return db, table


def make_unit_ops(n_inserts, seed=7, safe_gap=64):
    """A deterministic unit-op stream: ("insert", row) | ("delete", pos).

    ``pos`` indexes the insert stream; tuple-id assignment is
    deterministic, so every arm resolves the same position to the same
    tid.  Deletes trail the insert frontier by at least ``safe_gap``
    positions; keep ``safe_gap >= batch size`` so a delete always
    lands in a later batch than the insert it references (the batched
    arm resolves tids from committed batches only).
    """
    import random

    rng = random.Random(seed)
    ops = []
    deleted = set()
    for i in range(n_inserts):
        ops.append(("insert", (i, rng.getrandbits(16))))
        if i >= safe_gap and i % 9 == 0:
            pos = rng.randrange(i - safe_gap)
            if pos not in deleted:
                deleted.add(pos)
                ops.append(("delete", pos))
    return ops


def apply_batches(db, table, unit_ops, batch_size):
    """Stage unit ops individually, committing every ``batch_size``.

    One staged op per unit op, so WAL record ``k``, apply ordinal ``k``
    and unit op ``k`` all coincide — kill ordinals are exact unit-op
    positions.  Raises CrashError out of the crashed commit.
    """
    tids = []
    for start in range(0, len(unit_ops), batch_size):
        with db.begin_batch() as batch:
            for op, payload in unit_ops[start:start + batch_size]:
                if op == "insert":
                    batch.insert(table, payload)
                else:
                    batch.delete(table, tids[payload])
        tids.extend(batch.tids)
    return tids


def replay_reference(unit_ops, prefix, index_kwargs=None):
    """Fresh WAL-less database after exactly ``prefix`` unit ops."""
    db, table = make_db(index_kwargs=index_kwargs)
    tids = []
    for op, payload in unit_ops[:prefix]:
        if op == "insert":
            tids.append(table.insert(payload))
        else:
            table.delete(tids[payload])
    return db


class TestWalConfig:
    def test_validation(self):
        with pytest.raises(WalError):
            Database(wal=WalConfig(group_size=0))
        with pytest.raises(WalError):
            Database(wal=WalConfig(shards=0))

    def test_crash_error_is_not_a_repro_error(self):
        # A crash must never be swallowed by ``except ValueError``.
        assert not issubclass(CrashError, ValueError)
        assert issubclass(CrashError, RuntimeError)


class TestWriteBatch:
    def test_commit_returns_tids_in_stage_order(self):
        db, table = make_db()
        with db.begin_batch() as batch:
            batch.insert(table, (1, 10))
            batch.insert_batch(table, [(2, 20), (3, 30)])
        assert batch.tids == [0, 1, 2]
        assert table.get("by_k", (2,)) == (2, 20)

    def test_tables_resolvable_by_name(self):
        db, table = make_db()
        batch = db.begin_batch()
        batch.insert("t", (5, 50))
        batch.commit()
        assert table.get("by_k", (5,)) == (5, 50)

    def test_double_commit_raises(self):
        db, table = make_db()
        batch = db.begin_batch()
        batch.insert(table, (1, 1))
        batch.commit()
        with pytest.raises(WalError):
            batch.commit()

    def test_staging_after_commit_raises(self):
        db, table = make_db()
        batch = db.begin_batch()
        batch.commit()
        with pytest.raises(WalError):
            batch.insert(table, (1, 1))

    def test_exception_in_block_discards_batch(self):
        db, table = make_db()
        before = state_digest(db)
        with pytest.raises(RuntimeError, match="boom"):
            with db.begin_batch() as batch:
                batch.insert(table, (9, 9))
                raise RuntimeError("boom")
        assert state_digest(db) == before
        assert table.get("by_k", (9,)) is None

    def test_row_validation_at_stage_time(self):
        db, table = make_db()
        batch = db.begin_batch()
        with pytest.raises(ValueError, match="columns"):
            batch.insert(table, (1, 2, 3))
        assert batch.staged_ops == 0

    def test_delete_returns_removed_rows(self):
        db, table = make_db()
        tid = table.insert((4, 40))
        with db.begin_batch() as batch:
            batch.delete(table, tid)
        assert batch.deleted_rows == [(4, 40)]

    def test_insert_many_is_gone(self):
        db, table = make_db()
        assert not hasattr(table, "insert_many")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # The canonical spelling is warning-free.
            assert table.insert_batch([(1, 1), (2, 2)]) == [0, 1]


class TestWalOffByteIdentity:
    def test_no_wal_charges_no_log_categories(self):
        db, table = make_db()
        with db.cost.measure() as delta:
            table.insert_batch([(i, i) for i in range(64)])
            table.delete(0)
        assert "log_append" not in delta.counts
        assert "log_fsync" not in delta.counts

    def test_batched_surface_costs_equal_scalar_replay(self):
        # The same rows through one WriteBatch vs the auto-committed
        # scalar spellings: identical digests, and the only accounting
        # difference is per-op bookkeeping-free (both WAL-less paths
        # replay the exact historical charge sequences).
        rows = [(i, i * 3) for i in range(200)]
        db_a, t_a = make_db()
        with db_a.cost.measure() as da:
            with db_a.begin_batch() as batch:
                batch.insert_batch(t_a, rows)
        db_b, t_b = make_db()
        with db_b.cost.measure() as db_delta:
            t_b.insert_batch(rows)
        assert da.weighted_cost() == db_delta.weighted_cost()
        assert state_digest(db_a) == state_digest(db_b)


class TestGroupCommit:
    def test_per_record_append_charges(self):
        db, table = make_db(wal=WalConfig(group_size=8))
        with db.cost.measure() as delta:
            table.insert_batch([(i, i) for i in range(20)])
        assert delta.counts["log_append"] == 20
        # Two full groups of 8 fsynced; 4 records pending.
        assert delta.counts["log_fsync"] == 2
        assert db.wal.pending_records == 4
        assert len(db.wal.durable_prefix()) == 16

    def test_group_size_one_is_per_op_fsync(self):
        db, table = make_db(wal=WalConfig(group_size=1))
        with db.cost.measure() as delta:
            table.insert_batch([(i, i) for i in range(10)])
        assert delta.counts["log_fsync"] == 10
        assert db.wal.pending_records == 0

    def test_flush_forces_partial_group_durable(self):
        db, table = make_db(wal=WalConfig(group_size=64))
        table.insert_batch([(i, i) for i in range(10)])
        assert db.wal.pending_records == 10
        with db.cost.measure() as delta:
            db.wal.flush()
        assert delta.counts["log_fsync"] == 1
        assert db.wal.pending_records == 0
        assert len(db.wal.durable_prefix()) == 10

    def test_sharded_log_charges_one_fsync_per_stream(self):
        db, table = make_db(wal=WalConfig(group_size=8, shards=4))
        with db.cost.measure() as delta:
            table.insert_batch([(i, i) for i in range(8)])
        # One full group touching all four streams: 4 barriers.
        assert delta.counts["log_fsync"] == 4
        assert all(s.durable_lsn >= 0 for s in db.wal.streams)

    def test_group_commit_cheaper_than_per_op(self):
        rows = [(i, i) for i in range(256)]
        costs = {}
        for group_size in (1, 64):
            db, table = make_db(wal=WalConfig(group_size=group_size))
            with db.cost.measure() as delta:
                table.insert_batch(rows)
                db.wal.flush()
            costs[group_size] = delta.weighted_cost()
        assert costs[64] < costs[1] * 0.7  # >= 30% cheaper end to end

    def test_crashed_log_refuses_further_use(self):
        plan = FaultPlan().kill(append=0)
        db, table = make_db(wal=WalConfig(group_size=4, faults=plan))
        with pytest.raises(CrashError):
            table.insert((1, 1))
        assert db.wal.crashed
        with pytest.raises(WalError, match="crashed"):
            table.insert((2, 2))


#: Kill-and-recover matrix: (index kwargs, wal shards, kill point).
#: The elastic bounds are tight enough that replaying the durable
#: prefix re-runs leaf splits and compact/learned conversions; the
#: sharded and replicated rows push replay through the engine router
#: and the replica write fan-out.
MATRIX = [
    pytest.param({}, 1, {"apply": 23}, id="stx-apply"),
    pytest.param(
        {"kind": "elastic", "size_bound_bytes": 6_000}, 1,
        {"apply": 150}, id="elastic-split-apply",
    ),
    pytest.param(
        {"kind": "elastic", "size_bound_bytes": 6_000,
         "leaf_kinds": ("standard", "compact", "learned")}, 4,
        {"append": 260}, id="learned-sharded-log-append",
    ),
    pytest.param(
        {"kind": "elastic", "size_bound_bytes": 8_000, "shards": 2}, 2,
        {"fsync": 5}, id="engine-sharded-fsync",
    ),
    pytest.param(
        {"replicas": ReplicaConfig(replicas=2)}, 1,
        {"apply": 100}, id="replicated-apply",
    ),
]


class TestKillAndRecover:
    @pytest.mark.parametrize("index_kwargs, wal_shards, kill", MATRIX)
    def test_differential_matches_committed_prefix(
        self, index_kwargs, wal_shards, kill
    ):
        unit_ops = make_unit_ops(280)
        digests = []
        reports = []
        for _ in range(2):  # the whole cycle must replay exactly
            plan = FaultPlan().kill(**kill)
            db, table = make_db(
                wal=WalConfig(group_size=16, shards=wal_shards,
                              faults=plan),
                index_kwargs=index_kwargs,
            )
            with pytest.raises(CrashError):
                apply_batches(db, table, unit_ops, batch_size=32)
            durable = len(db.wal.durable_prefix())
            new_db, report = recover_database(db)
            assert report.records_replayed == durable
            assert report.records_discarded == (
                len(db.wal.records) - durable
            )
            reference = replay_reference(
                unit_ops, durable, index_kwargs=index_kwargs
            )
            assert state_digest(new_db) == state_digest(reference)
            digests.append(state_digest(new_db))
            reports.append(report)
        assert digests[0] == digests[1]
        assert reports[0] == reports[1]

    def test_append_kill_leaves_volatile_state_untouched(self):
        # The append phase runs before any apply: a kill there must
        # lose the whole batch, not a prefix of it.
        plan = FaultPlan().kill(append=40)
        db, table = make_db(wal=WalConfig(group_size=16, faults=plan))
        table.insert_batch([(i, i) for i in range(32)])
        before = state_digest(db)
        with pytest.raises(CrashError):
            table.insert_batch([(100 + i, i) for i in range(16)])
        assert state_digest(db) == before

    def test_recovered_database_is_usable_and_durable(self):
        plan = FaultPlan().kill(apply=50)
        db, table = make_db(wal=WalConfig(group_size=8, faults=plan))
        unit_ops = make_unit_ops(120)
        with pytest.raises(CrashError):
            apply_batches(db, table, unit_ops, batch_size=16)
        new_db, report = recover_database(db)
        new_table = new_db.tables["t"]
        # The new log continues the lsn sequence and accepts writes.
        tid = new_table.insert((9999, 1))
        assert new_table.get("by_k", (9999,)) == (9999, 1)
        assert new_db.wal.records[-1].lsn == report.records_replayed
        assert tid is not None

    def test_recovery_requires_a_wal(self):
        db, _ = make_db()
        with pytest.raises(RecoveryError, match="no write-ahead log"):
            recover_database(db)

    def test_recovery_cost_attributed(self):
        plan = FaultPlan().kill(apply=30)
        db, table = make_db(wal=WalConfig(group_size=8, faults=plan))
        with pytest.raises(CrashError):
            apply_batches(db, table, make_unit_ops(80), batch_size=16)
        new_db, report = recover_database(db)
        assert report.cost_units > 0
        tagged = new_db.cost.tagged.get("recovery", {})
        assert tagged.get("log_append", 0) == 0  # adopt is uncharged
        assert new_db.cost.tagged_cost("recovery") == pytest.approx(
            report.cost_units
        )


class TestSnapshot:
    def test_snapshot_requires_wal(self):
        db, _ = make_db()
        with pytest.raises(WalError, match="snapshot"):
            db.snapshot()

    def test_snapshot_plus_replay_recovers_later_writes(self):
        db, table = make_db(wal=WalConfig(group_size=8))
        tids = table.insert_batch([(i, i) for i in range(40)])
        snapshot_lsn = db.snapshot()
        table.insert_batch([(100 + i, i) for i in range(20)])
        table.delete(tids[3])
        db.wal.flush()  # make the whole tail durable for the equality
        full = state_digest(db)
        new_db, report = recover_database(db)
        assert report.snapshot_lsn == snapshot_lsn
        # Only post-snapshot records replay; the image covers the rest.
        assert report.records_replayed == (
            db.wal.next_lsn - 1 - snapshot_lsn
        )
        assert state_digest(new_db) == full

    def test_snapshot_flushes_pending_tail(self):
        db, table = make_db(wal=WalConfig(group_size=64))
        table.insert_batch([(i, i) for i in range(10)])
        assert db.wal.pending_records == 10
        db.snapshot()
        assert db.wal.pending_records == 0


class TestRecoveryIdempotence:
    @settings(max_examples=15, deadline=None)
    @given(
        group_size=st.integers(min_value=1, max_value=12),
        shards=st.integers(min_value=1, max_value=3),
        kill_at=st.integers(min_value=0, max_value=70),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_recover_twice_is_a_fixed_point(
        self, group_size, shards, kill_at, seed
    ):
        unit_ops = make_unit_ops(60, seed=seed, safe_gap=13)
        plan = FaultPlan().kill(apply=kill_at)
        db, table = make_db(
            wal=WalConfig(group_size=group_size, shards=shards,
                          faults=plan)
        )
        try:
            apply_batches(db, table, unit_ops, batch_size=13)
        except CrashError:
            pass  # kill ordinal past the workload: no crash, still fine
        once, report_once = recover_database(db)
        digest_once = state_digest(once)
        # Recovering the crashed database again is deterministic...
        again, report_again = recover_database(db)
        assert state_digest(again) == digest_once
        assert report_again == report_once
        # ...and recovering the *recovered* database is a fixed point:
        # every adopted record is durable, nothing is discarded.
        twice, report_twice = recover_database(once)
        assert state_digest(twice) == digest_once
        assert report_twice.records_discarded == 0
        assert report_twice.records_replayed == report_once.records_replayed


class TestDeadDeletes:
    """A staged delete of a dead row rejects its whole batch at commit,
    before the log, the table or the ledger sees any of it."""

    def test_double_delete_leaves_the_log_replayable(self):
        db, table = make_db(wal=WalConfig(group_size=1))
        tid = table.insert((1, 10))
        table.delete(tid)
        lsn = db.wal.next_lsn
        with pytest.raises(KeyError, match="not live"):
            table.delete(tid)
        assert db.wal.next_lsn == lsn
        recovered, _ = recover_database(db)
        assert state_digest(recovered) == state_digest(db)

    def test_insert_then_dead_delete_touches_nothing(self):
        db, table = make_db(wal=WalConfig(group_size=1))
        tids = [table.insert((k, k)) for k in range(3)]
        table.delete(tids[0])
        table.delete(tids[1])
        before = state_digest(db)
        lsn = db.wal.next_lsn
        counts = dict(db.cost.counts)
        batch = db.begin_batch()
        # The insert takes the most recently freed id (tids[1]), so
        # tids[0] is still dead at the delete's turn.
        batch.insert(table, (9, 9))
        batch.delete(table, tids[0])
        with pytest.raises(KeyError, match="not live"):
            batch.commit()
        assert state_digest(db) == before
        assert db.wal.next_lsn == lsn
        assert dict(db.cost.counts) == counts
        assert len(table) == 1

    def test_deleting_a_row_the_batch_stores_is_valid(self):
        db, table = make_db(wal=WalConfig(group_size=1))
        tids = [table.insert((k, k)) for k in range(3)]
        with db.begin_batch() as batch:
            # Frees tids[2]; the insert reuses it, and the second delete
            # removes that new row.
            batch.delete(table, tids[2])
            batch.insert(table, (9, 9))
            batch.delete(table, tids[2])
        assert batch.tids == [tids[2]]
        assert batch.deleted_rows == [(2, 2), (9, 9)]
        recovered, _ = recover_database(db)
        assert state_digest(recovered) == state_digest(db)

    def test_dead_delete_without_a_log_touches_nothing(self):
        db, table = make_db()
        tid = table.insert((1, 10))
        table.delete(tid)
        counts = dict(db.cost.counts)
        batch = db.begin_batch()
        batch.insert(table, (2, 20))
        batch.delete(table, tid + 1)
        with pytest.raises(IndexError):
            batch.commit()
        assert len(table) == 0
        assert dict(db.cost.counts) == counts

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(0, 3), max_size=4, unique=True),
        st.lists(
            st.one_of(st.just("insert"), st.just("rows"), st.integers(0, 6)),
            max_size=8,
        ),
    )
    # The insert reuses the most recently freed id, 3, not 1.
    @example(freed=[1, 3], staged=["insert", 3])
    def test_check_agrees_with_the_table(self, freed, staged):
        # Oracle: the same writes applied one by one to a bare Table in
        # the same state; a staged int deletes that tuple id.
        db, table = make_db()
        shadow = Table(lambda row: b"", 16)
        for k in range(4):
            table.insert((k, k))
            shadow.insert_row((k, k))
        for tid in freed:
            table.delete(tid)
            shadow.delete_row(tid)
        expected = None
        batch = db.begin_batch()
        for i, op in enumerate(staged):
            rows = []
            if op == "insert":
                rows = [(100 + 2 * i, 0)]
                batch.insert(table, rows[0])
            elif op == "rows":
                rows = [(100 + 2 * i, 0), (101 + 2 * i, 0)]
                batch.insert_batch(table, rows)
            else:
                batch.delete(table, op)
            for row in rows:
                shadow.insert_row(row)
            if not rows and expected is None:
                try:
                    shadow.delete_row(op)
                except (KeyError, IndexError) as exc:
                    expected = type(exc)
        counts = dict(db.cost.counts)
        if expected is None:
            batch.commit()
            assert [t for t, _ in table.table.iter_live()] == [
                t for t, _ in shadow.iter_live()
            ]
        else:
            with pytest.raises(expected):
                batch.commit()
            assert dict(db.cost.counts) == counts


class TestTickRegression:
    def test_wal_batched_writes_tick_the_arbiter(self):
        # Regression: batched writes historically bypassed
        # Database._tick, so the budget arbiter never saw them.
        db, table = make_db(
            wal=WalConfig(group_size=8),
            index_kwargs={"kind": "elastic", "size_bound_bytes": 1 << 20},
        )
        arbiter = db.enable_budget_arbiter(1 << 20, interval_ops=1 << 30)
        with db.begin_batch() as batch:
            batch.insert_batch(table, [(i, i) for i in range(5)])
            batch.insert(table, (100, 1))
            batch.delete(table, 0)
        assert arbiter._ops_since == 7

    def test_wal_less_batched_writes_tick_too(self):
        db, table = make_db(
            index_kwargs={"kind": "elastic", "size_bound_bytes": 1 << 20},
        )
        arbiter = db.enable_budget_arbiter(1 << 20, interval_ops=1 << 30)
        table.insert_batch([(i, i) for i in range(6)])
        assert arbiter._ops_since == 6


class TestObservability:
    def test_events_emitted_with_obs_on(self):
        with obs.enabled():
            observer = obs.Observer()
            try:
                plan = FaultPlan().kill(apply=20)
                db, table = make_db(
                    wal=WalConfig(group_size=8, faults=plan)
                )
                with pytest.raises(CrashError):
                    apply_batches(db, table, make_unit_ops(60),
                                  batch_size=16)
                recover_database(db)
                appends = observer.event_log("wal_append")
                commits = observer.event_log("group_commit")
                replays = observer.event_log("recovery_replay")
            finally:
                observer.close()
        assert appends and commits and len(replays) == 1
        assert appends[0].first_lsn == 0
        assert sum(e.records for e in appends) == appends[-1].last_lsn + 1
        assert all(e.group_size == 8 for e in commits)
        replay = replays[0]
        assert replay.records_replayed + replay.records_discarded > 0
        assert replay.tables == 1 and replay.indexes == 1
        assert replay.cost_units > 0

    def test_metrics_registered(self):
        with obs.enabled():
            observer = obs.Observer()
            try:
                db, table = make_db(wal=WalConfig(group_size=4))
                table.insert_batch([(i, i) for i in range(12)])
                registry = observer.registry
                records = registry.get("repro_wal_records_total")
                commits = registry.get("repro_group_commits_total")
                durable = registry.get("repro_wal_durable_lsn")
            finally:
                observer.close()
        assert records is not None and records.total() == 12
        assert commits is not None and commits.total() == 3
        assert durable is not None and durable.total() == 11  # last lsn

    def test_obs_does_not_change_wal_costs(self):
        def run():
            db, table = make_db(wal=WalConfig(group_size=8))
            with db.cost.measure() as delta:
                table.insert_batch([(i, i) for i in range(64)])
                db.wal.flush()
            return delta.weighted_cost()

        base = run()
        with obs.enabled():
            observer = obs.Observer()
            try:
                enabled = run()
            finally:
                observer.close()
        assert enabled == base


class TestToolingAndApi:
    def test_wal_summary_renders_state(self):
        db, table = make_db(wal=WalConfig(group_size=8, shards=2))
        table.insert_batch([(i, i) for i in range(20)])
        text = wal_summary(db)
        assert "20 records" in text
        assert "group size 8" in text
        assert "2 stream(s)" in text
        assert "pending" in text

    def test_wal_summary_without_wal(self):
        db, _ = make_db()
        assert "not configured" in wal_summary(db)

    def test_wal_summary_accepts_raw_log(self):
        from repro.memory.cost_model import CostModel

        log = WriteAheadLog(WalConfig(group_size=4), CostModel())
        assert "0 records" in wal_summary(log)

    def test_api_exports_durability_surface(self):
        from repro import api

        for name in ("WriteBatch", "WalConfig", "WalRecord",
                     "WriteAheadLog", "CrashError", "RecoveryReport",
                     "recover_database", "state_digest", "WalError",
                     "RecoveryError"):
            assert hasattr(api, name), name
            assert name in api.__all__
