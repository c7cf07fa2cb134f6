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
from repro.db.metrics import layer_metrics
from repro.engine import FaultPlan
from repro.errors import RecoveryError, WalError
from repro.memory.cost_model import CostModel
from repro.table.table import RowSchema, Table
from repro.tools import wal_summary
from repro.wal import (
    RECORD_HEADER_BYTES,
    CrashError,
    WalConfig,
    WalRecord,
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

    def test_records_carry_their_modeled_size(self):
        # Scalar writes log the same records a one-op batch does; each
        # record's size is its payload plus the record header.
        db, table = make_db(wal=WalConfig(group_size=4, shards=2))
        tid = table.insert((7, 70))
        assert table.delete(tid) == (7, 70)
        with db.begin_batch() as batch:
            batch.insert(table, (8, 80))
        assert [(r.lsn, r.op, r.table, r.payload, r.nbytes)
                for r in db.wal.records] == [
            (0, "insert", "t", (7, 70), 16 + RECORD_HEADER_BYTES),
            (1, "delete", "t", tid, 8 + RECORD_HEADER_BYTES),
            (2, "insert", "t", (8, 80), 16 + RECORD_HEADER_BYTES),
        ]
        assert [s.records for s in db.wal.streams] == [
            db.wal.records[0::2], db.wal.records[1::2]
        ]

    def test_append_returns_its_record(self):
        log = WriteAheadLog(WalConfig(group_size=4), CostModel())
        record = log.append("delete", "t", 3, 8)
        assert record is log.records[0]
        assert record == WalRecord(0, "delete", "t", 3,
                                   8 + RECORD_HEADER_BYTES)
        assert not hasattr(record, "__dict__")  # a slotted record
        assert log.cost.counts == {"log_append": 1}

    def test_crashed_log_refuses_further_use(self):
        plan = FaultPlan().kill(append=0)
        db, table = make_db(wal=WalConfig(group_size=4, faults=plan))
        with pytest.raises(CrashError):
            table.insert((1, 1))
        assert db.wal.crashed
        with pytest.raises(WalError, match="crashed"):
            table.insert((2, 2))


class TestInvariants:
    def test_kill_between_streams_keeps_counts_whole(self):
        # A group of four spans two streams; the kill lands after stream
        # 0's barrier, so stream 1's lsns 1 and 3 never reached media.
        plan = FaultPlan().kill(fsync=0)
        wal = WriteAheadLog(
            WalConfig(group_size=4, shards=2, faults=plan), CostModel()
        )
        for i in range(4):
            wal.append("insert", "t", (i, i), 16)
        with pytest.raises(CrashError):
            wal.group_commit()
        info = wal.summary()
        assert info["records"] == 4
        assert info["durable_records"] == 1
        assert info["pending_records"] == 3
        assert info["durable_records"] + info["pending_records"] == 4
        wal.check_invariants()  # the live-log watermark rule is skipped

    def test_holds_after_batches_flush_and_recovery(self):
        db, table = make_db(
            wal=WalConfig(group_size=8, shards=3),
            index_kwargs={"kind": "elastic", "size_bound_bytes": 6_000},
        )
        db.wal.check_invariants()
        tids = apply_batches(db, table, make_unit_ops(90), batch_size=7)
        table.delete(tids[-1])
        db.wal.check_invariants()
        assert db.wal.pending_records > 0
        db.wal.flush()
        db.wal.check_invariants()
        assert db.wal.pending_records == 0
        table.insert_batch([(1000 + i, i) for i in range(5)])
        recovered, _ = recover_database(db)
        recovered.wal.check_invariants()
        recovered.tables["t"].insert((5000, 1))
        recovered.wal.check_invariants()

    @pytest.mark.parametrize("corrupt, rule", [
        (lambda wal: setattr(wal.records[3], "lsn", 4), "records\\[3\\]"),
        (lambda wal: setattr(wal, "next_lsn", wal.next_lsn + 1), "next_lsn"),
        (lambda wal: wal.streams[1].records.pop(), "stream 1"),
        (lambda wal: wal.streams[0].records.reverse(), "stream 0"),
        (lambda wal: setattr(wal, "_grouped_upto", -1), "watermark"),
        (lambda wal: setattr(wal, "_grouped_upto", wal.next_lsn + 1),
         "watermark"),
        (lambda wal: setattr(wal, "_grouped_upto", wal._grouped_upto - 4),
         "durable_lsn"),
        (lambda wal: setattr(wal.streams[1], "durable_lsn", 1),
         "stream 1 durable_lsn"),
    ])
    def test_corruption_raises(self, corrupt, rule):
        db, table = make_db(wal=WalConfig(group_size=8, shards=3))
        table.insert_batch([(i, i) for i in range(20)])
        db.wal.check_invariants()
        corrupt(db.wal)
        with pytest.raises(ValueError, match=rule):
            db.wal.check_invariants()


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
            st.one_of(st.just("insert"), st.just("rows"), st.integers(-3, 6)),
            max_size=8,
        ),
    )
    # The insert reuses the most recently freed id, 3, not 1.
    @example(freed=[1, 3], staged=["insert", 3])
    # A negative id was never assigned, however many rows there are.
    @example(freed=[], staged=[-2])
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

    @pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batch"])
    @pytest.mark.parametrize("wal", [None, WalConfig(group_size=1)],
                             ids=["no-log", "log"])
    def test_negative_tid_is_never_assigned(self, wal, batched):
        # Regression: delete(-2) removed the row in slot len - 2, logged
        # a "delete -2" record and pushed -2 onto the free-tid stack, so
        # a later insert took tid -2 and a get answered another row.
        db, table = make_db(wal=wal)
        table.insert_batch([(k, 10 * k) for k in range(4)])
        before = state_digest(db)
        counts = list(db.cost.counts.items())
        records = len(db.wal.records) if wal else 0
        with pytest.raises(IndexError, match="never assigned"):
            if batched:
                with db.begin_batch() as batch:
                    batch.delete(table, -2)
            else:
                table.delete(-2)
        assert state_digest(db) == before
        assert list(db.cost.counts.items()) == counts
        assert (len(db.wal.records) if wal else 0) == records
        assert table.insert((50, 500)) == 4
        table.insert_batch([(60, 600), (70, 700)])
        assert table.get("by_k", (50,)) == (50, 500)
        assert table.get("by_k", (2,)) == (2, 20)
        if wal is not None:
            recovered, _ = recover_database(db)
            assert state_digest(recovered) == state_digest(db)


class TestUnencodableRows:
    """A row that an index cannot encode a key for is rejected when it
    is validated, before the log, the table, the index or the ledger
    sees any of it, with the encoder's own exception."""

    @pytest.mark.parametrize("bad, error", [
        (("x", 20), ValueError),      # a str in a u64 column
        ((-1, 5), OverflowError),     # a negative int in a u64 column
    ], ids=["str", "negative"])
    @pytest.mark.parametrize("shape", ["scalar", "batch", "rows"])
    @pytest.mark.parametrize("wal", [None, WalConfig(group_size=1)],
                             ids=["no-log", "log"])
    def test_rejected_before_anything_changes(self, wal, shape, bad, error):
        db, table = make_db(wal=wal)
        table.insert_batch([(k, 10 * k) for k in range(4)])
        index = table.indexes["by_k"].index
        before = state_digest(db)
        counts = list(db.cost.counts.items())
        records = len(db.wal.records) if wal else 0
        with pytest.raises(error):
            if shape == "scalar":
                table.insert(bad)
            elif shape == "batch":
                with db.begin_batch() as batch:
                    batch.insert(table, (7, 70))
                    batch.insert(table, bad)
                    batch.insert(table, (8, 80))
            else:
                table.insert_batch([(7, 70), bad, (8, 80)])
        assert (len(db.wal.records) if wal else 0) == records
        assert len(table) == len(index) == 4
        assert list(db.cost.counts.items()) == counts
        assert state_digest(db) == before
        if wal is not None:
            recovered, _ = recover_database(db)
            assert state_digest(recovered) == before


class TestOneEncodePerRow:
    """Staging encodes each stored row's key once per index and the
    apply phase reuses it: a counting wrapper on ``key_of_row`` sees one
    call per row per index, parked indexes included, on every insert
    shape, with or without a log.  Keys staging did not encode — an
    index created after staging, recovery's replay — are encoded at
    apply."""

    @staticmethod
    def _count_encodes(monkeypatch):
        from repro.db.database import SecondaryIndex

        calls = []
        original = SecondaryIndex.key_of_row

        def counted(self, row):
            calls.append(self.name)
            return original(self, row)

        monkeypatch.setattr(SecondaryIndex, "key_of_row", counted)
        return calls

    @pytest.mark.parametrize("shape", ["scalar", "batch", "rows"])
    @pytest.mark.parametrize("wal", [None, WalConfig(group_size=2)],
                             ids=["no-log", "log"])
    def test_one_encode_per_row_per_index(self, monkeypatch, wal, shape):
        db, table = make_db(wal=wal)
        table.create_index("by_v", ("v",), kind="elastic",
                           size_bound_bytes=1 << 20)
        table.create_index("by_vk", ("v", "k"))
        table.insert_batch([(k, 10 * k) for k in range(50)])
        calls = self._count_encodes(monkeypatch)
        rows = [(k, 7 * k) for k in range(100, 130)]
        if shape == "scalar":
            for row in rows:
                table.insert(row)
        elif shape == "batch":
            with db.begin_batch() as batch:
                for row in rows[:10]:
                    batch.insert(table, row)
                batch.insert_batch(table, rows[10:])
        else:
            table.insert_batch(rows[:20])
            table.insert_batch(rows[20:])
        assert sorted(calls) == sorted(
            ["by_k", "by_v", "by_vk"] * len(rows)
        )
        for row in rows:
            assert table.get("by_vk", (row[1], row[0])) == row
        monkeypatch.undo()
        if wal is not None:
            recovered, _ = recover_database(db)
            assert state_digest(recovered) == state_digest(db)

    def test_index_created_between_staging_and_commit(self, monkeypatch):
        db, table = make_db(wal=WalConfig(group_size=1))
        batch = db.begin_batch()
        batch.insert(table, (1, 10))
        batch.insert_batch(table, [(2, 20), (3, 30)])
        table.create_index("by_v", ("v",))
        calls = self._count_encodes(monkeypatch)
        batch.commit()
        # Staging encoded by_k; by_v, created after it, encodes at apply.
        assert sorted(calls) == ["by_v"] * 3
        assert [table.get("by_v", (v,)) for v in (10, 20, 30)] == [
            (1, 10), (2, 20), (3, 30)
        ]
        monkeypatch.undo()
        recovered, _ = recover_database(db)
        assert state_digest(recovered) == state_digest(db)

    def test_parked_index_is_validated_not_written(self, monkeypatch):
        db, table = make_db()
        table.create_index("by_v", ("v",))
        table.indexes["by_v"].parked = True

        class Advisor:
            parked_writes = 0

            def observe_parked_write(self, table_name, index_name, n):
                Advisor.parked_writes += n

            def observe_writes(self, *args):
                pass

        db.advisor = Advisor()
        calls = self._count_encodes(monkeypatch)
        table.insert((5, 50))
        table.insert_batch([(6, 60), (7, 70)])
        assert sorted(calls) == sorted(["by_k", "by_v"] * 3)
        assert Advisor.parked_writes == 3
        with pytest.raises(ValueError):
            table.insert((8, "x"))  # the parked index still validates
        assert len(table) == 3


class TestScalarIsOneOpBatch:
    """``DBTable.insert`` / ``delete`` commit one operation without
    staging it; each must stay observably a one-op ``begin_batch()``
    commit.  Two twin databases take the same ops, one through the
    scalar spellings and one as one-op batches, and must agree on
    every answer and on everything a write may touch."""

    WALS = [
        pytest.param(None, id="no-log"),
        pytest.param({"group_size": 4}, id="group"),
        pytest.param({"group_size": 4, "shards": 3}, id="sharded-log"),
    ]
    INDEXES = [
        pytest.param({"kind": "elastic", "size_bound_bytes": 3_000},
                     id="elastic"),
        pytest.param({"replicas": ReplicaConfig(replicas=3)},
                     id="replicated"),
    ]
    #: Rows every twin starts from, written through the compared paths.
    SEED = [("insert", (1000 + k, k)) for k in range(6)]

    @staticmethod
    def make_twin(wal, index_kwargs, faults=None):
        config = None if wal is None else WalConfig(faults=faults, **wal)
        db, table = make_db(wal=config, index_kwargs=index_kwargs)
        db.enable_budget_arbiter(1 << 20, interval_ops=5)
        return db, table

    @staticmethod
    def scalar(db, table, op):
        kind, arg = op
        return table.delete(arg) if kind == "delete" else table.insert(arg)

    @staticmethod
    def one_op_batch(db, table, op):
        kind, arg = op
        batch = db.begin_batch()
        if kind == "delete":
            batch.delete(table, arg)
            batch.commit()
            return batch.deleted_rows[0]
        batch.insert(table, arg)
        return batch.commit()[0]

    @staticmethod
    def outcome(write, db, table, op):
        """The write's return value, or the type of what it raised."""
        try:
            return write(db, table, op)
        except (ValueError, LookupError, CrashError) as exc:
            return type(exc)

    @staticmethod
    def observed(db):
        """Everything a write may touch, as plain data."""
        cost, wal = db.cost, db.wal
        state = [
            list(cost.counts.items()),
            {tag: list(b.items()) for tag, b in cost.tagged.items()},
            db.arbiter._ops_since,
            state_digest(db),
        ]
        if wal is not None:
            state += [
                [(r.lsn, r.op, r.table, r.payload, r.nbytes)
                 for r in wal.records],
                [stream.durable_lsn for stream in wal.streams],
                wal._appends, wal._applies, wal.fsyncs, wal.crashed,
            ]
        return state

    @staticmethod
    def as_ops(drawn):
        """Drawn (kind, int) pairs as writes: inserts of distinct keys,
        rows of the wrong width, deletes of any tid (live, dead, never
        assigned or negative)."""
        ops = []
        for i, (kind, n) in enumerate(drawn):
            if kind == "insert":
                ops.append(("insert", (i * 37 % 1000, n)))
            elif kind == "wide":
                ops.append(("insert", (i,) if n % 2 else (i, n, n)))
            else:
                ops.append(("delete", n))
        return ops

    @pytest.mark.parametrize("index_kwargs", INDEXES)
    @pytest.mark.parametrize("wal", WALS)
    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.one_of(
            st.tuples(st.just("insert"), st.integers(0, 1 << 16)),
            st.tuples(st.just("wide"), st.integers(0, 9)),
            st.tuples(st.just("delete"), st.integers(-3, 12)),
        ),
        max_size=40,
    ))
    # A dead tid, a never-assigned one and a negative one.
    @example(drawn=[("delete", 2), ("delete", 2), ("delete", 9),
                    ("delete", -1), ("insert", 5), ("wide", 1)])
    def test_twins_agree_after_every_op(self, wal, index_kwargs, drawn):
        twins = [self.make_twin(wal, index_kwargs) for _ in range(2)]
        for op in self.SEED + self.as_ops(drawn):
            answers = [
                self.outcome(write, db, table, op)
                for write, (db, table) in zip(
                    (self.scalar, self.one_op_batch), twins
                )
            ]
            assert answers[0] == answers[1], op
            assert self.observed(twins[0][0]) == self.observed(twins[1][0])

    KILLS = [{"append": 0}, {"append": 11}, {"fsync": 0}, {"fsync": 3},
             {"apply": 0}, {"apply": 13}]

    @pytest.mark.parametrize("kill", KILLS, ids=lambda k: "%s=%d" % (
        next(iter(k.items()))))
    @pytest.mark.parametrize("index_kwargs", INDEXES)
    @pytest.mark.parametrize("wal", WALS[1:])
    def test_kill_matrix(self, wal, index_kwargs, kill):
        # Inserts, live deletes, and rejected ones (a repeat delete, a
        # never-assigned tid, a negative one, a wrong-width row).
        ops = self.SEED + self.as_ops(
            [("insert", n) for n in range(12)]
            + [("delete", 1), ("delete", 1), ("delete", 40), ("delete", -1),
               ("wide", 0), ("delete", 7), ("insert", 99), ("delete", 3)]
            + [("insert", n) for n in range(12)]
        )
        results = []
        for write in (self.scalar, self.one_op_batch):
            db, table = self.make_twin(
                wal, index_kwargs, faults=FaultPlan().kill(**kill)
            )
            crashed_at = None
            for i, op in enumerate(ops):
                if self.outcome(write, db, table, op) is CrashError:
                    crashed_at = i
                    break
            assert crashed_at is not None
            # A crashed log refuses every write; a dead delete is still
            # rejected first, as a one-op batch's delete check does.
            after = [self.outcome(write, db, table, op)
                     for op in (("insert", (1, 1)), ("delete", 0))]
            durable = [(r.lsn, r.op, r.table, r.payload, r.nbytes)
                       for r in db.wal.durable_prefix()]
            recovered, report = recover_database(db)
            results.append((crashed_at, after, self.observed(db), durable,
                            state_digest(recovered), report))
        assert results[0] == results[1]
        assert WalError in results[0][1]


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
        observer = obs.Observer()
        plan = FaultPlan().kill(apply=20)
        db, table = make_db(wal=WalConfig(group_size=8, faults=plan))
        observer.watch(db.cost)
        with pytest.raises(CrashError):
            apply_batches(db, table, make_unit_ops(60), batch_size=16)
        recovered, _ = recover_database(db)
        # The crashed database's observer watches the recovered one.
        assert recovered.cost.observer is observer
        assert recovered.event_log() == db.event_log()
        replays = observer.event_log("recovery_replay")
        observer.close()
        # Appends and barriers are the log's own counts, not events.
        assert {e.kind for e in observer.events} == {"recovery_replay"}
        wal = db.wal
        assert [r.lsn for r in wal.records] == list(range(wal.next_lsn))
        assert wal.fsyncs == wal.next_lsn // 8 > 0
        assert len(replays) == 1
        replay = replays[0]
        assert replay.records_replayed + replay.records_discarded > 0
        assert replay.tables == 1 and replay.indexes == 1
        assert replay.cost_units > 0

    def test_metrics_registered(self):
        db, table = make_db(wal=WalConfig(group_size=4))
        table.insert_batch([(i, i) for i in range(12)])
        registry = layer_metrics(db)
        records = registry.get("repro_wal_records_total")
        commits = registry.get("repro_group_commits_total")
        durable = registry.get("repro_wal_durable_lsn")
        assert records.total() == 12
        assert registry.get("repro_wal_bytes_total").total() == sum(
            r.nbytes for r in db.wal.records
        )
        assert commits.total() == 3
        assert registry.get("repro_group_commit_records_total").value(
            stream="0") == 12
        assert durable.value(stream="0") == 11  # last lsn
        assert "repro_wal_records_total 12" in (
            db.metrics_snapshot().splitlines()
        )

    def test_obs_does_not_change_wal_costs(self):
        def run(observer=None):
            db, table = make_db(wal=WalConfig(group_size=8))
            if observer is not None:
                observer.watch(db.cost)
            with db.cost.measure() as delta:
                table.insert_batch([(i, i) for i in range(64)])
                db.wal.flush()
            return delta.weighted_cost()

        assert run(obs.Observer()) == run()


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
