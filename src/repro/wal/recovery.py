"""Snapshot + log-replay crash recovery (``repro.wal.recovery``).

A crash (a :class:`~repro.wal.log.CrashError` raised at a scripted kill
point) loses everything volatile: in-memory tables, every index, any
appended-but-unfsynced log suffix.  What survives is what the modeled
stable media holds — the checkpoint image installed by
:meth:`Database.snapshot <repro.db.database.Database.snapshot>` (if
any) and the log's durable record prefix.  :func:`recover_database`
rebuilds a fresh database from exactly that:

1. **DDL replay** — the crashed database's recorded schema history
   (``create_table`` / ``create_index`` / ``enable_budget_arbiter``
   calls) re-creates empty tables and indexes;
2. **snapshot restore** — each table's checkpoint image is copied back
   (rows, dead slots, and free-tid stack order, so later replay
   re-derives the exact tuple ids the original run assigned), and the
   indexes are back-filled from the restored rows;
3. **log replay** — the durable records above the snapshot lsn re-apply
   in lsn order through the scalar write path.  The *durable-prefix
   rule*: replay stops at the first non-durable lsn, because a durable
   record above a torn one cannot be applied without corrupting
   tuple-id assignment; everything past the gap is discarded and
   counted in the :class:`RecoveryReport`.

Replay cost is measured on the fresh database's cost model and
attributed to the ``"recovery"`` tag; the replayed records carry into
the new log already durable (they were fsynced in their prior life), so
recovering a recovered database is stable — recovery is idempotent,
which the test suite checks as a hypothesis property.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cluster import ReplicaSet
from repro.errors import RecoveryError
from repro.memory.cost_model import CostModel
from repro.obs import RecoveryReplayEvent
from repro.wal.log import WalConfig

if TYPE_CHECKING:  # import cycle: repro.db imports repro.wal.log
    from repro.db.database import Database


@dataclass(frozen=True)
class RecoveryReport:
    """What one :func:`recover_database` call rebuilt and replayed."""

    records_replayed: int
    records_discarded: int
    snapshot_lsn: int
    durable_lsn: int
    tables: int
    indexes: int
    cost_units: float


def recover_database(db: Database) -> "tuple[Database, RecoveryReport]":
    """Rebuild a fresh database from ``db``'s durable state.

    ``db`` is the crashed (or simply abandoned) database; it must have
    a write-ahead log, else there is nothing durable to recover from
    and :class:`~repro.errors.RecoveryError` is raised.  Returns the
    recovered database — a new process's view, with its own fresh cost
    model (same weights) and a fault-free log carrying the replayed
    records — plus the :class:`RecoveryReport`.
    """
    from repro.db.database import Database

    wal = db.wal
    if wal is None:
        raise RecoveryError(
            "database has no write-ahead log; nothing durable to recover"
        )
    config = WalConfig(
        group_size=wal.config.group_size, shards=wal.config.shards
    )
    new_db = Database(
        cost_model=CostModel(weights=db.cost.weights), wal=config
    )
    if db.cost.observer is not None:
        # The crashed database's log continues on the recovered one.
        db.cost.observer.watch(new_db.cost)

    durable = wal.durable_prefix()
    discarded = len(wal.records) - len(durable)
    durable_lsn = durable[-1].lsn if durable else -1
    snapshot_lsn = wal.snapshot_lsn

    with new_db.cost.measure() as delta:
        with new_db.cost.attributed_to("recovery"):
            # 1. DDL replay: empty tables and indexes.
            for entry in db._ddl:
                if entry[0] == "create_table":
                    new_db.create_table(entry[1])
                elif entry[0] == "create_index":
                    _, table_name, name, columns, kwargs = entry
                    new_db.tables[table_name].create_index(
                        name, columns, **kwargs
                    )
                elif entry[0] == "enable_budget_arbiter":
                    new_db.enable_budget_arbiter(entry[1], **entry[2])
                elif entry[0] == "enable_self_tuning":
                    # The advisor's learned windows are volatile; the
                    # recovered database restarts the loop fresh under
                    # the same configuration.
                    new_db.enable_self_tuning(entry[1])

            # 2. Snapshot restore: checkpoint rows back into place,
            # then back-fill the (empty) indexes from them.
            if wal.snapshot_tables is not None:
                for table_name, snap in wal.snapshot_tables.items():
                    if table_name not in new_db.tables:
                        raise RecoveryError(
                            f"snapshot references unknown table "
                            f"{table_name!r}"
                        )
                    dbtable = new_db.tables[table_name]
                    store = dbtable.table
                    store._rows = list(snap.rows)
                    store._free_tids = list(snap.free_tids)
                    store._live_rows = snap.live_rows
                    new_db.allocator.allocate(
                        snap.live_rows * store.row_bytes, "table"
                    )
                    new_db.cost.copy_bytes(
                        snap.live_rows * store.row_bytes
                    )
                    for secondary in dbtable.indexes.values():
                        for tid, row in store.iter_live():
                            secondary.index.insert(
                                secondary.key_of_row(row), tid
                            )

            # 3. Durable-log replay above the snapshot, in lsn order.
            replayed = 0
            for record in durable:
                if record.lsn <= snapshot_lsn:
                    continue
                if record.table not in new_db.tables:
                    raise RecoveryError(
                        f"log record {record.lsn} references unknown "
                        f"table {record.table!r}"
                    )
                dbtable = new_db.tables[record.table]
                if record.op == "insert":
                    dbtable._apply_insert(tuple(record.payload))
                elif record.op == "delete":
                    dbtable._apply_delete(record.payload)
                else:
                    raise RecoveryError(
                        f"log record {record.lsn} has unknown op "
                        f"{record.op!r}"
                    )
                new_db._tick(1)
                replayed += 1

    # The replayed records were durable in their prior life; carry them
    # (and the checkpoint) into the new log uncharged, so the recovered
    # database is itself recoverable and re-recovery is a fixed point.
    assert new_db.wal is not None
    new_db.wal.adopt(durable)
    if wal.snapshot_tables is not None:
        new_db.wal.install_snapshot(wal.snapshot_tables, snapshot_lsn)

    n_indexes = sum(len(t.indexes) for t in new_db.tables.values())
    report = RecoveryReport(
        records_replayed=replayed,
        records_discarded=discarded,
        snapshot_lsn=snapshot_lsn,
        durable_lsn=durable_lsn,
        tables=len(new_db.tables),
        indexes=n_indexes,
        cost_units=delta.weighted_cost(),
    )
    observer = new_db.cost.observer
    if observer is not None:
        observer.record(RecoveryReplayEvent(
            records_replayed=report.records_replayed,
            records_discarded=report.records_discarded,
            snapshot_lsn=report.snapshot_lsn,
            durable_lsn=report.durable_lsn,
            tables=report.tables,
            indexes=n_indexes,
            cost_units=report.cost_units,
        ))
    return new_db, report


def state_digest(db: Database) -> bytes:
    """Canonical content digest of every table and index in ``db``.

    The kill-and-recover differential's equality check: live rows with
    their tuple ids, the free-tid stack order, and every index's full
    scan output, hashed in sorted name order.  Two databases with equal
    digests hold byte-identical logical state — same rows under the
    same tuple ids, same index contents.  Computed with cost charging
    paused, so taking a digest never perturbs the ledger; a replicated
    index is read through replica 0's index (every replica holds the
    same content), so a digest never routes a read either — no router
    sample, class-mix op or score-clock tick.
    """
    h = hashlib.sha256()
    with db.cost.paused():
        for table_name in sorted(db.tables):
            dbtable = db.tables[table_name]
            store = dbtable.table
            h.update(f"table {table_name}\n".encode())
            for tid, row in store.iter_live():
                h.update(repr((tid, tuple(row))).encode())
            h.update(repr(list(store._free_tids)).encode())
            for index_name in sorted(dbtable.indexes):
                secondary = dbtable.indexes[index_name]
                h.update(f"index {index_name}\n".encode())
                index = secondary.index
                if isinstance(index, ReplicaSet):
                    index = index.replicas[0].index
                count = len(store)
                items = []
                if count:
                    items = index.scan(b"\x00" * secondary.key_width, count)
                h.update(repr(list(items)).encode())
    return h.digest()
