"""The transactional write surface: :class:`WriteBatch`.

Every mutation in the database flows through one entry point —
``Database.begin_batch()`` returns a :class:`WriteBatch`, operations
are *staged* (validated, nothing touched), and :meth:`WriteBatch.
commit` runs the whole pipeline::

    facade -> delete check -> WAL append -> group commit -> apply -> tick

The scalar spellings (``DBTable.insert`` / ``insert_batch`` /
``delete``) are one-operation auto-committed batches over the same
path, so a database without a write-ahead log charges **byte-identical
costs** to the pre-batch write path — staging is pure Python, the WAL
phases vanish, and the apply phase replays the exact historical charge
sequences.

Commit first rejects a delete of a row not live at its turn, before
anything is logged, applied or charged, so the log never holds a record
recovery could not replay.  With a log configured, commit then appends
one logical redo record per row (``log_append`` each), emits the batch's
:class:`~repro.obs.WalAppendEvent`, and schedules group-commit fsync
barriers (see :mod:`repro.wal.log`); only then does it mutate volatile
state, one staged operation at a time, ticking the budget arbiter after
each — which is also what fixes the historical gap where batched writes
never drove ``Database._tick``.  A scripted kill firing during the
append or fsync phase leaves volatile state untouched; one firing
between applies leaves a prefix applied, which recovery discards
wholesale and rebuilds from the durable log.

Usage::

    with db.begin_batch() as batch:
        batch.insert(orders, (7, 1200))
        batch.insert_batch(orders, more_rows)
        batch.delete(orders, stale_tid)
    # committed on clean exit; batch.tids / batch.deleted_rows hold
    # the results.  An exception inside the block discards the batch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.errors import WalError
from repro.obs import WalAppendEvent
from repro.table.table import TidReplay

if TYPE_CHECKING:
    from repro.db.database import Database, DBTable

#: Modeled payload size of a delete record (one 8-byte tuple id).
_DELETE_PAYLOAD_BYTES = 8


class WriteBatch:
    """A staged, atomic-on-commit group of row mutations.

    Created by :meth:`Database.begin_batch <repro.db.database.Database.
    begin_batch>`.  Staging validates arguments but touches neither the
    log nor any table; :meth:`commit` (or a clean ``with``-block exit)
    runs the full write pipeline.  A batch commits at most once;
    staging into a committed batch raises
    :class:`~repro.errors.WalError`.
    """

    def __init__(self, db: "Database") -> None:
        self._db = db
        #: Staged ops: ("insert", table, row) | ("insert_rows", table,
        #: rows) | ("delete", table, tid), in stage order.
        self._staged: List[Tuple[str, "DBTable", object]] = []
        self._committed = False
        self._has_deletes = False  # commit validates staged deletes
        self._stores = 0  # staged rows to store, which bounds their tid reuse
        #: Tuple ids of every inserted row, in stage order (set by
        #: :meth:`commit`).
        self.tids: Optional[List[int]] = None
        #: Removed rows of every staged delete, in stage order.
        self.deleted_rows: List[Tuple] = []

    # ------------------------------------------------------------------
    # Staging
    # ------------------------------------------------------------------
    def insert(self, table: "Union[DBTable, str]", row: Sequence) -> None:
        """Stage one row insert."""
        dbtable = self._resolve(table)
        self._staged.append(("insert", dbtable, self._validate(dbtable, row)))
        self._stores += 1

    def insert_batch(
        self, table: "Union[DBTable, str]", rows: Sequence[Sequence]
    ) -> None:
        """Stage a row batch, applied with one shared-descent batch
        insert per index (the gapped data-parallel unit the log's group
        commit amortizes over)."""
        dbtable = self._resolve(table)
        rows = [self._validate(dbtable, row) for row in rows]
        self._staged.append(("insert_rows", dbtable, rows))
        self._stores += len(rows)

    def delete(self, table: "Union[DBTable, str]", tid: int) -> None:
        """Stage one delete by tuple id (liveness checked at commit,
        before anything is logged or applied)."""
        self._staged.append(("delete", self._resolve(table), tid))
        self._has_deletes = True

    def _resolve(self, table: "Union[DBTable, str]") -> "DBTable":
        self._check_open()
        if isinstance(table, str):
            return self._db.tables[table]
        return table

    @staticmethod
    def _validate(dbtable: "DBTable", row: Sequence) -> Tuple:
        row = tuple(row)
        if len(row) != len(dbtable.schema.column_names):
            raise ValueError(
                f"row has {len(row)} columns, schema needs "
                f"{len(dbtable.schema.column_names)}"
            )
        return row

    def _check_open(self) -> None:
        if self._committed:
            raise WalError("write batch already committed")

    @property
    def staged_ops(self) -> int:
        """Number of staged operations (row batches count as one)."""
        return len(self._staged)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def commit(self) -> List[int]:
        """Run the write pipeline; returns inserted tuple ids in stage
        order.  With a write-ahead log: append all records, schedule
        group-commit barriers, then apply — any scripted
        :class:`~repro.wal.CrashError` before the apply phase leaves
        volatile state untouched."""
        self._check_open()
        self._committed = True
        if self._has_deletes:
            self._check_deletes()
        db = self._db
        wal = db.wal
        if wal is not None and self._staged:
            records = []
            for op, dbtable, payload in self._staged:
                name = dbtable.schema.name
                row_bytes = dbtable.table.row_bytes
                if op == "insert":
                    records.append(
                        wal.append("insert", name, payload, row_bytes)
                    )
                elif op == "insert_rows":
                    for row in payload:
                        records.append(
                            wal.append("insert", name, row, row_bytes)
                        )
                else:
                    records.append(wal.append(
                        "delete", name, payload, _DELETE_PAYLOAD_BYTES
                    ))
            if records and obs.is_enabled():
                obs.emit(WalAppendEvent(
                    records=len(records),
                    batch_ops=len(self._staged),
                    nbytes=sum(r.nbytes for r in records),
                    streams=wal.config.shards,
                    first_lsn=records[0].lsn,
                    last_lsn=records[-1].lsn,
                ))
            wal.group_commit()
        tids: List[int] = []
        for op, dbtable, payload in self._staged:
            if op == "insert":
                tids.append(dbtable._apply_insert(payload))
                ops = 1
            elif op == "insert_rows":
                tids.extend(dbtable._apply_insert_rows(payload))
                ops = len(payload)
            else:
                self.deleted_rows.append(dbtable._apply_delete(payload))
                ops = 1
            if wal is not None:
                wal.notify_applied()
            db._tick(ops)
        self.tids = tids
        return tids

    def _check_deletes(self) -> None:
        """Raise what the apply phase would raise for the first staged
        delete of a row that is not live at its turn."""
        replays: Dict["DBTable", TidReplay] = {}
        for op, dbtable, payload in self._staged:
            replay = replays.get(dbtable)
            if replay is None:
                replay = replays[dbtable] = TidReplay(
                    dbtable.table, self._stores
                )
            if op == "delete":
                replay.delete(payload)
            else:
                for _ in range(1 if op == "insert" else len(payload)):
                    replay.store()

    # ------------------------------------------------------------------
    def __enter__(self) -> "WriteBatch":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None and not self._committed:
            self.commit()
        return False
