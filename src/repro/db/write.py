"""The transactional write surface: :class:`WriteBatch`, and the
per-operation write phases every write runs.

``Database.begin_batch()`` returns a :class:`WriteBatch`: operations
are *staged* (validated, nothing touched), and :meth:`WriteBatch.
commit` runs the whole pipeline::

    facade -> delete check -> WAL append -> group commit -> apply -> tick

The per-operation phases are written once: :func:`log_op` logs one
operation and :func:`apply_op` applies it, then runs its kill point and
arbiter tick.  Commit loops over them; the scalar ``DBTable.insert`` /
``delete`` validate and hand one operation to :func:`commit_op`, which
runs both around the group-commit rule without staging it, so each acts
exactly as a one-op batch.  ``DBTable.insert_batch`` is a one-call
batch.  A database without a write-ahead log charges **byte-identical
costs** to the pre-batch write path — the WAL phases vanish, and the
apply phase replays the exact historical charge sequences.

Staging rejects a row of the wrong width or one an index cannot
encode, and commit first rejects a delete of a row not live at its
turn, before anything is logged, applied or charged, so the log never
holds a record recovery could not replay.  With a log configured,
commit then appends one logical redo record per row (``log_append``
each) and schedules group-commit fsync barriers (see
:mod:`repro.wal.log`); only then does it mutate volatile state, one
staged operation at a time, ticking the budget arbiter after each —
which is also what fixes the historical gap where batched writes never
drove ``Database._tick``.  A scripted kill
firing during the append or fsync phase leaves volatile state
untouched; one firing between applies leaves a prefix applied, which
recovery discards wholesale and rebuilds from the durable log.

Usage::

    with db.begin_batch() as batch:
        batch.insert(orders, (7, 1200))
        batch.insert_batch(orders, more_rows)
        batch.delete(orders, stale_tid)
    # committed on clean exit; batch.tids / batch.deleted_rows hold
    # the results.  An exception inside the block discards the batch.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union,
)

from repro.errors import WalError
from repro.table.table import TidReplay

if TYPE_CHECKING:
    from repro.db.database import Database, DBTable
    from repro.wal.log import WriteAheadLog

#: Modeled payload size of a delete record (one 8-byte tuple id).
_DELETE_PAYLOAD_BYTES = 8


def log_op(
    wal: "WriteAheadLog", op: str, dbtable: "DBTable", payload
) -> None:
    """Append one staged operation's redo records: one per row stored
    (``"insert"`` / ``"insert_rows"``), one per tuple id deleted."""
    name = dbtable.schema.name
    if op == "insert":
        wal.append("insert", name, payload, dbtable.table.row_bytes)
    elif op == "delete":
        wal.append("delete", name, payload, _DELETE_PAYLOAD_BYTES)
    else:
        row_bytes = dbtable.table.row_bytes
        for row in payload:
            wal.append("insert", name, row, row_bytes)


def apply_op(
    db: "Database",
    wal: "Optional[WriteAheadLog]",
    op: str,
    dbtable: "DBTable",
    payload,
    keys=(),
) -> Any:
    """Apply one staged operation, then run its apply kill point and
    tick the arbiter by the rows it wrote.  ``keys`` are the index keys
    staging encoded (see :meth:`WriteBatch._validate`).  Returns the
    insert's tuple id, the row batch's tuple ids, or the deleted row."""
    if op == "insert":
        out = dbtable._apply_insert(payload, keys)
        ops = 1
    elif op == "delete":
        out = dbtable._apply_delete(payload)
        ops = 1
    else:
        out = dbtable._apply_insert_rows(payload, keys)
        ops = len(payload)
    if wal is not None:
        wal.notify_applied()
    db._tick(ops)
    return out


def commit_op(
    db: "Database", op: str, dbtable: "DBTable", payload, keys=()
) -> Any:
    """Commit one validated operation without staging it, in a one-op
    batch's order: log it, run the group-commit rule, apply it.  Returns
    what :func:`apply_op` returns."""
    wal = db.wal
    if wal is not None:
        log_op(wal, op, dbtable, payload)
        wal.group_commit()
    return apply_op(db, wal, op, dbtable, payload, keys)


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
        #: Staged ops: ("insert", table, row, keys) | ("insert_rows",
        #: table, rows, keys) | ("delete", table, tid, ()), in stage
        #: order; ``keys`` are the index keys validation encoded.
        self._staged: List[Tuple[str, "DBTable", object, Sequence]] = []
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
        row, keys = self._validate(dbtable, row)
        self._staged.append(("insert", dbtable, row, keys))
        self._stores += 1

    def insert_batch(
        self, table: "Union[DBTable, str]", rows: Sequence[Sequence]
    ) -> None:
        """Stage a row batch, applied with one shared-descent batch
        insert per index (the gapped data-parallel unit the log's group
        commit amortizes over)."""
        dbtable = self._resolve(table)
        validated = [self._validate(dbtable, row) for row in rows]
        rows = [row for row, _ in validated]
        # Transposed: one tuple of keys per index, aligned with the rows.
        keys = tuple(zip(*[row_keys for _, row_keys in validated]))
        self._staged.append(("insert_rows", dbtable, rows, keys))
        self._stores += len(rows)

    def delete(self, table: "Union[DBTable, str]", tid: int) -> None:
        """Stage one delete by tuple id (liveness checked at commit,
        before anything is logged or applied)."""
        self._staged.append(("delete", self._resolve(table), tid, ()))
        self._has_deletes = True

    def _resolve(self, table: "Union[DBTable, str]") -> "DBTable":
        self._check_open()
        if isinstance(table, str):
            return self._db.tables[table]
        return table

    @staticmethod
    def _validate(
        dbtable: "DBTable", row: Sequence
    ) -> Tuple[Tuple, List[bytes]]:
        """The row as a tuple and its key in every index of the table,
        parked ones included, in index order, once the row has the
        schema's width and every key encodes: a row the apply phase
        could not index is rejected before anything is logged, applied
        or charged, with the encoder's own exception.  The apply phase
        stores the keys, so each is encoded once."""
        row = tuple(row)
        if len(row) != len(dbtable.schema.column_names):
            raise ValueError(
                f"row has {len(row)} columns, schema needs "
                f"{len(dbtable.schema.column_names)}"
            )
        keys = []
        for secondary in dbtable.indexes.values():
            keys.append(secondary.key_of_row(row))
        return row, keys

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
            for op, dbtable, payload, _ in self._staged:
                log_op(wal, op, dbtable, payload)
            wal.group_commit()
        tids: List[int] = []
        for op, dbtable, payload, keys in self._staged:
            out = apply_op(db, wal, op, dbtable, payload, keys)
            if op == "insert":
                tids.append(out)
            elif op == "insert_rows":
                tids.extend(out)
            else:
                self.deleted_rows.append(out)
        self.tids = tids
        return tids

    def _check_deletes(self) -> None:
        """Raise what the apply phase would raise for the first staged
        delete of a row that is not live at its turn."""
        replays: Dict["DBTable", TidReplay] = {}
        for op, dbtable, payload, _ in self._staged:
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
