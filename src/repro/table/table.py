"""In-memory row table with cost-charged indirect key loads."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.memory.allocator import TrackingAllocator
from repro.memory.cost_model import CostModel, NULL_COST_MODEL


@dataclass(frozen=True)
class RowSchema:
    """Fixed-width row layout used for space accounting.

    Attributes:
        name: Schema name for reporting.
        column_names: Names of the columns, in storage order.
        column_widths: Byte width of each column.
        column_types: Optional logical type per column — ``"u64"``
            (default), ``"i64"``, ``"f64"``, or ``"str"`` — used by the
            database facade to pick an order-preserving key encoding.
    """

    name: str
    column_names: Tuple[str, ...]
    column_widths: Tuple[int, ...]
    column_types: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if len(self.column_names) != len(self.column_widths):
            raise ValueError("column names and widths must align")
        if self.column_types is not None:
            if len(self.column_types) != len(self.column_names):
                raise ValueError("column types and names must align")
            for ctype, width in zip(self.column_types, self.column_widths):
                if ctype not in ("u64", "i64", "f64", "str"):
                    raise ValueError(f"unknown column type {ctype!r}")
                if ctype in ("u64", "i64", "f64") and width != 8:
                    raise ValueError(f"{ctype} columns must be 8 bytes wide")

    def type_of(self, position: int) -> str:
        if self.column_types is None:
            return "u64"
        return self.column_types[position]

    @property
    def row_bytes(self) -> int:
        """Storage size of one row."""
        return sum(self.column_widths)


#: Schema of the cloud-log table used in the MCAS experiments
#: (section 6.3): "Each row has 4 8-byte columns: the request's timestamp,
#: type, target object ID, and size."
IOTTA_SCHEMA = RowSchema(
    name="iotta_log",
    column_names=("timestamp", "op_type", "object_id", "size"),
    column_widths=(8, 8, 8, 8),
)


class Table:
    """Append-only in-memory table addressed by tuple id.

    ``load_key(tid)`` is the operation that defines the compact-node
    trade-off: it charges one indirect (``key_load``) access to the cost
    model, exactly as a real index would take a cache miss following a
    tuple pointer into the heap.

    Args:
        key_of_row: Extracts the index key (fixed-width ``bytes``) from a
            stored row.
        row_bytes: Storage size of one row, for dataset-size accounting
            (Figure 8a reports index size as a fraction of dataset size).
        cost_model: Shared cost account.
        allocator: If given, row storage is charged to it under the
            ``"table"`` category.
    """

    def __init__(
        self,
        key_of_row: Callable[[Any], bytes],
        row_bytes: int,
        cost_model: CostModel = NULL_COST_MODEL,
        allocator: Optional[TrackingAllocator] = None,
    ) -> None:
        self._key_of_row = key_of_row
        self.row_bytes = row_bytes
        self.cost_model = cost_model
        self.allocator = allocator
        self._rows: List[Any] = []
        self._free_tids: List[int] = []
        self._live_rows = 0

    # ------------------------------------------------------------------
    # Row storage
    # ------------------------------------------------------------------
    def insert_row(self, row: Any) -> int:
        """Store a row; returns its tuple id."""
        rows = self._rows
        tid = _take_tid(self._free_tids, len(rows))
        if tid < len(rows):
            rows[tid] = row
        else:
            rows.append(row)
        self._live_rows += 1
        if self.allocator is not None:
            self.allocator.allocate(self.row_bytes, "table")
        self.cost_model.seq_lines(max(1, self.row_bytes // 64))
        return tid

    def delete_row(self, tid: int) -> Any:
        """Remove a row, freeing its tuple id for reuse."""
        row = self.deletable_row(tid)
        self._rows[tid] = None
        self._free_tids.append(tid)
        self._live_rows -= 1
        if self.allocator is not None:
            self.allocator.free(self.row_bytes, "table")
        return row

    def deletable_row(self, tid: int) -> Any:
        """The row :meth:`delete_row` would remove, touching nothing.

        Raises ``IndexError`` for an id never assigned — a negative one
        too, which must not index the row array from its end — and
        ``KeyError`` for a dead one.
        """
        if tid < 0:
            raise IndexError(f"tuple id {tid} was never assigned")
        row = self._rows[tid]
        if row is None:
            raise KeyError(f"tuple id {tid} is not live")
        return row

    def row(self, tid: int) -> Any:
        """Fetch a row by tuple id (charges one random access)."""
        row = self.live_row(tid)
        self.cost_model.charge("rand_line", 1)
        return row

    def row_batch(self, tids: Sequence[Optional[int]]) -> List[Any]:
        """Fetch a batch of rows; a ``None`` tuple id gives ``None``.

        Charges the same random accesses as one :meth:`row` per id, in
        one charge.  A dead tuple id raises :meth:`row`'s ``KeyError``
        once the rows fetched before it are charged.
        """
        rows = self._rows
        out: List[Any] = []
        fetched = 0
        try:
            for tid in tids:
                row = None
                if tid is not None:
                    row = rows[tid]
                    if row is None:
                        raise KeyError(f"tuple id {tid} is not live")
                    fetched += 1
                out.append(row)
        finally:
            self.cost_model.charge("rand_line", fetched)
        return out

    def live_row(self, tid: int) -> Any:
        """The live row stored under ``tid``, without cost charging.

        This is the public accessor for code that needs raw row data and
        does its own cost accounting (e.g. per-index ``TableView``s);
        raises ``KeyError`` for dead or reused-and-freed tuple ids.
        """
        row = self._rows[tid]
        if row is None:
            raise KeyError(f"tuple id {tid} is not live")
        return row

    # ------------------------------------------------------------------
    # Indirect key access (the compact-node cost)
    # ------------------------------------------------------------------
    def load_key(self, tid: int) -> bytes:
        """Load the index key of row ``tid`` — one indirect access."""
        row = self.live_row(tid)
        self.cost_model.key_loads(1)
        return self._key_of_row(row)

    def load_key_batched(self, tid: int) -> bytes:
        """Load a key as part of a batch of independent loads (scans).

        Independent misses overlap in an out-of-order core, so these are
        cheaper than the dependent verify load of a point search.
        """
        row = self.live_row(tid)
        self.cost_model.key_loads_batched(1)
        return self._key_of_row(row)

    def load_keys_batched(self, tids: Sequence[int]) -> List[bytes]:
        """One :meth:`load_key_batched` per id, in one charge."""
        return self._keys_batched(tids, self._key_of_row)

    def _keys_batched(
        self, tids: Sequence[int], key_of_row: Callable[[Any], bytes]
    ) -> List[bytes]:
        # Shared with TableView, which passes its index's key extractor.
        rows = self._rows
        keys: List[bytes] = []
        loaded = 0
        try:
            for tid in tids:
                row = rows[tid]
                if row is None:
                    raise KeyError(f"tuple id {tid} is not live")
                loaded += 1
                keys.append(key_of_row(row))
        finally:
            self.cost_model.key_loads_batched(loaded)
        return keys

    def peek_key(self, tid: int) -> bytes:
        """Load a key *without* charging cost (test/verification use only)."""
        return self._key_of_row(self.live_row(tid))

    def iter_live(self):
        """Yield ``(tid, row)`` for every live row, in tid order.

        Uncharged: used for bulk work like index back-fill, where the
        caller charges its own (index-side) costs.
        """
        for tid, row in enumerate(self._rows):
            if row is not None:
                yield tid, row

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._live_rows

    @property
    def dataset_bytes(self) -> int:
        """Total bytes of live row data."""
        return self._live_rows * self.row_bytes


def _take_tid(free: List[int], next_tid: int) -> int:
    """The tuple id a stored row takes: the most recently freed one,
    popped from ``free``, else the new ``next_tid``."""
    return free.pop() if free else next_tid


class TidReplay:
    """A table's tuple-id assignment replayed over staged writes that
    store at most ``stores`` rows, without touching the table.
    :meth:`delete` raises what :meth:`Table.delete_row` would raise at
    that turn."""

    __slots__ = ("_table", "_free", "_next_tid", "_live")

    def __init__(self, table: Table, stores: int) -> None:
        free = table._free_tids
        self._table = table
        self._free = free[-stores:] if stores else []  # the top of the stack
        self._next_tid = len(table._rows)
        self._live: Dict[int, bool] = {}  # the ids the replay touched

    def store(self) -> None:
        tid = _take_tid(self._free, self._next_tid)
        if tid == self._next_tid:
            self._next_tid += 1
        self._live[tid] = True

    def delete(self, tid: int) -> None:
        live = self._live.get(tid)
        if live is None:
            self._table.deletable_row(tid)
        elif not live:
            raise KeyError(f"tuple id {tid} is not live")
        self._live[tid] = False
        self._free.append(tid)
