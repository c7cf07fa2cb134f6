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
        if self._free_tids:
            tid = self._free_tids.pop()
            self._rows[tid] = row
        else:
            tid = len(self._rows)
            self._rows.append(row)
        self._live_rows += 1
        if self.allocator is not None:
            self.allocator.allocate(self.row_bytes, "table")
        self.cost_model.seq_lines(max(1, self.row_bytes // 64))
        return tid

    def delete_row(self, tid: int) -> Any:
        """Remove a row, freeing its tuple id for reuse."""
        row = self._rows[tid]
        if row is None:
            raise KeyError(f"tuple id {tid} is not live")
        self._rows[tid] = None
        self._free_tids.append(tid)
        self._live_rows -= 1
        if self.allocator is not None:
            self.allocator.free(self.row_bytes, "table")
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
