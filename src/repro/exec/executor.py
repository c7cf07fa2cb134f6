"""BatchExecutor: amortized execution of operation batches.

Why batching (DESIGN.md §6): a YCSB batch of 10k point lookups
executed one key per descent pays the root-to-leaf pointer-chase cost
10k times.  Sorting the batch into a run and descending once per
distinct subtree charges each inner node's random line and routing
compares once per batch; the per-key indirect loads that remain are
independent of each other, so they charge at the overlapped
``key_load_batched`` rate (memory-level parallelism) instead of the
dependent-load rate.  The BS-tree demonstrates the descent-sharing
economy for batched B+-tree operations; the Cuckoo Trie demonstrates
the MLP economy for independent key loads.

Dispatch goes through the :class:`~repro.baselines.interface.
OrderedIndex` protocol: ``lookup_batch`` / ``insert_sorted_batch`` /
``scan_batch`` are protocol members with sorted-scalar-loop defaults, so
the executor always calls the index's method and never probes with
``hasattr``.  Whether an index *overrides* a default with a native
shared-descent fast path is detected once, by class identity, for the
native/fallback accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.interface import OrderedIndex


@dataclass
class BatchStats:
    """Counters of executor activity (native vs. fallback dispatch)."""

    batches: int = 0
    ops: int = 0
    native_batches: int = 0
    fallback_batches: int = 0
    #: Point queries answered from the index's adaptive row cache
    #: before any descent was paid (0 when no cache is attached).
    cache_hits: int = 0
    #: Prefetch-wave tallies accumulated by read dispatches issued with
    #: an ``mlp_width`` >= 2 (all zero otherwise): waves charged, loads
    #: wave-priced, and cost units saved versus serial pricing.
    mlp_waves: int = 0
    mlp_loads: int = 0
    mlp_saved_units: float = 0.0
    by_kind: dict = field(default_factory=dict)

    def record(self, kind: str, ops: int, native: bool) -> None:
        self.batches += 1
        self.ops += ops
        if native:
            self.native_batches += 1
        else:
            self.fallback_batches += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + ops


def index_caches(index) -> List:
    """Adaptive caches behind an index: one per shard or replica
    (``caches()``), the plain index's ``cache``, or none."""
    caches = getattr(index, "caches", None)
    if caches is not None:
        return caches()
    cache = getattr(index, "cache", None)
    return [cache] if cache is not None else []


def _overrides_protocol_default(index, method_name: str) -> bool:
    """Whether ``index``'s class overrides the protocol's default method.

    Class-identity comparison against the default on ``OrderedIndex``:
    an index whose class (or a base) defines its own implementation is
    native; one inheriting the protocol default is on the fallback path.
    """
    default = getattr(OrderedIndex, method_name)
    return getattr(type(index), method_name, default) is not default


class BatchExecutor:
    """Executes operation batches against one ordered index.

    Args:
        index: Any :class:`~repro.baselines.interface.OrderedIndex`.
        max_batch: Batches larger than this are executed in chunks, so a
            caller may hand over an arbitrarily large operation buffer
            (an execution engine would bound its run size the same way).
        mlp_width: Optional prefetch-wave width for read dispatches.
            When set (>= 2), every ``get_batch`` / ``scan_batch`` chunk
            runs with the index's cost model defaulted to that
            :meth:`~repro.memory.CostModel.mlp_window` width, so the
            shared descents it issues are wave-priced; width 1 is the
            exact serial baseline.  Requires the index to expose its
            cost model as ``index.cost``.  ``None`` (the default)
            leaves the model's own width untouched.
    """

    def __init__(
        self,
        index,
        max_batch: int = 4096,
        mlp_width: Optional[int] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        if mlp_width is not None and mlp_width < 1:
            raise ValueError("mlp_width must be positive")
        self.index = index
        self.max_batch = max_batch
        self.mlp_width = mlp_width
        self._cost = getattr(index, "cost", None)
        if mlp_width is not None and self._cost is None:
            raise ValueError(
                "mlp_width requires an index exposing its cost model "
                "as index.cost"
            )
        self.stats = BatchStats()
        #: Per op kind: whether the index overrides the protocol's
        #: default (the ``native`` dispatch path) or inherits it.
        self.native_by_kind: Dict[str, bool] = {
            "get": _overrides_protocol_default(index, "lookup_batch"),
            "insert": _overrides_protocol_default(index, "insert_sorted_batch"),
            "scan": _overrides_protocol_default(index, "scan_batch"),
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def native(self) -> bool:
        """Whether the index overrides the protocol's batch defaults."""
        return self.native_by_kind["get"]

    # ------------------------------------------------------------------
    # Batch operations
    # ------------------------------------------------------------------
    def _dispatch(self, kind: str, call, items: Sequence, *args) -> List:
        """Hand ``items`` to ``call`` in chunks of at most ``max_batch``
        (one chunk, the batch itself, when it fits), recording each, and
        concatenate the answers."""
        out: List = []
        record = self.stats.record
        native = self.native_by_kind[kind]
        size = self.max_batch
        n = len(items)
        for start in range(0, n, size):
            chunk = items if n <= size else items[start:start + size]
            record(kind, len(chunk), native)
            out.extend(call(chunk, *args))
        return out

    def _read(self, kind: str, call, items: Sequence, *args) -> List:
        """:meth:`_dispatch` a read batch under the configured wave
        width, folding the wave tallies into :attr:`stats`; with no
        width configured, just dispatch it."""
        cost = self._cost
        if self.mlp_width is None or cost is None:
            return self._dispatch(kind, call, items, *args)
        totals = cost.mlp_totals
        loads = totals.loads
        waves = totals.waves
        saved = totals.saved_units
        with cost.using_mlp_width(self.mlp_width):
            try:
                return self._dispatch(kind, call, items, *args)
            finally:
                totals = cost.mlp_totals
                self.stats.mlp_loads += totals.loads - loads
                self.stats.mlp_waves += totals.waves - waves
                self.stats.mlp_saved_units += totals.saved_units - saved

    def get_batch(self, keys: Sequence[bytes]) -> List[Optional[int]]:
        """Point-query a batch; results align with the input order.

        When the index carries an adaptive cache, the whole batch is
        row-probed before any descent (inside the index's
        ``lookup_batch``); the hits it absorbed are surfaced on
        :attr:`stats` as ``cache_hits``.
        """
        caches = index_caches(self.index)
        hits_before = sum([c.stats.row_hits for c in caches])
        out = self._read("get", self.index.lookup_batch, keys)
        if caches:
            self.stats.cache_hits += (
                sum([c.stats.row_hits for c in caches]) - hits_before
            )
        return out

    def insert_batch(
        self, pairs: Sequence[Tuple[bytes, int]]
    ) -> List[Optional[int]]:
        """Insert a batch of (key, tid) pairs; returns replaced tids.

        Each chunk is applied in sorted-run order; duplicate keys within
        a chunk apply in input order, so the outcome matches a scalar
        input-order loop.
        """
        return self._dispatch("insert", self.index.insert_sorted_batch, pairs)

    def scan_batch(
        self, start_keys: Sequence[bytes], count: int
    ) -> List[List[Tuple[bytes, int]]]:
        """Run one ``count``-item scan per start key."""
        return self._read("scan", self.index.scan_batch, start_keys, count)
