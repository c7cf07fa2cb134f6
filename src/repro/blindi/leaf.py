"""CompactLeaf: adapts a blind-trie representation to the B+-tree leaf ADT.

This is the "compact node representation" parameter of the elastic index
framework (paper section 3): any representation with the SeqTrie-style
interface (SeqTrie, SeqTree, SubTrie) becomes a drop-in B+-tree leaf with
indirect key storage.  Every key access — scan iteration, separator
computation, conversion back to a standard leaf — loads keys from the
table and is charged accordingly; that is precisely the space/efficiency
trade-off the paper studies.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple, Type

from repro.btree.leaves import LeafFullError, LeafNode, next_node_id
from repro.blindi.breathing import BreathingTidArray, TID_BYTES
from repro.blindi.seqtrie import SearchResult, SeqTrieRep
from repro.keys.bitops import first_diff_bit
from repro.memory.allocator import TrackingAllocator
from repro.memory.cost_model import CostModel, NULL_COST_MODEL
from repro.table.table import Table

#: Compact node header: capacity/occupancy bookkeeping plus chain pointers.
COMPACT_HEADER_BYTES = 24


class CompactLeaf(LeafNode):
    """B+-tree leaf with a blind-trie representation and indirect keys."""

    kind = "compact"
    indirect_keys = True

    def __init__(
        self,
        capacity: int,
        table: Table,
        allocator: TrackingAllocator,
        cost_model: CostModel = NULL_COST_MODEL,
        key_width: int = 8,
        rep_cls: Type[SeqTrieRep] = SeqTrieRep,
        rep_kwargs: Optional[dict] = None,
        breathing_slack: Optional[int] = None,
        items: Optional[List[Tuple[bytes, int]]] = None,
        rep: Optional[SeqTrieRep] = None,
    ) -> None:
        if capacity < 4:
            raise ValueError(f"compact capacity {capacity} too small")
        self._capacity = capacity
        self.table = table
        self.allocator = allocator
        self.cost = cost_model
        self.key_width = key_width
        self.rep_kwargs = dict(rep_kwargs or {})
        if rep is not None:
            self.rep = rep
            if rep.n > capacity:
                raise ValueError("adopted representation exceeds capacity")
            if not self.rep_kwargs:
                self.rep_kwargs = rep._ctor_kwargs()
            # Adopting an existing representation (capacity conversion or
            # split) copies its arrays into the new node.
            cost_model.copy_bytes(
                rep.n * TID_BYTES + max(0, rep.n - 1) * rep.bit_entry_bytes
            )
        elif items:
            if len(items) > capacity:
                raise ValueError("initial items exceed capacity")
            keys = [k for k, _ in items]
            tids = [t for _, t in items]
            self.rep = rep_cls.from_sorted(
                keys, tids, table, key_width, cost_model, **self.rep_kwargs
            )
        else:
            self.rep = rep_cls(table, key_width, cost_model, **self.rep_kwargs)
        self.breathing: Optional[BreathingTidArray] = None
        if breathing_slack is not None:
            self.breathing = BreathingTidArray(
                breathing_slack, capacity, self.rep.n, allocator, cost_model
            )
        self.breathing_slack = breathing_slack
        self.next_leaf: Optional[LeafNode] = None
        self.prev_leaf: Optional[LeafNode] = None
        self.node_id = next_node_id()
        #: Set by the elasticity controller: raises the underflow trigger
        #: to the paper's k+1 invariant (section 4).
        self.elastic_underflow = False
        self._alive = True
        self.allocator.allocate(self._body_bytes, "leaf.compact")

    # ------------------------------------------------------------------
    # Space model
    # ------------------------------------------------------------------
    @property
    def _body_bytes(self) -> int:
        """Node body: header, blind-trie payload, and either the in-node
        tuple-id array or a pointer to the breathing array."""
        body = COMPACT_HEADER_BYTES + self.rep.payload_bytes(self._capacity)
        if self.breathing is not None:
            body += 8  # pointer to the external tuple-id array
        else:
            body += self._capacity * TID_BYTES
        return body

    @property
    def size_bytes(self) -> int:
        total = self._body_bytes
        if self.breathing is not None:
            total += self.breathing.size_bytes
        return total

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return len(self.rep.tids)

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def underflow_threshold(self) -> int:
        """Occupancy below which an underflow event fires.

        Plain compact trees (the SeqTree128 / STX-SeqTree baselines) use
        the structural half-capacity bound.  The elasticity controller
        sets :attr:`elastic_underflow` to enforce the paper's invariant —
        capacity 2k requires at least k+1 keys — so compact leaves step
        down the capacity ladder on removals (section 4).
        """
        if self.elastic_underflow:
            return self._capacity // 2 + 1
        return self.min_fill

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------
    def _breathing_search_cost(self) -> None:
        if self.breathing is not None:
            # One extra dependent dereference before the data pointer.
            self.cost.charge("seq_line", 2)

    def _search(self, key: bytes) -> SearchResult:
        # Every point operation's hot path: the same attribution as
        # ``with cost.attributed_to("compact.search")``, set and restored
        # by hand to skip the context-manager machinery.  The node
        # access joins the kernel's one charge.
        cost = self.cost
        previous = cost._attribution
        cost._attribution = "compact.search"
        try:
            result = self.rep.search(key, node_lines=1)
            self._breathing_search_cost()
        finally:
            cost._attribution = previous
        return result

    def lookup(self, key: bytes) -> Optional[int]:
        result = self._search(key)
        if result.found:
            return self.rep.tids[result.pos]
        return None

    def lookup_batch(self, keys: List[bytes]) -> List[Optional[int]]:
        # One node access for the whole run (the blind-trie payload stays
        # cache-resident); every verification load is issued as part of a
        # batch of independent accesses, so it charges at the overlapped
        # key_load_batched rate instead of the dependent-load rate.  The
        # tag and the mlp_batch depth are set and restored by hand, as in
        # _search: the same ledger effect as ``attributed_to`` around
        # ``mlp_batch``, without their context managers.
        rep = self.rep
        search = rep.search
        tid_at = rep.tid_at
        out: List[Optional[int]] = []
        cost = self.cost
        previous = cost._attribution
        cost._attribution = "compact.search"
        try:
            # Independent across the batch's leaf groups: wave-priced
            # under an open mlp_window, serial otherwise.
            cost.wave_loads("rand_line", 1)
            self._breathing_search_cost()
            cost._mlp_depth += 1
            try:
                for key in keys:
                    result = search(key)
                    out.append(tid_at(result.pos) if result.found else None)
            finally:
                cost._mlp_depth -= 1
        finally:
            cost._attribution = previous
        return out

    def upsert(self, key: bytes, tid: int) -> Optional[int]:
        rep = self.rep
        result = self._search(key)
        if result.found:
            return rep.replace_tid(result.pos, tid)
        n = len(rep.tids)
        if n >= self._capacity:
            raise LeafFullError()
        cost = self.cost  # attribution set by hand, as in _search
        previous = cost._attribution
        cost._attribution = "compact.update"
        try:
            if self.breathing is not None:
                self.breathing.ensure_room(n + 1)
            rep.insert_new(result, key, tid)
        finally:
            cost._attribution = previous
        return None

    def remove(self, key: bytes) -> Optional[int]:
        result = self._search(key)
        if not result.found:
            return None
        cost = self.cost
        previous = cost._attribution
        cost._attribution = "compact.update"
        try:
            return self.rep.remove_at(result.pos)
        finally:
            cost._attribution = previous

    # ------------------------------------------------------------------
    # Ordered access (each key is an indirect load)
    # ------------------------------------------------------------------
    def first_key(self) -> bytes:
        return self.rep.key_at(0)

    def items(self) -> Iterator[Tuple[bytes, int]]:
        # Scan iteration loads every key from the table; the loads are
        # independent and overlap in hardware (batched cost).
        self.cost.rand_lines(1)
        for pos in range(self.rep.n):
            yield self.table.load_key_batched(self.rep.tid_at(pos)), self.rep.tid_at(pos)

    def iter_from(self, key: bytes) -> Iterator[Tuple[bytes, int]]:
        result = self.rep.search(key, node_lines=1)
        start = result.pos if result.found else result.pred + 1
        for pos in range(start, self.rep.n):
            yield self.table.load_key_batched(self.rep.tid_at(pos)), self.rep.tid_at(pos)

    def take_first(self) -> Tuple[bytes, int]:
        key = self.rep.key_at(0)
        return key, self.rep.remove_at(0)

    def take_last(self) -> Tuple[bytes, int]:
        key = self.rep.key_at(self.rep.n - 1)
        return key, self.rep.remove_at(self.rep.n - 1)

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def split(self, fraction: float = 0.5) -> Tuple["CompactLeaf", bytes]:
        right_rep = self.rep.split(fraction)
        right = CompactLeaf(
            self._capacity,
            self.table,
            self.allocator,
            self.cost,
            self.key_width,
            breathing_slack=self.breathing_slack,
            rep=right_rep,
        )
        right.elastic_underflow = self.elastic_underflow
        if self.breathing is not None:
            self.breathing.reset_capacity(self._capacity, self.rep.n)
        return right, right.first_key()

    def merge_from(self, right: LeafNode) -> None:
        if self.count + right.count > self._capacity:
            raise ValueError("merge would overflow compact leaf")
        if isinstance(right, CompactLeaf):
            self.rep.merge_from(right.rep)
        else:
            keys, tids = right.keys_and_tids()
            if not keys:
                return
            if self.rep.n == 0:
                rebuilt = type(self.rep).from_sorted(
                    keys, tids, self.table, self.key_width, self.cost,
                    **self.rep_kwargs,
                )
                self.rep = rebuilt
            else:
                last_left = self.rep.key_at(self.rep.n - 1)
                boundary = first_diff_bit(last_left, keys[0])
                if boundary is None:
                    raise ValueError("merge of overlapping key ranges")
                self.rep.append_run(keys, tids, boundary)
        if self.breathing is not None:
            self.breathing.ensure_room(self.rep.n)

    def keys_and_tids(self) -> Tuple[List[bytes], List[int]]:
        tids = list(self.rep.tids)
        return self.table.load_keys_batched(tids), tids

    # ------------------------------------------------------------------
    # Conversion helpers (used by the elasticity algorithm)
    # ------------------------------------------------------------------
    def with_capacity(self, new_capacity: int) -> "CompactLeaf":
        """New compact leaf adopting this one's representation, at a
        different capacity (the overflow/underflow capacity ladder of
        section 4).  The caller replaces this leaf in the tree and then
        destroys it."""
        leaf = CompactLeaf(
            new_capacity,
            self.table,
            self.allocator,
            self.cost,
            self.key_width,
            breathing_slack=self.breathing_slack,
            rep=self.rep,
        )
        leaf.elastic_underflow = self.elastic_underflow
        return leaf

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def destroy(self) -> None:
        if self._alive:
            self.allocator.free(self._body_bytes, "leaf.compact")
            if self.breathing is not None:
                self.breathing.destroy()
            self._alive = False

    def __repr__(self) -> str:
        return (
            f"<CompactLeaf[{self.rep.kind}] n={self.count}/{self._capacity}>"
        )


def compact_leaf_factory(
    rep_cls: Type[SeqTrieRep],
    capacity: int,
    table: Table,
    key_width: int,
    breathing_slack: Optional[int] = None,
    rep_kwargs: Optional[dict] = None,
) -> Callable[[object], CompactLeaf]:
    """Factory for trees whose *every* leaf is compact (the SeqTree128 /
    STX-SeqTree / STX-SubTrie baselines of sections 6.1 and 6.4)."""

    def make(tree) -> CompactLeaf:
        return CompactLeaf(
            capacity,
            table,
            tree.allocator,
            tree.cost,
            key_width,
            rep_cls=rep_cls,
            rep_kwargs=rep_kwargs,
            breathing_slack=breathing_slack,
        )

    return make
