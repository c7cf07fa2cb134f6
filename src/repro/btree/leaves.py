"""Leaf ADT and the standard (internal-key-storage) leaf.

The paper (section 3) observes that B+-tree leaves are "mini indexes"
with a six-operation ADT: insert, remove, find, predecessor/successor,
split, and merge.  :class:`LeafNode` is that ADT, extended with the
space/cost reporting this reproduction needs.  :class:`StandardLeaf` is
the STX-style sorted-array leaf; the compact blind-trie leaves in
:mod:`repro.blindi` implement the same ADT with indirect key storage.
"""

from __future__ import annotations

import abc
import bisect
from typing import Iterator, List, Optional, Tuple

from repro.memory.allocator import TrackingAllocator
from repro.memory.cost_model import CostModel, NULL_COST_MODEL

#: Layout constants (bytes) modelling the STX B+-tree node headers:
#: level/slot bookkeeping plus the doubly-linked leaf chain pointers.
LEAF_HEADER_BYTES = 32
TID_BYTES = 8

_CACHE_LINE = 64

_node_id_counter = 0


def next_node_id() -> int:
    """Monotonic node id, used by the concurrency simulator."""
    global _node_id_counter
    _node_id_counter += 1
    return _node_id_counter


class LeafFullError(Exception):
    """Raised by ``upsert`` when a new key does not fit: an overflow event.

    The tree catches this and routes it through the overflow handler,
    which is where the elasticity algorithm piggybacks conversion
    (paper section 4, "Shrinking").
    """


class LeafNode(abc.ABC):
    """Abstract leaf ADT shared by standard and compact representations."""

    #: Canonical leaf-kind discriminator.  Every concrete representation
    #: declares its registered kind name (see :mod:`repro.btree.kinds`);
    #: conversion machinery, stats, caching, and tooling dispatch on this
    #: string instead of probing representation-specific booleans.
    kind: str = "standard"

    #: True when keys live behind tuple ids in the table (blind tries,
    #: learned leaves) rather than inline — the representations whose
    #: verify loads the adaptive row cache can short-circuit.
    indirect_keys: bool = False

    #: Query-access counter maintained by elastic hosts, consumed by
    #: access-aware grow/shrink policies (section 4's future-work policy,
    #: implemented as :class:`repro.core.policies.ColdFirstPolicy`).
    #: Class default 0; incrementing creates the instance attribute.
    access_count: int = 0

    next_leaf: Optional["LeafNode"]
    prev_leaf: Optional["LeafNode"]
    node_id: int

    @property
    def is_compact(self) -> bool:
        """Derived compatibility probe: ``kind == "compact"``.

        :attr:`kind` is the canonical discriminator; this property is
        kept for external callers and tests that still speak the paper's
        two-point full/compact vocabulary.
        """
        return self.kind == "compact"

    # -- capacity -------------------------------------------------------
    @property
    @abc.abstractmethod
    def count(self) -> int:
        """Number of keys currently stored."""

    @property
    @abc.abstractmethod
    def capacity(self) -> int:
        """Maximum number of keys this leaf may hold."""

    @property
    def is_full(self) -> bool:
        """Whether an insert of a new key would overflow."""
        return self.count >= self.capacity

    @property
    def min_fill(self) -> int:
        """Structural fill bound used by rebalancing: half capacity."""
        return self.capacity // 2

    @property
    def underflow_threshold(self) -> int:
        """Occupancy below which the tree raises an underflow event.

        Defaults to the structural bound.  The elasticity algorithm
        raises it on compact leaves to the paper's invariant — a compact
        leaf of capacity 2k must hold at least k+1 keys (section 4) — so
        that underflowing compact leaves are converted down the capacity
        ladder instead of being rebalanced.
        """
        return self.min_fill

    # -- point operations ------------------------------------------------
    @abc.abstractmethod
    def lookup(self, key: bytes) -> Optional[int]:
        """Return the tuple id mapped to ``key``, or ``None``."""

    def lookup_batch(self, keys: List[bytes]) -> List[Optional[int]]:
        """Look up a sorted run of keys that all route to this leaf.

        The default is the scalar loop; representations override it to
        share per-node access costs across the run and to issue indirect
        key loads as independent (batched) accesses.
        """
        return [self.lookup(key) for key in keys]

    @abc.abstractmethod
    def upsert(self, key: bytes, tid: int) -> Optional[int]:
        """Insert or replace ``key``; returns the replaced tuple id.

        Raises:
            LeafFullError: if the key is absent and the leaf is full.
        """

    @abc.abstractmethod
    def remove(self, key: bytes) -> Optional[int]:
        """Remove ``key``; returns its tuple id, or ``None`` if absent."""

    # -- ordered access ---------------------------------------------------
    @abc.abstractmethod
    def first_key(self) -> bytes:
        """Smallest key in the leaf (used as parent separator)."""

    @abc.abstractmethod
    def items(self) -> Iterator[Tuple[bytes, int]]:
        """All (key, tid) pairs in key order (charges per-key loads on
        compact leaves — the scan cost the paper studies)."""

    @abc.abstractmethod
    def iter_from(self, key: bytes) -> Iterator[Tuple[bytes, int]]:
        """(key, tid) pairs for keys >= ``key``, in order."""

    @abc.abstractmethod
    def take_first(self) -> Tuple[bytes, int]:
        """Remove and return the smallest item (sibling borrow)."""

    @abc.abstractmethod
    def take_last(self) -> Tuple[bytes, int]:
        """Remove and return the largest item (sibling borrow)."""

    # -- structural operations ---------------------------------------------
    @abc.abstractmethod
    def split(self, fraction: float = 0.5) -> Tuple["LeafNode", bytes]:
        """Split at ``fraction`` of the keys into a new right sibling.

        Returns the new leaf and the separator key (its first key).
        Leaf-chain pointers are fixed up by the tree, not here.  The
        tree passes a larger fraction for append-pattern splits of the
        rightmost leaf (sequential inserts then reach ~70% occupancy
        instead of 50%).
        """

    @abc.abstractmethod
    def merge_from(self, right: "LeafNode") -> None:
        """Absorb all items of ``right`` (which follows this leaf)."""

    @abc.abstractmethod
    def keys_and_tids(self) -> Tuple[List[bytes], List[int]]:
        """Materialize contents for representation conversion (charges
        per-key loads on compact leaves)."""

    # -- accounting ---------------------------------------------------------
    @property
    @abc.abstractmethod
    def size_bytes(self) -> int:
        """Currently allocated bytes (as charged to the allocator)."""

    @abc.abstractmethod
    def destroy(self) -> None:
        """Release this leaf's allocation."""

    # -- shared chain helpers -------------------------------------------------
    def link_after(self, left: Optional["LeafNode"]) -> None:
        """Insert this leaf into the chain immediately after ``left``."""
        self.prev_leaf = left
        if left is not None:
            self.next_leaf = left.next_leaf
            if left.next_leaf is not None:
                left.next_leaf.prev_leaf = self
            left.next_leaf = self
        else:
            self.next_leaf = None

    def unlink(self) -> None:
        """Remove this leaf from the chain."""
        if self.prev_leaf is not None:
            self.prev_leaf.next_leaf = self.next_leaf
        if self.next_leaf is not None:
            self.next_leaf.prev_leaf = self.prev_leaf
        self.prev_leaf = None
        self.next_leaf = None

    def replace_in_chain(self, old: "LeafNode") -> None:
        """Take ``old``'s position in the leaf chain (leaf conversion)."""
        self.prev_leaf = old.prev_leaf
        self.next_leaf = old.next_leaf
        if old.prev_leaf is not None:
            old.prev_leaf.next_leaf = self
        if old.next_leaf is not None:
            old.next_leaf.prev_leaf = self
        old.prev_leaf = None
        old.next_leaf = None


class StandardLeaf(LeafNode):
    """STX-style leaf: sorted key array with internal key storage.

    Space model: header + ``capacity`` key slots + ``capacity`` tuple-id
    slots, allocated up front (STX nodes are fixed-size).  This is the
    "internal-key storage" whose memory overhead the paper targets —
    and whose cache-resident keys make scans fast.
    """

    kind = "standard"

    def __init__(
        self,
        key_width: int,
        capacity: int,
        allocator: TrackingAllocator,
        cost_model: CostModel = NULL_COST_MODEL,
        items: Optional[List[Tuple[bytes, int]]] = None,
    ) -> None:
        if capacity < 4:
            raise ValueError(f"leaf capacity {capacity} too small")
        self.key_width = key_width
        self._capacity = capacity
        self.allocator = allocator
        self.cost = cost_model
        self.keys: List[bytes] = []
        self.tids: List[int] = []
        if items:
            if len(items) > capacity:
                raise ValueError("initial items exceed capacity")
            self.keys = [k for k, _ in items]
            self.tids = [t for _, t in items]
        self.next_leaf: Optional[LeafNode] = None
        self.prev_leaf: Optional[LeafNode] = None
        self.node_id = next_node_id()
        self._alive = True
        self.allocator.allocate(self.size_bytes, "leaf.standard")

    # -- capacity ---------------------------------------------------------
    @property
    def count(self) -> int:
        return len(self.keys)

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def size_bytes(self) -> int:
        return LEAF_HEADER_BYTES + self._capacity * (self.key_width + TID_BYTES)

    # -- internal search ---------------------------------------------------
    def _search_cost(self) -> None:
        n = len(self.keys)
        charge = self.cost.charge
        if not n:
            charge("rand_line", 1)
            return
        # Binary search touches up to log2(lines) distinct lines of the
        # key area; charge one extra random line for keys beyond one
        # cache line, which matches a 16-slot STX leaf closely.  Both
        # lines go in one charge: rand_line is this search's first
        # category either way.
        charge("rand_line", 2 if n * self.key_width > _CACHE_LINE else 1)
        probes = n.bit_length()
        charge("compare", probes)
        charge("branch", probes)

    def _position(self, key: bytes) -> int:
        self._search_cost()
        return bisect.bisect_left(self.keys, key)

    # -- point operations ----------------------------------------------------
    def lookup(self, key: bytes) -> Optional[int]:
        pos = self._position(key)
        if pos < len(self.keys) and self.keys[pos] == key:
            self.cost.seq_lines(1)  # tid slot access
            return self.tids[pos]
        return None

    def lookup_batch(self, keys: List[bytes]) -> List[Optional[int]]:
        # The node's lines stay cache-resident across the run, so the
        # random touches are charged once per batch visit; the per-key
        # binary searches still pay their ALU work.
        leaf_keys = self.keys
        n = len(leaf_keys)
        cost = self.cost
        # Leaf accesses across a batch's groups are independent loads:
        # wave-priced under an open mlp_window, serial otherwise.
        cost.wave_loads("rand_line", 1)
        if n and n * self.key_width > _CACHE_LINE:
            cost.wave_loads("rand_line", 1)
        probes = max(1, n.bit_length()) if n else 1
        cost.compares(probes * len(keys))
        cost.branches(probes * len(keys))
        out: List[Optional[int]] = []
        hits = 0
        tids = self.tids
        for key in keys:
            pos = bisect.bisect_left(leaf_keys, key)
            if pos < n and leaf_keys[pos] == key:
                hits += 1
                out.append(tids[pos])
            else:
                out.append(None)
        if hits:
            cost.seq_lines(hits)  # tid slot accesses
        return out

    def upsert(self, key: bytes, tid: int) -> Optional[int]:
        pos = self._position(key)
        if pos < len(self.keys) and self.keys[pos] == key:
            old = self.tids[pos]
            self.tids[pos] = tid
            self.cost.seq_lines(1)
            return old
        if self.is_full:
            raise LeafFullError()
        self.keys.insert(pos, key)
        self.tids.insert(pos, tid)
        moved = len(self.keys) - pos - 1
        self.cost.copy_bytes(moved * (self.key_width + TID_BYTES))
        return None

    def remove(self, key: bytes) -> Optional[int]:
        pos = self._position(key)
        if pos >= len(self.keys) or self.keys[pos] != key:
            return None
        tid = self.tids[pos]
        del self.keys[pos]
        del self.tids[pos]
        moved = len(self.keys) - pos
        self.cost.copy_bytes(moved * (self.key_width + TID_BYTES))
        return tid

    # -- ordered access ---------------------------------------------------------
    def first_key(self) -> bytes:
        return self.keys[0]

    def items(self) -> Iterator[Tuple[bytes, int]]:
        # Scans stream the key and tid arrays sequentially: this is the
        # cache-efficiency the paper credits internal key storage with.
        self.cost.touch_bytes_seq(len(self.keys) * (self.key_width + TID_BYTES))
        return iter(list(zip(self.keys, self.tids)))

    def iter_from(self, key: bytes) -> Iterator[Tuple[bytes, int]]:
        pos = self._position(key)
        n = len(self.keys) - pos
        if n > 0:
            self.cost.touch_bytes_seq(n * (self.key_width + TID_BYTES))
        return iter(list(zip(self.keys[pos:], self.tids[pos:])))

    def take_first(self) -> Tuple[bytes, int]:
        key, tid = self.keys.pop(0), self.tids.pop(0)
        self.cost.copy_bytes(len(self.keys) * (self.key_width + TID_BYTES))
        return key, tid

    def take_last(self) -> Tuple[bytes, int]:
        self.cost.rand_lines(1)
        return self.keys.pop(), self.tids.pop()

    # -- structural operations ------------------------------------------------
    def split(self, fraction: float = 0.5) -> Tuple["StandardLeaf", bytes]:
        mid = max(1, min(len(self.keys) - 1, int(len(self.keys) * fraction)))
        right_items = list(zip(self.keys[mid:], self.tids[mid:]))
        right = StandardLeaf(
            self.key_width,
            self._capacity,
            self.allocator,
            self.cost,
            items=right_items,
        )
        self.cost.copy_bytes(len(right_items) * (self.key_width + TID_BYTES))
        del self.keys[mid:]
        del self.tids[mid:]
        return right, right.keys[0]

    def merge_from(self, right: LeafNode) -> None:
        keys, tids = right.keys_and_tids()
        if self.count + len(keys) > self._capacity:
            raise ValueError("merge would overflow leaf")
        self.keys.extend(keys)
        self.tids.extend(tids)
        self.cost.copy_bytes(len(keys) * (self.key_width + TID_BYTES))

    def keys_and_tids(self) -> Tuple[List[bytes], List[int]]:
        self.cost.touch_bytes_seq(len(self.keys) * (self.key_width + TID_BYTES))
        return list(self.keys), list(self.tids)

    # -- accounting -----------------------------------------------------------
    def destroy(self) -> None:
        if self._alive:
            self.allocator.free(self.size_bytes, "leaf.standard")
            self._alive = False

    def __repr__(self) -> str:
        return f"<StandardLeaf n={self.count}/{self._capacity}>"
