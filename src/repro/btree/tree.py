"""B+-tree with pluggable leaves and overflow/underflow handler hooks."""

from __future__ import annotations

import bisect
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.btree.leaves import (
    LeafFullError,
    LeafNode,
    StandardLeaf,
    TID_BYTES,
    next_node_id,
)
from repro.memory.allocator import TrackingAllocator
from repro.memory.cost_model import CostModel, NULL_COST_MODEL
from repro.obs import BatchDescentEvent, MlpWaveEvent

INNER_HEADER_BYTES = 24
POINTER_BYTES = 8

#: A descent path: (inner node, index of the child taken) per level.
Path = List[Tuple["InnerNode", int]]
Node = Union["InnerNode", LeafNode]


class InnerNode:
    """B+-tree inner node: sorted separator keys and child pointers.

    Inner nodes always store full keys — the elastic framework only
    compacts leaves, "which are where index searches terminate, because
    these nodes occupy most of the space in the index" (paper section 3).
    """

    def __init__(
        self,
        key_width: int,
        capacity: int,
        allocator: TrackingAllocator,
        cost_model: CostModel = NULL_COST_MODEL,
        keys: Optional[List[bytes]] = None,
        children: Optional[List[Node]] = None,
    ) -> None:
        if capacity < 4:
            raise ValueError(f"inner capacity {capacity} too small")
        self.key_width = key_width
        self.capacity = capacity
        self.allocator = allocator
        self.cost = cost_model
        self.keys: List[bytes] = keys if keys is not None else []
        self.children: List[Node] = children if children is not None else []
        self.node_id = next_node_id()
        self._alive = True
        self.allocator.allocate(self.size_bytes, "inner")

    @property
    def size_bytes(self) -> int:
        """Fixed-size node: header + key slots + child pointer slots."""
        return (
            INNER_HEADER_BYTES
            + self.capacity * self.key_width
            + (self.capacity + 1) * POINTER_BYTES
        )

    @property
    def min_children(self) -> int:
        """Underflow threshold for non-root inner nodes."""
        return (self.capacity + 1) // 2

    def insert_child(self, taken_idx: int, separator: bytes, right: Node) -> None:
        """Insert ``separator`` and ``right`` after the child at ``taken_idx``."""
        self.keys.insert(taken_idx, separator)
        self.children.insert(taken_idx + 1, right)
        moved = len(self.keys) - taken_idx
        self.cost.copy_bytes(moved * (self.key_width + POINTER_BYTES))

    def remove_child(self, child_idx: int) -> None:
        """Remove ``children[child_idx]`` and its left separator."""
        if child_idx == 0:
            raise ValueError("cannot remove leftmost child without a separator")
        del self.keys[child_idx - 1]
        del self.children[child_idx]
        moved = len(self.keys) - child_idx + 1
        self.cost.copy_bytes(max(0, moved) * (self.key_width + POINTER_BYTES))

    def replace_child(self, old: Node, new: Node) -> None:
        """Swap a child pointer in place (leaf conversion)."""
        idx = self.children.index(old)
        self.children[idx] = new
        self.cost.rand_lines(1)

    def destroy(self) -> None:
        if self._alive:
            self.allocator.free(self.size_bytes, "inner")
            self._alive = False

    def __repr__(self) -> str:
        return f"<InnerNode keys={len(self.keys)} children={len(self.children)}>"


#: Overflow handler: must complete the insertion of (key, tid) into the
#: subtree, typically by splitting or converting ``leaf``.
OverflowHandler = Callable[["BPlusTree", Path, LeafNode, bytes, int], None]

#: Underflow handler: invoked after a remove left ``leaf`` underfull.
UnderflowHandler = Callable[["BPlusTree", Path, LeafNode], None]


class BPlusTree:
    """STX-style B+-tree over fixed-width byte keys.

    The default handlers implement the textbook split/rebalance behaviour;
    the elastic B+-tree installs handlers that piggyback leaf conversion
    on these events (paper section 4).

    Args:
        key_width: Width of all keys, in bytes.
        leaf_capacity: Max keys per standard leaf (paper uses STX's 16).
        inner_capacity: Max separator keys per inner node.
        allocator: Space account; one is created if not given.  The tree's
            footprint is ``allocator`` categories other than ``"table"``.
        cost_model: Cost account shared with the backing table.
        leaf_factory: Creates an empty standard leaf; overridable so the
            all-compact baselines (SeqTree128 etc.) can reuse this tree.
    """

    def __init__(
        self,
        key_width: int,
        leaf_capacity: int = 16,
        inner_capacity: int = 16,
        allocator: Optional[TrackingAllocator] = None,
        cost_model: CostModel = NULL_COST_MODEL,
        leaf_factory: Optional[Callable[["BPlusTree"], LeafNode]] = None,
    ) -> None:
        self.key_width = key_width
        self.leaf_capacity = leaf_capacity
        self.inner_capacity = inner_capacity
        self.allocator = allocator if allocator is not None else TrackingAllocator()
        self.cost = cost_model
        self._leaf_factory = leaf_factory or (
            lambda tree: StandardLeaf(
                tree.key_width, tree.leaf_capacity, tree.allocator, tree.cost
            )
        )
        self.overflow_handler: OverflowHandler = BPlusTree.split_overflow_handler
        self.underflow_handler: UnderflowHandler = BPlusTree.rebalance_underflow_handler
        root = self._leaf_factory(self)
        self.root: Node = root
        self.first_leaf: LeafNode = root
        self.height = 1
        self._count = 0
        #: Split point for append-pattern splits of the rightmost leaf
        #: (sequential inserts reach ~70% occupancy, as real B+-trees
        #: with append optimization do).
        self.append_split_fraction = 0.7
        #: When set to a list, descents append visited node ids (used by
        #: the optimistic-lock-coupling simulator).
        self.trace: Optional[List[int]] = None
        #: Node ids structurally modified by the last insert/remove.
        self.last_write_set: List[int] = []
        #: Monotonic counter bumped by every structural change (leaf or
        #: inner split, merge, rebalance, conversion, bulk load).  The
        #: descent cache keys its validity on it, so a stale leaf can
        #: never serve a read.
        self.structural_epoch = 0
        #: Optional adaptive read cache (:class:`repro.cache.IndexCache`);
        #: ``None`` adds nothing but an untaken branch to any path.
        self.cache = None

    # ------------------------------------------------------------------
    # Descent
    # ------------------------------------------------------------------
    def descend(self, key: bytes) -> Tuple[Path, LeafNode]:
        """Walk root-to-leaf for ``key``, recording the path taken.

        Each inner node visited costs one random line plus one compare
        and one branch per binary-search probe.  The walk tallies them
        and charges each category once for the whole descent: the same
        totals, in the same first-charge order, as charging level by
        level.
        """
        path: Path = []
        node = self.root
        trace = self.trace
        probes = 0
        while isinstance(node, InnerNode):
            if trace is not None:
                trace.append(node.node_id)
            keys = node.keys
            probes += len(keys).bit_length() or 1
            idx = bisect.bisect_right(keys, key)
            path.append((node, idx))
            node = node.children[idx]
        if trace is not None:
            trace.append(node.node_id)
        if path:
            charge = self.cost.charge
            charge("rand_line", len(path))
            charge("compare", probes)
            charge("branch", probes)
        return path, node

    # The fenced variants below descend through this private alias, so
    # an instrumenting wrapper around the public ``descend`` (as
    # ``benchmarks/e2e/layertrace.py`` installs) sees only outside calls.
    _walk = descend

    def _descend_bounded(
        self, key: bytes
    ) -> Tuple[Path, LeafNode, Optional[bytes]]:
        """Like :meth:`descend`, but also return the leaf's upper bound.

        The bound is the tightest separator above the taken path (or
        ``None`` for the rightmost leaf): every key < bound routes to the
        same leaf, which is what lets batched inserts reuse one descent
        for a run of consecutive keys.
        """
        path, leaf = self._walk(key)
        return path, leaf, _fences(path)[1]

    def _descend_fenced(
        self, key: bytes
    ) -> Tuple[Path, LeafNode, Optional[bytes], Optional[bytes]]:
        """Like :meth:`descend`, but also return the leaf's fence keys.

        ``(lo, hi)`` bound the leaf's key interval (``None`` meaning
        unbounded): every key in ``[lo, hi)`` routes to this leaf, which
        is what the descent cache memoizes.
        """
        path, leaf = self._walk(key)
        lo, hi = _fences(path)
        return path, leaf, lo, hi

    # ------------------------------------------------------------------
    # Adaptive caching (repro.cache)
    # ------------------------------------------------------------------
    def attach_cache(self, cache) -> None:
        """Attach an adaptive read cache (:class:`repro.cache.IndexCache`).

        The cache charges its bytes to this tree's allocator under the
        ``"cache"`` category, so — since :attr:`index_bytes` sums every
        non-table category — it competes with the tree's own leaves for
        any elastic soft bound.
        """
        cache.bind(self.allocator, self.cost, self.key_width)
        self.cache = cache

    # ------------------------------------------------------------------
    # Batched descent (sorted-run descent sharing)
    # ------------------------------------------------------------------
    def _partition_descend(
        self, run: List[bytes]
    ) -> List[Tuple[LeafNode, int, int]]:
        """Route a sorted key run to leaves, descending once per subtree.

        Recursively partitions ``run`` at inner-node separators and
        returns ``(leaf, lo, hi)`` groups covering the run in order.
        Each inner node charges its ``rand_line`` and routing compare
        cost once per batch visit (plus one compare per extra child
        taken) instead of once per key — the descent-sharing economy of
        batched B+-tree execution.
        """
        groups: List[Tuple[LeafNode, int, int]] = []
        inner_visits = 0
        probe_events = 0
        stack: List[Tuple[Node, int, int]] = [(self.root, 0, len(run))]
        while stack:
            node, lo, hi = stack.pop()
            while isinstance(node, InnerNode):
                if self.trace is not None:
                    self.trace.append(node.node_id)
                inner_visits += 1
                seps = node.keys
                probe_events += max(1, len(seps).bit_length())
                first = bisect.bisect_right(seps, run[lo])
                last = bisect.bisect_right(seps, run[hi - 1])
                if first == last:
                    node = node.children[first]
                    continue
                # The run spans several children: split it at each
                # separator (keys == separator route right, as in descend()).
                probe_events += last - first
                bounds = [lo]
                for ci in range(first, last):
                    bounds.append(
                        bisect.bisect_left(run, seps[ci], bounds[-1], hi)
                    )
                bounds.append(hi)
                children = node.children
                for offset in range(last - first, 0, -1):
                    blo = bounds[offset]
                    bhi = bounds[offset + 1]
                    if blo < bhi:
                        stack.append((children[first + offset], blo, bhi))
                hi = bounds[1]
                node = children[first]
                if lo >= hi:
                    break
            else:
                if self.trace is not None:
                    self.trace.append(node.node_id)
                groups.append((node, lo, hi))
        # Sibling-subtree descents are independent pointer chases: under
        # an open mlp_window they issue as prefetch waves; with no window
        # this is plain serial rand_line charging.
        self.cost.wave_loads("rand_line", inner_visits)
        self.cost.compares(probe_events)
        self.cost.branches(probe_events)
        groups.sort(key=lambda g: g[1])
        return groups

    @staticmethod
    def _sorted_run(keys: Sequence[bytes]) -> Tuple[List[int], List[bytes]]:
        """Sort a batch into a run; returns (input positions, sorted keys)."""
        order = sorted(range(len(keys)), key=keys.__getitem__)
        return order, [keys[i] for i in order]

    @staticmethod
    def _emit_batch_descent(op: str, batch_size: int, descents: int) -> None:
        """Publish one :class:`~repro.obs.BatchDescentEvent` if enabled."""
        if obs.is_enabled():
            obs.emit(BatchDescentEvent(
                op=op, batch_size=batch_size, descents=descents,
            ))

    @staticmethod
    def _emit_mlp_wave(op: str, wave) -> None:
        """Publish one :class:`~repro.obs.MlpWaveEvent` if the window
        actually wave-priced loads (width >= 2 and loads issued)."""
        if wave.loads and obs.is_enabled():
            obs.emit(MlpWaveEvent(
                op=op, width=wave.width, waves=wave.waves,
                loads=wave.loads, overlapped=wave.overlapped,
                saved_units=wave.saved_units,
            ))

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------
    def lookup(self, key: bytes) -> Optional[int]:
        """Point query: tuple id for ``key`` or ``None``."""
        cache = self.cache
        if cache is None:
            _, leaf = self.descend(key)
            return leaf.lookup(key)
        tid = cache.probe_row(key)
        if tid is not None:
            return tid
        epoch = self.structural_epoch
        leaf = cache.probe_leaf(key, epoch)
        if leaf is not None:
            tid = leaf.lookup(key)
        else:
            _, leaf, lo, hi = self._descend_fenced(key)
            tid = leaf.lookup(key)
            cache.admit_leaf(lo, hi, leaf, epoch)
        if tid is not None and leaf.indirect_keys:
            cache.admit_row(key, tid)
        return tid

    def lookup_batch(self, keys: Sequence[bytes]) -> List[Optional[int]]:
        """Point-query a batch of keys with one shared descent.

        Results align with the input order.  The batch is sorted into a
        run, the tree is descended once per distinct subtree, and each
        leaf answers its whole slice of the run in one visit (batched
        indirect key loads on compact leaves).
        """
        results: List[Optional[int]] = [None] * len(keys)
        if not keys:
            return results
        cache = self.cache
        if cache is not None:
            # Probe the whole batch first; only misses pay for descents.
            keys, positions = self._probe_batch(cache, keys, results)
            if not keys:
                return results
        order, run = self._sorted_run(keys)
        # The batch's subtree descents and leaf accesses are independent
        # loads: under a wave width >= 2 they issue as prefetch waves.
        with self.cost.mlp_window() as wave:
            groups = self._partition_descend(run)
            for leaf, lo, hi in groups:
                hits = leaf.lookup_batch(run[lo:hi])
                compact = cache is not None and leaf.indirect_keys
                for offset, tid in enumerate(hits):
                    position = order[lo + offset]
                    if cache is not None:
                        position = positions[position]
                    results[position] = tid
                    if compact and tid is not None:
                        cache.admit_row(run[lo + offset], tid)
        self._emit_batch_descent("lookup", len(keys), len(groups))
        self._emit_mlp_wave("lookup", wave)
        return results

    @staticmethod
    def _probe_batch(
        cache, keys: Sequence[bytes], results: List[Optional[int]]
    ) -> Tuple[List[bytes], List[int]]:
        """Resolve a batch's row-cache hits in place; return the misses.

        Fills ``results`` at hit positions and returns the missed keys
        with their input positions, ready for the shared descent.
        """
        miss_keys: List[bytes] = []
        positions: List[int] = []
        for position, key in enumerate(keys):
            tid = cache.probe_row(key)
            if tid is not None:
                results[position] = tid
            else:
                miss_keys.append(key)
                positions.append(position)
        return miss_keys, positions

    def insert(self, key: bytes, tid: int) -> Optional[int]:
        """Insert or replace; returns the replaced tuple id if any."""
        if len(key) != self.key_width:
            raise ValueError(f"key width {len(key)} != {self.key_width}")
        if self.cache is not None:
            self.cache.invalidate_row(key)
        self.last_write_set = []
        path, leaf = self.descend(key)
        try:
            old = leaf.upsert(key, tid)
        except LeafFullError:
            self.last_write_set.append(leaf.node_id)
            self.overflow_handler(self, path, leaf, key, tid)
            self._count += 1
            return None
        self.last_write_set.append(leaf.node_id)
        if old is None:
            self._count += 1
        return old

    def insert_sorted_batch(
        self, pairs: Sequence[Tuple[bytes, int]]
    ) -> List[Optional[int]]:
        """Insert a batch of (key, tid) pairs, sharing descents.

        Results (the replaced tuple id per pair, or ``None``) align with
        the input order; duplicate keys within the batch apply in input
        order, exactly as a scalar loop would.  The batch is sorted into
        a run and one descent serves every consecutive key routing to the
        same leaf; structural events (splits, elastic conversions) fall
        back to a fresh descent, so overflow/underflow handlers fire
        exactly as in scalar execution.
        """
        results: List[Optional[int]] = [None] * len(pairs)
        if not pairs:
            return results
        if self.cache is not None:
            for key, _ in pairs:
                self.cache.invalidate_row(key)
        order = sorted(range(len(pairs)), key=lambda i: pairs[i][0])
        self.last_write_set = []
        path: Path = []
        leaf: Optional[LeafNode] = None
        upper: Optional[bytes] = None
        descents = 0
        for i in order:
            key, tid = pairs[i]
            if len(key) != self.key_width:
                raise ValueError(f"key width {len(key)} != {self.key_width}")
            if leaf is None or (upper is not None and key >= upper):
                path, leaf, upper = self._descend_bounded(key)
                descents += 1
            try:
                old = leaf.upsert(key, tid)
            except LeafFullError:
                self.last_write_set.append(leaf.node_id)
                self.overflow_handler(self, path, leaf, key, tid)
                self._count += 1
                # The handler restructured the tree (split or elastic
                # conversion): the cached descent is no longer valid.
                leaf = None
                self._after_batch_structural_change()
                continue
            self.last_write_set.append(leaf.node_id)
            if old is None:
                self._count += 1
            else:
                results[i] = old
        self._emit_batch_descent("insert", len(pairs), descents)
        return results

    def _after_batch_structural_change(self) -> None:
        """Hook invoked after a structural event inside a batched insert.

        The elastic tree drains deferred policy actions here — the point
        where no cached descent state is live, so conversions and sweeps
        may restructure the tree safely mid-batch.
        """

    def remove(self, key: bytes) -> Optional[int]:
        """Remove ``key``; returns its tuple id or ``None`` if absent."""
        if self.cache is not None:
            self.cache.invalidate_row(key)
        self.last_write_set = []
        path, leaf = self.descend(key)
        tid = leaf.remove(key)
        if tid is None:
            return None
        self.last_write_set.append(leaf.node_id)
        self._count -= 1
        # A root leaf has no siblings to rebalance with, but a
        # *converted* (indirect-key) root leaf must still see underflow
        # events so the elasticity algorithm can step it back down the
        # ladder.
        if leaf.count < leaf.underflow_threshold and (
            path or leaf.indirect_keys
        ):
            self.underflow_handler(self, path, leaf)
        return tid

    # ------------------------------------------------------------------
    # Range operations
    # ------------------------------------------------------------------
    def scan(self, start_key: bytes, count: int) -> List[Tuple[bytes, int]]:
        """Collect up to ``count`` items with key >= ``start_key``."""
        _, leaf = self.descend(start_key)
        return self._collect_scan(leaf, start_key, count)

    def scan_batch(
        self, start_keys: Sequence[bytes], count: int
    ) -> List[List[Tuple[bytes, int]]]:
        """Run one ``count``-item scan per start key, sharing descents.

        Results align with the input order.  Only the root-to-leaf
        descents are shared; the leaf-chain walks are the same as
        :meth:`scan`'s.
        """
        results: List[List[Tuple[bytes, int]]] = [[] for _ in start_keys]
        if not start_keys:
            return results
        order, run = self._sorted_run(start_keys)
        # Shared descents plus per-scan iteration key loads wave-price
        # under the window; the leaf-chain pointer chases inside
        # _collect_scan are dependent and stay serially priced.
        with self.cost.mlp_window() as wave:
            groups = self._partition_descend(run)
            for leaf, lo, hi in groups:
                for offset in range(lo, hi):
                    results[order[offset]] = self._collect_scan(
                        leaf, run[offset], count
                    )
        self._emit_batch_descent("scan", len(start_keys), len(groups))
        self._emit_mlp_wave("scan", wave)
        return results

    def _collect_scan(
        self, leaf: LeafNode, start_key: bytes, count: int
    ) -> List[Tuple[bytes, int]]:
        out: List[Tuple[bytes, int]] = []
        iterator: Iterator[Tuple[bytes, int]] = leaf.iter_from(start_key)
        current: Optional[LeafNode] = leaf
        while current is not None and len(out) < count:
            for item in iterator:
                out.append(item)
                if len(out) >= count:
                    break
            else:
                current = current.next_leaf
                if current is not None:
                    self.cost.rand_lines(1)  # leaf-chain pointer chase
                    iterator = current.items()
                continue
            break
        return out

    def items(self) -> Iterator[Tuple[bytes, int]]:
        """All items in key order."""
        leaf: Optional[LeafNode] = self.first_leaf
        while leaf is not None:
            for item in leaf.items():
                yield item
            leaf = leaf.next_leaf

    def iter_from(self, start_key: bytes) -> Iterator[Tuple[bytes, int]]:
        """Lazily yield items with key >= ``start_key`` in order.

        Unlike :meth:`scan`, no result list is materialized; the tree
        must not be mutated while iterating.
        """
        _, leaf = self.descend(start_key)
        iterator: Iterator[Tuple[bytes, int]] = leaf.iter_from(start_key)
        current: Optional[LeafNode] = leaf
        while current is not None:
            for item in iterator:
                yield item
            current = current.next_leaf
            if current is not None:
                self.cost.rand_lines(1)
                iterator = current.items()

    def __len__(self) -> int:
        return self._count

    @property
    def index_bytes(self) -> int:
        """Total simulated footprint of the index structure."""
        return sum(
            size
            for category, size in self.allocator.live_bytes.items()
            if category != "table"
        )

    # ------------------------------------------------------------------
    # Default overflow handling: split
    # ------------------------------------------------------------------
    @staticmethod
    def split_overflow_handler(
        tree: "BPlusTree", path: Path, leaf: LeafNode, key: bytes, tid: int
    ) -> None:
        """Textbook behaviour: split the leaf and retry the insert."""
        tree.split_leaf_and_insert(path, leaf, key, tid)

    def split_leaf_and_insert(
        self, path: Path, leaf: LeafNode, key: bytes, tid: int
    ) -> None:
        """Split ``leaf``, thread the new sibling, and place (key, tid)."""
        fraction = 0.5
        if leaf.next_leaf is None and leaf.count and self._is_append(leaf, key):
            fraction = self.append_split_fraction
        right, separator = leaf.split(fraction)
        right.link_after(leaf)
        self.last_write_set.append(right.node_id)
        self.insert_separator(path, separator, right)
        target = right if key >= separator else leaf
        target.upsert(key, tid)

    def _is_append(self, leaf: LeafNode, key: bytes) -> bool:
        """Whether ``key`` lands past the rightmost leaf's maximum —
        standard leaves check in place; indirect-key leaves (compact,
        learned) load their last key from the table (one charged access,
        on the rare split path)."""
        if isinstance(leaf, StandardLeaf):
            return bool(leaf.keys) and key > leaf.keys[-1]
        rep = getattr(leaf, "rep", None)
        if rep is not None:
            return key > rep.key_at(rep.n - 1)
        last_key = getattr(leaf, "last_key", None)
        if last_key is not None and leaf.count:
            return key > last_key()
        return False

    def insert_separator(self, path: Path, separator: bytes, right: Node) -> None:
        """Insert a separator/child produced by a split, cascading up."""
        self.structural_epoch += 1
        if not path:
            new_root = InnerNode(
                self.key_width,
                self.inner_capacity,
                self.allocator,
                self.cost,
                keys=[separator],
                children=[self.root, right],
            )
            self.root = new_root
            self.height += 1
            self.last_write_set.append(new_root.node_id)
            return
        parent, taken_idx = path[-1]
        parent.insert_child(taken_idx, separator, right)
        self.last_write_set.append(parent.node_id)
        if len(parent.keys) > parent.capacity:
            self._split_inner(path)

    def _split_inner(self, path: Path) -> None:
        node, _ = path[-1]
        mid = len(node.keys) // 2
        push_key = node.keys[mid]
        right = InnerNode(
            self.key_width,
            self.inner_capacity,
            self.allocator,
            self.cost,
            keys=node.keys[mid + 1 :],
            children=node.children[mid + 1 :],
        )
        self.cost.copy_bytes(
            len(right.keys) * (self.key_width + POINTER_BYTES) + POINTER_BYTES
        )
        del node.keys[mid:]
        del node.children[mid + 1 :]
        self.last_write_set.append(right.node_id)
        self.insert_separator(path[:-1], push_key, right)

    # ------------------------------------------------------------------
    # Default underflow handling: borrow or merge
    # ------------------------------------------------------------------
    @staticmethod
    def rebalance_underflow_handler(
        tree: "BPlusTree", path: Path, leaf: LeafNode
    ) -> None:
        """Textbook behaviour: borrow from a sibling, else merge."""
        tree.rebalance_leaf(path, leaf)

    def rebalance_leaf(self, path: Path, leaf: LeafNode) -> None:
        """Restore the fill invariant of ``leaf`` after a remove."""
        if not path:
            return  # root leaf: nothing to rebalance with
        # Borrows move keys across fences, merges drop leaves: either
        # way cached descents are stale.
        self.structural_epoch += 1
        parent, idx = path[-1]
        if leaf.count == 0:
            # Empty leaves are removable even when every sibling is too
            # large to merge with (mixed-capacity elastic trees).
            successor = leaf.next_leaf
            leaf.unlink()
            leaf.destroy()
            if self.first_leaf is leaf:
                self.first_leaf = successor
            if idx > 0:
                parent.remove_child(idx)
            else:
                del parent.children[0]
                del parent.keys[0]
            self.last_write_set.append(parent.node_id)
            self._after_child_removed(path)
            return
        left = parent.children[idx - 1] if idx > 0 else None
        right = (
            parent.children[idx + 1] if idx + 1 < len(parent.children) else None
        )
        # Borrow first: cheaper than merging and never cascades.
        if left is not None and left.count > left.min_fill:
            key, tid = left.take_last()
            leaf.upsert(key, tid)
            parent.keys[idx - 1] = key
            self.last_write_set += [left.node_id, parent.node_id]
            return
        if right is not None and right.count > right.min_fill:
            key, tid = right.take_first()
            leaf.upsert(key, tid)
            parent.keys[idx] = right.first_key()
            self.last_write_set += [right.node_id, parent.node_id]
            return
        # Merge: into the left sibling when possible, else absorb the right.
        if left is not None and left.count + leaf.count <= left.capacity:
            left.merge_from(leaf)
            leaf.unlink()
            leaf.destroy()
            parent.remove_child(idx)
            self.last_write_set += [left.node_id, parent.node_id]
            self._after_child_removed(path)
            return
        if right is not None and leaf.count + right.count <= leaf.capacity:
            leaf.merge_from(right)
            right.unlink()
            right.destroy()
            parent.remove_child(idx + 1)
            self.last_write_set += [leaf.node_id, parent.node_id]
            self._after_child_removed(path)
            return
        # No sibling can help (possible with mixed-capacity leaves);
        # tolerate the underfull leaf — correctness is unaffected.

    def _after_child_removed(self, path: Path) -> None:
        """Cascade inner-node rebalancing after a child was removed."""
        parent, _ = path[-1]
        if parent is self.root:
            if len(parent.children) == 1:
                self.root = parent.children[0]
                parent.destroy()
                self.height -= 1
            return
        if len(parent.children) >= parent.min_children:
            return
        grand, pidx = path[-2]
        left = grand.children[pidx - 1] if pidx > 0 else None
        right = (
            grand.children[pidx + 1] if pidx + 1 < len(grand.children) else None
        )
        if isinstance(left, InnerNode) and len(left.children) > left.min_children:
            parent.keys.insert(0, grand.keys[pidx - 1])
            parent.children.insert(0, left.children.pop())
            grand.keys[pidx - 1] = left.keys.pop()
            self.cost.copy_bytes(
                len(parent.keys) * (self.key_width + POINTER_BYTES)
            )
            return
        if isinstance(right, InnerNode) and len(right.children) > right.min_children:
            parent.keys.append(grand.keys[pidx])
            parent.children.append(right.children.pop(0))
            grand.keys[pidx] = right.keys.pop(0)
            self.cost.copy_bytes(
                len(right.keys) * (self.key_width + POINTER_BYTES)
            )
            return
        if (
            isinstance(left, InnerNode)
            and len(left.keys) + 1 + len(parent.keys) <= left.capacity
        ):
            left.keys.append(grand.keys[pidx - 1])
            left.keys.extend(parent.keys)
            left.children.extend(parent.children)
            self.cost.copy_bytes(
                len(parent.keys) * (self.key_width + POINTER_BYTES)
            )
            parent.destroy()
            grand.remove_child(pidx)
            self._after_child_removed(path[:-1])
            return
        if (
            isinstance(right, InnerNode)
            and len(parent.keys) + 1 + len(right.keys) <= parent.capacity
        ):
            parent.keys.append(grand.keys[pidx])
            parent.keys.extend(right.keys)
            parent.children.extend(right.children)
            self.cost.copy_bytes(
                len(right.keys) * (self.key_width + POINTER_BYTES)
            )
            right.destroy()
            grand.remove_child(pidx + 1)
            self._after_child_removed(path[:-1])

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------
    def bulk_load(
        self, items: List[Tuple[bytes, int]], leaf_fill: float = 0.9
    ) -> None:
        """Build the tree bottom-up from sorted unique (key, tid) pairs.

        Far cheaper than item-at-a-time insertion and produces leaves at
        ``leaf_fill`` occupancy.  Requires an empty tree.
        """
        if self._count:
            raise ValueError("bulk_load requires an empty tree")
        if not 0.1 <= leaf_fill <= 1.0:
            raise ValueError("leaf_fill must be in [0.1, 1.0]")
        if not items:
            return
        for (a, _), (b, _) in zip(items, items[1:]):
            if a >= b:
                raise ValueError("bulk_load items must be sorted and unique")
        old_root = self.root
        chunk = max(2, int(self.leaf_capacity * leaf_fill))
        leaves: List[LeafNode] = [
            self.make_standard_leaf(items[i : i + chunk])
            for i in range(0, len(items), chunk)
        ]
        self.cost.copy_bytes(len(items) * (self.key_width + TID_BYTES))
        for left, right in zip(leaves, leaves[1:]):
            right.link_after(left)
        self.first_leaf = leaves[0]
        nodes: List[Node] = list(leaves)
        separators = [leaf.first_key() for leaf in leaves[1:]]
        self.height = 1
        while len(nodes) > 1:
            group = max(2, int((self.inner_capacity + 1) * leaf_fill))
            new_nodes: List[Node] = []
            new_separators: List[bytes] = []
            min_children = (self.inner_capacity + 1) // 2
            i = 0
            while i < len(nodes):
                children = nodes[i : i + group]
                child_seps = separators[i : i + len(children) - 1]
                if len(children) < min_children and new_nodes:
                    # A short trailing group: fold into the previous node
                    # if it fits, otherwise rebalance the last two groups
                    # so both respect the fill invariant.
                    prev = new_nodes.pop()
                    assert isinstance(prev, InnerNode)
                    all_children = prev.children + children
                    all_seps = prev.keys + [separators[i - 1]] + child_seps
                    prev.destroy()
                    if len(all_children) <= self.inner_capacity + 1:
                        groups = [(all_seps, all_children)]
                    else:
                        left_n = len(all_children) // 2
                        groups = [
                            (all_seps[: left_n - 1], all_children[:left_n]),
                            (all_seps[left_n:], all_children[left_n:]),
                        ]
                        new_separators.append(all_seps[left_n - 1])
                    for keys, group_children in groups:
                        new_nodes.append(
                            InnerNode(
                                self.key_width,
                                self.inner_capacity,
                                self.allocator,
                                self.cost,
                                keys=list(keys),
                                children=list(group_children),
                            )
                        )
                else:
                    inner = InnerNode(
                        self.key_width,
                        self.inner_capacity,
                        self.allocator,
                        self.cost,
                        keys=child_seps,
                        children=children,
                    )
                    if i > 0:
                        new_separators.append(separators[i - 1])
                    new_nodes.append(inner)
                i += group
            nodes = new_nodes
            separators = new_separators
            self.height += 1
        self.root = nodes[0]
        self._count = len(items)
        old_root.destroy()
        self.structural_epoch += 1
        if self.cache is not None:
            self.cache.clear()

    # ------------------------------------------------------------------
    # Elastic-host surface (see repro.core.framework.ElasticHost)
    # ------------------------------------------------------------------
    def make_standard_leaf(self, items: List[Tuple[bytes, int]]) -> LeafNode:
        """Build this host's standard (internal-key) leaf from items.

        The elasticity controller uses this to revert compact leaves;
        subclasses with different standard leaves (e.g. the Bw-tree's
        delta leaves) override it.
        """
        return StandardLeaf(
            self.key_width, self.leaf_capacity, self.allocator, self.cost,
            items=items,
        )

    def iter_leaves_with_paths(self):
        """Yield (path, leaf) for every leaf (bulk compaction walks)."""

        def walk(node: Node, path: Path):
            if isinstance(node, InnerNode):
                for idx in range(len(node.children)):
                    yield from walk(node.children[idx], path + [(node, idx)])
            else:
                yield path, node

        yield from walk(self.root, [])

    def replace_leaf(self, path: Path, old: LeafNode, new: LeafNode) -> None:
        """Swap ``old`` for ``new`` in the parent and the leaf chain."""
        self.structural_epoch += 1
        new.replace_in_chain(old)
        if path:
            parent, _ = path[-1]
            parent.replace_child(old, new)
        else:
            self.root = new
        if self.first_leaf is old:
            self.first_leaf = new
        self.last_write_set += [old.node_id, new.node_id]
        old.destroy()

    # ------------------------------------------------------------------
    # Invariant checking (tests call this after random workloads)
    # ------------------------------------------------------------------
    def check_invariants(self, strict_fill: bool = True) -> None:
        """Verify structural invariants; raises ``AssertionError``."""
        leaves_in_tree: List[LeafNode] = []

        def walk(node: Node, lo: Optional[bytes], hi: Optional[bytes]) -> int:
            if isinstance(node, InnerNode):
                assert node.keys == sorted(node.keys), "inner keys unsorted"
                assert len(node.children) == len(node.keys) + 1
                assert len(node.keys) <= node.capacity
                if node is not self.root:
                    assert len(node.children) >= node.min_children, (
                        f"inner underfull: {len(node.children)}"
                    )
                else:
                    assert len(node.children) >= 2
                depths = set()
                for i, child in enumerate(node.children):
                    child_lo = node.keys[i - 1] if i > 0 else lo
                    child_hi = node.keys[i] if i < len(node.keys) else hi
                    depths.add(walk(child, child_lo, child_hi))
                assert len(depths) == 1, "leaves at differing depths"
                return 1 + depths.pop()
            leaves_in_tree.append(node)
            keys = [k for k, _ in _uncharged_items(node)]
            assert keys == sorted(keys), "leaf keys unsorted"
            assert len(set(keys)) == len(keys), "duplicate keys in leaf"
            assert node.count <= node.capacity
            # The rightmost leaf is exempt: append-optimized splits leave
            # it shallow by design.
            if strict_fill and node is not self.root and node.next_leaf is not None:
                assert node.count >= node.min_fill, (
                    f"leaf underfull: {node.count} < {node.min_fill}"
                )
            for key in keys:
                if lo is not None:
                    assert key >= lo, "leaf key below separator"
                if hi is not None:
                    assert key < hi, "leaf key not below separator"
            return 1

        with self.cost.paused():
            depth = walk(self.root, None, None)
            assert depth == self.height, f"height {self.height} != depth {depth}"
            # Leaf chain must visit exactly the tree's leaves, in order.
            chain: List[LeafNode] = []
            leaf: Optional[LeafNode] = self.first_leaf
            while leaf is not None:
                chain.append(leaf)
                leaf = leaf.next_leaf
            assert chain == leaves_in_tree, "leaf chain disagrees with tree"
            total = sum(leaf.count for leaf in chain)
            assert total == self._count, f"count {self._count} != {total}"


def _fences(path: Path) -> Tuple[Optional[bytes], Optional[bytes]]:
    """The fence keys ``(lo, hi)`` of the leaf a descent ``path`` reached.

    Separator ranges nest, so the deepest level that has a separator on
    a side gives the tightest fence there (``None``: unbounded).
    """
    lo: Optional[bytes] = None
    hi: Optional[bytes] = None
    for node, idx in reversed(path):
        if lo is None and idx > 0:
            lo = node.keys[idx - 1]
        if hi is None and idx < len(node.keys):
            hi = node.keys[idx]
        if lo is not None and hi is not None:
            break
    return lo, hi


def _uncharged_items(leaf: LeafNode) -> List[Tuple[bytes, int]]:
    """Leaf contents without cost charging (invariant checking only)."""
    return list(leaf.items())
