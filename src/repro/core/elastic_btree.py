"""The elastic B+-tree: the paper's demonstration of the framework."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.btree.kinds import leaf_kind
from repro.btree.leaves import LeafNode
from repro.btree.stats import TreeStats, collect_stats
from repro.btree.tree import BPlusTree
from repro.core.config import ElasticConfig
from repro.errors import LeafKindError
from repro.core.elasticity import ElasticityController
from repro.core.policies import GrowShrinkPolicy
from repro.memory.allocator import TrackingAllocator
from repro.memory.budget import PressureState
from repro.memory.cost_model import CostModel, NULL_COST_MODEL
from repro.table.table import Table


class ElasticBPlusTree(BPlusTree):
    """An STX-style B+-tree whose leaves elastically change representation.

    Under typical memory demands it is byte-for-byte a standard B+-tree;
    when the index size approaches the configured soft bound it starts
    converting leaves to the compact blind-trie representation, and it
    gradually reverts once the dataset shrinks (paper sections 3-4).

    Args:
        table: The database table the index references; compact leaves
            load keys from it (indirect key storage).
        config: Elasticity parameters (soft bound, thresholds, compact
            representation, breathing).
        policy: Grow/shrink policy; defaults to the paper's
            overflow/underflow piggyback policy.
        Remaining arguments as for :class:`~repro.btree.tree.BPlusTree`.
    """

    def __init__(
        self,
        table: Table,
        config: ElasticConfig,
        key_width: int = 8,
        leaf_capacity: int = 16,
        inner_capacity: int = 16,
        allocator: Optional[TrackingAllocator] = None,
        cost_model: CostModel = NULL_COST_MODEL,
        policy: Optional[GrowShrinkPolicy] = None,
    ) -> None:
        super().__init__(
            key_width=key_width,
            leaf_capacity=leaf_capacity,
            inner_capacity=inner_capacity,
            allocator=allocator,
            cost_model=cost_model,
        )
        self.table = table
        self.config = config
        self.controller = ElasticityController(config, table, policy)
        self.controller.attach(self)

    def attach_cache(self, cache) -> None:
        """Attach an adaptive read cache; every enabled leaf kind must
        support caching (:attr:`~repro.btree.kinds.LeafKindSpec.
        cache_supported`).

        Raises:
            LeafKindError: naming the first enabled kind that cannot be
                cached.
        """
        for kind_name in self.config.leaf_kinds:
            if not leaf_kind(kind_name).cache_supported:
                raise LeafKindError(
                    f"leaf kind {kind_name!r} does not support the "
                    "adaptive cache; drop it from leaf_kinds or skip "
                    "attach_cache"
                )
        super().attach_cache(cache)

    # ------------------------------------------------------------------
    # Search hooks (expansion-state random splits, section 4)
    # ------------------------------------------------------------------
    def lookup(self, key: bytes) -> Optional[int]:
        cache = self.cache
        if cache is None:
            path, leaf = self.descend(key)
            leaf.access_count += 1
            result = leaf.lookup(key)
            self.controller.on_search_leaf(path, leaf)
            self.controller.run_pending()
            return result
        tid = cache.probe_row(key)
        if tid is not None:
            # Cache hit: the tree is not touched, so no elasticity hooks
            # fire — structure evolution may diverge from the uncached
            # run, but results cannot.
            return tid
        epoch = self.structural_epoch
        leaf = cache.probe_leaf(key, epoch)
        if leaf is not None:
            leaf.access_count += 1
            result = leaf.lookup(key)
            if result is not None and leaf.indirect_keys:
                cache.admit_row(key, result)
            self.controller.run_pending()
            return result
        path, leaf, lo, hi = self._descend_fenced(key)
        leaf.access_count += 1
        result = leaf.lookup(key)
        cache.admit_leaf(lo, hi, leaf, epoch)
        if result is not None and leaf.indirect_keys:
            cache.admit_row(key, result)
        self.controller.on_search_leaf(path, leaf)
        self.controller.run_pending()
        return result

    def scan(self, start_key: bytes, count: int) -> List[Tuple[bytes, int]]:
        path, leaf = self.descend(start_key)
        leaf.access_count += 1
        if self.controller.on_search_leaf(path, leaf):
            # The leaf was split while expanding; restart on fresh nodes.
            _, leaf = self.descend(start_key)
        result = self._collect_scan(leaf, start_key, count)
        self.controller.run_pending()
        return result

    def insert(self, key: bytes, tid: int) -> Optional[int]:
        result = super().insert(key, tid)
        self.controller.run_pending()
        return result

    def remove(self, key: bytes) -> Optional[int]:
        result = super().remove(key)
        self.controller.run_pending()
        return result

    # ------------------------------------------------------------------
    # Batched execution (sorted-run descent sharing)
    # ------------------------------------------------------------------
    def lookup_batch(self, keys) -> List[Optional[int]]:
        """Batched point queries; elasticity hooks fire per leaf visit.

        The shared kernel answers the batch; then every visited leaf
        counts its accesses, and — since expansion splits restructure
        the tree, which would invalidate the run partition — each
        visited converted leaf gets the same per-search split chances a
        scalar loop would have given it, via fresh descents, before the
        deferred policy actions run.
        """
        if not keys:
            return []
        results, groups = self._lookup_batch(keys)
        self._after_batch_read(groups)
        return results

    def scan_batch(self, start_keys, count: int):
        if not start_keys:
            return []
        results, groups = self._scan_batch(start_keys, count)
        self._after_batch_read(groups)
        return results

    def _after_batch_read(
        self, groups: List[Tuple[LeafNode, int, int]]
    ) -> None:
        """Access counts, then deferred expansion, then pending actions
        (also for a batch the cache answered whole)."""
        for leaf, lo, hi in groups:
            leaf.access_count += hi - lo
        self._run_deferred_expansion(groups)
        self.controller.run_pending()

    def _run_deferred_expansion(
        self, groups: List[Tuple[LeafNode, int, int]]
    ) -> None:
        """Give each visited converted leaf its deferred expansion chances.

        Mirrors the scalar path's ``on_search_leaf`` per query: a leaf a
        batch group touched ``hi - lo`` times gets up to that many split
        chances.  Each attempt re-descends for a fresh path (the batch
        partition is stale once any split lands), and stops once the
        leaf is replaced.  Outside the expanding state, only churn-heavy
        learned leaves get visits — the scalar path demotes those on any
        search while memory allows (DESIGN.md §11).
        """
        state = self.controller.budget.state
        if state is not PressureState.EXPANDING:
            if state is PressureState.SHRINKING:
                return
            retrains = self.controller.config.learned_churn_retrains
            groups = [
                group for group in groups
                if group[0].kind == "learned"
                and group[0].retrain_count >= retrains
            ]
            if not groups:
                return
        for leaf, lo, hi in groups:
            for _ in range(hi - lo):
                if leaf.kind == "standard" or leaf.count < 2:
                    break
                path, found = self.descend(leaf.first_key())
                if found is not leaf:
                    break
                if self.controller.on_search_leaf(path, found):
                    break

    def insert_sorted_batch(self, pairs) -> List[Optional[int]]:
        results = super().insert_sorted_batch(pairs)
        self.controller.run_pending()
        return results

    def _after_batch_structural_change(self) -> None:
        # Mid-batch operation boundary: the batched insert loop has just
        # invalidated its cached descent, so deferred policy actions
        # (cold sweeps, state-change work) may restructure the tree.
        self.controller.run_pending()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pressure_state(self) -> PressureState:
        """Current elasticity state (normal / shrinking / expanding)."""
        return self.controller.state

    def stats(self) -> TreeStats:
        """Structural snapshot (leaf census, occupancy, bytes)."""
        return collect_stats(self)

    def check_elastic_invariants(self) -> None:
        """Structural checks plus the elastic fill invariant: converted
        leaves of capacity 2k hold at least k+1 keys, except transiently
        right after a conversion (which leaves them exactly full at the
        lower capacity) or an expansion split (half full).  Applies to
        every converted kind on the capacity ladder (compact, learned,
        third-party registrations)."""
        self.check_invariants(strict_fill=False)
        leaf = self.first_leaf
        while leaf is not None:
            if leaf.kind != "standard":
                if not (2 * self.leaf_capacity <= leaf.capacity
                        <= self.config.max_compact_capacity):
                    raise AssertionError(
                        f"{leaf.kind} leaf capacity {leaf.capacity} off "
                        f"the ladder [{2 * self.leaf_capacity}, "
                        f"{self.config.max_compact_capacity}]"
                    )
                # Never beyond capacity, never empty while chained.
                if not 0 < leaf.count <= leaf.capacity:
                    raise AssertionError(
                        f"{leaf.kind} leaf holds {leaf.count} keys at "
                        f"capacity {leaf.capacity}"
                    )
            leaf = leaf.next_leaf
