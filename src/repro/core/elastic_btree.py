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

        Expansion splits are deferred to after the shared descent (they
        restructure the tree, which would invalidate the run partition);
        each visited compact leaf then gets the same per-search split
        chances a scalar loop would have given it, via fresh descents.
        """
        results: List[Optional[int]] = [None] * len(keys)
        if not keys:
            return results
        cache = self.cache
        positions: List[int] = []
        if cache is not None:
            keys, positions = self._probe_batch(cache, keys, results)
            if not keys:
                self.controller.run_pending()
                return results
        order, run = self._sorted_run(keys)
        visited: List[Tuple[LeafNode, int]] = []
        # Wave-price the shared descent and leaf visits; deferred
        # expansion work below is structural (copies, allocs), not a set
        # of independent loads, so it runs outside the window.
        with self.cost.mlp_window():
            groups = self._partition_descend(run)
            for leaf, lo, hi in groups:
                leaf.access_count += hi - lo
                hits = leaf.lookup_batch(run[lo:hi])
                compact = cache is not None and leaf.indirect_keys
                for offset, tid in enumerate(hits):
                    position = order[lo + offset]
                    if cache is not None:
                        position = positions[position]
                    results[position] = tid
                    if compact and tid is not None:
                        cache.admit_row(run[lo + offset], tid)
                visited.append((leaf, hi - lo))
        self._run_deferred_expansion(visited)
        self.controller.run_pending()
        return results

    def scan_batch(self, start_keys, count: int):
        results = [[] for _ in start_keys]
        if not start_keys:
            return results
        order, run = self._sorted_run(start_keys)
        visited: List[Tuple[LeafNode, int]] = []
        with self.cost.mlp_window():
            groups = self._partition_descend(run)
            for leaf, lo, hi in groups:
                leaf.access_count += hi - lo
                for offset in range(lo, hi):
                    results[order[offset]] = self._collect_scan(
                        leaf, run[offset], count
                    )
                visited.append((leaf, hi - lo))
        self._run_deferred_expansion(visited)
        self.controller.run_pending()
        return results

    def _run_deferred_expansion(
        self, visited: List[Tuple[LeafNode, int]]
    ) -> None:
        """Give each visited converted leaf its deferred expansion chances.

        Mirrors the scalar path's ``on_search_leaf`` per query: a leaf a
        batch touched ``times`` times gets up to ``times`` split chances.
        Each attempt re-descends for a fresh path (the batch partition is
        stale once any split lands), and stops once the leaf is replaced.
        Outside the expanding state, only churn-heavy learned leaves get
        visits — the scalar path demotes those on any search while
        memory allows (DESIGN.md §11).
        """
        state = self.controller.budget.state
        if state is not PressureState.EXPANDING:
            if state is PressureState.SHRINKING:
                return
            retrains = self.controller.config.learned_churn_retrains
            visited = [
                (leaf, times) for leaf, times in visited
                if leaf.kind == "learned" and leaf.retrain_count >= retrains
            ]
            if not visited:
                return
        for leaf, times in visited:
            for _ in range(times):
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
