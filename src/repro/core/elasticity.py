"""The elasticity controller: the algorithm of paper section 4.

The controller monitors index size against the soft bound (with
hysteresis, via :class:`~repro.memory.budget.MemoryBudget`) and converts
leaves between the registered leaf kinds (:mod:`repro.btree.kinds`):

* **Shrinking**: an insertion that overflows a full standard leaf
  replaces it with a converted leaf of double the capacity instead of
  splitting — saving the leaf space *and* the separator insertions in
  the ancestors.  The target kind comes from the policy's
  ``conversion_target`` hook (the paper's two-point dial always picks
  ``"compact"``; with learned leaves enabled, read-hot leaves go
  ``"learned"``).  Overflowing converted leaves double their capacity up
  the ladder (32 -> 64 -> 128); at the cap they split.
* **Underflow** of a converted leaf (below the k+1 invariant) steps it
  down the ladder, eventually reverting to a standard leaf.
* **Expanding**: searches that terminate at a converted leaf randomly
  split it down the ladder, so popular leaves regain standard-leaf
  performance even without removals.
* **Churn fallback**: learned leaves whose mutation rate forces repeated
  retrains are split back toward the full representation whenever the
  budget is not shrinking (DESIGN.md §11).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.blindi.leaf import CompactLeaf
from repro.btree.kinds import LeafKindContext, leaf_kind
from repro.btree.leaves import LeafNode
from repro.btree.tree import BPlusTree, Path
from repro.core.config import ElasticConfig
from repro.learned.leaf import LearnedLeaf
from repro.core.policies import GrowShrinkPolicy, PaperPolicy
from repro.memory.budget import MemoryBudget, PressureState
from repro.obs import (
    CapacityChangeEvent,
    LeafConversionEvent,
    PressureTransitionEvent,
)
from repro.table.table import Table


@dataclass
class ElasticityStats:
    """Counters of elasticity actions (used by the operation-cost
    breakdown experiment, section 6.1)."""

    conversions_to_compact: int = 0
    conversions_to_learned: int = 0
    #: Conversions into registered third-party kinds.
    conversions_other: int = 0
    capacity_promotions: int = 0
    capacity_stepdowns: int = 0
    reversions_to_standard: int = 0
    expansion_splits: int = 0
    #: Churn-heavy learned leaves split back toward full representation.
    churn_splits: int = 0
    state_transitions: int = 0
    #: Weighted cost units spent inside conversion work.
    conversion_cost_units: float = 0.0


class ElasticityController:
    """Implements the elasticity algorithm over a host B+-tree."""

    def __init__(
        self,
        config: ElasticConfig,
        table: Table,
        policy: Optional[GrowShrinkPolicy] = None,
    ) -> None:
        self.config = config
        self.table = table
        self.policy = policy if policy is not None else PaperPolicy()
        self.budget = MemoryBudget(
            config.size_bound_bytes,
            config.shrink_trigger_fraction,
            config.expand_trigger_fraction,
        )
        self.rng = random.Random(config.rng_seed)
        self.stats = ElasticityStats()
        self.tree: Optional[BPlusTree] = None
        #: Hook context handed to leaf-kind build hooks; set by attach().
        self.kind_context: Optional[LeafKindContext] = None
        #: Deferred policy actions: state-change hooks fire inside
        #: overflow/underflow handling, where structural rewrites of
        #: unrelated leaves would invalidate the in-flight operation's
        #: path.  Policies queue work here; the elastic tree drains it at
        #: operation boundaries.
        self.pending_actions: List = []
        #: Structural churn since the last :meth:`take_churn`: one per
        #: leaf conversion, capacity change or learned-leaf retrain (the
        #: events this controller's tree records when watched), plus
        #: the retrains' cost units.  Plain arithmetic, never charged.
        self.churn_events = 0
        self.retrain_cost_units = 0.0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, tree: BPlusTree) -> None:
        """Install the elastic overflow/underflow handlers on ``tree``."""
        self.tree = tree
        self.kind_context = LeafKindContext(
            tree=tree, table=self.table, config=self.config,
            controller=self,
        )
        tree.overflow_handler = self._handle_overflow
        tree.underflow_handler = self._handle_underflow

    @property
    def state(self) -> PressureState:
        return self.budget.state

    def observe(self) -> PressureState:
        """Re-evaluate the pressure state from the current index size."""
        assert self.tree is not None
        previous = self.budget.state
        state = self.budget.observe(self.tree.index_bytes)
        if (
            state is PressureState.EXPANDING
            and self.tree.allocator.bytes_in("leaf.compact") == 0
            and self.tree.allocator.bytes_in("leaf.learned") == 0
        ):
            # Fully decompacted: expansion is complete.
            self.budget.settle()
            state = self.budget.state
        if state is not previous:
            self.stats.state_transitions += 1
            observer = self.tree.cost.observer
            if observer is not None:
                observer.record(PressureTransitionEvent(
                    previous=previous.value,
                    state=state.value,
                    index_bytes=self.tree.index_bytes,
                    soft_bound_bytes=self.budget.soft_bound_bytes,
                ))
            self.policy.on_state_change(self, state)
        return state

    def take_churn(self) -> Tuple[int, float]:
        """Return ``(churn_events, retrain_cost_units)`` and clear them."""
        churn = (self.churn_events, self.retrain_cost_units)
        self.churn_events, self.retrain_cost_units = 0, 0.0
        return churn

    def note_retrain(self, cost_units: float) -> None:
        """Count one retrain of a learned leaf this controller built."""
        self.churn_events += 1
        self.retrain_cost_units += cost_units

    def run_pending(self) -> None:
        """Execute policy actions deferred to an operation boundary."""
        while self.pending_actions:
            action = self.pending_actions.pop(0)
            action()

    def set_soft_bound(self, new_bound_bytes: int) -> PressureState:
        """Move the soft bound at runtime (budget-arbiter entry point).

        Must be called at an operation boundary (no descent in flight):
        the pressure state is re-evaluated against the new thresholds —
        firing the usual transition events and policy hooks — and any
        deferred policy work (cold sweeps queued by a state change) runs
        immediately.  Hysteresis is preserved across the re-bound: a
        SHRINKING index granted more budget leaves SHRINKING only
        through the ordinary SHRINKING -> EXPANDING -> NORMAL route once
        its size genuinely clears the new thresholds.  Shrinking under a
        *lower* bound happens through the same overflow-conversion
        mechanism as always; this call only arms it.
        """
        assert self.tree is not None, "set_soft_bound requires attach()"
        self.budget.set_soft_bound(new_bound_bytes)
        # Keep the config mirror consistent for introspection/reporting.
        self.config.size_bound_bytes = new_bound_bytes
        state = self.observe()
        self.run_pending()
        return state

    # ------------------------------------------------------------------
    # Leaf construction helpers
    # ------------------------------------------------------------------
    def _make_compact(
        self, capacity: int, items=None, rep=None
    ) -> CompactLeaf:
        assert self.tree is not None
        leaf = CompactLeaf(
            capacity,
            self.table,
            self.tree.allocator,
            self.tree.cost,
            self.tree.key_width,
            rep_cls=self.config.rep_cls,
            rep_kwargs=self.config.rep_kwargs(),
            breathing_slack=self.config.breathing_slack,
            items=items,
            rep=rep,
        )
        leaf.elastic_underflow = True
        return leaf

    def _build_kind(
        self, kind: str, items, capacity: Optional[int] = None
    ) -> LeafNode:
        """Build a leaf of registered ``kind`` via its hooks."""
        assert self.kind_context is not None, "attach() first"
        return leaf_kind(kind).from_sorted(self.kind_context, items, capacity)

    def _count_conversion(self, kind: str, n: int = 1) -> None:
        if kind == "compact":
            self.stats.conversions_to_compact += n
        elif kind == "learned":
            self.stats.conversions_to_learned += n
        elif kind == "standard":
            self.stats.reversions_to_standard += n
        else:
            self.stats.conversions_other += n

    # ------------------------------------------------------------------
    # Overflow: shrink by converting instead of splitting
    # ------------------------------------------------------------------
    def _handle_overflow(
        self, tree: BPlusTree, path: Path, leaf: LeafNode, key: bytes, tid: int
    ) -> None:
        state = self.observe()
        action = self.policy.overflow_action(self, leaf, state)
        if action == "split":
            tree.split_leaf_and_insert(path, leaf, key, tid)
            return
        target = self.policy.conversion_target(self, leaf, state)
        promoted = leaf.kind == target and leaf.kind != "standard"
        old_capacity = leaf.capacity
        old_kind = leaf.kind
        with tree.cost.measure() as delta, \
                tree.cost.attributed_to("elastic.convert"):
            if promoted:
                new_leaf = leaf.with_capacity(leaf.capacity * 2)
                self.stats.capacity_promotions += 1
            else:
                # Converting a standard leaf keeps its in-memory keys;
                # cross-kind fallback (churn-heavy learned -> compact)
                # re-materializes them via batched table loads.  Either
                # way the new leaf starts one rung up so the pending
                # insert fits.
                if leaf.kind == "standard":
                    capacity = 2 * tree.leaf_capacity
                else:
                    capacity = leaf.capacity * 2
                keys, tids = leaf.keys_and_tids()
                new_leaf = self._build_kind(
                    target, list(zip(keys, tids)), capacity
                )
                self._count_conversion(target)
            tree.replace_leaf(path, leaf, new_leaf)
        self.stats.conversion_cost_units += delta.weighted_cost()
        self.churn_events += 1
        observer = tree.cost.observer
        if observer is not None:
            if promoted:
                observer.record(CapacityChangeEvent(
                    direction="double", trigger="overflow",
                    node_id=new_leaf.node_id, old_capacity=old_capacity,
                    new_capacity=new_leaf.capacity, count=new_leaf.count,
                    index_bytes=tree.index_bytes,
                    cost_units=delta.weighted_cost(),
                ))
            else:
                observer.record(LeafConversionEvent(
                    direction=f"to_{target}", trigger="overflow",
                    node_id=new_leaf.node_id, capacity=new_leaf.capacity,
                    count=new_leaf.count, index_bytes=tree.index_bytes,
                    cost_units=delta.weighted_cost(),
                    from_kind=old_kind,
                ))
        new_leaf.upsert(key, tid)

    # ------------------------------------------------------------------
    # Underflow: step down the capacity ladder
    # ------------------------------------------------------------------
    def _handle_underflow(
        self, tree: BPlusTree, path: Path, leaf: LeafNode
    ) -> None:
        state = self.observe()
        action = self.policy.underflow_action(self, leaf, state)
        if action == "rebalance" or leaf.kind == "standard":
            tree.rebalance_leaf(path, leaf)
            return
        half = leaf.capacity // 2
        old_capacity = leaf.capacity
        old_kind = leaf.kind
        stepped_down = half > tree.leaf_capacity
        with tree.cost.measure() as delta, \
                tree.cost.attributed_to("elastic.convert"):
            if stepped_down:
                new_leaf: LeafNode = leaf.with_capacity(half)
                self.stats.capacity_stepdowns += 1
            else:
                # Reverting to a standard leaf re-materializes the keys:
                # one table load per key, the expansion cost of section 4.
                keys, tids = leaf.keys_and_tids()
                new_leaf = tree.make_standard_leaf(list(zip(keys, tids)))
                self.stats.reversions_to_standard += 1
            tree.replace_leaf(path, leaf, new_leaf)
        self.stats.conversion_cost_units += delta.weighted_cost()
        self.churn_events += 1
        observer = tree.cost.observer
        if observer is not None:
            if stepped_down:
                observer.record(CapacityChangeEvent(
                    direction="halve", trigger="underflow",
                    node_id=new_leaf.node_id, old_capacity=old_capacity,
                    new_capacity=half, count=new_leaf.count,
                    index_bytes=tree.index_bytes,
                    cost_units=delta.weighted_cost(),
                ))
            else:
                observer.record(LeafConversionEvent(
                    direction="to_standard", trigger="underflow",
                    node_id=new_leaf.node_id, capacity=tree.leaf_capacity,
                    count=new_leaf.count, index_bytes=tree.index_bytes,
                    cost_units=delta.weighted_cost(),
                    from_kind=old_kind,
                ))
        self.observe()

    # ------------------------------------------------------------------
    # Expansion: random splits of popular compact leaves
    # ------------------------------------------------------------------
    def on_search_leaf(self, path: Path, leaf: LeafNode) -> bool:
        """Called by the elastic tree after a search terminates at
        ``leaf``; may split the leaf down the ladder (section 4,
        "Expansion"), or — for churn-heavy learned leaves — split it
        back toward the full representation whenever memory allows
        (DESIGN.md §11).  Returns True if the leaf was replaced."""
        if (
            leaf.kind == "learned"
            and leaf.count >= 2
            and leaf.retrain_count >= self.config.learned_churn_retrains
            and self.budget.state is not PressureState.SHRINKING
        ):
            self._split_down(path, leaf, trigger="churn")
            return True
        if self.budget.state is not PressureState.EXPANDING:
            return False
        if leaf.kind == "standard" or leaf.count < 2:
            return False
        probability = self.policy.expansion_split_probability(self, leaf)
        if probability <= 0.0 or self.rng.random() >= probability:
            return False
        self._split_down(path, leaf)
        return True

    def _split_down(
        self, path: Path, leaf: LeafNode, trigger: str = "expansion"
    ) -> None:
        tree = self.tree
        assert tree is not None
        half = leaf.capacity // 2
        old_capacity = leaf.capacity
        old_kind = leaf.kind
        split_converted = half > tree.leaf_capacity
        with tree.cost.measure() as delta:
            if split_converted and isinstance(leaf, CompactLeaf):
                right_rep = leaf.rep.split()
                left: LeafNode = self._make_compact(half, rep=leaf.rep)
                right: LeafNode = self._make_compact(half, rep=right_rep)
            elif split_converted:
                # Learned (or third-party) kinds have no in-place rep
                # split: re-materialize and rebuild both halves.
                keys, tids = leaf.keys_and_tids()
                mid = len(keys) // 2
                left = self._build_kind(
                    old_kind, list(zip(keys[:mid], tids[:mid])), half
                )
                right = self._build_kind(
                    old_kind, list(zip(keys[mid:], tids[mid:])), half
                )
                if trigger == "churn":
                    # Keep the churn verdict sticky so the halves keep
                    # descending the ladder instead of re-promoting.
                    for node in (left, right):
                        if isinstance(node, LearnedLeaf):
                            node.retrain_count = leaf.retrain_count
            else:
                keys, tids = leaf.keys_and_tids()
                mid = len(keys) // 2
                left = tree.make_standard_leaf(list(zip(keys[:mid], tids[:mid])))
                right = tree.make_standard_leaf(list(zip(keys[mid:], tids[mid:])))
            separator = right.first_key()
            tree.replace_leaf(path, leaf, left)
            right.link_after(left)
            tree.insert_separator(path, separator, right)
        if trigger == "churn":
            self.stats.churn_splits += 1
        else:
            self.stats.expansion_splits += 1
        self.stats.conversion_cost_units += delta.weighted_cost()
        self.churn_events += 2
        observer = tree.cost.observer
        if observer is not None:
            index_bytes = tree.index_bytes
            cost_units = delta.weighted_cost()
            for node in (left, right):
                if split_converted:
                    observer.record(CapacityChangeEvent(
                        direction="halve", trigger=trigger,
                        node_id=node.node_id, old_capacity=old_capacity,
                        new_capacity=half, count=node.count,
                        index_bytes=index_bytes,
                        cost_units=cost_units / 2,
                    ))
                else:
                    observer.record(LeafConversionEvent(
                        direction="to_standard", trigger=trigger,
                        node_id=node.node_id, capacity=tree.leaf_capacity,
                        count=node.count, index_bytes=index_bytes,
                        cost_units=cost_units / 2,
                        from_kind=old_kind,
                    ))
        self.observe()

    # ------------------------------------------------------------------
    # Cold-first sweeps (ColdFirstPolicy: section 4's future-work policy)
    # ------------------------------------------------------------------
    def compact_cold_sweep(
        self, hand_key: Optional[bytes], sweep_len: int = 16
    ) -> Optional[bytes]:
        """CLOCK-style sweep converting cold leaves to the cold kind.

        Advances a clock hand over up to ``sweep_len`` leaves starting at
        ``hand_key`` (the whole index, incrementally, over many sweeps):
        leaves that were never queried since the last visit are converted
        to the coldest enabled kind (compact when available — cold leaves
        take the smallest representation, even cold *learned* leaves);
        queried ones get a second chance (their access counter is
        halved).  Returns the new hand position, or ``None`` when the
        sweep wrapped.
        """
        tree = self.tree
        assert tree is not None
        cold_kind = self._cold_kind()
        if hand_key is None:
            leaf: Optional[LeafNode] = tree.first_leaf
        else:
            _, leaf = tree.descend(hand_key)
        steps = 0
        while leaf is not None and steps < sweep_len:
            successor = leaf.next_leaf
            if (
                cold_kind is not None
                and leaf.kind != cold_kind
                and leaf.count > 0
            ):
                if leaf.access_count == 0:
                    self._convert_cold_leaf(leaf, cold_kind)
                else:
                    leaf.access_count >>= 1  # aging (second chance)
            steps += 1
            leaf = successor
        self.observe()
        if leaf is None or leaf.count == 0:
            return None
        return leaf.first_key()

    def _cold_kind(self) -> Optional[str]:
        kinds = self.config.conversion_kinds
        if "compact" in kinds:
            return "compact"
        return kinds[0] if kinds else None

    def _convert_cold_leaf(self, leaf: LeafNode, kind: str) -> None:
        tree = self.tree
        assert tree is not None
        path, found = tree.descend(leaf.first_key())
        if found is not leaf:  # structure moved under the sweep
            return
        old_kind = leaf.kind
        with tree.cost.measure() as delta, \
                tree.cost.attributed_to("elastic.convert"):
            keys, tids = leaf.keys_and_tids()
            capacity = min(
                self.config.max_compact_capacity,
                max(2 * tree.leaf_capacity, 1 << max(0, leaf.count - 1).bit_length()),
            )
            new_leaf = self._build_kind(kind, list(zip(keys, tids)), capacity)
            tree.replace_leaf(path, leaf, new_leaf)
        self._count_conversion(kind)
        self.stats.conversion_cost_units += delta.weighted_cost()
        self.churn_events += 1
        observer = tree.cost.observer
        if observer is not None:
            observer.record(LeafConversionEvent(
                direction=f"to_{kind}", trigger="cold_sweep",
                node_id=new_leaf.node_id, capacity=new_leaf.capacity,
                count=new_leaf.count, index_bytes=tree.index_bytes,
                cost_units=delta.weighted_cost(),
                from_kind=old_kind,
            ))

    # ------------------------------------------------------------------
    # Bulk conversion (EagerCompactionPolicy / ablation / bench arms)
    # ------------------------------------------------------------------
    def bulk_convert(self, kind: str = "compact") -> int:
        """Convert every leaf not already of ``kind`` at once.

        Models wholesale compaction (hybrid indexes, section 2) for
        ``kind="compact"``; other registered kinds give bench drivers
        static all-learned / all-standard arms.  Leaves whose contents
        do not fit the target (reverting an over-full converted leaf to
        ``"standard"``) are skipped — underflow/expansion handles those
        incrementally.  Returns the number of leaves converted.

        Raises:
            LeafKindError: if ``kind`` is not registered.
        """
        leaf_kind(kind)  # typed unknown-kind error before any work
        tree = self.tree
        assert tree is not None
        converted = 0
        for path, node in list(tree.iter_leaves_with_paths()):
            if node.kind == kind or node.count == 0:
                continue
            if kind == "standard" and node.count > tree.leaf_capacity:
                continue
            old_kind = node.kind
            keys, tids = node.keys_and_tids()
            if kind == "standard":
                capacity: Optional[int] = None
            else:
                capacity = max(
                    2 * tree.leaf_capacity, 1 << (node.count - 1).bit_length()
                )
                capacity = min(capacity, self.config.max_compact_capacity)
            with tree.cost.measure() as delta:
                new_leaf = self._build_kind(
                    kind, list(zip(keys, tids)), capacity
                )
                tree.replace_leaf(path, node, new_leaf)
            converted += 1
            observer = tree.cost.observer
            if observer is not None:
                observer.record(LeafConversionEvent(
                    direction=f"to_{kind}", trigger="bulk",
                    node_id=new_leaf.node_id, capacity=new_leaf.capacity,
                    count=new_leaf.count, index_bytes=tree.index_bytes,
                    cost_units=delta.weighted_cost(),
                    from_kind=old_kind,
                ))
        self._count_conversion(kind, converted)
        self.churn_events += converted
        self.observe()
        return converted

    def bulk_compact(self) -> int:
        """Convert every standard leaf to a compact leaf at once
        (backwards-compatible name for ``bulk_convert("compact")``)."""
        return self.bulk_convert("compact")

    # ------------------------------------------------------------------
    # Lattice retargeting (self-tuning advisor's swap_preset family)
    # ------------------------------------------------------------------
    def retarget_lattice(self, overrides: Dict[str, object]) -> int:
        """Re-point the conversion lattice in place; migrate strays.

        Applies ``overrides`` (ElasticConfig attributes — typically
        ``leaf_kinds``, the preset lattices of
        :data:`~repro.tuning.config.PRESET_LATTICES`) onto the live
        config, then converts every already-converted leaf whose kind
        the new lattice no longer allows to the new cold kind, leaf by
        leaf.  Standard leaves and the tree structure are untouched —
        unlike a drain-and-rebuild, only the leaves that must change
        representation pay conversion (and, for learned targets,
        training) cost.  Returns the number of leaves migrated.
        """
        tree = self.tree
        assert tree is not None
        for name, value in overrides.items():
            setattr(
                self.config, name,
                tuple(value) if name == "leaf_kinds" else value,
            )
        allowed = set(self.config.leaf_kinds)
        target = self._cold_kind()
        converted = 0
        if target is None:
            return converted
        for path, node in list(tree.iter_leaves_with_paths()):
            if node.kind in allowed or node.count == 0:
                continue
            old_kind = node.kind
            keys, tids = node.keys_and_tids()
            capacity = min(
                self.config.max_compact_capacity,
                max(
                    2 * tree.leaf_capacity,
                    1 << max(0, node.count - 1).bit_length(),
                ),
            )
            with tree.cost.measure() as delta, \
                    tree.cost.attributed_to("elastic.convert"):
                new_leaf = self._build_kind(
                    target, list(zip(keys, tids)), capacity
                )
                tree.replace_leaf(path, node, new_leaf)
            converted += 1
            self.stats.conversion_cost_units += delta.weighted_cost()
            observer = tree.cost.observer
            if observer is not None:
                observer.record(LeafConversionEvent(
                    direction=f"to_{target}", trigger="retarget",
                    node_id=new_leaf.node_id, capacity=new_leaf.capacity,
                    count=new_leaf.count, index_bytes=tree.index_bytes,
                    cost_units=delta.weighted_cost(),
                    from_kind=old_kind,
                ))
        self._count_conversion(target, converted)
        self.churn_events += converted
        self.observe()
        return converted
