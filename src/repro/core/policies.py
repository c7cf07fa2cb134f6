"""Grow/shrink policies: which leaves get compacted, and when.

The elasticity algorithm "relies on a grow/shrink policy to select which
leaves to compact/decompact" (paper section 4).  The paper's policy
piggybacks on overflow/underflow events; it also notes "a design space
of possible policies" and leaves alternatives to future work.  This
module implements the paper's policy plus two ablation points:

* :class:`PaperPolicy` — convert on overflow while shrinking, step down
  the capacity ladder on underflow, randomly split popular compact
  leaves while expanding.
* :class:`EagerCompactionPolicy` — on entering the shrinking state,
  compact *every* leaf in bulk, modelling the hybrid-index style of
  wholesale compaction the paper argues against (section 2); used by the
  policy ablation benchmark.
* :class:`ColdFirstPolicy` — the paper's future-work policy, realized:
  spare queried (hot) leaves and reclaim space from never-queried ones
  via an incremental CLOCK sweep.
* :class:`NeverCompactPolicy` — never converts; the elastic tree then
  degenerates to a plain B+-tree (control arm).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.memory.budget import PressureState
from repro.obs import PolicyActionEvent

if TYPE_CHECKING:
    from repro.btree.leaves import LeafNode
    from repro.core.elasticity import ElasticityController


class GrowShrinkPolicy(abc.ABC):
    """Decides conversion actions at overflow/underflow/search events."""

    @abc.abstractmethod
    def overflow_action(
        self,
        controller: "ElasticityController",
        leaf: "LeafNode",
        state: PressureState,
    ) -> str:
        """Return ``"convert"`` (grow the leaf's capacity via the compact
        representation) or ``"split"`` (textbook split)."""

    @abc.abstractmethod
    def underflow_action(
        self,
        controller: "ElasticityController",
        leaf: "LeafNode",
        state: PressureState,
    ) -> str:
        """Return ``"stepdown"`` (halve the compact leaf's capacity /
        revert to standard) or ``"rebalance"`` (textbook borrow/merge)."""

    def on_state_change(
        self, controller: "ElasticityController", state: PressureState
    ) -> None:
        """Hook invoked when the pressure state changes."""

    def conversion_target(
        self,
        controller: "ElasticityController",
        leaf: "LeafNode",
        state: PressureState,
    ) -> str:
        """Leaf kind an overflow conversion should produce.

        Called only after :meth:`overflow_action` returned
        ``"convert"``.  Returning the leaf's own (non-standard) kind
        means a capacity-ladder promotion; returning a different kind
        rebuilds the leaf as that kind one rung up.

        The default implements the three-point frontier over
        ``config.leaf_kinds``: standard leaves that absorbed at least
        ``learned_hot_threshold`` queries convert to ``"learned"`` when
        enabled (point probes stay fast while space shrinks), other
        standard leaves take the first enabled conversion kind
        (``"compact"`` in the paper's configuration), converted leaves
        promote in-kind — except churn-heavy learned leaves
        (``retrain_count >= learned_churn_retrains``), which fall over
        to ``"compact"`` so mutations stop paying retrains.
        """
        config = controller.config
        kinds = config.conversion_kinds
        if leaf.kind != "standard":
            if (
                leaf.kind == "learned"
                and "compact" in kinds
                and getattr(leaf, "retrain_count", 0)
                >= config.learned_churn_retrains
            ):
                return "compact"
            return leaf.kind if leaf.kind in kinds else kinds[0]
        if (
            "learned" in kinds
            and leaf.access_count >= config.learned_hot_threshold
        ):
            return "learned"
        return kinds[0]

    def expansion_split_probability(
        self, controller: "ElasticityController", leaf: "LeafNode"
    ) -> float:
        """Probability that a search ending at ``leaf`` splits it while
        expanding (section 4's random decompaction of popular leaves)."""
        return controller.config.expand_split_probability


class PaperPolicy(GrowShrinkPolicy):
    """The policy of section 4: piggyback on splits and merges."""

    def overflow_action(self, controller, leaf, state):
        if state is not PressureState.SHRINKING:
            return "split"
        if not controller.config.conversion_kinds:
            return "split"  # nothing to convert to (standard-only config)
        if (
            leaf.kind != "standard"
            and leaf.capacity >= controller.config.max_compact_capacity
        ):
            # Queries on very large converted leaves get too slow; cap
            # the ladder and split instead (section 4).
            return "split"
        return "convert"

    def underflow_action(self, controller, leaf, state):
        if leaf.kind != "standard":
            return "stepdown"
        return "rebalance"


class EagerCompactionPolicy(PaperPolicy):
    """Bulk-compacts the whole index when shrinking starts.

    Models the wholesale compaction of hybrid indexes [33]: on the
    NORMAL -> SHRINKING transition every standard leaf is converted at
    once.  The ablation benchmark contrasts its latency spike with the
    paper's incremental approach.
    """

    def on_state_change(self, controller, state):
        if state is PressureState.SHRINKING:
            # Deferred: the transition is usually observed from inside an
            # overflow handler, where rewriting other leaves would
            # invalidate the in-flight insert's descent path.
            controller.pending_actions.append(controller.bulk_compact)
            observer = controller.tree.cost.observer
            if observer is not None:
                observer.record(PolicyActionEvent(
                    policy="eager_compaction", action="bulk_compact",
                ))


class ColdFirstPolicy(PaperPolicy):
    """Access-aware compaction: the paper's future-work policy.

    Section 4: "the policy could pick infrequently accessed nodes for
    compaction, to minimize the impact on query speed. We leave
    exploration of different policies to future work."

    This policy refines the overflow piggyback: when a *queried* (hot)
    standard leaf overflows while shrinking, it is split normally — kept
    fast — and the space is reclaimed instead by a deferred CLOCK-style
    sweep that converts leaves no query has touched.  Cold leaves and all
    compact-leaf transitions behave exactly as in the paper's policy.
    """

    def __init__(self, hot_threshold: int = 1, sweep_len: int = 16) -> None:
        if hot_threshold < 1:
            raise ValueError("hot_threshold must be >= 1")
        self.hot_threshold = hot_threshold
        self.sweep_len = sweep_len
        self._hand = None
        self._sweep_queued = False

    def overflow_action(self, controller, leaf, state):
        action = super().overflow_action(controller, leaf, state)
        if (
            action == "convert"
            and leaf.kind == "standard"
            and leaf.access_count >= self.hot_threshold
        ):
            self._queue_sweep(controller)
            return "split"
        return action

    def _queue_sweep(self, controller) -> None:
        if self._sweep_queued:
            return
        self._sweep_queued = True
        observer = controller.tree.cost.observer
        if observer is not None:
            observer.record(PolicyActionEvent(
                policy="cold_first", action="cold_sweep",
            ))

        def sweep() -> None:
            self._sweep_queued = False
            self._hand = controller.compact_cold_sweep(
                self._hand, self.sweep_len
            )

        controller.pending_actions.append(sweep)


class NeverCompactPolicy(GrowShrinkPolicy):
    """Control arm: behaves exactly like the baseline B+-tree."""

    def overflow_action(self, controller, leaf, state):
        return "split"

    def underflow_action(self, controller, leaf, state):
        if leaf.kind != "standard":
            return "stepdown"  # only reachable if leaves were pre-converted
        return "rebalance"

    def expansion_split_probability(self, controller, leaf):
        return 0.0
