"""The budget arbiter: one global soft bound, dynamically apportioned.

The paper's elasticity algorithm (section 4) tunes one index against one
soft size bound.  A database serving many tables under a single memory
envelope needs the bound itself to move: a shard stuck in the SHRINKING
state is demanding space, a NORMAL shard sitting far below its bound is
hoarding slack.  :class:`BudgetArbiter` owns the global bound and
periodically reapportions it across every registered elasticity
controller:

* each shard's **demand weight** is its current occupancy
  (``index_bytes``), boosted by ``pressure_boost`` while the shard is
  SHRINKING — shards under pressure pull budget toward themselves;
* NORMAL shards with headroom donate implicitly: their weight is just
  their occupancy, so their bound contracts toward their actual size;
* every shard keeps at least ``min_bound_bytes`` (an empty shard must
  be able to accept inserts without instantly shrinking);
* a rebalance is applied only when it would move at least
  ``rebalance_fraction`` of the total — hysteresis against churn.

Bounds move through
:meth:`~repro.core.elasticity.ElasticityController.set_soft_bound`,
which preserves each controller's hysteresis state, so a rebalance never
teleports a shard out of SHRINKING; it only changes the thresholds the
ordinary transition rules are evaluated against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.errors import InvalidBudgetError, ShardConfigError
from repro.memory.budget import PressureState
from repro.memory.cost_model import NULL_COST_MODEL
from repro.obs import BudgetRebalanceEvent, CacheBudgetEvent


def largest_remainder(total: int, weights: Sequence[float]) -> List[int]:
    """Apportion ``total`` integer units proportionally to ``weights``.

    Integer parts first, then the leftover units go to the largest
    fractional remainders (ties toward earlier entries), so the result
    sums to exactly ``total``.
    """
    weights = list(weights)
    if not weights:
        raise InvalidBudgetError("largest_remainder needs at least one weight")
    if total < 0:
        raise InvalidBudgetError("total must be non-negative")
    if any(w < 0 for w in weights):
        raise InvalidBudgetError("weights must be non-negative")
    weight_sum = sum(weights)
    if weight_sum <= 0:
        raise InvalidBudgetError("weights must sum to a positive value")
    raw = [total * w / weight_sum for w in weights]
    out = [int(r) for r in raw]
    remainder = total - sum(out)
    by_fraction = sorted(
        range(len(weights)), key=lambda i: raw[i] - out[i], reverse=True
    )
    for i in by_fraction[:remainder]:
        out[i] += 1
    return out


@dataclass
class ArbiterStats:
    """Counters of arbiter activity."""

    evaluations: int = 0
    rebalances: int = 0
    skipped_small: int = 0
    bytes_moved: int = 0
    cache_resizes: int = 0
    cache_bytes_moved: int = 0
    #: Per-shard pressure-state samples: state value -> count.
    samples_by_state: Dict[str, int] = field(default_factory=dict)


class BudgetArbiter:
    """Owns one global soft bound across many elastic shards.

    Args:
        total_bytes: The global soft bound being apportioned.
        interval_ops: Database operations between periodic evaluations
            (via :meth:`tick`); explicit :meth:`rebalance` calls work
            regardless.
        pressure_boost: Demand-weight multiplier bonus for SHRINKING
            shards (0.5 = a shrinking shard pulls like an index 50%
            larger).
        min_bound_bytes: Per-shard bound floor.
        rebalance_fraction: Minimum fraction of ``total_bytes`` a
            rebalance must move to be applied (churn hysteresis).
    """

    def __init__(
        self,
        total_bytes: int,
        interval_ops: int = 4096,
        pressure_boost: float = 0.5,
        min_bound_bytes: int = 4096,
        rebalance_fraction: float = 0.02,
    ) -> None:
        if total_bytes <= 0:
            raise InvalidBudgetError("global budget must be positive")
        if interval_ops < 1:
            raise InvalidBudgetError("interval_ops must be positive")
        if pressure_boost < 0:
            raise InvalidBudgetError("pressure_boost must be non-negative")
        if not 0 <= rebalance_fraction < 1:
            raise InvalidBudgetError("rebalance_fraction must be in [0, 1)")
        self.total_bytes = total_bytes
        self.interval_ops = interval_ops
        self.pressure_boost = pressure_boost
        self.min_bound_bytes = min_bound_bytes
        self.rebalance_fraction = rebalance_fraction
        self.stats = ArbiterStats()
        #: The ledger the arbiter's events go on: its database's, set by
        #: :meth:`~repro.db.Database.enable_budget_arbiter`.  The arbiter
        #: charges nothing.
        self.cost = NULL_COST_MODEL
        self._names: List[str] = []
        self._controllers: List = []
        self._caches: Dict[str, object] = {}
        self._ops_since = 0
        #: Callables invoked after each interval-driven evaluation, on
        #: the same op-boundary clock — the self-tuning advisor rides
        #: here so advisor actions and cache adaptation share one tick
        #: (no second ``_ops_since`` accumulator anywhere).
        self._interval_hooks: List = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name: str, controller) -> None:
        """Enroll one elasticity controller under the global bound.

        The controller keeps its current bound until the next rebalance;
        registration itself never moves budget (a shard being built
        should not trigger churn on its siblings mid-backfill).
        """
        if name in self._names:
            raise ShardConfigError(f"shard {name!r} already registered")
        self._names.append(name)
        self._controllers.append(controller)

    def register_cache(self, name: str, cache) -> None:
        """Enroll a shard's adaptive cache for budget arbitration.

        The cache's budget then tracks the shard's observed hit-rate
        demand at every evaluation: high hit rates earn the cache a
        larger share of the shard's soft bound, idle caches decay to
        their configured floor.  Registration requires the shard itself
        to be registered first.
        """
        if name not in self._names:
            raise ShardConfigError(
                f"cannot register cache for unknown shard {name!r}"
            )
        if name in self._caches:
            raise ShardConfigError(f"shard {name!r} already has a cache")
        self._caches[name] = cache

    def unregister(self, name: str) -> None:
        """Withdraw a controller (and its cache, if any) from arbitration.

        Used when an index is rebuilt in place (self-tuning preset
        swaps, reshards): the fresh structure's controller re-enrolls
        under the same name.  Unknown names raise — silently dropping a
        typo would leak the stale controller.
        """
        if name not in self._names:
            raise ShardConfigError(f"shard {name!r} is not registered")
        position = self._names.index(name)
        del self._names[position]
        del self._controllers[position]
        self._caches.pop(name, None)

    def add_interval_hook(self, hook) -> None:
        """Run ``hook()`` after every interval-driven evaluation.

        Hooks fire at the same operation boundary that triggered the
        rebalance — one shared clock for budget arbitration, cache
        adaptation, and any advisor riding the arbiter, so enabling a
        hook never advances ``_ops_since`` twice per database tick.
        """
        self._interval_hooks.append(hook)

    @property
    def shard_names(self) -> List[str]:
        return list(self._names)

    @property
    def controllers(self) -> List:
        """Every enrolled elasticity controller, in enrollment order."""
        return list(self._controllers)

    def bounds(self) -> Dict[str, int]:
        """Current per-shard soft bounds."""
        return {
            name: controller.budget.soft_bound_bytes
            for name, controller in zip(self._names, self._controllers)
        }

    # ------------------------------------------------------------------
    # Periodic driving
    # ------------------------------------------------------------------
    def tick(self, ops: int = 1) -> bool:
        """Count database operations; rebalance every ``interval_ops``.

        Returns True when an evaluation ran (whether or not it moved
        budget).  Must be called at operation boundaries only.
        """
        self._ops_since += ops
        if self._ops_since < self.interval_ops:
            return False
        self._ops_since = 0
        self.rebalance(reason="interval")
        for hook in self._interval_hooks:
            hook()
        return True

    # ------------------------------------------------------------------
    # The arbitration policy
    # ------------------------------------------------------------------
    def rebalance(self, reason: str = "manual") -> bool:
        """Reapportion the global bound; returns True if budget moved."""
        if not self._controllers:
            return False
        self.stats.evaluations += 1
        sizes = [c.tree.index_bytes for c in self._controllers]
        states = [c.state for c in self._controllers]
        old_bounds = [
            c.budget.soft_bound_bytes for c in self._controllers
        ]
        samples = self.stats.samples_by_state
        for state in states:
            samples[state.value] = samples.get(state.value, 0) + 1
        new_bounds = self._apportion(sizes, states)
        moved = sum(
            abs(new - old) for new, old in zip(new_bounds, old_bounds)
        ) // 2
        if moved < self.rebalance_fraction * self.total_bytes:
            self.stats.skipped_small += 1
            self._adapt_caches()
            return False

        for controller, bound in zip(self._controllers, new_bounds):
            if bound != controller.budget.soft_bound_bytes:
                controller.set_soft_bound(bound)
        self.stats.rebalances += 1
        self.stats.bytes_moved += moved
        observer = self.cost.observer
        if observer is not None:
            observer.record(BudgetRebalanceEvent(
                reason=reason,
                total_bytes=self.total_bytes,
                bytes_moved=moved,
                shards=list(self._names),
                old_bounds=old_bounds,
                new_bounds=new_bounds,
                states=[state.value for state in states],
            ))
        self._adapt_caches()
        return True

    def _adapt_caches(self) -> None:
        """Resize registered caches toward their hit-rate-weighted demand.

        Each adaptive cache's target budget is
        ``bound * min(max_bound_fraction, window_hit_rate * demand_gain)``
        floored at the cache's ``min_budget_bytes``; a resize is applied
        only when it moves at least ``rebalance_fraction`` of the
        shard's bound (same hysteresis discipline as shard bounds).
        The window hit rate is consumed (reset) every evaluation, so the
        demand signal is recent, not lifetime.
        """
        if not self._caches:
            return
        observer = self.cost.observer
        for name, controller in zip(self._names, self._controllers):
            cache = self._caches.get(name)
            if cache is None or not cache.config.adaptive:
                continue
            probes, hits = cache.take_window()
            rate = hits / probes if probes else 0.0
            bound = controller.budget.soft_bound_bytes
            config = cache.config
            target = max(
                config.min_budget_bytes,
                int(bound * min(
                    config.max_bound_fraction, rate * config.demand_gain
                )),
            )
            current = cache.budget_bytes
            if abs(target - current) < self.rebalance_fraction * bound:
                continue
            cache.set_budget(target)
            self.stats.cache_resizes += 1
            self.stats.cache_bytes_moved += abs(target - current)
            if observer is not None:
                observer.record(CacheBudgetEvent(
                    shard=name,
                    old_budget_bytes=current,
                    new_budget_bytes=target,
                    soft_bound_bytes=bound,
                    hit_rate=rate,
                ))

    def _apportion(
        self, sizes: Sequence[int], states: Sequence[PressureState]
    ) -> List[int]:
        """Target bounds: occupancy-proportional, pressure-boosted,
        floored at ``min_bound_bytes`` per shard."""
        n = len(sizes)
        floor = self.min_bound_bytes
        if self.total_bytes < n * floor:
            # Not enough budget to honour the floor: equal split.
            return largest_remainder(self.total_bytes, [1.0] * n)
        weights = []
        for size, state in zip(sizes, states):
            weight = float(max(size, 1))
            if state is PressureState.SHRINKING:
                weight *= 1.0 + self.pressure_boost
            weights.append(weight)
        distributable = self.total_bytes - n * floor
        extras = largest_remainder(distributable, weights)
        return [floor + extra for extra in extras]

    def report(self) -> List[Dict[str, object]]:
        """Per-shard bound/size/state snapshot (bench reporting)."""
        out: List[Dict[str, object]] = []
        for name, controller in zip(self._names, self._controllers):
            size = controller.tree.index_bytes
            row: Dict[str, object] = {
                "name": name,
                "index_bytes": size,
                "soft_bound_bytes": controller.budget.soft_bound_bytes,
                "state": controller.state.value,
                "headroom_bytes": controller.budget.headroom_bytes(size),
            }
            cache = self._caches.get(name)
            if cache is not None:
                row["cache_budget_bytes"] = cache.budget_bytes
                row["cache_bytes"] = cache.bytes_used
                row["cache_hit_rate"] = cache.hit_rate
            out.append(row)
        return out
