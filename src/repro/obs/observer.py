"""Observer: folds a ledger's events into metrics and a bounded log.

An ``Observer`` watches one or more cost models (:meth:`Observer.watch`
sets their ``observer`` slot); every component charging such a ledger
records its state-change events on it.  The observer numbers them, from
1, folds each into a pre-registered
:class:`~repro.obs.metrics.MetricsRegistry`, and retains the last
:data:`DEFAULT_MAX_EVENTS` of them in a deque for JSON-lines export.
Its registry holds only the event-fed families; the families counted by
the layers themselves are read from their ``stats`` by
:func:`repro.db.metrics.layer_metrics`.

A database is one ledger, so watching ``db.cost`` observes exactly that
database.  Nothing else switches observability on: a ledger nobody
watches records nothing.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Deque, List, Optional

from repro.memory.cost_model import NULL_COST_MODEL, CostModel
from repro.obs.events import (
    BreathingResizeEvent,
    BudgetRebalanceEvent,
    CacheBudgetEvent,
    CapacityChangeEvent,
    ClusterBudgetEvent,
    Event,
    LeafConversionEvent,
    LeafRetrainEvent,
    PolicyActionEvent,
    PressureTransitionEvent,
    RecoveryReplayEvent,
    ReplicaFailoverEvent,
    ReplicaRebuildEvent,
    ReplicaRouteEvent,
    TuningActionEvent,
    TuningPaybackEvent,
)
from repro.obs.exporters import write_event_log
from repro.obs.metrics import MetricsRegistry

#: Retained-event ceiling; pressure transitions are rare but leaf
#: conversions are per-leaf, so long runs need headroom.
DEFAULT_MAX_EVENTS = 65536


class Observer:
    """Aggregates the events of the ledgers it watches into metrics plus
    a bounded event log."""

    def __init__(self) -> None:
        self.events: Deque[Event] = deque(maxlen=DEFAULT_MAX_EVENTS)
        #: Events recorded so far: the last recorded event's ``seq``.
        self.seq = 0
        self.registry = MetricsRegistry()
        self._watched: List[CostModel] = []
        self._register_instruments()

    def watch(self, cost: CostModel) -> None:
        """Record the events of every component charging ``cost``.

        Watching a ledger this observer already watches is a no-op.

        Raises:
            ValueError: for the shared disabled ledger, or for a ledger
                another observer watches.
        """
        if cost.observer is self:
            return
        if cost is NULL_COST_MODEL:
            raise ValueError("the shared disabled cost model cannot be "
                             "watched")
        if cost.observer is not None:
            raise ValueError("cost model is already watched by another "
                             "observer")
        cost.observer = self
        self._watched.append(cost)

    def close(self) -> None:
        """Stop watching every ledger (idempotent); the retained log and
        metrics stay readable."""
        for cost in self._watched:
            cost.observer = None
        self._watched.clear()

    def _register_instruments(self) -> None:
        reg = self.registry
        self._leaf_conversions = reg.counter(
            "repro_leaf_conversions_total",
            "Leaf representation conversions by direction and trigger.",
        )
        self._capacity_changes = reg.counter(
            "repro_capacity_changes_total",
            "Compact-leaf capacity ladder moves by direction and trigger.",
        )
        self._leaf_retrains = reg.counter(
            "repro_leaf_retrains_total",
            "Learned-leaf segment refits by trigger.",
        )
        self._pressure_transitions = reg.counter(
            "repro_pressure_transitions_total",
            "Pressure-state transitions by destination state.",
        )
        self._breathing_resizes = reg.counter(
            "repro_breathing_resizes_total",
            "Breathing tuple-id array reallocations by reason.",
        )
        self._policy_actions = reg.counter(
            "repro_policy_actions_total",
            "Deferred work queued by grow/shrink policies.",
        )
        self._index_bytes = reg.gauge(
            "repro_index_bytes",
            "Live index bytes as of the most recent elasticity event.",
        )
        self._conversion_cost = reg.histogram(
            "repro_conversion_cost_units",
            "Weighted cost-model units per conversion/capacity event.",
        )
        self._rebalances = reg.counter(
            "repro_budget_rebalances_total",
            "Budget-arbiter rebalances that moved budget, by reason.",
        )
        self._rebalance_bytes = reg.counter(
            "repro_budget_bytes_moved_total",
            "Soft-bound bytes moved between shards by the arbiter.",
        )
        self._shard_bound = reg.gauge(
            "repro_shard_soft_bound_bytes",
            "Per-shard soft bound as of the most recent rebalance.",
        )
        self._cache_budget = reg.gauge(
            "repro_cache_budget_bytes",
            "Per-shard cache budget as of the most recent arbiter resize.",
        )
        self._replica_routes = reg.counter(
            "repro_replica_routes_total",
            "Query-class route assignments by class, replica and reason.",
        )
        self._replica_route_cost = reg.gauge(
            "repro_replica_route_cost_units",
            "Winning what-if score of the most recent route per class.",
        )
        self._replica_failovers = reg.counter(
            "repro_replica_failovers_total",
            "Replica availability transitions by reason.",
        )
        self._replica_rebuilds = reg.counter(
            "repro_replica_rebuilds_total",
            "Advisor replica rebuilds by source and target profile.",
        )
        self._cluster_budget = reg.gauge(
            "repro_cluster_budget_bytes",
            "Per-replica share of the cluster-global soft bound.",
        )
        self._recovery_replayed = reg.counter(
            "repro_recovery_replayed_records_total",
            "Log records re-applied by crash recovery.",
        )
        self._recovery_discarded = reg.counter(
            "repro_recovery_discarded_records_total",
            "Torn (non-durable) log records dropped by crash recovery.",
        )
        self._recovery_cost = reg.histogram(
            "repro_recovery_cost_units",
            "Weighted cost-model units per recovery replay.",
        )
        self._tuning_actions = reg.counter(
            "repro_tuning_actions_total",
            "Self-tuning actions applied, by action and target.",
        )
        self._tuning_action_cost = reg.histogram(
            "repro_tuning_action_cost_units",
            "Measured application cost per fired tuning action.",
        )
        self._tuning_payback = reg.histogram(
            "repro_tuning_payback_units",
            "Modeled payback (saving over the window) per fired action.",
        )

    def record(self, event: Event) -> None:
        """Number ``event``, retain it and fold it into the metrics."""
        self.seq += 1
        event.seq = self.seq
        self.events.append(event)
        if isinstance(event, LeafConversionEvent):
            self._leaf_conversions.inc(
                direction=event.direction, trigger=event.trigger
            )
            self._index_bytes.set(event.index_bytes)
            self._conversion_cost.observe(
                event.cost_units, kind="conversion", direction=event.direction
            )
        elif isinstance(event, CapacityChangeEvent):
            self._capacity_changes.inc(
                direction=event.direction, trigger=event.trigger
            )
            self._index_bytes.set(event.index_bytes)
            self._conversion_cost.observe(
                event.cost_units, kind="capacity", direction=event.direction
            )
        elif isinstance(event, LeafRetrainEvent):
            self._leaf_retrains.inc(trigger=event.trigger)
            self._conversion_cost.observe(
                event.cost_units, kind="retrain", direction="refit"
            )
        elif isinstance(event, PressureTransitionEvent):
            self._pressure_transitions.inc(to=event.state)
            self._index_bytes.set(event.index_bytes)
        elif isinstance(event, BreathingResizeEvent):
            self._breathing_resizes.inc(reason=event.reason)
        elif isinstance(event, PolicyActionEvent):
            self._policy_actions.inc(policy=event.policy, action=event.action)
        elif isinstance(event, BudgetRebalanceEvent):
            self._rebalances.inc(reason=event.reason)
            self._rebalance_bytes.inc(event.bytes_moved)
            for shard, bound in zip(event.shards, event.new_bounds):
                self._shard_bound.set(bound, shard=shard)
        elif isinstance(event, CacheBudgetEvent):
            self._cache_budget.set(
                event.new_budget_bytes, shard=event.shard
            )
        elif isinstance(event, ReplicaRouteEvent):
            self._replica_routes.inc(
                query_class=event.query_class,
                replica=str(event.replica),
                reason=event.reason,
            )
            self._replica_route_cost.set(
                event.cost_units, query_class=event.query_class
            )
        elif isinstance(event, ReplicaFailoverEvent):
            self._replica_failovers.inc(reason=event.reason)
        elif isinstance(event, ReplicaRebuildEvent):
            self._replica_rebuilds.inc(
                old_profile=event.old_profile,
                new_profile=event.new_profile,
            )
            self._conversion_cost.observe(
                event.cost_units, kind="replica_rebuild", direction="rebuild"
            )
        elif isinstance(event, ClusterBudgetEvent):
            for replica, bound in zip(event.replicas, event.bounds):
                self._cluster_budget.set(bound, replica=replica)
        elif isinstance(event, TuningActionEvent):
            self._tuning_actions.inc(action=event.action, target=event.target)
            self._tuning_action_cost.observe(
                event.cost_units, action=event.action
            )
        elif isinstance(event, TuningPaybackEvent):
            self._tuning_payback.observe(
                event.modeled_saving_units, action=event.action
            )
        elif isinstance(event, RecoveryReplayEvent):
            self._recovery_replayed.inc(event.records_replayed)
            self._recovery_discarded.inc(event.records_discarded)
            self._recovery_cost.observe(event.cost_units, kind="replay")

    def metrics_snapshot(self) -> str:
        """Prometheus exposition text for every registered instrument."""
        return self.registry.render_prometheus()

    def event_log(self, kind: Optional[str] = None) -> List[Event]:
        """Retained events, oldest first; optionally filtered by kind."""
        if kind is None:
            return list(self.events)
        return [e for e in self.events if e.kind == kind]

    def since(self, seq: int) -> List[Event]:
        """The events recorded after event ``seq``, oldest first — one
        phase's slice of the log, with ``seq`` read before the phase.

        Raises:
            RuntimeError: if some of them already left the bounded log.
        """
        fresh = self.seq - seq
        if fresh > len(self.events):
            raise RuntimeError(
                f"{fresh - len(self.events)} events after seq {seq} "
                f"left the {self.events.maxlen}-event log"
            )
        return list(islice(reversed(self.events), fresh))[::-1]

    def write_event_log(self, path) -> int:
        """Dump retained events as JSON-lines; returns lines written."""
        return write_event_log(self.events, path)
