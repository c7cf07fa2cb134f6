"""repro.obs — deterministic observability for the elastic index stack.

Typed state-change events + metrics registry + exporters, with no
process-wide state.  Everything is wall-clock free: ordering comes from
per-observer sequence numbers, magnitudes from
:class:`~repro.memory.cost_model.CostModel` units and tracking-allocator
bytes, so instrumented runs stay bit-for-bit reproducible.

Events travel on the ledger.  Every component records its 15 kinds of
state change — a leaf conversion, a capacity move, a retrain, a
pressure transition, a rebalance, a route, a failover, a rebuild, a
recovery, a tuning action — on the :class:`Observer` watching the cost
model it charges.  A database is one ledger, so watching ``db.cost`` is
a per-database switch.  Per-call activity — cache probes, batch
dispatches, prefetch waves, log appends and barriers — is counted by
each layer's own ``stats``; :meth:`repro.db.Database.metrics_snapshot`
reads those at call time, watched or not.

Instrumentation is **off by default**: a ledger's ``observer`` slot is
``None``.  Emitting sites are written as::

    observer = self.cost.observer
    if observer is not None:
        observer.record(LeafConversionEvent(...))

so the unwatched hot path is one attribute read and a falsy branch: no
event construction, no allocation, and — because the obs layer never
charges the cost model — zero cost-model units either way.

Typical wiring::

    from repro import obs

    observer = obs.Observer()
    observer.watch(db.cost)            # db.event_log() reads it too
    ... run workload ...
    print(db.metrics_snapshot())       # Prometheus text
    observer.write_event_log("events.jsonl")
    observer.close()                   # stop watching; the log stays

To price one operation, measure it on its ledger instead:
``with db.cost.measure() as delta: ...`` then ``delta.counts`` and
``delta.weighted_cost()``.
"""

from __future__ import annotations

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
from repro.obs.exporters import (
    PressureTimeline,
    event_to_json,
    read_event_log,
    write_event_log,
)
from repro.obs.metrics import (
    DEFAULT_COST_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.observer import Observer

__all__ = [
    "BreathingResizeEvent",
    "BudgetRebalanceEvent",
    "CacheBudgetEvent",
    "CapacityChangeEvent",
    "ClusterBudgetEvent",
    "Counter",
    "DEFAULT_COST_BUCKETS",
    "Event",
    "Gauge",
    "Histogram",
    "LeafConversionEvent",
    "LeafRetrainEvent",
    "MetricsRegistry",
    "Observer",
    "PolicyActionEvent",
    "PressureTimeline",
    "PressureTransitionEvent",
    "RecoveryReplayEvent",
    "ReplicaFailoverEvent",
    "ReplicaRebuildEvent",
    "ReplicaRouteEvent",
    "TuningActionEvent",
    "TuningPaybackEvent",
    "event_to_json",
    "read_event_log",
    "write_event_log",
]
