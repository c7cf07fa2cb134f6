"""repro.obs — deterministic observability for the elastic index stack.

Zero-dependency event bus + metrics registry + cost-attributed tracing
+ exporters.  Everything is wall-clock free: ordering comes from bus
sequence numbers, magnitudes from :class:`~repro.memory.cost_model.
CostModel` units and tracking-allocator bytes, so instrumented runs stay
bit-for-bit reproducible.

The bus carries the 18 event kinds that mark a state change (a leaf
conversion, a capacity move, a retrain, a pressure transition, a
rebalance, a route, a failover, a rebuild, a recovery, a tuning action)
or a scripted fault.  Per-call activity — cache probes, batch
dispatches, prefetch waves, log appends and barriers — is counted by
each layer's own ``stats``; :meth:`repro.db.Database.metrics_snapshot`
reads those at call time, whether observability is on or off.

Instrumentation is **off by default**.  Emitting sites are written as::

    from repro import obs
    ...
    if obs.is_enabled():
        obs.emit(LeafConversionEvent(...))

so the disabled hot path is one module-attribute read and a falsy
branch: no event construction, no allocation, and — because the obs
layer never touches the cost model — zero cost-model units either way.

Typical wiring::

    from repro import obs

    obs.set_enabled(True)
    observer = obs.Observer()          # subscribes to obs.BUS
    ... run workload ...
    print(observer.metrics_snapshot()) # Prometheus text
    observer.write_event_log("events.jsonl")
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs import _state
from repro.obs.events import (
    BreathingResizeEvent,
    BudgetRebalanceEvent,
    CacheBudgetEvent,
    CapacityChangeEvent,
    ClusterBudgetEvent,
    Event,
    EventBus,
    ExecutorDegradeEvent,
    LeafConversionEvent,
    LeafRetrainEvent,
    PolicyActionEvent,
    PressureTransitionEvent,
    RecoveryReplayEvent,
    ReplicaFailoverEvent,
    ReplicaRebuildEvent,
    ReplicaRouteEvent,
    ShardHedgeEvent,
    ShardRetryEvent,
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
from repro.obs.tracing import Span, Tracer

__all__ = [
    "BUS",
    "BreathingResizeEvent",
    "BudgetRebalanceEvent",
    "CacheBudgetEvent",
    "CapacityChangeEvent",
    "ClusterBudgetEvent",
    "Counter",
    "DEFAULT_COST_BUCKETS",
    "Event",
    "EventBus",
    "ExecutorDegradeEvent",
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
    "ShardHedgeEvent",
    "ShardRetryEvent",
    "Span",
    "Tracer",
    "TuningActionEvent",
    "TuningPaybackEvent",
    "emit",
    "enabled",
    "event_to_json",
    "is_enabled",
    "read_event_log",
    "set_enabled",
    "write_event_log",
]

#: The process-wide bus instrumented components publish into.
BUS = EventBus()


def is_enabled() -> bool:
    """Whether instrumented sites should construct and publish events."""
    return _state.enabled


def set_enabled(on: bool) -> None:
    """Flip the global observability switch (off by default)."""
    _state.enabled = bool(on)


def emit(event: Event) -> None:
    """Publish ``event`` on the global bus if observability is enabled.

    Emit sites should still guard with ``if obs.is_enabled():`` so the
    disabled path skips event *construction*; this re-check makes a
    bare ``obs.emit(...)`` safe too.
    """
    if _state.enabled:
        BUS.publish(event)


@contextmanager
def enabled():
    """Context manager: enable observability within the block.

    Restores the previous flag state on exit; handy in tests and bench
    drivers that flip instrumentation around a single phase.
    """
    previous = _state.enabled
    _state.enabled = True
    try:
        yield BUS
    finally:
        _state.enabled = previous
