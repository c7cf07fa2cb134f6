"""Cost-attributed tracing: spans over index operations.

``trace_op()`` wraps one index/database operation and records a span
holding the weighted-cost delta the operation charged and the raw
per-category event deltas (``rand_line``, ``key_load``, ...), taken
from the shared :class:`~repro.memory.cost_model.CostModel` ledger.
Spans land in a ring buffer of fixed capacity, so tracing is bounded
regardless of workload length.

There are no wall clocks anywhere: a span's "duration" is its weighted
cost in DRAM-miss units, which is deterministic across runs.

When observability is disabled (the default), ``trace_op`` returns a
shared no-op context: no snapshotting, no span allocation, and no
cost-model charges on the hot path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.memory.cost_model import CostModel

from repro.obs import _state


@dataclass
class Span:
    """One traced operation: cost delta plus per-category charges."""

    op: str
    seq: int = 0
    cost_units: float = 0.0
    #: Raw event-count deltas per cost category (e.g. ``rand_line: 3``).
    by_category: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict:
        return {
            "op": self.op,
            "seq": self.seq,
            "cost_units": self.cost_units,
            "by_category": dict(self.by_category),
        }


class _NullSpanContext:
    """Shared no-op context used while observability is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_CONTEXT = _NullSpanContext()


class _SpanContext:
    """Active trace context: snapshots the cost ledger around the op."""

    __slots__ = ("_tracer", "_cost", "_span", "_before")

    def __init__(self, tracer: "Tracer", cost: CostModel, op: str) -> None:
        self._tracer = tracer
        self._cost = cost
        self._span = Span(op=op)
        self._before: Dict[str, int] = {}

    def __enter__(self) -> Span:
        self._before = self._cost.snapshot()
        return self._span

    def __exit__(self, *exc_info) -> bool:
        after = self._cost.counts
        before = self._before
        deltas: Dict[str, int] = {}
        for category, count in after.items():
            diff = count - before.get(category, 0)
            if diff:
                deltas[category] = diff
        span = self._span
        span.by_category = deltas
        span.cost_units = _weigh(self._cost, deltas)
        self._tracer._record(span)
        return False


def _weigh(cost: CostModel, deltas: Dict[str, int]) -> float:
    weights = cost.weights._weight_map()
    total = 0.0
    for category, count in deltas.items():
        if category == "fixed_op_milli":
            total += weights["fixed_op"] * (count / 1000.0)
        else:
            total += weights.get(category, 0.0) * count
    return total


class Tracer:
    """Ring-buffer span recorder.

    Args:
        capacity: Maximum number of retained spans; older spans are
            evicted FIFO.  Bounded so long benchmark runs cannot grow
            memory through tracing.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self.spans: Deque[Span] = deque(maxlen=capacity)
        self._seq = 0
        self.dropped = 0

    def trace_op(self, cost: CostModel, op: str, target: Optional[str] = None):
        """Context manager recording one operation's cost delta.

        The span is labelled ``op``, or ``op[target]`` when a target
        (e.g. an index name) is given.  Returns a shared no-op context
        while observability is disabled — without building the label —
        so instrumented call sites can wrap hot paths unconditionally.
        """
        if not _state.enabled:
            return _NULL_CONTEXT
        if target is not None:
            op = f"{op}[{target}]"
        return _SpanContext(self, cost, op)

    def _record(self, span: Span) -> None:
        self._seq += 1
        span.seq = self._seq
        if len(self.spans) == self.capacity:
            self.dropped += 1
        self.spans.append(span)

    def snapshot(self) -> List[Span]:
        """Retained spans, oldest first."""
        return list(self.spans)

    def clear(self) -> None:
        self.spans.clear()
        self.dropped = 0
        self._seq = 0
