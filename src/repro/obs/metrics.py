"""Deterministic metrics registry: counters, gauges, histograms.

Prometheus-shaped but wall-clock free: every value is keyed off
cost-model units, allocator bytes, or event counts, so two runs of the
same seeded workload render byte-identical snapshots.  Histograms use
fixed bucket edges chosen at registration time (no adaptive binning —
that would make snapshots depend on observation order).

The text rendering follows the Prometheus exposition format
(``# HELP`` / ``# TYPE`` headers, ``name{label="v"} value`` samples)
with families and label sets emitted in sorted order.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

#: Label sets are stored as sorted (key, value) tuples so rendering and
#: equality are deterministic regardless of observation order.
LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram edges, in weighted cost-model units.  Conversions
#: cost single-digit units for small leaves up to a few hundred for a
#: capacity-128 rebuild; the top edges catch bulk work.
DEFAULT_COST_BUCKETS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
                        500.0, 1000.0)


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    """Render a sample value; integers stay integral for readability."""
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.10g}"


def _format_labels(key: LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{name}="{value}"' for name, value in pairs)
    return "{" + body + "}"


class Counter:
    """Monotonically increasing counter, optionally labelled."""

    metric_type = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        self.values[key] = self.values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self.values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label set."""
        return sum(self.values.values())

    def render(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} {self.metric_type}"]
        if not self.values:
            lines.append(f"{self.name} 0")
            return lines
        for key in sorted(self.values):
            lines.append(
                f"{self.name}{_format_labels(key)} "
                f"{_format_value(self.values[key])}"
            )
        return lines


class Gauge(Counter):
    """A value that can go up and down (bytes, fractions, states)."""

    metric_type = "gauge"

    def set(self, value: float, **labels: str) -> None:
        self.values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        self.values[key] = self.values.get(key, 0.0) + amount


class Histogram:
    """Fixed-bucket histogram (cumulative, Prometheus-style).

    ``buckets`` are the inclusive upper edges; a ``+Inf`` bucket is
    implicit.  Edges are frozen at registration so snapshots stay
    deterministic.
    """

    metric_type = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_COST_BUCKETS,
    ) -> None:
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError("histogram buckets must be sorted and unique")
        self.name = name
        self.help = help
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        #: Per label set: (per-bucket counts incl. +Inf, sum, count).
        self.values: Dict[LabelKey, List] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        state = self.values.get(key)
        if state is None:
            state = [[0] * (len(self.buckets) + 1), 0.0, 0]
            self.values[key] = state
        counts, _, _ = state
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                counts[i] += 1
                break
        else:
            counts[len(self.buckets)] += 1
        state[1] += value
        state[2] += 1

    def count(self, **labels: str) -> int:
        state = self.values.get(_label_key(labels))
        return state[2] if state else 0

    def sum(self, **labels: str) -> float:
        state = self.values.get(_label_key(labels))
        return state[1] if state else 0.0

    def render(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} {self.metric_type}"]
        for key in sorted(self.values):
            counts, total, n = self.values[key]
            cumulative = 0
            for i, edge in enumerate(self.buckets):
                cumulative += counts[i]
                lines.append(
                    f"{self.name}_bucket"
                    f"{_format_labels(key, [('le', _format_value(edge))])} "
                    f"{cumulative}"
                )
            cumulative += counts[len(self.buckets)]
            lines.append(
                f"{self.name}_bucket{_format_labels(key, [('le', '+Inf')])} "
                f"{cumulative}"
            )
            lines.append(
                f"{self.name}_sum{_format_labels(key)} {_format_value(total)}"
            )
            lines.append(f"{self.name}_count{_format_labels(key)} {n}")
        return lines


class MetricsRegistry:
    """Named instruments plus a Prometheus text rendering.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: calling
    them again with the same name returns the existing instrument (and
    raises if the existing instrument is of a different type).
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}"
                )
            return existing
        instrument = cls(name, help, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_COST_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str):
        return self._instruments.get(name)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def render_prometheus(self, *others: "MetricsRegistry") -> str:
        """Prometheus exposition text; families in sorted name order.

        ``others`` render in the same text, merged by family name.
        """
        instruments = dict(self._instruments)
        for other in others:
            instruments.update(other._instruments)
        lines: List[str] = []
        for name in sorted(instruments):
            lines.extend(instruments[name].render())
        return "\n".join(lines) + "\n" if lines else ""
