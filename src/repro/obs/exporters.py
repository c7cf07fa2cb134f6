"""Exporters: JSON-lines event logs and pressure timelines.

Everything here writes plain text from already-captured, deterministic
data — no wall clocks, no locale-dependent formatting — so exported
artifacts from two runs of the same seeded workload diff clean.

The Prometheus text snapshot lives on
:meth:`repro.obs.metrics.MetricsRegistry.render_prometheus`; this module
covers the file-shaped outputs the bench drivers dump into
``bench_results/``.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Union

from repro.obs.events import Event, PressureTransitionEvent


def event_to_json(event: Event) -> str:
    """One event as a compact, key-sorted JSON object (no newline)."""
    return json.dumps(event.as_dict(), sort_keys=True, separators=(",", ":"))


def write_event_log(events: Iterable[Event], path) -> int:
    """Write events as JSON-lines; returns the number of lines written.

    Each line round-trips through ``json.loads`` independently, so logs
    remain usable even when a run is cut short mid-file.
    """
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(event_to_json(event))
            fh.write("\n")
            count += 1
    return count


def read_event_log(path) -> List[Dict]:
    """Parse a JSON-lines event log back into dicts (blank lines skipped)."""
    records: List[Dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


class PressureTimeline:
    """Records (x, index_bytes, pressure state) samples plus transitions.

    Bench drivers call :meth:`sample` at their own cadence (per chunk,
    per day, per phase) with a driver-chosen ``x`` coordinate — ops
    executed, day number — while pressure-state *transitions* are read
    from ``observer``'s log: the ones recorded since the last read are
    appended before each sample, and on :meth:`dump` and
    :attr:`transitions`.  The resulting JSONL file interleaves
    ``{"kind": "sample", ...}`` and ``{"kind": "pressure_transition",
    ...}`` rows ordered as observed, which is exactly the shape the
    fig-1/fig-5 space-over-time plots need.  A transition that left the
    observer's bounded log before it was read raises instead of going
    missing (:meth:`~repro.obs.Observer.since`).
    """

    def __init__(self, observer, label: str = "") -> None:
        self.observer = observer
        self.label = label
        self.rows: List[Dict] = []
        self._read = observer.seq

    def _pull(self) -> None:
        for event in self.observer.since(self._read):
            if isinstance(event, PressureTransitionEvent):
                self.rows.append(event.as_dict())
        self._read = self.observer.seq

    def sample(
        self,
        x: Union[int, float],
        index_bytes: int,
        state: str,
        **extra,
    ) -> None:
        """Record one driver-cadence sample point."""
        self._pull()
        row = {"kind": "sample", "x": x, "index_bytes": int(index_bytes),
               "state": state}
        if extra:
            row.update(extra)
        self.rows.append(row)

    @property
    def transitions(self) -> List[Dict]:
        self._pull()
        return [r for r in self.rows if r.get("kind") == "pressure_transition"]

    def dump(self, path) -> int:
        """Write the timeline as JSON-lines; returns rows written."""
        self._pull()
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.rows:
                fh.write(json.dumps(row, sort_keys=True,
                                    separators=(",", ":")))
                fh.write("\n")
        return len(self.rows)
