"""Synthetic SNIA IOTTA-like object-storage log trace (sections 1, 6.3).

Substitution (DESIGN.md): the paper loads a 12-hour, 48 M-row anonymized
trace of REST operations on an IBM object-storage bucket.  The public
trace is not redistributable here, so this generator produces rows with
the same schema — four 8-byte columns: timestamp, operation type, target
object id, size — and the statistical properties the experiments rely
on:

* per-day extracted-data volume varies log-normally with occasional
  spike days at 2-3.5x the average (Figure 1);
* object popularity is zipfian (a small set of hot objects);
* timestamps are monotonically increasing, so the (timestamp, object id)
  index key of section 6.3 is unique and right-appending.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, List

from repro.keys.encoding import encode_u64
from repro.workloads.distributions import ScrambledZipfianGenerator

#: REST operation types seen in the IOTTA object-store logs.
OP_TYPES = ("GET", "PUT", "HEAD", "DELETE", "LIST", "COPY")


@dataclass(frozen=True)
class LogRow:
    """One log row: four 8-byte columns (the section 6.3 schema)."""

    timestamp: int
    op_type: int
    object_id: int
    size: int

    ROW_BYTES = 32

    def index_key(self) -> bytes:
        """The 16-byte (timestamp, object id) index key of section 6.3."""
        return encode_u64(self.timestamp) + encode_u64(self.object_id)


class IottaTraceGenerator:
    """Generates a multi-day object-storage log with volume spikes."""

    def __init__(
        self,
        base_rows_per_day: int = 10_000,
        days: int = 60,
        object_universe: int = 100_000,
        spike_probability: float = 0.08,
        volume_sigma: float = 0.25,
        seed: int = 20220329,
    ) -> None:
        self.base_rows_per_day = base_rows_per_day
        self.days = days
        self.spike_probability = spike_probability
        self.volume_sigma = volume_sigma
        self._rng = random.Random(seed)
        self._objects = ScrambledZipfianGenerator(
            object_universe, seed=seed ^ 0xAB
        )
        self._clock = 1_600_000_000_000_000  # microseconds
        self._daily_rows = self._plan_days()

    def _plan_days(self) -> List[int]:
        """Per-day row counts: log-normal jitter plus spike days."""
        rows = []
        for _ in range(self.days):
            multiplier = math.exp(self._rng.gauss(0.0, self.volume_sigma))
            if self._rng.random() < self.spike_probability:
                multiplier *= self._rng.uniform(2.0, 3.5)
            rows.append(max(1, int(self.base_rows_per_day * multiplier)))
        return rows

    # ------------------------------------------------------------------
    # Figure 1 data: daily extracted-data size relative to the average
    # ------------------------------------------------------------------
    def daily_relative_sizes(self) -> List[float]:
        """Per-day size divided by the period average (Figure 1's shape)."""
        average = sum(self._daily_rows) / len(self._daily_rows)
        return [rows / average for rows in self._daily_rows]

    # ------------------------------------------------------------------
    # Row stream
    # ------------------------------------------------------------------
    def rows_for_day(self, day: int) -> Iterator[LogRow]:
        """The log rows of one day, timestamp-ordered."""
        count = self._daily_rows[day]
        for _ in range(count):
            self._clock += self._rng.randint(1, 2_000)
            yield LogRow(
                timestamp=self._clock,
                op_type=self._rng.randrange(len(OP_TYPES)),
                object_id=self._objects.next(),
                size=self._rng.randint(128, 1 << 22),
            )

    def rows(self, limit: int = None) -> Iterator[LogRow]:
        """All rows across all days, optionally truncated."""
        emitted = 0
        for day in range(self.days):
            for row in self.rows_for_day(day):
                yield row
                emitted += 1
                if limit is not None and emitted >= limit:
                    return
