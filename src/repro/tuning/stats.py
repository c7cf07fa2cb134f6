"""Online statistics the self-tuning advisor decides from.

Per secondary index the advisor keeps a :class:`StatsCollector`: the
*current* window accumulates query-class counts plus bounded key
samples, and :meth:`StatsCollector.roll` — called at arbiter tick
boundaries — pushes it into a short history deque.  Windows carry

* per-class op counts (point / batch / scan / write / delete),
* the first ``sample_size`` keys seen per class, point keys **with
  repeats** so the ``move_cache`` family can replay the exact reuse
  sequence through its deterministic LRU simulation,
* a coarse 32-bucket key-prefix heat map, and
* structural churn (leaf conversions, capacity changes, learned-leaf
  retrains and their cost units) counted by the elasticity controllers.

Nothing here touches the cost model or the wall clock: collection is
plain attribute arithmetic so the advisor's observation plane is
cost-silent and deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List


#: Number of key-prefix heat buckets per window.
HEAT_BUCKETS = 32


def heat_bucket(key: bytes) -> int:
    """Map a key to one of :data:`HEAT_BUCKETS` prefix buckets."""
    if len(key) >= 2:
        prefix = int.from_bytes(key[:2], "big")
    elif key:
        prefix = key[0] << 8
    else:
        prefix = 0
    return prefix * HEAT_BUCKETS // 65536


@dataclass
class WindowStats:
    """Aggregates for one arbiter interval on one index."""

    point_reads: int = 0
    batch_reads: int = 0
    scan_reads: int = 0
    write_ops: int = 0
    delete_ops: int = 0
    scan_count_sum: int = 0
    churn_events: int = 0
    retrain_cost_units: float = 0.0
    point_keys: List[bytes] = field(default_factory=list)
    scan_starts: List[bytes] = field(default_factory=list)
    write_keys: List[bytes] = field(default_factory=list)
    heat: Dict[int, int] = field(default_factory=dict)

    @property
    def read_ops(self) -> int:
        return self.point_reads + self.batch_reads + self.scan_reads

    @property
    def total_ops(self) -> int:
        return self.read_ops + self.write_ops + self.delete_ops

    def avg_scan_count(self) -> int:
        if not self.scan_reads:
            return 0
        return max(1, self.scan_count_sum // self.scan_reads)


class StatsCollector:
    """Current window + bounded history for one secondary index."""

    def __init__(self, sample_size: int, history_windows: int) -> None:
        self.sample_size = sample_size
        self.current = WindowStats()
        self.history: Deque[WindowStats] = deque(maxlen=history_windows)

    # -- observation (called from Database read/write paths) ---------

    def observe_point(self, key: bytes) -> None:
        win = self.current
        win.point_reads += 1
        if len(win.point_keys) < self.sample_size:
            win.point_keys.append(key)
        bucket = heat_bucket(key)
        win.heat[bucket] = win.heat.get(bucket, 0) + 1

    def observe_batch(self, keys: List[bytes]) -> None:
        # Counted per key, not per batch: the payback horizon is in
        # arbiter op ticks, which the batched read paths advance per
        # key — mismatched units here would underweight batch traffic.
        win = self.current
        win.batch_reads += len(keys)
        room = self.sample_size - len(win.point_keys)
        if room > 0:
            win.point_keys.extend(keys[:room])
        for key in keys:
            bucket = heat_bucket(key)
            win.heat[bucket] = win.heat.get(bucket, 0) + 1

    def observe_scan(self, start_key: bytes, count: int) -> None:
        win = self.current
        win.scan_reads += 1
        win.scan_count_sum += count
        if len(win.scan_starts) < self.sample_size:
            win.scan_starts.append(start_key)

    def observe_write(self, key: bytes) -> None:
        win = self.current
        win.write_ops += 1
        if len(win.write_keys) < self.sample_size:
            win.write_keys.append(key)

    def observe_delete(self, key: bytes) -> None:
        win = self.current
        win.delete_ops += 1
        if len(win.write_keys) < self.sample_size:
            win.write_keys.append(key)

    def observe_churn(self, n: int = 1, cost_units: float = 0.0) -> None:
        self.current.churn_events += n
        self.current.retrain_cost_units += cost_units

    # -- window management --------------------------------------------

    def roll(self) -> WindowStats:
        """Close the current window, push it to history, start fresh."""
        closed = self.current
        self.history.append(closed)
        self.current = WindowStats()
        return closed

    def recent(self, n: int) -> List[WindowStats]:
        """The most recent ``n`` *closed* windows, oldest first."""
        if n <= 0:
            return []
        return list(self.history)[-n:]
