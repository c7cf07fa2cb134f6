"""Figure 1: daily extracted-data size variability of the cloud log.

The paper's Figure 1 plots, per day, the size of the data extracted from
a commercial cloud provider's object-storage logs: "There are many days
in which the size of the data is 1.5x that of the average data size over
the reported period, and in some days the data size exceeds the average
by 2x-3.5x."  Regenerated from the synthetic IOTTA-like trace.

With ``events_dir`` set, the daily volumes are additionally replayed
against a small elastic index holding a sliding window of recent days,
and the resulting pressure timeline (daily samples plus every
pressure-state transition) is dumped as JSON-lines — the motivating
scenario of section 1 made observable.
"""

from __future__ import annotations

import os
import random
from collections import deque
from typing import List, Optional

from repro import obs
from repro.bench.harness import (
    ExperimentResult,
    estimate_stx_bytes_per_key,
    make_u64_environment,
)
from repro.workloads.iotta import IottaTraceGenerator

#: Replay scale: rows per average day and the retention window (days).
REPLAY_BASE_ROWS = 400
REPLAY_WINDOW_DAYS = 7


def run(
    days: int = 90,
    seed: int = 20220329,
    events_dir: Optional[str] = None,
) -> ExperimentResult:
    """Regenerate the daily-volume series and its spike statistics."""
    gen = IottaTraceGenerator(
        base_rows_per_day=10_000, days=days, seed=seed
    )
    relative = gen.daily_relative_sizes()
    result = ExperimentResult(
        "fig1",
        "Daily extracted data size relative to period average",
        x_label="day",
    )
    result.xs = list(range(1, days + 1))
    result.add_series("size/average", relative)
    over_15 = sum(1 for r in relative if r > 1.5)
    result.add_row("days over 1.5x average", str(over_15))
    result.add_row("max day / average", f"{max(relative):.2f}x")
    result.add_row(
        "paper", "many days at 1.5x; some days exceed average by 2x-3.5x"
    )
    if events_dir is not None:
        _replay_pressure_timeline(relative, events_dir, result, seed)
    return result


def _replay_pressure_timeline(
    relative: List[float],
    events_dir: str,
    result: ExperimentResult,
    seed: int,
) -> None:
    """Replay the daily volumes against a windowed elastic index.

    Each day inserts ``REPLAY_BASE_ROWS * relative[day]`` rows and
    evicts the rows that fell out of the ``REPLAY_WINDOW_DAYS`` window;
    the soft bound is sized for an average window, so spike days push
    the index into shrinking and quiet stretches let it expand — the
    grow/shrink cycle of Figure 1's workload.
    """
    daily = [max(1, int(REPLAY_BASE_ROWS * r)) for r in relative]
    avg_window_rows = sum(daily) / len(daily) * REPLAY_WINDOW_DAYS
    bound = int(estimate_stx_bytes_per_key() * avg_window_rows)
    env = make_u64_environment("elastic", size_bound_bytes=bound)

    observer = obs.Observer()
    observer.watch(env.cost)
    timeline = obs.PressureTimeline(observer, label="fig1")
    rng = random.Random(seed ^ 0x5A5A)
    window: deque = deque()
    try:
        for day, n_rows in enumerate(daily, start=1):
            day_keys = []
            for _ in range(n_rows):
                tid = env.table.insert_row(rng.getrandbits(56))
                key = env.table.peek_key(tid)
                env.index.insert(key, tid)
                day_keys.append(key)
            window.append(day_keys)
            if len(window) > REPLAY_WINDOW_DAYS:
                for key in window.popleft():
                    env.index.remove(key)
            timeline.sample(
                day, env.index.index_bytes, env.index.pressure_state.value,
                rows=len(env.index),
            )
        os.makedirs(events_dir, exist_ok=True)
        timeline.dump(
            os.path.join(events_dir, "fig1_pressure_timeline.jsonl")
        )
        observer.write_event_log(
            os.path.join(events_dir, "fig1_events.jsonl")
        )
        with open(
            os.path.join(events_dir, "fig1_metrics.prom"),
            "w", encoding="utf-8",
        ) as fh:
            fh.write(observer.metrics_snapshot())
        result.add_row(
            "replay events",
            f"{len(observer.events)} captured "
            f"({len(timeline.transitions)} pressure transitions) "
            f"-> {events_dir}",
        )
    finally:
        observer.close()
