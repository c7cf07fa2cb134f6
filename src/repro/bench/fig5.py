"""Figure 5: elastic B+-tree operation trade-offs (section 6.1).

Protocol: a single thread inserts N items and subsequently deletes them,
in chunks of N/10.  After each chunk: 3N/100 lookups of random keys and
N/100 scans of 15 keys from a random start.  The elastic tree is
configured to start shrinking at N/2 items (the paper's 50 M of 100 M)
and to start expanding at ~84% of the bound.

Outputs the five panels: (a) scan throughput, (b) memory consumption,
(c) lookup throughput, (d) insert throughput, (e) remove throughput —
per index, at every chunk boundary.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.bench.harness import (
    ExperimentResult,
    IndexEnv,
    Measurement,
    estimate_stx_bytes_per_key,
    make_u64_environment,
    measure,
)

DEFAULT_INDEXES = ("stx", "elastic", "seqtree128", "hot")
SCAN_LENGTH = 15


def _make_env(name: str, n_items: int, bytes_per_key: float) -> IndexEnv:
    if name == "elastic":
        # Shrink threshold (90% of the bound) sits at the size of N/2
        # items; the default expand threshold (75% of the bound) then
        # matches the paper's 1081/1289 = 0.84 of the shrink point.
        bound = int(bytes_per_key * (n_items / 2) / 0.9)
        return make_u64_environment(name, size_bound_bytes=bound)
    return make_u64_environment(name)


def run(
    n_items: int = 60_000,
    chunks: int = 10,
    indexes: Sequence[str] = DEFAULT_INDEXES,
    seed: int = 5,
    events_dir: Optional[str] = None,
) -> ExperimentResult:
    """Run the grow/shrink protocol; one series per index per panel.

    With ``events_dir`` set, the elastic index's run is instrumented:
    its elasticity events, Prometheus metrics snapshot, and a pressure
    timeline (one sample per chunk boundary plus every state
    transition) are dumped into that directory as ``fig5_events.jsonl``
    / ``fig5_metrics.prom`` / ``fig5_pressure_timeline.jsonl``.
    """
    rng = random.Random(seed)
    values = rng.sample(range(1 << 56), n_items)
    delete_order = list(values)
    rng.shuffle(delete_order)
    chunk = n_items // chunks
    lookups_per_chunk = max(200, 3 * n_items // 100)
    scans_per_chunk = max(60, n_items // 100)
    bytes_per_key = estimate_stx_bytes_per_key()

    result = ExperimentResult(
        "fig5",
        "Elastic B+-tree operation trade-offs (grow then shrink)",
        x_label="items",
    )
    checkpoints: List[int] = []
    panels: Dict[str, Dict[str, List[float]]] = {
        name: {"scan": [], "mem_mb": [], "lookup": [], "insert": [],
               "remove": []}
        for name in indexes
    }

    for name in indexes:
        env = _make_env(name, n_items, bytes_per_key)
        index, table, cost = env.index, env.table, env.cost
        tid_of = {}
        live: List[int] = []
        checkpoints_local: List[int] = []

        observing = events_dir is not None and name == "elastic"
        observer = timeline = None
        if observing:
            observer = obs.Observer()
            observer.watch(cost)
            timeline = obs.PressureTimeline(observer, label="fig5")

        def query_phase(panel_insert_or_remove: str, m_modify: Measurement):
            population = live if live else [0]
            lookup_keys = [
                table.peek_key(tid_of[rng2.choice(population)])
                if live else b"\x00" * 8
                for _ in range(lookups_per_chunk)
            ]
            m_lookup = measure(
                cost,
                lookups_per_chunk,
                lambda: [index.lookup(k) for k in lookup_keys],
            )
            scan_keys = [
                table.peek_key(tid_of[rng2.choice(population)])
                if live else b"\x00" * 8
                for _ in range(scans_per_chunk)
            ]
            m_scan = measure(
                cost,
                scans_per_chunk,
                lambda: [index.scan(k, SCAN_LENGTH) for k in scan_keys],
            )
            panels[name][panel_insert_or_remove].append(m_modify.throughput)
            panels[name]["lookup"].append(m_lookup.throughput)
            panels[name]["scan"].append(m_scan.throughput)
            panels[name]["mem_mb"].append(index.index_bytes / 1e6)
            checkpoints_local.append(len(index))
            if timeline is not None:
                timeline.sample(
                    len(index), index.index_bytes,
                    index.pressure_state.value,
                )

        rng2 = random.Random(seed ^ 0x77)
        # Insert phase.
        for c in range(chunks):
            batch = values[c * chunk : (c + 1) * chunk]

            def do_inserts(batch=batch):
                for value in batch:
                    tid = table.insert_row(value)
                    tid_of[value] = tid
                    index.insert(table.peek_key(tid), tid)

            m = measure(cost, len(batch), do_inserts)
            live.extend(batch)
            live_set = set(live)
            query_phase("insert", m)
        # Delete phase.
        live_set = set(live)
        for c in range(chunks):
            batch = delete_order[c * chunk : (c + 1) * chunk]

            def do_removes(batch=batch):
                for value in batch:
                    index.remove(table.peek_key(tid_of[value]))

            m = measure(cost, len(batch), do_removes)
            live_set.difference_update(batch)
            live = sorted(live_set)
            query_phase("remove", m)

        if observing:
            os.makedirs(events_dir, exist_ok=True)
            timeline.dump(
                os.path.join(events_dir, "fig5_pressure_timeline.jsonl")
            )
            observer.write_event_log(
                os.path.join(events_dir, "fig5_events.jsonl")
            )
            with open(
                os.path.join(events_dir, "fig5_metrics.prom"),
                "w", encoding="utf-8",
            ) as fh:
                fh.write(observer.metrics_snapshot())
            result.add_row(
                "events[elastic]",
                f"{len(observer.events)} captured "
                f"({len(timeline.transitions)} pressure transitions) "
                f"-> {events_dir}",
            )
            observer.close()

        checkpoints = checkpoints_local

    result.xs = checkpoints
    for name in indexes:
        for panel in ("scan", "mem_mb", "lookup", "insert", "remove"):
            ys = panels[name][panel]
            # insert/remove panels each cover half the checkpoints; pad
            # with zeros on the other half so all series align.
            if panel == "insert":
                ys = ys[:chunks] + [0.0] * chunks
            elif panel == "remove":
                ys = [0.0] * chunks + ys[chunks:] if len(ys) > chunks else (
                    [0.0] * chunks + ys
                )
            result.add_series(f"{panel}[{name}]", ys)
    return result
