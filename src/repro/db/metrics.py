"""Metric families read from the layers' own ``stats`` at snapshot time.

Per-call activity — cache probes, batch dispatches, prefetch waves, log
appends and barriers, arbiter samples, advisor probes — is already
counted by the layer that does it, so :func:`layer_metrics` reads those
counters when :meth:`~repro.db.database.Database.metrics_snapshot` is
called instead of re-counting them from events.  The families are this
database's lifetime counts and render whether or not an observer
watches its ledger; the event-fed families (state changes) stay on the
:class:`~repro.obs.Observer` watching ``db.cost``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.exec.executor import index_caches
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.db.database import Database

#: ``repro_cache_events_total`` labels (action, tier) per
#: :class:`~repro.cache.CacheStats` field.
_CACHE_ACTIONS = (
    ("hit", "row", "row_hits"),
    ("miss", "row", "row_misses"),
    ("hit", "descent", "desc_hits"),
    ("miss", "descent", "desc_misses"),
    ("admit", "row", "row_admits"),
    ("admit", "descent", "desc_admits"),
    ("evict", "row", "row_evictions"),
    ("evict", "descent", "desc_evictions"),
    ("invalidate", "row", "row_invalidations"),
    ("invalidate", "descent", "desc_invalidations"),
)


def _shard_executors(index) -> List:
    """Scatter/gather executors under an index (each replica's, for a
    replica set); ``None`` where there is none."""
    replicas = getattr(index, "replicas", None)
    parts = [r.index for r in replicas] if replicas is not None else [index]
    return [getattr(part, "executor", None) for part in parts]


def layer_metrics(db: "Database") -> MetricsRegistry:
    """A fresh registry holding ``db``'s families read from layer stats."""
    reg = MetricsRegistry()
    dispatch = reg.counter(
        "repro_batch_dispatch_ops_total",
        "Operations dispatched by BatchExecutor, by op and path.",
    )
    cache_events = reg.counter(
        "repro_cache_events_total",
        "Adaptive-cache actions by cache name, action and tier "
        "(invalidate counts entries dropped).",
    )
    hit_rate = reg.gauge(
        "repro_cache_hit_rate",
        "Lifetime hit rate (either tier) per cache.",
    )
    saved = 0.0
    executors = set()
    for dbtable in db.tables.values():
        for secondary in dbtable.indexes.values():
            executor = secondary.executor
            native = executor.native_by_kind
            for kind, ops in executor.stats.by_kind.items():
                path = "native" if native[kind] else "fallback"
                dispatch.inc(ops, op=kind, path=path)
            for cache in index_caches(secondary.index):
                stats = cache.stats
                for action, tier, name in _CACHE_ACTIONS:
                    count = getattr(stats, name)
                    if count:
                        cache_events.inc(
                            count, name=cache.name, action=action, tier=tier
                        )
                if stats.lookups:
                    hit_rate.set(stats.hit_rate, name=cache.name)
            for shard_executor in _shard_executors(secondary.index):
                stats = getattr(shard_executor, "stats", None)
                if stats is not None and id(shard_executor) not in executors:
                    executors.add(id(shard_executor))
                    saved += stats.saved_units
    reg.counter(
        "repro_parallel_saved_units_total",
        "Cost units hidden behind parallel critical paths "
        "(serial sum minus critical path, accumulated).",
    ).inc(max(0.0, saved))

    totals = db.cost.mlp_totals
    reg.counter(
        "repro_mlp_waves_total",
        "Prefetch waves issued by batched read paths.",
    ).inc(totals.waves)
    reg.counter(
        "repro_mlp_loads_total",
        "Independent loads wave-priced by batched read paths.",
    ).inc(totals.loads)
    reg.counter(
        "repro_mlp_units_saved_total",
        "Cost units hidden by prefetch waves versus serial pricing.",
    ).inc(max(0.0, totals.saved_units))

    samples = reg.counter(
        "repro_shard_pressure_observations_total",
        "Arbiter pressure samples (one per shard per evaluation), by "
        "pressure state.",
    )
    if db.arbiter is not None:
        for state, count in db.arbiter.stats.samples_by_state.items():
            samples.inc(count, state=state)
    probes = reg.counter(
        "repro_tuning_probes_total",
        "Self-tuning what-if candidate probes scored.",
    )
    if db.advisor is not None:
        probes.inc(db.advisor.stats.candidates_scored)

    records = reg.counter(
        "repro_wal_records_total",
        "Write-ahead-log records appended, over all streams.",
    )
    nbytes = reg.counter(
        "repro_wal_bytes_total",
        "Write-ahead-log payload bytes appended.",
    )
    commits = reg.counter(
        "repro_group_commits_total",
        "Fsync barriers (group commits), one per stream a barrier covers.",
    )
    durable_records = reg.counter(
        "repro_group_commit_records_total",
        "Records made durable by group commits, by log stream.",
    )
    durable_lsn = reg.gauge(
        "repro_wal_durable_lsn",
        "Durable lsn watermark per log stream.",
    )
    wal = db.wal
    if wal is not None:
        records.inc(len(wal.records))
        nbytes.inc(sum(record.nbytes for record in wal.records))
        commits.inc(wal.fsyncs)
        for stream in wal.streams:
            if stream.durable_lsn < 0:
                continue
            label = str(stream.stream)
            durable_records.inc(
                sum(1 for r in stream.records if r.lsn <= stream.durable_lsn),
                stream=label,
            )
            durable_lsn.set(stream.durable_lsn, stream=label)
    return reg
