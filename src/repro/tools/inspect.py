"""Structure inspection: ASCII dumps, leaf histograms, cache summaries.

Debugging/ops aids for the elastic trees: visualize which regions of the
key space are compacted, at what capacity, how full the leaves are, and
what each shard's adaptive cache is doing with its budget share.
"""

from __future__ import annotations

from typing import List

from repro.btree.tree import BPlusTree, InnerNode
from repro.engine.builder import parts


def format_size(nbytes: float) -> str:
    """Human-readable byte count."""
    for unit in ("B", "KB", "MB", "GB"):
        if abs(nbytes) < 1024 or unit == "GB":
            return f"{nbytes:.1f} {unit}" if unit != "B" else f"{int(nbytes)} B"
        nbytes /= 1024
    return f"{nbytes:.1f} GB"


#: Dump glyph per leaf kind; unregistered/third-party kinds show "?".
_KIND_GLYPHS = {"standard": "S", "compact": "C", "learned": "L", "delta": "D"}


def _leaf_label(leaf) -> str:
    kind = _KIND_GLYPHS.get(leaf.kind, "?")
    bar_width = 12
    filled = int(round(bar_width * leaf.count / max(1, leaf.capacity)))
    bar = "#" * filled + "." * (bar_width - filled)
    return (
        f"[{kind} {leaf.count:>3}/{leaf.capacity:<3} |{bar}| "
        f"{format_size(leaf.size_bytes)}]"
    )


def dump_tree(tree: BPlusTree, max_leaves: int = 40) -> str:
    """ASCII rendering of a B+-tree's structure.

    Inner nodes show separator counts; leaves show representation
    (S=standard, C=compact, L=learned), occupancy bars and sizes.
    Output is truncated after ``max_leaves`` leaves.
    """
    lines: List[str] = [
        f"B+-tree: {len(tree)} items, height {tree.height}, "
        f"{format_size(tree.index_bytes)}"
    ]
    cache = getattr(tree, "cache", None)
    if cache is not None:
        report = cache.report()
        lines.append(
            f"cache: {report.row_entries}/{report.row_capacity} rows, "
            f"{report.desc_entries}/{report.desc_capacity} descents, "
            f"{format_size(report.bytes_used)} of "
            f"{format_size(report.budget_bytes)} budget, "
            f"hit rate {report.hit_rate * 100:.1f}%"
        )
    emitted = 0

    def walk(node, depth: int) -> None:
        nonlocal emitted
        indent = "  " * depth
        if isinstance(node, InnerNode):
            lines.append(
                f"{indent}inner({len(node.keys)} keys, "
                f"{len(node.children)} children)"
            )
            for child in node.children:
                if emitted > max_leaves:
                    return
                walk(child, depth + 1)
        else:
            emitted += 1
            if emitted == max_leaves + 1:
                lines.append(f"{indent}... (truncated)")
                return
            if emitted <= max_leaves:
                lines.append(f"{indent}{_leaf_label(node)}")

    walk(tree.root, 0)
    return "\n".join(lines)


def cache_summary(index) -> str:
    """Per-shard adaptive-cache table: occupancy, hit rate, budget share.

    Accepts an unsharded tree (one row) or a
    :class:`~repro.engine.ShardedIndex` (one row per shard).  The budget
    share column relates the cache's budget to the shard's soft bound —
    the fraction of elastic memory the cache is currently winning from
    the leaves.
    """
    lines = [
        f"{'shard':<12} {'rows':>11} {'descents':>9} {'bytes':>10} "
        f"{'hit rate':>8} {'bound share':>11}"
    ]
    for name, controller, cache in parts("index", index):
        if cache is None:
            lines.append(f"{name:<12} {'(no cache)':>11}")
            continue
        report = cache.report()
        if controller is not None:
            bound = controller.budget.soft_bound_bytes
            share = f"{report.budget_bytes / bound * 100:.1f}%"
        else:
            share = "-"
        lines.append(
            f"{name:<12} {report.row_entries:>5}/{report.row_capacity:<5} "
            f"{report.desc_entries:>4}/{report.desc_capacity:<4} "
            f"{format_size(report.bytes_used):>10} "
            f"{report.hit_rate * 100:>7.1f}% {share:>11}"
        )
    return "\n".join(lines)


def cluster_summary(index) -> str:
    """Per-replica cluster table: profile, health, routing, budget share.

    Accepts a :class:`~repro.cluster.ReplicaSet` (one row per replica)
    or any plain/sharded index (one row, for symmetric tooling).  Shows
    each replica's profile and kind, item/byte footprint, share of the
    cluster bound its controllers hold now (the arbiter may have moved
    it since the build), health, and the query classes the router
    currently sends it.
    """
    report = getattr(index, "replica_report", None)
    if report is None:
        rows = [{
            "name": "index", "profile": "-", "kind": "-", "up": True,
            "items": len(index), "index_bytes": index.index_bytes,
            "bound_bytes": 0, "classes": [],
        }]
        total_bound = 0
    else:
        rows = report()
        total_bound = sum(row["bound_bytes"] for row in rows)
    lines = [
        f"{'replica':<16} {'profile':<10} {'kind':<9} {'state':<5} "
        f"{'items':>7} {'bytes':>10} {'bound share':>11} classes"
    ]
    for row in rows:
        if total_bound:
            share = f"{row['bound_bytes'] / total_bound * 100:.1f}%"
        else:
            share = "-"
        classes = ",".join(row["classes"]) or "-"
        lines.append(
            f"{row['name']:<16} {row['profile']:<10} {row['kind']:<9} "
            f"{'up' if row['up'] else 'DOWN':<5} {row['items']:>7} "
            f"{format_size(row['index_bytes']):>10} {share:>11} {classes}"
        )
    return "\n".join(lines)


def mlp_summary(target) -> str:
    """Prefetch-wave accounting summary (see ``CostModel.mlp_window``).

    Accepts a :class:`~repro.memory.CostModel` directly, or any object
    exposing one as ``.cost`` (a tree, a :class:`~repro.engine.
    ShardedIndex`, an :class:`~repro.exec.BatchExecutor`'s index).
    Reports cumulative waves issued, loads overlapped behind another
    load's miss, and cost units saved versus serial pricing.
    """
    cost = getattr(target, "cost", target)
    summary = cost.mlp_summary()
    loads = summary["loads"]
    lines = [
        f"mlp: default width {summary['width']}",
        f"  loads wave-priced   {loads}",
        f"  waves issued        {summary['waves']}",
        f"  loads overlapped    {summary['overlapped']}",
        f"  serial pricing      {summary['serial_units']:.2f} units",
        f"  wave pricing        {summary['wave_units']:.2f} units",
        f"  units saved         {summary['saved_units']:.2f}",
    ]
    if loads:
        saved_pct = summary["saved_units"] / summary["serial_units"] * 100
        lines.append(f"  saving vs serial    {saved_pct:.1f}%")
    return "\n".join(lines)


def wal_summary(target) -> str:
    """Write-ahead-log state table: streams, watermarks, pending tail.

    Accepts a :class:`~repro.db.database.Database` with
    ``Database(wal=WalConfig(...))`` attached, or a
    :class:`~repro.wal.WriteAheadLog` directly.  One header block for
    the log as a whole (group size, snapshot barrier, durable vs
    pending record counts), then one row per stream with its durable
    watermark — pending records past a watermark are exactly what a
    crash would discard.
    """
    wal = getattr(target, "wal", target)
    if wal is None or not hasattr(wal, "summary"):
        return "wal: (not configured)"
    info = wal.summary()
    state = "CRASHED" if info["crashed"] else "open"
    lines = [
        f"wal: {info['records']} records, group size {info['group_size']}, "
        f"{info['shards']} stream(s), {state}",
        f"  durable  {info['durable_records']:>7}",
        f"  pending  {info['pending_records']:>7}",
        f"  snapshot lsn {info['snapshot_lsn']:>5}",
        f"{'stream':<8} {'records':>8} {'durable lsn':>12}",
    ]
    for stream in info["streams"]:
        lines.append(
            f"{stream['stream']:<8} {stream['records']:>8} "
            f"{stream['durable_lsn']:>12}"
        )
    return "\n".join(lines)


def tuning_summary(target) -> str:
    """Self-tuning advisor state table: ticks, probes, fired actions.

    Accepts a :class:`~repro.db.database.Database` with
    ``enable_self_tuning(...)`` active, or a
    :class:`~repro.tuning.SelfTuningAdvisor` directly.  One header block
    for the loop as a whole (ticks ridden on the arbiter clock,
    candidates what-if-priced, billed probe fees), then one row per
    action family that has fired, plus the currently parked indexes and
    the writes they have skipped.
    """
    advisor = getattr(target, "advisor", target)
    if advisor is None or not hasattr(advisor, "stats"):
        return "tuning: (not enabled)"
    stats = advisor.stats
    lines = [
        f"tuning: {stats.ticks} ticks, {stats.candidates_scored} candidates "
        f"scored, {stats.probe_fee_units:.1f} fee units billed",
        f"  actions applied     {stats.actions_applied:>7}",
        f"  apply cost units    {stats.apply_cost_units:>10.2f}",
        f"  modeled saving      {stats.modeled_saving_units:>10.2f}",
        f"  churn events seen   {stats.churn_events:>7}",
        f"  parked writes skip  {stats.parked_writes_skipped:>7}",
    ]
    if stats.actions_by_family:
        lines.append(f"{'action':<14} {'fired':>6}")
        for family in sorted(stats.actions_by_family):
            lines.append(
                f"{family:<14} {stats.actions_by_family[family]:>6}"
            )
    parked = advisor.parked_indexes()
    lines.append(
        "parked: " + (", ".join(parked) if parked else "(none)")
    )
    return "\n".join(lines)


def leaf_histogram(tree: BPlusTree, buckets: int = 10) -> str:
    """Histogram of leaf occupancy, split by representation kind."""
    standard = [0] * buckets
    compact = [0] * buckets
    learned = [0] * buckets
    other = [0] * buckets
    columns = {"standard": standard, "compact": compact, "learned": learned}
    leaf = tree.first_leaf
    while leaf is not None:
        fraction = leaf.count / max(1, leaf.capacity)
        bucket = min(buckets - 1, int(fraction * buckets))
        columns.get(leaf.kind, other)[bucket] += 1
        leaf = leaf.next_leaf
    lines = ["occupancy   standard  compact  learned"]
    for i in range(buckets):
        lo, hi = i * 100 // buckets, (i + 1) * 100 // buckets
        lines.append(
            f"{lo:>3}-{hi}%   {standard[i]:>8}  {compact[i]:>7}  "
            f"{learned[i]:>7}"
        )
    if any(other):
        lines.append(f"(+{sum(other)} leaves of other kinds)")
    return "\n".join(lines)
