"""Deterministic memory-hierarchy cost model.

Why this exists (see DESIGN.md, "substitutions"): the paper's performance
results are memory-hierarchy effects — indirect key loads dominate scans
on tries, node locality dominates B+-tree search, copying dominates
compaction.  CPython wall-clock time is dominated by interpreter overhead
instead, so every index in this library *also* charges its work to a
``CostModel``.  The benchmark harness reports throughput as
``operations / weighted cost``, which is scale-free and deterministic.

Event categories
----------------
``rand_line``
    A cache line touched at an unpredictable address (pointer chase into a
    node, first line of a binary-search probe).  Unit cost 1.0 — this is
    the DRAM-latency yardstick everything else is calibrated against.
``seq_line``
    A cache line touched sequentially after another line of the same
    object (array scans inside a node).  Hardware prefetchers hide most of
    this latency; calibrated at 0.25.
``key_load``
    An *indirect* key load: following a tuple id into the database table
    to fetch the key (the defining cost of blind tries / HOT, paper
    sections 2 and 5).  A random DRAM access plus TLB pressure: 1.25.
``key_load_batched``
    An indirect key load issued as part of a batch of *independent*
    loads (scan iteration over a compact leaf or HOT).  Out-of-order
    cores overlap several such misses (memory-level parallelism), so the
    effective per-load cost is ~one third of a dependent load: 0.45.
    This is what keeps the paper's scan gaps at 1.5-2.3x rather than 4x.
``compare``
    One key comparison or one discriminating-bit test: ALU work that
    overlaps misses almost entirely; 0.02.
``branch``
    One hard-to-predict branch (per probed element); 0.01.
``alloc`` / ``free``
    Allocator round trip, fixed part; 1.5 per call (jemalloc fast path is
    tens of cycles, but conversions allocate cold memory).
``copy_line``
    One cache line's worth of bytes copied (memmove during shifts,
    conversions, consolidation); 0.25 per 64 B.
``fixed_op``
    Fixed per-operation dispatch overhead outside the index (network +
    engine dispatch in the MCAS experiments, section 6.3); weight 1.0 and
    charged in *units* chosen by the caller.
``cache_hit``
    One probe of an in-process software cache (``repro.cache``): a hash
    on a key that is already hot in the L1/L2 working set of the probe
    structure.  Charged on every probe — hit *or* miss — so cached reads
    stay honestly accountable; calibrated at 0.1 (an order of magnitude
    under ``rand_line``, well above free).
``model_eval``
    One learned-model inference on the search path (``repro.learned``):
    locating the covering linear segment (a short binary search over an
    in-cache fence array) plus one fused multiply-add and a clamp to
    predict a position.  Pure ALU work on data that the segment array's
    small footprint keeps resident in L1/L2, so it overlaps the leaf's
    line touch almost entirely; calibrated at 0.15 — above a ``compare``
    (it is several of them plus the FMA) but well under any DRAM miss.
``log_append``
    One write-ahead-log record appended to a shard's in-memory log
    buffer (``repro.wal``): serializing a fixed-width row image into a
    sequential, already-resident buffer page.  Mostly streaming stores
    that retire behind the row write itself; calibrated at 0.5 — two
    sequential lines' worth of work, well under any random miss.
``log_fsync``
    One durability barrier on one log stream (the modeled ``fsync``):
    forcing the stream's appended-but-volatile suffix to stable media
    and advancing its durable watermark.  Device flush latency dwarfs
    every DRAM figure; calibrated at 32.0 (tens of microseconds against
    a ~100 ns miss yardstick).  Group commit amortizes this: one
    barrier covers every record of a commit group, mirroring how
    ``wave_issue`` amortizes one miss latency across a prefetch wave —
    which is exactly the saving the ``wal`` experiment gates on.
``wave_issue``
    Per-wave orchestration fee of prefetch-wave accounting (see
    :meth:`CostModel.mlp_window`): issuing a group of independent loads
    as one wave of outstanding misses costs the software-prefetch /
    line-fill-buffer steering work on top of the single overlapped
    miss latency the wave charges.  Calibrated at 0.10 so that a
    key-load wave of width 3 prices each load at ``(1.25 + 0.10) / 3 =
    0.45`` — exactly the ``key_load_batched`` rate, recovering the
    Broadwell-derived ~3x effective-MLP calibration as the W=3 fixed
    point of the general combinator.

Calibration: with these weights, a 16-slot STX leaf search costs about
4–5 units (root-to-leaf pointer chases dominate) and a 15-key scan costs
about 2 extra units on a B+-tree versus about 19 on an indirect-key index
— matching the paper's 1.5–2x scan gap once tree traversal is included.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Dict, Iterator, Optional, Sequence, Tuple
from contextlib import contextmanager


@dataclass(frozen=True)
class CostWeights:
    """Weight (in DRAM-miss units) of each cost-model event category."""

    rand_line: float = 1.0
    seq_line: float = 0.25
    key_load: float = 1.25
    key_load_batched: float = 0.45
    compare: float = 0.02
    branch: float = 0.01
    alloc: float = 1.5
    free: float = 0.75
    copy_line: float = 0.25
    fixed_op: float = 1.0
    cache_hit: float = 0.1
    wave_issue: float = 0.1
    model_eval: float = 0.15
    log_append: float = 0.5
    log_fsync: float = 32.0

    def as_dict(self) -> Dict[str, float]:
        """Return the weights as a plain dict keyed by category name.

        The dict is computed once and cached on the (frozen) instance:
        ``weighted_cost``/``tagged_cost`` sit on the benchmark hot path
        and ``dataclasses.asdict`` is far too slow to re-run per call.
        A copy is returned so callers may mutate their dict freely.
        """
        return dict(self._weight_map())

    def _weight_map(self) -> Dict[str, float]:
        """The cached weight dict itself (internal: do not mutate)."""
        cached = self.__dict__.get("_weight_cache")
        if cached is None:
            cached = asdict(self)
            object.__setattr__(self, "_weight_cache", cached)
        return cached


_CACHE_LINE = 64


@dataclass
class WaveStats:
    """Prefetch-wave accounting tallies (one window, or the cumulative
    totals on a :class:`CostModel`).

    ``loads`` counts the independent loads priced through waves,
    ``waves`` the wave issues charged for them.  ``serial_units`` is
    what fully *dependent* (serial) pricing would have charged for the
    same loads — each load at its category's full weight — and
    ``wave_units`` is what wave pricing actually charged (one
    category-weight miss plus one ``wave_issue`` fee per wave), so
    ``saved_units`` is the latency the memory-level parallelism hid.
    """

    width: int = 1
    loads: int = 0
    waves: int = 0
    serial_units: float = 0.0
    wave_units: float = 0.0

    @property
    def overlapped(self) -> int:
        """Loads that rode behind another load's miss latency."""
        return self.loads - self.waves

    @property
    def saved_units(self) -> float:
        """Cost units hidden versus serial (dependent-load) pricing."""
        return self.serial_units - self.wave_units

    def fold(self, other: "WaveStats") -> None:
        """Accumulate ``other``'s tallies into this instance."""
        self.loads += other.loads
        self.waves += other.waves
        self.serial_units += other.serial_units
        self.wave_units += other.wave_units


class _WaveWindow:
    """Open-window state for :meth:`CostModel.mlp_window` (internal)."""

    __slots__ = ("width", "pending", "stats", "depth")

    def __init__(self, width: int) -> None:
        self.width = width
        #: Per-category loads not yet grouped into a complete wave.
        self.pending: Dict[str, int] = {}
        self.stats = WaveStats(width=width)
        self.depth = 1


@dataclass
class CostModel:
    """Accumulates weighted memory-hierarchy events.

    All indexes in this library accept a ``CostModel`` and charge their
    work to it.  A single model is typically shared between an index and
    its backing :class:`~repro.table.Table` so that indirect key loads
    (``key_load`` events) appear in the same account.
    """

    weights: CostWeights = field(default_factory=CostWeights)
    counts: Dict[str, int] = field(default_factory=dict)
    enabled: bool = True
    #: Per-tag event counts for attributed charging (see ``attributed_to``).
    tagged: Dict[str, Dict[str, int]] = field(default_factory=dict)
    _attribution: str = field(default="", repr=False)
    #: Nesting depth of :meth:`mlp_batch` blocks.  When positive,
    #: dependent key loads charge as independent (batched) loads.
    _mlp_depth: int = field(default=0, repr=False)
    #: Default prefetch-wave width for :meth:`mlp_window`.  1 disables
    #: wave pricing entirely (exact serial passthrough, no issue fee),
    #: so every pre-wave baseline reproduces byte-for-byte by default.
    mlp_width: int = 1
    #: Cumulative wave tallies across all closed windows (see
    #: :meth:`mlp_summary`); cleared by :meth:`reset`.
    mlp_totals: WaveStats = field(default_factory=WaveStats, repr=False)
    _wave: Optional[_WaveWindow] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Charging primitives
    # ------------------------------------------------------------------
    def charge(self, category: str, count: int = 1) -> None:
        """Record ``count`` events of ``category``."""
        # Hot path: millions of calls per benchmark.  One early-exit test,
        # local dict binding, no attribute re-lookups.
        if not (count and self.enabled):
            return
        counts = self.counts
        counts[category] = counts.get(category, 0) + count
        if self._attribution:
            bucket = self.tagged.setdefault(self._attribution, {})
            bucket[category] = bucket.get(category, 0) + count

    def rand_lines(self, n: int = 1) -> None:
        """Charge ``n`` randomly-addressed cache line touches."""
        self.charge("rand_line", n)

    def seq_lines(self, n: int = 1) -> None:
        """Charge ``n`` sequentially-prefetched cache line touches."""
        self.charge("seq_line", n)

    def key_loads(self, n: int = 1) -> None:
        """Charge ``n`` dependent indirect key loads from the table.

        Inside an :meth:`mlp_batch` block the loads belong to a batch of
        independent accesses and charge at the overlapped (batched) rate
        — or, when an :meth:`mlp_window` of width >= 2 is open, are
        grouped into prefetch waves of full-weight ``key_load`` events
        (the general form of the same discount; see the module
        docstring's W=3 fixed point).
        """
        if self._mlp_depth:
            if self._wave is not None:
                self.wave_loads("key_load", n)
            else:
                self.charge("key_load_batched", n)
        else:
            self.charge("key_load", n)

    def key_loads_batched(self, n: int = 1) -> None:
        """Charge ``n`` independent (overlappable) indirect key loads.

        Under an open :meth:`mlp_window` the loads join the window's
        ``key_load`` waves instead of taking the flat batched rate.
        """
        if self._wave is not None:
            self.wave_loads("key_load", n)
        else:
            self.charge("key_load_batched", n)

    def wave_loads(self, category: str, n: int = 1) -> None:
        """Charge ``n`` *independent* loads of ``category``, wave-priced.

        With no open :meth:`mlp_window` (or width 1) this is exactly
        :meth:`charge` — serial pricing, zero overhead.  Under a window
        of width ``W`` the loads accumulate per category; every ``W``
        accumulated loads complete one wave, charged as **one** event of
        ``category`` (max-of-wave: same-category loads share one weight,
        and the other ``W - 1`` misses overlap behind it) plus one
        ``wave_issue`` orchestration fee.  Partial waves are flushed at
        the same rate when the window closes.

        Only use this for loads that are genuinely independent (sibling
        subtree descents, per-group leaf accesses, batch verify loads) —
        dependent pointer chases within one root-to-leaf path must keep
        serial :meth:`rand_lines` pricing.
        """
        if not (n and self.enabled):
            return
        window = self._wave
        if window is None:
            self.charge(category, n)
            return
        weight = self.weights._weight_map().get(category, 0.0)
        stats = window.stats
        stats.loads += n
        stats.serial_units += n * weight
        complete, remainder = divmod(window.pending.get(category, 0) + n,
                                     window.width)
        if complete:
            self.charge(category, complete)
            self.charge("wave_issue", complete)
            stats.waves += complete
            stats.wave_units += complete * (weight + self.weights.wave_issue)
        window.pending[category] = remainder

    def model_evals(self, n: int = 1) -> None:
        """Charge ``n`` learned-model position predictions."""
        self.charge("model_eval", n)

    def log_appends(self, n: int = 1) -> None:
        """Charge ``n`` write-ahead-log record appends."""
        self.charge("log_append", n)

    def log_fsyncs(self, n: int = 1) -> None:
        """Charge ``n`` log-stream durability barriers (group commits)."""
        self.charge("log_fsync", n)

    def compares(self, n: int = 1) -> None:
        """Charge ``n`` key comparisons / bit tests."""
        self.charge("compare", n)

    def branches(self, n: int = 1) -> None:
        """Charge ``n`` hard-to-predict branches."""
        self.charge("branch", n)

    def allocs(self, n: int = 1) -> None:
        """Charge ``n`` allocator calls."""
        self.charge("alloc", n)

    def frees(self, n: int = 1) -> None:
        """Charge ``n`` deallocation calls."""
        self.charge("free", n)

    def copy_bytes(self, nbytes: int) -> None:
        """Charge a copy of ``nbytes`` bytes, rounded up to cache lines."""
        if nbytes > 0:
            self.charge("copy_line", (nbytes + _CACHE_LINE - 1) // _CACHE_LINE)

    def touch_bytes_seq(self, nbytes: int) -> None:
        """Charge a sequential read of ``nbytes`` bytes (first line random)."""
        if nbytes <= 0:
            return
        lines = (nbytes + _CACHE_LINE - 1) // _CACHE_LINE
        self.charge("rand_line", 1)
        if lines > 1:
            self.charge("seq_line", lines - 1)

    def cache_hits(self, n: int = 1) -> None:
        """Charge ``n`` software-cache probes (``repro.cache``)."""
        self.charge("cache_hit", n)

    def fixed_ops(self, units: float = 1.0) -> None:
        """Charge fixed per-operation overhead (in whole units)."""
        # Stored scaled by 1000 to keep counters integral.
        self.charge("fixed_op_milli", int(units * 1000))

    def rebate_delta(self, delta: "CostModel") -> None:
        """Remove a previously-charged event delta from the ledger.

        The parallel executor measures every shard's sub-batch against
        the shared model (so the work *is* charged as it executes) and
        then rebates the events hidden behind the critical path — work
        overlapped by a concurrently-executing shard costs no latency.
        Rebates adjust only the **global** counters: attribution is
        suppressed while the negative charges land, so per-tag buckets
        keep recording the work that was *performed* and never pick up
        negative residues from a rebate issued under a different (or
        no) attribution context than the original charge.
        """
        previous = self._attribution
        self._attribution = ""
        try:
            for category, count in delta.counts.items():
                self.charge(category, -count)
        finally:
            self._attribution = previous

    def charge_parallel(
        self,
        deltas: Sequence["CostModel"],
        width: int,
        coordination_units: float = 0.0,
    ) -> Tuple[float, float]:
        """Critical-path combinator over concurrently-executed deltas.

        ``deltas`` are per-task event deltas (from :meth:`measure`)
        whose events have *already* been charged to this model — the
        serial sum.  Execution overlaps ``width`` tasks at a time, so
        only the most expensive member of each wave of ``width``
        consecutive deltas contributes latency; the other members'
        events are rebated.  A ``coordination_units`` fee (``fixed_op``
        units, the scatter/merge bookkeeping) is charged on top.

        Returns ``(serial_sum_units, critical_path_units)``, where the
        critical path includes the coordination fee.  Ties inside a
        wave keep the earliest delta, so the outcome is deterministic
        for any completion order.
        """
        if width < 1:
            raise ValueError("parallel width must be positive")
        critical = 0.0
        costs = [delta.weighted_cost() for delta in deltas]
        serial_sum = sum(costs)
        for start in range(0, len(deltas), width):
            wave = range(start, min(start + width, len(deltas)))
            keep = max(wave, key=lambda i: (costs[i], -i))
            critical += costs[keep]
            for i in wave:
                if i != keep:
                    self.rebate_delta(deltas[i])
        if coordination_units:
            self.fixed_ops(coordination_units)
            critical += coordination_units * self.weights.fixed_op
        return serial_sum, critical

    @contextmanager
    def mlp_batch(self) -> Iterator[None]:
        """Treat dependent key loads inside the block as members of a
        batch of *independent* loads.

        Batched execution turns the one-verify-load-per-lookup pointer
        chase into many outstanding loads an out-of-order core overlaps
        (memory-level parallelism, cf. the Cuckoo Trie); under this block
        ``key_loads`` charges at the ``key_load_batched`` rate.  Nests;
        depth bookkeeping is exception-safe and guarded against
        underflow.
        """
        self._mlp_depth += 1
        try:
            yield
        finally:
            self._mlp_depth -= 1
            assert self._mlp_depth >= 0, "mlp_batch depth underflow"

    @contextmanager
    def mlp_window(self, width: Optional[int] = None) -> Iterator[WaveStats]:
        """Open a prefetch-wave window: independent loads charged through
        :meth:`wave_loads` (and key loads already marked independent via
        :meth:`mlp_batch` / :meth:`key_loads_batched`) are grouped into
        waves of ``width`` outstanding misses and charged max-of-wave
        plus one ``wave_issue`` fee per wave.

        ``width`` defaults to :attr:`mlp_width`.  Width 1 (or a
        disabled model) yields an inert :class:`WaveStats` and changes
        nothing — serial pricing, byte-identical to a run without the
        window.  Nested windows join the outermost window's wave set
        (the hardware has one line-fill buffer pool; the inner call's
        requested width is ignored).  On exit — normal or by exception
        — partial waves are flushed deterministically (per category, in
        sorted order) and the window's tallies fold into
        :attr:`mlp_totals`.

        Windows must close inside any enclosing :meth:`measure` scope
        so the flush lands in the same delta as the loads it prices.
        """
        effective = self.mlp_width if width is None else width
        if not self.enabled or effective <= 1:
            yield WaveStats(width=max(1, effective))
            return
        window = self._wave
        if window is not None:
            window.depth += 1
            try:
                yield window.stats
            finally:
                window.depth -= 1
                assert window.depth >= 1, "mlp_window depth underflow"
            return
        window = _WaveWindow(effective)
        self._wave = window
        try:
            yield window.stats
        finally:
            window.depth -= 1
            assert window.depth == 0, "mlp_window depth underflow"
            self._wave = None
            self._flush_window(window)
            self.mlp_totals.fold(window.stats)

    def _flush_window(self, window: _WaveWindow) -> None:
        """Charge the window's partial waves (one event + one fee each)."""
        weights = self.weights._weight_map()
        fee = self.weights.wave_issue
        stats = window.stats
        for category in sorted(window.pending):
            if window.pending[category]:
                self.charge(category, 1)
                self.charge("wave_issue", 1)
                stats.waves += 1
                stats.wave_units += weights.get(category, 0.0) + fee
        window.pending.clear()

    @contextmanager
    def using_mlp_width(self, width: int) -> Iterator[None]:
        """Override :attr:`mlp_width` (the default window width) inside
        the block.  Restores the previous width on exit."""
        if width < 1:
            raise ValueError("mlp width must be positive")
        previous = self.mlp_width
        self.mlp_width = width
        try:
            yield
        finally:
            self.mlp_width = previous

    def mlp_summary(self) -> Dict[str, float]:
        """Cumulative prefetch-wave tallies (see :class:`WaveStats`)."""
        totals = self.mlp_totals
        return {
            "width": self.mlp_width,
            "loads": totals.loads,
            "waves": totals.waves,
            "overlapped": totals.overlapped,
            "serial_units": totals.serial_units,
            "wave_units": totals.wave_units,
            "saved_units": totals.saved_units,
        }

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def weighted_cost(self) -> float:
        """Total cost in DRAM-miss units under the configured weights."""
        weights = self.weights._weight_map()
        total = 0.0
        for category, count in self.counts.items():
            if category == "fixed_op_milli":
                total += weights["fixed_op"] * (count / 1000.0)
            else:
                total += weights.get(category, 0.0) * count
        return total

    def snapshot(self) -> Dict[str, int]:
        """Copy of the raw event counters."""
        return dict(self.counts)

    def reset(self) -> None:
        """Clear all counters (including cumulative wave tallies)."""
        self.counts.clear()
        self.tagged.clear()
        self.mlp_totals = WaveStats()

    @contextmanager
    def measure(self) -> Iterator["CostModel"]:
        """Context manager yielding a delta view: counters are snapshotted
        on entry, and on exit the yielded model holds only the delta."""
        before = self.snapshot()
        delta = CostModel(weights=self.weights)
        yield delta
        after = self.snapshot()
        for category in after:
            diff = after[category] - before.get(category, 0)
            if diff:
                delta.counts[category] = diff

    @contextmanager
    def attributed_to(self, tag: str) -> Iterator[None]:
        """Attribute charges inside the block to ``tag`` (in addition to
        the global counters).  The innermost attribution wins on nesting.
        Used for profiling breakdowns like section 6.1's "18.3% of
        execution is elasticity work"."""
        previous = self._attribution
        self._attribution = tag
        try:
            yield
        finally:
            self._attribution = previous

    def tagged_cost(self, tag: str) -> float:
        """Weighted cost of the events attributed to ``tag``."""
        weights = self.weights._weight_map()
        total = 0.0
        for category, count in self.tagged.get(tag, {}).items():
            if category == "fixed_op_milli":
                total += weights["fixed_op"] * (count / 1000.0)
            else:
                total += weights.get(category, 0.0) * count
        return total

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Temporarily stop charging (used for test setup phases)."""
        previous = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = previous


#: A shared disabled model for callers that do not care about costs.
NULL_COST_MODEL = CostModel(enabled=False)
