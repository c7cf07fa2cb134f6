"""The budget-aware adaptive read cache (hot rows + leaf descents).

Two tiers sit in front of a B+-tree family index's read path:

* The **hot-row tier** memoizes ``key -> tuple id`` for keys that were
  resolved through *compact* leaves — exactly the lookups that pay the
  paper's indirect ``key_load`` penalty.  A hit answers the query for
  one ``cache_hit`` unit (weight 0.1) instead of a full descent plus a
  random table load.  Entries are invalidated per key on insert/remove
  (a tuple id changes only through those), so the tier survives
  structural changes untouched.
* The **leaf-descent tier** memoizes the fence-key interval
  ``[lo, hi) -> leaf`` of recent descents, so a repeated point lookup
  skips the inner-node walk and pays one ``cache_hit`` unit plus the
  leaf's own search cost.  Any structural change (split, merge,
  conversion, expansion, bulk load) bumps the tree's
  ``structural_epoch``; the tier lazily clears itself wholesale when
  its epoch snapshot is stale, so a stale leaf can never serve a read.

Admission is TinyLFU: every probe records the key in a deterministic
frequency sketch (:mod:`repro.cache.sketch`), and when the row tier is
full a candidate only displaces the LRU victim if its estimated
frequency is strictly higher.

Space is real: the sketch and both tiers charge their modeled bytes to
the owning tree's :class:`~repro.memory.allocator.TrackingAllocator`
under the ``"cache"`` category.  Because an elastic tree's
``index_bytes`` sums every category except the table, the cache
*competes with fat leaves for the soft memory bound* — growing the
cache pushes the elasticity controller toward compacting leaves, and
vice versa.  Entry slabs are allocated 32 entries at a time so the
allocator's per-call cost stays amortized.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache.config import CacheConfig
from repro.cache.sketch import FrequencySketch
from repro.errors import CacheConfigError

#: Entries reserved per allocator call (amortizes the per-call alloc
#: cost the tracking allocator charges).
_SLAB_ENTRIES = 32

#: Sentinel lo-key for the leftmost leaf's interval (compares below
#: every real key, which are at least one byte wide).
_NEG_INF = b""

#: Modeled per-entry overhead beyond the key payload: an 8-byte cached
#: hash, an 8-byte value/pointer slot, and two 8-byte LRU links.
_ENTRY_OVERHEAD = 32


@dataclass
class CacheStats:
    """Lifetime counters of one :class:`IndexCache`."""

    row_hits: int = 0
    row_misses: int = 0
    desc_hits: int = 0
    desc_misses: int = 0
    row_admits: int = 0
    desc_admits: int = 0
    row_rejects: int = 0
    row_evictions: int = 0
    desc_evictions: int = 0
    row_invalidations: int = 0
    desc_invalidations: int = 0
    epoch_clears: int = 0

    @property
    def lookups(self) -> int:
        """Point lookups that consulted the cache (row-tier probes)."""
        return self.row_hits + self.row_misses

    @property
    def hits(self) -> int:
        """Lookups answered (row tier) or shortcut (descent tier)."""
        return self.row_hits + self.desc_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of cache-consulting lookups that hit either tier."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


@dataclass
class CacheReport:
    """Point-in-time snapshot of one cache (bench/inspect reporting)."""

    name: str = ""
    budget_bytes: int = 0
    bytes_used: int = 0
    row_entries: int = 0
    row_capacity: int = 0
    desc_entries: int = 0
    desc_capacity: int = 0
    hit_rate: float = 0.0
    stats: CacheStats = field(default_factory=CacheStats)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "budget_bytes": self.budget_bytes,
            "bytes_used": self.bytes_used,
            "row_entries": self.row_entries,
            "row_capacity": self.row_capacity,
            "desc_entries": self.desc_entries,
            "desc_capacity": self.desc_capacity,
            "hit_rate": self.hit_rate,
            "hits": self.stats.hits,
            "lookups": self.stats.lookups,
        }


class IndexCache:
    """One index's (or shard's) two-tier adaptive cache.

    Construct with a validated :class:`~repro.cache.config.CacheConfig`,
    then attach to a tree via ``tree.attach_cache(cache)`` — attachment
    binds the cache to the tree's allocator and cost model and charges
    the sketch's footprint.  All probes charge one ``cache_hit`` cost
    unit each, hit or miss, so cached execution stays honestly priced.
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        config.validate()
        self.config = config
        self.name = name
        self._sketch = FrequencySketch(
            width=config.sketch_width,
            depth=config.sketch_depth,
            sample_size=config.sketch_sample_size,
        )
        self.stats = CacheStats()
        self._budget_bytes = config.budget_bytes
        self._allocator = None
        self._cost = None
        self._key_width = 0
        self._row_entry_bytes = 0
        self._desc_entry_bytes = 0
        self._row_capacity = 0
        self._desc_capacity = 0
        #: key -> tuple id, LRU order (oldest first).
        self._rows: "OrderedDict[bytes, int]" = OrderedDict()
        #: lo fence key -> (hi fence key or None, leaf), LRU order.
        self._desc: "OrderedDict[bytes, Tuple[Optional[bytes], object]]" = (
            OrderedDict()
        )
        #: Sorted lo fence keys for interval probes.
        self._desc_keys: list = []
        self._desc_epoch = 0
        self._row_reserved = 0
        self._desc_reserved = 0
        self._cache_bytes = 0
        self._window_probes = 0
        self._window_hits = 0

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def bind(self, allocator, cost_model, key_width: int) -> None:
        """Bind to the owning tree's accounting (idempotent misuse guard).

        Charges the admission sketch's footprint to the allocator's
        ``"cache"`` category and sizes both tiers from the budget.
        """
        if self._allocator is not None:
            raise CacheConfigError(
                f"cache {self.name!r} is already attached to an index"
            )
        if key_width < 1:
            raise CacheConfigError(f"key width must be positive: {key_width}")
        self._allocator = allocator
        self._cost = cost_model
        self._key_width = key_width
        self._row_entry_bytes = key_width + _ENTRY_OVERHEAD
        self._desc_entry_bytes = 2 * key_width + _ENTRY_OVERHEAD
        self._cache_bytes += allocator.allocate(
            self._sketch.size_bytes, "cache"
        )
        self._recompute_capacities()

    # ------------------------------------------------------------------
    # Probes (each charges one ``cache_hit`` unit, hit or miss)
    # ------------------------------------------------------------------
    def probe_row(self, key: bytes) -> Optional[int]:
        """Hot-row tier probe: cached tuple id for ``key``, or None."""
        self._cost.charge("cache_hit", 1)
        self._window_probes += 1
        self._sketch.record(key)
        rows = self._rows
        tid = rows.get(key)
        if tid is not None:
            rows.move_to_end(key)
            self.stats.row_hits += 1
            self._window_hits += 1
            return tid
        self.stats.row_misses += 1
        return None

    def probe_row_batch(self, keys: Sequence[bytes]) -> List[Optional[int]]:
        """Hot-row tier probes for a batch: one :meth:`probe_row` result
        per key, in order, with the batch's ``cache_hit`` units charged
        in one charge.  One loop records each key in the sketch, in
        input order (the sketch's aging point depends on it), looks it
        up and touches a hit's LRU slot; the counters move once per
        batch."""
        self._cost.charge("cache_hit", len(keys))
        record = self._sketch.record
        rows = self._rows
        get = rows.get
        touch = rows.move_to_end
        out: List[Optional[int]] = []
        hits = 0
        for key in keys:
            record(key)
            tid = get(key)
            if tid is not None:
                touch(key)
                hits += 1
            out.append(tid)
        stats = self.stats
        stats.row_hits += hits
        stats.row_misses += len(keys) - hits
        self._window_probes += len(keys)
        self._window_hits += hits
        return out

    def probe_leaf(self, key: bytes, epoch: int):
        """Descent tier probe: the leaf covering ``key``, or None.

        ``epoch`` is the tree's current ``structural_epoch``; a mismatch
        with the tier's snapshot clears the whole tier first, so entries
        admitted before any split/merge/conversion can never be served.
        """
        self._cost.cache_hits(1)
        if epoch != self._desc_epoch:
            self._clear_descent(epoch)
        keys = self._desc_keys
        i = bisect_right(keys, key) - 1
        if i >= 0:
            lo = keys[i]
            hi, leaf = self._desc[lo]
            if hi is None or key < hi:
                self._desc.move_to_end(lo)
                self.stats.desc_hits += 1
                self._window_hits += 1
                return leaf
        self.stats.desc_misses += 1
        return None

    # ------------------------------------------------------------------
    # Admission (TinyLFU on the row tier, plain LRU on the descent tier)
    # ------------------------------------------------------------------
    def admit_row(self, key: bytes, tid: int) -> None:
        """Offer ``key -> tid`` to the hot-row tier."""
        rows = self._rows
        if key in rows:
            rows[key] = tid
            rows.move_to_end(key)
            return
        if self._row_capacity < 1:
            self.stats.row_rejects += 1
            return
        if len(rows) >= self._row_capacity:
            victim = next(iter(rows))
            sketch = self._sketch
            if sketch.estimate(key) <= sketch.estimate(victim):
                self.stats.row_rejects += 1
                return
            del rows[victim]
            self.stats.row_evictions += 1
        rows[key] = tid
        self.stats.row_admits += 1
        self._reserve("row")

    def admit_leaf(
        self,
        lo: Optional[bytes],
        hi: Optional[bytes],
        leaf,
        epoch: int,
    ) -> None:
        """Record a descent's fence interval ``[lo, hi) -> leaf``.

        ``epoch`` must be the tree epoch captured *before* the descent:
        if the structure changed since, the entry lands under the old
        snapshot and the next probe's epoch check discards it.
        """
        if self._desc_capacity < 1:
            return
        if epoch != self._desc_epoch:
            self._clear_descent(epoch)
        lo_key = lo if lo is not None else _NEG_INF
        desc = self._desc
        if lo_key in desc:
            desc[lo_key] = (hi, leaf)
            desc.move_to_end(lo_key)
            return
        if len(desc) >= self._desc_capacity:
            victim, _ = desc.popitem(last=False)
            del self._desc_keys[bisect_left(self._desc_keys, victim)]
            self.stats.desc_evictions += 1
        desc[lo_key] = (hi, leaf)
        insort(self._desc_keys, lo_key)
        self.stats.desc_admits += 1
        self._reserve("descent")

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_row(self, key: bytes) -> None:
        """Drop a hot-row entry before its tuple id changes (write path)."""
        if self._rows.pop(key, None) is not None:
            self.stats.row_invalidations += 1

    def invalidate_key(self, key: bytes) -> None:
        """Drop every entry that could serve ``key``: the hot-row entry
        and the descent interval covering it.

        Used by the cluster router to price ``point_cold`` what-if
        probes on an un-resident key (see :mod:`repro.cluster.router`):
        the sampled key was just served — and therefore just admitted —
        so without this the probe would measure residency the key will
        not have when real cold traffic arrives.
        """
        self.invalidate_row(key)
        keys = self._desc_keys
        i = bisect_right(keys, key) - 1
        if i >= 0:
            lo = keys[i]
            hi, _leaf = self._desc[lo]
            if hi is None or key < hi:
                del self._desc[lo]
                del keys[i]
                self.stats.desc_invalidations += 1

    def _clear_descent(self, epoch: int) -> None:
        if self._desc:
            self.stats.desc_invalidations += len(self._desc)
            self.stats.epoch_clears += 1
            self._desc.clear()
            self._desc_keys.clear()
        self._desc_epoch = epoch

    def clear(self) -> None:
        """Drop every entry (bulk load / rebuild); keeps reservations."""
        if self._rows:
            self.stats.row_invalidations += len(self._rows)
            self._rows.clear()
        self._clear_descent(self._desc_epoch)
        self._sketch.clear()

    # ------------------------------------------------------------------
    # Budget (what the arbiter moves)
    # ------------------------------------------------------------------
    @property
    def budget_bytes(self) -> int:
        return self._budget_bytes

    @property
    def bytes_used(self) -> int:
        """Bytes currently charged to the allocator's ``cache`` category."""
        return self._cache_bytes

    def set_budget(self, budget_bytes: int) -> None:
        """Resize the cache budget; evicts LRU-first down to capacity."""
        self._budget_bytes = max(
            int(budget_bytes), self.config.min_budget_bytes
        )
        self._recompute_capacities()
        rows = self._rows
        while len(rows) > self._row_capacity:
            rows.popitem(last=False)
            self.stats.row_evictions += 1
        desc = self._desc
        while len(desc) > self._desc_capacity:
            victim, _ = desc.popitem(last=False)
            del self._desc_keys[bisect_left(self._desc_keys, victim)]
            self.stats.desc_evictions += 1
        self._trim_reservations()

    def _recompute_capacities(self) -> None:
        """Size the tiers so their *charged* bytes fit the budget.

        Capacities are quantized to whole slabs at the allocator's
        rounded slab size, so ``bytes_used`` can never exceed
        ``budget_bytes`` no matter how size-class rounding lands.
        """
        if self._allocator is None:
            return
        sketch_bytes = self._allocator.charged_size(self._sketch.size_bytes)
        usable = max(0, self._budget_bytes - sketch_bytes)
        row_budget = int(usable * self.config.row_fraction)
        self._row_capacity = self._fit(row_budget, self._row_entry_bytes)
        self._desc_capacity = self._fit(
            usable - row_budget, self._desc_entry_bytes
        )

    def _fit(self, tier_budget: int, entry_bytes: int) -> int:
        """Largest slab-aligned entry count whose charge fits the budget."""
        slab_charge = self._allocator.charged_size(
            _SLAB_ENTRIES * entry_bytes
        )
        return (tier_budget // slab_charge) * _SLAB_ENTRIES

    def _reserve(self, tier: str) -> None:
        """Grow the tier's slab reservation to cover its entry count."""
        if tier == "row":
            if len(self._rows) > self._row_reserved:
                self._cache_bytes += self._allocator.allocate(
                    _SLAB_ENTRIES * self._row_entry_bytes, "cache"
                )
                self._row_reserved += _SLAB_ENTRIES
        else:
            if len(self._desc) > self._desc_reserved:
                self._cache_bytes += self._allocator.allocate(
                    _SLAB_ENTRIES * self._desc_entry_bytes, "cache"
                )
                self._desc_reserved += _SLAB_ENTRIES

    def _trim_reservations(self) -> None:
        """Release slabs beyond the current entry counts (budget shrink)."""
        row_target = -(-len(self._rows) // _SLAB_ENTRIES) * _SLAB_ENTRIES
        while self._row_reserved > row_target:
            self._cache_bytes -= self._allocator.free(
                _SLAB_ENTRIES * self._row_entry_bytes, "cache"
            )
            self._row_reserved -= _SLAB_ENTRIES
        desc_target = -(-len(self._desc) // _SLAB_ENTRIES) * _SLAB_ENTRIES
        while self._desc_reserved > desc_target:
            self._cache_bytes -= self._allocator.free(
                _SLAB_ENTRIES * self._desc_entry_bytes, "cache"
            )
            self._desc_reserved -= _SLAB_ENTRIES

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def check_invariants(
        self, lookup: Optional[Callable[[bytes], Optional[int]]] = None
    ) -> None:
        """Raise ``ValueError`` naming the first broken invariant.

        With ``lookup`` (key -> tuple id, resolved without this cache),
        every row-tier entry must also hold the tuple id it returns.
        """
        rows, desc = self._rows, self._desc
        for holds, invariant in (
            (len(rows) <= self._row_capacity
             and len(desc) <= self._desc_capacity,
             "entries within tier capacities"),
            (self._desc_keys == sorted(desc),
             "descent fence keys are the sorted interval starts"),
            (all(hi is None or lo < hi for lo, (hi, _leaf) in desc.items()),
             "every descent interval has lo < hi or no hi"),
            (len(rows) <= self._row_reserved
             and len(desc) <= self._desc_reserved,
             "slab reservations cover the entries"),
            (self._row_reserved % _SLAB_ENTRIES == 0
             and self._desc_reserved % _SLAB_ENTRIES == 0,
             "slab reservations are whole slabs"),
            (self._cache_bytes <= self._budget_bytes,
             "bytes_used <= budget_bytes"),
            (lookup is None
             or all(lookup(key) == tid for key, tid in rows.items()),
             "row-tier tuple ids match the index"),
        ):
            if not holds:
                raise ValueError(
                    f"IndexCache {self.name!r} invariant broken: {invariant}"
                )
        self._sketch.check_invariants()

    def take_window(self) -> Tuple[int, int]:
        """(probes, hits) since the last call; resets the window.

        The arbiter samples this at each evaluation to derive the
        hit-rate-weighted demand for cache budget.
        """
        probes, hits = self._window_probes, self._window_hits
        self._window_probes = 0
        self._window_hits = 0
        return probes, hits

    @property
    def hit_rate(self) -> float:
        return self.stats.hit_rate

    def report(self) -> CacheReport:
        return CacheReport(
            name=self.name,
            budget_bytes=self._budget_bytes,
            bytes_used=self._cache_bytes,
            row_entries=len(self._rows),
            row_capacity=self._row_capacity,
            desc_entries=len(self._desc),
            desc_capacity=self._desc_capacity,
            hit_rate=self.stats.hit_rate,
            stats=self.stats,
        )

    def __repr__(self) -> str:
        return (
            f"IndexCache({self.name}, budget={self._budget_bytes}, "
            f"rows={len(self._rows)}/{self._row_capacity}, "
            f"descents={len(self._desc)}/{self._desc_capacity}, "
            f"hit_rate={self.stats.hit_rate:.3f})"
        )
