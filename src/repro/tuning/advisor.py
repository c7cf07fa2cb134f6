"""The online self-tuning advisor: closed-loop what-if tuning.

:class:`SelfTuningAdvisor` consumes online statistics — per-index
query-class windows fed from the database's read/write paths, plus the
structural churn its database's elasticity controllers count — and,
at every :class:`~repro.engine.arbiter.BudgetArbiter` tick boundary,
scores candidate reconfigurations by Extend-style what-if costing:
each candidate is priced by replaying a sampled recent op window
against the deterministic :class:`~repro.memory.cost_model.CostModel`
under ``measure()``, the whole probe is rebated, and a fixed
``advisor_fee_units`` is billed per candidate scored — the same honesty
discipline as the cluster router.  An action fires only when its
modeled payback over ``payback_window_ops`` beats its billed
application cost (applications are priced like bulk conversions: drain
plus rebuild, measured and never rebated), inside a per-target
hysteresis window.

Action families:

* **park_index** — an index with writes but no reads for
  ``idle_windows_to_park`` consecutive windows is replaced by an empty
  placeholder; its maintenance cost and memory vanish and its arbiter
  enrollment is withdrawn (the budget flows to its siblings).  The
  modeled debt is the deferred rebuild, priced per key on a scratch
  sample.
* **unpark_index** — read-triggered, not tick-gated: the first query
  against a parked index rebuilds it from the live table (measured and
  billed, like a bulk load) before the read runs.
* **swap_preset** — rebuild a plain elastic index under a different
  leaf-kind lattice preset when the what-if replay of the observed
  class mix says the candidate lattice is cheaper than the incumbent.
* **move_cache** — re-point an advisor-owned (non-adaptive) cache's
  budget along a candidate ladder, scored by a deterministic LRU
  simulation of the window's point-key sequence against a measured
  miss cost.
* **reshard** — halve or double a sharded index's shard count when the
  batched-read replay on a scratch sharded build says the new fan-out
  is cheaper.

The advisor never acts on :class:`~repro.cluster.ReplicaSet` indexes —
the cluster tier has its own advisor.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.cache import IndexCache
from repro.cluster import ReplicaSet
from repro.engine import ShardedIndex, build_sharded_index
from repro.exec import BatchExecutor
from repro.memory.allocator import TrackingAllocator
from repro.obs import (
    TuningActionEvent,
    TuningPaybackEvent,
    TuningProbeEvent,
)
from repro.registry import build_index
from repro.tuning.config import TuningConfig
from repro.tuning.stats import StatsCollector, WindowStats

#: Dummy tuple-id namespace for what-if write probes (far above any real
#: tid, so scratch updates never collide with the sampled base pairs).
_WRITE_TID_BASE = 1 << 40


class _SampleView:
    """Scratch table view backing what-if probes.

    Scratch indexes are built over sampled keys paired with dummy tuple
    ids; compact (blind-trie) and learned leaves resolve those tids
    through this view, charging the same indirect ``key_load`` units a
    real table would — so a candidate's what-if price includes the
    paper's indirection penalty honestly.
    """

    def __init__(self, cost_model) -> None:
        self._cost = cost_model
        self.keys: Dict[int, bytes] = {}

    def register(self, pairs: Sequence[Tuple[bytes, int]]) -> None:
        for key, tid in pairs:
            self.keys[tid] = key

    def load_key(self, tid: int) -> bytes:
        self._cost.key_loads(1)
        return self.keys[tid]

    def load_key_batched(self, tid: int) -> bytes:
        self._cost.key_loads_batched(1)
        return self.keys[tid]

    def load_keys_batched(self, tids: Sequence[int]) -> List[bytes]:
        """Per-key loads in one charge (a missing id's own included)."""
        keys = self.keys
        out: List[bytes] = []
        loaded = 0
        try:
            for tid in tids:
                loaded += 1
                out.append(keys[tid])
        finally:
            self._cost.key_loads_batched(loaded)
        return out

    def peek_key(self, tid: int) -> bytes:
        return self.keys[tid]


@dataclass
class TuningStats:
    """Lifetime counters of one advisor (see ``tools.tuning_summary``)."""

    ticks: int = 0
    windows_rolled: int = 0
    candidates_scored: int = 0
    probe_fee_units: float = 0.0
    actions_applied: int = 0
    actions_by_family: Dict[str, int] = field(default_factory=dict)
    apply_cost_units: float = 0.0
    modeled_saving_units: float = 0.0
    parked_writes_skipped: int = 0
    churn_events: int = 0


@dataclass
class _Candidate:
    """One fireable action, scored and gated, awaiting selection."""

    family: str
    label: str
    detail: str
    modeled_saving: float
    apply_cost: float
    items: int
    fire: Callable[[], float]
    order: int = 0

    @property
    def net_gain(self) -> float:
        return self.modeled_saving - self.apply_cost


class SelfTuningAdvisor:
    """Closed-loop tuner riding the budget arbiter's op clock.

    Constructed by :meth:`Database.enable_self_tuning
    <repro.db.database.Database.enable_self_tuning>`; never instantiate
    against a database without a budget arbiter — the advisor has no
    clock of its own (one shared ``_ops_since`` accumulator, by
    design).
    """

    def __init__(self, db, config: TuningConfig) -> None:
        config.validate()
        self.db = db
        self.config = config
        self.cost = db.cost
        self.arbiter = db.arbiter
        self.stats = TuningStats()
        self._collectors: Dict[Tuple[str, str], StatsCollector] = {}
        self._last_action_tick: Dict[str, int] = {}
        self._ticks = 0
        self._scored_this_tick = 0
        self._take_churn()  # churn from before the loop closed

    # ------------------------------------------------------------------
    # Observation plane (cost-silent, called from the database hot paths)
    # ------------------------------------------------------------------
    def _collector(self, table_name: str, index_name: str) -> StatsCollector:
        key = (table_name, index_name)
        collector = self._collectors.get(key)
        if collector is None:
            collector = StatsCollector(
                self.config.sample_size, self.config.history_windows
            )
            self._collectors[key] = collector
        return collector

    def observe_point(self, table: str, index: str, key: bytes) -> None:
        self._collector(table, index).observe_point(key)

    def observe_batch(
        self, table: str, index: str, keys: Sequence[bytes]
    ) -> None:
        self._collector(table, index).observe_batch(list(keys))

    def observe_scan(
        self, table: str, index: str, start_key: bytes, count: int
    ) -> None:
        self._collector(table, index).observe_scan(start_key, count)

    def observe_scan_batch(
        self, table: str, index: str, starts: Sequence[bytes], count: int
    ) -> None:
        collector = self._collector(table, index)
        for start in starts:
            collector.observe_scan(start, count)

    def observe_writes(
        self, table: str, index: str, keys: Sequence[bytes]
    ) -> None:
        collector = self._collector(table, index)
        for key in keys:
            collector.observe_write(key)

    def observe_deletes(
        self, table: str, index: str, keys: Sequence[bytes]
    ) -> None:
        collector = self._collector(table, index)
        for key in keys:
            collector.observe_delete(key)

    def observe_parked_write(self, table: str, index: str, n: int) -> None:
        self.stats.parked_writes_skipped += n

    def _take_churn(self) -> Tuple[int, float]:
        """Drain the churn counters of every enrolled controller.

        Retrain costs are the one honest drift signal a fresh-built
        scratch tree cannot reproduce (drift accumulates with table
        scale).  Callers discard what the advisor's own probes, applied
        actions and rebuilds caused: self-inflicted churn is not
        workload churn, and counting an apply's bulk retrains would
        immediately argue for undoing the action just taken.
        """
        events, units = 0, 0.0
        for controller in self.arbiter.controllers:
            n, cost = controller.take_churn()
            events += n
            units += cost
        return events, units

    # ------------------------------------------------------------------
    # The tick hook (registered with BudgetArbiter.add_interval_hook)
    # ------------------------------------------------------------------
    def on_interval(self) -> Optional[str]:
        """One advisor round: roll windows, score candidates, apply at
        most one action.  Returns the fired family name, if any."""
        self._ticks += 1
        self.stats.ticks += 1
        churn, retrain_cost = self._take_churn()
        self.stats.churn_events += churn
        closed: Dict[Tuple[str, str], WindowStats] = {}
        for key, collector in self._collectors.items():
            if churn:
                # Structural churn is pooled per tick: every window sees
                # the database-wide count.  Scoring re-gates on whether
                # the index's own lattice could even have produced the
                # cost.
                collector.observe_churn(churn, retrain_cost)
            closed[key] = collector.roll()
            self.stats.windows_rolled += 1
        self._scored_this_tick = 0
        candidates = self._gather_candidates(closed)
        self._take_churn()
        if self._scored_this_tick:
            fee = self.config.advisor_fee_units * self._scored_this_tick
            self.cost.fixed_ops(fee)
            self.stats.probe_fee_units += fee
            self.stats.candidates_scored += self._scored_this_tick
        if not candidates:
            return None
        best = max(candidates, key=lambda c: (c.net_gain, -c.order))
        if best.net_gain <= 0.0:
            return None
        cost_units = best.fire()
        self._take_churn()
        self._last_action_tick[best.label] = self._ticks
        self.stats.actions_applied += 1
        self.stats.actions_by_family[best.family] = (
            self.stats.actions_by_family.get(best.family, 0) + 1
        )
        self.stats.apply_cost_units += cost_units
        self.stats.modeled_saving_units += best.modeled_saving
        if obs.is_enabled():
            obs.emit(TuningPaybackEvent(
                action=best.family, target=best.label,
                modeled_saving_units=best.modeled_saving,
                apply_cost_units=best.apply_cost,
                payback_window_ops=self.config.payback_window_ops,
            ))
            obs.emit(TuningActionEvent(
                action=best.family, target=best.label, detail=best.detail,
                items=best.items, cost_units=cost_units,
            ))
        return best.family

    def _gather_candidates(self, closed) -> List[_Candidate]:
        cfg = self.config
        candidates: List[_Candidate] = []
        for table_name, dbtable in self.db.tables.items():
            for index_name, secondary in dbtable.indexes.items():
                if secondary.parked:
                    continue
                label = f"{table_name}.{index_name}"
                last = self._last_action_tick.get(label)
                if (
                    last is not None
                    and self._ticks - last < cfg.hysteresis_ticks
                ):
                    continue
                collector = self._collectors.get((table_name, index_name))
                if collector is None:
                    continue
                window = closed.get((table_name, index_name))
                index = secondary.index
                if isinstance(index, ReplicaSet):
                    continue  # the cluster tier has its own advisor
                if isinstance(index, ShardedIndex):
                    if cfg.enable_reshard and window is not None:
                        self._append(candidates, self._score_reshard(
                            secondary, label, window,
                        ))
                    continue
                if getattr(index, "controller", None) is None:
                    continue  # no elastic tuning surface
                if cfg.enable_index_park:
                    self._append(candidates, self._score_park(
                        secondary, label, collector,
                        dbtable.table.row_bytes,
                    ))
                if window is None or window.total_ops < cfg.min_window_ops:
                    continue
                if cfg.enable_preset_swap:
                    self._append(candidates, self._score_preset(
                        secondary, label, window,
                    ))
                if (
                    cfg.enable_cache_tuning
                    and getattr(index, "cache", None) is not None
                ):
                    self._append(candidates, self._score_cache(
                        secondary, label, window,
                    ))
        return candidates

    @staticmethod
    def _append(candidates: List[_Candidate],
                candidate: Optional[_Candidate]) -> None:
        if candidate is not None:
            candidate.order = len(candidates)
            candidates.append(candidate)

    # ------------------------------------------------------------------
    # Scratch what-if machinery (measure -> rebate -> fee)
    # ------------------------------------------------------------------
    @staticmethod
    def _scratch_pairs(keys: Sequence[bytes]) -> List[Tuple[bytes, int]]:
        distinct = sorted(set(keys))
        return [(key, i) for i, key in enumerate(distinct)]

    @staticmethod
    def _scaled_bound(bound: int, sample_n: int, items: int) -> int:
        """Shrink the incumbent's bound to the sample's proportional
        share, so scratch trees feel representative memory pressure."""
        if items <= 0:
            return max(4096, bound)
        return max(1024, bound * sample_n // items)

    def _build_scratch(self, secondary, bound: int,
                       overrides: Optional[Dict] = None):
        info = secondary.build_info
        kwargs = dict(info.get("index_kwargs", {}))
        if overrides:
            kwargs.update(overrides)
        view = _SampleView(self.cost)
        index = build_index(
            info.get("kind", "elastic"),
            table=view,
            allocator=TrackingAllocator(cost_model=self.cost),
            cost=self.cost,
            key_width=secondary.key_width,
            size_bound_bytes=bound,
            **kwargs,
        )
        return index, view

    def _mix_units(self, scratch, view, window: WindowStats,
                   avg_count: int,
                   write_probe_keys: Optional[List[bytes]] = None) -> float:
        """Mix-weighted per-op what-if units of ``scratch`` under the
        window's class shares (caller measures and rebates around this).

        ``write_probe_keys`` must be keys held out of the scratch build:
        re-inserting keys the scratch already contains prices a write
        that causes no structural drift — flattering exactly the leaf
        kinds (learned) whose real write cost *is* the drift.
        """
        total = window.total_ops
        if not total:
            return 0.0
        units = 0.0
        keys = window.point_keys
        # Scalar and batched point traffic are priced separately: the
        # batched read paths share descents (and learned leaves resolve
        # tids through the cheaper batched key loads), so a lattice that
        # wins under ``lookup_batch`` can lose under scalar ``lookup``.
        scalar_share = window.point_reads / total
        if scalar_share and keys:
            with self.cost.measure() as delta:
                for key in keys:
                    scratch.lookup(key)
            units += scalar_share * (delta.weighted_cost() / len(keys))
        batch_share = window.batch_reads / total
        if batch_share and keys:
            with self.cost.measure() as delta:
                scratch.lookup_batch(list(keys))
            units += batch_share * (delta.weighted_cost() / len(keys))
        scan_share = window.scan_reads / total
        starts = window.scan_starts
        if scan_share and starts:
            with self.cost.measure() as delta:
                for start in starts:
                    scratch.scan(start, avg_count)
            units += scan_share * (delta.weighted_cost() / len(starts))
        write_share = (window.write_ops + window.delete_ops) / total
        wkeys = (
            write_probe_keys
            if write_probe_keys is not None
            else window.write_keys
        )
        if write_share and wkeys:
            fresh = [
                (key, _WRITE_TID_BASE + i) for i, key in enumerate(wkeys)
            ]
            view.register(fresh)
            # Batched, like the real maintenance path.
            with self.cost.measure() as delta:
                BatchExecutor(scratch).insert_batch(fresh)
            units += write_share * (delta.weighted_cost() / len(fresh))
        return units

    # ------------------------------------------------------------------
    # park_index
    # ------------------------------------------------------------------
    def _score_park(self, secondary, label: str,
                    collector: StatsCollector,
                    row_bytes: int) -> Optional[_Candidate]:
        cfg = self.config
        recent = collector.recent(cfg.idle_windows_to_park)
        if len(recent) < cfg.idle_windows_to_park:
            return None
        if any(
            w.read_ops > 0 or (w.write_ops + w.delete_ops) < 1
            for w in recent
        ):
            return None
        writes_per_window = sum(
            w.write_ops + w.delete_ops for w in recent
        ) / len(recent)
        if writes_per_window < cfg.min_window_ops:
            return None
        # Empirical idleness prior: the payback horizon assumes the
        # index stays unread, so weight the modeled saving by how often
        # recorded history actually was read-free.  An index with daily
        # scans in most windows never builds the prior to get parked.
        history = collector.recent(cfg.history_windows)
        idle_fraction = sum(
            1 for w in history if w.read_ops == 0
        ) / len(history)
        sample: List[bytes] = []
        for w in recent:
            sample.extend(w.write_keys)
        pairs = self._scratch_pairs(sample)
        if len(pairs) < 4:
            return None
        base_pairs = pairs[::2]
        extra_pairs = pairs[1::2]
        index = secondary.index
        items = len(index)
        bound = index.controller.budget.soft_bound_bytes
        with self.cost.measure() as probe:
            with self.cost.measure() as build_delta:
                scratch, view = self._build_scratch(
                    secondary,
                    self._scaled_bound(bound, len(base_pairs), items),
                )
                view.register(pairs)
                scratch.insert_sorted_batch(base_pairs)
            # Maintenance is priced through the same batched executor
            # path the write paths use — scalar pricing would flatter
            # parking by ~2x on batch-loaded tables.
            with self.cost.measure() as write_delta:
                BatchExecutor(scratch).insert_batch(extra_pairs)
            # The eventual unpark sweeps every live row off the heap;
            # price that debt now, at today's item count.
            with self.cost.measure() as sweep_delta:
                self.cost.copy_bytes(items * row_bytes)
        self.cost.rebate_delta(probe)
        self._scored_this_tick += 1
        per_write = write_delta.weighted_cost() / len(extra_pairs)
        windows_per_horizon = (
            cfg.payback_window_ops / self.arbiter.interval_ops
        )
        modeled_saving = (
            per_write * writes_per_window * windows_per_horizon
            * idle_fraction
        )
        rebuild_estimate = (
            build_delta.weighted_cost() / max(1, len(base_pairs))
        ) * max(items, 1) + sweep_delta.weighted_cost()
        if obs.is_enabled():
            obs.emit(TuningProbeEvent(
                action="park_index", target=label, candidate="parked",
                cost_units=0.0, incumbent_units=per_write,
                sample_ops=len(pairs),
            ))
        if modeled_saving <= rebuild_estimate:
            return None
        return _Candidate(
            family="park_index", label=label, detail="parked",
            modeled_saving=modeled_saving, apply_cost=rebuild_estimate,
            items=items,
            fire=lambda: self._apply_park(secondary, label),
        )

    def _apply_park(self, secondary, label: str) -> float:
        index = secondary.index
        bound = index.controller.budget.soft_bound_bytes
        info = secondary.build_info
        info["size_bound_bytes"] = bound
        with self.cost.measure() as delta:
            placeholder, _ = self._build_scratch(secondary, bound)
        cost_units = delta.weighted_cost()
        if self.arbiter is not None and label in self.arbiter.shard_names:
            self.arbiter.unregister(label)
        # The placeholder keeps reporting surfaces (index_bytes, len)
        # alive; reads never touch it — the first query unparks first.
        secondary.index = placeholder
        secondary.parked = True
        return cost_units

    def unpark(self, dbtable, secondary) -> float:
        """Rebuild a parked index from the live table (billed), before
        the read that triggered it runs.  Read paths call this on the
        first query against a parked index — never tick-gated, because
        a query needs a correct index *now*."""
        table_name = dbtable.schema.name
        label = f"{table_name}.{secondary.name}"
        info = secondary.build_info
        bound = info.get("size_bound_bytes")
        kwargs = dict(info.get("index_kwargs", {}))
        store = dbtable.table
        with self.cost.measure() as delta:
            pairs = [
                (secondary.key_of_row(row), tid)
                for tid, row in store.iter_live()
            ]
            pairs.sort()
            # The table sweep reads every live row off the heap.
            self.cost.copy_bytes(len(pairs) * store.row_bytes)
            fresh = build_index(
                info.get("kind", "elastic"),
                table=secondary.view,
                allocator=TrackingAllocator(cost_model=self.cost),
                cost=self.cost,
                key_width=secondary.key_width,
                size_bound_bytes=bound,
                **kwargs,
            )
            if pairs:
                fresh.insert_sorted_batch(pairs)
            self._reattach_cache(fresh, info, label)
        fresh.controller.take_churn()  # the rebuild is not workload churn
        cost_units = delta.weighted_cost()
        secondary.index = fresh
        secondary.parked = False
        self.db._register_with_arbiter(table_name, secondary.name, fresh)
        self._last_action_tick[label] = self._ticks
        self.stats.actions_applied += 1
        self.stats.actions_by_family["unpark_index"] = (
            self.stats.actions_by_family.get("unpark_index", 0) + 1
        )
        self.stats.apply_cost_units += cost_units
        if obs.is_enabled():
            obs.emit(TuningActionEvent(
                action="unpark_index", target=label, detail="rebuilt",
                items=len(pairs), cost_units=cost_units,
            ))
        return cost_units

    def _reattach_cache(self, index, info: Dict, label: str,
                        budget: Optional[int] = None) -> None:
        cache_config = info.get("cache")
        if cache_config is None or not hasattr(index, "attach_cache"):
            return
        cache = IndexCache(cache_config, name=f"{label}.cache")
        index.attach_cache(cache)
        if budget is not None:
            cache.set_budget(budget)

    # ------------------------------------------------------------------
    # swap_preset
    # ------------------------------------------------------------------
    def _score_preset(self, secondary, label: str,
                      window: WindowStats) -> Optional[_Candidate]:
        cfg = self.config
        index = secondary.index
        items = len(index)
        if items <= 0:
            return None
        # Half the write sample is held out of the scratch build and
        # probe-inserted as genuinely fresh keys (see _mix_units).
        built_writes = window.write_keys[::2]
        sample_keys = (
            window.point_keys + window.scan_starts + built_writes
        )
        pairs = self._scratch_pairs(sample_keys)
        if len(pairs) < 8:
            return None
        built = {key for key, _ in pairs}
        holdout = [
            key for key in window.write_keys[1::2] if key not in built
        ] or window.write_keys
        bound = index.controller.budget.soft_bound_bytes
        scaled = self._scaled_bound(bound, len(pairs), items)
        avg_count = min(max(1, window.avg_scan_count()), len(pairs))

        def score(overrides: Optional[Dict]) -> Tuple[float, object]:
            with self.cost.measure() as outer:
                scratch, view = self._build_scratch(
                    secondary, scaled, overrides
                )
                view.register(pairs)
                scratch.insert_sorted_batch(pairs)
                per_op = self._mix_units(
                    scratch, view, window, avg_count,
                    write_probe_keys=holdout,
                )
            self.cost.rebate_delta(outer)
            self._scored_this_tick += 1
            return per_op, scratch

        incumbent_units, incumbent_scratch = score(None)
        if incumbent_units <= 0.0:
            return None
        # Observed structural-churn surcharge: a fresh-built scratch has
        # no drift, so it systematically underprices what retrains cost
        # the incumbent at full table scale.  The retrain units the
        # controllers counted in the closed window are the actual bill —
        # added only when this index's lattice contains learned leaves,
        # since nothing else can retrain (the pooled per-tick churn may
        # include siblings' events otherwise).
        kinds = secondary.build_info.get("index_kwargs", {}).get(
            "leaf_kinds", ()
        )
        if "learned" in kinds and window.retrain_cost_units:
            incumbent_units += window.retrain_cost_units / window.total_ops
        current = secondary.build_info.get("preset")
        best: Optional[Tuple[float, str, Dict]] = None
        for name, overrides in cfg.presets.items():
            if name == current:
                continue
            cand_units, _ = score(dict(overrides))
            if obs.is_enabled():
                obs.emit(TuningProbeEvent(
                    action="swap_preset", target=label, candidate=name,
                    cost_units=cand_units,
                    incumbent_units=incumbent_units,
                    sample_ops=len(pairs),
                ))
            if best is None or cand_units < best[0]:
                best = (cand_units, name, dict(overrides))
        if best is None:
            return None
        cand_units, name, overrides = best
        if cand_units >= incumbent_units * (1.0 - cfg.improvement_fraction):
            return None
        modeled_saving = (
            (incumbent_units - cand_units) * cfg.payback_window_ops
        )
        # The apply is an in-place lattice retarget, so its what-if
        # price is exactly that operation run on the incumbent scratch
        # (same relative pressure, hence a representative converted-leaf
        # fraction), scaled from sample to live items.  Rebated like
        # every probe; the real retarget is billed at fire time.
        with self.cost.measure() as retarget_delta:
            incumbent_scratch.controller.retarget_lattice(dict(overrides))
        self.cost.rebate_delta(retarget_delta)
        self._scored_this_tick += 1
        apply_estimate = (
            retarget_delta.weighted_cost() / len(pairs)
        ) * items
        if modeled_saving <= apply_estimate:
            return None
        return _Candidate(
            family="swap_preset", label=label, detail=name,
            modeled_saving=modeled_saving, apply_cost=apply_estimate,
            items=items,
            fire=lambda: self._apply_preset(secondary, label, name,
                                            overrides),
        )

    def _apply_preset(self, secondary, label: str, preset: str,
                      overrides: Dict) -> float:
        # In-place retarget: the conversion lattice is re-pointed on the
        # live controller and only leaves whose kind fell out of the new
        # lattice are rebuilt.  The index object survives, so its cache,
        # arbiter registration and tree structure all carry over — the
        # billed cost is just the stray-leaf migrations.
        index = secondary.index
        info = secondary.build_info
        kwargs = dict(info.get("index_kwargs", {}))
        kwargs.update(overrides)
        with self.cost.measure() as delta:
            index.controller.retarget_lattice(dict(overrides))
        cost_units = delta.weighted_cost()
        info["index_kwargs"] = kwargs
        info["preset"] = preset
        return cost_units

    # ------------------------------------------------------------------
    # move_cache
    # ------------------------------------------------------------------
    def _score_cache(self, secondary, label: str,
                     window: WindowStats) -> Optional[_Candidate]:
        cfg = self.config
        index = secondary.index
        cache = index.cache
        if cache is None or cache.config.adaptive:
            # Adaptive caches belong to the arbiter's hit-rate loop;
            # acting on them too would thrash one budget from two
            # controllers.
            return None
        keys_seq = window.point_keys
        point_traffic = window.point_reads + window.batch_reads
        if len(keys_seq) < 8 or point_traffic < cfg.min_window_ops:
            return None
        bound = index.controller.budget.soft_bound_bytes
        entry_bytes = secondary.key_width + 32

        def sim_hit_rate(budget: int) -> float:
            capacity = int(
                budget * cache.config.row_fraction
            ) // entry_bytes
            if capacity < 1:
                return 0.0
            lru: "OrderedDict[bytes, bool]" = OrderedDict()
            hits = 0
            for key in keys_seq:
                if key in lru:
                    hits += 1
                    lru.move_to_end(key)
                else:
                    if len(lru) >= capacity:
                        lru.popitem(last=False)
                    lru[key] = True
            return hits / len(keys_seq)

        # Measured miss cost: real lookups with the cache sidestepped,
        # rebated — the tree is probed, not polluted with admissions.
        distinct = list(dict.fromkeys(keys_seq))
        with self.cost.measure() as delta:
            index.cache = None
            try:
                for key in distinct:
                    index.lookup(key)
            finally:
                index.cache = cache
        self.cost.rebate_delta(delta)
        self._scored_this_tick += 1
        miss_units = delta.weighted_cost() / len(distinct)

        def per_probe(budget: int) -> float:
            return 0.1 + (1.0 - sim_hit_rate(budget)) * miss_units

        incumbent_budget = cache.budget_bytes
        incumbent_cost = per_probe(incumbent_budget)
        floor = cache.config.min_budget_bytes
        levels = sorted({
            max(floor, int(fraction * bound))
            for fraction in cfg.cache_fractions
        })
        best: Optional[Tuple[float, int]] = None
        for budget in levels:
            if budget == incumbent_budget or budget >= bound:
                continue
            cand_cost = per_probe(budget)
            self._scored_this_tick += 1
            if obs.is_enabled():
                obs.emit(TuningProbeEvent(
                    action="move_cache", target=label,
                    candidate=str(budget), cost_units=cand_cost,
                    incumbent_units=incumbent_cost,
                    sample_ops=len(keys_seq),
                ))
            if best is None or cand_cost < best[0]:
                best = (cand_cost, budget)
        if best is None:
            return None
        cand_cost, budget = best
        if cand_cost >= incumbent_cost * (1.0 - cfg.improvement_fraction):
            return None
        total = window.total_ops
        traffic = cfg.payback_window_ops * point_traffic / total
        modeled_saving = (incumbent_cost - cand_cost) * traffic
        if modeled_saving <= 0.0:
            return None
        return _Candidate(
            family="move_cache", label=label, detail=str(budget),
            modeled_saving=modeled_saving, apply_cost=0.0, items=0,
            fire=lambda: self._apply_cache(cache, budget),
        )

    @staticmethod
    def _apply_cache(cache, budget: int) -> float:
        cache.set_budget(budget)
        return 0.0

    # ------------------------------------------------------------------
    # reshard
    # ------------------------------------------------------------------
    def _score_reshard(self, secondary, label: str,
                       window: WindowStats) -> Optional[_Candidate]:
        cfg = self.config
        if window.total_ops < cfg.min_window_ops:
            return None
        index = secondary.index
        items = len(index)
        if items <= 0:
            return None
        point_keys = window.point_keys
        if len(point_keys) < 8:
            return None
        pairs = self._scratch_pairs(point_keys + window.write_keys)
        bounds = [
            shard.controller.budget.soft_bound_bytes
            for shard in index.shards
            if shard.controller is not None
        ]
        if not bounds:
            return None
        total_bound = sum(bounds)
        info = secondary.build_info
        n = index.n_shards
        shard_counts = sorted({
            m for m in (n // 2, n * 2)
            if 1 <= m <= cfg.max_shards and m != n
        })
        if not shard_counts:
            return None
        distinct_points = list(dict.fromkeys(point_keys))
        scaled = self._scaled_bound(total_bound, len(pairs), items)
        kwargs = dict(info.get("index_kwargs", {}))

        def score(m: int) -> Tuple[float, float]:
            view = _SampleView(self.cost)
            with self.cost.measure() as outer:
                with self.cost.measure() as build_delta:
                    scratch = build_sharded_index(
                        info.get("kind", "elastic"),
                        table=view,
                        cost=self.cost,
                        key_width=secondary.key_width,
                        n_shards=m,
                        partitioner=info.get("partitioner", "hash"),
                        size_bound_bytes=scaled,
                        name="tuning.scratch",
                        executor=None,
                        cache=None,
                        **kwargs,
                    )
                    view.register(pairs)
                    scratch.insert_sorted_batch(pairs)
                with self.cost.measure() as probe_delta:
                    scratch.lookup_batch(distinct_points)
            self.cost.rebate_delta(outer)
            self._scored_this_tick += 1
            per_op = probe_delta.weighted_cost() / len(distinct_points)
            return per_op, build_delta.weighted_cost()

        incumbent_units, _ = score(n)
        if incumbent_units <= 0.0:
            return None
        best: Optional[Tuple[float, int, float]] = None
        for m in shard_counts:
            cand_units, cand_build = score(m)
            if obs.is_enabled():
                obs.emit(TuningProbeEvent(
                    action="reshard", target=label, candidate=str(m),
                    cost_units=cand_units,
                    incumbent_units=incumbent_units,
                    sample_ops=len(distinct_points),
                ))
            if best is None or cand_units < best[0]:
                best = (cand_units, m, cand_build)
        if best is None:
            return None
        cand_units, m, cand_build = best
        if cand_units >= incumbent_units * (1.0 - cfg.improvement_fraction):
            return None
        total = window.total_ops
        traffic = cfg.payback_window_ops * (
            (window.point_reads + window.batch_reads) / total
        )
        modeled_saving = (incumbent_units - cand_units) * traffic
        apply_estimate = 2.0 * (cand_build / len(pairs)) * items
        if modeled_saving <= apply_estimate:
            return None
        return _Candidate(
            family="reshard", label=label, detail=str(m),
            modeled_saving=modeled_saving, apply_cost=apply_estimate,
            items=items,
            fire=lambda: self._apply_reshard(secondary, label, m,
                                             total_bound),
        )

    def _apply_reshard(self, secondary, label: str, m: int,
                       total_bound: int) -> float:
        index = secondary.index
        items = len(index)
        info = secondary.build_info
        kwargs = dict(info.get("index_kwargs", {}))
        table_name, _, index_name = label.partition(".")
        with self.cost.measure() as delta:
            drained = index.scan(b"", items) if items else []
            fresh = build_sharded_index(
                info.get("kind", "elastic"),
                table=secondary.view,
                cost=self.cost,
                key_width=secondary.key_width,
                n_shards=m,
                partitioner=info.get("partitioner", "hash"),
                size_bound_bytes=total_bound,
                name=label,
                executor=None,
                cache=info.get("cache"),
                **kwargs,
            )
            if drained:
                fresh.insert_sorted_batch(drained)
        cost_units = delta.weighted_cost()
        if self.arbiter is not None:
            registered = set(self.arbiter.shard_names)
            for shard in index.shards:
                if shard.name in registered:
                    self.arbiter.unregister(shard.name)
        secondary.index = fresh
        info["shards"] = m
        self.db._register_with_arbiter(table_name, index_name, fresh)
        return cost_units

    # ------------------------------------------------------------------
    # Reporting / teardown
    # ------------------------------------------------------------------
    def parked_indexes(self) -> List[str]:
        """Labels of every currently parked index."""
        return [
            f"{table_name}.{index_name}"
            for table_name, dbtable in self.db.tables.items()
            for index_name, secondary in dbtable.indexes.items()
            if secondary.parked
        ]

    def close(self) -> None:
        """Does nothing: the advisor holds no resource to release.  Kept
        so callers that tear an advisor down keep working."""
