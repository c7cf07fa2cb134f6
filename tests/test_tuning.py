"""Tests for the online self-tuning advisor (closed-loop tuning).

Unit-level coverage of the loop's contracts: typed configuration
validation, the park/unpark roundtrip through the public read/write
surface, in-place lattice retargeting, what-if payback gating, the
single shared op-boundary clock, the advisor-off zero-overhead
identity, and DDL replay of ``enable_self_tuning`` through crash
recovery, the churn signal the elasticity controllers count for the
advisor, the reshard family's rebuild (it keeps the index's backend and
cache, and never builds one shard), and the what-if probe contract on
a composed database (a round leaves only its fee; probes and digests
leave the content and the router's state as they were).  The
end-to-end dominance claim (self-tuned beats every static arm on the
five adversarial scenarios) lives in the ``BENCH_selftune.json``
regression gate, not here.
"""

import random

import pytest

from repro import obs
from repro.core.config import ElasticConfig
from repro.btree.stats import collect_stats
from repro.cache.cache import CacheConfig
from repro.db.database import Database
from repro.engine import ParallelShardExecutor
from repro.errors import TuningConfigError
from repro.keys.encoding import encode_u64
from repro.obs import CapacityChangeEvent, LeafConversionEvent, LeafRetrainEvent
from repro.table.table import RowSchema
from repro.tools import tuning_summary
from repro.tuning import SelfTuningAdvisor, TuningConfig
from repro.tuning.advisor import _Candidate
from repro.tuning.config import PRESET_LATTICES
from repro.wal import WalConfig, recover_database, state_digest


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def make_db(interval_ops=64, total_bytes=200_000, indexes=(("by_k", ("k",)),),
            index_kwargs=None, wal=None):
    """One-table database with a budget arbiter; rows are (k, v) u64."""
    db = Database(wal=wal)
    table = db.create_table(RowSchema("t", ("k", "v"), (8, 8)))
    db.enable_budget_arbiter(total_bytes, interval_ops=interval_ops)
    per_index = total_bytes // max(1, len(indexes))
    for name, columns in indexes:
        table.create_index(
            name, columns, kind="elastic", size_bound_bytes=per_index,
            **(index_kwargs or {}),
        )
    return db, table


def rows_u64(n, start=0):
    return [(start + i, (start + i) * 3 + 1) for i in range(n)]


# ----------------------------------------------------------------------
# TuningConfig validation
# ----------------------------------------------------------------------

class TestConfigValidation:
    def test_default_config_is_valid(self):
        TuningConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        dict(sample_size=4),
        dict(advisor_fee_units=-1.0),
        dict(hysteresis_ticks=-1),
        dict(payback_window_ops=0),
        dict(idle_windows_to_park=0),
        dict(min_window_ops=0),
        dict(improvement_fraction=1.0),
        dict(improvement_fraction=-0.1),
        dict(history_windows=1, idle_windows_to_park=3),
        dict(cache_fractions=()),
        dict(cache_fractions=(0.1, 1.5)),
        dict(presets={}),
        dict(max_shards=0),
        dict(enable_index_park=False, enable_preset_swap=False,
             enable_cache_tuning=False, enable_reshard=False),
    ])
    def test_impossible_configs_raise_typed_error(self, kwargs):
        with pytest.raises(TuningConfigError):
            TuningConfig(**kwargs).validate()

    def test_disarmed_families_skip_their_ladder_checks(self):
        # An empty cache ladder is fine when cache tuning is disarmed.
        TuningConfig(cache_fractions=(), enable_cache_tuning=False).validate()
        TuningConfig(presets={}, enable_preset_swap=False).validate()


# ----------------------------------------------------------------------
# enable_self_tuning wiring
# ----------------------------------------------------------------------

class TestEnableSelfTuning:
    def test_requires_budget_arbiter_first(self):
        db = Database()
        with pytest.raises(TuningConfigError):
            db.enable_self_tuning()

    def test_double_enable_raises(self):
        db, _ = make_db()
        db.enable_self_tuning()
        with pytest.raises(TuningConfigError):
            db.enable_self_tuning()

    def test_invalid_config_rejected_at_enable_time(self):
        db, _ = make_db()
        with pytest.raises(TuningConfigError):
            db.enable_self_tuning(TuningConfig(sample_size=2))
        assert db.advisor is None

    def test_enable_returns_advisor_and_sets_attribute(self):
        db, _ = make_db()
        advisor = db.enable_self_tuning()
        assert advisor is db.advisor
        assert isinstance(advisor, SelfTuningAdvisor)

    def test_advisor_rides_arbiter_clock_single_tick(self):
        """One arbiter interval == one advisor tick: the advisor has no
        op counter of its own, so enabling it never double-advances the
        shared ``_ops_since`` accumulator (the one-clock regression)."""
        db, table = make_db(interval_ops=64)
        advisor = db.enable_self_tuning()
        table.insert_batch(rows_u64(63))
        assert advisor.stats.ticks == 0
        table.insert_batch(rows_u64(1, start=63))
        assert advisor.stats.ticks == 1
        # Reads drive the same clock.
        for i in range(63):
            table.get("by_k", (i,))
        assert advisor.stats.ticks == 1
        table.get("by_k", (63,))
        assert advisor.stats.ticks == 2


# ----------------------------------------------------------------------
# park / unpark roundtrip
# ----------------------------------------------------------------------

def park_tuning_config():
    """Aggressive parking thresholds for small test tables."""
    return TuningConfig(
        payback_window_ops=1 << 16,
        idle_windows_to_park=2,
        history_windows=2,
        min_window_ops=8,
        hysteresis_ticks=0,
        enable_preset_swap=False,
        enable_cache_tuning=False,
        enable_reshard=False,
    )


def drive_park(db, table, rounds=8):
    """Write-only rounds on by_aux; by_k stays read-live."""
    n = 0
    for _ in range(rounds):
        table.insert_batch(rows_u64(48, start=1000 + n))
        n += 48
        for i in range(16):
            table.get("by_k", (1000 + (n - 48) + i,))
    return n


class TestParkUnpark:
    def test_park_then_read_unparks_with_correct_results(self):
        db, table = make_db(
            interval_ops=64,
            indexes=(("by_k", ("k",)), ("by_aux", ("v",))),
        )
        advisor = db.enable_self_tuning(park_tuning_config())
        table.insert_batch(rows_u64(256))
        drive_park(db, table)
        assert advisor.stats.actions_by_family.get("park_index", 0) >= 1
        assert "t.by_aux" in advisor.parked_indexes()
        # Writes against a parked index are skipped (and counted).
        skipped_before = advisor.stats.parked_writes_skipped
        table.insert_batch(rows_u64(32, start=5000))
        assert advisor.stats.parked_writes_skipped > skipped_before
        # The first read unparks: rebuilt from the live table, so it
        # serves rows inserted while parked.
        row = table.get("by_aux", (5003 * 3 + 1,))
        assert row == (5003, 5003 * 3 + 1)
        assert advisor.parked_indexes() == []
        assert advisor.stats.actions_by_family.get("unpark_index", 0) == 1

    def test_parked_index_still_validates_its_key(self):
        # A parked index skips writes, but its rebuild on unpark encodes
        # every live row: a row it cannot encode is rejected up front.
        db, table = make_db(
            interval_ops=64,
            indexes=(("by_k", ("k",)), ("by_aux", ("v",))),
        )
        advisor = db.enable_self_tuning(park_tuning_config())
        table.insert_batch(rows_u64(256))
        drive_park(db, table)
        assert "t.by_aux" in advisor.parked_indexes()
        rows = len(table)
        skipped = advisor.stats.parked_writes_skipped
        with pytest.raises(OverflowError):
            table.insert((7, -1))
        assert len(table) == rows
        assert advisor.stats.parked_writes_skipped == skipped
        row = table.get("by_aux", (1003 * 3 + 1,))
        assert row == (1003, 1003 * 3 + 1)
        assert advisor.parked_indexes() == []

    def test_read_live_index_never_parks(self):
        db, table = make_db(
            interval_ops=64,
            indexes=(("by_k", ("k",)), ("by_aux", ("v",))),
        )
        advisor = db.enable_self_tuning(park_tuning_config())
        table.insert_batch(rows_u64(256))
        # Interleave by_aux reads into every round: never idle.
        n = 0
        for _ in range(8):
            table.insert_batch(rows_u64(48, start=1000 + n))
            n += 48
            for i in range(8):
                key = 1000 + (n - 48) + i
                assert table.get("by_aux", (key * 3 + 1,)) is not None
        # by_k, never read in this variant, is fair game — but the
        # read-live by_aux must never be parked.
        assert "t.by_aux" not in advisor.parked_indexes()

    def test_park_respects_payback_gate(self):
        """A one-op payback horizon can never amortize a rebuild, so
        the park candidate must not fire."""
        config = park_tuning_config()
        config.payback_window_ops = 1
        db, table = make_db(
            interval_ops=64,
            indexes=(("by_k", ("k",)), ("by_aux", ("v",))),
        )
        advisor = db.enable_self_tuning(config)
        table.insert_batch(rows_u64(256))
        drive_park(db, table)
        assert advisor.stats.actions_by_family.get("park_index", 0) == 0
        assert advisor.parked_indexes() == []


# ----------------------------------------------------------------------
# In-place lattice retarget (the swap_preset apply primitive)
# ----------------------------------------------------------------------

class TestRetargetLattice:
    def make_pressured_elastic(self):
        from tests.test_elastic import fill, make_elastic
        from tests.conftest import U64Source

        source = U64Source()
        tree = make_elastic(source, size_bound=40_000)
        fill(tree, source, 5000, shuffle_seed=7)
        assert collect_stats(tree).compact_leaf_count > 0
        return source, tree

    def test_retarget_migrates_only_out_of_lattice_leaves(self):
        source, tree = self.make_pressured_elastic()
        before = collect_stats(tree)
        migrated = tree.controller.retarget_lattice(
            dict(PRESET_LATTICES["learned"])
        )
        assert migrated == before.compact_leaf_count
        after = collect_stats(tree)
        assert after.compact_leaf_count == 0
        assert after.learned_leaf_count >= migrated
        # Standard leaves and the tree shape are untouched.
        assert after.leaf_count == before.leaf_count
        tree.check_elastic_invariants()

    def test_retarget_to_superset_lattice_is_free(self):
        source, tree = self.make_pressured_elastic()
        migrated = tree.controller.retarget_lattice(
            {"leaf_kinds": ("standard", "compact", "learned")}
        )
        assert migrated == 0

    def test_lookups_correct_after_retarget(self):
        from repro.keys.encoding import encode_u64

        source, tree = self.make_pressured_elastic()
        tree.controller.retarget_lattice(dict(PRESET_LATTICES["learned"]))
        for v in (0, 1, 999, 2500, 4999):
            assert tree.lookup(encode_u64(v)) is not None


# ----------------------------------------------------------------------
# Probe accounting: fees billed, probes rebated
# ----------------------------------------------------------------------

class TestProbeAccounting:
    def test_fee_billed_per_candidate_scored(self):
        db, table = make_db(
            interval_ops=64,
            indexes=(("by_k", ("k",)), ("by_aux", ("v",))),
        )
        config = park_tuning_config()
        config.advisor_fee_units = 3.0
        advisor = db.enable_self_tuning(config)
        table.insert_batch(rows_u64(256))
        drive_park(db, table, rounds=4)
        assert advisor.stats.candidates_scored > 0
        assert advisor.stats.probe_fee_units == pytest.approx(
            3.0 * advisor.stats.candidates_scored
        )

    def test_summary_renders_loop_state(self):
        db, table = make_db(
            interval_ops=64,
            indexes=(("by_k", ("k",)), ("by_aux", ("v",))),
        )
        db.enable_self_tuning(park_tuning_config())
        table.insert_batch(rows_u64(256))
        drive_park(db, table)
        text = tuning_summary(db)
        assert "tuning:" in text and "candidates" in text
        assert "park_index" in text
        assert "parked:" in text

    def test_summary_without_advisor(self):
        db, _ = make_db()
        assert tuning_summary(db) == "tuning: (not enabled)"


# ----------------------------------------------------------------------
# Zero-overhead identity
# ----------------------------------------------------------------------

def run_untuned_workload(observed: bool) -> float:
    was_enabled = obs.is_enabled()
    obs.set_enabled(observed)
    try:
        db, table = make_db(interval_ops=64)
        with db.cost.measure() as delta:
            table.insert_batch(rows_u64(512))
            for i in range(0, 512, 7):
                table.get("by_k", (i,))
            table.scan("by_k", (100,), count=32)
        return delta.weighted_cost()
    finally:
        obs.set_enabled(was_enabled)


class TestZeroOverhead:
    def test_advisor_off_costs_unchanged_by_observability(self):
        """The advisor's observation plane is cost-model-silent: the
        same untuned workload prices identically with the obs bus on
        and off (the contract every BENCH baseline's enabled-replay
        check enforces end to end)."""
        assert run_untuned_workload(False) == run_untuned_workload(True)

    def test_untuned_runs_are_deterministic(self):
        assert run_untuned_workload(False) == run_untuned_workload(False)


# ----------------------------------------------------------------------
# Recovery replay of enable_self_tuning
# ----------------------------------------------------------------------

class TestRecoveryReplay:
    def test_self_tuning_survives_crash_recovery(self):
        # Reads are not WAL-logged, so recovery replays a write-only
        # stream; a trigger-happy config could legitimately tune the
        # replayed database differently than the original.  Starve the
        # decision gate (min_window_ops above any window) so both
        # advisors stay quiescent and the digests must match — this
        # test is about the DDL replay, not the tuning policy.
        config = park_tuning_config()
        config.min_window_ops = 1 << 20
        db, table = make_db(interval_ops=64, wal=WalConfig(group_size=8))
        db.enable_self_tuning(config)
        table.insert_batch(rows_u64(128))
        db.wal.flush()
        recovered, report = recover_database(db)
        assert recovered.advisor is not None
        assert recovered.arbiter is not None
        assert (
            recovered.advisor.config.payback_window_ops
            == db.advisor.config.payback_window_ops
        )
        assert state_digest(recovered) == state_digest(db)
        # The recovered loop is live: its advisor ticks on the arbiter
        # clock like the original's.
        rtable = recovered.tables["t"]
        rtable.insert_batch(rows_u64(64, start=10_000))
        assert recovered.advisor.stats.ticks >= 1


# ----------------------------------------------------------------------
# The churn signal: elasticity controllers count, the advisor pulls
# ----------------------------------------------------------------------

CHURN_EVENTS = (LeafConversionEvent, CapacityChangeEvent, LeafRetrainEvent)


def churn_published(action):
    """Run ``action`` with obs on; return the churn events it published."""
    events = []
    with obs.enabled():
        unsubscribe = obs.BUS.subscribe(events.append)
        try:
            action()
        finally:
            unsubscribe()
    return [e for e in events if isinstance(e, CHURN_EVENTS)]


def closed_window(advisor, index="by_k"):
    """The most recently closed stats window of ``t.<index>``."""
    return advisor._collectors[("t", index)].recent(1)[0]


def insert_and_read(table, n=2000):
    """Scalar inserts in shuffled key order, each read back: conversions
    under a tight bound (sorted batches mostly split instead), and the
    index stays read-live, so the advisor never parks it."""
    rows = rows_u64(n)
    random.Random(1).shuffle(rows)
    for row in rows:
        table.insert(row)
        table.get("by_k", row[:1])


class TestChurnSignal:
    @pytest.mark.parametrize("kinds,other", [
        (("standard", "compact"), ("standard", "learned")),
        (("standard", "learned"), ("standard", "compact")),
    ])
    def test_controller_churn_matches_the_bus(self, kinds, other):
        """Every conversion, capacity change, split-down half and
        learned-leaf retrain counts once, and the retrain units are the
        ones the retrain events carry."""
        from tests.conftest import U64Source
        from tests.test_elastic import fill, make_elastic

        source = U64Source()
        # Tight enough that learned leaves also split at the top rung.
        tree = make_elastic(source, size_bound=20_000, leaf_kinds=kinds,
                            expand_split_probability=0.5)
        controller = tree.controller

        def grow_shrink():
            fill(tree, source, 6000, shuffle_seed=3)
            controller.retarget_lattice({"leaf_kinds": other})
            controller.retarget_lattice({"leaf_kinds": kinds})
            for v in range(5400):
                tree.remove(encode_u64(v))
            rng = random.Random(2)
            for _ in range(3000):
                tree.lookup(encode_u64(rng.randrange(5400, 6000)))
            controller.bulk_convert(other[1])

        events = churn_published(grow_shrink)
        assert controller.stats.expansion_splits > 0
        retrains = [e for e in events if isinstance(e, LeafRetrainEvent)]
        assert bool(retrains) == ("learned" in kinds)
        assert controller.take_churn() == (
            len(events), sum(e.cost_units for e in retrains)
        )
        assert controller.take_churn() == (0, 0.0)

    def test_self_inflicted_churn_never_reaches_windows(self, monkeypatch):
        db, table = make_db(interval_ops=1 << 30, total_bytes=40_000)
        table.insert_batch(rows_u64(3000, start=10_000))
        controller = table.indexes["by_k"].index.controller
        assert controller.churn_events  # before the loop closed
        advisor = db.enable_self_tuning()
        workload = churn_published(lambda: insert_and_read(table))
        assert workload
        lattices = iter(["learned", "paper", "learned"])
        migrated = []

        def churn_live_index():
            preset = PRESET_LATTICES[next(lattices)]
            migrated.append(controller.retarget_lattice(dict(preset)))
            return 0.0

        def gather_then_fire(closed):
            churn_live_index()  # a probe of the live index
            return [_Candidate(
                family="swap_preset", label="t.by_k", detail="paper",
                modeled_saving=1.0, apply_cost=0.0, items=0,
                fire=churn_live_index,
            )]

        def gather_only(closed):
            churn_live_index()
            return []

        for gather, fired, window_churn in (
            (gather_then_fire, "swap_preset", len(workload)),
            (gather_only, None, 0),
            (lambda closed: [], None, 0),
        ):
            monkeypatch.setattr(advisor, "_gather_candidates", gather)
            assert advisor.on_interval() == fired
            assert closed_window(advisor).churn_events == window_churn
        assert len(migrated) == 3 and all(migrated)
        assert advisor.stats.churn_events == len(workload)

    def test_unpark_rebuild_is_not_workload_churn(self):
        db, table = make_db(
            interval_ops=64, total_bytes=40_000,
            indexes=(("by_k", ("k",)), ("by_aux", ("v",))),
        )
        advisor = db.enable_self_tuning(park_tuning_config())
        table.insert_batch(rows_u64(256))
        drive_park(db, table)
        assert advisor.parked_indexes() == ["t.by_aux"]
        rebuild = churn_published(
            lambda: table.get("by_aux", (7 * 3 + 1,))
        )
        assert advisor.parked_indexes() == []
        assert rebuild  # the rebuild converted leaves ...
        # ... and none of it is left for the next tick to count.
        assert table.indexes["by_aux"].index.controller.take_churn() == (
            0, 0.0
        )

    def test_self_tuning_leaves_observability_off(self):
        db, table = make_db(interval_ops=64, total_bytes=40_000)
        advisor = db.enable_self_tuning()
        assert not obs.is_enabled()
        published = []
        unsubscribe = obs.BUS.subscribe(published.append)
        try:
            insert_and_read(table)
        finally:
            unsubscribe()
        assert advisor.stats.ticks > 0 and advisor.stats.churn_events > 0
        assert not obs.is_enabled()
        assert published == []

    def test_churn_stays_with_its_database(self):
        busy_db, busy = make_db(interval_ops=64, total_bytes=40_000)
        idle_db, idle = make_db(interval_ops=64)
        busy_db.enable_self_tuning()
        idle_db.enable_self_tuning()
        idle.insert_batch(rows_u64(32))
        insert_and_read(busy)
        for i in range(64):
            idle.get("by_k", (i % 32,))
        assert busy_db.advisor.stats.churn_events > 0
        assert idle_db.advisor.stats.ticks >= 1
        assert idle_db.advisor.stats.churn_events == 0
        history = idle_db.advisor._collectors[("t", "by_k")].history
        assert history and all(w.churn_events == 0 for w in history)


# ----------------------------------------------------------------------
# reshard: the rebuild keeps the index's recipe
# ----------------------------------------------------------------------

def reshard_run(shards, parallel=False, cache=None):
    """A range-partitioned elastic index over 4,000 random 63-bit keys
    under a bound of 1.5x their STX footprint, with only the reshard
    family armed, read by 40 batches of 64 consecutive keys.  Returns
    ``(db, table, advisor, answered)``; ``answered`` is whether every
    batch returned the loaded rows."""
    rng = random.Random(0)
    keys = [rng.getrandbits(63) for _ in range(4000)]
    bound = int(1.5 * 31 * len(keys))
    db = Database()
    table = db.create_table(RowSchema("t", ("k", "v"), (8, 8)))
    table.create_index(
        "by_k", ("k",), kind="elastic", size_bound_bytes=bound,
        shards=shards, partitioner="range", parallel=parallel, cache=cache,
    )
    db.enable_budget_arbiter(bound, interval_ops=256)
    rows = [(key, i) for i, key in enumerate(keys)]
    table.insert_batch(rows)
    advisor = db.enable_self_tuning(TuningConfig(
        enable_index_park=False, enable_preset_swap=False,
        enable_cache_tuning=False, payback_window_ops=65536,
        max_shards=32,
    ))
    ordered = sorted(rows)
    answered = all(
        table.get_batch(
            "by_k", [(key,) for key, _ in ordered[start:start + 64]]
        ) == ordered[start:start + 64]
        for start in range(0, 40 * 64, 64)
    )
    return db, table, advisor, answered


class TestReshard:
    @pytest.mark.parametrize("cache", [
        None, CacheConfig(budget_bytes=32 * 1024),
    ], ids=["plain", "cached"])
    def test_doubling_keeps_backend_and_cache(self, cache):
        db, table, advisor, answered = reshard_run(16, parallel=2,
                                                   cache=cache)
        index = table.indexes["by_k"].index
        assert answered
        assert advisor.stats.actions_by_family == {"reshard": 1}
        assert index.n_shards == 32
        assert isinstance(index.executor, ParallelShardExecutor)
        assert index.executor.workers == 2
        assert sorted(db.arbiter.shard_names) == sorted(
            shard.name for shard in index.shards)
        if cache is not None:
            assert all(shard.cache is not None for shard in index.shards)
            assert {n: id(c) for n, c in db.arbiter._caches.items()} == {
                shard.name: id(shard.cache) for shard in index.shards}

    def test_never_halves_below_two_shards(self):
        _, table, advisor, answered = reshard_run(2)
        assert answered
        assert table.indexes["by_k"].index.n_shards == 2
        assert "reshard" not in advisor.stats.actions_by_family


# ----------------------------------------------------------------------
# What-if probe contract on a composed database
# ----------------------------------------------------------------------

def ledger_growth(cost, before):
    return {
        category: count - before.get(category, 0)
        for category, count in cost.counts.items()
        if count != before.get(category, 0)
    }


def router_state(router):
    return (
        {cls: list(keys) for cls, keys in router._samples.items()},
        router.class_mix(), router._ops_since_score,
        router._ops_since_beat,
    )


class TestProbeContract:
    """Replicated and sharded ``by_id``, cached ``by_cust``, WAL, the
    budget arbiter and self-tuning: the composed mix of
    ``tests/test_hot_path_accounting.py``."""

    @pytest.fixture(scope="class")
    def composed(self):
        from tests.test_hot_path_accounting import _cluster_mix

        return _cluster_mix()

    def test_idle_tick_leaves_only_the_fee(self, composed):
        db, _ = composed
        advisor = db.advisor
        digest = state_digest(db)
        before = dict(db.cost.counts)
        scored = advisor.stats.candidates_scored
        assert advisor.on_interval() is None
        scored = advisor.stats.candidates_scored - scored
        assert scored > 0
        fee = advisor.config.advisor_fee_units
        assert ledger_growth(db.cost, before) == {
            "fixed_op_milli": int(1000 * fee * scored)}
        assert state_digest(db) == digest

    def test_score_round_leaves_only_the_fee(self, composed):
        db, table = composed
        router = table.indexes["by_id"].index.router
        digest = state_digest(db)
        before = dict(db.cost.counts)
        pairs = len(router.score_round())
        assert pairs > 0
        fee = router.config.advisor_fee_units
        assert ledger_growth(db.cost, before) == {
            "fixed_op_milli": int(1000 * fee * pairs)}
        assert state_digest(db) == digest

    def test_digest_leaves_the_router_alone(self, composed):
        db, table = composed
        router = table.indexes["by_id"].index.router
        state = router_state(router)
        state_digest(db)
        assert router_state(router) == state
