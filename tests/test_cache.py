"""Tests of the budget-aware adaptive cache (:mod:`repro.cache`).

Covers the frequency sketch, config validation, the two cache tiers
(row and leaf-descent), epoch invalidation against structural change,
budget accounting through the tracking allocator, arbiter-driven
resizing, observability, and — the load-bearing property — that a
cached index returns byte-identical results to an uncached one under
mixed churn, sharded or not.
"""

import random
from dataclasses import asdict

import pytest

from repro import obs
from repro.bench.harness import make_u64_environment
from repro.cache import CacheConfig, FrequencySketch, IndexCache
from repro.cache.sketch import _MASK64, _ROW_SEEDS
from repro.db.database import Database
from repro.db.metrics import layer_metrics
from repro.engine.arbiter import BudgetArbiter
from repro.errors import CacheConfigError, ShardConfigError
from repro.keys.encoding import encode_u64
from repro.memory.allocator import TrackingAllocator
from repro.memory.cost_model import CostModel
from repro.table.table import RowSchema

from tests.conftest import U64Source
from tests.test_elastic import fill, make_elastic


def make_bound_cache(budget=8192, **config_kwargs):
    """An IndexCache bound to a fresh allocator/cost pair."""
    config_kwargs.setdefault("sketch_width", 64)
    cost = CostModel()
    alloc = TrackingAllocator(cost_model=cost)
    cache = IndexCache(CacheConfig(budget_bytes=budget, **config_kwargs))
    cache.bind(alloc, cost, key_width=8)
    return cache, alloc, cost


# ----------------------------------------------------------------------
# Frequency sketch
# ----------------------------------------------------------------------
class TestFrequencySketch:
    def test_deterministic_across_instances(self):
        a = FrequencySketch(width=128, depth=4)
        b = FrequencySketch(width=128, depth=4)
        keys = [encode_u64(v) for v in range(50)]
        for key in keys:
            for _ in range(3):
                a.record(key)
                b.record(key)
        assert [a.estimate(k) for k in keys] == [b.estimate(k) for k in keys]

    def test_estimates_track_frequency(self):
        sketch = FrequencySketch(width=1024, depth=4)
        hot, cold = encode_u64(1), encode_u64(2)
        for _ in range(9):
            sketch.record(hot)
        sketch.record(cold)
        assert sketch.estimate(hot) >= 9
        assert sketch.estimate(hot) > sketch.estimate(cold)

    def test_counters_saturate_at_15(self):
        sketch = FrequencySketch(width=64, depth=2)
        key = encode_u64(7)
        for _ in range(100):
            sketch.record(key)
        assert sketch.estimate(key) == 15

    def test_aging_halves_counts(self):
        sketch = FrequencySketch(width=256, depth=4, sample_size=16)
        key = encode_u64(3)
        for _ in range(10):
            sketch.record(key)
        before = sketch.estimate(key)
        # Push the sample count to the aging threshold with other keys.
        for v in range(100, 106):
            sketch.record(encode_u64(v))
        assert sketch.estimate(key) <= (before + 1) // 2 + 1
        assert sketch.estimate(key) < before

    def test_width_rounds_to_power_of_two(self):
        assert FrequencySketch(width=100).width == 128
        assert FrequencySketch(width=64).width == 64

    def test_clear(self):
        sketch = FrequencySketch(width=64)
        key = encode_u64(5)
        sketch.record(key)
        sketch.clear()
        assert sketch.estimate(key) == 0


class _IndexListSketch(FrequencySketch):
    """``record`` and ``estimate`` as they were before the lane table: a
    fresh list of row indexes per key, with the shift derived here from
    the width.  The reference the lanes must reproduce byte for byte."""

    def _indexes(self, key):
        h = int.from_bytes(key, "big")
        shift = 64 - self.width.bit_length() + 1
        return [
            ((h * _ROW_SEEDS[row]) & _MASK64) >> shift
            for row in range(self.depth)
        ]

    def record(self, key):
        for row, idx in zip(self._rows, self._indexes(key)):
            if row[idx] < 15:
                row[idx] += 1
        self._samples += 1
        if self._samples >= self.sample_size:
            self._age()

    def estimate(self, key):
        return min(
            row[idx] for row, idx in zip(self._rows, self._indexes(key))
        )


@pytest.mark.parametrize("width", [2, 64, 1024])
@pytest.mark.parametrize("depth", range(1, 7))
def test_lanes_match_the_index_lists(width, depth):
    rng = random.Random(f"lanes:{width}:{depth}")
    keys = [rng.randbytes(rng.randint(1, 40)) for _ in range(24)]
    # 40 recordings to the first aging pass, then one every 20.
    lanes = FrequencySketch(width=width, depth=depth, sample_size=40)
    lists = _IndexListSketch(width=width, depth=depth, sample_size=40)
    for _phase in ("fresh", "after clear"):
        for _ in range(200):
            key = rng.choice(keys[:4] if rng.random() < 0.5 else keys)
            lanes.record(key)
            lists.record(key)
            assert list(map(bytes, lanes._rows)) == \
                list(map(bytes, lists._rows))
            assert lanes._samples == lists._samples
            probe = rng.choice(keys)
            assert lanes.estimate(key) == lists.estimate(key)
            assert lanes.estimate(probe) == lists.estimate(probe)
        assert [lanes.estimate(k) for k in keys] == \
            [lists.estimate(k) for k in keys]
        lanes.clear()
        lists.clear()
        assert list(map(bytes, lanes._rows)) == [bytes(lanes.width)] * depth
        assert [lanes.estimate(k) for k in keys] == [0] * len(keys)


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestCacheConfig:
    def test_defaults_validate(self):
        CacheConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"budget_bytes": 0},
        {"budget_bytes": -1},
        {"row_fraction": 0.0},
        {"row_fraction": 1.0},
        {"sketch_width": 0},
        {"sketch_depth": 0},
        {"sketch_sample_size": 0},
        {"min_budget_bytes": 0},
        {"max_bound_fraction": 0.0},
        {"max_bound_fraction": 1.5},
        {"demand_gain": 0.0},
    ])
    def test_invalid_fields_raise(self, kwargs):
        with pytest.raises(CacheConfigError):
            CacheConfig(**kwargs).validate()

    def test_budget_must_fit_under_bound(self):
        config = CacheConfig(budget_bytes=1 << 20)
        with pytest.raises(CacheConfigError):
            config.validate(size_bound_bytes=1 << 20)
        config.validate(size_bound_bytes=1 << 21)

    def test_cache_error_is_repro_error(self):
        from repro.errors import ReproError

        assert issubclass(CacheConfigError, ReproError)
        assert issubclass(CacheConfigError, ValueError)


# ----------------------------------------------------------------------
# Row tier
# ----------------------------------------------------------------------
class TestRowTier:
    def test_probe_miss_then_hit(self):
        cache, _, cost = make_bound_cache()
        key = encode_u64(1)
        assert cache.probe_row(key) is None
        cache.admit_row(key, 42)
        assert cache.probe_row(key) == 42
        assert cache.stats.row_hits == 1
        assert cache.stats.row_misses == 1
        assert cost.counts.get("cache_hit") == 2  # every probe charges

    def test_probe_row_batch_matches_per_key_loop(self):
        rng = random.Random(5)
        keys = [encode_u64(rng.randrange(48)) for _ in range(200)]

        def run(batched):
            # A small sketch sample ages the counters mid-batch.
            cache, _, cost = make_bound_cache(
                budget=4096, sketch_sample_size=64,
            )
            for v in range(0, 48, 3):
                cache.admit_row(encode_u64(v), v)
            cost.reset()
            if batched:
                got = cache.probe_row_batch(keys)
            else:
                got = [cache.probe_row(key) for key in keys]
            sketch = cache._sketch
            return (
                got, list(cost.counts.items()), asdict(cache.stats),
                [bytes(row) for row in sketch._rows], sketch._samples,
                list(cache._rows.items()), cache.take_window(),
            )

        batched, looped = run(batched=True), run(batched=False)
        assert batched == looped
        got, counts, stats, *_ = batched
        assert None in got and any(tid is not None for tid in got)
        assert counts == [("cache_hit", len(keys))]
        assert stats["row_hits"] + stats["row_misses"] == len(keys)

    def test_probe_row_batch_of_nothing_charges_nothing(self):
        cache, _, cost = make_bound_cache()
        cost.reset()
        assert cache.probe_row_batch([]) == []
        assert cost.counts == {}
        assert cache.take_window() == (0, 0)

    def test_tid_zero_is_a_hit(self):
        cache, _, _ = make_bound_cache()
        key = encode_u64(9)
        cache.admit_row(key, 0)
        assert cache.probe_row(key) == 0

    def test_invalidate_row(self):
        cache, _, _ = make_bound_cache()
        key = encode_u64(1)
        cache.admit_row(key, 42)
        cache.invalidate_row(key)
        assert cache.probe_row(key) is None
        assert cache.stats.row_invalidations == 1

    def test_admit_updates_in_place(self):
        cache, _, _ = make_bound_cache()
        key = encode_u64(1)
        cache.admit_row(key, 1)
        cache.admit_row(key, 2)
        assert cache.probe_row(key) == 2
        assert cache.report().row_entries == 1

    def test_tinylfu_rejects_cold_admits_hot(self):
        cache, _, _ = make_bound_cache(budget=4096)
        capacity = cache.report().row_capacity
        for v in range(capacity):
            cache.admit_row(encode_u64(v), v)
        assert cache.report().row_entries == capacity

        # A never-probed newcomer cannot displace anything.
        cold = encode_u64(10_000)
        cache.admit_row(cold, 1)
        assert cache.stats.row_rejects == 1
        assert cache.probe_row(cold) is None

        # A frequently probed newcomer displaces the LRU victim.
        hot = encode_u64(10_001)
        for _ in range(4):
            cache.probe_row(hot)  # misses, but the sketch learns it
        cache.admit_row(hot, 7)
        assert cache.probe_row(hot) == 7
        assert cache.stats.row_evictions == 1
        assert cache.report().row_entries == capacity

    def test_eviction_takes_least_recently_used(self):
        cache, _, _ = make_bound_cache(budget=4096)
        capacity = cache.report().row_capacity
        for v in range(capacity):
            cache.admit_row(encode_u64(v), v)
        # Touch everything except key 0, making it the LRU entry.
        for v in range(1, capacity):
            assert cache.probe_row(encode_u64(v)) == v
        hot = encode_u64(77_777)
        for _ in range(4):
            cache.probe_row(hot)
        cache.admit_row(hot, 1)
        assert cache.probe_row(encode_u64(0)) is None
        assert cache.probe_row(encode_u64(1)) == 1


# ----------------------------------------------------------------------
# Descent tier and epochs
# ----------------------------------------------------------------------
class TestDescentTier:
    def test_interval_probe(self):
        cache, _, _ = make_bound_cache()
        leaf = object()
        cache.admit_leaf(encode_u64(10), encode_u64(20), leaf, epoch=0)
        assert cache.probe_leaf(encode_u64(10), 0) is leaf
        assert cache.probe_leaf(encode_u64(15), 0) is leaf
        assert cache.probe_leaf(encode_u64(20), 0) is None  # hi exclusive
        assert cache.probe_leaf(encode_u64(5), 0) is None

    def test_unbounded_edges(self):
        cache, _, _ = make_bound_cache()
        first, last = object(), object()
        cache.admit_leaf(None, encode_u64(10), first, epoch=0)
        cache.admit_leaf(encode_u64(90), None, last, epoch=0)
        assert cache.probe_leaf(encode_u64(0), 0) is first
        assert cache.probe_leaf(encode_u64(10**6), 0) is last

    def test_epoch_mismatch_clears_tier(self):
        cache, _, _ = make_bound_cache()
        cache.admit_leaf(encode_u64(10), encode_u64(20), object(), epoch=0)
        assert cache.probe_leaf(encode_u64(15), 1) is None
        assert cache.stats.epoch_clears == 1
        assert cache.report().desc_entries == 0

    def test_stale_epoch_admission_cannot_serve(self):
        cache, _, _ = make_bound_cache()
        stale = object()
        # Admitted under epoch 0, probed under epoch 1: cleared, and the
        # fresh entry admitted under 1 then serves.
        cache.admit_leaf(encode_u64(10), encode_u64(20), stale, epoch=0)
        assert cache.probe_leaf(encode_u64(15), 1) is None
        fresh = object()
        cache.admit_leaf(encode_u64(10), encode_u64(20), fresh, epoch=1)
        assert cache.probe_leaf(encode_u64(15), 1) is fresh


# ----------------------------------------------------------------------
# Budget accounting
# ----------------------------------------------------------------------
class TestBudgetAccounting:
    def test_entries_charge_the_cache_category(self):
        cache, alloc, _ = make_bound_cache()
        sketch_bytes = alloc.bytes_in("cache")
        assert sketch_bytes > 0  # the sketch itself is charged at bind
        for v in range(64):
            cache.admit_row(encode_u64(v), v)
        assert alloc.bytes_in("cache") > sketch_bytes
        assert cache.bytes_used == alloc.bytes_in("cache")

    def test_set_budget_down_evicts(self):
        cache, alloc, _ = make_bound_cache(budget=16384)
        for v in range(cache.report().row_capacity):
            cache.admit_row(encode_u64(v), v)
        used = cache.bytes_used
        cache.set_budget(4096)
        assert cache.budget_bytes == 4096
        assert cache.report().row_entries <= cache.report().row_capacity
        assert cache.bytes_used <= used
        assert cache.bytes_used <= 4096

    def test_set_budget_floors_at_min(self):
        cache, _, _ = make_bound_cache(budget=16384, min_budget_bytes=8192)
        cache.set_budget(100)
        assert cache.budget_bytes == 8192

    def test_clear_keeps_reservations(self):
        cache, alloc, _ = make_bound_cache()
        for v in range(8):
            cache.admit_row(encode_u64(v), v)
        held = alloc.bytes_in("cache")
        cache.clear()
        assert cache.report().row_entries == 0
        assert alloc.bytes_in("cache") == held  # arena retained

    def test_double_bind_raises(self):
        cache, alloc, cost = make_bound_cache()
        with pytest.raises(CacheConfigError):
            cache.bind(alloc, cost, key_width=8)

    def test_take_window_resets(self):
        cache, _, _ = make_bound_cache()
        key = encode_u64(1)
        cache.admit_row(key, 1)
        cache.probe_row(key)
        cache.probe_row(encode_u64(2))
        assert cache.take_window() == (2, 1)
        assert cache.take_window() == (0, 0)


# ----------------------------------------------------------------------
# Tree integration: correctness under churn
# ----------------------------------------------------------------------
def attach_small_cache(index, budget=32 * 1024):
    cache = IndexCache(CacheConfig(budget_bytes=budget, sketch_width=256))
    index.attach_cache(cache)
    return cache


class TestTreeIntegration:
    def run_differential(self, builder, n=3000, seed=11):
        """Identical mixed churn against cached and uncached twins."""
        plain_env, plain = builder(), None
        cached_env = builder()
        cache = attach_small_cache(cached_env.index)
        rng = random.Random(seed)
        live = []
        tid_plain, tid_cached = {}, {}

        def add(env, tids, v):
            tid = env.table.insert_row(v)
            env.index.insert(encode_u64(v), tid)
            tids[v] = tid

        for step in range(6 * n):
            action = rng.random()
            if action < 0.4 or not live:
                v = rng.getrandbits(24)
                if v in tid_plain:
                    continue
                add(plain_env, tid_plain, v)
                add(cached_env, tid_cached, v)
                live.append(v)
            elif action < 0.5:
                v = live.pop(rng.randrange(len(live)))
                assert plain_env.index.remove(encode_u64(v)) is not None
                assert cached_env.index.remove(encode_u64(v)) is not None
                del tid_plain[v], tid_cached[v]
            else:
                # Skewed probes: mostly hot prefix, some misses.
                if rng.random() < 0.8:
                    v = live[rng.randrange(min(len(live), 50))]
                else:
                    v = rng.getrandbits(24)
                got_p = plain_env.index.lookup(encode_u64(v))
                got_c = cached_env.index.lookup(encode_u64(v))
                assert (got_p is None) == (got_c is None), v
                assert got_p == tid_plain.get(v), v
                assert got_c == tid_cached.get(v), v
        assert cache.stats.hits > 0
        return cache

    def test_btree_differential_churn(self):
        self.run_differential(
            lambda: make_u64_environment("stx"), n=1500
        )

    def test_elastic_differential_churn_under_pressure(self):
        def builder():
            source = U64Source()
            tree = make_elastic(source, size_bound=40_000)
            class Env:  # match the IndexEnv attribute surface
                index = tree
                table = source.table
            return Env()

        cache = self.run_differential(builder, n=2500, seed=7)
        # Pressure must actually have produced structural churn for the
        # epoch machinery to have been exercised.
        assert cache.stats.epoch_clears > 0

    def test_batch_lookup_differential(self):
        # Elastic under pressure: compact leaves make batch lookups
        # admit rows, so the second pass over the same batch hits.
        plain_src, cached_src = U64Source(), U64Source()
        plain = make_elastic(plain_src, size_bound=40_000)
        cached = make_elastic(cached_src, size_bound=40_000)
        attach_small_cache(cached)
        rng = random.Random(3)
        values = rng.sample(range(1 << 24), 4000)
        for v in values:
            plain.insert(*plain_src.add(v))
            cached.insert(*cached_src.add(v))
        zipf_like = values[:40] * 20 + rng.sample(values, 1000)
        rng.shuffle(zipf_like)
        keys = [encode_u64(v) for v in zipf_like]
        for _ in range(2):
            assert cached.lookup_batch(keys) == plain.lookup_batch(keys)
        assert cached.cache.stats.hits > 0

    def test_structural_epoch_bumps_on_split(self):
        env = make_u64_environment("stx")
        before = env.index.structural_epoch
        for v in range(2000):
            tid = env.table.insert_row(v)
            env.index.insert(encode_u64(v), tid)
        assert env.index.structural_epoch > before

    def test_zero_overhead_when_cache_off(self):
        env = make_u64_environment("stx")
        rng = random.Random(5)
        for v in range(2000):
            tid = env.table.insert_row(v)
            env.index.insert(encode_u64(v), tid)
        for _ in range(2000):
            env.index.lookup(encode_u64(rng.randrange(2500)))
        assert "cache_hit" not in env.cost.counts
        assert env.allocator.bytes_in("cache") == 0


# ----------------------------------------------------------------------
# Database / sharded differential
# ----------------------------------------------------------------------
class TestDatabaseIntegration:
    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("partitioner", ["hash", "range"])
    def test_sharded_differential(self, shards, partitioner):
        def make(cache):
            db = Database()
            t = db.create_table(
                RowSchema("ev", ("k", "v"), (8, 8), ("u64", "u64"))
            )
            t.create_index(
                "by_k", ("k",), kind="elastic",
                size_bound_bytes=60_000, shards=shards,
                partitioner=partitioner,
                cache=cache,
            )
            return t

        plain = make(None)
        cached = make(CacheConfig(budget_bytes=16 * 1024, sketch_width=256))
        rng = random.Random(13)
        values = rng.sample(range(1 << 30), 3000)
        for v in values:
            plain.insert((v, v ^ 0xFF))
            cached.insert((v, v ^ 0xFF))
        probes = [(values[i % 64],) for i in range(800)]
        probes += [(rng.getrandbits(30),) for _ in range(200)]
        for probe in probes:
            assert cached.get("by_k", probe) == plain.get("by_k", probe)
        assert cached.get_batch("by_k", probes) == plain.get_batch(
            "by_k", probes
        )
        starts = [(values[i],) for i in range(0, 512, 8)]
        assert cached.scan_batch("by_k", starts, count=16) == \
            plain.scan_batch("by_k", starts, count=16)

    def test_create_index_rejects_uncacheable_kind(self):
        db = Database()
        t = db.create_table(RowSchema("t", ("k", "v"), (8, 8)))
        with pytest.raises(CacheConfigError):
            t.create_index(
                "by_k", ("k",), kind="art",
                cache=CacheConfig(budget_bytes=8192),
            )

    def test_create_index_validates_cache_against_bound(self):
        db = Database()
        t = db.create_table(RowSchema("t", ("k", "v"), (8, 8)))
        with pytest.raises(CacheConfigError):
            t.create_index(
                "by_k", ("k",), kind="elastic", size_bound_bytes=8192,
                cache=CacheConfig(budget_bytes=8192),
            )

    def test_sharded_caches_split_budget(self):
        db = Database()
        t = db.create_table(RowSchema("t", ("k", "v"), (8, 8)))
        idx = t.create_index(
            "by_k", ("k",), kind="elastic", size_bound_bytes=1 << 20,
            shards=4, cache=CacheConfig(budget_bytes=64 * 1024),
        )
        caches = idx.index.caches()
        assert len(caches) == 4
        assert sum(c.budget_bytes for c in caches) >= 64 * 1024
        report = idx.index.cache_report()
        assert {row["shard"] for row in report} == {
            s.name for s in idx.index.shards
        }


# ----------------------------------------------------------------------
# Arbiter-driven resizing
# ----------------------------------------------------------------------
class TestArbiterCachePolicy:
    def make_registered(self):
        source = U64Source()
        tree = make_elastic(source, size_bound=1 << 20)
        fill(tree, source, 500)
        cache = attach_small_cache(tree, budget=8192)
        arbiter = BudgetArbiter(total_bytes=1 << 20, min_bound_bytes=4096)
        arbiter.register("s0", tree.controller)
        arbiter.register_cache("s0", cache)
        return tree, cache, arbiter

    def test_register_requires_known_shard(self):
        arbiter = BudgetArbiter(total_bytes=1 << 20)
        with pytest.raises(ShardConfigError):
            arbiter.register_cache("ghost", object())

    def test_register_rejects_duplicates(self):
        tree, cache, arbiter = self.make_registered()
        with pytest.raises(ShardConfigError):
            arbiter.register_cache("s0", cache)

    def test_hot_cache_grows_idle_cache_decays(self):
        tree, cache, arbiter = self.make_registered()
        key = encode_u64(1)
        cache.admit_row(key, 1)
        for _ in range(500):
            cache.probe_row(key)
        arbiter.rebalance()
        grown = cache.budget_bytes
        assert grown > 8192
        assert arbiter.stats.cache_resizes == 1
        bound = tree.controller.budget.soft_bound_bytes
        assert grown <= bound * cache.config.max_bound_fraction
        # No probes in the next window: demand gone, decay to the floor.
        arbiter.rebalance()
        assert cache.budget_bytes == cache.config.min_budget_bytes
        assert arbiter.stats.cache_resizes == 2

    def test_non_adaptive_cache_is_left_alone(self):
        source = U64Source()
        tree = make_elastic(source, size_bound=1 << 20)
        cache = IndexCache(CacheConfig(
            budget_bytes=8192, sketch_width=256, adaptive=False,
        ))
        tree.attach_cache(cache)
        arbiter = BudgetArbiter(total_bytes=1 << 20)
        arbiter.register("s0", tree.controller)
        arbiter.register_cache("s0", cache)
        key = encode_u64(1)
        cache.admit_row(key, 1)
        for _ in range(500):
            cache.probe_row(key)
        arbiter.rebalance()
        assert cache.budget_bytes == 8192
        assert arbiter.stats.cache_resizes == 0

    def test_report_includes_cache_columns(self):
        tree, cache, arbiter = self.make_registered()
        row = arbiter.report()[0]
        assert row["cache_budget_bytes"] == cache.budget_bytes
        assert "cache_hit_rate" in row


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestCacheObservability:
    def test_events_and_metrics(self):
        db = Database()
        table = db.create_table(RowSchema("t", ("a",), (8,)))
        table.create_index("by_a", ("a",), cache=CacheConfig(
            budget_bytes=8192, sketch_width=64,
        ))
        cache = table.indexes["by_a"].index.cache
        key = encode_u64(1)
        cache.probe_row(key)        # miss
        cache.admit_row(key, 1)     # admit
        cache.probe_row(key)        # hit
        cache.invalidate_row(key)   # invalidate
        registry = layer_metrics(db)
        counter = registry.get("repro_cache_events_total")
        for action in ("miss", "admit", "hit", "invalidate"):
            assert counter.value(
                name="t.by_a.cache", action=action, tier="row") == 1
        gauge = registry.get("repro_cache_hit_rate")
        assert gauge.value(name="t.by_a.cache") == cache.stats.hit_rate
        assert cache.stats.hit_rate == 0.5
        assert 'repro_cache_hit_rate{name="t.by_a.cache"} 0.5' in (
            db.metrics_snapshot().splitlines()
        )

    def test_budget_events(self):
        observer = obs.Observer()
        source = U64Source()
        observer.watch(source.cost)
        tree = make_elastic(source, size_bound=1 << 20)
        cache = attach_small_cache(tree, budget=8192)
        arbiter = BudgetArbiter(total_bytes=1 << 20)
        arbiter.cost = source.cost
        arbiter.register("s0", tree.controller)
        arbiter.register_cache("s0", cache)
        key = encode_u64(1)
        cache.admit_row(key, 1)
        for _ in range(200):
            cache.probe_row(key)
        arbiter.rebalance()
        budget_events = [
            e for e in observer.events if e.kind == "cache_budget"
        ]
        assert budget_events and budget_events[0].shard == "s0"
        assert budget_events[0].new_budget_bytes > 8192
        gauge = observer.registry.get("repro_cache_budget_bytes")
        assert gauge.value(shard="s0") == cache.budget_bytes


# ----------------------------------------------------------------------
# Invariant checks
# ----------------------------------------------------------------------
def filled_cache():
    """A bound cache with 40 row entries and three descent intervals."""
    cache, _, _ = make_bound_cache(budget=16 * 1024)
    for v in range(40):
        cache.probe_row(encode_u64(v))
        cache.admit_row(encode_u64(v), v)
    for lo in (10, 20, 30):
        cache.admit_leaf(encode_u64(lo), encode_u64(lo + 5), object(), 0)
    return cache


def _set_sketch_counter(cache):
    cache._sketch._rows[0][0] = 16


def _empty_interval(cache):
    lo = encode_u64(20)
    cache._desc[lo] = (lo, cache._desc[lo][1])


class TestCacheInvariants:
    @pytest.fixture(scope="class")
    def composed(self):
        from tests.test_hot_path_accounting import _cluster_mix

        return _cluster_mix()

    def test_hold_on_a_live_composed_database(self, composed):
        _, table = composed
        for name in ("by_id", "by_cust"):
            secondary = table.indexes[name]
            tids = {
                secondary.key_of_row(row): tid
                for tid, row in table.table.iter_live()
            }
            index = secondary.index
            caches = index.caches() if name == "by_id" else [index.cache]
            for cache in caches:
                assert cache._rows
                cache.check_invariants(tids.get)

    def test_hold_on_a_filled_cache(self):
        cache = filled_cache()
        cache.check_invariants({encode_u64(v): v for v in range(40)}.get)

    @pytest.mark.parametrize("corrupt, invariant", [
        (lambda c: setattr(c, "_row_capacity", len(c._rows) - 1),
         "capacities"),
        (lambda c: c._desc_keys.reverse(), "sorted interval starts"),
        (_empty_interval, "lo < hi"),
        (lambda c: setattr(c, "_row_reserved", 0), "cover the entries"),
        (lambda c: setattr(c, "_desc_reserved", c._desc_reserved + 1),
         "whole slabs"),
        (lambda c: setattr(c, "_cache_bytes", c.budget_bytes + 1),
         "budget_bytes"),
        (_set_sketch_counter, "counters at most 15"),
        (lambda c: setattr(c._sketch, "_samples", c._sketch.sample_size),
         "sample_size"),
        (lambda c: c._rows.__setitem__(encode_u64(7), 8), "tuple ids"),
    ])
    def test_corruption_raises(self, corrupt, invariant):
        cache = filled_cache()
        lookup = {encode_u64(v): v for v in range(40)}.get
        cache.check_invariants(lookup)
        corrupt(cache)
        with pytest.raises(ValueError, match=invariant):
            cache.check_invariants(lookup)
