"""Tests for the budget arbiter and runtime soft-bound movement."""

import random

import pytest

from repro import obs
from repro.bench.harness import make_u64_environment
from repro.db.database import Database
from repro.engine import BudgetArbiter, largest_remainder
from repro.keys.encoding import encode_u64
from repro.memory.budget import PressureState
from repro.table.table import RowSchema


# ----------------------------------------------------------------------
# largest_remainder apportionment
# ----------------------------------------------------------------------
class TestLargestRemainder:
    def test_sums_exactly(self):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(1, 9)
            weights = [rng.random() + 0.01 for _ in range(n)]
            total = rng.randint(0, 10**7)
            out = largest_remainder(total, weights)
            assert sum(out) == total
            assert all(b >= 0 for b in out)

    def test_remainder_goes_to_largest_fractions(self):
        # 100 over weights 1:1:1 -> 34/33/33 (first share wins the tie).
        assert largest_remainder(100, [1, 1, 1]) == [34, 33, 33]
        # 10 over 0.55:0.25:0.20 -> fractions 0.5/0.5/0.0.
        assert largest_remainder(10, [0.55, 0.25, 0.20]) == [6, 2, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            largest_remainder(100, [])
        with pytest.raises(ValueError):
            largest_remainder(100, [0, 0])
        with pytest.raises(ValueError):
            largest_remainder(100, [1, -1])
        with pytest.raises(ValueError):
            largest_remainder(-1, [1])


# ----------------------------------------------------------------------
# Arbiter policy over real elastic indexes
# ----------------------------------------------------------------------
def elastic_env(bound, n_keys, seed=21):
    env = make_u64_environment("elastic", size_bound_bytes=bound)
    rng = random.Random(seed)
    values = set()
    while len(values) < n_keys:
        values.add(rng.getrandbits(48))
    for value in values:
        tid = env.table.insert_row(value)
        env.index.insert(encode_u64(value), tid)
    return env


class TestBudgetArbiter:
    def test_validation(self):
        with pytest.raises(ValueError):
            BudgetArbiter(0)
        with pytest.raises(ValueError):
            BudgetArbiter(1000, interval_ops=0)
        with pytest.raises(ValueError):
            BudgetArbiter(1000, pressure_boost=-1)
        with pytest.raises(ValueError):
            BudgetArbiter(1000, rebalance_fraction=1.0)

    def test_duplicate_registration_rejected(self):
        env = elastic_env(10**9, 100)
        arbiter = BudgetArbiter(10**6)
        arbiter.register("a", env.index.controller)
        with pytest.raises(ValueError):
            arbiter.register("a", env.index.controller)

    def test_rebalance_without_shards_is_noop(self):
        arbiter = BudgetArbiter(10**6)
        assert arbiter.rebalance() is False
        assert arbiter.stats.evaluations == 0

    def test_slack_flows_to_the_occupied_shard(self):
        """A big index under pressure pulls bound from a small idle one."""
        big = elastic_env(50_000, 4000, seed=1)
        small = elastic_env(50_000, 150, seed=2)
        arbiter = BudgetArbiter(100_000, min_bound_bytes=4096)
        arbiter.register("big", big.index.controller)
        arbiter.register("small", small.index.controller)
        assert arbiter.rebalance() is True
        bounds = arbiter.bounds()
        assert sum(bounds.values()) == 100_000
        assert bounds["big"] > 50_000
        assert bounds["small"] >= 4096
        assert bounds["small"] < 50_000
        assert arbiter.stats.rebalances == 1
        assert arbiter.stats.bytes_moved > 0

    def test_shrinking_shard_gets_pressure_boost(self):
        """Equal occupancy, one shard SHRINKING: the boost breaks the tie
        in the shrinking shard's favour."""
        calm = elastic_env(10**9, 2000, seed=5)
        pressed = elastic_env(10**9, 2000, seed=5)
        pressed.index.controller.set_soft_bound(
            int(pressed.index.index_bytes * 0.9)
        )
        assert pressed.index.pressure_state is PressureState.SHRINKING
        total = calm.index.index_bytes + pressed.index.index_bytes
        arbiter = BudgetArbiter(total, pressure_boost=0.5)
        arbiter.register("calm", calm.index.controller)
        arbiter.register("pressed", pressed.index.controller)
        arbiter.rebalance()
        bounds = arbiter.bounds()
        assert bounds["pressed"] > bounds["calm"]
        assert sum(bounds.values()) == total

    def test_small_moves_are_skipped(self):
        a = elastic_env(50_000, 2000, seed=7)
        b = elastic_env(50_000, 2000, seed=8)
        arbiter = BudgetArbiter(100_000, rebalance_fraction=0.25)
        arbiter.register("a", a.index.controller)
        arbiter.register("b", b.index.controller)
        # Near-symmetric occupancy: any move is far below 25% of total.
        assert arbiter.rebalance() is False
        assert arbiter.stats.skipped_small == 1
        assert arbiter.stats.rebalances == 0
        assert arbiter.bounds() == {"a": 50_000, "b": 50_000}

    def test_floor_honoured_even_for_empty_shards(self):
        empty = elastic_env(20_000, 0)
        full = elastic_env(20_000, 3000)
        arbiter = BudgetArbiter(40_000, min_bound_bytes=6000)
        arbiter.register("empty", empty.index.controller)
        arbiter.register("full", full.index.controller)
        arbiter.rebalance()
        assert arbiter.bounds()["empty"] >= 6000

    def test_floor_falls_back_to_equal_split(self):
        a = elastic_env(5_000, 500, seed=3)
        b = elastic_env(5_000, 10, seed=4)
        arbiter = BudgetArbiter(10_000, min_bound_bytes=8_000)
        arbiter.register("a", a.index.controller)
        arbiter.register("b", b.index.controller)
        arbiter.rebalance()
        assert arbiter.bounds() == {"a": 5_000, "b": 5_000}

    def test_tick_interval(self):
        env = elastic_env(10**9, 200)
        arbiter = BudgetArbiter(10**6, interval_ops=100)
        arbiter.register("x", env.index.controller)
        for _ in range(99):
            assert arbiter.tick() is False
        assert arbiter.tick() is True
        assert arbiter.stats.evaluations == 1
        # Counter resets after firing.
        assert arbiter.tick(99) is False
        assert arbiter.tick(1) is True

    def test_events_emitted(self):
        big = elastic_env(50_000, 4000, seed=1)
        small = elastic_env(50_000, 150, seed=2)
        arbiter = BudgetArbiter(100_000)
        arbiter.register("big", big.index.controller)
        arbiter.register("small", small.index.controller)
        arbiter.cost = big.cost
        observer = obs.Observer()
        observer.watch(big.cost)
        arbiter.rebalance(reason="test")
        events = observer.event_log()
        # Per-shard pressure samples are counted, not published.
        assert sum(arbiter.stats.samples_by_state.values()) == 2
        assert "shard_pressure" not in {e.kind for e in events}
        rebalances = [e for e in events if e.kind == "budget_rebalance"]
        assert len(rebalances) == 1
        event = rebalances[0]
        assert event.reason == "test"
        assert event.shards == ["big", "small"]
        assert sum(event.new_bounds) == 100_000
        assert event.old_bounds == [50_000, 50_000]
        assert event.bytes_moved == sum(
            abs(n - o) for n, o in zip(event.new_bounds, event.old_bounds)
        ) // 2
        # Round-trips through the JSON exporter (list fields included).
        payload = event.as_dict()
        assert payload["kind"] == "budget_rebalance"
        assert payload["new_bounds"] == event.new_bounds

    def test_observer_folds_arbiter_metrics(self):
        big = elastic_env(50_000, 4000, seed=1)
        small = elastic_env(50_000, 150, seed=2)
        arbiter = BudgetArbiter(100_000)
        arbiter.register("big", big.index.controller)
        arbiter.register("small", small.index.controller)
        arbiter.cost = big.cost
        observer = obs.Observer()
        observer.watch(big.cost)
        arbiter.rebalance()
        snapshot = observer.metrics_snapshot()
        observer.close()
        assert "repro_budget_rebalances_total" in snapshot
        assert "repro_shard_soft_bound_bytes" in snapshot
        assert 'shard="big"' in snapshot


# ----------------------------------------------------------------------
# Database facade integration
# ----------------------------------------------------------------------
SCHEMA = RowSchema("log", ("ts", "obj", "size"), (8, 8, 8))


def db_rows(n, seed=13):
    rng = random.Random(seed)
    return [
        (rng.getrandbits(40), rng.getrandbits(30), rng.randrange(100))
        for _ in range(n)
    ]


class TestDatabaseIntegration:
    def test_enable_before_and_after_index_creation(self):
        db = Database()
        table = db.create_table(SCHEMA)
        table.create_index("early", ("ts",), kind="elastic",
                           size_bound_bytes=30_000)
        arbiter = db.enable_budget_arbiter(90_000)
        table.create_index("late", ("obj",), kind="elastic",
                           size_bound_bytes=30_000, shards=2)
        assert sorted(arbiter.shard_names) == [
            "log.early", "log.late[0]", "log.late[1]"
        ]

    def test_double_enable_rejected(self):
        db = Database()
        db.enable_budget_arbiter(10_000)
        with pytest.raises(ValueError):
            db.enable_budget_arbiter(10_000)

    def test_non_elastic_indexes_are_not_enrolled(self):
        db = Database()
        table = db.create_table(SCHEMA)
        table.create_index("plain", ("ts",), kind="stx", shards=2)
        arbiter = db.enable_budget_arbiter(10_000)
        assert arbiter.shard_names == []

    def test_ops_drive_periodic_rebalance(self):
        db = Database()
        table = db.create_table(SCHEMA)
        table.create_index("hot", ("ts", "obj"), kind="elastic",
                           size_bound_bytes=30_000, shards=2)
        table.create_index("cold", ("size", "ts"), kind="elastic",
                           size_bound_bytes=30_000)
        db.enable_budget_arbiter(60_000, interval_ops=512)
        rows = db_rows(3000)
        for i in range(0, 3000, 300):  # ticks accumulate across batches
            table.insert_batch(rows[i:i + 300])
        assert db.arbiter.stats.evaluations >= 5
        assert sum(db.arbiter.bounds().values()) == 60_000
        # Reads tick too.
        before = db.arbiter.stats.evaluations
        rows = db_rows(3000)
        table.get_batch("hot", [(r[0], r[1]) for r in rows[:600]])
        assert db.arbiter.stats.evaluations > before

    def test_manual_rebalance(self):
        db = Database()
        with pytest.raises(ValueError):
            db.rebalance_budget()
        table = db.create_table(SCHEMA)
        table.create_index("e", ("ts",), kind="elastic",
                           size_bound_bytes=50_000)
        db.enable_budget_arbiter(50_000)
        table.insert_batch(db_rows(500))
        assert db.rebalance_budget() in (True, False)
        assert db.arbiter.stats.evaluations >= 1


# ----------------------------------------------------------------------
# set_soft_bound shrink-path convergence (acceptance criterion)
# ----------------------------------------------------------------------
class TestShrinkConvergence:
    def test_repeated_bound_drops_converge_without_oscillation(self):
        """Property-style: drop the bound repeatedly under ageing churn
        (interleaved fresh inserts, slightly more deletes); after every
        drop the controller must reach a size under the new shrink
        threshold in bounded work, driven by overflow conversions, with a
        bounded number of pressure transitions (no oscillation)."""
        env = make_u64_environment("elastic", size_bound_bytes=10**9)
        rng = random.Random(31)
        values = set()
        while len(values) < 6000:
            values.add(rng.getrandbits(47) * 2)  # traffic uses odd keys
        live = []
        for value in values:
            tid = env.table.insert_row(value)
            env.index.insert(encode_u64(value), tid)
            live.append(value)
        controller = env.index.controller
        initial_bytes = env.index.index_bytes

        drops = (0.90, 0.85, 0.80, 0.75)
        for drop, fraction in enumerate(drops):
            new_bound = int(initial_bytes * fraction)
            controller.set_soft_bound(new_bound)
            assert controller.budget.soft_bound_bytes == new_bound
            converged = False
            for _chunk in range(80):
                if (env.index.index_bytes
                        < controller.budget.shrink_threshold_bytes):
                    converged = True
                    break
                deletes = 0
                for i in range(100):  # 10 inserts : 12 deletes
                    value = rng.getrandbits(47) * 2 + 1
                    tid = env.table.insert_row(value)
                    env.index.insert(encode_u64(value), tid)
                    live.append(value)
                    while deletes * 10 < (i + 1) * 12:
                        victim = live.pop(rng.randrange(len(live)))
                        env.index.remove(encode_u64(victim))
                        deletes += 1
            assert converged, (
                f"drop {drop}: stuck at {env.index.index_bytes} vs "
                f"threshold {controller.budget.shrink_threshold_bytes}"
            )
        # The shrink mechanism participated: overflows converted leaves.
        assert controller.stats.conversions_to_compact > 100
        # Bounded oscillation: the whole cascade of drops may transition
        # at most a handful of times (it measures 1: NORMAL->SHRINKING
        # once, then hysteresis holds the state through every re-bound).
        assert controller.budget.transitions <= 2 * len(drops), (
            controller.budget.transitions
        )
        assert controller.state is PressureState.SHRINKING

    def test_set_soft_bound_requires_attached_tree(self):
        from repro.core.config import ElasticConfig
        from repro.core.elasticity import ElasticityController

        controller = ElasticityController(
            ElasticConfig(size_bound_bytes=1000), table=None
        )
        with pytest.raises(AssertionError):
            controller.set_soft_bound(500)

    def test_raising_bound_triggers_expansion_not_normal(self):
        env = elastic_env(40_000, 4000, seed=41)
        controller = env.index.controller
        assert controller.state is PressureState.SHRINKING
        assert env.index.allocator.bytes_in("leaf.compact") > 0
        # Grant generous budget: the index is now far below the expand
        # threshold, but compact leaves remain, so the controller must be
        # EXPANDING (decompacting), not teleported to NORMAL.
        state = controller.set_soft_bound(10 * env.index.index_bytes)
        assert state is PressureState.EXPANDING
        # Searches gradually decompact; eventually the controller settles.
        rng = random.Random(51)
        keys = [k for k, _ in env.index.scan(encode_u64(0), len(env.index))]
        for _round in range(400):
            if controller.state is PressureState.NORMAL:
                break
            for key in rng.sample(keys, 200):
                env.index.lookup(key)
        assert controller.state is PressureState.NORMAL
        assert env.index.allocator.bytes_in("leaf.compact") == 0
