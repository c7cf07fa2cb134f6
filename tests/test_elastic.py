"""Integration and property tests for the elastic B+-tree (sections 3-4)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.blindi.leaf import CompactLeaf
from repro.btree.leaves import StandardLeaf
from repro.btree.stats import collect_stats
from repro.btree.tree import BPlusTree
from repro.core.config import ElasticConfig
from repro.core.elastic_btree import ElasticBPlusTree
from repro.core.policies import EagerCompactionPolicy, NeverCompactPolicy
from repro.keys.encoding import encode_u64
from repro.memory.allocator import TrackingAllocator
from repro.memory.budget import PressureState
from repro.memory.cost_model import CostModel

from tests.conftest import SortedModel, U64Source


def make_elastic(source, size_bound=60_000, **config_kwargs):
    cost = source.cost
    alloc = TrackingAllocator(use_size_classes=False, cost_model=cost)
    config = ElasticConfig(size_bound_bytes=size_bound, **config_kwargs)
    tree = ElasticBPlusTree(
        source.table,
        config,
        key_width=8,
        leaf_capacity=16,
        inner_capacity=16,
        allocator=alloc,
        cost_model=cost,
    )
    return tree


def fill(tree, source, n, start=0, shuffle_seed=None):
    values = list(range(start, start + n))
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(values)
    for v in values:
        tree.insert(*source.add(v))


class TestNormalOperation:
    def test_identical_to_btree_under_no_pressure(self):
        source = U64Source()
        tree = make_elastic(source, size_bound=100_000_000)
        fill(tree, source, 2000)
        stats = collect_stats(tree)
        assert stats.compact_leaf_count == 0
        assert tree.pressure_state is PressureState.NORMAL
        # Space identical to a plain B+-tree over the same inserts.
        plain_source = U64Source()
        plain = BPlusTree(8, 16, 16,
                          TrackingAllocator(use_size_classes=False),
                          plain_source.cost)
        for v in range(2000):
            plain.insert(*plain_source.add(v))
        assert tree.index_bytes == plain.index_bytes

    def test_basic_crud(self):
        source = U64Source()
        tree = make_elastic(source)
        key, tid = source.add(7)
        tree.insert(key, tid)
        assert tree.lookup(key) == tid
        assert tree.remove(key) == tid
        assert tree.lookup(key) is None


class TestShrinking:
    def test_enters_shrinking_and_converts(self):
        source = U64Source()
        tree = make_elastic(source, size_bound=40_000)
        fill(tree, source, 5000)
        assert tree.pressure_state is PressureState.SHRINKING
        stats = collect_stats(tree)
        assert stats.compact_leaf_count > 0
        assert tree.controller.stats.conversions_to_compact > 0
        tree.check_elastic_invariants()

    def test_space_growth_collapses_past_trigger(self):
        """Past the shrink trigger, the marginal bytes-per-key rate drops
        far below the standard B+-tree's (the flattening of Figure 5b).
        Uses uniform random inserts, as the paper's Figure 5 does — the
        overflow-piggyback policy converts leaves as they are hit."""
        source = U64Source()
        bound = 40_000
        tree = make_elastic(source, size_bound=bound)
        fill(tree, source, 1000, shuffle_seed=11)
        size_1k = tree.index_bytes
        rate_before = size_1k / 1000  # ~27 B/key, all standard leaves
        fill(tree, source, 5000, start=1000, shuffle_seed=12)
        rate_after = (tree.index_bytes - size_1k) / 5000
        assert tree.pressure_state is PressureState.SHRINKING
        assert rate_after < 0.45 * rate_before, (
            f"marginal rate {rate_after:.1f} B/key vs {rate_before:.1f}"
        )
        tree.check_elastic_invariants()

    def test_capacity_ladder(self):
        source = U64Source()
        tree = make_elastic(source, size_bound=25_000)
        fill(tree, source, 8000)
        stats = collect_stats(tree)
        capacities = {
            leaf_class.split("/")[1]
            for leaf_class in stats.leaves_by_class
            if leaf_class.startswith("compact")
        }
        # The ladder 32 -> 64 -> 128 is exercised, and never exceeded.
        assert "128" in capacities
        assert all(int(c) <= 128 for c in capacities)
        assert tree.controller.stats.capacity_promotions > 0

    def test_stores_2x_keys_in_same_budget(self):
        """Core claim: 2x the 8-byte keys within a fixed budget with the
        elastic tree (section 6.1 reports 2x for 64-bit keys)."""
        bound = 40_000
        plain_source = U64Source()
        plain = BPlusTree(8, 16, 16,
                          TrackingAllocator(use_size_classes=False),
                          plain_source.cost)
        keys_at_bound = 0
        rng = random.Random(5)
        while plain.index_bytes < bound:
            plain.insert(*plain_source.add(rng.randrange(1 << 40)))
            keys_at_bound += 1
        source = U64Source()
        tree = make_elastic(source, size_bound=bound)
        fill(tree, source, int(2.2 * keys_at_bound), shuffle_seed=13)
        assert tree.index_bytes < bound * 1.2, (
            f"elastic index {tree.index_bytes} vs bound {bound} after "
            f"storing 2.2x the plain tree's {keys_at_bound} keys"
        )

    def test_lookups_correct_while_shrunk(self):
        source = U64Source()
        tree = make_elastic(source, size_bound=30_000)
        fill(tree, source, 6000)
        for v in random.Random(1).sample(range(6000), 300):
            assert tree.lookup(encode_u64(v)) is not None, v

    def test_scans_correct_while_shrunk(self):
        source = U64Source()
        tree = make_elastic(source, size_bound=30_000)
        model = SortedModel()
        for v in range(6000):
            key, tid = source.add(v)
            tree.insert(key, tid)
            model.insert(key, tid)
        for start in (0, 17, 3000, 5990):
            assert tree.scan(encode_u64(start), 15) == model.scan(
                encode_u64(start), 15
            )


class TestExpansion:
    def test_removals_drive_expansion_to_normal(self):
        source = U64Source()
        tree = make_elastic(source, size_bound=30_000)
        fill(tree, source, 6000)
        assert tree.pressure_state is PressureState.SHRINKING
        for v in range(6000):
            assert tree.remove(encode_u64(v)) is not None
        # All compact leaves reverted; the budget settled back to NORMAL.
        stats = collect_stats(tree)
        assert stats.compact_leaf_count == 0
        assert tree.pressure_state is PressureState.NORMAL
        assert tree.controller.stats.reversions_to_standard > 0

    def test_search_driven_expansion_splits(self):
        """Popular compact leaves are split by searches while expanding,
        even without removals (section 4, 'Expansion')."""
        source = U64Source()
        tree = make_elastic(
            source, size_bound=30_000, expand_split_probability=0.5
        )
        fill(tree, source, 6000)
        # Age out the cold range entirely (as data leaves the pipeline
        # window); the hot range's compact leaves see no removals.
        for v in range(5400):
            tree.remove(encode_u64(v))
        assert tree.pressure_state is PressureState.EXPANDING
        before = collect_stats(tree).compact_leaf_count
        assert before > 0
        rng = random.Random(2)
        for _ in range(3000):
            tree.lookup(encode_u64(rng.randrange(5400, 6000)))
        after = collect_stats(tree).compact_leaf_count
        assert tree.controller.stats.expansion_splits > 0
        assert after < before
        tree.check_elastic_invariants()

    def test_no_oscillation(self):
        source = U64Source()
        tree = make_elastic(source, size_bound=30_000)
        fill(tree, source, 5000)
        transitions_after_fill = tree.controller.stats.state_transitions
        # Hovering around the bound must not flap between states.
        rng = random.Random(3)
        next_v = 5000
        live = list(range(5000))
        for _ in range(2000):
            if rng.random() < 0.5 and live:
                victim = live.pop(rng.randrange(len(live)))
                tree.remove(encode_u64(victim))
            else:
                tree.insert(*source.add(next_v))
                live.append(next_v)
                next_v += 1
        assert tree.controller.stats.state_transitions - transitions_after_fill <= 4


class TestPolicies:
    def test_eager_policy_bulk_compacts(self):
        source = U64Source()
        cost = source.cost
        alloc = TrackingAllocator(use_size_classes=False, cost_model=cost)
        config = ElasticConfig(size_bound_bytes=40_000)
        tree = ElasticBPlusTree(
            source.table, config, allocator=alloc, cost_model=cost,
            policy=EagerCompactionPolicy(),
        )
        fill(tree, source, 3000)
        stats = collect_stats(tree)
        # The moment shrinking started, everything was compacted.
        assert stats.compact_leaf_count == stats.leaf_count
        tree.check_elastic_invariants()

    def test_never_policy_matches_plain(self):
        source = U64Source()
        cost = source.cost
        alloc = TrackingAllocator(use_size_classes=False, cost_model=cost)
        config = ElasticConfig(size_bound_bytes=20_000)
        tree = ElasticBPlusTree(
            source.table, config, allocator=alloc, cost_model=cost,
            policy=NeverCompactPolicy(),
        )
        fill(tree, source, 3000)
        assert collect_stats(tree).compact_leaf_count == 0


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_elastic_matches_model_through_pressure_cycle(seed):
    rng = random.Random(seed)
    source = U64Source()
    tree = make_elastic(source, size_bound=12_000,
                        expand_split_probability=0.2)
    model = SortedModel()
    live = {}
    next_value = 0
    for step in range(1200):
        grow_phase = (step // 300) % 2 == 0
        roll = rng.random()
        if roll < (0.8 if grow_phase else 0.25):
            value = next_value
            next_value += 1
            key, tid = source.add(value)
            tree.insert(key, tid)
            model.insert(key, tid)
            live[value] = tid
        elif roll < 0.9 and live:
            value = rng.choice(list(live))
            key = encode_u64(value)
            assert tree.remove(key) == model.remove(key)
            del live[value]
        else:
            probe = rng.randrange(max(1, next_value))
            key = encode_u64(probe)
            assert tree.lookup(key) == model.lookup(key)
    assert [k for k, _ in tree.items()] == model.keys
    tree.check_elastic_invariants()


def test_leaves_by_class_key_shape():
    """Regression: ``leaves_by_class`` keys are the documented
    ``"<representation>/<capacity>"`` strings — lower-cased leaf class
    name without the ``Leaf`` suffix — and the census adds up."""
    source = U64Source()
    tree = make_elastic(source, size_bound=40_000)
    fill(tree, source, 5000)
    stats = collect_stats(tree)
    assert stats.leaves_by_class
    for leaf_class, count in stats.leaves_by_class.items():
        name, capacity = leaf_class.split("/")
        assert name in ("compact", "standard")
        assert int(capacity) > 0
        assert count > 0
    assert sum(stats.leaves_by_class.values()) == stats.leaf_count
    compact = sum(
        n for cls, n in stats.leaves_by_class.items()
        if cls.startswith("compact/")
    )
    assert compact == stats.compact_leaf_count


class TestElasticInvariantChecks:
    """Each converted-leaf rule raises ``AssertionError`` explicitly, so
    a corrupted tree fails the check under ``python -O`` too."""

    @staticmethod
    def converted():
        source = U64Source()
        tree = make_elastic(source, size_bound=1 << 40)
        fill(tree, source, 200, shuffle_seed=5)
        assert tree.controller.bulk_convert("compact") > 0
        tree.check_elastic_invariants()
        leaf = tree.first_leaf.next_leaf
        assert isinstance(leaf, CompactLeaf)
        return tree, leaf

    @pytest.mark.parametrize("capacity", ["below", "above"])
    def test_capacity_off_the_ladder_raises(self, capacity):
        tree, leaf = self.converted()
        if capacity == "below":
            leaf._capacity = 2 * tree.leaf_capacity - 1
        else:
            leaf._capacity = 2 * tree.config.max_compact_capacity
        assert leaf.count <= leaf.capacity  # the structural check passes
        tree.check_invariants(strict_fill=False)
        with pytest.raises(AssertionError, match="off the ladder"):
            tree.check_elastic_invariants()

    def test_empty_converted_leaf_raises(self):
        tree, leaf = self.converted()
        keys = [key for key, _ in leaf.items()]
        for key in keys:
            assert leaf.remove(key) is not None
        tree._count -= len(keys)
        tree.check_invariants(strict_fill=False)
        with pytest.raises(AssertionError, match="holds 0 keys"):
            tree.check_elastic_invariants()
