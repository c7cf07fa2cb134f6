"""Unit and property tests for the B+-tree substrate with standard leaves."""

import bisect
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.btree.leaves import LeafFullError, StandardLeaf
from repro.btree.tree import BPlusTree, InnerNode
from repro.keys.encoding import encode_u64
from repro.memory.allocator import TrackingAllocator
from repro.memory.cost_model import CostModel

from tests.conftest import SortedModel


def make_tree(leaf_capacity=4, inner_capacity=4):
    cost = CostModel()
    alloc = TrackingAllocator(use_size_classes=False, cost_model=cost)
    tree = BPlusTree(
        key_width=8,
        leaf_capacity=leaf_capacity,
        inner_capacity=inner_capacity,
        allocator=alloc,
        cost_model=cost,
    )
    return tree


class TestStandardLeaf:
    def setup_method(self):
        self.alloc = TrackingAllocator(use_size_classes=False)
        self.leaf = StandardLeaf(8, 4, self.alloc)

    def test_upsert_and_lookup(self):
        assert self.leaf.upsert(encode_u64(5), 50) is None
        assert self.leaf.lookup(encode_u64(5)) == 50
        assert self.leaf.lookup(encode_u64(6)) is None

    def test_upsert_replaces(self):
        self.leaf.upsert(encode_u64(5), 50)
        assert self.leaf.upsert(encode_u64(5), 51) == 50
        assert self.leaf.count == 1

    def test_full_raises(self):
        for i in range(4):
            self.leaf.upsert(encode_u64(i), i)
        with pytest.raises(LeafFullError):
            self.leaf.upsert(encode_u64(99), 99)
        # Replacing an existing key still works when full.
        assert self.leaf.upsert(encode_u64(2), 22) == 2

    def test_remove(self):
        self.leaf.upsert(encode_u64(5), 50)
        assert self.leaf.remove(encode_u64(5)) == 50
        assert self.leaf.remove(encode_u64(5)) is None

    def test_items_sorted(self):
        for v in (3, 1, 2):
            self.leaf.upsert(encode_u64(v), v)
        assert [k for k, _ in self.leaf.items()] == sorted(
            encode_u64(v) for v in (1, 2, 3)
        )

    def test_split_halves(self):
        for i in range(4):
            self.leaf.upsert(encode_u64(i), i)
        right, sep = self.leaf.split()
        assert sep == encode_u64(2)
        assert self.leaf.count == 2
        assert right.count == 2

    def test_size_accounting(self):
        # header 32 + 4 * (8 key + 8 tid) = 96
        assert self.leaf.size_bytes == 96
        assert self.alloc.total_bytes == 96
        self.leaf.destroy()
        assert self.alloc.total_bytes == 0

    def test_take_first_last(self):
        for i in range(3):
            self.leaf.upsert(encode_u64(i), i)
        assert self.leaf.take_first() == (encode_u64(0), 0)
        assert self.leaf.take_last() == (encode_u64(2), 2)
        assert self.leaf.count == 1


class TestBPlusTreeBasics:
    def test_insert_lookup(self):
        tree = make_tree()
        for i in range(100):
            tree.insert(encode_u64(i), i)
        for i in range(100):
            assert tree.lookup(encode_u64(i)) == i
        assert tree.lookup(encode_u64(1000)) is None
        assert len(tree) == 100
        tree.check_invariants()

    def test_insert_replaces(self):
        tree = make_tree()
        tree.insert(encode_u64(1), 10)
        assert tree.insert(encode_u64(1), 11) == 10
        assert len(tree) == 1

    def test_reverse_insert(self):
        tree = make_tree()
        for i in reversed(range(200)):
            tree.insert(encode_u64(i), i)
        tree.check_invariants()
        assert [k for k, _ in tree.items()] == [encode_u64(i) for i in range(200)]

    def test_remove_all(self):
        tree = make_tree()
        for i in range(100):
            tree.insert(encode_u64(i), i)
        for i in range(100):
            assert tree.remove(encode_u64(i)) == i
        assert len(tree) == 0
        assert tree.remove(encode_u64(0)) is None
        tree.check_invariants()

    def test_remove_interleaved(self):
        tree = make_tree()
        for i in range(100):
            tree.insert(encode_u64(i), i)
        for i in range(0, 100, 2):
            tree.remove(encode_u64(i))
        tree.check_invariants()
        assert len(tree) == 50
        for i in range(1, 100, 2):
            assert tree.lookup(encode_u64(i)) == i

    def test_scan(self):
        tree = make_tree()
        for i in range(0, 100, 2):
            tree.insert(encode_u64(i), i)
        result = tree.scan(encode_u64(11), 5)
        assert [k for k, _ in result] == [encode_u64(v) for v in (12, 14, 16, 18, 20)]

    def test_scan_past_end(self):
        tree = make_tree()
        for i in range(10):
            tree.insert(encode_u64(i), i)
        assert len(tree.scan(encode_u64(8), 10)) == 2
        assert tree.scan(encode_u64(100), 5) == []

    def test_height_grows_and_shrinks(self):
        tree = make_tree()
        assert tree.height == 1
        for i in range(100):
            tree.insert(encode_u64(i), i)
        assert tree.height > 2
        for i in range(100):
            tree.remove(encode_u64(i))
        tree.check_invariants()

    def test_memory_returns_after_deletes(self):
        tree = make_tree()
        for i in range(500):
            tree.insert(encode_u64(i), i)
        peak = tree.index_bytes
        for i in range(500):
            tree.remove(encode_u64(i))
        assert tree.index_bytes < peak / 4

    def test_wrong_key_width_rejected(self):
        tree = make_tree()
        with pytest.raises(ValueError):
            tree.insert(b"\x00" * 4, 1)

    def test_duplicate_heavy_workload(self):
        tree = make_tree()
        for _ in range(5):
            for i in range(50):
                tree.insert(encode_u64(i), i)
        assert len(tree) == 50
        tree.check_invariants()

    def test_iter_from_is_lazy_and_ordered(self):
        tree = make_tree()
        for i in range(0, 400, 4):
            tree.insert(encode_u64(i), i)
        iterator = tree.iter_from(encode_u64(100))
        first_five = [next(iterator) for _ in range(5)]
        assert [k for k, _ in first_five] == [
            encode_u64(v) for v in (100, 104, 108, 112, 116)
        ]
        rest = list(iterator)
        assert rest[-1][0] == encode_u64(396)
        assert len(first_five) + len(rest) == 75

    def test_iter_from_past_end(self):
        tree = make_tree()
        tree.insert(encode_u64(1), 1)
        assert list(tree.iter_from(encode_u64(2))) == []

    def test_trace_records_descent(self):
        tree = make_tree()
        for i in range(100):
            tree.insert(encode_u64(i), i)
        tree.trace = []
        tree.lookup(encode_u64(50))
        assert len(tree.trace) == tree.height


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "remove", "lookup"]),
            st.integers(min_value=0, max_value=120),
        ),
        max_size=250,
    )
)
def test_btree_matches_model(ops):
    tree = make_tree(leaf_capacity=4, inner_capacity=4)
    model = SortedModel()
    for op, value in ops:
        key = encode_u64(value)
        if op == "insert":
            assert tree.insert(key, value) == model.insert(key, value)
        elif op == "remove":
            assert tree.remove(key) == model.remove(key)
        else:
            assert tree.lookup(key) == model.lookup(key)
    assert len(tree) == len(model)
    assert [k for k, _ in tree.items()] == model.keys
    tree.check_invariants()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_btree_random_churn(seed):
    rng = random.Random(seed)
    tree = make_tree(leaf_capacity=8, inner_capacity=8)
    model = SortedModel()
    for _ in range(400):
        value = rng.randrange(200)
        key = encode_u64(value)
        if rng.random() < 0.6:
            assert tree.insert(key, value) == model.insert(key, value)
        else:
            assert tree.remove(key) == model.remove(key)
    tree.check_invariants()
    start = encode_u64(rng.randrange(200))
    assert tree.scan(start, 10) == model.scan(start, 10)


def test_scan_matches_model_across_leaves():
    tree = make_tree(leaf_capacity=4)
    model = SortedModel()
    for i in range(0, 300, 3):
        tree.insert(encode_u64(i), i)
        model.insert(encode_u64(i), i)
    for start in (0, 1, 149, 150, 298, 299):
        assert tree.scan(encode_u64(start), 7) == model.scan(encode_u64(start), 7)


# ----------------------------------------------------------------------
# StandardLeaf point operations charge their search and what follows it
# (the tid-slot access or the shift) in one ledger call.
# ----------------------------------------------------------------------
def reference_point_op(cost, op, keys, key, capacity, key_width):
    """The per-call ledger of a point op on a leaf holding ``keys``: the
    search's group, then the tid slot (``seq_lines``) or the shift
    (``copy_bytes``) as a second call.  An upsert of a new key into a
    full leaf charges the search alone."""
    n = len(keys)
    if n:
        probes = n.bit_length()
        cost.charge_many(
            "rand_line", 2 if n * key_width > 64 else 1,
            "compare", probes, "branch", probes,
        )
    else:
        cost.charge("rand_line", 1)
    pos = bisect.bisect_left(keys, key)
    hit = pos < n and keys[pos] == key
    slot = key_width + 8
    if hit and op in ("lookup", "upsert"):
        cost.seq_lines(1)
    elif op == "upsert" and not hit and n < capacity:
        cost.copy_bytes((n - pos) * slot)
    elif op == "remove" and hit:
        cost.copy_bytes((n - pos - 1) * slot)


def run_point_op(leaf, op, key, tid):
    """``op`` on ``leaf``: its return value, or ``LeafFullError``."""
    if op == "lookup":
        return leaf.lookup(key)
    if op == "remove":
        return leaf.remove(key)
    try:
        return leaf.upsert(key, tid)
    except LeafFullError:
        return LeafFullError


def ledger(cost):
    return list(cost.counts.items()), {
        tag: list(bucket.items()) for tag, bucket in cost.tagged.items()
    }


class TestStandardLeafLedger:
    @pytest.mark.parametrize("key_width", [8, 24])
    @pytest.mark.parametrize("op, held, value", [
        ("lookup", (2, 4, 6), 4),          # hit
        ("lookup", (2, 4, 6), 5),          # miss
        ("lookup", (), 5),                 # empty leaf
        ("upsert", (2, 4, 6), 4),          # hit: replace in place
        ("upsert", (2, 4, 6), 3),          # new key, with shift
        ("upsert", (2, 4, 6), 9),          # new key, no shift
        ("upsert", (), 5),                 # empty leaf
        ("upsert", tuple(range(0, 32, 2)), 7),  # full leaf
        ("upsert", tuple(range(0, 32, 2)), 8),  # full leaf, hit
        ("remove", (2, 4, 6), 2),          # hit, with shift
        ("remove", (2, 4, 6), 6),          # hit, no shift
        ("remove", (2, 4, 6), 5),          # miss
        ("remove", (), 5),                 # empty leaf
    ])
    def test_ledger_matches_per_call_reference(
        self, key_width, op, held, value
    ):
        capacity = 16
        keys = [v.to_bytes(key_width, "big") for v in held]
        key = value.to_bytes(key_width, "big")
        cost, ref = CostModel(), CostModel()
        leaf = StandardLeaf(
            key_width, capacity, TrackingAllocator(use_size_classes=False),
            cost, items=[(k, i) for i, k in enumerate(keys)] or None,
        )
        with cost.attributed_to("leaf"):
            out = run_point_op(leaf, op, key, 99)
        with ref.attributed_to("leaf"):
            reference_point_op(ref, op, keys, key, capacity, key_width)
        assert ledger(cost) == ledger(ref)
        if op == "upsert" and len(held) == capacity and value not in held:
            assert out is LeafFullError
            assert leaf.keys == keys

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([8, 16, 24]),
        st.sampled_from([4, 8, 16]),
        st.lists(
            st.tuples(st.sampled_from(["lookup", "upsert", "remove"]),
                      st.integers(0, 24)),
            max_size=60,
        ),
    )
    def test_op_sequences_match_per_call_reference(
        self, key_width, capacity, ops
    ):
        # One ledger over a whole sequence: totals, first-charge order
        # and the tag bucket, plus answers against a sorted list.
        cost, ref = CostModel(), CostModel()
        leaf = StandardLeaf(
            key_width, capacity, TrackingAllocator(use_size_classes=False),
            cost,
        )
        model = SortedModel()
        for op, value in ops:
            key = value.to_bytes(key_width, "big")
            with ref.attributed_to("leaf"):
                reference_point_op(
                    ref, op, model.keys, key, capacity, key_width
                )
            with cost.attributed_to("leaf"):
                out = run_point_op(leaf, op, key, value)
            if op == "lookup":
                assert out == model.lookup(key)
            elif op == "remove":
                assert out == model.remove(key)
            elif key in model.keys or len(model.keys) < capacity:
                assert out == model.insert(key, value)
            else:
                assert out is LeafFullError
            assert ledger(cost) == ledger(ref)
        assert leaf.keys == model.keys and leaf.tids == model.tids


# ----------------------------------------------------------------------
# check_invariants: every rule raises AssertionError explicitly, so a
# corrupted tree fails the check under python -O too.
# ----------------------------------------------------------------------
def _leaves(tree):
    out, leaf = [], tree.first_leaf
    while leaf is not None:
        out.append(leaf)
        leaf = leaf.next_leaf
    return out


def _swap_leaf_keys(tree):
    # Two swapped keys and a wrong count: the first rule broken wins.
    leaf = _leaves(tree)[1]
    leaf.keys[0], leaf.keys[1] = leaf.keys[1], leaf.keys[0]
    tree._count += 1


def _duplicate_leaf_key(tree):
    leaf = _leaves(tree)[1]
    leaf.keys[1] = leaf.keys[0]


def _overfill_leaf(tree):
    leaf = _leaves(tree)[-1]
    extra = leaf.capacity + 1 - leaf.count
    leaf.keys.extend(encode_u64(10_000 + i) for i in range(extra))
    leaf.tids.extend(range(extra))


def _underfill_leaf(tree):
    leaf = _leaves(tree)[1]
    del leaf.keys[1:]
    del leaf.tids[1:]


def _key_below_separator(tree):
    leaves = _leaves(tree)
    leaves[2].keys[0] = leaves[1].keys[0]


def _key_not_below_separator(tree):
    leaves = _leaves(tree)
    leaves[1].keys[-1] = leaves[2].keys[-1]


def _bump_height(tree):
    tree.height += 1


def _skip_leaf_in_chain(tree):
    leaves = _leaves(tree)
    leaves[0].next_leaf = leaves[2]


def _bump_count(tree):
    tree._count += 1


def _unsort_inner(tree):
    tree.root.keys.insert(0, encode_u64(10_000))
    tree.root.children.insert(0, tree.root.children[0])


def _extra_child(tree):
    tree.root.children.append(tree.root.children[-1])


def _overfill_inner(tree):
    root = tree.root
    extra = root.capacity + 1 - len(root.keys)
    root.keys.extend(encode_u64(10_000 + i) for i in range(extra))
    root.children.extend([root.children[-1]] * extra)


def _underfill_inner(tree):
    inner = tree.root.children[0]
    del inner.keys[:]
    del inner.children[1:]


def _lone_root_child(tree):
    del tree.root.keys[:]
    del tree.root.children[1:]


def _uneven_depths(tree):
    tree.root.children[0] = _leaves(tree)[0]


class TestInvariantChecks:
    @staticmethod
    def build():
        tree = make_tree(leaf_capacity=4, inner_capacity=4)
        values = list(range(0, 400, 4))
        random.Random(3).shuffle(values)
        for v in values:
            tree.insert(encode_u64(v), v)
        tree.check_invariants()
        assert tree.height >= 3
        assert isinstance(tree.root.children[0], InnerNode)
        return tree

    @pytest.mark.parametrize("corrupt, rule", [
        (_swap_leaf_keys, "leaf keys unsorted"),
        (_duplicate_leaf_key, "duplicate keys in leaf"),
        (_overfill_leaf, "leaf overfull"),
        (_underfill_leaf, "leaf underfull"),
        (_key_below_separator, "leaf key below separator"),
        (_key_not_below_separator, "leaf key not below separator"),
        (_bump_height, "height .* != depth"),
        (_skip_leaf_in_chain, "leaf chain disagrees with tree"),
        (_bump_count, "count .* != "),
        (_unsort_inner, "inner keys unsorted"),
        (_extra_child, "children for"),
        (_overfill_inner, "inner overfull"),
        (_underfill_inner, "inner underfull"),
        (_lone_root_child, "fewer than 2 children"),
        (_uneven_depths, "leaves at differing depths"),
    ], ids=lambda v: getattr(v, "__name__", "")[1:] or None)
    def test_corruption_raises(self, corrupt, rule):
        tree = self.build()
        corrupt(tree)
        with pytest.raises(AssertionError, match=rule):
            tree.check_invariants()
