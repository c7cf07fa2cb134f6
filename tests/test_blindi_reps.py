"""Correctness tests for the blind-trie representations.

Every representation is exercised against the sorted reference model:
predecessor search semantics, incremental insert/remove, splits and
merges, and the structural invariant checkers (which recompute the
expected discriminating bits from the actual keys).
"""

import random
from contextlib import nullcontext
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.blindi.seqtrie import SearchResult, SeqTrieRep
from repro.blindi.seqtree import ET, SeqTreeRep
from repro.blindi.subtrie import SubTrieRep
from repro.keys.bitops import first_diff_bit, get_bit
from repro.keys.encoding import encode_u64
from repro.memory.cost_model import CostModel
from repro.table.table import Table

from tests.conftest import SortedModel, U64Source

REPS = [
    pytest.param(SeqTrieRep, {}, id="seqtrie"),
    pytest.param(SeqTreeRep, {"levels": 0}, id="seqtree-l0"),
    pytest.param(SeqTreeRep, {"levels": 2}, id="seqtree-l2"),
    pytest.param(SeqTreeRep, {"levels": 5}, id="seqtree-l5"),
    pytest.param(SubTrieRep, {}, id="subtrie"),
]


def build_rep(rep_cls, kwargs, source, values):
    """Build a representation over sorted distinct values."""
    values = sorted(set(values))
    pairs = [source.add(v) for v in values]
    keys = [k for k, _ in pairs]
    tids = [t for _, t in pairs]
    return rep_cls.from_sorted(
        keys, tids, source.table, 8, source.cost, **kwargs
    )


@pytest.mark.parametrize("rep_cls,kwargs", REPS)
class TestSearch:
    def test_empty(self, rep_cls, kwargs):
        source = U64Source()
        rep = rep_cls(source.table, 8, source.cost, **kwargs)
        result = rep.search(encode_u64(5))
        assert not result.found
        assert result.pred == -1

    def test_single_key(self, rep_cls, kwargs):
        source = U64Source()
        rep = build_rep(rep_cls, kwargs, source, [100])
        assert rep.search(encode_u64(100)).found
        r = rep.search(encode_u64(50))
        assert not r.found and r.pred == -1
        r = rep.search(encode_u64(150))
        assert not r.found and r.pred == 0

    def test_found_positions(self, rep_cls, kwargs):
        source = U64Source()
        values = [3, 17, 19, 130, 131, 186, 255]
        rep = build_rep(rep_cls, kwargs, source, values)
        for pos, v in enumerate(values):
            result = rep.search(encode_u64(v))
            assert result.found, f"value {v} not found"
            assert result.pos == pos

    def test_predecessor_semantics(self, rep_cls, kwargs):
        source = U64Source()
        values = [10, 20, 30, 40, 50]
        rep = build_rep(rep_cls, kwargs, source, values)
        cases = {5: -1, 10: 0, 15: 0, 25: 1, 45: 3, 50: 4, 99: 4}
        for probe, expected_pred in cases.items():
            result = rep.search(encode_u64(probe))
            assert result.pred == expected_pred, f"probe {probe}"

    def test_dense_then_probe_everything(self, rep_cls, kwargs):
        source = U64Source()
        values = list(range(0, 64, 2))
        rep = build_rep(rep_cls, kwargs, source, values)
        for probe in range(-0, 66):
            result = rep.search(encode_u64(probe))
            expected_found = probe in values and probe < 64
            assert result.found == expected_found, f"probe {probe}"

    def test_adversarial_prefixes(self, rep_cls, kwargs):
        # Keys chosen so discriminating bits are highly non-uniform.
        source = U64Source()
        values = [0, 1, 2, 3, 2**63, 2**63 + 1, 2**63 + 2**32, 2**64 - 1]
        rep = build_rep(rep_cls, kwargs, source, values)
        svalues = sorted(values)
        probes = values + [4, 2**62, 2**63 + 5, 2**63 - 1]
        for probe in probes:
            result = rep.search(encode_u64(probe))
            assert result.found == (probe in values)
            if not result.found:
                expected = max(
                    (i for i, v in enumerate(svalues) if v <= probe), default=-1
                )
                assert result.pred == expected, f"probe {probe}"


@pytest.mark.parametrize("rep_cls,kwargs", REPS)
class TestIncremental:
    def test_insert_one_by_one(self, rep_cls, kwargs):
        source = U64Source()
        rep = rep_cls(source.table, 8, source.cost, **kwargs)
        values = [50, 10, 90, 30, 70, 20, 80, 40, 60, 0, 100]
        inserted = []
        for v in values:
            key, tid = source.add(v)
            result = rep.search(key)
            assert not result.found
            rep.insert_new(result, key, tid)
            inserted.append(v)
            rep.check_invariants()
            for w in inserted:
                assert rep.search(encode_u64(w)).found, f"{w} after insert {v}"

    def test_remove_one_by_one(self, rep_cls, kwargs):
        source = U64Source()
        values = list(range(0, 160, 10))
        rep = build_rep(rep_cls, kwargs, source, values)
        random.Random(7).shuffle(values)
        remaining = set(values)
        for v in values:
            result = rep.search(encode_u64(v))
            assert result.found
            rep.remove_at(result.pos)
            remaining.discard(v)
            rep.check_invariants()
            for w in remaining:
                assert rep.search(encode_u64(w)).found

    def test_replace_tid(self, rep_cls, kwargs):
        source = U64Source()
        rep = build_rep(rep_cls, kwargs, source, [1, 2, 3])
        result = rep.search(encode_u64(2))
        _, new_tid = source.add(2)
        old = rep.replace_tid(result.pos, new_tid)
        assert rep.tid_at(result.pos) == new_tid
        assert old != new_tid


@pytest.mark.parametrize("rep_cls,kwargs", REPS)
class TestStructural:
    def test_split(self, rep_cls, kwargs):
        source = U64Source()
        values = list(range(0, 200, 7))
        rep = build_rep(rep_cls, kwargs, source, values)
        n = rep.n
        right = rep.split()
        assert rep.n == n // 2
        assert right.n == n - n // 2
        rep.check_invariants()
        right.check_invariants()
        svalues = sorted(values)
        for v in svalues[: n // 2]:
            assert rep.search(encode_u64(v)).found
        for v in svalues[n // 2 :]:
            assert right.search(encode_u64(v)).found

    def test_merge(self, rep_cls, kwargs):
        source = U64Source()
        left = build_rep(rep_cls, kwargs, source, list(range(0, 50, 5)))
        right = build_rep(rep_cls, kwargs, source, list(range(100, 150, 5)))
        left.merge_from(right)
        left.check_invariants()
        assert left.n == 20
        for v in list(range(0, 50, 5)) + list(range(100, 150, 5)):
            assert left.search(encode_u64(v)).found

    def test_split_then_merge_roundtrip(self, rep_cls, kwargs):
        source = U64Source()
        values = list(range(0, 64, 3))
        rep = build_rep(rep_cls, kwargs, source, values)
        right = rep.split()
        rep.merge_from(right)
        rep.check_invariants()
        assert rep.n == len(values)

    def test_merge_into_empty(self, rep_cls, kwargs):
        source = U64Source()
        empty = rep_cls(source.table, 8, source.cost, **kwargs)
        right = build_rep(rep_cls, kwargs, source, [1, 2, 3])
        empty.merge_from(right)
        empty.check_invariants()
        assert empty.n == 3

    def test_append_run(self, rep_cls, kwargs):
        from repro.keys.bitops import first_diff_bit

        source = U64Source()
        rep = build_rep(rep_cls, kwargs, source, [1, 2, 3])
        run_pairs = [source.add(v) for v in (10, 11, 12)]
        boundary = first_diff_bit(encode_u64(3), encode_u64(10))
        rep.append_run(
            [k for k, _ in run_pairs], [t for _, t in run_pairs], boundary
        )
        rep.check_invariants()
        assert rep.n == 6


def _arrays(rep):
    """Copies of every list a representation keeps (tids, bits, tree,
    preorder arrays)."""
    return {name: list(v) for name, v in vars(rep).items()
            if isinstance(v, list)}


@pytest.mark.parametrize("rep_cls,kwargs", REPS)
class TestStateGuards:
    """Guards that hold under ``python -O``: each raises ValueError
    before anything is mutated."""

    def test_insert_of_a_found_result_raises(self, rep_cls, kwargs):
        source = U64Source()
        rep = build_rep(rep_cls, kwargs, source, [1, 5, 9, 12])
        key, tid = source.add(5)
        result = rep.search(key)
        assert result.found
        before = _arrays(rep)
        with pytest.raises(ValueError, match="missed search"):
            rep.insert_new(result, key, tid)
        assert _arrays(rep) == before

    def test_merge_of_overlapping_ranges_raises(self, rep_cls, kwargs):
        source = U64Source()
        left = build_rep(rep_cls, kwargs, source, [1, 2, 3])
        right = build_rep(rep_cls, kwargs, source, [3, 4])
        before = _arrays(left), _arrays(right)
        with pytest.raises(ValueError, match="overlapping key ranges"):
            left.merge_from(right)
        assert (_arrays(left), _arrays(right)) == before


@pytest.mark.parametrize("rep_cls,kwargs", REPS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rep_matches_model(rep_cls, kwargs, data):
    source = U64Source()
    rep = rep_cls(source.table, 8, source.cost, **kwargs)
    model = SortedModel()
    ops = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "remove", "search"]),
                st.integers(min_value=0, max_value=60),
            ),
            max_size=80,
        )
    )
    for op, value in ops:
        key = encode_u64(value)
        result = rep.search(key)
        model_pred = model.predecessor_pos(key)
        assert result.found == (model.lookup(key) is not None)
        assert result.pred == model_pred
        if op == "insert" and not result.found:
            _, tid = source.add(value)
            rep.insert_new(result, key, tid)
            model.insert(key, tid)
        elif op == "remove" and result.found:
            rep.remove_at(result.pos)
            model.remove(key)
    rep.check_invariants()


class Bytes16Source:
    """A table of raw 16-byte keys (rows are the keys themselves)."""

    def __init__(self):
        from repro.memory.cost_model import CostModel
        from repro.table.table import Table

        self.cost = CostModel()
        self.table = Table(
            key_of_row=lambda row: row, row_bytes=48, cost_model=self.cost
        )

    def add(self, key: bytes):
        return key, self.table.insert_row(key)


@pytest.mark.parametrize("rep_cls,kwargs", REPS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_rep_matches_model_wide_keys(rep_cls, kwargs, data):
    """Same model-equivalence property with random 16-byte keys, whose
    discriminating bits span the full 128-bit range."""
    source = Bytes16Source()
    rep = rep_cls(source.table, 16, source.cost, **kwargs)
    from tests.conftest import SortedModel as _Model

    model = _Model()
    keys_pool = data.draw(
        st.lists(st.binary(min_size=16, max_size=16), min_size=1,
                 max_size=40, unique=True)
    )
    ops = data.draw(
        st.lists(
            st.tuples(st.sampled_from(["insert", "remove", "search"]),
                      st.integers(min_value=0, max_value=len(keys_pool) - 1)),
            max_size=60,
        )
    )
    for op, key_index in ops:
        key = keys_pool[key_index]
        result = rep.search(key)
        assert result.found == (model.lookup(key) is not None)
        assert result.pred == model.predecessor_pos(key)
        if op == "insert" and not result.found:
            _, tid = source.add(key)
            rep.insert_new(result, key, tid)
            model.insert(key, tid)
        elif op == "remove" and result.found:
            rep.remove_at(result.pos)
            model.remove(key)
    rep.check_invariants()


class TestSeqTreeSpecifics:
    def test_tree_array_size(self):
        source = U64Source()
        rep = SeqTreeRep(source.table, 8, source.cost, levels=3)
        assert len(rep.tree) == 7
        assert all(slot == ET for slot in rep.tree)

    def test_levels_zero_is_seqtrie(self):
        source = U64Source()
        rep = SeqTreeRep(source.table, 8, source.cost, levels=0)
        assert rep.tree == []

    def test_tree_points_at_minima(self):
        source = U64Source()
        values = list(range(0, 256, 4))
        pairs = [source.add(v) for v in values]
        rep = SeqTreeRep.from_sorted(
            [k for k, _ in pairs], [t for _, t in pairs],
            source.table, 8, source.cost, levels=3,
        )
        # Root must point at the global minimum discriminating bit.
        assert rep.bits[rep.tree[0]] == min(rep.bits)
        rep.check_invariants()

    def test_search_scans_less_with_tree(self):
        values = list(range(1024))
        source_flat = U64Source()
        flat = build_rep(SeqTreeRep, {"levels": 0}, source_flat, values)
        source_tree = U64Source()
        deep = build_rep(SeqTreeRep, {"levels": 5}, source_tree, values)
        probe = encode_u64(777)
        source_flat.cost.reset()
        flat.search(probe)
        flat_compares = source_flat.cost.counts.get("compare", 0)
        source_tree.cost.reset()
        deep.search(probe)
        deep_compares = source_tree.cost.counts.get("compare", 0)
        assert deep_compares < flat_compares / 4

    def test_payload_grows_with_levels(self):
        source = U64Source()
        small = SeqTreeRep(source.table, 8, levels=2)
        large = SeqTreeRep(source.table, 8, levels=6)
        assert large.payload_bytes(128) > small.payload_bytes(128)
        # Levels 1-3 ride in alignment slack: same payload as level 0.
        level0 = SeqTreeRep(source.table, 8, levels=0)
        level3 = SeqTreeRep(source.table, 8, levels=3)
        assert level3.payload_bytes(128) <= level0.payload_bytes(128) + 0


class TestSubTrieSpecifics:
    def test_space_overhead_vs_seqtrie(self):
        source = U64Source()
        sub = SubTrieRep(source.table, 8)
        seq = SeqTrieRep(source.table, 8)
        # SubTrie needs ~2 B/key, SeqTrie ~1 B/key (section 5.1).
        assert sub.payload_bytes(128) == 2 * seq.payload_bytes(128)

    def test_lsize_two_bytes_above_256(self):
        source = U64Source()
        sub = SubTrieRep(source.table, 8)
        assert sub.entry_bytes(256) == 2
        assert sub.entry_bytes(512) == 3

    def test_search_cost_logarithmic(self):
        source = U64Source()
        values = list(range(512))
        rep = build_rep(SubTrieRep, {}, source, values)
        source.cost.reset()
        rep.search(encode_u64(300))
        # A balanced 512-key trie descends ~9-18 nodes, far below n.
        assert source.cost.counts.get("compare", 0) < 40


# ----------------------------------------------------------------------
# Per-search ledger: the one-pass kernel against a per-phase reference
# ----------------------------------------------------------------------


def _reference_seqtrie_search(rep, key):
    """SeqTrie/SeqTree search charged phase by phase: the BlindiTree walk
    charges its line, compares and branches after its loop, the scan
    prices its bytes through ``touch_bytes_seq`` and then its compares
    and branches, the verify load is followed by its compare, and a miss
    runs the rep's boundary scans with the turns recorded on the way
    down, each scan charging its bytes (``touch_bytes_seq``), then its
    compares, then its branches."""
    if not rep.tids:
        return SearchResult(found=False, pos=0, pred=-1)
    cost = rep.cost
    bits = rep.bits
    tree = getattr(rep, "tree", ())
    lo, hi, j = 0, len(bits) - 1, 0
    left_turns, right_turns = [], []
    if tree:
        slot = steps = 0
        while slot < len(tree) and tree[slot] != ET:
            m = tree[slot]
            steps += 1
            if get_bit(key, bits[m]):
                j = lo = m + 1
                right_turns.append(m)
                slot = 2 * slot + 2
            else:
                hi = m - 1
                left_turns.append(m)
                slot = 2 * slot + 1
        cost.charge("seq_line", 1)
        cost.charge("compare", steps)
        cost.charge("branch", steps)
    count = hi - lo + 1
    if count > 0:
        cost.touch_bytes_seq(count * rep.bit_entry_bytes)
        cost.charge("compare", count)
        cost.charge("branch", count)
        threshold = None
        for i in range(lo, hi + 1):
            if threshold is not None and bits[i] > threshold:
                continue
            if get_bit(key, bits[i]):
                j = i + 1
                threshold = None
            else:
                threshold = bits[i]
    candidate = rep.table.load_key(rep.tids[j])
    cost.charge("compare", 1)
    b_d = first_diff_bit(candidate, key)
    if b_d is None:
        return SearchResult(found=True, pos=j, pred=j)
    descent = SimpleNamespace(lo=lo, hi=hi, left_turn_inds=left_turns,
                              right_turn_inds=right_turns)

    def charge_fixup(scanned):
        if scanned:
            cost.touch_bytes_seq(scanned * rep.bit_entry_bytes)
            cost.charge("compare", scanned)
            cost.charge("branch", scanned)

    scans = SimpleNamespace(bits=bits, tids=rep.tids,
                            _charge_fixup=charge_fixup)
    if get_bit(key, b_d):
        pred = SeqTrieRep._boundary_right(scans, descent, j, b_d)
        return SearchResult(False, pred + 1, pred, b_d, pred, True)
    pred = SeqTrieRep._boundary_left(scans, descent, j, b_d)
    return SearchResult(False, pred + 1, pred, b_d, pred + 1, False)


def _reference_subtrie_search(rep, key):
    """SubTrie search charging a compare, a branch and a line per level
    of the candidate descent and of the fixup descent."""
    if rep.n == 0:
        return SearchResult(found=False, pos=0, pred=-1)
    cost = rep.cost

    def descend(b_d):
        p, kbase, m = 0, 0, len(rep.pre_bits)
        while m > 0:
            cost.charge("compare", 1)
            cost.charge("branch", 1)
            cost.charge("seq_line", 1)
            if b_d is not None and rep.pre_bits[p] > b_d:
                break
            ls = rep.lsize[p]
            if get_bit(key, rep.pre_bits[p]):
                kbase, p, m = kbase + ls, p + ls, m - ls
            else:
                p, m = p + 1, ls - 1
        return kbase, m

    j, _ = descend(None)
    candidate = rep.table.load_key(rep.tids[j])
    cost.charge("compare", 1)
    b_d = first_diff_bit(candidate, key)
    if b_d is None:
        return SearchResult(found=True, pos=j, pred=j)
    greater = bool(get_bit(key, b_d))
    kbase, m = descend(b_d)
    pred = kbase + m if greater else kbase - 1
    return SearchResult(False, pred + 1, pred, b_d, skey_greater=greater)


def _ledger(rep, search, key, tag):
    """Run one search on a fresh cost model; return its result, its
    counts in first-charge order and its tag buckets."""
    cost = CostModel()
    rep.cost = rep.table.cost_model = cost
    with cost.attributed_to(tag) if tag else nullcontext():
        result = search(key)
    buckets = {name: list(b.items()) for name, b in cost.tagged.items()}
    return result, list(cost.counts.items()), buckets


LEDGER_REPS = [
    pytest.param(SeqTrieRep, {}, _reference_seqtrie_search, id="seqtrie"),
    *(
        pytest.param(SeqTreeRep, {"levels": levels},
                     _reference_seqtrie_search, id=f"seqtree-l{levels}")
        for levels in (0, 1, 2, 3, 6)
    ),
    pytest.param(SubTrieRep, {}, _reference_subtrie_search, id="subtrie"),
]


@pytest.mark.parametrize("width", [8, 40])
@pytest.mark.parametrize("rep_cls,kwargs,reference", LEDGER_REPS)
def test_search_ledger_matches_reference(rep_cls, kwargs, reference, width):
    """Totals, first-charge order, tag buckets and every SearchResult
    field equal the per-phase reference for hits, near misses, 0 and
    the maximum key, with and without the leaf's search tag."""
    rng = random.Random(f"ledger:{width}")
    top = (1 << 8 * width) - 1
    table = Table(key_of_row=lambda v: v.to_bytes(width, "big"),
                  row_bytes=width + 8, cost_model=CostModel())
    for n in (1, 2, 3, 9, 64, 65, 300):
        values = set()
        while len(values) < n:
            values.add(rng.getrandbits(8 * width))
        values = sorted(values)
        keys = [v.to_bytes(width, "big") for v in values]
        tids = [table.insert_row(v) for v in values]
        rep = rep_cls.from_sorted(keys, tids, table, width, CostModel(),
                                  **kwargs)
        probes = {0, top}
        for v in values:
            probes.update((v - 1, v, v + 1))
        for probe in sorted(p for p in probes if 0 <= p <= top):
            key = probe.to_bytes(width, "big")
            for tag in (None, "compact.search"):
                assert _ledger(rep, rep.search, key, tag) == _ledger(
                    rep, partial(reference, rep), key, tag
                ), (n, probe, tag)


def _node_access_then_search(rep, key):
    """The leaf's node access charged on its own, then the search."""
    rep.cost.charge("rand_line", 1)
    return rep.search(key)


@pytest.mark.parametrize("rep_cls,kwargs", REPS)
def test_node_lines_join_the_search_charge(rep_cls, kwargs):
    """``search(key, node_lines=1)`` leaves the totals, first-charge
    order, tag buckets and result of a ``rand_line`` charged just before
    ``search(key)``: on an empty rep, a 1-key rep and larger ones, for
    hits and misses, with and without the leaf's search tag."""
    rng = random.Random("node-lines")
    table = Table(key_of_row=lambda v: v.to_bytes(8, "big"), row_bytes=16,
                  cost_model=CostModel())
    for n in (0, 1, 2, 9, 65, 300):
        values = sorted(rng.sample(range(1, 1 << 40), n))
        keys = [v.to_bytes(8, "big") for v in values]
        tids = [table.insert_row(v) for v in values]
        rep = rep_cls.from_sorted(keys, tids, table, 8, CostModel(),
                                  **kwargs)
        probes = {0, 1 << 41}
        for v in values:
            probes.update((v - 1, v, v + 1))
        for probe in sorted(probes):
            key = probe.to_bytes(8, "big")
            for tag in (None, "compact.search"):
                joined = _ledger(rep, partial(rep.search, node_lines=1),
                                 key, tag)
                assert joined == _ledger(
                    rep, partial(_node_access_then_search, rep), key, tag
                ), (n, probe, tag)
