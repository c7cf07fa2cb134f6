"""The B+-tree family's batched read kernels against pinned ledgers.

``BPlusTree`` and ``ElasticBPlusTree`` answer ``lookup_batch`` and
``scan_batch`` through one kernel (probe, sort, window, partition, one
leaf call per group, scatter, admission), and the leaf kernels charge
each group in one ledger call.  That must make the batched reads
cheaper, never different: the answers, the per-category totals and the
order in which categories first appear, the per-tag buckets, the
prefetch-wave tallies, the cache's counters and admission sketch, and
every leaf's access count must stay what the per-item code produced.
The pinned values below were recorded from that code, on fresh models,
over standard leaves, 2-way (compact) and 3-way (compact and learned)
lattices, at wave widths 1 and 4, with the cache on and off.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict

import pytest

from repro.bench.harness import make_u64_environment
from repro.blindi.leaf import CompactLeaf
from repro.btree.leaves import StandardLeaf
from repro.cache import CacheConfig, IndexCache
from repro.keys.encoding import encode_u64

ROWS = 1_200
#: STX bytes per key at the default fill, for the elastic bounds below.
STX_BYTES_PER_KEY = 31.0
LATTICES = {
    "stx": None,
    "standard": ("standard", "compact"),
    "two_way": ("standard", "compact"),
    "three_way": ("standard", "compact", "learned"),
}
#: Fraction of the STX footprint the elastic bound allows: roomy keeps
#: every leaf standard, tight converts most of them.
BOUNDS = {"standard": 1.5, "two_way": 0.4, "three_way": 0.4}
CACHE_BYTES = 16 * 1024


def _build(lattice: str, cached: bool):
    """A loaded index with heat on the low quarter of the key space (so
    the 3-way lattice converts those leaves to learned ones), its cost
    model reset."""
    rng = random.Random(f"batch-kernels:{lattice}")
    if lattice == "stx":
        env = make_u64_environment("stx")
    else:
        # The cache's bytes count against the bound: add its budget.
        bound = STX_BYTES_PER_KEY * ROWS * BOUNDS[lattice]
        env = make_u64_environment(
            "elastic",
            size_bound_bytes=int(bound) + (CACHE_BYTES if cached else 0),
            leaf_kinds=LATTICES[lattice],
        )
    if cached:
        env.index.attach_cache(IndexCache(CacheConfig(
            budget_bytes=CACHE_BYTES, sketch_sample_size=64,
        )))
    values = rng.sample(range(1, 1 << 40), ROWS)
    for i, value in enumerate(values):
        tid = env.table.insert_row(value)
        env.index.insert(env.table.peek_key(tid), tid)
        if i % 50 == 49:
            hot = [v for v in values[:i + 1] if v < 1 << 38]
            for _ in range(40):
                env.index.lookup(encode_u64(rng.choice(hot)))
    env.cost.reset()
    return env, sorted(values), rng


def _leaves(index):
    leaf = index.first_leaf
    while leaf is not None:
        yield leaf
        leaf = leaf.next_leaf


def _play(lattice: str, width: int, cached: bool):
    """Every batched read case on one fresh index; returns what it
    answered and the state it left."""
    env, values, rng = _build(lattice, cached)
    index = env.index
    env.cost.mlp_width = width
    present = [encode_u64(v) for v in values]
    absent = [encode_u64(v + 1) for v in rng.sample(values, 6)]
    # The first few keys of up to three leaves of each kind: one-key and
    # multi-key groups on every kind present.
    by_kind = {}
    with env.cost.paused():
        for leaf in _leaves(index):
            picked = by_kind.setdefault(leaf.kind, [])
            if len(picked) < 3:
                at = present.index(leaf.first_key())
                picked.append(present[at:at + 1 + len(picked)])
    answers = [index.lookup_batch([])]
    # Duplicates, absent keys, scattered singletons and sorted runs of
    # neighbours (multi-key groups).
    mixed = (rng.sample(present, 12) + present[40:52] + absent
             + present[40:43] + [present[-1], present[0]]
             + [key for runs in by_kind.values() for run in runs
                for key in run])
    rng.shuffle(mixed)
    answers.append(index.lookup_batch(mixed))
    answers.append(index.lookup_batch([present[7]]))
    answers.append(index.lookup_batch(rng.sample(present, 24)))
    if cached:
        # Keys the row tier admitted: an all-hit batch.
        resident = list(index.cache._rows)[:5]
        answers.append(("resident", len(resident)))
        answers.append(index.lookup_batch(resident + resident[:2]))
    answers.append(index.lookup_batch(mixed))
    answers.append(index.scan_batch([], 5))
    answers.append(index.scan_batch(rng.sample(present, 3), 0))
    # A scan that ends exactly at a leaf's last item.
    leaves = list(_leaves(index))
    leaf = leaves[len(leaves) // 2]
    with env.cost.paused():
        first = leaf.first_key()
    answers.append(index.scan_batch([first], leaf.count))
    # Scans that spill across several (compact and learned) leaves,
    # from present, absent and out-of-range starts.
    starts = (rng.sample(present, 5) + absent[:3]
              + [present[0], encode_u64(0), encode_u64((1 << 64) - 1)])
    answers.append(index.scan_batch(starts, 45))
    answers.append(index.scan_batch(starts[:4] + starts[:2], 7))
    kinds = sorted({leaf.kind for leaf in _leaves(index)})
    state = {
        "answers": answers,
        "counts": list(env.cost.counts.items()),
        "tagged": [
            (tag, list(bucket.items()))
            for tag, bucket in env.cost.tagged.items()
        ],
        "mlp_totals": asdict(env.cost.mlp_totals),
        "access": [leaf.access_count for leaf in _leaves(index)],
        "kinds": kinds,
    }
    if cached:
        cache = index.cache
        sketch = cache._sketch
        state["cache"] = asdict(cache.stats)
        state["rows"] = list(cache._rows.items())
        state["sketch"] = (
            hashlib.sha256(b"".join(sketch._rows)).hexdigest()[:16],
            sketch._samples,
        )
    return state


def _digest(state) -> str:
    return hashlib.sha256(repr(state).encode()).hexdigest()[:16]


COMBOS = [
    (lattice, width, cached)
    for lattice in LATTICES
    for width in (1, 4)
    for cached in (False, True)
]


def _combo_id(combo) -> str:
    lattice, width, cached = combo
    return f"{lattice}-w{width}-{'cache' if cached else 'nocache'}"


#: Recorded from the per-item kernels (same seeds): the digest of the
#: whole state, plus the ledger in the clear.
PINNED = {'stx-w1-nocache': ('97dab672dae26fc3',
                    [('rand_line', 315),
                     ('compare', 885),
                     ('branch', 885),
                     ('seq_line', 213)]),
 'stx-w1-cache': ('eb9ac9e0134ab1e2',
                  [('cache_hit', 107),
                   ('rand_line', 315),
                   ('compare', 885),
                   ('branch', 885),
                   ('seq_line', 213)]),
 'stx-w4-nocache': ('af9cc9f5ec197ce4',
                    [('rand_line', 188),
                     ('wave_issue', 45),
                     ('compare', 885),
                     ('branch', 885),
                     ('seq_line', 213)]),
 'stx-w4-cache': ('9e3a2fae0e34b948',
                  [('cache_hit', 107),
                   ('rand_line', 188),
                   ('wave_issue', 45),
                   ('compare', 885),
                   ('branch', 885),
                   ('seq_line', 213)]),
 'standard-w1-nocache': ('8816a708b3c17dcd',
                         [('rand_line', 324),
                          ('compare', 890),
                          ('branch', 890),
                          ('seq_line', 213)]),
 'standard-w1-cache': ('6377f55625c7902c',
                       [('cache_hit', 107),
                        ('rand_line', 324),
                        ('compare', 890),
                        ('branch', 890),
                        ('seq_line', 213)]),
 'standard-w4-nocache': ('0467e75ff365b27a',
                         [('rand_line', 191),
                          ('wave_issue', 49),
                          ('compare', 890),
                          ('branch', 890),
                          ('seq_line', 213)]),
 'standard-w4-cache': ('c120a29ead7ce798',
                       [('cache_hit', 107),
                        ('rand_line', 191),
                        ('wave_issue', 49),
                        ('compare', 890),
                        ('branch', 890),
                        ('seq_line', 213)]),
 'two_way-w1-nocache': ('7eca77619248d625',
                        [('rand_line', 264),
                         ('compare', 2260),
                         ('branch', 2136),
                         ('seq_line', 225),
                         ('key_load_batched', 628),
                         ('key_load', 18)]),
 'two_way-w1-cache': ('b55bf33e2ec8819d',
                      [('cache_hit', 126),
                       ('rand_line', 226),
                       ('compare', 941),
                       ('branch', 901),
                       ('seq_line', 165),
                       ('key_load_batched', 354),
                       ('alloc', 1),
                       ('key_load', 8)]),
 'two_way-w4-nocache': ('403f9f5a36b9773e',
                        [('rand_line', 201),
                         ('wave_issue', 185),
                         ('compare', 2260),
                         ('branch', 2136),
                         ('seq_line', 225),
                         ('key_load', 179)]),
 'two_way-w4-cache': ('5e30a066c258517e',
                      [('cache_hit', 126),
                       ('rand_line', 151),
                       ('wave_issue', 117),
                       ('compare', 941),
                       ('branch', 901),
                       ('seq_line', 165),
                       ('key_load', 98),
                       ('alloc', 1)]),
 'three_way-w1-nocache': ('1278a344b1192296',
                          [('rand_line', 230),
                           ('compare', 1594),
                           ('branch', 1520),
                           ('seq_line', 199),
                           ('model_eval', 63),
                           ('key_load_batched', 675),
                           ('key_load', 22)]),
 'three_way-w1-cache': ('6a75c18903774dfe',
                        [('cache_hit', 138),
                         ('rand_line', 252),
                         ('compare', 1109),
                         ('branch', 1065),
                         ('seq_line', 198),
                         ('model_eval', 6),
                         ('key_load_batched', 422),
                         ('alloc', 1),
                         ('key_load', 13)]),
 'three_way-w4-nocache': ('dff1b2f6b24f81f8',
                          [('rand_line', 160),
                           ('wave_issue', 198),
                           ('compare', 1594),
                           ('branch', 1520),
                           ('seq_line', 199),
                           ('model_eval', 63),
                           ('key_load', 194)]),
 'three_way-w4-cache': ('dd9aaf258d490fb4',
                        [('cache_hit', 138),
                         ('rand_line', 169),
                         ('wave_issue', 139),
                         ('compare', 1109),
                         ('branch', 1065),
                         ('seq_line', 198),
                         ('model_eval', 6),
                         ('key_load', 121),
                         ('alloc', 1)])}


@pytest.fixture(scope="module", params=COMBOS, ids=_combo_id)
def played(request):
    return _combo_id(request.param), _play(*request.param)


class TestPinnedLedgers:
    def test_shape_reaches_the_leaf_kinds(self, played):
        name, state = played
        lattice = name.split("-")[0]
        expected = {
            "stx": ["standard"],
            "standard": ["standard"],
            "two_way": ["compact", "standard"],
            "three_way": ["compact", "learned", "standard"],
        }[lattice]
        assert state["kinds"] == expected
        tags = sorted(tag for tag, _ in state["tagged"])
        assert tags == [f"{kind}.search" for kind in expected[:-1]]
        if "-cache" in name and lattice in ("two_way", "three_way"):
            assert state["cache"]["row_hits"] > 0

    def test_counts_and_order(self, played):
        name, state = played
        assert state["counts"] == PINNED[name][1]

    def test_whole_state(self, played):
        name, state = played
        assert _digest(state) == PINNED[name][0]


class TestWindowOnError:
    """A batch that fails mid-window still closes the window: partial
    waves flush, ``_wave`` is cleared, and a leaf kernel's hand-set tag
    and ``mlp_batch`` depth are restored."""

    @staticmethod
    def _fail_once(monkeypatch, cls, method, after):
        """Make ``cls.method`` raise on its call number ``after + 1``."""
        original = getattr(cls, method)
        calls = []

        def failing(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == after + 1:
                raise RuntimeError("boom")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, failing)

    def test_standard_leaf_failure(self, monkeypatch):
        env, values, rng = _build("standard", cached=False)
        cost = env.cost
        cost.mlp_width = 4
        keys = [encode_u64(v) for v in rng.sample(values, 20)]
        self._fail_once(monkeypatch, StandardLeaf, "lookup_batch", 3)
        with pytest.raises(RuntimeError, match="boom"):
            env.index.lookup_batch(keys)
        assert cost._wave is None
        totals = cost.mlp_totals
        # Every load issued before the failure was priced, the partial
        # wave included: all of them are rand_line loads, so each wave
        # charged one rand_line and one wave_issue, and none is pending.
        assert totals.loads > 0
        assert totals.waves == -(-totals.loads // 4)
        assert cost.counts["wave_issue"] == totals.waves
        assert cost.counts["rand_line"] == totals.waves
        # The model stays usable: the same batch now answers in full.
        assert env.index.lookup_batch(keys) == [
            env.index.lookup(key) for key in keys
        ]

    def test_compact_leaf_failure(self, monkeypatch):
        env, values, rng = _build("two_way", cached=False)
        cost = env.cost
        cost.mlp_width = 4
        keys = [encode_u64(v) for v in rng.sample(values, 40)]
        compact = next(
            leaf for leaf in _leaves(env.index) if leaf.kind == "compact"
        )
        assert isinstance(compact, CompactLeaf)
        self._fail_once(monkeypatch, type(compact.rep), "search", 5)
        with pytest.raises(RuntimeError, match="boom"):
            env.index.lookup_batch(keys)
        assert cost._wave is None
        assert cost._mlp_depth == 0
        assert cost._attribution == ""
        assert cost.counts["wave_issue"] == cost.mlp_totals.waves
        assert env.index.lookup_batch(keys) == [
            env.index.lookup(key) for key in keys
        ]
