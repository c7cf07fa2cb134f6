"""Accounting identity of the scalar, batched and write hot paths.

The descent, leaf-search and facade fast paths aggregate their charges
(one ``CostModel.charge`` per category per descent instead of one per
level, attribution set without the context manager, key encoders picked
once per index), the batched read path charges its row fetches and
cache probes once per batch, and the write path tallies its BlindiTree
maintenance and re-materializes a leaf's keys in one charge.  That must
make accounting cheaper, never different: the per-category totals, the
order in which categories first appear (``weighted_cost`` sums in dict
order, so a reorder can move the last float bit of a baseline) and the
per-tag buckets must all stay exactly what the per-item code charged.
The pinned values below were recorded from that code.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import asdict

import pytest

from repro import obs
from repro.cache import CacheConfig
from repro.db.database import Database, _encode_column
from repro.memory.cost_model import CostModel
from repro.table.table import RowSchema, Table
from repro.tuning.advisor import _SampleView
from repro.wal import WalConfig

KV = RowSchema("kv", ("k", "v"), (8, 8))
ROWS = 3_000
LOAD_CHUNK = 500
OPS = 600
BATCH_OPS = 240
#: 0.4x the STX footprint of ROWS 8-byte keys: most leaves go compact.
TIGHT_BOUND = int(31.0 * ROWS * 0.4)


def _run_mix(leaf_kinds):
    """Load a tight elastic index (plus a cached one), then play a fixed
    seeded mix of scalar gets, scans, inserts and deletes through the
    facade.  Returns the database and the load-phase counts."""
    rng = random.Random(f"hot-path:{len(leaf_kinds)}")
    db = Database()
    table = db.create_table(KV)
    table.create_index(
        "by_k", ("k",), kind="elastic", size_bound_bytes=TIGHT_BOUND,
        leaf_kinds=leaf_kinds,
    )
    table.create_index(
        "by_v", ("v",), kind="elastic", size_bound_bytes=TIGHT_BOUND,
        cache=CacheConfig(budget_bytes=16 * 1024),
    )
    taken = set()

    def fresh():
        while True:
            key = rng.getrandbits(64)
            if key not in taken:
                taken.add(key)
                return key

    rows = [(fresh(), fresh()) for _ in range(ROWS)]
    live = {}
    for start in range(0, ROWS, LOAD_CHUNK):
        chunk = rows[start:start + LOAD_CHUNK]
        live.update(zip(table.insert_batch(chunk), chunk))
        # Reads on the low quarter of the key space make those leaves
        # hot, so a 3-way lattice converts them to learned leaves.
        hot = [row for row in rows[:start + LOAD_CHUNK] if row[0] < 1 << 62]
        for _ in range(300):
            row = rng.choice(hot)
            assert table.get("by_k", (row[0],)) == row
    load_counts = list(db.cost.counts.items())
    db.cost.reset()
    for _ in range(OPS):
        roll = rng.random()
        if roll < 0.40:
            tid = rng.choice(sorted(live))
            assert table.get("by_k", (live[tid][0],)) == live[tid]
        elif roll < 0.50:
            assert table.get("by_k", (fresh(),)) is None
        elif roll < 0.60:
            tid = rng.choice(sorted(live))
            assert table.get("by_v", (live[tid][1],)) == live[tid]
        elif roll < 0.70:
            table.scan("by_k", (rng.getrandbits(64),), count=8)
        elif roll < 0.85:
            row = (fresh(), fresh())
            live[table.insert(row)] = row
        else:
            tid = rng.choice(sorted(live))
            assert table.delete(tid) == live.pop(tid)
    return db, load_counts


#: Recorded from the level-by-level charging code (same seeds).
PINNED = {'two_way': {'load': [('alloc', 4293),
                      ('seq_line', 16611),
                      ('rand_line', 31074),
                      ('compare', 115209),
                      ('branch', 96505),
                      ('copy_line', 14812),
                      ('free', 918),
                      ('key_load', 4067)],
             'counts': [('cache_hit', 140),
                        ('rand_line', 4734),
                        ('compare', 21025),
                        ('branch', 19159),
                        ('seq_line', 2323),
                        ('key_load', 775),
                        ('alloc', 159),
                        ('key_load_batched', 448),
                        ('copy_line', 1366),
                        ('free', 156)],
             'tagged': {'compact.search': [('rand_line', 1670),
                                           ('seq_line', 2157),
                                           ('compare', 12274),
                                           ('branch', 11555),
                                           ('key_load', 719)],
                        'compact.update': [('copy_line', 1265),
                                           ('compare', 1809),
                                           ('branch', 718),
                                           ('rand_line', 392),
                                           ('free', 30),
                                           ('alloc', 30)],
                        'elastic.convert': [('copy_line', 88),
                                            ('alloc', 33),
                                            ('rand_line', 17),
                                            ('free', 34),
                                            ('key_load_batched', 16)]}},
 'three_way': {'load': [('alloc', 4361),
                        ('seq_line', 15541),
                        ('rand_line', 28976),
                        ('compare', 108362),
                        ('branch', 90839),
                        ('copy_line', 15129),
                        ('free', 968),
                        ('key_load', 6573),
                        ('model_eval', 1372),
                        ('key_load_batched', 1684)],
               'counts': [('rand_line', 4556),
                          ('compare', 20593),
                          ('branch', 18617),
                          ('seq_line', 2152),
                          ('model_eval', 127),
                          ('key_load', 998),
                          ('copy_line', 1493),
                          ('free', 153),
                          ('cache_hit', 119),
                          ('alloc', 158),
                          ('key_load_batched', 923)],
               'tagged': {'learned.search': [('rand_line', 113),
                                             ('seq_line', 226),
                                             ('model_eval', 113),
                                             ('compare', 533),
                                             ('branch', 533),
                                             ('key_load', 314)],
                          'compact.search': [('rand_line', 1378),
                                             ('seq_line', 1767),
                                             ('compare', 10735),
                                             ('branch', 10146),
                                             ('key_load', 589)],
                          'compact.update': [('copy_line', 1263),
                                             ('compare', 1610),
                                             ('branch', 626),
                                             ('rand_line', 339),
                                             ('free', 23),
                                             ('alloc', 23)],
                          'learned.update': [('copy_line', 145),
                                             ('free', 3),
                                             ('alloc', 3),
                                             ('rand_line', 3)],
                          'learned.retrain': [('rand_line', 9),
                                              ('key_load_batched', 288),
                                              ('compare', 288),
                                              ('copy_line', 12),
                                              ('free', 4),
                                              ('alloc', 4)],
                          'elastic.convert': [('copy_line', 60),
                                              ('alloc', 30),
                                              ('rand_line', 19),
                                              ('free', 35),
                                              ('key_load_batched', 96),
                                              ('compare', 61)]}}}


@pytest.fixture(scope="module", params=["two_way", "three_way"])
def mix(request):
    leaf_kinds = {
        "two_way": ("standard", "compact"),
        "three_way": ("standard", "compact", "learned"),
    }[request.param]
    db, load_counts = _run_mix(leaf_kinds)
    return request.param, db, load_counts


class TestAccountingIdentity:
    def test_shape_reaches_the_hot_paths(self, mix):
        name, db, _ = mix
        stats = db.tables["kv"].indexes["by_k"].index.stats()
        assert stats.height >= 3
        assert stats.compact_leaf_count > stats.leaf_count // 2
        if name == "three_way":
            assert stats.learned_leaf_count > 0

    def test_load_counts_and_order(self, mix):
        name, _, load_counts = mix
        assert load_counts == PINNED[name]["load"]

    def test_mix_counts_and_order(self, mix):
        name, db, _ = mix
        assert list(db.cost.counts.items()) == PINNED[name]["counts"]

    def test_mix_tagged_buckets(self, mix):
        name, db, _ = mix
        tagged = {
            tag: list(bucket.items()) for tag, bucket in db.cost.tagged.items()
        }
        assert list(tagged) == list(PINNED[name]["tagged"])
        assert tagged == PINNED[name]["tagged"]


def _batch_mix():
    """Load a range-sharded cached elastic index and a hash-sharded
    one, both behind the parallel executor, then play a fixed seeded mix
    of the batched read shapes plus hash-scattered scans with
    prefetch-wave pricing on.  Returns the database and its table."""
    rng = random.Random("hot-path:batch")
    db = Database(cost_model=CostModel(mlp_width=4))
    table = db.create_table(KV)
    # 0.8x the STX footprint leaves some compact leaves, whose rows the
    # cache admits; 16 KiB of cache per shard gives its row tier room.
    table.create_index(
        "by_k", ("k",), kind="elastic",
        size_bound_bytes=int(31.0 * ROWS * 0.8), shards=4,
        partitioner="range", parallel=2,
        cache=CacheConfig(budget_bytes=4 * 16 * 1024),
    )
    table.create_index(
        "by_v", ("v",), kind="stx", shards=4, partitioner="hash",
        parallel=2,
    )
    rows = [(rng.getrandbits(64), rng.getrandbits(64)) for _ in range(ROWS)]
    table.insert_batch(rows)
    hot = rows[:64]
    db.cost.reset()
    for _ in range(BATCH_OPS):
        roll = rng.random()
        if roll < 0.45:
            picked = [
                rng.choice(hot if rng.random() < 0.6 else rows)
                for _ in range(12)
            ]
            absent = [(rng.getrandbits(64),) for _ in range(4)]
            probes = [(row[0],) for row in picked] + absent
            assert table.get_batch("by_k", probes) == picked + [None] * 4
        elif roll < 0.60:
            picked = [rng.choice(rows) for _ in range(8)]
            assert table.get_batch("by_v", [(row[1],) for row in picked]) \
                == picked
        elif roll < 0.75:
            starts = [(rng.getrandbits(64),) for _ in range(6)]
            table.scan_batch("by_k", starts, count=10)
        elif roll < 0.85:
            starts = [(rng.getrandbits(64),) for _ in range(4)]
            table.scan_batch("by_v", starts, count=6)
        else:
            table.scan("by_v", (rng.getrandbits(64),), count=12)
    return db, table


#: Recorded from the thread-pool executor with per-row and per-probe
#: charges (same seeds).
PINNED_BATCH = {
    "counts": [
        ("cache_hit", 1152), ("compare", 24804), ("branch", 24388),
        ("rand_line", 7428), ("wave_issue", 1296), ("seq_line", 2365),
        ("alloc", 8), ("key_load", 422), ("fixed_op_milli", 45950),
    ],
    "tagged": {
        "compact.search": [
            ("rand_line", 788), ("wave_issue", 105), ("seq_line", 1321),
            ("compare", 14671), ("branch", 14194), ("key_load", 7),
        ],
    },
    "mlp_totals": {
        "width": 1, "loads": 6588, "waves": 2113,
        "serial_units": 6901.25, "wave_units": 2453.299999999998,
    },
    "executors": {
        "by_k": {
            "serial_sum_units": 19210.17,
            "critical_path_units": 10525.819999999994,
            "dispatches": 569,
        },
        "by_v": {
            "serial_sum_units": 10221.26,
            "critical_path_units": 5339.259999999993,
            "dispatches": 358,
        },
    },
}


@pytest.fixture(scope="module")
def batch_mix():
    return _batch_mix()


def _executor_stats(table, name):
    stats = table.indexes[name].index.executor.stats
    return {
        "serial_sum_units": stats.serial_sum_units,
        "critical_path_units": stats.critical_path_units,
        "dispatches": stats.dispatches,
    }


class TestBatchAccountingIdentity:
    def test_shape_reaches_the_batch_paths(self, batch_mix):
        _, table = batch_mix
        index = table.indexes["by_k"].index
        caches = index.caches()
        assert all(cache.stats.row_hits > 0 for cache in caches)
        assert all(cache.stats.row_misses > 0 for cache in caches)
        assert all(
            shard.index.stats().compact_leaf_count > 0
            for shard in index.shards
        )
        for name in ("by_k", "by_v"):
            assert table.indexes[name].index.executor.name == "parallel"

    def test_counts_and_order(self, batch_mix):
        db, _ = batch_mix
        assert list(db.cost.counts.items()) == PINNED_BATCH["counts"]

    def test_tagged_buckets(self, batch_mix):
        db, _ = batch_mix
        tagged = {
            tag: list(bucket.items()) for tag, bucket in db.cost.tagged.items()
        }
        assert list(tagged) == list(PINNED_BATCH["tagged"])
        assert tagged == PINNED_BATCH["tagged"]

    def test_mlp_totals(self, batch_mix):
        db, _ = batch_mix
        assert asdict(db.cost.mlp_totals) == PINNED_BATCH["mlp_totals"]

    def test_executor_stats(self, batch_mix):
        _, table = batch_mix
        for name in ("by_k", "by_v"):
            assert _executor_stats(table, name) == \
                PINNED_BATCH["executors"][name]


WRITE_LOW = 300
WRITE_HIGH = 1_500
#: Both elastic bounds hold the STX footprint of this many keys: the
#: cycle starts well over them and shrinks well under them.
WRITE_BOUND_KEYS = 900


def _write_mix(leaf_kinds):
    """Load a WAL-backed table over the bounds of two elastic indexes
    (``by_k`` on ``leaf_kinds``, and the two-column ``u64`` ``by_vk``),
    then play one seeded cycle of scalar writes with a get after every
    second write: delete the smallest keys first down to ``WRITE_LOW``
    rows (capacity halvings, reversions, expansion splits), then insert
    fresh keys back up to ``WRITE_HIGH`` (conversions and capacity
    doublings).  Shrinking first makes a remove the first charge in the
    ``compact.update`` bucket, so its first-charge order is pinned too.
    Returns the database and its table."""
    rng = random.Random(f"hot-path:write:{len(leaf_kinds)}")
    db = Database(wal=WalConfig(group_size=8))
    table = db.create_table(KV)
    table.create_index(
        "by_k", ("k",), kind="elastic",
        size_bound_bytes=int(31.0 * WRITE_BOUND_KEYS), leaf_kinds=leaf_kinds,
    )
    table.create_index(
        "by_vk", ("v", "k"), kind="elastic",
        size_bound_bytes=int(43.4 * WRITE_BOUND_KEYS),
    )
    taken = set()

    def fresh():
        while True:
            key = rng.getrandbits(64)
            if key not in taken:
                taken.add(key)
                return key

    rows = [(fresh(), rng.getrandbits(64)) for _ in range(WRITE_HIGH)]
    live = list(zip(table.insert_batch(rows), rows))
    db.cost.reset()
    live.sort(key=lambda item: item[1][0], reverse=True)
    for step in range(2 * (WRITE_HIGH - WRITE_LOW)):
        if step < WRITE_HIGH - WRITE_LOW:
            tid, row = live.pop()
            assert table.delete(tid) == row
        else:
            row = (fresh(), rng.getrandbits(64))
            live.append((table.insert(row), row))
        if step % 2 == 0:
            _, row = rng.choice(live)
            if rng.random() < 0.5:
                assert table.get("by_k", (row[0],)) == row
            else:
                assert table.get("by_vk", (row[1], row[0])) == row
    return db, table


#: Recorded from the per-level maintenance charges and per-key loads
#: (same seeds); ``stats`` is each controller's ``ElasticityStats``,
#: load included.
PINNED_WRITE = {
    "two_way": {
        "counts": [
            ("log_append", 2400), ("rand_line", 29587), ("compare", 110667),
            ("branch", 97918), ("copy_line", 17660), ("free", 1675),
            ("seq_line", 9261), ("key_load", 2633), ("log_fsync", 300),
            ("alloc", 1743), ("key_load_batched", 278),
        ],
        "tagged": {
            "compact.search": [
                ("rand_line", 5495), ("seq_line", 7058), ("compare", 42929),
                ("branch", 40580), ("key_load", 2349),
            ],
            "compact.update": [
                ("copy_line", 6314), ("compare", 8972), ("branch", 3328),
                ("rand_line", 1845), ("free", 133), ("alloc", 133),
            ],
            "elastic.convert": [
                ("copy_line", 436), ("alloc", 221), ("rand_line", 390),
                ("free", 159), ("key_load_batched", 143), ("seq_line", 281),
                ("compare", 2059),
            ],
        },
        "stats": {
            "by_k": {
                "conversions_to_compact": 38, "conversions_to_learned": 0,
                "conversions_other": 0, "capacity_promotions": 4,
                "capacity_stepdowns": 10, "reversions_to_standard": 6,
                "expansion_splits": 12, "churn_splits": 0,
                "state_transitions": 3,
                "conversion_cost_units": 842.010000000001,
            },
            "by_vk": {
                "conversions_to_compact": 35, "conversions_to_learned": 0,
                "conversions_other": 0, "capacity_promotions": 9,
                "capacity_stepdowns": 16, "reversions_to_standard": 3,
                "expansion_splits": 2, "churn_splits": 0,
                "state_transitions": 3,
                "conversion_cost_units": 637.8000000000002,
            },
        },
    },
    "three_way": {
        "counts": [
            ("log_append", 2400), ("rand_line", 29532), ("compare", 114919),
            ("branch", 102646), ("copy_line", 18007), ("seq_line", 9259),
            ("key_load", 2736), ("free", 1676), ("log_fsync", 300),
            ("alloc", 1733), ("key_load_batched", 306), ("model_eval", 37),
        ],
        "tagged": {
            "compact.search": [
                ("rand_line", 5509), ("seq_line", 7059), ("compare", 47738),
                ("branch", 45385), ("key_load", 2353),
            ],
            "compact.update": [
                ("copy_line", 6756), ("compare", 8979), ("branch", 3323),
                ("rand_line", 1859), ("free", 141), ("alloc", 141),
            ],
            "elastic.convert": [
                ("copy_line", 392), ("alloc", 194), ("rand_line", 297),
                ("free", 143), ("key_load_batched", 144), ("seq_line", 213),
                ("compare", 1530),
            ],
            "learned.search": [
                ("rand_line", 37), ("seq_line", 74), ("model_eval", 37),
                ("compare", 166), ("branch", 166), ("key_load", 105),
            ],
            "learned.update": [
                ("copy_line", 64), ("free", 4), ("alloc", 4),
                ("rand_line", 4),
            ],
            "learned.retrain": [
                ("rand_line", 2), ("key_load_batched", 44), ("compare", 44),
                ("copy_line", 2),
            ],
        },
        "stats": {
            "by_k": {
                "conversions_to_compact": 27, "conversions_to_learned": 5,
                "conversions_other": 0, "capacity_promotions": 6,
                "capacity_stepdowns": 10, "reversions_to_standard": 7,
                "expansion_splits": 11, "churn_splits": 0,
                "state_transitions": 3,
                "conversion_cost_units": 765.8000000000008,
            },
            "by_vk": {
                "conversions_to_compact": 25, "conversions_to_learned": 0,
                "conversions_other": 0, "capacity_promotions": 8,
                "capacity_stepdowns": 15, "reversions_to_standard": 2,
                "expansion_splits": 3, "churn_splits": 0,
                "state_transitions": 3,
                "conversion_cost_units": 520.6899999999997,
            },
        },
    },
}


@pytest.fixture(scope="module", params=["two_way", "three_way"])
def write_mix(request):
    leaf_kinds = {
        "two_way": ("standard", "compact"),
        "three_way": ("standard", "compact", "learned"),
    }[request.param]
    db, table = _write_mix(leaf_kinds)
    return request.param, db, table


def _controller_stats(table, name):
    return asdict(table.indexes[name].index.controller.stats)


class TestWriteAccountingIdentity:
    def test_shape_crosses_the_thresholds(self, write_mix):
        name, _, table = write_mix
        for index_name in ("by_k", "by_vk"):
            stats = _controller_stats(table, index_name)
            for action in (
                "conversions_to_compact", "reversions_to_standard",
                "capacity_promotions", "capacity_stepdowns",
                "expansion_splits",
            ):
                assert stats[action] > 0, (index_name, action)
        if name == "three_way":
            assert _controller_stats(table, "by_k")["conversions_to_learned"]

    def test_counts_and_order(self, write_mix):
        name, db, _ = write_mix
        assert list(db.cost.counts.items()) == PINNED_WRITE[name]["counts"]

    def test_tagged_buckets(self, write_mix):
        name, db, _ = write_mix
        tagged = {
            tag: list(bucket.items()) for tag, bucket in db.cost.tagged.items()
        }
        assert list(tagged) == list(PINNED_WRITE[name]["tagged"])
        assert tagged == PINNED_WRITE[name]["tagged"]

    def test_controller_stats(self, write_mix):
        name, _, table = write_mix
        for index_name in ("by_k", "by_vk"):
            assert _controller_stats(table, index_name) == \
                PINNED_WRITE[name]["stats"][index_name]


def _plain_table():
    cost = CostModel()
    table = Table(lambda row: row[0].to_bytes(8, "big"), 16, cost)
    tids = [table.insert_row((7 * i + 3, i)) for i in range(9)]
    table.delete_row(tids[4])
    return table, cost, tids


def _table_view():
    db = Database()
    table = db.create_table(KV)
    table.create_index("by_vk", ("v", "k"))
    tids = table.insert_batch([(7 * i + 3, 11 * i) for i in range(9)])
    table.delete(tids[4])
    return table.indexes["by_vk"].view, db.cost, tids


def _sample_view():
    cost = CostModel()
    view = _SampleView(cost)
    tids = [100 + i for i in range(9)]
    view.register([((7 * i + 3).to_bytes(8, "big"), tid)
                   for i, tid in enumerate(tids) if i != 4])
    return view, cost, tids


def _ledger(cost, load, window):
    """``load()``'s keys (or exception) with the charges it left."""
    cost.reset()
    with cost.attributed_to("elastic.convert"), \
            (cost.mlp_window(window) if window else nullcontext()):
        try:
            out = load()
        except (KeyError, IndexError) as exc:
            out = (type(exc), str(exc))
    tagged = {tag: list(bucket.items()) for tag, bucket in cost.tagged.items()}
    return out, list(cost.counts.items()), tagged, asdict(cost.mlp_totals)


class TestLoadKeysBatched:
    """``load_keys_batched`` charges exactly what a per-key
    ``load_key_batched`` loop charges, in one charge."""

    @pytest.mark.parametrize("window", [None, 4])
    @pytest.mark.parametrize("make", [_plain_table, _table_view, _sample_view])
    @pytest.mark.parametrize("pick", [
        "live", "none", "dead_midway", "missing_last",
    ])
    def test_matches_the_per_key_loop(self, make, pick, window):
        view, cost, tids = make()
        picked = {
            "live": tids[:4] + tids[5:],
            "none": [],
            # Index 4 is dead (a deleted row, or an unregistered id).
            "dead_midway": tids[:6],
            "missing_last": tids[:3] + [max(tids) + 50],
        }[pick]
        batched = _ledger(cost, lambda: view.load_keys_batched(picked), window)
        per_key = _ledger(
            cost, lambda: [view.load_key_batched(t) for t in picked], window
        )
        assert batched == per_key
        if pick == "live":
            assert batched[0] == [view.peek_key(t) for t in picked]
            assert batched[1]

def _traced_reads():
    """One of each read shape through the facade with observability on;
    returns each span's label and per-category cost delta."""
    rng = random.Random("hot-path:obs")
    db = Database()
    table = db.create_table(KV)
    table.create_index(
        "by_k", ("k",), kind="elastic", size_bound_bytes=int(31.0 * 800 * 0.5),
    )
    rows = [(rng.getrandbits(64), rng.getrandbits(64)) for _ in range(800)]
    table.insert_batch(rows)
    probes = [(row[0],) for row in rows[::100]]
    with obs.enabled():
        table.get("by_k", probes[0])
        table.scan("by_k", probes[1], count=5)
        table.get_batch("by_k", probes[2:6])
        table.scan_batch("by_k", probes[6:8], count=3)
    return [(span.op, list(span.by_category.items()))
            for span in db.observer.tracer.snapshot()]


#: Recorded from the code that formatted every label eagerly.
PINNED_SPANS = [('db.get[by_k]',
  [('seq_line', 3),
   ('rand_line', 5),
   ('compare', 67),
   ('branch', 66),
   ('key_load', 1)]),
 ('db.scan[by_k]',
  [('seq_line', 1),
   ('rand_line', 9),
   ('compare', 52),
   ('branch', 51),
   ('key_load', 1),
   ('key_load_batched', 5)]),
 ('db.get_batch[by_k]',
  [('seq_line', 8),
   ('rand_line', 12),
   ('compare', 103),
   ('branch', 99),
   ('key_load_batched', 4)]),
 ('db.scan_batch[by_k]',
  [('seq_line', 3),
   ('rand_line', 14),
   ('compare', 44),
   ('branch', 43),
   ('key_load', 1),
   ('key_load_batched', 3)])]


class TestObservabilitySpans:
    def test_labels_and_cost_deltas(self):
        assert _traced_reads() == PINNED_SPANS

    def test_labels_only_when_enabled(self):
        db = Database()
        tracer = db.observer.tracer
        with db.trace_op("db.get", "by_k"):
            pass
        assert tracer.snapshot() == []
        with obs.enabled():
            with db.trace_op("db.get", "by_k"):
                pass
            with db.trace_op("plain"):
                pass
        assert [span.op for span in tracer.snapshot()] == [
            "db.get[by_k]", "plain",
        ]


U64_EDGES = (0, 1, 2**63, 2**64 - 1)
TYPED = RowSchema(
    "typed", ("a", "b", "c", "d"), (8, 8, 8, 12),
    ("u64", "i64", "f64", "str"),
)


U64_PAIR = RowSchema("pair", ("x", "y"), (8, 8), ("u64", "u64"))


class TestKeyEncoders:
    @pytest.fixture
    def by_yx(self):
        """A two-column all-``u64`` index, columns in reverse order."""
        table = Database().create_table(U64_PAIR)
        return table.create_index("by_yx", ("y", "x"))

    @pytest.fixture
    def table(self):
        table = Database().create_table(TYPED)
        for name, columns in (
            ("by_a", ("a",)), ("by_b", ("b",)), ("by_c", ("c",)),
            ("by_d", ("d",)), ("by_ab", ("a", "b")),
        ):
            table.create_index(name, columns)
        return table

    @pytest.mark.parametrize("value", U64_EDGES)
    def test_u64_fast_path_matches_generic(self, table, value):
        index = table.indexes["by_a"]
        expected = _encode_column(value, "u64", 8)
        assert index.key_of_values((value,)) == expected
        assert index.key_of_row((value, 0, 0.0, "")) == expected

    @pytest.mark.parametrize("values", [(), (1, 2)])
    def test_u64_wrong_arity_raises(self, table, values):
        with pytest.raises(ValueError):
            table.indexes["by_a"].key_of_values(values)

    @pytest.mark.parametrize("value", [-1, 2**64])
    def test_u64_out_of_range_raises_overflow(self, table, value):
        index = table.indexes["by_a"]
        with pytest.raises(OverflowError):
            index.key_of_values((value,))
        with pytest.raises(OverflowError):
            index.key_of_row((value, 0, 0.0, ""))

    def test_other_types_take_the_generic_path(self, table):
        row = (7, -3, 2.5, "hi")
        for name, column, ctype, width in (
            ("by_b", 1, "i64", 8), ("by_c", 2, "f64", 8), ("by_d", 3, "str", 12),
        ):
            index = table.indexes[name]
            expected = _encode_column(row[column], ctype, width)
            assert index.key_of_values((row[column],)) == expected
            assert index.key_of_row(row) == expected
        by_ab = table.indexes["by_ab"]
        expected = _encode_column(7, "u64", 8) + _encode_column(-3, "i64", 8)
        assert by_ab.key_of_values((7, -3)) == expected
        assert by_ab.key_of_row(row) == expected
        with pytest.raises(ValueError):
            by_ab.key_of_values((7,))

    @pytest.mark.parametrize("x", U64_EDGES)
    @pytest.mark.parametrize("y", U64_EDGES)
    def test_u64_pair_matches_generic(self, by_yx, x, y):
        expected = _encode_column(y, "u64", 8) + _encode_column(x, "u64", 8)
        assert by_yx.key_of_values((y, x)) == expected
        assert by_yx.key_of_row((x, y)) == expected

    @pytest.mark.parametrize("bad", [-1, 2**64])
    @pytest.mark.parametrize("column", [0, 1])
    def test_u64_pair_out_of_range_raises_overflow(self, by_yx, bad, column):
        values = [5, 5]
        values[column] = bad
        with pytest.raises(OverflowError):
            by_yx.key_of_values(values)
        with pytest.raises(OverflowError):
            by_yx.key_of_row(values)

    @pytest.mark.parametrize("value", [2.5, "7", True])
    def test_u64_non_int_values_convert_as_generic(self, table, by_yx, value):
        single = _encode_column(value, "u64", 8)
        assert table.indexes["by_a"].key_of_values((value,)) == single
        assert table.indexes["by_a"].key_of_row((value, 0, 0.0, "")) == single
        pair = _encode_column(value, "u64", 8) + _encode_column(3, "u64", 8)
        assert by_yx.key_of_values((value, 3)) == pair
        assert by_yx.key_of_row((3, value)) == pair

    @pytest.mark.parametrize("values", [(), (1,), (1, 2, 3)])
    def test_u64_pair_wrong_arity_raises(self, by_yx, values):
        with pytest.raises(ValueError):
            by_yx.key_of_values(values)
