"""Tests for the sharded engine: partitioners and the shard router.

The core contract: a sharded index returns results byte-identical to
the same index unsharded, for every shard count, both partitioners, and
both relaxed and tight (conversion-heavy) memory bounds.
"""

import random

import pytest

from repro.cache import CacheConfig
from repro.cluster import ReplicaConfig
from repro.db.database import Database
from repro.engine import (
    HashPartitioner,
    RangePartitioner,
    ShardedIndex,
    build_sharded_index,
    make_partitioner,
)
from repro.keys.encoding import encode_u64
from repro.memory.allocator import TrackingAllocator
from repro.memory.cost_model import CostModel
from repro.table.table import RowSchema, Table


# ----------------------------------------------------------------------
# Partitioners
# ----------------------------------------------------------------------
class TestPartitioners:
    def test_factory(self):
        assert isinstance(make_partitioner("hash", 4), HashPartitioner)
        assert isinstance(make_partitioner("range", 4), RangePartitioner)
        with pytest.raises(ValueError):
            make_partitioner("nope", 4)
        with pytest.raises(ValueError):
            make_partitioner("hash", 0)

    def test_deterministic_and_in_range(self):
        rng = random.Random(7)
        keys = [encode_u64(rng.getrandbits(64)) for _ in range(2000)]
        for kind in ("hash", "range"):
            part = make_partitioner(kind, 8)
            placements = [part.shard_of(k) for k in keys]
            assert all(0 <= s < 8 for s in placements)
            assert placements == [part.shard_of(k) for k in keys]
            # All shards get traffic under a uniform key distribution.
            assert len(set(placements)) == 8

    def test_range_partitioner_preserves_key_order(self):
        part = RangePartitioner(8)
        rng = random.Random(11)
        keys = sorted(encode_u64(rng.getrandbits(63)) for _ in range(1000))
        placements = [part.shard_of(k) for k in keys]
        assert placements == sorted(placements)

    def test_range_partitioner_boundaries(self):
        part = RangePartitioner(4)
        assert part.shard_of(encode_u64(0)) == 0
        assert part.shard_of(b"\xff" * 8) == 3

    def test_hash_partitioner_is_unsalted(self):
        # CRC-32 placement must be a pure function of the key bytes:
        # crc32(b"\x00" * 8) == 0x6522df69, fixed across processes.
        assert HashPartitioner(16).shard_of(b"\x00" * 8) == 0x6522df69 % 16

    def test_short_keys_accepted(self):
        for kind in ("hash", "range"):
            part = make_partitioner(kind, 4)
            assert 0 <= part.shard_of(b"ab") < 4

    @pytest.mark.parametrize("kind", ["hash", "range"])
    @pytest.mark.parametrize("n_shards", [1, 3, 8])
    def test_shards_of_is_shard_of_per_key(self, kind, n_shards):
        rng = random.Random(13)
        keys = [rng.randbytes(rng.choice((2, 8, 16))) for _ in range(500)]
        keys += [b"", b"\x00" * 8, b"\xff" * 8, b"\xff" * 12]
        part = make_partitioner(kind, n_shards)
        assert part.shards_of(keys) == [part.shard_of(k) for k in keys]
        assert part.shards_of([]) == []


# ----------------------------------------------------------------------
# Router equivalence against the unsharded engine
# ----------------------------------------------------------------------
SCHEMA = RowSchema("log", ("ts", "obj", "size"), (8, 8, 8))


def make_rows(n, seed=3):
    rng = random.Random(seed)
    return [
        (rng.getrandbits(40), rng.getrandbits(30), rng.randrange(100))
        for _ in range(n)
    ]


def make_table(shards, partitioner="hash", kind="elastic", bound=None):
    db = Database()
    table = db.create_table(SCHEMA)
    kwargs = {}
    if kind == "elastic":
        kwargs["size_bound_bytes"] = bound if bound is not None else 10**9
    table.create_index(
        "by_key", ("ts", "obj"), kind=kind, shards=shards,
        partitioner=partitioner, **kwargs,
    )
    return db, table


@pytest.mark.parametrize("partitioner", ["hash", "range"])
@pytest.mark.parametrize("shards", [1, 2, 8])
class TestShardEquivalence:
    """get_batch / insert_batch / scan_batch byte-identical to unsharded."""

    def check(self, shards, partitioner, kind, bound, n_rows=4000):
        rows = make_rows(n_rows)
        _, reference = make_table(1, kind=kind, bound=bound)
        _, sharded = make_table(shards, partitioner, kind=kind, bound=bound)
        ref_tids = reference.insert_batch(rows)
        got_tids = sharded.insert_batch(rows)
        assert got_tids == ref_tids

        rng = random.Random(99)
        probes = [(r[0], r[1]) for r in rng.sample(rows, 300)]
        probes += [(0, 0), (1 << 39, 1)]  # misses
        assert (
            sharded.get_batch("by_key", probes)
            == reference.get_batch("by_key", probes)
        )
        starts = [(r[0], r[1]) for r in rng.sample(rows, 60)] + [(0, 0)]
        for count in (1, 17):
            assert (
                sharded.scan_batch("by_key", starts, count=count)
                == reference.scan_batch("by_key", starts, count=count)
            )
        assert (
            sharded.scan_batch("by_key", starts, count=9, include_rows=False)
            == reference.scan_batch("by_key", starts, count=9,
                                    include_rows=False)
        )
        # Scalar surface too.
        probe = rows[123]
        assert (
            sharded.get("by_key", (probe[0], probe[1]))
            == reference.get("by_key", (probe[0], probe[1]))
        )
        assert (
            sharded.scan("by_key", (0, 0), count=40)
            == reference.scan("by_key", (0, 0), count=40)
        )
        return reference, sharded

    def test_stx_equivalence(self, shards, partitioner):
        self.check(shards, partitioner, kind="stx", bound=None)

    def test_elastic_relaxed_bound(self, shards, partitioner):
        self.check(shards, partitioner, kind="elastic", bound=10**9)

    def test_elastic_tight_bound_mid_batch_conversions(
        self, shards, partitioner
    ):
        """Under a tight global bound the elastic shards convert leaves
        mid-batch; results must still match the unsharded engine."""
        reference, sharded = self.check(
            shards, partitioner, kind="elastic", bound=60_000
        )
        ref_index = reference.indexes["by_key"].index
        assert ref_index.allocator.bytes_in("leaf.compact") > 0, (
            "bound not tight enough to exercise conversions"
        )


class TestShardedIndexSurface:
    def test_deletes_route_correctly(self):
        rows = make_rows(800)
        _, reference = make_table(1, kind="stx")
        _, sharded = make_table(4, "hash", kind="stx")
        ref_tids = reference.insert_batch(rows)
        got_tids = sharded.insert_batch(rows)
        for victim in (5, 99, 700):
            reference.delete(ref_tids[victim])
            sharded.delete(got_tids[victim])
        probes = [(r[0], r[1]) for r in rows[:120]]
        assert (
            sharded.get_batch("by_key", probes)
            == reference.get_batch("by_key", probes)
        )
        assert len(sharded) == len(reference)

    def test_len_and_bytes_aggregate(self):
        _, sharded = make_table(4, "hash", kind="stx")
        sharded.insert_batch(make_rows(500))
        index = sharded.indexes["by_key"].index
        assert isinstance(index, ShardedIndex)
        assert len(index) == 500
        assert index.index_bytes == sum(
            s.index_bytes for s in index.shards
        )
        assert index.n_shards == 4
        report = index.shard_report()
        assert len(report) == 4
        assert sum(r["items"] for r in report) == 500

    def test_mismatched_partitioner_rejected(self):
        with pytest.raises(ValueError):
            ShardedIndex([], HashPartitioner(2))

    def test_shards_must_be_positive(self):
        db = Database()
        table = db.create_table(SCHEMA)
        with pytest.raises(ValueError):
            table.create_index("bad", ("ts",), shards=0)

    def test_empty_and_zero_count_scans(self):
        _, sharded = make_table(4, "hash", kind="stx")
        index = sharded.indexes["by_key"].index
        assert index.scan(b"\x00" * 16, 0) == []
        assert index.scan_batch([], 5) == []
        assert index.scan_batch([b"\x00" * 16], 0) == [[]]
        assert index.lookup_batch([]) == []
        assert index.insert_sorted_batch([]) == []

    def test_controllers_exposed_for_elastic_shards(self):
        _, sharded = make_table(3, "hash", kind="elastic", bound=90_000)
        index = sharded.indexes["by_key"].index
        assert len(index.controllers()) == 3
        _, plain = make_table(3, "hash", kind="stx")
        assert plain.indexes["by_key"].index.controllers() == []

    def test_elastic_bound_split_exactly(self):
        _, sharded = make_table(3, "hash", kind="elastic", bound=100_000)
        index = sharded.indexes["by_key"].index
        bounds = [s.soft_bound_bytes for s in index.shards]
        assert sum(bounds) == 100_000
        assert max(bounds) - min(bounds) <= 1


class TestShardRouteEvents:
    def test_no_events_when_disabled(self, monkeypatch):
        from tests.test_obs import count_event_construction

        db, sharded = make_table(2, "hash", kind="stx")
        built = count_event_construction(monkeypatch)
        sharded.insert_batch(make_rows(50))
        assert built == []
        assert db.event_log() == []


# ----------------------------------------------------------------------
# Invariant checks
# ----------------------------------------------------------------------
def move_key(index, src, dst):
    """Move one key of shard ``src`` to shard ``dst`` (counts unchanged)."""
    key, tid = next(iter(index.shards[src].index.items()))
    index.shards[src].index.remove(key)
    index.shards[dst].index.insert(key, tid)


class TestShardedInvariants:
    def build(self):
        """A live 4-shard elastic index under pressure, each shard
        cached, after repeated point reads of a hot seventh."""
        cost = CostModel()
        table = Table(encode_u64, row_bytes=32, cost_model=cost)
        index = build_sharded_index(
            "elastic", table=table, cost=cost, key_width=8, n_shards=4,
            partitioner="hash", size_bound_bytes=160_000, name="inv",
            cache=CacheConfig(budget_bytes=1 << 16),
        )
        rng = random.Random(8)
        values = sorted({rng.getrandbits(48) for _ in range(6000)})
        for value in values:
            index.insert(encode_u64(value), table.insert_row(value))
        for _ in range(3):
            for value in values[::7]:
                index.lookup(encode_u64(value))
        return index, cost

    def test_check_walks_without_side_effects(self):
        index, cost = self.build()

        def state():
            leaves = []
            for shard in index.shards:
                leaf = shard.index.first_leaf
                while leaf is not None:
                    leaves.append((leaf.node_id, leaf.access_count))
                    leaf = leaf.next_leaf
            return (
                list(cost.counts.items()),
                {tag: list(b.items()) for tag, b in cost.tagged.items()},
                leaves,
                [cache.report().as_dict() for cache in index.caches()],
            )

        before = state()
        assert any(count for _, count in before[2])
        assert all(report["row_entries"] for report in before[3])
        assert all(c.stats.conversions_to_compact
                   for c in index.controllers())
        index.check_invariants()
        assert state() == before

    def test_key_on_the_wrong_shard_raises(self):
        index, _ = self.build()
        move_key(index, 1, 0)
        with pytest.raises(ValueError, match="on inv\\[0\\] belongs to "
                                             "shard 1"):
            index.check_invariants()

    def test_kinds_without_a_leaf_chain_are_scanned(self):
        cost = CostModel()
        table = Table(encode_u64, row_bytes=32, cost_model=cost)
        index = build_sharded_index("hot", table=table, cost=cost,
                                    key_width=8, n_shards=3, name="hot")
        for value in range(300):
            index.insert(encode_u64(value), table.insert_row(value))
        index.check_invariants()
        value = next(v for v in range(300, 400)
                     if index.partitioner.shard_of(encode_u64(v)) != 0)
        index.shards[0].index.insert(encode_u64(value),
                                     table.insert_row(value))
        with pytest.raises(ValueError, match="on hot\\[0\\] belongs"):
            index.check_invariants()

    def test_replica_set_checks_its_sharded_replicas(self):
        _, table = make_table(1)
        secondary = table.create_index(
            "by_ts", ("ts",), kind="elastic", size_bound_bytes=60_000,
            shards=2, replicas=ReplicaConfig(
                replicas=2, total_bound_bytes=120_000),
        )
        table.insert_batch(make_rows(800))
        replica_set = secondary.index
        replica_set.check_invariants()
        move_key(replica_set.replicas[1].index, 0, 1)
        with pytest.raises(ValueError, match="belongs to shard 0"):
            replica_set.check_invariants()


# ----------------------------------------------------------------------
# Direct build_sharded_index use (no database facade)
# ----------------------------------------------------------------------
class TestBareShardedIndex:
    def test_u64_index_round_trip(self):
        cost = CostModel()
        table = Table(encode_u64, row_bytes=32, cost_model=cost)
        index = build_sharded_index(
            "elastic", table=table, cost=cost, key_width=8,
            n_shards=4, partitioner="range", size_bound_bytes=200_000,
            name="bare",
        )
        rng = random.Random(5)
        values = sorted({rng.getrandbits(48) for _ in range(3000)})
        for value in values:
            tid = table.insert_row(value)
            index.insert(encode_u64(value), tid)
        assert len(index) == len(values)
        for value in rng.sample(values, 100):
            assert index.lookup(encode_u64(value)) is not None
        run = index.scan(encode_u64(0), 64)
        assert [k for k, _ in run] == sorted(k for k, _ in run)
        assert len(run) == 64
        assert index.shards[0].name == "bare[0]"
