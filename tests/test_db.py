"""Tests for the multi-index database facade."""

import random

import pytest

from repro.db.database import Database
from repro.memory.budget import PressureState
from repro.table.table import RowSchema
from repro.workloads.iotta import IottaTraceGenerator

LOG_SCHEMA = RowSchema(
    name="log",
    column_names=("timestamp", "op_type", "object_id", "size"),
    column_widths=(8, 8, 8, 8),
)


def make_log_table(db=None):
    db = db or Database()
    table = db.create_table(LOG_SCHEMA)
    return db, table


def log_rows(n, seed=1):
    gen = IottaTraceGenerator(base_rows_per_day=n, days=4, seed=seed)
    return [
        (r.timestamp, r.op_type, r.object_id, r.size)
        for r in gen.rows(limit=n)
    ]


class TestSchemaAndKeys:
    def test_create_index_composite_key(self):
        _, table = make_log_table()
        idx = table.create_index("by_ts_obj", ("timestamp", "object_id"))
        assert idx.key_width == 16
        key = idx.key_of_values((1, 2))
        assert key == (1).to_bytes(8, "big") + (2).to_bytes(8, "big")

    def test_key_order_preserving(self):
        _, table = make_log_table()
        idx = table.create_index("by_size_ts", ("size", "timestamp"))
        assert idx.key_of_values((5, 100)) < idx.key_of_values((6, 1))
        assert idx.key_of_values((5, 100)) < idx.key_of_values((5, 101))

    def test_wrong_arity_rejected(self):
        _, table = make_log_table()
        idx = table.create_index("by_ts", ("timestamp",))
        with pytest.raises(ValueError):
            idx.key_of_values((1, 2))

    def test_batch_encoding_matches_per_entry(self):
        _, table = make_log_table()
        idx = table.create_index("by_size_ts", ("size", "timestamp"))
        batch = [(5, 100), (6, 1), (0, (1 << 64) - 1)]
        assert idx.keys_of_values(batch) == [
            idx.key_of_values(v) for v in batch
        ]
        assert idx.keys_of_values([]) == []
        with pytest.raises(ValueError, match="needs 2 values"):
            idx.keys_of_values([(1, 2), (3,)])
        # The first entry that cannot be encoded raises its own error.
        with pytest.raises(OverflowError):
            idx.keys_of_values([(1, 2), (-1, 2), (3,)])

    def test_duplicate_index_name_rejected(self):
        _, table = make_log_table()
        table.create_index("x", ("timestamp",))
        with pytest.raises(ValueError):
            table.create_index("x", ("size",))

    def test_row_arity_validated(self):
        _, table = make_log_table()
        with pytest.raises(ValueError):
            table.insert((1, 2, 3))


class TestCRUDThroughIndexes:
    def test_insert_and_point_queries_via_every_index(self):
        _, table = make_log_table()
        table.create_index("by_ts_obj", ("timestamp", "object_id"))
        table.create_index("by_obj_ts", ("object_id", "timestamp"))
        rows = log_rows(300)
        for row in rows:
            table.insert(row)
        probe = rows[123]
        assert table.get("by_ts_obj", (probe[0], probe[2])) == probe
        assert table.get("by_obj_ts", (probe[2], probe[0])) == probe
        assert table.get("by_ts_obj", (0, 0)) is None

    def test_backfill_on_late_index_creation(self):
        _, table = make_log_table()
        rows = log_rows(200)
        for row in rows:
            table.insert(row)
        table.create_index("by_ts", ("timestamp",))
        probe = rows[50]
        assert table.get("by_ts", (probe[0],)) == probe

    def test_delete_updates_all_indexes(self):
        _, table = make_log_table()
        table.create_index("by_ts", ("timestamp",))
        table.create_index("by_obj_ts", ("object_id", "timestamp"))
        rows = log_rows(100)
        tids = [table.insert(row) for row in rows]
        victim = rows[7]
        table.delete(tids[7])
        assert table.get("by_ts", (victim[0],)) is None
        assert table.get("by_obj_ts", (victim[2], victim[0])) is None
        assert len(table) == 99

    def test_scan_in_index_order(self):
        _, table = make_log_table()
        table.create_index("by_size_ts", ("size", "timestamp"))
        rows = log_rows(300)
        for row in rows:
            table.insert(row)
        out = table.scan("by_size_ts", (0, 0), count=50)
        sizes = [(r[3], r[0]) for r in out]
        assert sizes == sorted(sizes)
        assert len(out) == 50

    def test_included_scan_returns_keys_only(self):
        _, table = make_log_table()
        idx = table.create_index("by_ts", ("timestamp",))
        rows = log_rows(50)
        for row in rows:
            table.insert(row)
        keys = table.scan("by_ts", (0,), count=10, include_rows=False)
        expected = sorted(idx.key_of_values((r[0],)) for r in rows)[:10]
        assert keys == expected


class TestTypedColumns:
    SENSOR_SCHEMA = RowSchema(
        name="sensors",
        column_names=("sensor", "reading", "delta", "label"),
        column_widths=(8, 8, 8, 16),
        column_types=("u64", "f64", "i64", "str"),
    )

    def test_schema_validation(self):
        with pytest.raises(ValueError):
            RowSchema("bad", ("a",), (8,), ("nope",))
        with pytest.raises(ValueError):
            RowSchema("bad", ("a",), (4,), ("f64",))

    def test_float_index_order(self):
        db = Database()
        table = db.create_table(self.SENSOR_SCHEMA)
        table.create_index("by_reading", ("reading",))
        rows = [
            (1, -5.5, 0, "a"), (2, -0.25, 0, "b"), (3, 0.0, 0, "c"),
            (4, 2.5, 0, "d"), (5, 1e10, 0, "e"),
        ]
        for row in rows:
            table.insert(row)
        out = table.scan("by_reading", (float("-inf"),), count=10)
        assert [r[1] for r in out] == [-5.5, -0.25, 0.0, 2.5, 1e10]
        assert table.get("by_reading", (-0.25,)) == rows[1]

    def test_signed_index_order(self):
        db = Database()
        table = db.create_table(self.SENSOR_SCHEMA)
        table.create_index("by_delta", ("delta", "sensor"))
        for i, delta in enumerate((-100, -1, 0, 7, 99)):
            table.insert((i, 0.0, delta, "x"))
        out = table.scan("by_delta", (-(1 << 63), 0), count=10)
        assert [r[2] for r in out] == [-100, -1, 0, 7, 99]

    def test_string_index(self):
        db = Database()
        table = db.create_table(self.SENSOR_SCHEMA)
        table.create_index("by_label", ("label",))
        for i, label in enumerate(("pear", "apple", "mango")):
            table.insert((i, 0.0, 0, label))
        out = table.scan("by_label", ("",), count=10)
        assert [r[3] for r in out] == ["apple", "mango", "pear"]
        assert table.get("by_label", ("mango",)) == (2, 0.0, 0, "mango")


class TestMemoryAndElasticity:
    def test_index_overhead_matches_paper_motivation(self):
        """Multiple secondary indexes push index memory to ~50% of total
        (section 1's motivation numbers)."""
        _, table = make_log_table()
        table.create_index("by_ts_obj", ("timestamp", "object_id"))
        table.create_index("by_obj_ts", ("object_id", "timestamp"))
        for row in log_rows(3000):
            table.insert(row)
        report = table.memory_report()
        assert report["index_fraction_of_memory"] > 0.45

    def test_elastic_indexes_shrink_the_overhead(self):
        rigid_db, rigid = make_log_table()
        rigid.create_index("a", ("timestamp", "object_id"))
        rigid.create_index("b", ("object_id", "timestamp"))
        elastic_db, elastic = make_log_table()
        bounds = Database.split_budget(120_000, [1, 1])
        elastic.create_index("a", ("timestamp", "object_id"),
                             kind="elastic", size_bound_bytes=bounds[0])
        elastic.create_index("b", ("object_id", "timestamp"),
                             kind="elastic", size_bound_bytes=bounds[1])
        rows = log_rows(4000)
        for row in rows:
            rigid.insert(row)
            elastic.insert(row)
        rigid_report = rigid.memory_report()
        elastic_report = elastic.memory_report()
        assert (
            elastic_report["index_bytes_total"]
            < 0.7 * rigid_report["index_bytes_total"]
        )
        # Queries through the shrunken indexes still answer correctly.
        rng = random.Random(9)
        for row in rng.sample(rows, 100):
            assert elastic.get("a", (row[0], row[2])) == row
            assert elastic.get("b", (row[2], row[0])) == row

    def test_mixed_index_kinds(self):
        _, table = make_log_table()
        table.create_index("hot", ("timestamp", "object_id"), kind="hot")
        table.create_index("stx", ("object_id", "timestamp"))
        rows = log_rows(500)
        for row in rows:
            table.insert(row)
        probe = rows[42]
        assert table.get("hot", (probe[0], probe[2])) == probe
        report = table.memory_report()
        assert report["index_bytes[hot]"] < report["index_bytes[stx]"]

    def test_split_budget_distributes_remainder_exactly(self):
        # 100_000 over 3 equal shares: no byte lost to truncation, the
        # remainder goes to the earliest largest-fraction shares.
        assert Database.split_budget(100_000, [1, 1, 1]) == [
            33_334, 33_333, 33_333
        ]
        # Skewed shares: still sums exactly to the total.
        bounds = Database.split_budget(99_999, [0.5, 0.3, 0.2])
        assert sum(bounds) == 99_999
        assert bounds[0] > bounds[1] > bounds[2]
        # Degenerate cases.
        assert Database.split_budget(7, [1, 1, 1]) == [3, 2, 2]
        assert Database.split_budget(0, [1, 1]) == [0, 0]

    def test_split_budget_validates_weights(self):
        with pytest.raises(ValueError):
            Database.split_budget(1000, [])
        with pytest.raises(ValueError):
            Database.split_budget(1000, [0, 0])
        with pytest.raises(ValueError):
            Database.split_budget(1000, [1, -1])
        with pytest.raises(ValueError):
            Database.split_budget(-1, [1])

    def test_elastic_state_reachable(self):
        _, table = make_log_table()
        idx = table.create_index(
            "e", ("timestamp", "object_id"), kind="elastic",
            size_bound_bytes=40_000,
        )
        for row in log_rows(4000):
            table.insert(row)
        assert idx.index.pressure_state is PressureState.SHRINKING


class TestReplicatedIndexes:
    """The cluster tier through the stable create_index surface; the
    deep routing/failover contracts live in test_cluster.py."""

    def test_single_replica_config_is_plain_passthrough(self):
        from repro.api import ReplicaConfig, ReplicaSet

        _, table = make_log_table()
        idx = table.create_index(
            "by_obj", ("object_id",), kind="elastic",
            size_bound_bytes=40_000, replicas=ReplicaConfig(replicas=1),
        )
        assert not isinstance(idx.index, ReplicaSet)

    def test_replicated_index_answers_like_plain(self):
        from repro.api import ReplicaConfig, ReplicaSet

        _, table = make_log_table()
        plain = table.create_index(
            "plain", ("object_id", "timestamp"), kind="elastic",
            size_bound_bytes=40_000,
        )
        replicated = table.create_index(
            "replicated", ("object_id", "timestamp"), kind="elastic",
            replicas=ReplicaConfig(replicas=3, total_bound_bytes=120_000),
        )
        rows = log_rows(1500)
        for row in rows:
            table.insert(row)
        assert isinstance(replicated.index, ReplicaSet)
        assert replicated.index.n_replicas == 3
        for row in rows[::97]:
            probe = (row[2], row[0])
            assert table.get("replicated", probe) == \
                table.get("plain", probe)
        assert len(replicated.index) == len(plain.index)

    def test_invalid_replica_config_rejected_at_creation(self):
        from repro.api import ReplicaConfig, ReplicaConfigError

        _, table = make_log_table()
        with pytest.raises(ReplicaConfigError):
            table.create_index(
                "bad", ("object_id",), kind="elastic",
                replicas=ReplicaConfig(replicas=0),
            )
        # Elastic replicas with no bound anywhere cannot apportion.
        with pytest.raises(ReplicaConfigError):
            table.create_index(
                "bad", ("object_id",), kind="elastic",
                replicas=ReplicaConfig(replicas=2),
            )


class TestDeprecatedSpellings:
    """The pre-redesign read shims and the positional scan count are
    gone."""

    def make_filled(self):
        _, table = make_log_table()
        table.create_index("by_ts", ("timestamp",))
        self.rows = sorted(log_rows(100))
        for row in self.rows:
            table.insert(row)
        return table

    def test_removed_spellings_are_gone(self):
        table = self.make_filled()
        for name in ("get_many", "scan_many", "included_scan"):
            assert not hasattr(table, name), name

    def test_positional_scan_count_raises(self):
        table = self.make_filled()
        with pytest.raises(TypeError):
            table.scan("by_ts", (0,), 5)
        with pytest.raises(TypeError):
            table.scan_batch("by_ts", [(0,)], 5)

    def test_scan_count_required_and_unambiguous(self):
        table = self.make_filled()
        with pytest.raises(TypeError):
            table.scan("by_ts", (0,))
        with pytest.raises(TypeError):
            table.scan("by_ts", (0,), 5, count=5)

    def test_new_surface_is_warning_free(self):
        import warnings

        table = self.make_filled()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            table.get("by_ts", (self.rows[0][0],))
            table.get_batch("by_ts", [(self.rows[0][0],)])
            table.scan("by_ts", (0,), count=5)
            table.scan("by_ts", (0,), count=5, include_rows=False)
            table.scan_batch("by_ts", [(0,)], count=5)
