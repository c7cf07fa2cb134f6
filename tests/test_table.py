"""Unit tests for the table substrate."""

import pytest

from repro.keys.encoding import encode_u64
from repro.memory.allocator import TrackingAllocator
from repro.memory.cost_model import CostModel
from repro.table.table import Table


def make_table(with_alloc=False):
    cost = CostModel()
    alloc = TrackingAllocator(use_size_classes=False) if with_alloc else None
    table = Table(encode_u64, row_bytes=32, cost_model=cost, allocator=alloc)
    return table, cost, alloc


class TestTable:
    def test_insert_and_row(self):
        table, _, _ = make_table()
        tid = table.insert_row(42)
        assert table.row(tid) == 42

    def test_load_key_extracts_and_charges(self):
        table, cost, _ = make_table()
        tid = table.insert_row(42)
        cost.reset()
        assert table.load_key(tid) == encode_u64(42)
        assert cost.counts.get("key_load") == 1

    def test_peek_key_does_not_charge(self):
        table, cost, _ = make_table()
        tid = table.insert_row(42)
        cost.reset()
        table.peek_key(tid)
        assert "key_load" not in cost.counts

    def test_tid_reuse_after_delete(self):
        table, _, _ = make_table()
        tid = table.insert_row(1)
        table.delete_row(tid)
        tid2 = table.insert_row(2)
        assert tid2 == tid
        assert table.load_key(tid2) == encode_u64(2)

    def test_row_batch_matches_per_row_loop(self):
        table, cost, _ = make_table()
        tids = [table.insert_row(v) for v in range(10)]
        batch = [tids[3], None, tids[0], tids[3], None, tids[9]]
        cost.reset()
        expected = [table.row(t) if t is not None else None for t in batch]
        per_row = list(cost.counts.items())
        cost.reset()
        assert table.row_batch(batch) == expected
        assert list(cost.counts.items()) == per_row
        cost.reset()
        assert table.row_batch([]) == []
        assert table.row_batch([None, None]) == [None, None]
        assert cost.counts == {}

    def test_row_batch_dead_tid_charges_rows_before_it(self):
        table, cost, _ = make_table()
        tids = [table.insert_row(v) for v in range(4)]
        table.delete_row(tids[2])
        batch = [tids[0], None, tids[1], tids[2], tids[3]]
        cost.reset()
        with pytest.raises(KeyError) as per_row:
            for tid in batch:
                if tid is not None:
                    table.row(tid)
        per_row_counts = dict(cost.counts)
        cost.reset()
        with pytest.raises(KeyError) as batched:
            table.row_batch(batch)
        assert str(batched.value) == str(per_row.value)
        assert cost.counts == per_row_counts == {"rand_line": 2}

    def test_dead_tid_raises(self):
        table, _, _ = make_table()
        tid = table.insert_row(1)
        table.delete_row(tid)
        with pytest.raises(KeyError):
            table.load_key(tid)
        with pytest.raises(KeyError):
            table.delete_row(tid)

    def test_negative_tid_is_never_assigned(self):
        # Regression: a negative id indexed the row array from its end,
        # so delete_row(-1) removed the last row and pushed -1 onto the
        # free stack for the next insert to take.
        table, cost, alloc = make_table(with_alloc=True)
        tids = [table.insert_row(i) for i in range(3)]
        counts = dict(cost.counts)
        for tid in (-1, -3, -4):
            with pytest.raises(IndexError, match="never assigned"):
                table.deletable_row(tid)
            with pytest.raises(IndexError, match="never assigned"):
                table.delete_row(tid)
        assert len(table) == 3 and alloc.bytes_in("table") == 96
        assert dict(cost.counts) == counts
        assert table.insert_row(3) == 3
        assert [table.live_row(t) for t in tids] == [0, 1, 2]

    def test_deletable_row_raises_what_delete_row_raises(self):
        table, _, _ = make_table()
        tid = table.insert_row(1)
        assert table.deletable_row(tid) == 1
        table.delete_row(tid)
        for bad, exc in ((tid, KeyError), (tid + 1, IndexError)):
            with pytest.raises(exc):
                table.deletable_row(bad)
            with pytest.raises(exc):
                table.delete_row(bad)

    def test_dataset_bytes(self):
        table, _, alloc = make_table(with_alloc=True)
        tids = [table.insert_row(i) for i in range(10)]
        assert table.dataset_bytes == 320
        assert alloc.bytes_in("table") == 320
        table.delete_row(tids[0])
        assert table.dataset_bytes == 288
        assert len(table) == 9
