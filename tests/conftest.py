"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple

import pytest

from repro.keys.encoding import encode_u64
from repro.memory.allocator import TrackingAllocator
from repro.memory.cost_model import CostModel
from repro.table.table import Table


class U64Source:
    """A table of u64 rows plus helpers to mint (key, tid) pairs.

    The row *is* the integer value; the index key is its big-endian
    encoding, so table-loaded keys always agree with inserted keys.
    """

    def __init__(self, cost: Optional[CostModel] = None) -> None:
        self.cost = cost if cost is not None else CostModel()
        self.table = Table(
            key_of_row=encode_u64,
            row_bytes=32,
            cost_model=self.cost,
        )

    def add(self, value: int) -> Tuple[bytes, int]:
        tid = self.table.insert_row(value)
        return encode_u64(value), tid


class SortedModel:
    """Reference model: a sorted association list with predecessor search."""

    def __init__(self) -> None:
        self.keys: List[bytes] = []
        self.tids: List[int] = []

    def insert(self, key: bytes, tid: int) -> Optional[int]:
        pos = bisect.bisect_left(self.keys, key)
        if pos < len(self.keys) and self.keys[pos] == key:
            old = self.tids[pos]
            self.tids[pos] = tid
            return old
        self.keys.insert(pos, key)
        self.tids.insert(pos, tid)
        return None

    def remove(self, key: bytes) -> Optional[int]:
        pos = bisect.bisect_left(self.keys, key)
        if pos < len(self.keys) and self.keys[pos] == key:
            del self.keys[pos]
            return self.tids.pop(pos)
        return None

    def lookup(self, key: bytes) -> Optional[int]:
        pos = bisect.bisect_left(self.keys, key)
        if pos < len(self.keys) and self.keys[pos] == key:
            return self.tids[pos]
        return None

    def predecessor_pos(self, key: bytes) -> int:
        """Position of the largest key <= ``key``; -1 if none."""
        return bisect.bisect_right(self.keys, key) - 1

    def scan(self, start: bytes, count: int) -> List[Tuple[bytes, int]]:
        pos = bisect.bisect_left(self.keys, start)
        return list(zip(self.keys[pos : pos + count], self.tids[pos : pos + count]))

    def __len__(self) -> int:
        return len(self.keys)


@pytest.fixture
def u64_source() -> U64Source:
    return U64Source()


@pytest.fixture
def allocator() -> TrackingAllocator:
    return TrackingAllocator(use_size_classes=False)


@pytest.fixture
def cost_model() -> CostModel:
    return CostModel()
