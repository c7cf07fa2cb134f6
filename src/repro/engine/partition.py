"""Key partitioners: deterministic key -> shard placement.

Both partitioners are pure functions of the key bytes (no salted
``hash()``, no per-process state), so a workload replay routes every
operation to the same shard in every run — the same determinism contract
as the cost model and the event bus.

* :class:`RangePartitioner` slices the key space into ``n_shards`` equal
  contiguous intervals by the key's leading 64 bits.  Shard order equals
  key order (``ordered = True``), so range scans spill from one shard
  into the next without merging.  Uniform key distributions balance;
  skewed ones do not — which is exactly the imbalance the budget
  arbiter compensates for by moving soft-bound bytes instead of rows.
* :class:`HashPartitioner` spreads keys by CRC-32, balancing occupancy
  under any key distribution at the price of order: every shard holds a
  sample of the whole key range, so scans scatter to all shards and
  merge (``ordered = False``).
"""

from __future__ import annotations

import zlib
from typing import List, Sequence

from repro.errors import ShardConfigError


class Partitioner:
    """Deterministic placement of fixed-width keys onto shards."""

    #: Whether shard id order is key order (contiguous key intervals).
    ordered: bool = False

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ShardConfigError("need at least one shard")
        self.n_shards = n_shards

    def shard_of(self, key: bytes) -> int:
        raise NotImplementedError

    def shards_of(self, keys: Sequence[bytes]) -> List[int]:
        """:meth:`shard_of` of every key, in order, in one call."""
        raise NotImplementedError

    def describe(self) -> str:
        return f"{type(self).__name__}(n_shards={self.n_shards})"


class RangePartitioner(Partitioner):
    """Equal slices of the 64-bit key-prefix space, in key order."""

    ordered = True

    def shard_of(self, key: bytes) -> int:
        prefix = int.from_bytes(key[:8].ljust(8, b"\x00"), "big")
        return (prefix * self.n_shards) >> 64

    def shards_of(self, keys: Sequence[bytes]) -> List[int]:
        n, from_bytes = self.n_shards, int.from_bytes
        return [
            (from_bytes(key[:8].ljust(8, b"\x00"), "big") * n) >> 64
            for key in keys
        ]


class HashPartitioner(Partitioner):
    """CRC-32 spread of keys across shards (order-destroying)."""

    ordered = False

    def shard_of(self, key: bytes) -> int:
        return zlib.crc32(key) % self.n_shards

    def shards_of(self, keys: Sequence[bytes]) -> List[int]:
        n, crc32 = self.n_shards, zlib.crc32
        return [crc32(key) % n for key in keys]


#: Partitioner names accepted by :func:`make_partitioner`.
PARTITIONERS = ("hash", "range")


def make_partitioner(kind: str, n_shards: int) -> Partitioner:
    """Instantiate a partitioner by its configuration name."""
    if kind == "hash":
        return HashPartitioner(n_shards)
    if kind == "range":
        return RangePartitioner(n_shards)
    raise ShardConfigError(
        f"unknown partitioner {kind!r}; choose from {PARTITIONERS}"
    )
