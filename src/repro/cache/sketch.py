"""Deterministic TinyLFU-style admission sketch.

TinyLFU (Einziger et al.) admits a candidate into a cache only when its
estimated access frequency beats the eviction victim's, which keeps
one-hit wonders from flushing a working set.  The frequency estimator is
a count-min sketch of 4-bit saturating counters that are periodically
halved ("aged"), so the estimate tracks *recent* popularity.

Determinism matters here: the builtin ``hash()`` over ``bytes`` is
randomized per process by ``PYTHONHASHSEED``, which would make admission
decisions — and therefore every downstream cost figure — irreproducible.
The sketch instead derives its row indexes by multiplicative hashing
over the key's integer value with fixed odd constants, so two runs of
the same workload admit exactly the same keys.
"""

from __future__ import annotations

from typing import List

#: Fixed odd 64-bit multipliers (golden-ratio / xxhash-style constants),
#: one per sketch row, so the rows probe independent positions.
_ROW_SEEDS = (
    0x9E3779B97F4A7C15,
    0xC2B2AE3D27D4EB4F,
    0x165667B19E3779F9,
    0x27D4EB2F165667C5,
    0x85EBCA77C2B2AE63,
    0xFF51AFD7ED558CCD,
)

_MASK64 = (1 << 64) - 1

#: 4-bit saturating counters (stored one per byte for simplicity; the
#: byte layout model below still accounts half a byte per counter).
_COUNTER_MAX = 15

#: ``bytes.translate`` table halving a counter byte (the aging step).
_HALVED = bytes(c >> 1 for c in range(256))


class FrequencySketch:
    """Count-min sketch with saturating, periodically aged counters.

    Args:
        width: Counters per row; rounded up to a power of two.
        depth: Number of independent rows (at most ``len(_ROW_SEEDS)``).
        sample_size: Total recordings between aging passes; when reached,
            every counter is halved and the sample counter is halved too
            (the classic TinyLFU reset), keeping estimates recent.
    """

    def __init__(
        self, width: int = 1024, depth: int = 4, sample_size: int = 8192
    ) -> None:
        if width < 2:
            raise ValueError("sketch width must be at least 2")
        if not 1 <= depth <= len(_ROW_SEEDS):
            raise ValueError(f"sketch depth must be in [1, {len(_ROW_SEEDS)}]")
        if sample_size < 1:
            raise ValueError("sketch sample_size must be positive")
        # Round up to a power of two so indexes are a shift, not a mod.
        self.width = 1 << (width - 1).bit_length()
        self.depth = depth
        self.sample_size = sample_size
        self._shift = 64 - self.width.bit_length() + 1
        self._rows: List[bytearray] = [
            bytearray(self.width) for _ in range(depth)
        ]
        #: (row, seed) per sketch row.  Aging and clearing rewrite the
        #: rows in place, so the lanes stay valid for the sketch's life.
        self._lanes = tuple(zip(self._rows, _ROW_SEEDS))
        self._samples = 0

    @property
    def size_bytes(self) -> int:
        """Modeled footprint: 4 bits per counter, plus a small header."""
        return 16 + (self.width * self.depth + 1) // 2

    def record(self, key: bytes) -> None:
        """Count one access to ``key``; ages all counters periodically."""
        h = int.from_bytes(key, "big")
        shift = self._shift
        for row, seed in self._lanes:
            idx = ((h * seed) & _MASK64) >> shift
            if row[idx] < _COUNTER_MAX:
                row[idx] += 1
        self._samples += 1
        if self._samples >= self.sample_size:
            self._age()

    def estimate(self, key: bytes) -> int:
        """Estimated recent access count of ``key`` (min over rows)."""
        h = int.from_bytes(key, "big")
        shift = self._shift
        return min(
            row[((h * seed) & _MASK64) >> shift] for row, seed in self._lanes
        )

    def check_invariants(self) -> None:
        """Raise ``ValueError`` naming the first broken invariant."""
        for holds, invariant in (
            (all(max(row) <= _COUNTER_MAX for row in self._rows),
             "counters at most 15"),
            (self._samples < self.sample_size, "samples below sample_size"),
        ):
            if not holds:
                raise ValueError(
                    f"FrequencySketch invariant broken: {invariant}"
                )

    def _age(self) -> None:
        # Halve every counter at C speed, in place (the lanes hold the
        # row objects).
        for row in self._rows:
            row[:] = row.translate(_HALVED)
        self._samples >>= 1

    def clear(self) -> None:
        for row in self._rows:
            row[:] = bytes(len(row))
        self._samples = 0
