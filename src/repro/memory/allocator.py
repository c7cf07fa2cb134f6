"""Byte-exact space accounting with jemalloc-style size classes.

The paper reports index memory consumption as measured under jemalloc /
tcmalloc (section 6, "Setup"; section 6.4 notes the 64 MB chunk
granularity of jemalloc).  Because index size is a pure function of the
structure's layout, we account for it analytically: every node computes
its size from a C layout model (8-byte pointers, declared key/tuple-id
widths, headers, alignment) and registers it with a
:class:`TrackingAllocator`.

Size-class rounding matters for the breathing experiments (section 5.4):
growing a tuple-id array by ``s`` slots only consumes more memory when it
crosses a size class, which is why the paper observes breathing parameters
1, 2 and 4 "often coincide".  The rounding below follows jemalloc's small
size classes (4 classes per power-of-two group).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.memory.cost_model import CostModel, NULL_COST_MODEL


def jemalloc_size_class(nbytes: int) -> int:
    """Round an allocation request up to its jemalloc size class.

    Classes: 8, 16, 32, 48, 64, 80, 96, 112, 128, then four classes per
    power-of-two group (160, 192, 224, 256, 320, ...) as in jemalloc's
    small/large class layout.
    """
    if nbytes <= 0:
        return 0
    if nbytes <= 8:
        return 8
    if nbytes <= 128:
        return (nbytes + 15) & ~15
    # Group with 4 classes per doubling: step = 2^(k-2) where
    # 2^k < size <= 2^(k+1).
    k = (nbytes - 1).bit_length() - 1
    step = 1 << (k - 1)
    step //= 2  # 4 classes per group
    return ((nbytes + step - 1) // step) * step


@dataclass
class TrackingAllocator:
    """Tracks live bytes per category, optionally rounding to size classes.

    Every index node (and auxiliary array) in this library calls
    :meth:`allocate` on creation / growth and :meth:`free` on destruction /
    shrinkage, so ``total_bytes`` is always the exact simulated footprint.
    """

    use_size_classes: bool = True
    cost_model: CostModel = field(default_factory=lambda: NULL_COST_MODEL)
    live_bytes: Dict[str, int] = field(default_factory=dict)
    allocation_count: int = 0
    free_count: int = 0
    peak_bytes: int = 0

    def _rounded(self, nbytes: int) -> int:
        if self.use_size_classes:
            return jemalloc_size_class(nbytes)
        return nbytes

    def charged_size(self, nbytes: int) -> int:
        """The bytes :meth:`allocate` would charge for ``nbytes``,
        without allocating (capacity planning against a byte budget)."""
        return self._rounded(nbytes)

    def allocate(self, nbytes: int, category: str = "default") -> int:
        """Record an allocation; returns the rounded (charged) size."""
        if nbytes < 0:
            raise ValueError(f"cannot allocate {nbytes} bytes")
        charged = self._rounded(nbytes)
        self.live_bytes[category] = self.live_bytes.get(category, 0) + charged
        self.allocation_count += 1
        self.cost_model.allocs(1)
        total = self.total_bytes
        if total > self.peak_bytes:
            self.peak_bytes = total
        return charged

    def free(self, nbytes: int, category: str = "default") -> int:
        """Record a deallocation of a block originally of ``nbytes`` bytes."""
        if nbytes < 0:
            raise ValueError(f"cannot free {nbytes} bytes")
        charged = self._rounded(nbytes)
        current = self.live_bytes.get(category, 0)
        if charged > current:
            raise ValueError(
                f"freeing {charged} bytes from category {category!r} "
                f"which only holds {current}"
            )
        self.live_bytes[category] = current - charged
        self.free_count += 1
        self.cost_model.frees(1)
        return charged

    def resize(self, old_nbytes: int, new_nbytes: int, category: str = "default") -> None:
        """Record a realloc-style size change."""
        self.free(old_nbytes, category)
        self.allocate(new_nbytes, category)

    @property
    def total_bytes(self) -> int:
        """Total live bytes across all categories."""
        return sum(self.live_bytes.values())

    def bytes_in(self, category: str) -> int:
        """Live bytes charged to one category."""
        return self.live_bytes.get(category, 0)

    def breakdown(self) -> Dict[str, int]:
        """Copy of the per-category live byte counts (non-zero only)."""
        return {k: v for k, v in self.live_bytes.items() if v}

    def reset(self) -> None:
        """Clear all accounting (used between experiment phases)."""
        self.live_bytes.clear()
        self.allocation_count = 0
        self.free_count = 0
        self.peak_bytes = 0

    def assert_balanced(self, category: Optional[str] = None) -> None:
        """Raise ``AssertionError`` if live bytes remain (leak detector)."""
        if category is not None:
            live = self.live_bytes.get(category, 0)
            if live != 0:
                raise AssertionError(
                    f"{live} bytes leaked in category {category!r}"
                )
        elif self.total_bytes != 0:
            raise AssertionError(
                f"{self.total_bytes} bytes leaked: {self.breakdown()}"
            )
