"""Breathing tuple-id arrays (paper section 5.4).

With indirect key storage, tuple identifiers dominate a compact node's
space (~80-90%).  Breathing allocates the tuple-id array for the keys
*currently stored* plus ``s`` slots of slack, instead of for the node's
full capacity; when insertions exhaust the slack the array is reallocated
``s`` slots larger.  The slack parameter trades space efficiency against
reallocation overhead on inserts; searches pay only one extra pointer
dereference.  Size-class rounding (see
:func:`repro.memory.allocator.jemalloc_size_class`) is why small slack
values often coincide in measured space, as the paper observes.
"""

from __future__ import annotations

from typing import Optional

from repro.memory.allocator import TrackingAllocator
from repro.memory.cost_model import CostModel
from repro.obs import BreathingResizeEvent

TID_BYTES = 8


class BreathingTidArray:
    """Accounting shim for a compact leaf's separately-allocated tuple-id
    array.  The actual tids live in the representation; this tracks the
    simulated allocation size and charges reallocation costs."""

    def __init__(
        self,
        slack: int,
        capacity: int,
        initial_count: int,
        allocator: TrackingAllocator,
        cost_model: CostModel,
        category: str = "leaf.compact.tids",
    ) -> None:
        if slack < 1:
            raise ValueError("breathing slack must be >= 1")
        self.slack = slack
        self.capacity = capacity
        self.allocator = allocator
        self.cost = cost_model
        self.category = category
        self.slots = min(capacity, initial_count + slack)
        self._alive = True
        self.allocator.allocate(self.size_bytes, category)

    @property
    def size_bytes(self) -> int:
        return self.slots * TID_BYTES

    def ensure_room(self, count_after_insert: int) -> None:
        """Grow by ``slack`` slots if the next insert would not fit.

        Charges the realloc: a new allocation plus copying the live tids
        — the insert overhead the paper measures in Figure 11c.
        """
        if count_after_insert <= self.slots:
            return
        old_bytes = self.size_bytes
        old_slots = self.slots
        self.slots = min(self.capacity, self.slots + self.slack)
        if self.slots < count_after_insert:
            self.slots = min(self.capacity, count_after_insert)
        self.allocator.resize(old_bytes, self.size_bytes, self.category)
        self.cost.copy_bytes((count_after_insert - 1) * TID_BYTES)
        self.cost.rand_lines(1)
        observer = self.cost.observer
        if observer is not None:
            observer.record(BreathingResizeEvent(
                reason="grow", old_slots=old_slots, new_slots=self.slots,
                capacity=self.capacity, count=count_after_insert,
            ))

    def reset_capacity(self, capacity: int, count: int) -> None:
        """Re-base after a structural change (split/merge/conversion)."""
        old_bytes = self.size_bytes
        old_slots = self.slots
        self.capacity = capacity
        self.slots = min(capacity, count + self.slack)
        self.allocator.resize(old_bytes, self.size_bytes, self.category)
        self.cost.copy_bytes(count * TID_BYTES)
        observer = self.cost.observer
        if observer is not None:
            observer.record(BreathingResizeEvent(
                reason="rebase", old_slots=old_slots, new_slots=self.slots,
                capacity=capacity, count=count,
            ))

    def destroy(self) -> None:
        if self._alive:
            self.allocator.free(self.size_bytes, self.category)
            self._alive = False
