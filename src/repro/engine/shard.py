"""The shard layer: one index instance plus its memory identity.

An :class:`IndexShard` is the unit the engine routes operations to and
the unit the budget arbiter moves soft-bound bytes between.  Each shard
owns its index and a dedicated
:class:`~repro.memory.allocator.TrackingAllocator`, so its footprint —
and, for elastic indexes, its pressure observations — is isolated, while
all shards of a database share one
:class:`~repro.memory.cost_model.CostModel` performance ledger.
"""

from __future__ import annotations

from typing import Optional

from repro.memory.allocator import TrackingAllocator
from repro.memory.budget import PressureState


class IndexShard:
    """One partition of a sharded index: the index plus its allocator."""

    def __init__(
        self,
        shard_id: int,
        index,
        allocator: TrackingAllocator,
        name: str = "",
    ) -> None:
        self.shard_id = shard_id
        self.index = index
        self.allocator = allocator
        self.name = name or f"shard[{shard_id}]"

    # ------------------------------------------------------------------
    # Memory identity (what the arbiter reads)
    # ------------------------------------------------------------------
    @property
    def index_bytes(self) -> int:
        return self.index.index_bytes

    @property
    def controller(self):
        """The shard's elasticity controller, or None if not elastic."""
        return getattr(self.index, "controller", None)

    @property
    def pressure_state(self) -> Optional[PressureState]:
        controller = self.controller
        return controller.state if controller is not None else None

    @property
    def soft_bound_bytes(self) -> Optional[int]:
        controller = self.controller
        if controller is None:
            return None
        return controller.budget.soft_bound_bytes

    @property
    def cache(self):
        """The shard index's adaptive cache, or None if not attached."""
        return getattr(self.index, "cache", None)

    @property
    def compact_bytes(self) -> int:
        """Bytes held in compact-leaf structures on this shard."""
        return self.allocator.bytes_in("leaf.compact")

    @property
    def compact_fraction(self) -> float:
        """Fraction of the shard's index bytes in compact leaves."""
        total = self.index_bytes
        return self.compact_bytes / total if total else 0.0

    def __len__(self) -> int:
        return len(self.index)

    def __repr__(self) -> str:
        state = self.pressure_state
        return (
            f"IndexShard({self.name}, items={len(self)}, "
            f"bytes={self.index_bytes}"
            + (f", state={state.value}" if state is not None else "")
            + ")"
        )
