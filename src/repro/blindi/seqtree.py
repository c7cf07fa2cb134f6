"""SeqTree: SeqTrie plus an embedded range-restricting tree (section 5.2).

The SeqTree augments the SeqTrie's discriminating-bit array with an
explicit tree over the top levels of the blind trie — the *BlindiTree* —
laid out as a complete binary tree in an array (children of slot ``i``
at ``2i+1`` / ``2i+2``).  Each slot stores the **index** of its entry in
the bits array, or an end-of-tree marker.  Because the bits array is the
in-order traversal of the blind trie, the slot of a node is always the
position of the *minimum* discriminating bit within the node's range,
and the ranges of its children are the subranges to its left and right.

A search descends the tree following the searched key's bits; the node
where it falls off the tree bounds the range the sequential SeqTrie scan
must cover, shrinking it by roughly ``2^levels``.  Small trees occupy
alignment slack, so levels 1–3 are free in the space model (the paper's
measurement, section 6.4).

Maintenance (section 5.3): inserts shift the stored indices and either
drop the new entry into an empty slot, splice it above an existing
subtree (implemented as a subtree rebuild), or leave it below the tree;
removals locate the vanished index in the tree and rebuild that subtree.
"""

from __future__ import annotations

from typing import List, Optional

from repro.memory.cost_model import _CACHE_LINE, CostModel, NULL_COST_MODEL
from repro.blindi.seqtrie import ET, SeqTrieRep
from repro.table.table import Table

#: Alignment slack a leaf node provides for free (levels 1-3 cost nothing,
#: matching the paper's observation in section 6.4).
_FREE_TREE_BYTES = 8


class SeqTreeRep(SeqTrieRep):
    """The paper's novel blind-trie representation."""

    kind = "seqtree"

    def __init__(
        self,
        table: Table,
        key_width: int,
        cost_model: CostModel = NULL_COST_MODEL,
        levels: int = 2,
    ) -> None:
        super().__init__(table, key_width, cost_model)
        if levels < 0:
            raise ValueError("levels must be >= 0")
        self.levels = levels
        self.tree: List[int] = [ET] * ((1 << levels) - 1)

    def _ctor_kwargs(self) -> dict:
        return {"levels": self.levels}

    # ------------------------------------------------------------------
    # Space model
    # ------------------------------------------------------------------
    def tree_entry_bytes(self, capacity: int) -> int:
        """Bytes per BlindiTree slot (indices up to ``capacity``)."""
        return 1 if capacity <= 256 else 2

    def payload_bytes(self, capacity: int) -> int:
        bits_bytes = super().payload_bytes(capacity)
        tree_bytes = len(self.tree) * self.tree_entry_bytes(capacity)
        return bits_bytes + max(0, tree_bytes - _FREE_TREE_BYTES)

    # ------------------------------------------------------------------
    # Tree construction
    # ------------------------------------------------------------------
    def _after_bulk_load(self) -> None:
        self._build_range(0, 0, len(self.bits) - 1)

    def _build_range(self, slot: int, lo: int, hi: int) -> None:
        """(Re)build the subtree at ``slot`` for bits range [lo, hi]:
        per non-empty range a compare per entry and ``touch_bytes_seq``
        of its bytes, tallied and charged once."""
        tree = self.tree
        size = len(tree)
        if slot >= size:
            return
        bits = self.bits
        entry = self.bit_entry_bytes
        compares = rand_lines = seq_lines = 0
        todo = [(slot, lo, hi)]
        while todo:
            slot, lo, hi = todo.pop()
            left = 2 * slot + 1
            if lo > hi:
                tree[slot] = ET
                if left < size:
                    todo += ((left, 1, 0), (left + 1, 1, 0))
                continue
            span = hi - lo + 1
            compares += span
            rand_lines += 1
            seq_lines += (span * entry - 1) // _CACHE_LINE
            best = bits.index(min(bits[lo:hi + 1]), lo)
            tree[slot] = best
            if left < size:
                todo += ((left, lo, best - 1), (left + 1, best + 1, hi))
        self.cost.charge_many("compare", compares, "rand_line", rand_lines,
                              "seq_line", seq_lines)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _after_insert(self, pos: int, bits_idx: int) -> None:
        tree = self.tree
        size = len(tree)
        if not size:
            return
        # 1. Entries at or beyond the insertion point moved one right:
        #    a compare per slot and the tree's bytes (touch_bytes_seq).
        for slot in range(size):
            m = tree[slot]
            if m != ET and m >= bits_idx:
                tree[slot] = m + 1
        # 2. Place the new entry: drop into an empty slot, splice above a
        #    subtree whose root bit is larger (rebuild), or fall below.
        #    A compare and a branch per level.  Both phases charge once,
        #    after the walk, in the order they first charge.
        bits = self.bits
        new_bit = bits[bits_idx]
        slot = 0
        lo, hi = 0, len(bits) - 1
        steps = 0
        splice = None
        while slot < size:
            m = tree[slot]
            if m == ET:
                tree[slot] = bits_idx
                break
            steps += 1
            if new_bit < bits[m]:
                splice = slot
                break
            if bits_idx < m:
                hi = m - 1
                slot = 2 * slot + 1
            else:
                lo = m + 1
                slot = 2 * slot + 2
        self.cost.charge_many("compare", size + steps,
                              "rand_line", 1,
                              "seq_line", (size - 1) // _CACHE_LINE,
                              "branch", steps)
        if splice is not None:
            # The new entry is the range's minimum: it becomes the
            # subtree root (the paper's splice).
            self._build_range(splice, lo, hi)

    def _after_remove(self, pos: int, removed_bits_idx: Optional[int]) -> None:
        tree = self.tree
        size = len(tree)
        if not size:
            return
        bits = self.bits
        if removed_bits_idx is None or not bits:
            for slot in range(size):
                tree[slot] = ET
            return
        r = removed_bits_idx
        # Locate r in the tree (old coordinates) before shifting: a
        # compare and a branch per level.
        found_slot = None
        slot = 0
        steps = 0
        lo, hi = 0, len(bits)  # old array was one entry longer
        while slot < size:
            m = tree[slot]
            if m == ET:
                break
            steps += 1
            if m == r:
                found_slot = slot
                break
            if r < m:
                hi = m - 1
                slot = 2 * slot + 1
            else:
                lo = m + 1
                slot = 2 * slot + 2
        # Entries beyond the removed one move one left: a compare per
        # slot and the tree's bytes (touch_bytes_seq).  The walk and the
        # shift charge once, in the order they first charge.
        self.cost.charge_many("compare", steps + size, "branch", steps,
                              "rand_line", 1,
                              "seq_line", (size - 1) // _CACHE_LINE)
        for slot in range(size):
            m = tree[slot]
            if m != ET and m > r:
                tree[slot] = m - 1
        if found_slot is not None:
            # The removed entry's range, in new coordinates, lost one slot.
            self._build_range(found_slot, lo, hi - 1)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        super().check_invariants()
        self._check_tree(0, 0, len(self.bits) - 1)

    def _check_tree(self, slot: int, lo: int, hi: int) -> None:
        if slot >= len(self.tree):
            return
        m = self.tree[slot]
        if lo > hi:
            assert m == ET, f"slot {slot} should be ET for empty range"
            self._check_tree(2 * slot + 1, 1, 0)
            self._check_tree(2 * slot + 2, 1, 0)
            return
        assert m != ET, f"slot {slot} is ET but range [{lo},{hi}] non-empty"
        assert lo <= m <= hi, f"slot {slot} entry {m} outside [{lo},{hi}]"
        min_bit = min(self.bits[lo : hi + 1])
        assert self.bits[m] == min_bit, (
            f"slot {slot} points at bit {self.bits[m]}, range min is {min_bit}"
        )
        self._check_tree(2 * slot + 1, lo, m - 1)
        self._check_tree(2 * slot + 2, m + 1, hi)
