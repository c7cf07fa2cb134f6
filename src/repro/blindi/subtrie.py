"""SubTrie: Bumbulis & Bowman's preorder blind-trie array (section 5.1).

The SubTrie stores the blind trie's nodes in an array sorted in preorder
(depth-first) order.  A node's left child, when present, is the adjacent
array entry; to find right children the representation also keeps, per
node, the size of its left subtree inclusive of the node itself
(``lsize``).  This costs ~2 B per key — double the SeqTrie — but search
descends the trie directly instead of scanning.

Searches, inserts and removes are fully incremental (O(depth) descents
plus O(n) array shifts).  Splits and merges convert through the in-order
(SeqTrie) bit sequence, which is derivable structurally — no key loads.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.keys.bitops import first_diff_bit, get_bit
from repro.memory.cost_model import CostModel, NULL_COST_MODEL
from repro.blindi.seqtrie import SearchResult, _bits_of_sorted_keys
from repro.table.table import Table


class SubTrieRep:
    """Preorder blind-trie representation over tuple ids."""

    kind = "subtrie"

    def __init__(self, table: Table, key_width: int,
                 cost_model: CostModel = NULL_COST_MODEL) -> None:
        self.table = table
        self.key_width = key_width
        self.cost = cost_model
        self.pre_bits: List[int] = []  # discriminating bits, preorder
        self.lsize: List[int] = []  # left-subtree node count + 1, preorder
        self.tids: List[int] = []  # tuple ids, key order

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_sorted(
        cls,
        keys: List[bytes],
        tids: List[int],
        table: Table,
        key_width: int,
        cost_model: CostModel = NULL_COST_MODEL,
        **kwargs,
    ) -> "SubTrieRep":
        rep = cls(table, key_width, cost_model, **kwargs)
        rep.tids = list(tids)
        rep._rebuild_from_inorder(_bits_of_sorted_keys(keys))
        return rep

    def _rebuild_from_inorder(self, inorder: List[int]) -> None:
        """Build the preorder arrays from in-order discriminating bits."""
        pre_bits: List[int] = []
        lsize: List[int] = []

        def build(lo: int, hi: int) -> int:
            """Emit the subtree for inorder[lo..hi]; returns node count."""
            if lo > hi:
                return 0
            best = lo
            for i in range(lo + 1, hi + 1):
                if inorder[i] < inorder[best]:
                    best = i
            slot = len(pre_bits)
            pre_bits.append(inorder[best])
            lsize.append(0)  # patched below
            left_nodes = build(lo, best - 1)
            lsize[slot] = left_nodes + 1
            right_nodes = build(best + 1, hi)
            return 1 + left_nodes + right_nodes

        build(0, len(inorder) - 1)
        self.pre_bits = pre_bits
        self.lsize = lsize
        self.cost.compares(len(inorder))
        self.cost.copy_bytes(len(inorder) * self.entry_bytes(len(inorder) + 1))

    def _to_inorder(self) -> List[int]:
        """Recover the in-order (SeqTrie) bit sequence structurally."""
        out: List[int] = []

        def walk(p: int, m: int) -> None:
            if m <= 0:
                return
            ls = self.lsize[p]
            walk(p + 1, ls - 1)
            out.append(self.pre_bits[p])
            walk(p + ls, m - ls)

        walk(0, len(self.pre_bits))
        return out

    # ------------------------------------------------------------------
    # Properties / space model
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.tids)

    @property
    def bit_entry_bytes(self) -> int:
        return 1 if self.key_width <= 32 else 2

    def entry_bytes(self, capacity: int) -> int:
        """Bytes per node: the bit entry plus the left-subtree counter,
        which needs 2 bytes once capacities exceed 256 (section 6.4)."""
        lsize_bytes = 1 if capacity <= 256 else 2
        return self.bit_entry_bytes + lsize_bytes

    def payload_bytes(self, capacity: int) -> int:
        return max(0, capacity - 1) * self.entry_bytes(capacity)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _candidate(self, key: bytes, node_lines: int) -> int:
        """Descend by the searched key's bits; returns the key position
        the search terminates at.  Each level is a compare, a branch and
        a line, charged once per walk, after ``node_lines`` random lines
        of node access."""
        p, kbase, m = 0, 0, len(self.pre_bits)
        levels = 0
        while m > 0:
            levels += 1
            ls = self.lsize[p]
            if get_bit(key, self.pre_bits[p]):
                kbase += ls
                p += ls
                m -= ls
            else:
                p += 1
                m = ls - 1
        self.cost.charge_many("rand_line", node_lines, "compare", levels,
                              "branch", levels, "seq_line", levels)
        return kbase

    def search(self, key: bytes, node_lines: int = 0) -> SearchResult:
        """Predecessor search; ``node_lines`` random lines of node access
        (the leaf's) lead the candidate descent's charge."""
        if self.n == 0:
            if node_lines:
                self.cost.charge("rand_line", node_lines)
            return SearchResult(False, 0, -1)
        j = self._candidate(key, node_lines)
        candidate = self.table.load_key(self.tids[j])
        self.cost.compares(1)
        b_d = first_diff_bit(candidate, key)
        if b_d is None:
            return SearchResult(True, j, j)
        skey_greater = bool(get_bit(key, b_d))
        _, kbase, m, _ = self._fixup_descend(key, b_d)
        # All keys of the stopped-at subtree share the searched key's
        # b_d-bit prefix, so they all sit on one side of it.
        pred = kbase + m if skey_greater else kbase - 1
        return SearchResult(
            found=False,
            pos=pred + 1,
            pred=pred,
            b_d=b_d,
            skey_greater=skey_greater,
        )

    def _fixup_descend(
        self, key: bytes, b_d: int
    ) -> Tuple[int, int, int, List[int]]:
        """Descend until reaching a node whose bit exceeds ``b_d``.

        Returns (preorder index, key base, subtree node count, preorder
        indices of ancestors whose left subtree we entered).
        """
        p, kbase, m = 0, 0, len(self.pre_bits)
        left_turns: List[int] = []
        levels = 0
        while m > 0:
            b = self.pre_bits[p]
            levels += 1
            if b > b_d:
                break
            ls = self.lsize[p]
            if get_bit(key, b):
                kbase += ls
                p += ls
                m -= ls
            else:
                left_turns.append(p)
                p += 1
                m = ls - 1
        # A compare, a branch and a line per level, charged once.
        self.cost.charge_many("compare", levels, "branch", levels,
                              "seq_line", levels)
        return p, kbase, m, left_turns

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def replace_tid(self, pos: int, tid: int) -> int:
        old = self.tids[pos]
        self.tids[pos] = tid
        self.cost.seq_lines(1)
        return old

    def insert_new(self, result: SearchResult, key: bytes, tid: int) -> None:
        pos = result.pos
        if self.n == 0:
            self.tids.append(tid)
            return
        if result.b_d is None:
            raise ValueError("insert_new needs the result of a missed search")
        p, _, m, left_turns = self._fixup_descend(key, result.b_d)
        # Splice a node with bit b_d above the stopped-at subtree; the
        # new key becomes its other (empty-subtree) child.
        self.pre_bits.insert(p, result.b_d)
        if result.skey_greater:
            self.lsize.insert(p, m + 1)  # old subtree becomes left child
        else:
            self.lsize.insert(p, 1)  # new key is the left child
        for q in left_turns:
            self.lsize[q] += 1
        self.tids.insert(pos, tid)
        self.cost.copy_bytes(
            (len(self.pre_bits) - p) * self.entry_bytes(self.n)
            + (len(self.tids) - pos) * 8
        )

    def remove_at(self, pos: int) -> int:
        """Remove the key at position ``pos`` (positional descent)."""
        tid = self.tids.pop(pos)
        n_nodes = len(self.pre_bits)
        if n_nodes == 0:
            return tid
        p, kbase, m = 0, 0, n_nodes
        parent = -1
        left_turns: List[int] = []
        levels = 0
        while m > 0:
            levels += 1
            ls = self.lsize[p]
            parent = p
            if pos >= kbase + ls:
                kbase += ls
                p += ls
                m -= ls
            else:
                left_turns.append(p)
                p += 1
                m = ls - 1
        self.cost.charge_many("branch", levels, "seq_line", levels)
        # ``parent`` is the trie node whose (empty-subtree) child is the
        # removed key; deleting it splices its other subtree into place.
        del self.pre_bits[parent]
        del self.lsize[parent]
        for q in left_turns:
            if q != parent:
                self.lsize[q] -= 1
        self.cost.copy_bytes(
            (n_nodes - parent) * self.entry_bytes(self.n + 1)
            + (len(self.tids) - pos) * 8
        )
        return tid

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def split(self, fraction: float = 0.5) -> "SubTrieRep":
        mid = max(1, min(self.n - 1, int(self.n * fraction)))
        inorder = self._to_inorder()
        right = type(self)(self.table, self.key_width, self.cost)
        right.tids = self.tids[mid:]
        right._rebuild_from_inorder(inorder[mid:])
        del self.tids[mid:]
        self._rebuild_from_inorder(inorder[: mid - 1])
        self.cost.copy_bytes(len(right.tids) * 8)
        return right

    def merge_from(self, right: "SubTrieRep") -> None:
        if right.n == 0:
            return
        if self.n == 0:
            self.tids = list(right.tids)
            self._rebuild_from_inorder(right._to_inorder())
            return
        last_left = self.table.load_key(self.tids[-1])
        first_right = self.table.load_key(right.tids[0])
        boundary = first_diff_bit(last_left, first_right)
        if boundary is None:
            raise ValueError("merge of overlapping key ranges")
        inorder = self._to_inorder() + [boundary] + right._to_inorder()
        self.tids.extend(right.tids)
        self._rebuild_from_inorder(inorder)
        self.cost.copy_bytes(len(right.tids) * 8)

    def append_run(self, keys: List[bytes], tids: List[int], boundary: int) -> None:
        """Append a sorted run of known keys after the current maximum."""
        if not keys:
            return
        inorder = self._to_inorder() + [boundary] + _bits_of_sorted_keys(keys)
        self.tids.extend(tids)
        self._rebuild_from_inorder(inorder)
        self.cost.copy_bytes(len(tids) * 8)

    def _ctor_kwargs(self) -> dict:
        return {}

    # ------------------------------------------------------------------
    # Access helpers
    # ------------------------------------------------------------------
    def tid_at(self, pos: int) -> int:
        return self.tids[pos]

    def key_at(self, pos: int) -> bytes:
        return self.table.load_key(self.tids[pos])

    def check_invariants(self) -> None:
        keys = [self.table.peek_key(t) for t in self.tids]
        if keys != sorted(keys):
            raise AssertionError("tids not in key order")
        # lsize consistency: every subtree's declared size must add up.
        # Checked before the in-order walk, which does not terminate on
        # an lsize of 0 and over-reads past one larger than its subtree.
        def walk(p: int, m: int) -> None:
            if m <= 0:
                return
            ls = self.lsize[p]
            if not 1 <= ls <= m:
                raise AssertionError(
                    f"lsize[{p}]={ls} out of range for m={m}"
                )
            walk(p + 1, ls - 1)
            walk(p + ls, m - ls)

        walk(0, len(self.pre_bits))
        if self._to_inorder() != _bits_of_sorted_keys(keys):
            raise AssertionError("preorder arrays inconsistent")
