"""SeqTrie: the dense blind-trie array representation (paper section 5.2).

The SeqTrie stores, for ``n`` keys sorted lexicographically, an array
``bits`` of ``n - 1`` entries where ``bits[i]`` is the first bit
discriminating the *i*-th from the *(i+1)*-th key (bit 0 = MSB).  Keys
themselves are not stored: the node keeps only tuple ids, and a search
loads exactly one key from the table to verify its candidate.

Search has predecessor semantics.  The sequential scan maintains a
candidate position ``j`` and an ignore threshold: a *hit* (searched key
has bit 1 at the entry's discriminating bit) advances ``j`` past the
entry and clears the threshold; a *miss* records the entry's bit as the
threshold, after which entries with larger discriminating bits are
skipped — they lie inside a subtrie the search has ruled out.

If the verification load mismatches, the discriminating bit ``b_d``
between the searched key and the candidate is known, and the true
predecessor is found by scanning outward from the candidate for the
first entry with a discriminating bit smaller than ``b_d`` (the boundary
of the maximal range of keys sharing the searched key's ``b_d``-bit
prefix; every key in that range lies on the same side of the searched
key).  :class:`~repro.blindi.seqtree.SeqTreeRep` adds the BlindiTree that
the search walks first, which restricts both scans to a small range.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import List, Optional, Sequence

from repro.keys.bitops import first_diff_bit, get_bit
from repro.memory.cost_model import _CACHE_LINE, CostModel, NULL_COST_MODEL
from repro.table.table import Table

_INF = 1 << 30

#: End-of-tree marker of a BlindiTree slot: the slot has no trie node
#: (footnote 2 of the paper uses max-keys + 1; any invalid index works).
ET = -1


@dataclass(slots=True)
class SearchResult:
    """Outcome of a predecessor search in a blind-trie representation.

    Attributes:
        found: Whether the searched key is present.
        pos: Key position when found; insertion position otherwise.
        pred: Position of the largest key <= searched key (-1 if none).
        b_d: Discriminating bit vs. the verified key (``None`` when found
            or when the node is empty).
        bits_insert_idx: Where the new discriminating-bit entry goes on
            insert (``None`` when found or empty).
        skey_greater: Whether the searched key exceeded the verified key.
    """

    found: bool
    pos: int
    pred: int
    b_d: Optional[int] = None
    bits_insert_idx: Optional[int] = None
    skey_greater: bool = False


@dataclass(slots=True)
class _Descent:
    """Scan range and BlindiTree ancestors of a search, for the boundary
    scans of a miss.

    Built only on a miss, from the range ``[lo, hi]`` the walk left and
    the turns rebuilt from the slot where the walk stopped."""

    lo: int
    hi: int
    #: bits-array indices of ancestors where the walk went left,
    #: outermost first; their array positions lie right of ``hi``.
    left_turn_inds: List[int]
    #: bits-array indices of ancestors where the walk went right,
    #: outermost first; their positions lie left of ``lo``.
    right_turn_inds: List[int]

    @classmethod
    def of_walk(cls, lo: int, hi: int, tree: Sequence[int],
                slot: int) -> "_Descent":
        """Rebuild the turns of the walk that stopped at ``slot``: its
        parent is ``(slot - 1) >> 1``, and an odd slot is a left child."""
        left: List[int] = []
        right: List[int] = []
        while slot:
            parent = (slot - 1) >> 1
            (left if slot & 1 else right).append(tree[parent])
            slot = parent
        left.reverse()
        right.reverse()
        return cls(lo, hi, left, right)


class SeqTrieRep:
    """Ferguson-style dense blind trie over tuple ids."""

    kind = "seqtrie"
    #: BlindiTree slots (bits indices or ``ET``) that ``search`` walks
    #: before it scans; a plain SeqTrie has none and scans every entry.
    tree: Sequence[int] = ()

    def __init__(self, table: Table, key_width: int,
                 cost_model: CostModel = NULL_COST_MODEL) -> None:
        self.table = table
        self.key_width = key_width
        self.cost = cost_model
        #: Bytes per discriminating-bit entry: 1 for keys <= 32 B.
        self.bit_entry_bytes = 1 if key_width <= 32 else 2
        self.bits: List[int] = []
        self.tids: List[int] = []

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
    ) -> "SeqTrieRep":
        """Build from an already-sorted key/tid sequence (leaf compaction:
        the keys come for free from the standard leaf being converted)."""
        rep = cls(table, key_width, cost_model, **kwargs)
        rep.tids = list(tids)
        rep.bits = _bits_of_sorted_keys(keys)
        cost_model.copy_bytes(len(tids) * 8 + len(rep.bits) * rep.bit_entry_bytes)
        rep._after_bulk_load()
        return rep

    def _after_bulk_load(self) -> None:
        """Hook for subclasses to build auxiliary structures."""

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of keys stored."""
        return len(self.tids)

    def payload_bytes(self, capacity: int) -> int:
        """Bytes of blind-trie metadata for a node of ``capacity`` keys
        (excludes tuple ids and the node header)."""
        return max(0, capacity - 1) * self.bit_entry_bytes

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, key: bytes, node_lines: int = 0) -> SearchResult:
        """Predecessor search: position of ``key`` or of its predecessor.

        One pass: the BlindiTree walk narrows ``bits`` to ``[lo, hi]``,
        the scan picks the candidate ``j`` in it, and each category is
        charged once, in the order the walk and the scan first charge
        it (docs/COSTMODEL.md), before the verify load.

        ``node_lines`` random lines of node access (the leaf's) join
        that one charge as its leading ``rand_line``: the same ledger as
        charging them just before the search.
        """
        tids = self.tids
        if not tids:
            if node_lines:
                self.cost.charge("rand_line", node_lines)
            return SearchResult(False, 0, -1)
        bits = self.bits
        tree = self.tree
        size = len(tree)
        lo, hi = 0, len(bits) - 1
        slot = steps = 0
        while slot < size:
            m = tree[slot]
            if m == ET:
                break
            steps += 1
            b = bits[m]
            # get_bit(key, b), inlined here and in the scan.
            if (key[b >> 3] >> (7 - (b & 7))) & 1:
                lo = m + 1
                slot = 2 * slot + 2
            else:
                hi = m - 1
                slot = 2 * slot + 1
        j = lo
        threshold = _INF
        for i in range(lo, hi + 1):
            b = bits[i]
            if b > threshold:
                continue
            if (key[b >> 3] >> (7 - (b & 7))) & 1:
                j = i + 1
                threshold = _INF
            else:
                threshold = b
        # Each category once, in the order the phases would first charge
        # it (docs/COSTMODEL.md): the node access, the walk's line of
        # tree and a test per level, then the scan's bytes (first line
        # random, as touch_bytes_seq prices them) and a test per entry.
        count = hi - lo + 1
        extra = (count * self.bit_entry_bytes - 1) // _CACHE_LINE if count else 0
        tests = steps + count
        cost = self.cost
        if node_lines:
            cost.charge_many(
                "rand_line", node_lines + (1 if count else 0),
                "seq_line", extra + (1 if size else 0),
                "compare", tests, "branch", tests,
            )
        elif not size:
            if count:
                cost.charge_many("rand_line", 1, "seq_line", extra,
                                 "compare", count, "branch", count)
        elif steps:
            cost.charge_many("seq_line", 1 + extra, "compare", tests,
                             "branch", tests,
                             "rand_line", 1 if count else 0)
        else:
            cost.charge_many("seq_line", 1 + extra,
                             "rand_line", 1 if count else 0,
                             "compare", count, "branch", count)
        candidate = self.table.load_key(tids[j])
        cost.charge("compare", 1)
        if candidate == key:
            return SearchResult(True, j, j)
        b_d = first_diff_bit(candidate, key)
        descent = _Descent.of_walk(lo, hi, tree, slot)
        if get_bit(key, b_d):
            # Searched key greater: all keys sharing its b_d-prefix are
            # smaller; predecessor is the last of them.
            pred = self._boundary_right(descent, j, b_d)
            return SearchResult(
                found=False,
                pos=pred + 1,
                pred=pred,
                b_d=b_d,
                bits_insert_idx=pred,
                skey_greater=True,
            )
        pred = self._boundary_left(descent, j, b_d)
        return SearchResult(
            found=False,
            pos=pred + 1,
            pred=pred,
            b_d=b_d,
            bits_insert_idx=pred + 1,
            skey_greater=False,
        )

    def _boundary_right(self, descent: _Descent, j: int, b_d: int) -> int:
        """First index >= j (in scan range, then ancestors) whose
        discriminating bit is < b_d; n-1 if none (key is a new maximum)."""
        hi = descent.hi
        scanned = 0
        for i in range(j, hi + 1):
            scanned += 1
            if self.bits[i] < b_d:
                self._charge_fixup(scanned)
                return i
        # Ancestors where the descent went left sit just beyond hi; their
        # right subtrees hold only larger discriminating bits, so only the
        # ancestor entries themselves can be the boundary.
        for ind in reversed(descent.left_turn_inds):
            scanned += 1
            if self.bits[ind] < b_d:
                self._charge_fixup(scanned)
                return ind
        self._charge_fixup(scanned)
        return len(self.tids) - 1

    def _boundary_left(self, descent: _Descent, j: int, b_d: int) -> int:
        """First index < j scanning leftward whose discriminating bit is
        < b_d; -1 if none (key is a new minimum)."""
        lo = descent.lo
        scanned = 0
        for i in range(j - 1, lo - 1, -1):
            scanned += 1
            if self.bits[i] < b_d:
                self._charge_fixup(scanned)
                return i
        for ind in reversed(descent.right_turn_inds):
            scanned += 1
            if self.bits[ind] < b_d:
                self._charge_fixup(scanned)
                return ind
        self._charge_fixup(scanned)
        return -1

    def _charge_fixup(self, scanned: int) -> None:
        """A boundary scan's bytes (as ``touch_bytes_seq`` prices them),
        then a compare and a branch per entry, in one charge."""
        if scanned:
            extra = (scanned * self.bit_entry_bytes - 1) // _CACHE_LINE
            self.cost.charge_many("rand_line", 1, "seq_line", extra,
                                  "compare", scanned, "branch", scanned)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def replace_tid(self, pos: int, tid: int) -> int:
        """Swap the tuple id at ``pos``; returns the old one."""
        old = self.tids[pos]
        self.tids[pos] = tid
        self.cost.seq_lines(1)
        return old

    def insert_new(self, result: SearchResult, key: bytes, tid: int) -> None:
        """Insert an absent key located by ``result``.

        The new discriminating-bit entry is ``b_d`` from the verification
        step — no additional key loads are required (the neighbouring
        entries are provably unchanged; see module docstring).
        """
        pos = result.pos
        if not self.tids:
            self.tids.append(tid)
            return
        if result.b_d is None or result.bits_insert_idx is None:
            raise ValueError("insert_new needs the result of a missed search")
        self.tids.insert(pos, tid)
        self.bits.insert(result.bits_insert_idx, result.b_d)
        moved = len(self.tids) - pos
        self.cost.copy_bytes(moved * 8 + moved * self.bit_entry_bytes)
        self._after_insert(pos, result.bits_insert_idx)

    def _after_insert(self, pos: int, bits_idx: int) -> None:
        """Hook for subclasses (SeqTree maintains its BlindiTree here)."""

    def remove_at(self, pos: int) -> int:
        """Remove the key at ``pos``; returns its tuple id.

        Removing key *p* collapses two discriminating-bit entries into
        one: the surviving entry is the smaller bit (the discriminating
        bit of the removed key's neighbours is the minimum of the two).
        """
        tid = self.tids.pop(pos)
        n_after = len(self.tids)
        removed_bits_idx: Optional[int] = None
        if n_after == 0:
            pass  # no bits remain
        elif pos == 0:
            self.bits.pop(0)
            removed_bits_idx = 0
        elif pos == n_after:  # removed the last key
            self.bits.pop()
            removed_bits_idx = n_after - 1
        else:
            if self.bits[pos - 1] <= self.bits[pos]:
                # Left entry survives (it is the smaller bit).
                self.bits.pop(pos)
                removed_bits_idx = pos
            else:
                self.bits.pop(pos - 1)
                removed_bits_idx = pos - 1
        moved = n_after - pos
        self.cost.copy_bytes(max(0, moved) * (8 + self.bit_entry_bytes))
        self._after_remove(pos, removed_bits_idx)
        return tid

    def _after_remove(self, pos: int, removed_bits_idx: Optional[int]) -> None:
        """Hook for subclasses."""

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def split(self, fraction: float = 0.5) -> "SeqTrieRep":
        """Move the upper part into a new representation.

        A split eliminates one discriminating bit — the one separating
        the halves (paper section 5.3) — so no key loads are needed.
        """
        mid = max(1, min(self.n - 1, int(self.n * fraction)))
        right = type(self)(self.table, self.key_width, self.cost, **self._ctor_kwargs())
        right.tids = self.tids[mid:]
        right.bits = self.bits[mid:]
        del self.tids[mid:]
        del self.bits[mid - 1 :]
        self.cost.copy_bytes(len(right.tids) * (8 + self.bit_entry_bytes))
        self._after_bulk_load()
        right._after_bulk_load()
        return right

    def merge_from(self, right: "SeqTrieRep") -> None:
        """Absorb ``right``; introduces one new discriminating bit, whose
        position requires loading the two boundary keys (section 5.3)."""
        if right.n == 0:
            return
        if self.n == 0:
            self.tids = list(right.tids)
            self.bits = list(right.bits)
            self._after_bulk_load()
            return
        last_left = self.table.load_key(self.tids[-1])
        first_right = self.table.load_key(right.tids[0])
        boundary = first_diff_bit(last_left, first_right)
        if boundary is None:
            raise ValueError("merge of overlapping key ranges")
        self.bits.append(boundary)
        self.bits.extend(right.bits)
        self.tids.extend(right.tids)
        self.cost.copy_bytes(len(right.tids) * (8 + self.bit_entry_bytes))
        self._after_bulk_load()

    def _ctor_kwargs(self) -> dict:
        """Extra constructor arguments for subclasses (split/merge)."""
        return {}

    def append_run(self, keys: List[bytes], tids: List[int], boundary: int) -> None:
        """Append a sorted run of known keys after the current maximum.

        ``boundary`` is the discriminating bit between the current last
        key and ``keys[0]``.  Used when merging a standard leaf into a
        compact one: the standard leaf's keys are already in memory, so
        no loads are charged beyond the boundary computation done by the
        caller.
        """
        if not keys:
            return
        self.bits.append(boundary)
        self.bits.extend(_bits_of_sorted_keys(keys))
        self.tids.extend(tids)
        self.cost.copy_bytes(len(tids) * (8 + self.bit_entry_bytes))
        self._after_bulk_load()

    # ------------------------------------------------------------------
    # Access helpers
    # ------------------------------------------------------------------
    def tid_at(self, pos: int) -> int:
        return self.tids[pos]

    def key_at(self, pos: int) -> bytes:
        """Load the key at ``pos`` from the table (charged)."""
        return self.table.load_key(self.tids[pos])

    def check_invariants(self) -> None:
        """Verify the bits array against the actual keys (tests only)."""
        keys = [self.table.peek_key(t) for t in self.tids]
        assert keys == sorted(keys), "tids not in key order"
        expected = _bits_of_sorted_keys(keys)
        assert self.bits == expected, (
            f"bits array {self.bits} != expected {expected}"
        )


def _bits_of_sorted_keys(keys: List[bytes]) -> List[int]:
    """Discriminating bits of consecutive sorted keys (``first_diff_bit``
    of each adjacent pair), computed on integers; uncharged."""
    out: List[int] = []
    if not keys:
        return out
    width = len(keys[0])
    previous = int.from_bytes(keys[0], "big")
    for key in islice(keys, 1, None):
        if len(key) != width:
            raise ValueError(f"key widths differ: {width} vs {len(key)}")
        value = int.from_bytes(key, "big")
        if value == previous:
            raise ValueError("duplicate keys in blind trie")
        out.append(8 * width - (previous ^ value).bit_length())
        previous = value
    return out
