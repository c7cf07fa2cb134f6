"""LearnedLeaf: a FITing-Tree segment leaf behind the B+-tree leaf ADT.

The leaf stores *only* tuple ids (key order) plus a small table of
piecewise-linear segments fitted over the key distribution
(:mod:`repro.learned.segments`).  A point probe evaluates one model —
charged as a ``model_eval`` event plus the in-cache segment-locate
compares — and then verifies with a biased exponential search out from
the predicted position, loading at most a 2ε-wide window of keys from
the table.  The loads go through :meth:`Table.load_key`, so inside a
batched read path (``lookup_batch`` wraps them in
:meth:`CostModel.mlp_batch`) they charge at the overlapped batched
rate, or join an open :meth:`CostModel.mlp_window` prefetch wave.

Correctness never depends on the model: the exponential search widens
until the probe brackets the key, so a stale model costs extra loads,
not wrong answers.  Staleness is bounded anyway — the leaf fits with a
tightened bound ``fit ε = max(1, ε // 4)`` and counts every structural
mutation as one position of *drift*; when drift would exceed
``ε - fit ε - 1`` the leaf **retrains** (reloads its keys, refits the
segments), billed like a conversion, reported to the owning elasticity
controller's churn counters and emitted as a
:class:`~repro.obs.events.LeafRetrainEvent`.  That keeps every probe of
a stored key within ε of its prediction (the hypothesis-tested
invariant) and makes churn measurably expensive — exactly the signal
the elasticity policy uses to send churn-heavy leaves back to full
representation (DESIGN.md §11).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.blindi.breathing import BreathingTidArray, TID_BYTES
from repro.btree.leaves import LeafFullError, LeafNode, next_node_id
from repro.learned.segments import (
    SEGMENT_BYTES,
    Segment,
    fit_segments,
    locate_segment,
)
from repro.memory.allocator import TrackingAllocator
from repro.memory.cost_model import CostModel, NULL_COST_MODEL
from repro.obs import LeafRetrainEvent
from repro.table.table import Table

#: Learned node header: capacity/occupancy/epsilon bookkeeping, drift
#: counter, segment-table pointer, chain pointers.
LEARNED_HEADER_BYTES = 32


class LearnedLeaf(LeafNode):
    """B+-tree leaf with piecewise-linear models and indirect keys."""

    kind = "learned"
    indirect_keys = True

    def __init__(
        self,
        capacity: int,
        table: Table,
        allocator: TrackingAllocator,
        cost_model: CostModel = NULL_COST_MODEL,
        key_width: int = 8,
        epsilon: int = 8,
        breathing_slack: Optional[int] = None,
        items: Optional[List[Tuple[bytes, int]]] = None,
        adopt: Optional[Tuple[List[int], List[Segment]]] = None,
    ) -> None:
        if capacity < 4:
            raise ValueError(f"learned capacity {capacity} too small")
        if epsilon < 2:
            raise ValueError(f"epsilon must be >= 2, got {epsilon}")
        self._capacity = capacity
        self.table = table
        self.allocator = allocator
        self.cost = cost_model
        self.key_width = key_width
        self.epsilon = epsilon
        #: The models are fitted tighter than the public bound so that
        #: bounded post-fit drift still keeps probes within ``epsilon``.
        self.fit_epsilon = max(1, epsilon // 4)
        self.drift_slack = max(0, epsilon - self.fit_epsilon - 1)
        self.tids: List[int] = []
        self.segments: List[Segment] = []
        #: Structural mutations since the last fit (each shifts true
        #: positions by at most one).
        self.drift = 0
        self.retrain_count = 0
        #: Total structural mutations absorbed — the churn signal the
        #: grow/shrink policy reads (DESIGN.md §11).
        self.churn_ops = 0
        #: ``(predicted_pos, final_pos, probe_loads)`` of the last probe.
        self.last_probe: Tuple[int, int, int] = (0, 0, 0)
        self.next_leaf: Optional[LeafNode] = None
        self.prev_leaf: Optional[LeafNode] = None
        self.node_id = next_node_id()
        #: Set by the elasticity controller: raises the underflow trigger
        #: to the paper's k+1 invariant (section 4).
        self.elastic_underflow = False
        #: Set by the learned kind's build hook: the elasticity
        #: controller whose churn counters this leaf's retrains feed.
        self.controller = None
        self._alive = True
        self._seg_charged = 0
        self.breathing: Optional[BreathingTidArray] = None
        self.breathing_slack = breathing_slack
        self.allocator.allocate(self._body_bytes, "leaf.learned")
        if adopt is not None:
            tids, segments = adopt
            if len(tids) > capacity:
                raise ValueError("adopted contents exceed capacity")
            self.tids = list(tids)
            self.segments = list(segments)
            cost_model.copy_bytes(
                len(tids) * TID_BYTES + len(segments) * SEGMENT_BYTES
            )
        elif items:
            if len(items) > capacity:
                raise ValueError("initial items exceed capacity")
            self.tids = [t for _, t in items]
            cost_model.copy_bytes(len(items) * TID_BYTES)
            self._fit([k for k, _ in items])
        if breathing_slack is not None:
            self.breathing = BreathingTidArray(
                breathing_slack, capacity, len(self.tids), allocator,
                cost_model, category="leaf.learned.tids",
            )
        self._resize_segment_slab()

    # ------------------------------------------------------------------
    # Space model
    # ------------------------------------------------------------------
    @property
    def _body_bytes(self) -> int:
        """Node body: header plus either the in-node tuple-id array or a
        pointer to the breathing array (section 5.4); the segment-table
        pointer is part of the header."""
        if self.breathing_slack is not None:
            return LEARNED_HEADER_BYTES + 8
        return LEARNED_HEADER_BYTES + self._capacity * TID_BYTES

    @property
    def _segment_bytes(self) -> int:
        return len(self.segments) * SEGMENT_BYTES

    @property
    def size_bytes(self) -> int:
        total = self._body_bytes + self._seg_charged
        if self.breathing is not None:
            total += self.breathing.size_bytes
        return total

    def _resize_segment_slab(self) -> None:
        """Reconcile the separately-allocated segment table with the
        current fit (allocator round trips are charged)."""
        wanted = self._segment_bytes
        if wanted == self._seg_charged:
            return
        if self._seg_charged:
            self.allocator.free(self._seg_charged, "leaf.learned")
        if wanted:
            self.allocator.allocate(wanted, "leaf.learned")
        self._seg_charged = wanted

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return len(self.tids)

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def underflow_threshold(self) -> int:
        """Same k+1 elastic invariant as compact leaves (section 4), so
        learned leaves step down the capacity ladder on removals."""
        if self.elastic_underflow:
            return self._capacity // 2 + 1
        return self.min_fill

    # ------------------------------------------------------------------
    # Model fitting / retraining
    # ------------------------------------------------------------------
    def _fit(self, keys: List[bytes]) -> None:
        """Refit the segments over ``keys`` (the current contents, in
        order).  Charges the one-pass cone fit and the segment-table
        write; key loads are the caller's responsibility."""
        key_ints = [int.from_bytes(k, "big") for k in keys]
        self.cost.compares(len(key_ints))
        self.segments = fit_segments(key_ints, self.fit_epsilon)
        self.cost.copy_bytes(self._segment_bytes)
        self.drift = 0

    def _retrain(self, trigger: str) -> None:
        """Reload the keys and refit — billed like a conversion."""
        with self.cost.measure() as delta:
            with self.cost.attributed_to("learned.retrain"):
                self.cost.rand_lines(1)
                with self.cost.mlp_batch():
                    keys = [self.table.load_key(tid) for tid in self.tids]
                self._fit(keys)
                self._resize_segment_slab()
        self.retrain_count += 1
        cost_units = delta.weighted_cost()
        if self.controller is not None:
            self.controller.note_retrain(cost_units)
        if obs.is_enabled():
            obs.emit(LeafRetrainEvent(
                node_id=self.node_id,
                trigger=trigger,
                count=self.count,
                segments=len(self.segments),
                retrain_count=self.retrain_count,
                cost_units=cost_units,
            ))

    def _note_churn(self) -> None:
        """Account one structural mutation; retrain when the accumulated
        drift would let a probe escape the ε window."""
        self.churn_ops += 1
        self.drift += 1
        if self.drift > self.drift_slack or (self.tids and not self.segments):
            self._retrain("drift")

    # ------------------------------------------------------------------
    # Point probe
    # ------------------------------------------------------------------
    def _probe(self, key: bytes) -> Tuple[bool, int]:
        """Locate ``key``: ``(found, pos)`` where ``pos`` is the match
        position or the insertion point.  Charges one ``model_eval``,
        the in-cache segment locate, and one indirect key load per
        probed position (biased exponential search from the predicted
        position, so a well-fitted model pays for ~1 load)."""
        n = len(self.tids)
        cost = self.cost
        if n == 0:
            self.last_probe = (0, 0, 0)
            return False, 0
        if not self.segments:
            pred = 0
        else:
            cost.model_evals(1)
            steps = max(1, len(self.segments).bit_length())
            cost.compares(steps)
            cost.branches(steps)
            key_int = int.from_bytes(key, "big")
            seg = self.segments[locate_segment(self.segments, key_int)]
            pred = seg.predict(key_int)
            if pred >= n:
                pred = n - 1
        loaded: Dict[int, bytes] = {}

        def key_at(pos: int) -> bytes:
            cached = loaded.get(pos)
            if cached is None:
                loaded[pos] = cached = self.table.load_key(self.tids[pos])
            return cached

        probe = key_at(pred)
        cost.compares(1)
        cost.branches(1)
        if probe == key:
            self.last_probe = (pred, pred, len(loaded))
            return True, pred
        if probe < key:
            bound = 1
            while pred + bound < n and key_at(pred + bound) < key:
                cost.compares(1)
                cost.branches(1)
                bound <<= 1
            lo = pred + (bound >> 1) + 1
            hi = min(n - 1, pred + bound)
        else:
            bound = 1
            while pred - bound >= 0 and key_at(pred - bound) > key:
                cost.compares(1)
                cost.branches(1)
                bound <<= 1
            lo = max(0, pred - bound)
            hi = pred - (bound >> 1) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            k = key_at(mid)
            cost.compares(1)
            cost.branches(1)
            if k == key:
                self.last_probe = (pred, mid, len(loaded))
                return True, mid
            if k < key:
                lo = mid + 1
            else:
                hi = mid - 1
        self.last_probe = (pred, lo, len(loaded))
        return False, lo

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------
    def _breathing_search_cost(self) -> None:
        if self.breathing is not None:
            # One extra dependent dereference before the data pointer.
            self.cost.seq_lines(2)

    def lookup(self, key: bytes) -> Optional[int]:
        with self.cost.attributed_to("learned.search"):
            self.cost.rand_lines(1)  # node access
            self._breathing_search_cost()
            found, pos = self._probe(key)
        if found:
            return self.tids[pos]
        return None

    def lookup_batch(self, keys: List[bytes]) -> List[Optional[int]]:
        # One node access for the whole run (tuple ids and segments stay
        # cache-resident); every probe load is issued as part of a batch
        # of independent accesses, so it charges at the overlapped
        # key_load_batched rate — or joins an open prefetch wave.
        out: List[Optional[int]] = []
        with self.cost.attributed_to("learned.search"):
            self.cost.wave_loads("rand_line", 1)
            self._breathing_search_cost()
            with self.cost.mlp_batch():
                for key in keys:
                    found, pos = self._probe(key)
                    out.append(self.tids[pos] if found else None)
        return out

    def upsert(self, key: bytes, tid: int) -> Optional[int]:
        with self.cost.attributed_to("learned.search"):
            self.cost.rand_lines(1)
            self._breathing_search_cost()
            found, pos = self._probe(key)
        if found:
            old = self.tids[pos]
            self.tids[pos] = tid
            self.cost.seq_lines(1)
            return old
        if len(self.tids) >= self._capacity:
            raise LeafFullError()
        with self.cost.attributed_to("learned.update"):
            if self.breathing is not None:
                self.breathing.ensure_room(len(self.tids) + 1)
            self.tids.insert(pos, tid)
            self.cost.copy_bytes((len(self.tids) - pos) * TID_BYTES)
            self._note_churn()
        return None

    def remove(self, key: bytes) -> Optional[int]:
        with self.cost.attributed_to("learned.search"):
            self.cost.rand_lines(1)
            self._breathing_search_cost()
            found, pos = self._probe(key)
        if not found:
            return None
        with self.cost.attributed_to("learned.update"):
            tid = self.tids.pop(pos)
            self.cost.copy_bytes((len(self.tids) - pos) * TID_BYTES)
            self._note_churn()
        return tid

    # ------------------------------------------------------------------
    # Ordered access (each key is an indirect load)
    # ------------------------------------------------------------------
    def first_key(self) -> bytes:
        return self.table.load_key(self.tids[0])

    def last_key(self) -> bytes:
        """Largest stored key (append-path detection in the tree)."""
        return self.table.load_key(self.tids[-1])

    def items(self) -> Iterator[Tuple[bytes, int]]:
        self.cost.rand_lines(1)
        for tid in list(self.tids):
            yield self.table.load_key_batched(tid), tid

    def iter_from(self, key: bytes) -> Iterator[Tuple[bytes, int]]:
        self.cost.rand_lines(1)
        _, start = self._probe(key)
        for pos in range(start, len(self.tids)):
            tid = self.tids[pos]
            yield self.table.load_key_batched(tid), tid

    def take_first(self) -> Tuple[bytes, int]:
        key = self.table.load_key(self.tids[0])
        tid = self.tids.pop(0)
        self.cost.copy_bytes(len(self.tids) * TID_BYTES)
        self._note_churn()
        return key, tid

    def take_last(self) -> Tuple[bytes, int]:
        key = self.table.load_key(self.tids[-1])
        tid = self.tids.pop()
        self._note_churn()
        return key, tid

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def keys_and_tids(self) -> Tuple[List[bytes], List[int]]:
        tids = list(self.tids)
        return self.table.load_keys_batched(tids), tids

    def split(self, fraction: float = 0.5) -> Tuple["LearnedLeaf", bytes]:
        keys, tids = self.keys_and_tids()
        mid = max(1, min(len(tids) - 1, int(len(tids) * fraction)))
        right = LearnedLeaf(
            self._capacity,
            self.table,
            self.allocator,
            self.cost,
            self.key_width,
            epsilon=self.epsilon,
            breathing_slack=self.breathing_slack,
            items=list(zip(keys[mid:], tids[mid:])),
        )
        right.elastic_underflow = self.elastic_underflow
        right.controller = self.controller
        self.tids = tids[:mid]
        self._fit(keys[:mid])
        self._resize_segment_slab()
        if self.breathing is not None:
            self.breathing.reset_capacity(self._capacity, len(self.tids))
        return right, keys[mid]

    def merge_from(self, right: LeafNode) -> None:
        if self.count + right.count > self._capacity:
            raise ValueError("merge would overflow learned leaf")
        keys, tids = self.keys_and_tids()
        rkeys, rtids = right.keys_and_tids()
        self.tids = tids + rtids
        self.cost.copy_bytes(len(rtids) * TID_BYTES)
        self._fit(keys + rkeys)
        self._resize_segment_slab()
        if self.breathing is not None:
            self.breathing.ensure_room(len(self.tids))

    # ------------------------------------------------------------------
    # Conversion helpers (used by the elasticity algorithm)
    # ------------------------------------------------------------------
    def with_capacity(self, new_capacity: int) -> "LearnedLeaf":
        """New learned leaf adopting this one's tuple ids and segments at
        a different capacity (the section 4 capacity ladder) — no key
        reloads and no refit.  The caller replaces this leaf in the tree
        and then destroys it."""
        leaf = LearnedLeaf(
            new_capacity,
            self.table,
            self.allocator,
            self.cost,
            self.key_width,
            epsilon=self.epsilon,
            breathing_slack=self.breathing_slack,
            adopt=(self.tids, self.segments),
        )
        leaf.elastic_underflow = self.elastic_underflow
        leaf.controller = self.controller
        leaf.drift = self.drift
        leaf.retrain_count = self.retrain_count
        leaf.churn_ops = self.churn_ops
        return leaf

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def destroy(self) -> None:
        if self._alive:
            self.allocator.free(self._body_bytes, "leaf.learned")
            if self._seg_charged:
                self.allocator.free(self._seg_charged, "leaf.learned")
                self._seg_charged = 0
            if self.breathing is not None:
                self.breathing.destroy()
            self._alive = False

    def __repr__(self) -> str:
        return (
            f"<LearnedLeaf n={self.count}/{self._capacity} "
            f"segs={len(self.segments)} eps={self.epsilon}>"
        )


def learned_leaf_factory(
    capacity: int,
    table: Table,
    key_width: int,
    epsilon: int = 8,
    breathing_slack: Optional[int] = None,
) -> Callable[[object], LearnedLeaf]:
    """Factory for trees whose *every* leaf is learned (static
    FITing-Tree baseline)."""

    def make(tree) -> LearnedLeaf:
        return LearnedLeaf(
            capacity,
            table,
            tree.allocator,
            tree.cost,
            key_width,
            epsilon=epsilon,
            breathing_slack=breathing_slack,
        )

    return make
