"""The what-if engine the cluster router and both advisors share.

* **One probe round**: :class:`ProbeRound` runs each probe under
  :meth:`CostModel.what_if <repro.memory.cost_model.CostModel.what_if>`
  (measured, then rebated) and bills ``fee_units`` per scored candidate
  in one ``fixed_op`` charge, the round's only trace on the ledger.
* **One scratch sample**: :func:`sample_pairs`, :class:`SampleView`,
  :func:`scaled_bound` and :func:`build_scratch`.
* **One billed rebuild**: :func:`billed_rebuild`.

Every index is built by :mod:`repro.engine.builder`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.builder import (
    IndexRecipe,
    Pairs,
    build,
    check,
    controllers,
    enroll,
    withdraw,
)
from repro.memory.cost_model import CostModel


class ProbeRound:
    """One advisory round: counts its scored candidates, bills their fee."""

    def __init__(self, cost: CostModel, fee_units: float) -> None:
        self.cost = cost
        self.fee_units = fee_units
        self.scored = 0

    @contextmanager
    def probe(self) -> Iterator[CostModel]:
        """Run one rebated probe, yielding its delta, and count it."""
        with self.cost.what_if() as delta:
            yield delta
        self.scored += 1

    def count(self, n: int = 1) -> None:
        """Count ``n`` candidates scored without a probe of their own."""
        self.scored += n

    def bill(self) -> float:
        """Charge the round's fee (if anything was scored); returns it."""
        fee = self.fee_units * self.scored
        if self.scored:
            self.cost.fixed_ops(fee)
        return fee


class SampleView:
    """Scratch table view backing what-if probes.

    Scratch indexes are built over sampled keys paired with dummy tuple
    ids; compact (blind-trie) and learned leaves resolve those tids
    through this view, charging the same indirect ``key_load`` units a
    real table would — so a candidate's what-if price includes the
    paper's indirection penalty honestly.
    """

    def __init__(self, cost_model) -> None:
        self._cost = cost_model
        self.keys: Dict[int, bytes] = {}

    def register(self, pairs: Sequence[Tuple[bytes, int]]) -> None:
        for key, tid in pairs:
            self.keys[tid] = key

    def load_key(self, tid: int) -> bytes:
        self._cost.key_loads(1)
        return self.keys[tid]

    def load_key_batched(self, tid: int) -> bytes:
        self._cost.key_loads_batched(1)
        return self.keys[tid]

    def load_keys_batched(self, tids: Sequence[int]) -> List[bytes]:
        """Per-key loads in one charge (a missing id's own included)."""
        keys = self.keys
        out: List[bytes] = []
        loaded = 0
        try:
            for tid in tids:
                loaded += 1
                out.append(keys[tid])
        finally:
            self._cost.key_loads_batched(loaded)
        return out

    def peek_key(self, tid: int) -> bytes:
        return self.keys[tid]


def sample_pairs(keys: Sequence[bytes]) -> Pairs:
    """The distinct sampled keys in key order, paired with dummy tids."""
    return [(key, tid) for tid, key in enumerate(sorted(set(keys)))]


def scaled_bound(bound: int, sample_n: int, items: int) -> int:
    """Shrink a live bound to the sample's proportional share, so
    scratch trees feel representative memory pressure."""
    if items <= 0:
        return max(4096, bound)
    return max(1024, bound * sample_n // items)


def build_scratch(recipe: IndexRecipe, pairs: Pairs,
                  load: Optional[Pairs] = None) -> Tuple[object, SampleView]:
    """A throwaway index of ``recipe`` over a :class:`SampleView` of
    ``pairs``, bulk-loaded with ``load`` (default: every pair).  The
    caller measures around it; returns ``(index, view)``."""
    view = SampleView(recipe.cost)
    view.register(pairs)
    index = build(replace(recipe, table=view, name="scratch"),
                  load=pairs if load is None else load)
    return index, view


def billed_rebuild(recipe: IndexRecipe, old, arbiter=None,
                   sweep: Optional[Callable[[], Pairs]] = None
                   ) -> Tuple[object, float, int]:
    """Rebuild ``old`` as ``recipe``'s index, billed like a bulk load;
    returns ``(index, cost_units, items)`` for the caller to swap in.

    The recipe is checked before anything is charged.  Then, measured
    and left on the ledger: ``old`` is drained by one scan (or ``sweep``
    returns the sorted pairs and charges its own table read), the new
    index is built and bulk-loaded, and its caches attach.  The
    rebuild's churn is dropped (it is not workload churn), and whatever
    of ``old`` the ``arbiter`` holds is replaced by the new structures
    under ``recipe.name``.
    """
    check(recipe)
    with recipe.cost.measure() as delta:
        if sweep is not None:
            pairs = sweep()
        else:
            items = len(old)
            pairs = old.scan(b"", items) if items else []
        fresh = build(recipe, load=pairs)
    for controller in controllers(fresh):
        controller.take_churn()
    if arbiter is not None:
        withdraw(arbiter, recipe.name, old)
        enroll(arbiter, recipe.name, fresh)
    return fresh, delta.weighted_cost(), len(pairs)
