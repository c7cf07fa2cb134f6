"""Periodic re-scoring and one-at-a-time replica rebuilds.

The :class:`ReplicaAdvisor` closes the loop the ROADMAP calls
"unlocking the power of diversity": the router's score table says how
well each *existing* replica serves the observed class mix; the advisor
asks whether a *different* profile would serve it better, and — when
the answer is a clear yes — rebuilds exactly one replica under the new
profile, billed like a bulk leaf conversion (drain + rebuild charged to
the shared cost model, ``replica_rebuild`` event carrying the units).

Candidate profiles are priced on a **scratch sample**: a throwaway
index built from the router's probe keys, measured and then rebated, so
candidate evaluation leaves only the advisor fee on the ledger.  Probes,
scratch builds and the billed rebuild are the what-if engine's
(:mod:`repro.engine.whatif`), shared with the router and the
self-tuning advisor; this class keeps only the decision policy.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.cluster.config import (
    BOUNDED_KINDS,
    QUERY_CLASSES,
    ReplicaProfile,
)
from repro.cluster.replica_set import Replica, ReplicaSet
from repro.engine.builder import live_bound
from repro.engine.whatif import (
    ProbeRound,
    billed_rebuild,
    build_scratch,
    sample_pairs,
)
from repro.errors import ReplicaConfigError
from repro.obs import ReplicaRebuildEvent


class ReplicaAdvisor:
    """Re-scores replica configurations against the observed class mix."""

    def __init__(self, replica_set: ReplicaSet) -> None:
        self.replica_set = replica_set
        self.router = replica_set.router
        self.cost = replica_set.cost

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score_round(self) -> Dict[tuple, float]:
        """Force one router scoring round now (probes rebated, fee billed)."""
        return self.router.score_round()

    def mix_weighted_scores(self) -> Dict[int, float]:
        """Each replica's cost contribution under the observed class mix.

        For every query class a replica currently serves, its per-op
        score is weighted by the class's observed share of operations;
        the sum is what the cluster pays per op for keeping the replica
        in its present configuration.  Replicas serving no class score
        0.0 — they are the natural rebuild candidates.
        """
        mix = self.router.class_mix()
        assignment = self.router.assignment()
        scores = self.router.scores()
        contribution: Dict[int, float] = {
            replica.replica_id: 0.0 for replica in self.replica_set.replicas
        }
        for cls, rid in assignment.items():
            units = scores.get((cls, rid))
            if units is not None:
                contribution[rid] += mix.get(cls, 0.0) * units
        return contribution

    # ------------------------------------------------------------------
    # Rebuild (billed)
    # ------------------------------------------------------------------
    def rebuild(self, replica_id: int, profile: ReplicaProfile) -> float:
        """Rebuild one replica under ``profile``; returns billed units.

        The replica's current index is drained in key order and bulk-
        loaded into a fresh index built from the profile's recipe (over
        the set's ``create_index``-level recipe) under the bound the
        replica's controllers hold now — the whole round trip is charged
        to the shared cost model exactly like a bulk leaf conversion
        (nothing is rebated; :func:`~repro.engine.whatif.billed_rebuild`).
        The new structures replace the old ones in the budget arbiter,
        and the router's cached scores for the replica are invalidated
        so the next round re-probes the new configuration.
        """
        profile.validate()
        replicas = self.replica_set.replicas
        if not 0 <= replica_id < len(replicas):
            raise ReplicaConfigError(
                f"no replica {replica_id} in a "
                f"{len(replicas)}-replica cluster"
            )
        replica = replicas[replica_id]
        recipe = self._recipe(profile, replica)
        if recipe is None:
            raise ReplicaConfigError(
                f"profile {profile.name!r} is elastic but replica "
                f"{replica_id} holds no bound to reuse"
            )
        old_profile = replica.profile
        replica.index, cost_units, items = billed_rebuild(
            recipe, replica.index, self.replica_set.arbiter,
        )
        replica.profile = profile
        replica.bound_bytes = recipe.size_bound_bytes
        self.router.invalidate(replica_id)
        observer = self.cost.observer
        if observer is not None:
            observer.record(ReplicaRebuildEvent(
                replica=replica_id, old_profile=old_profile.name,
                new_profile=profile.name, items=items,
                cost_units=cost_units,
            ))
        return cost_units

    def _recipe(self, profile: ReplicaProfile, replica: Replica):
        """``profile``'s recipe for ``replica``, under the bound the
        replica's controllers hold now (the bound it was last built
        under, when nothing in it is elastic); None if an elastic
        profile would have no bound."""
        bound = live_bound(replica.index)
        if bound is None:
            bound = replica.bound_bytes
        if profile.kind in BOUNDED_KINDS and bound is None:
            return None
        return profile.recipe(self.replica_set.recipe, bound, replica.name)

    # ------------------------------------------------------------------
    # Advice (candidates priced on a scratch sample, rebated)
    # ------------------------------------------------------------------
    def advise(
        self,
        candidates: Sequence[ReplicaProfile],
        improvement_fraction: float = 0.1,
    ) -> Optional[Tuple[int, str]]:
        """Consider rebuilding the worst replica under a candidate profile.

        The replica with the highest mix-weighted cost contribution is
        the rebuild target.  Each candidate is priced by building a
        scratch index over the router's sample keys at the target's
        bound, probing it with the same per-class probes, and rebating
        the whole evaluation (one :class:`~repro.engine.whatif.
        ProbeRound`: only the advisor fee is billed).  If the best
        candidate beats the incumbent's mix-weighted score by more than
        ``improvement_fraction``, the replica is rebuilt (billed) and
        ``(replica_id, profile_name)`` is returned; otherwise None.
        """
        contributions = self.mix_weighted_scores()
        if not contributions:
            return None
        target_id = max(
            contributions, key=lambda rid: (contributions[rid], -rid)
        )
        incumbent_units = contributions[target_id]
        mix = self.router.class_mix()
        samples = self.router._samples
        pairs = sample_pairs(
            [key for cls in QUERY_CLASSES for key in samples[cls]]
        )
        if not pairs or incumbent_units <= 0.0:
            return None
        target = self.replica_set.replicas[target_id]
        probes = ProbeRound(
            self.cost, self.replica_set.config.advisor_fee_units
        )
        best: Optional[Tuple[float, int, ReplicaProfile]] = None
        for position, candidate in enumerate(candidates):
            candidate.validate()
            recipe = self._recipe(candidate, target)
            if recipe is None:
                continue
            with probes.probe():
                scratch, _ = build_scratch(recipe, pairs)
                units = self._mix_probe_units(scratch, mix)
            key = (units, position)
            if best is None or key < (best[0], best[1]):
                best = (units, position, candidate)
        probes.bill()
        if best is None:
            return None
        units, _, candidate = best
        if units >= incumbent_units * (1.0 - improvement_fraction):
            return None
        self.rebuild(target_id, candidate)
        return target_id, candidate.name

    def _mix_probe_units(self, index, mix: Dict[str, float]) -> float:
        """Mix-weighted per-op probe cost of ``index`` (not rebated here;
        the caller's probe rebates around this call)."""
        total = 0.0
        for cls in QUERY_CLASSES:
            share = mix.get(cls, 0.0)
            if share and self.router._samples[cls]:
                total += share * self.router._probe_units(cls, index)
        return total
