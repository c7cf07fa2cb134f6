"""The replica-set layer: N divergent full copies behind one surface.

A :class:`ReplicaSet` slots between the database facade and the
engine's shard router, refactoring the read path from *router → shard →
index* into *router → replica-set → shard → index*:

* every replica holds a **full copy** of the table's index, built from
  its own :class:`~repro.cluster.ReplicaProfile` (possibly sharded
  underneath via the existing engine router);
* **reads** route whole operations to the one replica the
  :class:`~repro.cluster.ClusterRouter` scores cheapest for the
  operation's query class; a point read is one router call
  (:meth:`~repro.cluster.ClusterRouter.route_point`);
* **writes** go to *all* replicas — including down ones, since an
  outage models read-serving failure only — by calling each replica's
  index directly in replica-id order, so replicas never diverge in
  content, only in configuration;
* the cluster-global soft bound is apportioned across the elastic
  replicas by profile weight (largest remainder) at build time and
  announced with a ``cluster_budget`` event; the database's
  :class:`~repro.engine.BudgetArbiter` then sees every replica's
  controllers under that one global bound.

Like :class:`~repro.engine.router.ShardedIndex`, a ReplicaSet presents
the ``OrderedIndex`` surface without subclassing it, so
:class:`~repro.exec.BatchExecutor` treats its batch methods as native.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.config import (
    BOUNDED_KINDS,
    ReplicaConfig,
    ReplicaProfile,
)
from repro.cluster.router import ClusterRouter
from repro.engine.builder import (
    IndexRecipe,
    build,
    check,
    controllers,
    live_bound,
)
from repro.engine.router import ShardedIndex
from repro.errors import ReplicaConfigError
from repro.exec.executor import index_caches
from repro.memory.cost_model import CostModel
from repro.obs import ClusterBudgetEvent


class Replica:
    """One full copy of the index plus its configuration identity."""

    def __init__(
        self,
        replica_id: int,
        profile: ReplicaProfile,
        index,
        name: str = "",
        bound_bytes: Optional[int] = None,
    ) -> None:
        self.replica_id = replica_id
        self.profile = profile
        self.index = index
        self.name = name or f"replica[{replica_id}]"
        #: The bound the replica was last built under (its apportioned
        #: share at first; the arbiter moves the live bound since).
        self.bound_bytes = bound_bytes
        #: Read-serving health; writes ignore it (see module docstring).
        self.up = True

    @property
    def index_bytes(self) -> int:
        return self.index.index_bytes

    def __len__(self) -> int:
        return len(self.index)

    def __repr__(self) -> str:
        return (
            f"Replica({self.name}, profile={self.profile.name!r}, "
            f"items={len(self)}, bytes={self.index_bytes}, "
            f"up={self.up})"
        )


class ReplicaSet:
    """An OrderedIndex surface over N divergently-configured replicas."""

    def __init__(
        self,
        replicas: Sequence[Replica],
        config: ReplicaConfig,
        cost: CostModel,
        recipe: Optional[IndexRecipe] = None,
    ) -> None:
        if not replicas:
            raise ReplicaConfigError("a replica set needs >= 1 replica")
        self.replicas: List[Replica] = list(replicas)
        self.config = config
        self.cost = cost
        self.router = ClusterRouter(config, self.replicas, cost)
        #: The ``create_index``-level recipe every replica's profile
        #: recipe builds over (:meth:`ReplicaProfile.recipe
        #: <repro.cluster.ReplicaProfile.recipe>`), rebuilds included.
        self.recipe = recipe
        #: The budget arbiter the replicas are enrolled with (set by the
        #: database when it enrolls them); rebuilds re-enroll with it.
        self.arbiter = None

    # ------------------------------------------------------------------
    # Writes: every replica (up or down), in replica-id order
    # ------------------------------------------------------------------
    def insert(self, key: bytes, tid: int) -> Optional[int]:
        self.router.tick(1)
        results = [replica.index.insert(key, tid) for replica in self.replicas]
        return results[0]

    def remove(self, key: bytes) -> Optional[int]:
        self.router.tick(1)
        results = [replica.index.remove(key) for replica in self.replicas]
        return results[0]

    def insert_sorted_batch(
        self, pairs: Sequence[Tuple[bytes, int]]
    ) -> List[Optional[int]]:
        self.router.tick(len(pairs))
        results = [
            replica.index.insert_sorted_batch(pairs)
            for replica in self.replicas
        ]
        return results[0]

    # ------------------------------------------------------------------
    # Reads: classify, route to one replica
    # ------------------------------------------------------------------
    def lookup(self, key: bytes) -> Optional[int]:
        return self.router.route_point(key).index.lookup(key)

    def lookup_batch(self, keys: Sequence[bytes]) -> List[Optional[int]]:
        if not keys:
            return []
        self.router.observe("batch", keys)
        self.router.tick(len(keys), "batch")
        return self.router.replica_for("batch").index.lookup_batch(keys)

    def scan(self, start_key: bytes, count: int) -> List[Tuple[bytes, int]]:
        if count <= 0:
            return []
        self.router.observe("scan", [start_key])
        self.router.tick(1, "scan")
        return self.router.replica_for("scan").index.scan(start_key, count)

    def scan_batch(
        self, start_keys: Sequence[bytes], count: int
    ) -> List[List[Tuple[bytes, int]]]:
        if not start_keys or count <= 0:
            return [[] for _ in start_keys]
        self.router.observe("scan", start_keys)
        self.router.tick(len(start_keys), "scan")
        return self.router.replica_for("scan").index.scan_batch(
            start_keys, count
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.replicas[0].index)

    @property
    def index_bytes(self) -> int:
        """Total bytes across all replicas — the cluster's true footprint."""
        return sum(replica.index_bytes for replica in self.replicas)

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    def controllers(self) -> List:
        """All elasticity controllers across replicas, replica order."""
        return [c for r in self.replicas for c in controllers(r.index)]

    def caches(self) -> List:
        return [c for r in self.replicas for c in index_caches(r.index)]

    def check_invariants(self) -> None:
        """Raise ``ValueError`` naming the first broken invariant, then
        check the router's (:meth:`ClusterRouter.check_invariants
        <repro.cluster.ClusterRouter.check_invariants>`) and each sharded
        replica's (:meth:`ShardedIndex.check_invariants
        <repro.engine.router.ShardedIndex.check_invariants>`)."""
        replicas = self.replicas
        routed = self.router.replicas
        for holds, invariant in (
            (all(r.replica_id == i for i, r in enumerate(replicas)),
             "replicas[i].replica_id == i"),
            (len(routed) == len(replicas)
             and all(a is b for a, b in zip(routed, replicas)),
             "router.replicas holds the replicas, in order"),
            (len({len(r.index) for r in replicas}) == 1,
             "every replica holds the same item count"),
        ):
            if not holds:
                raise ValueError(f"ReplicaSet invariant broken: {invariant}")
        self.router.check_invariants()
        for replica in replicas:
            if isinstance(replica.index, ShardedIndex):
                replica.index.check_invariants()

    def replica_report(self) -> List[Dict[str, object]]:
        """Per-replica configuration/health/routing snapshot."""
        assignment = self.router.assignment()
        scores = self.router.scores()
        report = []
        for replica in self.replicas:
            classes = sorted(
                cls for cls, rid in assignment.items()
                if rid == replica.replica_id
            )
            report.append({
                "name": replica.name,
                "profile": replica.profile.name,
                "kind": replica.profile.kind,
                "up": replica.up,
                "items": len(replica),
                "index_bytes": replica.index_bytes,
                # The bound its controllers hold now, as the arbiter
                # last set it; 0 for an unbounded kind.
                "bound_bytes": live_bound(replica.index) or 0,
                "weight": replica.profile.weight,
                "classes": classes,
                "scores": {
                    cls: units
                    for (cls, rid), units in sorted(scores.items())
                    if rid == replica.replica_id
                },
            })
        return report


def apportion_bounds(
    profiles: Sequence[ReplicaProfile],
    total_bound_bytes: Optional[int],
) -> List[Optional[int]]:
    """Split the cluster-global bound across the bounded profiles.

    Largest-remainder over the bounded profiles' weights; unbounded
    kinds get ``None``.  Raises when a bounded profile exists but no
    total bound was given (the budget would silently vanish).
    """
    bounded = [p.kind in BOUNDED_KINDS for p in profiles]
    if not any(bounded):
        return [None] * len(profiles)
    if total_bound_bytes is None:
        names = [p.name for p, b in zip(profiles, bounded) if b]
        raise ReplicaConfigError(
            f"elastic profiles {names} need a cluster bound: pass "
            "ReplicaConfig(total_bound_bytes=...) or size_bound_bytes"
        )
    from repro.engine.arbiter import largest_remainder

    weights = [p.weight for p, b in zip(profiles, bounded) if b]
    shares = largest_remainder(total_bound_bytes, weights)
    bounds: List[Optional[int]] = []
    cursor = 0
    for is_bounded in bounded:
        if is_bounded:
            bounds.append(shares[cursor])
            cursor += 1
        else:
            bounds.append(None)
    return bounds


def build_replica_set(config: ReplicaConfig,
                      recipe: IndexRecipe) -> ReplicaSet:
    """Materialize ``config.replicas`` full copies behind one router.

    ``recipe`` is the ``create_index``-level recipe.  Each replica is
    built from its resolved profile's recipe over it
    (:meth:`ReplicaProfile.recipe <repro.cluster.ReplicaProfile.
    recipe>`) — its own kind, leaf-kind selection, trigger fractions and
    optional cache — and, with ``recipe.shards > 1``, is itself a
    :class:`~repro.engine.router.ShardedIndex` over the recipe's
    partitioner (the replica tier stacks *above* the shard tier).  The
    cluster bound (``config.total_bound_bytes``, falling back to the
    recipe's ``size_bound_bytes``) is apportioned across the elastic
    replicas by profile weight.
    """
    config.validate()
    if config.profiles and recipe.cache is not None:
        raise ReplicaConfigError(
            "pass caches per profile (ReplicaProfile(cache=...)) when "
            "explicit profiles are given"
        )
    profiles = config.resolved_profiles(
        recipe.kind, recipe.cache, **recipe.kwargs()
    )
    total = (
        config.total_bound_bytes
        if config.total_bound_bytes is not None
        else recipe.size_bound_bytes
    )
    bounds = apportion_bounds(profiles, total)
    recipes = [
        profile.recipe(
            recipe, bound,
            f"{recipe.name}/r{replica_id}" if recipe.name
            else f"replica[{replica_id}]",
        )
        for replica_id, (profile, bound) in enumerate(zip(profiles, bounds))
    ]
    for replica_recipe in recipes:
        check(replica_recipe)  # every replica, before the first charge
    replicas = [
        Replica(replica_id, profile, build(replica_recipe),
                name=replica_recipe.name,
                bound_bytes=replica_recipe.size_bound_bytes)
        for replica_id, (profile, replica_recipe)
        in enumerate(zip(profiles, recipes))
    ]
    observer = recipe.cost.observer
    if observer is not None:
        observer.record(ClusterBudgetEvent(
            total_bytes=total or 0,
            replicas=[p.name for p in profiles],
            bounds=[b or 0 for b in bounds],
            reason="build",
        ))
    return ReplicaSet(replicas, config, recipe.cost, recipe=recipe)
