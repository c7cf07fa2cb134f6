"""Configuration of the replicated cluster tier.

A :class:`ReplicaConfig` describes N replicas of one table's index,
each built from a :class:`ReplicaProfile` naming a registered index
kind plus its elastic/cache knobs.  The point of the tier (ROADMAP:
"Unlocking the Power of Diversity in Index Tuning") is that profiles
*diverge*: one replica sits fat and scan-friendly, one trades leaves
for a hot-row cache, one shrinks deep into compact territory — all
under one cluster-global soft bound apportioned by profile weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.cache import CacheConfig
from repro.engine.builder import IndexRecipe
from repro.engine.faults import FaultPlan
from repro.errors import ReplicaConfigError

#: The query classes the router prices and routes independently.
QUERY_CLASSES = ("point_hot", "point_cold", "batch", "scan")

#: Kinds whose builder consumes ``size_bound_bytes`` (the elastic
#: family); other registry kinds ignore the bound, so apportioning
#: budget to them would silently vanish — validation rejects that.
BOUNDED_KINDS = ("elastic",)


@dataclass(frozen=True)
class ReplicaProfile:
    """One replica's point on the space/efficiency tradeoff curve.

    Args:
        name: Label used in events, metrics, and the arbiter registry.
        kind: Registered index name (``repro.registry``); ``"elastic"``
            profiles receive a byte share of the cluster bound.
        weight: Share of the cluster-global soft bound this replica
            receives (largest-remainder over all profile weights).
        leaf_kinds: ``ElasticConfig.leaf_kinds`` selection for elastic
            profiles (``None`` keeps the config default); the 3-kind
            lattice is ``("standard", "compact", "learned")``.
        cache: Optional :class:`~repro.cache.CacheConfig` — the
            cache-heavy profile; budget is charged against the
            replica's allocator like any other index bytes.
        index_kwargs: Extra builder keywords as a tuple of ``(key,
            value)`` pairs (kept hashable so profiles stay frozen),
            e.g. ``(("shrink_trigger_fraction", 0.6),)`` for a
            compact-heavy elastic profile.
    """

    name: str
    kind: str = "elastic"
    weight: float = 1.0
    leaf_kinds: Optional[Tuple[str, ...]] = None
    cache: Optional[CacheConfig] = None
    index_kwargs: Tuple[Tuple[str, object], ...] = ()

    def builder_kwargs(self) -> dict:
        """The profile's extra ``build_index`` keywords."""
        kwargs = dict(self.index_kwargs)
        if self.leaf_kinds is not None:
            kwargs["leaf_kinds"] = tuple(self.leaf_kinds)
        return kwargs

    def recipe(self, base: IndexRecipe, bound: Optional[int],
               name: str) -> IndexRecipe:
        """The recipe of a replica built from this profile over ``base``
        (the ``create_index``-level recipe): the profile's kind and
        cache, its keywords over the base ones, and ``bound``."""
        return replace(
            base.with_kwargs(self.builder_kwargs()), kind=self.kind,
            cache=self.cache, size_bound_bytes=bound, name=name,
        )

    def validate(self) -> None:
        if not self.name:
            raise ReplicaConfigError("replica profile needs a name")
        if self.weight <= 0:
            raise ReplicaConfigError(
                f"profile {self.name!r}: weight must be positive, "
                f"got {self.weight}"
            )
        if self.cache is not None:
            self.cache.validate()
        if self.leaf_kinds is not None and self.kind not in BOUNDED_KINDS:
            raise ReplicaConfigError(
                f"profile {self.name!r}: leaf_kinds only applies to "
                f"elastic kinds, not {self.kind!r}"
            )


def preset_profile(name: str, weight: float = 1.0) -> ReplicaProfile:
    """The divergent configurations named in the ROADMAP, by preset.

    * ``"lattice"`` — the elastic 3-kind lattice (standard / compact /
      learned leaves), the best all-round read replica.
    * ``"compact"`` — compact-heavy: shrink triggers pulled down so the
      tree converts early and sits small.
    * ``"cache"`` — cache-heavy: a 2-kind elastic tree plus an adaptive
      hot-row cache competing under the same bound.
    * ``"baseline"`` — the non-elastic STX-style baseline (pairs with
      hash partitioning for the classic hash-sharded configuration).
    """
    if name == "lattice":
        return ReplicaProfile(
            name="lattice", kind="elastic", weight=weight,
            leaf_kinds=("standard", "compact", "learned"),
        )
    if name == "compact":
        return ReplicaProfile(
            name="compact", kind="elastic", weight=weight,
            index_kwargs=(
                ("shrink_trigger_fraction", 0.6),
                ("expand_trigger_fraction", 0.45),
            ),
        )
    if name == "cache":
        return ReplicaProfile(
            name="cache", kind="elastic", weight=weight,
            cache=CacheConfig(budget_bytes=16 * 1024, adaptive=False),
        )
    if name == "baseline":
        return ReplicaProfile(name="baseline", kind="stx", weight=weight)
    raise ReplicaConfigError(
        f"unknown replica preset {name!r}; choose from "
        "lattice/compact/cache/baseline"
    )


@dataclass(frozen=True)
class ReplicaConfig:
    """Knobs of one :class:`~repro.cluster.ReplicaSet`.

    Args:
        replicas: Number of full copies of the index.  ``1`` is the
            exact passthrough: ``Database.create_index`` builds the
            plain (or sharded) index with no cluster machinery at all,
            byte-identical to every pre-cluster baseline.
        profiles: Per-replica :class:`ReplicaProfile` tuple; empty
            means uniform (every replica built from the
            ``create_index`` kind/kwargs at equal weight).
        total_bound_bytes: Cluster-global soft bound apportioned across
            the elastic replicas by profile weight; ``None`` falls back
            to the ``size_bound_bytes`` passed to ``create_index``.
        score_interval_ops: Operations between what-if scoring rounds.
        probe_keys: Representative keys retained per query class for
            what-if probes (the most recent ``probe_keys`` observed).
        scan_probe_count: Items per what-if scan probe.
        heartbeat_interval_ops: Operations between heartbeats (the
            granularity at which a scripted outage takes effect).
        heat_buckets: Key-range buckets of the router's access
            histogram (hot/cold classification).
        hot_multiplier: A key is *hot* when its bucket's access share
            exceeds ``hot_multiplier / heat_buckets`` (i.e. that many
            times the uniform share).
        advisor_fee_units: Fixed-op units charged per (class, replica)
            scored in a what-if round — the modeled price of running
            the advisor, since the probe work itself is rebated.
        faults: Optional :class:`~repro.engine.FaultPlan` scripting
            replica outages (``plan.down(replica=k, beats=n)``).
    """

    replicas: int = 1
    profiles: Tuple[ReplicaProfile, ...] = ()
    total_bound_bytes: Optional[int] = None
    score_interval_ops: int = 1024
    probe_keys: int = 4
    scan_probe_count: int = 16
    heartbeat_interval_ops: int = 128
    heat_buckets: int = 64
    hot_multiplier: float = 2.0
    advisor_fee_units: float = 0.25
    faults: Optional[FaultPlan] = field(default=None, compare=False)

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ReplicaConfigError` if unusable."""
        if self.replicas < 1:
            raise ReplicaConfigError(
                f"replicas must be >= 1, got {self.replicas}"
            )
        if self.profiles and len(self.profiles) != self.replicas:
            raise ReplicaConfigError(
                f"{len(self.profiles)} profiles for {self.replicas} "
                "replicas (pass one per replica, or none for uniform)"
            )
        names = [p.name for p in self.profiles]
        if len(set(names)) != len(names):
            raise ReplicaConfigError(
                f"profile names must be unique, got {names}"
            )
        for profile in self.profiles:
            profile.validate()
        if self.total_bound_bytes is not None and self.total_bound_bytes <= 0:
            raise ReplicaConfigError(
                f"total_bound_bytes must be positive, "
                f"got {self.total_bound_bytes}"
            )
        for knob in ("score_interval_ops", "probe_keys", "scan_probe_count",
                     "heartbeat_interval_ops"):
            if getattr(self, knob) < 1:
                raise ReplicaConfigError(
                    f"{knob} must be >= 1, got {getattr(self, knob)}"
                )
        if self.heat_buckets < 2:
            raise ReplicaConfigError(
                f"heat_buckets must be >= 2, got {self.heat_buckets}"
            )
        if self.hot_multiplier <= 1.0:
            raise ReplicaConfigError(
                "hot_multiplier must exceed 1.0 (a bucket at the uniform "
                f"share is not hot), got {self.hot_multiplier}"
            )
        if self.advisor_fee_units < 0:
            raise ReplicaConfigError(
                f"advisor_fee_units must be >= 0, "
                f"got {self.advisor_fee_units}"
            )

    def resolved_profiles(self, kind: str,
                          cache: Optional[CacheConfig] = None,
                          **index_kwargs) -> Tuple[ReplicaProfile, ...]:
        """The effective per-replica profiles.

        An empty ``profiles`` tuple resolves to ``replicas`` uniform
        copies of the ``create_index``-level configuration; explicit
        profiles are returned as given (the ``create_index`` kwargs
        then apply only where a profile does not override them).
        """
        if self.profiles:
            return self.profiles
        return tuple(
            ReplicaProfile(
                name=f"{kind}-{i}", kind=kind, weight=1.0, cache=cache,
                index_kwargs=tuple(sorted(index_kwargs.items())),
            )
            for i in range(self.replicas)
        )
