"""Typed state-change events.

The paper's contribution is *dynamic* behaviour — leaves converting
between representations under pressure, capacities doubling and halving,
tuple-id arrays breathing — and ``collect_stats()`` can only show the
aggregate outcome.  Events make each individual transition observable:
an instrumented component records a typed event at the moment an
elasticity action lands, on the :class:`~repro.obs.Observer` watching
its cost model (its database's ledger), which folds it into metrics and
a bounded log.

Events mark only state changes: a structure, bound, budget, route,
replica's availability, recovery or tuning action changed.  Per-call
activity (cache probes, batch dispatches, prefetch waves, log appends
and barriers, arbiter samples, advisor probes) is counted by each
layer's own ``stats`` and read from there at snapshot time (see
:mod:`repro.db.metrics`).

Determinism: events carry **no wall-clock timestamps**.  Ordering is a
sequence number the observer assigns as it records, from 1, and every
quantitative field is either a structural fact (node id, capacity, byte
counts from the tracking allocator) or a cost-model figure — so two
runs of the same seeded workload produce byte-identical event streams.

A ledger nobody watches has ``observer is None``, and emitting sites
then skip event construction entirely, so the hot path neither charges
cost-model units nor allocates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import ClassVar, Dict, List


@dataclass
class Event:
    """Base class for state-change events.

    ``kind`` is a class-level tag used for filtering and serialization;
    ``seq`` is assigned by the observer that records the event (0 =
    unrecorded).
    """

    kind: ClassVar[str] = "event"
    seq: int = field(default=0, init=False)

    def as_dict(self) -> Dict:
        """Serializable view: all fields plus the ``kind`` tag."""
        payload = {"kind": self.kind}
        payload.update(asdict(self))
        return payload


@dataclass
class LeafConversionEvent(Event):
    """A leaf changed representation (standard <-> compact <-> learned).

    ``direction`` is ``"to_<kind>"`` for the target leaf kind —
    ``"to_compact"``, ``"to_standard"`` or ``"to_learned"`` — which
    makes the conversion counters per-kind for free; ``from_kind`` names
    the source kind (empty on legacy emitters).  ``trigger`` names the
    elasticity mechanism that fired: ``"overflow"`` (shrink by
    converting instead of splitting), ``"underflow"`` (revert at the
    bottom of the capacity ladder), ``"expansion"`` (random split of a
    popular compact/learned leaf back to standard leaves), ``"churn"``
    (a churn-heavy learned leaf falling back to full representation),
    ``"cold_sweep"`` (ColdFirstPolicy CLOCK hand) or ``"bulk"``
    (EagerCompactionPolicy / ``bulk_convert`` wholesale conversion).
    """

    kind: ClassVar[str] = "leaf_conversion"
    direction: str = ""
    trigger: str = ""
    node_id: int = 0
    capacity: int = 0
    count: int = 0
    index_bytes: int = 0
    cost_units: float = 0.0
    from_kind: str = ""


@dataclass
class CapacityChangeEvent(Event):
    """A compact leaf moved along the capacity ladder (section 4).

    ``direction`` is ``"double"`` (overflow promotion) or ``"halve"``
    (underflow step-down, or an expansion split into two half-capacity
    nodes); ``trigger`` follows :class:`LeafConversionEvent`.
    """

    kind: ClassVar[str] = "capacity_change"
    direction: str = ""
    trigger: str = ""
    node_id: int = 0
    old_capacity: int = 0
    new_capacity: int = 0
    count: int = 0
    index_bytes: int = 0
    cost_units: float = 0.0


@dataclass
class LeafRetrainEvent(Event):
    """A learned leaf refitted its piecewise-linear segments.

    Emitted by :class:`~repro.learned.leaf.LearnedLeaf` whenever
    accumulated drift forces a model rebuild (``trigger`` ``"drift"``)
    or a structural operation refits wholesale (``"split"``,
    ``"merge"``).  ``cost_units`` is the measured weighted cost of the
    retrain — the key reloads plus the cone refit — billed like a
    conversion, so churn against learned leaves is visible per event.
    """

    kind: ClassVar[str] = "leaf_retrain"
    node_id: int = 0
    trigger: str = ""
    count: int = 0
    segments: int = 0
    retrain_count: int = 0
    cost_units: float = 0.0


@dataclass
class BreathingResizeEvent(Event):
    """A breathing tuple-id array was reallocated (section 5.4).

    ``reason`` is ``"grow"`` (insertions exhausted the slack) or
    ``"rebase"`` (structural change re-based the array).
    """

    kind: ClassVar[str] = "breathing_resize"
    reason: str = ""
    old_slots: int = 0
    new_slots: int = 0
    capacity: int = 0
    count: int = 0


@dataclass
class PressureTransitionEvent(Event):
    """The elasticity controller changed pressure state (section 4)."""

    kind: ClassVar[str] = "pressure_transition"
    previous: str = ""
    state: str = ""
    index_bytes: int = 0
    soft_bound_bytes: int = 0


@dataclass
class PolicyActionEvent(Event):
    """A grow/shrink policy queued deferred work (sweep, bulk compact)."""

    kind: ClassVar[str] = "policy_action"
    policy: str = ""
    action: str = ""


@dataclass
class BudgetRebalanceEvent(Event):
    """The budget arbiter reapportioned the global soft bound.

    One event per :meth:`~repro.engine.arbiter.BudgetArbiter.rebalance`
    that actually moved budget.  The parallel ``shards`` /
    ``old_bounds`` / ``new_bounds`` / ``states`` lists record the whole
    decision; ``bytes_moved`` is the L1 distance between the two bound
    vectors divided by two (bytes taken from donors = bytes granted to
    demanders).
    """

    kind: ClassVar[str] = "budget_rebalance"
    reason: str = ""
    total_bytes: int = 0
    bytes_moved: int = 0
    shards: List[str] = field(default_factory=list)
    old_bounds: List[int] = field(default_factory=list)
    new_bounds: List[int] = field(default_factory=list)
    states: List[str] = field(default_factory=list)


@dataclass
class CacheBudgetEvent(Event):
    """The budget arbiter resized one shard's cache budget.

    Emitted per applied resize: the arbiter maps the cache's window hit
    rate to a target share of the shard's soft bound (floored and
    hysteresis-gated like shard bounds themselves).
    """

    kind: ClassVar[str] = "cache_budget"
    shard: str = ""
    old_budget_bytes: int = 0
    new_budget_bytes: int = 0
    soft_bound_bytes: int = 0
    hit_rate: float = 0.0


@dataclass
class ReplicaRouteEvent(Event):
    """The cluster router (re)assigned one query class to a replica.

    Emitted per class whenever a scoring round, failover, or recovery
    sets the class's serving replica.  ``cost_units`` is the winning
    replica's deterministic what-if score (weighted cost units per probe
    operation, priced through the shared cost model and rebated);
    ``candidates`` is the number of live replicas scored.  ``reason`` is
    ``"score"`` (a periodic or initial scoring round), ``"failover"``
    (the previous replica went down) or ``"recover"`` (a re-admitted
    replica won its class back).
    """

    kind: ClassVar[str] = "replica_route"
    query_class: str = ""
    replica: int = 0
    cost_units: float = 0.0
    candidates: int = 0
    reason: str = ""


@dataclass
class ReplicaFailoverEvent(Event):
    """A replica changed availability on a heartbeat.

    ``reason`` ``"heartbeat"``: ``replica`` was marked down and
    ``query_class`` (one event per class it was serving; ``""`` if it
    served none) was rerouted to ``to_replica``, the next-cheapest
    survivor.  ``reason`` ``"recover"``: ``replica`` was re-admitted
    (``query_class`` ``""``, ``to_replica`` the replica itself);
    re-admission reroutes from the last known scores and never
    re-charges probe or rebuild costs.
    """

    kind: ClassVar[str] = "replica_failover"
    replica: int = 0
    query_class: str = ""
    to_replica: int = -1
    reason: str = ""


@dataclass
class ReplicaRebuildEvent(Event):
    """The replica advisor rebuilt one replica under a new profile.

    ``cost_units`` is the measured weighted cost of the rebuild — the
    donor scan plus the bulk build of the new index — billed like a bulk
    conversion (see docs/COSTMODEL.md).
    """

    kind: ClassVar[str] = "replica_rebuild"
    replica: int = 0
    old_profile: str = ""
    new_profile: str = ""
    items: int = 0
    cost_units: float = 0.0


@dataclass
class ClusterBudgetEvent(Event):
    """A replica set apportioned its cluster-global soft bound.

    Emitted at build time and on every explicit re-apportionment: the
    parallel ``replicas`` / ``bounds`` lists record each replica's
    byte share of ``total_bytes`` (largest-remainder over the profile
    weights, so divergent layouts start from divergent budgets).
    """

    kind: ClassVar[str] = "cluster_budget"
    total_bytes: int = 0
    replicas: List[str] = field(default_factory=list)
    bounds: List[int] = field(default_factory=list)
    reason: str = ""


@dataclass
class RecoveryReplayEvent(Event):
    """Crash recovery replayed the durable log suffix into a fresh DB.

    One event per :func:`~repro.wal.recovery.recover_database` call:
    ``records_replayed`` durable records (lsn above ``snapshot_lsn``)
    were re-applied, ``records_discarded`` torn (appended but never
    fsynced) records were dropped, and the recovered log's durable
    watermark is ``durable_lsn``.  ``cost_units`` is the measured
    weighted cost of the replay (attributed to ``"recovery"`` on the
    cost model's tag ledger).
    """

    kind: ClassVar[str] = "recovery_replay"
    records_replayed: int = 0
    records_discarded: int = 0
    snapshot_lsn: int = 0
    durable_lsn: int = 0
    tables: int = 0
    indexes: int = 0
    cost_units: float = 0.0


@dataclass
class TuningActionEvent(Event):
    """The self-tuning advisor applied one tuning action.

    ``action`` is ``"park_index"`` / ``"unpark_index"`` /
    ``"swap_preset"`` / ``"move_cache"`` / ``"reshard"``; ``target`` is
    ``table.index``.  ``cost_units`` is the *measured* application cost
    (billed like a bulk conversion, never rebated): the drain + rebuild
    for preset swaps and reshards, the backfill for unparks, 0.0 for
    flag flips and budget moves.  ``detail`` carries the
    family-specific parameter (preset name, new cache budget, new shard
    count).
    """

    kind: ClassVar[str] = "tuning_action"
    action: str = ""
    target: str = ""
    detail: str = ""
    items: int = 0
    cost_units: float = 0.0


@dataclass
class TuningPaybackEvent(Event):
    """The advisor's payback ledger for one fired action.

    Records the modeled economics that justified the action at fire
    time: ``modeled_saving_units`` is the projected saving over the
    configured payback window (per-op saving from the what-if probe
    times the window), ``apply_cost_units`` the billed (or estimated,
    for deferred rebuilds) application cost it had to beat.  Replaying
    the event stream reconstructs every decision the advisor made.
    """

    kind: ClassVar[str] = "tuning_payback"
    action: str = ""
    target: str = ""
    modeled_saving_units: float = 0.0
    apply_cost_units: float = 0.0
    payback_window_ops: int = 0
