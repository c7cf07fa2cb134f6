"""Scatter/gather execution backends for the shard router.

The router partitions a batch into per-shard sub-batches; a
:class:`ShardExecutor` decides *how* the sub-batches execute:

* :class:`SerialShardExecutor` visits shards one at a time — the
  pre-executor behaviour, byte-identical in results **and** cost units.
* :class:`ParallelShardExecutor` models a scatter over ``workers``
  concurrent dispatch slots and charges **critical-path cost**: shards
  that would execute concurrently overlap, so each wave of ``workers``
  dispatches charges only its most expensive member (plus a modeled
  per-shard coordination fee for the scatter/merge bookkeeping), not
  the serial sum.  This is the shard-level analogue of the cost model's
  ``key_load_batched`` memory-level-parallelism discount — the lever
  the Cuckoo Trie identifies as dominant for in-memory index
  throughput — applied at the granularity the evaluation hardware
  actually exploits (cores x shards, not just outstanding loads).

The parallelism exists only in the ledger
-----------------------------------------
Shards are disjoint indexes, but they share one
:class:`~repro.memory.cost_model.CostModel` ledger, and every sub-batch
must be measured on its own for per-shard attribution and the
repo-wide determinism contract.  Pure-Python shard work cannot overlap
under the interpreter lock anyway, so the parallel backend starts no
thread: it runs the sub-batches on the calling thread, one after
another in task order, measures each shard's exact cost delta, and then
performs the parallelism *in the ledger*:
:meth:`~repro.memory.cost_model.CostModel.charge_parallel` rebates every
event hidden behind the critical path.  ``workers`` is the modeled wave
width.  Results, costs and event streams are deterministic, and all
events are emitted by the coordinator in shard order after the gather.

Interaction with prefetch-wave pricing (DESIGN.md §10): a shard whose
sub-batch runs with an :meth:`~repro.memory.cost_model.CostModel.
mlp_window` width >= 2 records *wave-priced* counts (including the
``wave_issue`` fees) in its measured delta, because every window opens
and closes inside the shard's measurement.  ``charge_parallel`` then
rebates whole deltas of non-critical shards — exactly the counts they
charged, wave fees included — so wave pricing and critical-path
rebating **compose**: the intra-shard MLP discount applies first, the
inter-shard overlap discount second, and no event is ever discounted
twice (nor can a rebate recreate serial pricing for a wave-priced
load).

Robustness layers (all scriptable via
:class:`~repro.engine.faults.FaultPlan`; each fault that fires is an
event, while dispatches, gathers and the critical-path ledger are
counted on :class:`ExecutorStats`):

* **bounded retry with backoff** — a shard reporting a transient
  conflict (:class:`~repro.errors.ShardConflictError`, the OLC
  version-validation analogue) is retried up to ``max_retries`` times,
  charging a doubling ``backoff_units`` fee per retry
  (``shard_retry`` events);
* **serial degradation per shard** — once retries are exhausted the
  final attempt runs unconditionally (``executor_degrade`` event,
  scope ``"shard"``), so a scatter always completes;
* **deadline budgets + hedging** — a read-only sub-batch whose
  measured cost exceeds ``deadline_units`` is a straggler: a duplicate
  dispatch is issued and the cheaper attempt wins, the loser's events
  are rebated (``shard_hedge`` events).  Write sub-batches are never
  hedged (duplicate inserts are not idempotent);
* **serial degradation per batch** — a saturated (scripted) or closed
  modeled dispatch pool degrades the whole scatter to the serial
  backend (``executor_degrade`` event, scope ``"batch"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.engine.faults import FaultPlan
from repro.errors import (
    ExecutorSaturatedError,
    ShardConfigError,
    ShardConflictError,
)
from repro.memory.cost_model import CostModel
from repro.obs import ExecutorDegradeEvent, ShardHedgeEvent, ShardRetryEvent


@dataclass
class ShardTask:
    """One shard's share of a scatter: a closure over its sub-batch."""

    shard_id: int
    ops: int
    read_only: bool
    run: Callable[[], Any]


@dataclass
class ExecutorStats:
    """Counters of parallel-executor activity."""

    batches: int = 0
    dispatches: int = 0
    retries: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    degraded_batches: int = 0
    degraded_shards: int = 0
    serial_sum_units: float = 0.0
    critical_path_units: float = 0.0

    @property
    def saved_units(self) -> float:
        """Cost units hidden behind critical paths so far."""
        return self.serial_sum_units - self.critical_path_units


class ShardExecutor:
    """Strategy interface: execute a scatter of per-shard sub-batches.

    ``run_tasks`` returns one result per task, in task order.  The
    serial backend is the identity strategy; alternative backends may
    reorder or overlap execution but must preserve per-task results.
    """

    name = "abstract"

    def run_tasks(
        self, op: str, tasks: Sequence[ShardTask], cost: CostModel
    ) -> List[Any]:
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (idempotent)."""


class SerialShardExecutor(ShardExecutor):
    """Visit shards one at a time; byte-identical to the pre-executor
    router loop in results and cost units."""

    name = "serial"

    def run_tasks(
        self, op: str, tasks: Sequence[ShardTask], cost: CostModel
    ) -> List[Any]:
        return [task.run() for task in tasks]


@dataclass
class _Outcome:
    """Coordinator-side record of one shard dispatch."""

    task: ShardTask
    result: Any = None
    delta: Optional[CostModel] = None
    retries: List[Tuple[int, float]] = field(default_factory=list)
    degraded: bool = False
    hedged: bool = False
    hedge_winner: str = ""
    primary_units: float = 0.0
    hedge_units: float = 0.0

    @property
    def cost_units(self) -> float:
        return self.delta.weighted_cost() if self.delta is not None else 0.0


class ParallelShardExecutor(SerialShardExecutor):
    """Modeled-concurrent scatter/gather with critical-path accounting.

    Sub-batches run on the calling thread in task order; the overlap
    between them is priced in the ledger, not executed (see the module
    docstring).  A scatter with nothing to overlap, or one the modeled
    pool cannot take, runs the inherited serial loop.

    Args:
        workers: Modeled dispatch width — shards overlap in waves of
            this many in the critical-path pricing.
        coordination_units: Modeled merge/coordination fee, in
            ``fixed_op`` cost units *per shard gathered* (the scatter
            bookkeeping, result splice, and k-way merge steering that
            serial execution does not pay).
        deadline_units: Per-shard deadline budget in cost units.  A
            read-only sub-batch measuring above it is hedged with a
            duplicate dispatch; ``None`` disables hedging.
        max_retries: Bounded retries per dispatch for transient shard
            conflicts; the attempt after the last retry runs
            unconditionally (serial degradation per shard).
        backoff_units: Backoff fee charged per retry, doubling per
            attempt (``backoff_units * 2**(attempt-1)``).
        faults: Optional :class:`~repro.engine.faults.FaultPlan`
            scripting conflicts, straggler delays, and pool saturation
            deterministically.
        strict_saturation: Raise
            :class:`~repro.errors.ExecutorSaturatedError` when the
            modeled dispatch pool cannot accept a batch (scripted
            saturation, or a closed executor) instead of degrading it to
            the serial backend.  Engine paths leave this off (scatter
            results must always materialize); direct executor users who
            prefer to shed load themselves can opt in.
    """

    name = "parallel"

    def __init__(
        self,
        workers: int = 4,
        *,
        coordination_units: float = 0.05,
        deadline_units: Optional[float] = None,
        max_retries: int = 2,
        backoff_units: float = 0.5,
        faults: Optional[FaultPlan] = None,
        strict_saturation: bool = False,
    ) -> None:
        if workers < 1:
            raise ShardConfigError("parallel executor needs workers >= 1")
        if coordination_units < 0:
            raise ShardConfigError("coordination_units must be >= 0")
        if deadline_units is not None and deadline_units <= 0:
            raise ShardConfigError("deadline_units must be positive")
        if max_retries < 0:
            raise ShardConfigError("max_retries must be >= 0")
        if backoff_units < 0:
            raise ShardConfigError("backoff_units must be >= 0")
        self.workers = workers
        self.coordination_units = coordination_units
        self.deadline_units = deadline_units
        self.max_retries = max_retries
        self.backoff_units = backoff_units
        self.faults = faults
        self.strict_saturation = strict_saturation
        self.stats = ExecutorStats()
        self._closed = False
        #: Per-shard dispatch ordinal (FaultPlan addressing).
        self._ordinals: Dict[int, int] = {}

    def close(self) -> None:
        """Close the modeled dispatch pool: later scatters degrade to
        the serial backend (reason ``pool_closed``).  Idempotent."""
        self._closed = True

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def run_tasks(
        self, op: str, tasks: Sequence[ShardTask], cost: CostModel
    ) -> List[Any]:
        if len(tasks) <= 1:
            # Nothing to overlap: a single-shard scatter is exactly the
            # serial path (no coordination fee).
            return super().run_tasks(op, tasks, cost)
        if self.faults is not None and self.faults.take_saturation():
            if self.strict_saturation:
                raise ExecutorSaturatedError("dispatch pool saturated")
            return self._degrade_batch(op, tasks, cost, "pool_saturated")
        if self._closed:
            if self.strict_saturation:
                raise ExecutorSaturatedError("dispatch pool closed")
            return self._degrade_batch(op, tasks, cost, "pool_closed")
        outcomes = [
            self._run_shard(op, task, self._next_ordinal(task), cost)
            for task in tasks
        ]

        # Hedge stragglers (reads only), then charge the critical path.
        if self.deadline_units is not None:
            for outcome in outcomes:
                if (
                    outcome.task.read_only
                    and outcome.cost_units > self.deadline_units
                ):
                    self._hedge(op, outcome, cost)

        deltas = [outcome.delta for outcome in outcomes]
        serial_sum, critical = cost.charge_parallel(
            deltas, self.workers, self.coordination_units * len(tasks)
        )
        self._record(op, outcomes, serial_sum, critical)
        return [outcome.result for outcome in outcomes]

    def _next_ordinal(self, task: ShardTask) -> int:
        ordinal = self._ordinals.get(task.shard_id, 0)
        self._ordinals[task.shard_id] = ordinal + 1
        return ordinal

    def _run_shard(
        self, op: str, task: ShardTask, ordinal: int, cost: CostModel
    ) -> _Outcome:
        """Execute one sub-batch, measured, with bounded conflict
        retry.  Emits nothing (the coordinator owns event order)."""
        outcome = _Outcome(task)
        faults = self.faults
        with cost.measure() as delta:
            attempt = 0
            while True:
                attempt += 1
                conflicted = (
                    faults is not None
                    and faults.take_conflict(task.shard_id, ordinal)
                )
                if not conflicted:
                    try:
                        outcome.result = task.run()
                        break
                    except ShardConflictError:
                        conflicted = True
                if attempt > self.max_retries:
                    # Retries exhausted: degrade to an unconditional
                    # final attempt so the scatter always completes.
                    if faults is not None:
                        faults.drop_conflicts(task.shard_id, ordinal)
                    outcome.degraded = True
                    outcome.result = task.run()
                    break
                backoff = self.backoff_units * (2 ** (attempt - 1))
                if backoff:
                    cost.fixed_ops(backoff)
                outcome.retries.append((attempt, backoff))
            delay = (
                faults.take_delay(task.shard_id)
                if faults is not None else 0.0
            )
            if delay:
                cost.fixed_ops(delay)
        outcome.delta = delta
        return outcome

    def _hedge(self, op: str, outcome: _Outcome, cost: CostModel) -> None:
        """Duplicate-dispatch a straggler read; the cheaper attempt wins
        and the loser's events are rebated from the ledger."""
        task = outcome.task
        outcome.primary_units = outcome.cost_units
        with cost.measure() as hedge_delta:
            hedge_result = task.run()
            delay = (
                self.faults.take_delay(task.shard_id)
                if self.faults is not None else 0.0
            )
            if delay:
                cost.fixed_ops(delay)
        outcome.hedged = True
        outcome.hedge_units = hedge_delta.weighted_cost()
        if outcome.hedge_units < outcome.primary_units:
            outcome.hedge_winner = "hedge"
            cost.rebate_delta(outcome.delta)
            outcome.result = hedge_result
            outcome.delta = hedge_delta
        else:
            outcome.hedge_winner = "primary"
            cost.rebate_delta(hedge_delta)

    def _degrade_batch(
        self, op: str, tasks: Sequence[ShardTask], cost: CostModel,
        reason: str,
    ) -> List[Any]:
        self.stats.degraded_batches += 1
        if obs.is_enabled():
            obs.emit(ExecutorDegradeEvent(op=op, reason=reason,
                                          scope="batch"))
        return super().run_tasks(op, tasks, cost)

    # ------------------------------------------------------------------
    # Gather-side accounting (deterministic event order)
    # ------------------------------------------------------------------
    def _record(
        self, op: str, outcomes: Sequence[_Outcome],
        serial_sum: float, critical: float,
    ) -> None:
        stats = self.stats
        stats.batches += 1
        stats.dispatches += len(outcomes)
        stats.serial_sum_units += serial_sum
        stats.critical_path_units += critical
        emit = obs.is_enabled()
        for outcome in outcomes:
            stats.retries += len(outcome.retries)
            if outcome.degraded:
                stats.degraded_shards += 1
            if outcome.hedged:
                stats.hedges += 1
                if outcome.hedge_winner == "hedge":
                    stats.hedge_wins += 1
            if not emit:
                continue
            for attempt, backoff in outcome.retries:
                obs.emit(ShardRetryEvent(
                    op=op, shard=outcome.task.shard_id,
                    attempt=attempt, backoff_units=backoff,
                ))
            if outcome.degraded:
                obs.emit(ExecutorDegradeEvent(
                    op=op, reason="retries_exhausted", scope="shard",
                    shard=outcome.task.shard_id,
                ))
            if outcome.hedged:
                obs.emit(ShardHedgeEvent(
                    op=op, shard=outcome.task.shard_id,
                    primary_units=outcome.primary_units,
                    hedge_units=outcome.hedge_units,
                    winner=outcome.hedge_winner,
                ))


def make_executor(
    parallel, *, faults: Optional[FaultPlan] = None, **knobs
) -> Optional[ShardExecutor]:
    """Resolve a ``parallel=`` knob into an executor instance.

    ``parallel`` may be falsy (serial routing — returns ``None`` so the
    router keeps its shared serial default), ``True`` (parallel backend
    with the default worker count), an ``int`` (worker count), or an
    already-built :class:`ShardExecutor` (returned as-is; ``faults`` /
    ``knobs`` must not also be given).
    """
    if isinstance(parallel, ShardExecutor):
        if faults is not None or knobs:
            raise ShardConfigError(
                "pass executor knobs to the ShardExecutor constructor, "
                "not alongside a pre-built executor"
            )
        return parallel
    if isinstance(parallel, bool):
        if not parallel:
            return None
        return ParallelShardExecutor(faults=faults, **knobs)
    if isinstance(parallel, int):
        if parallel < 1:
            raise ShardConfigError("parallel worker count must be >= 1")
        return ParallelShardExecutor(workers=parallel, faults=faults, **knobs)
    raise ShardConfigError(
        f"parallel must be a bool, int, or ShardExecutor, "
        f"got {parallel!r}"
    )
