"""Scatter/gather execution backends for the shard router.

The router partitions a batch into per-shard sub-batches and hands
:meth:`~SerialShardExecutor.run_tasks` one zero-argument callable per
shard; the backend decides how their cost is priced:

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
must be priced on its own for the critical path and the repo-wide
determinism contract.  Pure-Python shard work cannot overlap under the
interpreter lock anyway, so the parallel backend starts no thread: it
runs the sub-batches on the calling thread, one after another in task
order, and takes each one's exact event delta by copying the ledger's
counts before the task and diffing them after it (in the ledger's key
order, zeros skipped).  It then performs the parallelism *in the
ledger*: :meth:`~repro.memory.cost_model.CostModel.charge_parallel`
prices those deltas and rebates every event hidden behind the critical
path.  ``workers`` is the modeled wave width.  Results and costs are
deterministic.  Optimistic-lock-coupling restarts, the paper's
parallel-scaling lever, are modeled separately by
:mod:`repro.concurrency`.

Interaction with prefetch-wave pricing (DESIGN.md §10): a shard whose
sub-batch runs with an :meth:`~repro.memory.cost_model.CostModel.
mlp_window` width >= 2 records *wave-priced* counts (including the
``wave_issue`` fees) in its delta, because every window opens and
closes inside the shard's task.  ``charge_parallel`` then
rebates whole deltas of non-critical shards — exactly the counts they
charged, wave fees included — so wave pricing and critical-path
rebating **compose**: the intra-shard MLP discount applies first, the
inter-shard overlap discount second, and no event is ever discounted
twice (nor can a rebate recreate serial pricing for a wave-priced
load).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.errors import ShardConfigError
from repro.memory.cost_model import CostModel

#: Modeled merge/coordination fee of a parallel scatter, in ``fixed_op``
#: cost units *per shard gathered* (the scatter bookkeeping, result
#: splice and k-way merge steering that serial execution does not pay).
COORDINATION_UNITS = 0.05


@dataclass
class ExecutorStats:
    """Counters of parallel-executor activity."""

    batches: int = 0
    dispatches: int = 0
    serial_sum_units: float = 0.0
    critical_path_units: float = 0.0

    @property
    def saved_units(self) -> float:
        """Cost units hidden behind critical paths so far."""
        return self.serial_sum_units - self.critical_path_units


class SerialShardExecutor:
    """Visit shards one at a time; byte-identical to the pre-executor
    router loop in results and cost units.  The base of every backend:
    ``run_tasks`` returns one result per task, in task order."""

    name = "serial"

    def run_tasks(
        self, tasks: Sequence[Callable[[], Any]], cost: CostModel
    ) -> List[Any]:
        return [task() for task in tasks]

    def close(self) -> None:
        """No-op: no backend holds a resource.  Callers that close every
        shard executor after a run may keep doing so."""


class ParallelShardExecutor(SerialShardExecutor):
    """Modeled-concurrent scatter/gather with critical-path accounting.

    Sub-batches run on the calling thread in task order; the overlap
    between them is priced in the ledger, not executed (see the module
    docstring).  A scatter of at most one task has nothing to overlap
    and runs the inherited serial loop, with no coordination fee.

    Args:
        workers: Modeled dispatch width — shards overlap in waves of
            this many in the critical-path pricing.
    """

    name = "parallel"

    def __init__(self, workers: int = 4) -> None:
        if workers < 1:
            raise ShardConfigError("parallel executor needs workers >= 1")
        self.workers = workers
        self.stats = ExecutorStats()

    def run_tasks(
        self, tasks: Sequence[Callable[[], Any]], cost: CostModel
    ) -> List[Any]:
        if len(tasks) <= 1:
            return super().run_tasks(tasks, cost)
        results = []
        deltas = []
        for task in tasks:
            # The task's delta: a snapshot of the ledger before it, diffed
            # in the ledger's key order after it, zeros skipped (what a
            # measure() delta holds, without its generator and model).
            before = dict(cost.counts)
            results.append(task())
            base = before.get
            deltas.append({
                category: diff
                for category, count in cost.counts.items()
                if (diff := count - base(category, 0))
            })
        serial_sum, critical = cost.charge_parallel(
            deltas, self.workers, COORDINATION_UNITS * len(tasks)
        )
        stats = self.stats
        stats.batches += 1
        stats.dispatches += len(tasks)
        stats.serial_sum_units += serial_sum
        stats.critical_path_units += critical
        return results


def make_executor(parallel) -> Optional[SerialShardExecutor]:
    """Resolve a ``parallel=`` knob into an executor instance.

    ``parallel`` may be falsy (serial routing — returns ``None`` so the
    router keeps its shared serial default), ``True`` (parallel backend
    with the default worker count), an ``int`` (worker count), or an
    already-built executor (returned as-is).
    """
    if isinstance(parallel, SerialShardExecutor):
        return parallel
    if isinstance(parallel, bool):
        return ParallelShardExecutor() if parallel else None
    if isinstance(parallel, int):
        return ParallelShardExecutor(workers=parallel)
    raise ShardConfigError(
        f"parallel must be a bool, int, or shard executor, "
        f"got {parallel!r}"
    )
