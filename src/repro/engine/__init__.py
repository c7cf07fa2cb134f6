"""repro.engine — the sharded storage engine.

Three layers between the database facade and the elastic index family:

* **router** (:class:`~repro.engine.router.ShardedIndex`): hash- or
  range-partitions one logical index across N shards and
  scatter/gathers point, batch, and scan operations, presenting the
  ordinary :class:`~repro.baselines.interface.OrderedIndex` surface.
* **shard** (:class:`~repro.engine.shard.IndexShard`): one index
  instance with its own tracking allocator — and, for elastic indexes,
  its own :class:`~repro.memory.budget.MemoryBudget`.
* **arbiter** (:class:`~repro.engine.arbiter.BudgetArbiter`): owns the
  single global soft bound and periodically reapportions it across all
  registered shards of all tables by occupancy and pressure state,
  replacing the static at-creation ``Database.split_budget`` carve-up.

A fourth layer decides *how* a scatter executes:

* **executor** (:mod:`repro.engine.executor`): the scatter/gather
  backend behind the router.  :class:`~repro.engine.executor.
  SerialShardExecutor` is byte-identical to visiting shards in a loop;
  :class:`~repro.engine.executor.ParallelShardExecutor` runs the same
  sub-batches on the calling thread but charges critical-path cost
  over ``workers``-wide modeled waves.

A :class:`~repro.engine.faults.FaultPlan` scripts the replica outages
of the cluster tier and the process kills of the write-ahead log.

With one shard, no arbiter, and the serial executor the engine is
byte-identical to the unsharded index it wraps; the layers add
behaviour only when asked to.

Two modules serve the tiers above: the **builder**
(:mod:`repro.engine.builder`) makes every index shape from one frozen
:class:`~repro.engine.builder.IndexRecipe`, and the **what-if engine**
(:mod:`repro.engine.whatif`) gives the cluster router and both
advisors one probe round, one scratch sample and one billed rebuild.
"""

from repro.engine.arbiter import ArbiterStats, BudgetArbiter, largest_remainder
from repro.engine.builder import IndexRecipe, build_sharded_index
from repro.engine.executor import (
    ExecutorStats,
    ParallelShardExecutor,
    SerialShardExecutor,
    make_executor,
)
from repro.engine.faults import FaultPlan
from repro.engine.partition import (
    HashPartitioner,
    PARTITIONERS,
    Partitioner,
    RangePartitioner,
    make_partitioner,
)
from repro.engine.router import ShardedIndex
from repro.engine.shard import IndexShard

__all__ = [
    "ArbiterStats",
    "BudgetArbiter",
    "ExecutorStats",
    "FaultPlan",
    "HashPartitioner",
    "IndexRecipe",
    "IndexShard",
    "PARTITIONERS",
    "ParallelShardExecutor",
    "Partitioner",
    "RangePartitioner",
    "SerialShardExecutor",
    "ShardedIndex",
    "build_sharded_index",
    "largest_remainder",
    "make_executor",
    "make_partitioner",
]
