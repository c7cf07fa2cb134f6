"""repro.api — the single public entry point.

Everything an application needs to build tables, indexes, and sharded
engines lives here, one import away::

    from repro.api import Database, RowSchema

    db = Database()
    logs = db.create_table(RowSchema("logs", ("ts", "obj"), (8, 8)))
    logs.create_index("by_ts", ("ts",), kind="elastic",
                      size_bound_bytes=1 << 20, shards=4, parallel=True)

The facade groups the stable surface of the layered packages:

* **database** — :class:`Database`, :class:`DBTable`,
  :class:`SecondaryIndex`, :class:`RowSchema`, :class:`Table`;
* **indexes** — :class:`ElasticBPlusTree` + :class:`ElasticConfig` (the
  paper's elastic B+-tree), :class:`BPlusTree` (the STX-style
  baseline), plus the name registry (:func:`build_index`,
  :func:`register_index`, :func:`available_indexes`) for everything
  else;
* **leaf kinds** — the pluggable conversion-target registry
  (:class:`LeafKindRegistry`, :func:`register_leaf_kind`,
  :func:`leaf_kind`, :func:`available_leaf_kinds`) and
  :class:`LearnedLeaf`, the FITing-Tree style learned kind
  (``ElasticConfig(leaf_kinds=("standard", "compact", "learned"))``);
* **engine** — :class:`ShardedIndex` / :func:`build_sharded_index`,
  partitioners, :class:`BudgetArbiter`, the scatter/gather executors
  (:class:`SerialShardExecutor`, :class:`ParallelShardExecutor`,
  :func:`make_executor`), and :class:`FaultPlan`, which scripts replica
  outages and write-ahead-log kills;
* **cluster** — divergent replica sets above the engine tier
  (``create_index(..., replicas=ReplicaConfig(...))``):
  :class:`ReplicaConfig` / :class:`ReplicaProfile` /
  :func:`preset_profile` describe the per-replica configurations,
  :class:`ReplicaSet` / :func:`build_replica_set` materialize them,
  :class:`ClusterRouter` routes query classes, and
  :class:`ReplicaAdvisor` re-scores and rebuilds replicas;
* **execution** — :class:`BatchExecutor` for amortized operation
  batches over one index;
* **durability** — the transactional write surface and the write-ahead
  log behind it: :meth:`Database.begin_batch` yields a
  :class:`WriteBatch`; ``Database(wal=WalConfig(...))`` attaches the
  per-shard group-committed log; :func:`recover_database` /
  :class:`RecoveryReport` / :func:`state_digest` rebuild and verify
  after a :class:`CrashError` raised at a scripted
  ``FaultPlan.kill(...)`` point;
* **caching** — :class:`CacheConfig` for budget-aware adaptive
  caching (``create_index(..., cache=CacheConfig())``), plus the
  :class:`IndexCache` / :class:`CacheStats` / :class:`CacheReport`
  introspection surface;
* **tuning** — the online self-tuning advisor
  (``db.enable_self_tuning(TuningConfig(...))``): closed-loop what-if
  tuning riding the budget arbiter's tick — :class:`TuningConfig`
  configures the loop, :class:`SelfTuningAdvisor` is the advisor the
  database exposes as ``db.advisor``;
* **accounting** — :class:`CostModel`, :class:`TrackingAllocator`,
  :class:`MemoryBudget`, :class:`PressureState`;
* **errors** — the typed :mod:`repro.errors` hierarchy (every class
  still subclasses :class:`ValueError`);
* **observability** — the :mod:`repro.obs` module itself, re-exported
  as :data:`obs` (``api.obs.set_enabled(True)``, ``api.obs.Observer()``).

Deeper modules (``repro.bench``, ``repro.workloads``, ``repro.mcas``,
per-structure baselines) remain importable directly; they are research
drivers, not application surface.
"""

from __future__ import annotations

from repro import obs
from repro.btree import BPlusTree
from repro.btree.kinds import (
    LeafKindRegistry,
    LeafKindSpec,
    available_leaf_kinds,
    leaf_kind,
    register_leaf_kind,
)
from repro.cache import CacheConfig, CacheReport, CacheStats, IndexCache
from repro.cluster import (
    ClusterRouter,
    Replica,
    ReplicaAdvisor,
    ReplicaConfig,
    ReplicaProfile,
    ReplicaSet,
    build_replica_set,
    preset_profile,
)
from repro.core.config import ElasticConfig
from repro.core.elastic_btree import ElasticBPlusTree
from repro.db.database import Database, DBTable, SecondaryIndex
from repro.db.write import WriteBatch
from repro.engine import (
    BudgetArbiter,
    FaultPlan,
    HashPartitioner,
    IndexShard,
    ParallelShardExecutor,
    Partitioner,
    RangePartitioner,
    SerialShardExecutor,
    ShardedIndex,
    build_sharded_index,
    make_executor,
    make_partitioner,
)
from repro.errors import (
    CacheConfigError,
    IndexExistsError,
    InvalidBudgetError,
    LeafKindError,
    RecoveryError,
    ReplicaConfigError,
    ReproError,
    ShardConfigError,
    TuningConfigError,
    WalError,
)
from repro.exec import BatchExecutor
from repro.learned import LearnedLeaf
from repro.keys.encoding import encode_f64, encode_i64, encode_str, encode_u64
from repro.memory.allocator import TrackingAllocator
from repro.memory.budget import MemoryBudget, PressureState
from repro.memory.cost_model import CostModel
from repro.registry import (
    available_indexes,
    build_index,
    register_index,
)
from repro.table.table import RowSchema, Table
from repro.tuning import SelfTuningAdvisor, TuningConfig
from repro.wal import (
    CrashError,
    RecoveryReport,
    WalConfig,
    WalRecord,
    WriteAheadLog,
    recover_database,
    state_digest,
)

__all__ = [
    # database
    "Database",
    "DBTable",
    "SecondaryIndex",
    "RowSchema",
    "Table",
    # indexes
    "BPlusTree",
    "ElasticBPlusTree",
    "ElasticConfig",
    "available_indexes",
    "build_index",
    "register_index",
    # leaf kinds
    "LeafKindRegistry",
    "LeafKindSpec",
    "LearnedLeaf",
    "available_leaf_kinds",
    "leaf_kind",
    "register_leaf_kind",
    # engine
    "BudgetArbiter",
    "FaultPlan",
    "HashPartitioner",
    "IndexShard",
    "ParallelShardExecutor",
    "Partitioner",
    "RangePartitioner",
    "SerialShardExecutor",
    "ShardedIndex",
    "build_sharded_index",
    "make_executor",
    "make_partitioner",
    # cluster
    "ClusterRouter",
    "Replica",
    "ReplicaAdvisor",
    "ReplicaConfig",
    "ReplicaProfile",
    "ReplicaSet",
    "build_replica_set",
    "preset_profile",
    # execution
    "BatchExecutor",
    # durability
    "CrashError",
    "RecoveryReport",
    "WalConfig",
    "WalRecord",
    "WriteAheadLog",
    "WriteBatch",
    "recover_database",
    "state_digest",
    # caching
    "CacheConfig",
    "CacheReport",
    "CacheStats",
    "IndexCache",
    # tuning
    "SelfTuningAdvisor",
    "TuningConfig",
    # accounting
    "CostModel",
    "MemoryBudget",
    "PressureState",
    "TrackingAllocator",
    # keys
    "encode_f64",
    "encode_i64",
    "encode_str",
    "encode_u64",
    # errors
    "CacheConfigError",
    "IndexExistsError",
    "InvalidBudgetError",
    "LeafKindError",
    "RecoveryError",
    "ReplicaConfigError",
    "ReproError",
    "ShardConfigError",
    "TuningConfigError",
    "WalError",
    # observability
    "obs",
]
