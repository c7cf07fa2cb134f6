"""Typed exception hierarchy for the public API surface.

Every error the library raises deliberately derives from
:class:`ReproError`, so callers can catch one base class instead of
pattern-matching ``ValueError`` messages.  :class:`ReproError` itself
subclasses :class:`ValueError`: every site that historically raised a
bare ``ValueError`` keeps working for callers that still catch that —
the redesign tightens the taxonomy without breaking a single
``except ValueError``.

The concrete classes map to the layers that raise them:

* :class:`IndexExistsError` — creating a table or secondary index under
  a name that is already taken (``repro.db``).
* :class:`InvalidBudgetError` — a memory-budget figure that cannot be
  apportioned: non-positive global bounds, negative weights, malformed
  arbiter configuration (``repro.db``, ``repro.engine.arbiter``).
* :class:`ShardConfigError` — impossible shard topology: zero shards,
  unknown partitioner names, shard/partitioner arity mismatches, a
  ``parallel=`` value that is not a bool, an executor or a worker
  count of at least one (``repro.engine``).
* :class:`CacheConfigError` — an adaptive-cache configuration that can
  never help: non-positive budgets, a cache budget at or above the index
  soft bound it is meant to compete under, malformed sketch/tier knobs
  (``repro.cache``, ``repro.db``).
* :class:`LeafKindError` — an unknown or unsupported leaf kind: a
  ``leaf_kinds`` selection naming a kind never registered with
  :func:`repro.btree.kinds.register_leaf_kind`, registering a duplicate
  kind without ``replace=True``, or attaching a :class:`CacheConfig` to
  a tree whose kinds include one without cache support
  (``repro.btree.kinds``, ``repro.core``).
* :class:`ReplicaConfigError` — an impossible replica-cluster topology:
  zero replicas, a profile list whose arity does not match the replica
  count, non-positive budget weights, an elastic profile with no bound
  to apportion, or a routing/heartbeat knob that can never fire
  (``repro.cluster``, ``repro.db``).
* :class:`WalError` — an invalid write-ahead-log configuration or a
  misuse of the transactional write surface: non-positive group sizes
  or stream counts, committing a :class:`~repro.db.write.WriteBatch`
  twice, or staging operations into one already committed
  (``repro.wal``, ``repro.db``).
* :class:`RecoveryError` — crash recovery cannot proceed: recovering a
  database that has no write-ahead log, or replaying a log whose
  records reference tables the DDL history never created
  (``repro.wal.recovery``).
* :class:`TuningConfigError` — a self-tuning configuration that can
  never act: non-positive sample windows or payback horizons, empty
  cache ladders, negative fees, enabling the advisor twice, or
  enabling it on a database with no budget arbiter to ride
  (``repro.tuning``, ``repro.db``).

Deliberately *outside* this hierarchy: :class:`repro.wal.CrashError`,
the simulated kill raised at a :meth:`FaultPlan.kill <repro.engine.
faults.FaultPlan.kill>` point.  A crash is not an input error — it must
never be swallowed by an ``except ValueError`` — so it subclasses
:class:`RuntimeError` instead.
"""

from __future__ import annotations


class ReproError(ValueError):
    """Base class of every deliberate error raised by this library."""


class IndexExistsError(ReproError):
    """An index (or table) name is already registered."""


class InvalidBudgetError(ReproError):
    """A memory budget cannot be apportioned as requested."""


class ShardConfigError(ReproError):
    """A sharded-engine topology or executor configuration is invalid."""


class CacheConfigError(ReproError):
    """An adaptive-cache configuration is invalid or cannot help."""


class LeafKindError(ReproError):
    """A leaf kind is unknown, duplicated, or unsupported in context."""


class ReplicaConfigError(ReproError):
    """A replica-cluster topology or routing configuration is invalid."""


class WalError(ReproError):
    """A write-ahead-log configuration or write-batch use is invalid."""


class RecoveryError(ReproError):
    """Crash recovery cannot proceed from the given database state."""


class TuningConfigError(ReproError):
    """A self-tuning advisor configuration is invalid or cannot act."""


__all__ = [
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
]
