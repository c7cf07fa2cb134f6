"""Tables with multiple ordered secondary indexes over one row store."""

from __future__ import annotations

import struct
from itertools import islice
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cache import CacheConfig
from repro.cluster import ReplicaConfig, ReplicaSet, build_replica_set
from repro.engine import BudgetArbiter, largest_remainder, make_executor
from repro.engine.builder import IndexRecipe, build, enroll
from repro.db.metrics import layer_metrics
from repro.db.write import WriteBatch, commit_op
from repro.errors import (
    IndexExistsError,
    InvalidBudgetError,
    ShardConfigError,
    TuningConfigError,
    WalError,
)
from repro.exec import BatchExecutor
from repro.keys.encoding import encode_f64, encode_i64, encode_str
from repro.memory.allocator import TrackingAllocator
from repro.memory.cost_model import CostModel
from repro.obs import Event, Observer
from repro.table.table import RowSchema, Table
from repro.wal.log import TableSnapshot, WalConfig, WriteAheadLog


def _encode_column(value, ctype: str, width: int) -> bytes:
    """Order-preserving encoding of one typed column value."""
    if ctype == "u64":
        return int(value).to_bytes(width, "big")
    if ctype == "i64":
        return encode_i64(int(value))
    if ctype == "f64":
        return encode_f64(float(value))
    return encode_str(str(value), width)


def _key_encoders(
    types: Tuple[str, ...],
    widths: Tuple[int, ...],
    positions: Tuple[int, ...],
) -> Tuple[Callable[[Sequence], bytes], Callable[[Sequence], bytes]]:
    """An index's key encoders ``(of values, of row)``, picked once from
    its column types.

    Any column tuple can join the per-column :func:`_encode_column`
    encodings.  An all-``u64`` tuple of 8-byte columns — the common
    case — packs its values with one precompiled big-endian struct
    instead; a value the struct rejects (out of range, or not an
    integer) takes the join, so the bytes, and the exception on a bad
    value, are the join's.
    """
    columns = tuple(zip(types, widths))

    def join_values(values: Sequence) -> bytes:
        return b"".join(
            _encode_column(v, t, w) for v, (t, w) in zip(values, columns)
        )

    def join_row(row: Sequence) -> bytes:
        return join_values([row[p] for p in positions])

    if any(column != ("u64", 8) for column in columns):
        return join_values, join_row
    pack = struct.Struct(">" + "Q" * len(columns)).pack
    # The row's index columns as a tuple (an itemgetter of one position
    # would return the bare value).
    if len(positions) > 1:
        picked = itemgetter(*positions)
    else:
        picked = itemgetter(slice(positions[0], positions[0] + 1))

    def of_values(values: Sequence) -> bytes:
        try:
            return pack(*values)
        except struct.error:
            return join_values(values)

    def of_row(row: Sequence) -> bytes:
        try:
            return pack(*picked(row))
        except struct.error:
            return join_row(row)

    return of_values, of_row


class TableView:
    """A per-index view of a table: same rows, index-specific keys.

    Every secondary index extracts its key from different columns of the
    same stored row; compact (blind-trie) leaves load keys through their
    view, charging the same indirect access as a dedicated table would.
    """

    def __init__(self, table: Table, key_of_row) -> None:
        self._table = table
        self._key_of_row = key_of_row

    def load_key(self, tid: int) -> bytes:
        row = self._table.live_row(tid)
        self._table.cost_model.key_loads(1)
        return self._key_of_row(row)

    def load_key_batched(self, tid: int) -> bytes:
        row = self._table.live_row(tid)
        self._table.cost_model.key_loads_batched(1)
        return self._key_of_row(row)

    def load_keys_batched(self, tids: Sequence[int]) -> List[bytes]:
        return self._table._keys_batched(tids, self._key_of_row)

    def peek_key(self, tid: int) -> bytes:
        return self._key_of_row(self._table.live_row(tid))


class SecondaryIndex:
    """One ordered secondary index over a column tuple."""

    def __init__(
        self,
        name: str,
        columns: Tuple[str, ...],
        widths: Tuple[int, ...],
        positions: Tuple[int, ...],
        index,
        view: TableView,
        types: Tuple[str, ...] = (),
    ) -> None:
        self.name = name
        self.columns = columns
        self.widths = widths
        self.types = types or tuple("u64" for _ in columns)
        self._encode_values, self._encode_row = _key_encoders(
            self.types, widths, positions
        )
        self.index = index
        self.view = view
        self._executor: Optional[BatchExecutor] = None
        #: Parked by the self-tuning advisor: writes skip the index and
        #: the first read rebuilds it (see :mod:`repro.tuning`).
        self.parked = False
        #: The :class:`~repro.engine.builder.IndexRecipe` the index was
        #: built from; the self-tuning advisor rebuilds from it.
        self.recipe: Optional[IndexRecipe] = None

    @property
    def executor(self) -> BatchExecutor:
        """Lazily-built batch executor over this index."""
        if self._executor is None or self._executor.index is not self.index:
            self._executor = BatchExecutor(self.index)
        return self._executor

    @property
    def key_width(self) -> int:
        return sum(self.widths)

    def key_of_values(self, values: Sequence) -> bytes:
        """Order-preserving concatenation of the typed column values."""
        if len(values) != len(self.widths):
            raise ValueError(
                f"index {self.name!r} needs {len(self.widths)} values"
            )
        return self._encode_values(values)

    def key_of_row(self, row: Tuple[int, ...]) -> bytes:
        return self._encode_row(row)

    @property
    def index_bytes(self) -> int:
        return self.index.index_bytes


class DBTable:
    """A fixed-schema table plus its secondary indexes."""

    def __init__(self, db: "Database", schema: RowSchema) -> None:
        self.db = db
        self.schema = schema
        self.table = Table(
            key_of_row=lambda row: b"",  # primary access is by tid
            row_bytes=schema.row_bytes,
            cost_model=db.cost,
            allocator=db.allocator,
        )
        self.indexes: Dict[str, SecondaryIndex] = {}

    # ------------------------------------------------------------------
    # Index management
    # ------------------------------------------------------------------
    def create_index(
        self,
        name: str,
        columns: Sequence[str],
        kind: str = "stx",
        size_bound_bytes: Optional[int] = None,
        shards: int = 1,
        partitioner: str = "hash",
        parallel=False,
        cache: Optional[CacheConfig] = None,
        replicas: Optional[ReplicaConfig] = None,
        **index_kwargs,
    ) -> SecondaryIndex:
        """Create an ordered secondary index over ``columns``.

        ``kind`` is any registered index name (``stx``, ``elastic``,
        ``hot``, ...); elastic indexes take their own
        ``size_bound_bytes`` slice of the memory budget.  With
        ``shards > 1`` the index is partitioned across that many
        independent ``kind`` instances behind the engine's router
        (``partitioner``: ``"hash"`` or ``"range"``); an elastic bound
        is split equally across the shards.  ``parallel`` selects the
        scatter/gather backend for a sharded index: ``False`` (serial,
        byte-identical to a loop over shards), ``True`` (the default
        parallel executor), a worker count, or a ready
        :class:`~repro.engine.ParallelShardExecutor` instance.  Elastic indexes
        — sharded or not — enroll with the database's budget arbiter
        when one is enabled.  A :class:`~repro.cache.CacheConfig` as
        ``cache`` attaches a budget-aware adaptive read cache (one per
        shard when sharded); elastic cached indexes also enroll the
        cache with the budget arbiter, which then resizes the cache's
        budget by observed hit-rate demand.  Existing rows are
        back-filled.

        A :class:`~repro.cluster.ReplicaConfig` as ``replicas`` lifts
        the index into the cluster tier: ``replicas.replicas`` full
        copies (each possibly sharded underneath), each built from its
        own divergent profile, with reads routed per query class and
        writes fanned out to every copy — see :mod:`repro.cluster`.
        ``replicas=None`` or a single-replica config takes the plain
        path above, byte-identical to a database without the cluster
        tier.
        """
        if name in self.indexes:
            raise IndexExistsError(f"index {name!r} already exists")
        if shards < 1:
            raise ShardConfigError("shards must be >= 1")
        # Pre-mutation argument image for the DDL history (crash
        # recovery replays it verbatim; see Database.snapshot).
        ddl_kwargs = dict(
            kind=kind, size_bound_bytes=size_bound_bytes, shards=shards,
            partitioner=partitioner, parallel=parallel, cache=cache,
            replicas=replicas, **index_kwargs,
        )
        if replicas is not None:
            replicas.validate()
            if replicas.replicas == 1:
                # Exact passthrough: a one-replica cluster is the plain
                # (or sharded) index, no cluster machinery at all.  An
                # explicit single profile supplies the configuration.
                if replicas.profiles:
                    profile = replicas.profiles[0]
                    kind = profile.kind
                    if profile.cache is not None:
                        cache = profile.cache
                    index_kwargs = {
                        **index_kwargs, **profile.builder_kwargs()
                    }
                if replicas.total_bound_bytes is not None:
                    size_bound_bytes = replicas.total_bound_bytes
                replicas = None
        executor = make_executor(parallel)
        if executor is not None and shards == 1:
            raise ShardConfigError(
                "parallel execution needs shards > 1; an unsharded index "
                "has no scatter to parallelize"
            )
        positions = tuple(self.schema.column_names.index(c) for c in columns)
        widths = tuple(self.schema.column_widths[p] for p in positions)
        types = tuple(self.schema.type_of(p) for p in positions)
        secondary = SecondaryIndex(
            name, tuple(columns), widths, positions, None, None, types
        )
        view = TableView(self.table, secondary.key_of_row)
        recipe = IndexRecipe(
            kind=kind, table=view, cost=self.db.cost,
            key_width=secondary.key_width,
            size_bound_bytes=size_bound_bytes, shards=shards,
            partitioner=partitioner, executor=executor, cache=cache,
            index_kwargs=tuple(index_kwargs.items()),
            name=f"{self.schema.name}.{name}",
        )
        if replicas is not None:
            index = build_replica_set(replicas, recipe)
        else:
            index = build(recipe)
        secondary.index = index
        secondary.view = view
        secondary.recipe = recipe
        self.indexes[name] = secondary
        self.db._register_with_arbiter(self.schema.name, name, index)
        self.db._ddl.append((
            "create_index", self.schema.name, name, tuple(columns),
            ddl_kwargs,
        ))
        # Back-fill existing rows.
        for tid, row in self.table.iter_live():
            index.insert(secondary.key_of_row(row), tid)
        return secondary

    # ------------------------------------------------------------------
    # Row operations (the transactional write surface)
    # ------------------------------------------------------------------
    # One spelling per shape, mirroring the read side: ``insert`` /
    # ``insert_batch`` for stores, ``delete`` for removals.  ``insert``
    # and ``delete`` commit one operation through the write pipeline's
    # per-op phases (:func:`~repro.db.write.commit_op`) without staging
    # it, so each is observably a one-op :class:`~repro.db.write.
    # WriteBatch`: the same charges, log records, kill ordinals, ticks
    # and exceptions.  ``insert_batch`` is a one-call batch;
    # ``db.begin_batch()`` stages several operations under one commit
    # (one log append phase, one group-commit schedule).

    def insert(self, row: Sequence[int]) -> int:
        """Store a row and update every secondary index."""
        return commit_op(
            self.db, "insert", self, WriteBatch._validate(self, row)
        )

    def insert_batch(self, rows: Sequence[Sequence[int]]) -> List[int]:
        """Store a batch of rows, updating every index with one batch
        insert per index (shared descents on batch-capable indexes)."""
        batch = self.db.begin_batch()
        batch.insert_batch(self, rows)
        return batch.commit()

    def delete(self, tid: int) -> Tuple[int, ...]:
        """Remove a row from the store and every index."""
        self.table.deletable_row(tid)  # a one-op batch's delete check
        return commit_op(self.db, "delete", self, tid)

    # Apply-phase primitives (called by repro.db.write.apply_op and by
    # crash recovery's log replay).  These preserve the historical charge
    # sequences exactly, so a WAL-less database stays byte-identical to
    # the pre-batch write path.
    def _apply_insert(self, row: Tuple) -> int:
        tid = self.table.insert_row(row)
        advisor = self.db.advisor
        for secondary in self.indexes.values():
            if secondary.parked:
                advisor.observe_parked_write(
                    self.schema.name, secondary.name, 1
                )
                continue
            key = secondary.key_of_row(row)
            secondary.index.insert(key, tid)
            if advisor is not None:
                advisor.observe_writes(
                    self.schema.name, secondary.name, (key,)
                )
        return tid

    def _apply_insert_rows(self, rows: Sequence[Tuple]) -> List[int]:
        stored: List[Tuple[Tuple, int]] = []
        tids: List[int] = []
        for row in rows:
            tid = self.table.insert_row(row)
            stored.append((row, tid))
            tids.append(tid)
        advisor = self.db.advisor
        for secondary in self.indexes.values():
            if secondary.parked:
                advisor.observe_parked_write(
                    self.schema.name, secondary.name, len(stored)
                )
                continue
            pairs = [
                (secondary.key_of_row(row), tid) for row, tid in stored
            ]
            secondary.executor.insert_batch(pairs)
            if advisor is not None:
                advisor.observe_writes(
                    self.schema.name, secondary.name,
                    [key for key, _ in pairs],
                )
        return tids

    def _apply_delete(self, tid: int) -> Tuple[int, ...]:
        row = self.table.row(tid)
        advisor = self.db.advisor
        for secondary in self.indexes.values():
            if secondary.parked:
                advisor.observe_parked_write(
                    self.schema.name, secondary.name, 1
                )
                continue
            key = secondary.key_of_row(row)
            secondary.index.remove(key)
            if advisor is not None:
                advisor.observe_deletes(
                    self.schema.name, secondary.name, (key,)
                )
        self.table.delete_row(tid)
        return row

    # ------------------------------------------------------------------
    # Queries (the keyword-consistent read surface)
    # ------------------------------------------------------------------
    # One spelling per shape: ``get`` / ``get_batch`` for point queries,
    # ``scan`` / ``scan_batch`` for ranges.  Scans take ``count`` as a
    # required keyword and ``include_rows=False`` turns a scan into an
    # included-column query (section 2) answered from index keys alone.
    # Batched shapes and scans fetch their rows with one
    # ``Table.row_batch`` call, so one charge; ``get`` keeps ``Table.row``.

    def get(self, index_name: str, values: Sequence[int]) -> Optional[Tuple]:
        """Point query through an index; returns the row or None."""
        db = self.db
        secondary = self.indexes[index_name]
        if secondary.parked:
            db.advisor.unpark(self, secondary)
        with db.trace_op("db.get", index_name):
            key = secondary.key_of_values(values)
            tid = secondary.index.lookup(key)
            row = self.table.row(tid) if tid is not None else None
        advisor = db.advisor
        if advisor is not None:
            advisor.observe_point(self.schema.name, secondary.name, key)
        db._tick(1)
        return row

    def get_batch(
        self, index_name: str, values_batch: Sequence[Sequence[int]]
    ) -> List[Optional[Tuple]]:
        """Batched point queries through one index; row or ``None`` per
        entry, aligned with the input order."""
        db = self.db
        secondary = self.indexes[index_name]
        if secondary.parked:
            db.advisor.unpark(self, secondary)
        with db.trace_op("db.get_batch", index_name):
            keys = [secondary.key_of_values(v) for v in values_batch]
            rows = self.table.row_batch(secondary.executor.get_batch(keys))
        advisor = db.advisor
        if advisor is not None:
            advisor.observe_batch(self.schema.name, secondary.name, keys)
        db._tick(len(keys))
        return rows

    def scan(
        self,
        index_name: str,
        start_values: Sequence[int],
        *,
        count: int,
        include_rows: bool = True,
    ) -> Union[List[Tuple], List[bytes]]:
        """Range query from ``start_values`` in index order.

        Returns ``count`` rows, or — with ``include_rows=False`` — the
        index keys alone (an included-column query, section 2: no row
        fetches on internal-key leaves).  ``count`` is keyword-only.
        """
        db = self.db
        secondary = self.indexes[index_name]
        if secondary.parked:
            db.advisor.unpark(self, secondary)
        with db.trace_op("db.scan", index_name):
            start = secondary.key_of_values(start_values)
            items = secondary.index.scan(start, count)
            if include_rows:
                out = self.table.row_batch([tid for _, tid in items])
            else:
                out = [key for key, _ in items]
        advisor = db.advisor
        if advisor is not None:
            advisor.observe_scan(
                self.schema.name, secondary.name, start, count
            )
        db._tick(1)
        return out

    def scan_batch(
        self,
        index_name: str,
        start_values_batch: Sequence[Sequence[int]],
        *,
        count: int,
        include_rows: bool = True,
    ) -> Union[List[List[Tuple]], List[List[bytes]]]:
        """Batched range queries: ``count`` results per start key.

        Result lists align with the input order; ``include_rows=False``
        returns index keys instead of rows, as in :meth:`scan`.
        """
        db = self.db
        secondary = self.indexes[index_name]
        if secondary.parked:
            db.advisor.unpark(self, secondary)
        with db.trace_op("db.scan_batch", index_name):
            starts = [secondary.key_of_values(v) for v in start_values_batch]
            batches = secondary.executor.scan_batch(starts, count)
            if include_rows:
                rows = iter(self.table.row_batch(
                    [tid for items in batches for _, tid in items]
                ))
                out = [list(islice(rows, len(items))) for items in batches]
            else:
                out = [[key for key, _ in items] for items in batches]
        advisor = db.advisor
        if advisor is not None:
            advisor.observe_scan_batch(
                self.schema.name, secondary.name, starts, count
            )
        db._tick(len(starts))
        return out

    def __len__(self) -> int:
        return len(self.table)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def memory_report(self) -> Dict[str, float]:
        """Dataset vs. index memory — the section 1 overhead numbers."""
        index_bytes = {
            name: s.index_bytes for name, s in self.indexes.items()
        }
        total_index = sum(index_bytes.values())
        dataset = self.table.dataset_bytes
        total = dataset + total_index
        return {
            "dataset_bytes": dataset,
            "index_bytes_total": total_index,
            "index_fraction_of_memory": total_index / total if total else 0.0,
            **{f"index_bytes[{n}]": b for n, b in index_bytes.items()},
        }


class Database:
    """A set of tables sharing one cost account and allocator.

    Every database owns an :class:`~repro.obs.Observer` subscribed to
    the process-wide event bus: with observability enabled by the caller
    (``with repro.obs.enabled():``) state-change events — leaf
    conversions, pressure transitions, rebalances, routes, recoveries,
    tuning actions — are folded into its metrics registry and bounded
    event log, surfaced via :meth:`metrics_snapshot` / :meth:`event_log`.
    The bus is shared, so those events include every other database's in
    the process.  With it disabled (the default) no events are
    published, so the observer stays empty and the hot paths are
    untouched.  Per-call activity (cache probes, batch dispatches,
    prefetch waves, WAL appends and barriers) is read from this
    database's own layer ``stats`` by :meth:`metrics_snapshot`, on or
    off (see :mod:`repro.db.metrics`).

    A :class:`~repro.wal.WalConfig` as ``wal`` attaches the durable
    write pipeline: every write — a :class:`~repro.db.write.WriteBatch`
    commit or a scalar ``insert`` / ``delete`` — appends logical redo
    records to a per-shard group-committed write-ahead log before
    touching volatile state, and :func:`repro.wal.recover_database`
    rebuilds the database from the snapshot (:meth:`snapshot`) plus the
    log's durable prefix after a crash.  ``wal=None`` (the default)
    keeps the write path byte-identical to a log-less database.
    """

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        wal: Optional[WalConfig] = None,
    ) -> None:
        self.cost = cost_model if cost_model is not None else CostModel()
        self.allocator = TrackingAllocator(cost_model=self.cost)
        self.tables: Dict[str, DBTable] = {}
        self.observer = Observer()
        self.arbiter: Optional[BudgetArbiter] = None
        #: The self-tuning advisor, set by :meth:`enable_self_tuning`
        #: (None = every tuning hook in the hot paths is a single
        #: attribute check, and feature-off runs stay byte-identical).
        self.advisor = None
        self.wal: Optional[WriteAheadLog] = (
            WriteAheadLog(wal, self.cost) if wal is not None else None
        )
        #: Recorded schema history (create_table / create_index /
        #: enable_budget_arbiter / enable_self_tuning), replayed
        #: verbatim by crash recovery.
        self._ddl: List[tuple] = []

    def create_table(self, schema: RowSchema) -> DBTable:
        if schema.name in self.tables:
            raise ValueError(f"table {schema.name!r} already exists")
        table = DBTable(self, schema)
        self.tables[schema.name] = table
        self._ddl.append(("create_table", schema))
        return table

    # ------------------------------------------------------------------
    # Transactional writes and durability
    # ------------------------------------------------------------------
    def begin_batch(self) -> WriteBatch:
        """Open a :class:`~repro.db.write.WriteBatch` — the single
        transactional write entry point.  Stage inserts and deletes
        across any of this database's tables, then ``commit()`` (or
        exit the ``with`` block) to run the write pipeline; with a
        write-ahead log configured the whole batch shares one append
        phase and one group-commit schedule."""
        return WriteBatch(self)

    def snapshot(self) -> int:
        """Checkpoint: flush the log and store every table's image.

        Forces the pending log suffix durable (charging its fsync
        barriers), then copies each table's row store — including dead
        slots and the free-tid stack, so post-snapshot replay re-derives
        exact tuple ids — onto the modeled stable media, charging
        ``copy_line`` for the live bytes.  Recovery then replays only
        records above the returned snapshot lsn.  Requires a
        write-ahead log (:class:`~repro.errors.WalError` otherwise).
        """
        if self.wal is None:
            raise WalError("snapshot requires a write-ahead log")
        self.wal.flush()
        tables: Dict[str, TableSnapshot] = {}
        for name, dbtable in self.tables.items():
            store = dbtable.table
            tables[name] = TableSnapshot(
                rows=list(store._rows),
                free_tids=list(store._free_tids),
                live_rows=len(store),
            )
            self.cost.copy_bytes(len(store) * store.row_bytes)
        snapshot_lsn = self.wal.next_lsn - 1
        self.wal.install_snapshot(tables, snapshot_lsn)
        return snapshot_lsn

    # ------------------------------------------------------------------
    # Global budget arbitration
    # ------------------------------------------------------------------
    def enable_budget_arbiter(
        self, total_bytes: int, **arbiter_kwargs
    ) -> BudgetArbiter:
        """Put all elastic indexes under one dynamically-arbitrated bound.

        Creates the database's :class:`~repro.engine.BudgetArbiter` and
        enrolls every already-created elastic index (each shard
        individually, for sharded indexes); indexes created afterwards
        enroll automatically.  Enrollment does not move budget — shards
        keep their creation-time bounds until the first rebalance, which
        runs every ``interval_ops`` database operations (or on an
        explicit :meth:`rebalance_budget` call).
        """
        if self.arbiter is not None:
            raise InvalidBudgetError("budget arbiter already enabled")
        self.arbiter = BudgetArbiter(total_bytes, **arbiter_kwargs)
        self._ddl.append((
            "enable_budget_arbiter", total_bytes, dict(arbiter_kwargs)
        ))
        for table_name, table in self.tables.items():
            for index_name, secondary in table.indexes.items():
                self._register_with_arbiter(
                    table_name, index_name, secondary.index
                )
        return self.arbiter

    def enable_self_tuning(self, config=None):
        """Close the tuning loop: create the self-tuning advisor.

        The advisor (:class:`~repro.tuning.SelfTuningAdvisor`) rides the
        budget arbiter's tick — it registers an interval hook on the
        arbiter rather than counting operations itself, so advisor
        actions and cache adaptation share one op-boundary clock and
        enabling self-tuning never advances the arbiter's ``_ops_since``
        twice per database operation.  Requires
        :meth:`enable_budget_arbiter` first
        (:class:`~repro.errors.TuningConfigError` otherwise; likewise
        when self-tuning is already enabled).  ``config`` defaults to
        ``TuningConfig()``.
        """
        from repro.tuning import SelfTuningAdvisor, TuningConfig

        if self.advisor is not None:
            raise TuningConfigError("self-tuning already enabled")
        if self.arbiter is None:
            raise TuningConfigError(
                "self-tuning rides the budget arbiter's op clock; call "
                "enable_budget_arbiter first"
            )
        if config is None:
            config = TuningConfig()
        config.validate()
        self.advisor = SelfTuningAdvisor(self, config)
        self.arbiter.add_interval_hook(self.advisor.on_interval)
        self._ddl.append(("enable_self_tuning", config))
        return self.advisor

    def rebalance_budget(self, reason: str = "manual") -> bool:
        """Run one arbitration round now; True if budget moved."""
        if self.arbiter is None:
            raise InvalidBudgetError("no budget arbiter enabled")
        return self.arbiter.rebalance(reason=reason)

    def _register_with_arbiter(
        self, table_name: str, index_name: str, index
    ) -> None:
        """Enroll an index's elasticity controller(s), if any."""
        if self.arbiter is None:
            return
        if isinstance(index, ReplicaSet):
            # The cluster-global bound: every replica's controllers (and
            # caches) enroll under the database's one arbitrated total,
            # so budget moves across replica boundaries like it moves
            # across shard boundaries.
            index.arbiter = self.arbiter
            for replica in index.replicas:
                enroll(self.arbiter, replica.name, replica.index)
            return
        enroll(self.arbiter, f"{table_name}.{index_name}", index)

    def _tick(self, ops: int) -> None:
        """Operation-boundary hook: drives periodic arbitration.

        Every read path and — via :func:`repro.db.write.apply_op` —
        every write path, batched or scalar, WAL or not, ticks here, so
        the budget arbiter sees one op count per operation actually
        executed.
        """
        if self.arbiter is not None:
            self.arbiter.tick(ops)

    # ------------------------------------------------------------------
    # Observability surface
    # ------------------------------------------------------------------
    def trace_op(self, op: str, target: Optional[str] = None):
        """Cost-attributed span over one operation, labelled ``op`` or
        ``op[target]`` (no-op, and no label built, when obs is off)."""
        return self.observer.tracer.trace_op(self.cost, op, target)

    def metrics_snapshot(self) -> str:
        """Prometheus exposition text: the observer's event-fed
        families plus the families read from this database's layer
        stats at call time."""
        return self.observer.registry.render_prometheus(layer_metrics(self))

    def event_log(self, kind: Optional[str] = None) -> List[Event]:
        """Events retained by the observer, oldest first."""
        return self.observer.event_log(kind)

    def write_event_log(self, path) -> int:
        """Dump the observer's events as JSON-lines; returns line count."""
        return self.observer.write_event_log(path)

    @staticmethod
    def split_budget(total_bytes: int, shares: Sequence[float]) -> List[int]:
        """Divide an index memory budget across indexes by weight.

        Largest-remainder apportionment: the integer parts are handed
        out first and the leftover bytes (up to ``len(shares) - 1``) go
        to the largest fractional remainders, so the result always sums
        to exactly ``total_bytes``.  Ties break toward earlier shares.
        """
        return largest_remainder(total_bytes, shares)
