"""Per-shard write-ahead log with group commit (``repro.wal``).

Durability is modeled, not performed: no file is ever opened.  The log
is the same kind of deterministic substitute the cost model is for
wall-clock time — appends and fsyncs charge the ``log_append`` /
``log_fsync`` cost categories, durable watermarks advance exactly as a
real group-committed log's would, and a scripted
:meth:`~repro.engine.faults.FaultPlan.kill` point raises
:class:`CrashError` at a precise, replayable instant.  Everything the
log retains (records, watermarks, snapshots) plays the role of stable
media; everything else in the database (tables, indexes, caches) is
volatile and deemed lost at a crash.

Layout.  One :class:`WriteAheadLog` owns ``config.shards`` independent
:class:`WalShard` streams — the per-shard logs of a partitioned engine.
Records take global, contiguous lsns and route to stream
``lsn % shards``, so the global commit order is recoverable from the
streams alone.

Group commit.  Appending a record makes it *visible* in the log buffer
(one ``log_append``); it becomes *durable* only when an fsync barrier
covers it.  Barriers are scheduled over consecutive lsn groups of
``config.group_size`` records: each full group charges one
``log_fsync`` per distinct stream it touches and advances those
streams' durable watermarks.  A commit group therefore amortizes the
dominant fsync latency across ``group_size`` writes — mirroring how
``wave_issue`` amortizes one miss latency across a prefetch wave — and
a partial group stays volatile until more records arrive or
:meth:`WriteAheadLog.flush` forces it out.  Losing the volatile suffix
at a crash is the price of group commit; recovery replays exactly the
durable prefix (see :mod:`repro.wal.recovery`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.engine.faults import FaultPlan
from repro.errors import WalError
from repro.memory.cost_model import CostModel

#: Modeled on-media size of a record header (lsn + op/table tag).
RECORD_HEADER_BYTES = 16


class CrashError(RuntimeError):
    """A scripted kill point fired: the process is (simulatedly) dead.

    Deliberately **not** a :class:`~repro.errors.ReproError`: a crash is
    not an input error, and must never be swallowed by the library's
    ``except ValueError`` handlers.  Catch it explicitly, then hand the
    crashed database to :func:`repro.wal.recovery.recover_database`.
    """


@dataclass(frozen=True)
class WalConfig:
    """Write-ahead-log configuration for one :class:`~repro.db.database.
    Database`.

    Attributes:
        group_size: Records per commit group — the fsync amortization
            unit.  ``1`` models per-operation fsync (every record pays
            the full barrier); ``64`` (default) is the group-commit
            sweet spot the ``wal`` experiment gates on.
        shards: Independent log streams.  Matches a partitioned
            engine's shard count when log bandwidth is the concern;
            ``1`` (default) is a single global log.
        faults: Optional :class:`~repro.engine.faults.FaultPlan` whose
            scripted :meth:`~repro.engine.faults.FaultPlan.kill` points
            this log consults after every append, fsync, and applied
            operation.
    """

    group_size: int = 64
    shards: int = 1
    faults: Optional[FaultPlan] = None

    def validate(self) -> None:
        if self.group_size < 1:
            raise WalError("wal group_size must be >= 1")
        if self.shards < 1:
            raise WalError("wal shards must be >= 1")


@dataclass(slots=True)
class WalRecord:
    """One logical redo record.

    ``op`` is ``"insert"`` (``payload`` is the row tuple; the tuple id
    is re-derived at replay from the table's deterministic free-list
    order) or ``"delete"`` (``payload`` is the tuple id).  ``nbytes``
    is the modeled on-media size: payload bytes plus
    :data:`RECORD_HEADER_BYTES`.
    """

    lsn: int
    op: str
    table: str
    payload: Any
    nbytes: int


@dataclass
class WalShard:
    """One log stream: an ordered record list plus a durable watermark.

    ``durable_lsn`` is the highest lsn on this stream covered by a
    completed fsync barrier (-1 before the first); every record of the
    stream at or below it survives a crash.
    """

    stream: int
    records: List[WalRecord] = field(default_factory=list)
    durable_lsn: int = -1


@dataclass
class TableSnapshot:
    """A checkpoint image of one table's row store.

    Captures the physical layout — the row slot array including dead
    (``None``) holes and the free-tid stack order — so replaying
    post-snapshot records re-derives the exact tuple ids the original
    run assigned.
    """

    rows: List[Any]
    free_tids: List[int]
    live_rows: int


class WriteAheadLog:
    """The database's modeled write-ahead log (all streams).

    Built by :class:`~repro.db.database.Database` when constructed with
    a :class:`WalConfig`; driven by the write pipeline's per-op phases
    (:mod:`repro.db.write`), which batch commits and scalar writes
    share.  All cost lands on the shared database cost model.
    """

    def __init__(self, config: WalConfig, cost: CostModel) -> None:
        config.validate()
        self.config = config
        self.cost = cost
        # Read once: the config is frozen.
        self._n_streams = config.shards
        self._group_size = config.group_size
        self._faults = config.faults
        self.streams: List[WalShard] = [
            WalShard(stream=i) for i in range(config.shards)
        ]
        #: All records, global lsn order (lsn == list position).
        self.records: List[WalRecord] = []
        self.next_lsn = 0
        #: First lsn not yet covered by a completed fsync group.
        self._grouped_upto = 0
        self.crashed = False
        #: Checkpoint state (see :meth:`install_snapshot`).
        self.snapshot_tables: Optional[Dict[str, TableSnapshot]] = None
        self.snapshot_lsn = -1
        #: Fsync barriers charged over the log's life, one per stream
        #: a barrier covers (also the ``fsync`` kill-point ordinal).
        self.fsyncs = 0
        # Lifetime ordinals for the other FaultPlan kill points.
        self._appends = 0
        self._applies = 0

    # ------------------------------------------------------------------
    # Append / commit
    # ------------------------------------------------------------------
    def append(
        self, op: str, table: str, payload: Any, payload_bytes: int
    ) -> WalRecord:
        """Append one record (visible, not yet durable); charges one
        ``log_append``.  May raise :class:`CrashError` at a scripted
        append kill point — *after* the record landed in the buffer."""
        if self.crashed:
            self._check_alive()
        lsn = self.next_lsn
        record = WalRecord(
            lsn, op, table, payload, payload_bytes + RECORD_HEADER_BYTES
        )
        self.next_lsn = lsn + 1
        self.records.append(record)
        self.streams[lsn % self._n_streams].records.append(record)
        self.cost.charge("log_append", 1)
        ordinal = self._appends
        self._appends = ordinal + 1
        if self._faults is not None:
            self._kill("append", ordinal)
        return record

    def group_commit(self) -> None:
        """Schedule fsync barriers over every *full* pending group.

        Consecutive-lsn groups of ``group_size`` records each charge
        one ``log_fsync`` per distinct stream touched and advance those
        streams' durable watermarks; a trailing partial group stays
        volatile (that is the group-commit deal — see :meth:`flush`).
        """
        if self.crashed:
            self._check_alive()
        size = self._group_size
        while self.next_lsn - self._grouped_upto >= size:
            self._fsync_range(self._grouped_upto, self._grouped_upto + size)

    def flush(self) -> None:
        """Force the pending partial group durable (checkpoint barrier)."""
        self._check_alive()
        self.group_commit()
        if self._grouped_upto < self.next_lsn:
            self._fsync_range(self._grouped_upto, self.next_lsn)

    def _fsync_range(self, lo: int, hi: int) -> None:
        """One barrier pass over lsns ``[lo, hi)``: per distinct stream,
        charge one ``log_fsync`` and advance its watermark."""
        n = len(self.streams)
        high_lsn: Dict[int, int] = {}
        for lsn in range(lo, hi):
            high_lsn[lsn % n] = lsn
        self._grouped_upto = hi
        for stream_id in sorted(high_lsn):
            self.cost.log_fsyncs(1)
            self.streams[stream_id].durable_lsn = high_lsn[stream_id]
            ordinal = self.fsyncs
            self.fsyncs += 1
            if self._faults is not None:
                self._kill("fsync", ordinal)

    def notify_applied(self) -> None:
        """Count one applied operation (a kill point between applies)."""
        if self.crashed:
            self._check_alive()
        ordinal = self._applies
        self._applies = ordinal + 1
        if self._faults is not None:
            self._kill("apply", ordinal)

    # ------------------------------------------------------------------
    # Durability queries
    # ------------------------------------------------------------------
    def is_durable(self, record: WalRecord) -> bool:
        """Whether ``record`` survives a crash right now."""
        stream = self.streams[record.lsn % len(self.streams)]
        return record.lsn <= stream.durable_lsn

    def durable_prefix(self) -> List[WalRecord]:
        """Records up to (excluding) the first non-durable lsn.

        The prefix rule: a durable record above a torn one is unusable
        — replaying it out of order would corrupt tuple-id assignment —
        so recovery stops at the first gap.
        """
        prefix: List[WalRecord] = []
        for record in self.records:
            if not self.is_durable(record):
                break
            prefix.append(record)
        return prefix

    @property
    def pending_records(self) -> int:
        """Appended records outside the durable prefix — what a crash
        now would discard.  On a live log that is every record no
        completed barrier covers; a kill between the streams of one
        barrier also leaves the records of the streams it never
        reached here."""
        return self.next_lsn - len(self.durable_prefix())

    def check_invariants(self) -> None:
        """Raise :class:`ValueError` naming the first broken rule.

        Every record's lsn is its list position and ``next_lsn`` counts
        them; stream ``s`` holds exactly the records with ``lsn %
        shards == s``, in lsn order; the barrier watermark lies in
        ``[0, next_lsn]``; durable plus pending records cover the log;
        and on a live log each stream's ``durable_lsn`` is its highest
        lsn below the watermark (-1 if none).  A kill between the
        streams of one barrier breaks only the last rule, so crashed
        logs skip it.
        """
        records = self.records
        for position, record in enumerate(records):
            if record.lsn != position:
                raise ValueError(
                    f"wal: records[{position}] has lsn {record.lsn}"
                )
        if self.next_lsn != len(records):
            raise ValueError(
                f"wal: next_lsn {self.next_lsn} != {len(records)} records"
            )
        n = len(self.streams)
        for stream_id, stream in enumerate(self.streams):
            lsns = [record.lsn for record in stream.records]
            if lsns != list(range(stream_id, len(records), n)):
                raise ValueError(
                    f"wal: stream {stream_id} does not hold exactly the "
                    f"lsns congruent to {stream_id} mod {n}, in order"
                )
        grouped = self._grouped_upto
        if not 0 <= grouped <= self.next_lsn:
            raise ValueError(
                f"wal: barrier watermark {grouped} outside "
                f"[0, {self.next_lsn}]"
            )
        durable = len(self.durable_prefix())
        if durable + self.pending_records != len(records):
            raise ValueError(
                f"wal: {durable} durable + {self.pending_records} pending "
                f"records != {len(records)} records"
            )
        if self.crashed:
            return
        for stream_id, stream in enumerate(self.streams):
            expected = (
                stream_id + (grouped - 1 - stream_id) // n * n
                if grouped > stream_id else -1
            )
            if stream.durable_lsn != expected:
                raise ValueError(
                    f"wal: stream {stream_id} durable_lsn "
                    f"{stream.durable_lsn}, expected {expected} (its "
                    f"highest lsn below the barrier watermark {grouped})"
                )

    # ------------------------------------------------------------------
    # Checkpoint / recovery support
    # ------------------------------------------------------------------
    def install_snapshot(
        self, tables: Dict[str, TableSnapshot], snapshot_lsn: int
    ) -> None:
        """Store a checkpoint image on stable media (the log keeps it)."""
        self.snapshot_tables = tables
        self.snapshot_lsn = snapshot_lsn

    def adopt(self, records: List[WalRecord]) -> None:
        """Seed a fresh log with an already-durable record prefix.

        Used by recovery: the replayed records were fsynced in a prior
        life, so they carry over durable and uncharged, and new appends
        continue the lsn sequence after them.
        """
        if self.records:
            raise WalError("can only adopt records into an empty log")
        self.records = list(records)
        self.next_lsn = len(records)
        self._grouped_upto = self.next_lsn
        for record in self.records:
            stream = self.streams[record.lsn % len(self.streams)]
            stream.records.append(record)
            stream.durable_lsn = record.lsn
        # Kill ordinals intentionally restart at zero: a recovered
        # database gets a fresh (fault-free) plan by default.

    # ------------------------------------------------------------------
    def _check_alive(self) -> None:
        if self.crashed:
            raise WalError(
                "write-ahead log has crashed; recover the database with "
                "repro.wal.recover_database"
            )

    def _kill(self, point: str, ordinal: int) -> None:
        # Called only when the config carries a FaultPlan.
        if self._faults.take_kill(point, ordinal):
            self.crashed = True
            raise CrashError(
                f"scripted kill after {point} #{ordinal}"
            )

    def summary(self) -> Dict[str, Any]:
        """Structured state for :func:`repro.tools.wal_summary`."""
        return {
            "group_size": self.config.group_size,
            "shards": self.config.shards,
            "records": len(self.records),
            "pending_records": self.pending_records,
            "durable_records": len(self.durable_prefix()),
            "snapshot_lsn": self.snapshot_lsn,
            "crashed": self.crashed,
            "streams": [
                {
                    "stream": s.stream,
                    "records": len(s.records),
                    "durable_lsn": s.durable_lsn,
                }
                for s in self.streams
            ],
        }
