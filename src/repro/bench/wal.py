"""Group-committed WAL vs per-operation fsync, plus crash recovery.

The durable write pipeline's claim (DESIGN.md section 13): pricing
durability through ``log_append`` / ``log_fsync`` makes group commit an
*elastic knob* — one fsync barrier amortized over ``group_size``
writes — while the WAL-off path must cost exactly nothing.  Four arms,
all running the same batched insert/delete workload:

* **off** — ``Database()`` with no :class:`~repro.wal.WalConfig`; the
  transactional surface (``begin_batch``) with zero durability charge.
  This arm is the byte-identity anchor: its cost units must reproduce
  the committed baseline exactly (and, transitively, all pre-WAL
  baselines, which the regression script checks separately).
* **per-op fsync** — ``WalConfig(group_size=1)``: every record pays
  the full ``log_fsync`` barrier, the no-group-commit strawman.
* **group commit** — ``WalConfig(group_size=64)``: full groups share
  one barrier per stream.  The reproduction gate is a durability
  overhead at least 30% below the per-op arm (it is in practice far
  lower — one barrier per 64 records).
* **kill + recover** — the group arm re-run with a scripted
  :meth:`~repro.engine.FaultPlan.kill` point mid-workload: the commit
  loop dies between applied operations, the volatile tail is lost, and
  :func:`~repro.wal.recover_database` rebuilds a fresh database from
  the snapshot-free durable prefix.  The differential gate: the
  recovered database's :func:`~repro.wal.state_digest` must equal a
  reference database built by replaying exactly the committed unit-op
  prefix through the public write surface — and the whole
  crash/recover cycle must replay deterministically across two runs.

All three live arms must return byte-identical table/index digests;
with an ``observer`` the run reports the crash arm's event mix (the
``recovery_replay`` event).  Appends and fsync barriers are read from
the logs themselves: ``group_records``, ``crash_records`` and
``crash_fsyncs`` in the result's ``meta``.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.bench.harness import ExperimentResult, watch
from repro.db.database import Database
from repro.engine import FaultPlan
from repro.table.table import RowSchema
from repro.wal import (
    CrashError,
    WalConfig,
    recover_database,
    state_digest,
)

#: Group size of the group-commit arm (the amortization unit the
#: acceptance floor is measured at).
GROUP_SIZE = 64


def _make_workload(
    n_rows: int, batch_rows: int, seed: int
) -> List[List[Tuple]]:
    """Deterministic batches of unit ops.

    Each batch is a list of ``("insert", row)`` / ``("delete", pos)``
    unit ops, where ``pos`` indexes into the stream of inserts staged so
    far — tuple ids are deterministic, so every arm resolves ``pos`` to
    the same tid.  Deletes only target already-committed inserts (the
    crashed arm must be able to resolve them from a prior batch).
    """
    rng = random.Random(seed)
    batches: List[List[Tuple]] = []
    inserted = 0
    committed = 0
    deleted: set = set()
    while inserted < n_rows:
        batch: List[Tuple] = []
        for _ in range(min(batch_rows, n_rows - inserted)):
            batch.append(("insert", (inserted, rng.getrandbits(16))))
            inserted += 1
        # A couple of deletes against earlier, committed inserts.
        for _ in range(2):
            if committed == 0:
                break
            pos = rng.randrange(committed)
            if pos in deleted:
                continue
            deleted.add(pos)
            batch.append(("delete", pos))
        committed = inserted
        batches.append(batch)
    return batches


def _new_db(
    wal: Optional[WalConfig], observer: Optional[obs.Observer]
) -> Tuple[Database, object]:
    db = Database(wal=wal)
    watch(observer, db.cost)
    table = db.create_table(RowSchema("wal_bench", ("k", "v"), (8, 8)))
    table.create_index("by_k", ("k",))
    return db, table


def _apply_batch(db: Database, table, batch, tids: List[int]) -> None:
    """Stage one workload batch and commit it transactionally."""
    with db.begin_batch() as wb:
        rows = [op[1] for op in batch if op[0] == "insert"]
        if rows:
            wb.insert_batch(table, rows)
        for op in batch:
            if op[0] == "delete":
                wb.delete(table, tids[op[1]])
    tids.extend(wb.tids)


def _run_arm(
    batches: List[List[Tuple]],
    wal: Optional[WalConfig],
    observer: Optional[obs.Observer],
) -> Dict[str, object]:
    """Run the whole workload on one fresh database; flush at the end
    so every arm finishes fully durable (comparable barrier counts)."""
    db, table = _new_db(wal, observer)
    tids: List[int] = []
    with db.cost.measure() as delta:
        for batch in batches:
            _apply_batch(db, table, batch, tids)
        if db.wal is not None:
            db.wal.flush()
    return {
        "db": db,
        "cost_units": delta.weighted_cost(),
        "digest": state_digest(db),
    }


def _run_crash_arm(
    batches: List[List[Tuple]],
    group_size: int,
    kill_after_applies: int,
    observer: Optional[obs.Observer],
) -> Dict[str, object]:
    """The group arm with a scripted mid-workload kill, then recovery.

    Returns the recovered database's digest and report, plus the
    durable-prefix length — the committed unit-op count the reference
    replay must reproduce.
    """
    plan = FaultPlan().kill(apply=kill_after_applies)
    db, table = _new_db(
        WalConfig(group_size=group_size, faults=plan), observer
    )
    tids: List[int] = []
    crashed = False
    with db.cost.measure() as delta:
        try:
            for batch in batches:
                _apply_batch(db, table, batch, tids)
        except CrashError:
            crashed = True
    durable = len(db.wal.durable_prefix())
    new_db, report = recover_database(db)
    return {
        "crashed": crashed,
        "cost_until_crash": delta.weighted_cost(),
        "durable_records": durable,
        "total_records": len(db.wal.records),
        "fsyncs": db.wal.fsyncs,
        "report": report,
        "digest": state_digest(new_db),
        "recovered_db": new_db,
    }


def _reference_digest(
    batches: List[List[Tuple]],
    prefix_records: int,
    observer: Optional[obs.Observer],
) -> bytes:
    """Digest after replaying exactly ``prefix_records`` unit ops on a
    fresh WAL-less database through the public scalar write surface —
    an independent reference for the recovered state (one WAL record
    per unit op, in stage order)."""
    db, table = _new_db(None, observer)
    tids: List[int] = []
    applied = 0
    for batch in batches:
        for op in batch:
            if applied >= prefix_records:
                return state_digest(db)
            if op[0] == "insert":
                tids.append(table.insert(op[1]))
            else:
                table.delete(tids[op[1]])
            applied += 1
    return state_digest(db)


def run(
    n_rows: int = 4_000,
    batch_rows: int = 24,
    group_size: int = GROUP_SIZE,
    kill_after_applies: int = 90,
    seed: int = 43,
    observer: Optional[obs.Observer] = None,
) -> ExperimentResult:
    """Durability pricing and crash recovery over one insert/delete mix.

    ``kill_after_applies`` scripts the crash arm's kill point in
    applied *staged* operations (a whole ``insert_batch`` is one
    apply) — land it away from a group boundary, so a volatile tail
    genuinely exists to discard.
    ``observer`` watches every database the run builds, recovered ones
    included; the first crash run's slice of its log is reported as
    the crash arm's event mix.
    """
    batches = _make_workload(n_rows, batch_rows, seed)
    total_ops = sum(len(b) for b in batches)

    off = _run_arm(batches, None, observer)
    perop = _run_arm(batches, WalConfig(group_size=1), observer)
    group = _run_arm(batches, WalConfig(group_size=group_size), observer)

    results_identical = (
        off["digest"] == perop["digest"] == group["digest"]
    )
    perop_overhead = perop["cost_units"] - off["cost_units"]
    group_overhead = group["cost_units"] - off["cost_units"]
    overhead_saving = (
        1.0 - group_overhead / perop_overhead if perop_overhead else 0.0
    )

    # Crash arm twice: the differential (recovered state == committed
    # unit-op prefix replayed independently) and determinism (identical
    # digests and reports across runs).
    crash_events: Dict[str, int] = {}
    crash_runs = []
    for attempt in range(2):
        start = observer.seq if observer is not None else 0
        arm = _run_crash_arm(
            batches, group_size, kill_after_applies, observer
        )
        if observer is not None and attempt == 0:
            crash_events = dict(Counter(
                event.kind for event in observer.since(start)
            ))
        crash_runs.append(arm)
    crash = crash_runs[0]
    reference = _reference_digest(
        batches, crash["durable_records"], observer
    )
    recovery_match = crash["digest"] == reference
    recovery_deterministic = (
        crash_runs[0]["digest"] == crash_runs[1]["digest"]
        and crash_runs[0]["report"] == crash_runs[1]["report"]
    )
    report = crash["report"]

    result = ExperimentResult(
        "wal",
        f"group-committed WAL vs per-op fsync and kill/recover "
        f"differential: {n_rows} rows in batches of {batch_rows} "
        f"(+{total_ops - n_rows} deletes), group size {group_size}, "
        f"kill after {kill_after_applies} applied ops",
        x_label="arm (0=off, 1=per-op fsync, 2=group commit)",
    )
    result.xs = [0, 1, 2]
    result.add_series(
        "write cost units",
        [off["cost_units"], perop["cost_units"], group["cost_units"]],
    )
    result.add_series(
        "durability overhead units",
        [0.0, perop_overhead, group_overhead],
    )
    result.add_row(
        "group commit vs per-op fsync",
        f"{perop_overhead:.0f} -> {group_overhead:.0f} overhead units "
        f"({overhead_saving * 100:+.1f}% saving at group size "
        f"{group_size})",
    )
    result.add_row(
        "wal-off arm",
        "digests identical across all arms"
        if results_identical else "ARMS DISAGREE — WAL CHANGED ANSWERS",
    )
    result.add_row(
        "kill + recover",
        f"crashed={crash['crashed']}, {report.records_replayed} records "
        f"replayed, {report.records_discarded} volatile records "
        f"discarded, differential "
        f"{'MATCHES' if recovery_match else 'DIVERGED'} the committed "
        f"prefix, deterministic={recovery_deterministic}",
    )
    result.add_row(
        "recovery cost",
        f"{report.cost_units:.0f} units attributed to 'recovery'",
    )
    if observer is not None:
        result.add_row(
            "crash-arm events",
            ", ".join(f"{k}={v}" for k, v in sorted(crash_events.items()))
            or "(none)",
        )
    meta: Dict[str, object] = {
        "off_cost_units": off["cost_units"],
        "perop_cost_units": perop["cost_units"],
        "group_cost_units": group["cost_units"],
        "perop_overhead_units": perop_overhead,
        "group_overhead_units": group_overhead,
        "overhead_saving": overhead_saving,
        "results_identical": results_identical,
        "recovery_match": recovery_match,
        "recovery_deterministic": recovery_deterministic,
        "recovery_cost_units": report.cost_units,
        "records_replayed": report.records_replayed,
        "records_discarded": report.records_discarded,
        "crash_events": crash_events,
        "group_records": len(group["db"].wal.records),
        "crash_records": crash["total_records"],
        "crash_fsyncs": crash["fsyncs"],
        "total_ops": total_ops,
    }
    result.meta = meta  # type: ignore[attr-defined]
    return result
