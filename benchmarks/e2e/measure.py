"""Measurement of one workload: a *part* per interpreter, merged.

``run.py`` measures an untraced workload in three fresh interpreters in
turn, each running :func:`run_part` for a third of the time, and merges
their results with :func:`report`.  A process's hash seed and heap
layout move its p99 by several percent; medians over rounds from three
processes average that out, and ``setup_s`` and ``recover_s`` become
medians of three.  A traced run is one part.

A part builds the workload's database, plays its discarded warm-up
rounds, then plays measured rounds until its time is spent and at least
the workload's ``model_rounds``.  The load is closed-loop: one client
issues each op as soon as the previous one returned.  Each round's
answers are checked against the workload's oracle after the round,
outside the timed region.

Each wall-clock metric is the median over all measured rounds of that
round's value.  Modeled metrics cover the first ``model_rounds`` rounds
of a part, so they repeat exactly for one seed however fast the machine
is.

Times are normalized to a reference machine speed.  Neighbours on a
shared host slow everything running here by up to 1.8x, in phases of a
fraction of a second to several seconds.  So a fixed pure-Python loop is
timed about every 10 ms of a round (and around every build and
recovery); its time against :data:`REFERENCE_LOOP_S` says how much
slower the machine ran just then, and the latencies and time measured
in between are divided by that slowdown.  The loop slows with the
benchmark, so the normalized numbers move when the program does and
hardly when the neighbours do.  ``run.py`` pins each part to one CPU so
the loop measures the CPU the program runs on.  The raw numbers are kept
in the result file.

A traced part alternates traced and untraced rounds, starting traced:
per-layer numbers come from the traced rounds and the untraced ones give
the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from typing import Dict, List, Optional

import layertrace
import workloads
from repro.wal.recovery import recover_database, state_digest

#: Seconds per iteration of the calibration loop on the reference
#: machine (an unloaded 2.1 GHz Xeon core, CPython 3.11).
REFERENCE_LOOP_S = 1.5e-7
#: Calibration iterations between chunks of a round (under 1 ms), and
#: the op time after which a chunk closes.
CHUNK_LOOPS = 5_000
CHUNK_NS = 10_000_000
#: Calibration iterations around a build or a recovery.
LONG_LOOPS = 60_000
#: A p99 is reported only when every measured round has this many
#: samples of its class (the quick smoke sizes use the smaller floor).
P99_MIN_SAMPLES = 1_000
P99_MIN_SAMPLES_QUICK = 100

#: End-to-end metrics, reported by untraced runs: name -> unit.
END_TO_END = {
    "ops_per_s": "ops/s",
    "get_p50_us": "us",
    "get_p99_us": "us",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "units_per_op": "units/op",
    "index_bytes_per_key": "B/key",
    "setup_s": "s",
}

#: Per-layer metrics, reported by traced runs: name -> unit.
PER_LAYER = {
    f"{layer}.{metric}": unit
    for layer in layertrace.LAYER_NAMES
    for metric, unit in (
        ("calls_per_op", "calls/op"),
        ("self_us_per_op", "us/op"),
        ("self_units_per_op", "units/op"),
    )
}
PER_LAYER.update({
    "memory.charge_calls_per_op": "calls/op",
    "memory.unattributed_units_per_op": "units/op",
    "core.index.compact_leaf_fraction": "fraction",
    "core.index.rand_lines_per_op": "lines/op",
    "table.key_loads_per_op": "loads/op",
    "core.elasticity.conversions_per_kop": "1/kop",
    "core.elasticity.reversions_per_kop": "1/kop",
    "core.elasticity.conversion_units_per_op": "units/op",
    "cache.hit_rate": "fraction",
    "cache.budget_bytes": "B",
    "wal.fsyncs_per_kwrite": "1/kwrite",
    "wal.records_per_write": "records/write",
    "tuning.candidates_scored": "count",
    "tuning.actions_applied": "count",
    "tuning.fee_units_per_op": "units/op",
    "engine.arbiter.rebalances": "count",
    "engine.executor.saved_units_per_op": "units/op",
    "exec.mlp_saved_units_per_op": "units/op",
    "trace.overhead_frac": "fraction",
})

LATENCY_CLASSES = ("get", "scan", "write")


def slowdown(loops: int) -> float:
    """How many times slower than on the reference machine the
    calibration loop runs right now."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    total = 0
    for i in range(loops):
        key = (i * 2654435761) & 0xFFFFFFFF
        table[key] = i
        total += table.get(key ^ 1, 0)
    return (time.perf_counter() - start) / (loops * REFERENCE_LOOP_S)


def timed(fn):
    """``fn()``'s result, its seconds, and the slowdown while it ran."""
    before = slowdown(LONG_LOOPS)
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start
    return result, seconds, (before + slowdown(LONG_LOOPS)) / 2


def percentile(sorted_values: List[int], q: float) -> int:
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


class Failure:
    """The outcome of an op that raised; never equal to an answer."""

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc

    def __repr__(self) -> str:
        return f"Failure({self.exc!r})"


# ----------------------------------------------------------------------
# The closed-loop client
# ----------------------------------------------------------------------
def play(table, ops, expected, tids) -> dict:
    """Issue ``ops`` one after another, timing each call, then check
    every answer.  ``tids`` maps insert sequence numbers to tuple ids and
    is updated in place.

    The round runs in chunks of about ``CHUNK_NS`` of op time with the
    calibration loop between them; a chunk's latencies and time are
    divided by the mean slowdown measured at its two ends.
    """
    GET, GET_BATCH, SCAN = workloads.GET, workloads.GET_BATCH, workloads.SCAN
    SCAN_BATCH, INSERT = workloads.SCAN_BATCH, workloads.INSERT
    get, get_batch = table.get, table.get_batch
    scan, scan_batch = table.scan, table.scan_batch
    insert, delete = table.insert, table.delete
    cost = table.db.cost
    clock = time.perf_counter_ns
    chunk = {cls: [] for cls in LATENCY_CLASSES}
    get_lat, scan_lat, write_lat = chunk["get"], chunk["scan"], chunk["write"]
    raw = {cls: [] for cls in LATENCY_CLASSES}
    norm = {cls: [] for cls in LATENCY_CLASSES}
    busy_ns = 0
    norm_busy_ns = 0.0
    outs: list = [None] * len(ops)
    units_before = cost.weighted_cost()
    edge = slowdown(CHUNK_LOOPS)
    chunk_start = clock()
    last = len(ops) - 1
    for i, op in enumerate(ops):
        code = op[0]
        try:
            if code == GET:
                t0 = clock()
                out = get(op[1], op[2])
                get_lat.append(clock() - t0)
            elif code == SCAN:
                t0 = clock()
                out = scan(op[1], op[2], count=op[3])
                scan_lat.append(clock() - t0)
            elif code == INSERT:
                t0 = clock()
                tid = insert(op[2])
                write_lat.append(clock() - t0)
                tids[op[1]] = tid
                out = None
            elif code == GET_BATCH:
                t0 = clock()
                out = get_batch(op[1], op[2])
                get_lat.append(clock() - t0)
            elif code == SCAN_BATCH:
                t0 = clock()
                out = scan_batch(op[1], op[2], count=op[3])
                scan_lat.append(clock() - t0)
            else:
                tid = tids.pop(op[1])
                t0 = clock()
                out = delete(tid)
                write_lat.append(clock() - t0)
        except Exception as exc:  # counted as a failed op; the run goes on
            out = Failure(exc)
        outs[i] = out
        now = clock()
        if now - chunk_start >= CHUNK_NS or i == last:
            busy_ns += now - chunk_start
            after = slowdown(CHUNK_LOOPS)
            factor = (edge + after) / 2
            edge = after
            norm_busy_ns += (now - chunk_start) / factor
            for cls, values in chunk.items():
                raw[cls].extend(values)
                norm[cls].extend(v / factor for v in values)
                values.clear()
            chunk_start = clock()
    units = cost.weighted_cost() - units_before

    bad = [i for i, out in enumerate(outs) if out != expected[i]]
    n_ops = sum(
        len(op[2]) if op[0] in (GET_BATCH, SCAN_BATCH) else 1 for op in ops
    )
    rec = {
        "ops": n_ops,
        "calls": len(ops),
        "writes": len(raw["write"]),
        "units": units,
        "failed": len(bad),
        "first_failure": (
            f"op {ops[bad[0]][:2]!r} returned {outs[bad[0]]!r}" if bad else None
        ),
        "slowdown": busy_ns / norm_busy_ns,
        "ops_per_s": n_ops / (norm_busy_ns / 1e9),
    }
    rec["raw"] = _latency_summary(raw)
    rec["raw"]["ops_per_s"] = n_ops / (busy_ns / 1e9)
    rec.update(_latency_summary(norm))
    return rec


def _latency_summary(lat: Dict[str, List[float]]) -> dict:
    """Sample counts, p50 and p99 (in us) per latency class and overall."""
    out = {}
    every: List[float] = []
    for cls, values in lat.items():
        values = sorted(values)
        every.extend(values)
        out[f"{cls}_samples"] = len(values)
        if values:
            out[f"{cls}_p50_us"] = percentile(values, 50) / 1e3
            out[f"{cls}_p99_us"] = percentile(values, 99) / 1e3
    every.sort()
    out["op_samples"] = len(every)
    if every:
        out["op_p50_us"] = percentile(every, 50) / 1e3
        out["op_p99_us"] = percentile(every, 99) / 1e3
    return out


# ----------------------------------------------------------------------
# Layer counters read from public stats objects
# ----------------------------------------------------------------------
def read_counters(db) -> dict:
    """Cumulative counters of ``db``'s layers.  Per-object values are
    keyed by object so :func:`counter_delta` lets objects a run replaces
    (self-tuning rebuilds) count from zero and dropped ones stop."""
    controllers = {}
    for c in workloads.controllers(db):
        s = c.stats
        controllers[id(c)] = (c, (
            s.conversions_to_compact + s.conversions_to_learned
            + s.conversions_other,
            s.reversions_to_standard,
            s.conversion_cost_units,
        ))
    advisor = db.advisor.stats if db.advisor is not None else None
    return {
        "controllers": controllers,
        "caches": {
            id(c): (c, (c.stats.hits, c.stats.lookups))
            for c in workloads.caches(db)
        },
        "executors": {
            id(e): (e, (e.stats.saved_units,))
            for e in workloads.shard_executors(db) if hasattr(e, "stats")
        },
        "rebalances": db.arbiter.stats.rebalances if db.arbiter else 0,
        "candidates": advisor.candidates_scored if advisor else 0,
        "actions": advisor.actions_applied if advisor else 0,
        "fee_units": advisor.probe_fee_units if advisor else 0.0,
        "mlp_saved": db.cost.mlp_totals.saved_units,
        "wal_records": len(db.wal.records) if db.wal is not None else 0,
        "fsyncs": db.cost.counts.get("log_fsync", 0),
    }


def _per_object_delta(before: dict, after: dict, width: int) -> List[float]:
    total = [0.0] * width
    for key, (_, values) in after.items():
        base = before.get(key, (None, (0,) * width))[1]
        total = [t + a - b for t, a, b in zip(total, values, base)]
    return total


def counter_delta(before: dict, after: dict) -> Dict[str, float]:
    out = {
        key: after[key] - before[key]
        for key in ("rebalances", "candidates", "actions", "fee_units",
                    "mlp_saved", "wal_records", "fsyncs")
    }
    (out["conversions"], out["reversions"], out["conversion_units"]) = (
        _per_object_delta(before["controllers"], after["controllers"], 3)
    )
    out["cache_hits"], out["cache_lookups"] = _per_object_delta(
        before["caches"], after["caches"], 2
    )
    out["executor_saved"], = _per_object_delta(
        before["executors"], after["executors"], 1
    )
    return out


def _add(total: Dict[str, float], part: Dict[str, float]) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


# ----------------------------------------------------------------------
# One part
# ----------------------------------------------------------------------
class Session:
    """Set-up, rounds, recovery and per-layer numbers of one part."""

    def __init__(self, name: str, seed: int, trace: bool,
                 quick: bool) -> None:
        self.wl = workloads.WORKLOADS[name](seed, quick)
        (self.db, self.table, self.tids), seconds, factor = timed(
            self.wl.setup
        )
        self.raw_setup_s = seconds
        self.setup_s = seconds / factor
        self.rounds: List[dict] = []
        #: Index bytes per live row after each modeled round.
        self.index_bytes: List[float] = []
        self.recover_s: List[float] = []
        self.raw_recover_s: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.tracer: Optional[layertrace.Tracer] = None
        if trace:
            db = self.db
            self.tracer = layertrace.Tracer(
                db.cost, controllers=lambda: workloads.controllers(db)
            )
        #: Sums over the traced rounds.
        self.window: Dict[str, float] = {}
        self.layer_units = {name: 0.0 for name in layertrace.LAYER_NAMES}
        self.layer_self_ns = {name: 0.0 for name in layertrace.LAYER_NAMES}

    def play_round(self, traced: bool = False) -> dict:
        db, tracer = self.db, self.tracer
        self.wl.before_round(db)
        ops, expected = self.wl.next_round()
        gc.collect()
        before = read_counters(db)
        if traced:
            counts = dict(db.cost.counts)
            tags = layertrace.tagged_counts(db.cost)
            self_ns = {name: t[1] for name, t in tracer.totals.items()}
            tracer.install()
            try:
                rec = play(self.table, ops, expected, self.tids)
            finally:
                tracer.uninstall()
            for name, total in tracer.totals.items():
                self.layer_self_ns[name] += (
                    (total[1] - self_ns[name]) / rec["slowdown"]
                )
            units, unattributed, per_layer = layertrace.ledger(
                db.cost, counts, dict(db.cost.counts),
                tags, layertrace.tagged_counts(db.cost),
            )
            for name, value in units.items():
                self.layer_units[name] += value
            _add(self.window, {
                "unattributed": unattributed,
                "rand_lines": per_layer["core.index"].get("rand_line", 0),
                "key_loads": sum(
                    per_layer["table"].get(category, 0)
                    for category in ("key_load", "key_load_batched")
                ),
                "ops": rec["ops"],
                "writes": rec["writes"],
                "units": rec["units"],
            })
        else:
            rec = play(self.table, ops, expected, self.tids)
        delta = counter_delta(before, read_counters(db))
        if traced:
            _add(self.window, delta)
        rec["traced"] = traced
        rec["conversions"] = delta["conversions"]
        rec["reversions"] = delta["reversions"]
        if delta["cache_lookups"]:
            rec["cache_hit_rate"] = delta["cache_hits"] / delta["cache_lookups"]
        self.attempted += rec["calls"]
        self.failed += rec["failed"]
        if rec["first_failure"]:
            self.failures.append(rec["first_failure"])
        return rec

    def measure(self, seconds: float) -> None:
        """Warm up, then play rounds for ``seconds`` and at least the
        workload's ``model_rounds``."""
        for _ in range(self.wl.warmup_rounds):
            self.play_round()
        gc.freeze()
        started = time.perf_counter()
        while (len(self.rounds) < self.wl.model_rounds
               or time.perf_counter() - started < seconds):
            traced = self.tracer is not None and len(self.rounds) % 2 == 0
            self.rounds.append(self.play_round(traced))
            if len(self.rounds) <= self.wl.model_rounds:
                self.index_bytes.append(sum(
                    secondary.index_bytes
                    for dbtable in self.db.tables.values()
                    for secondary in dbtable.indexes.values()
                ) / self.wl.live_rows())

    def recover(self) -> None:
        """Rebuild the database from its log; the rebuild must match the
        live database's state."""
        db = self.db
        db.wal.flush()
        gc.collect()
        (recovered, _), seconds, factor = timed(lambda: recover_database(db))
        self.raw_recover_s.append(seconds)
        self.recover_s.append(seconds / factor)
        self.attempted += 1
        if state_digest(recovered) != state_digest(db):
            self.failed += 1
            self.failures.append("recovered state digest differs")

    def per_layer(self) -> Dict[str, float]:
        tracer, w = self.tracer, self.window
        ops, writes = w["ops"], w["writes"]

        def per_write(value: float) -> float:
            return value / writes if writes else 0.0

        out: Dict[str, float] = {}
        for name in layertrace.LAYER_NAMES:
            out[f"{name}.calls_per_op"] = tracer.totals[name][0] / ops
            out[f"{name}.self_us_per_op"] = self.layer_self_ns[name] / 1e3 / ops
            out[f"{name}.self_units_per_op"] = self.layer_units[name] / ops
        leaves = compact = 0
        for controller in workloads.controllers(self.db):
            stats = controller.tree.stats()
            leaves += stats.leaf_count
            compact += stats.compact_leaf_count
        speed = {
            traced: statistics.median(
                r["ops_per_s"] for r in self.rounds if r["traced"] is traced
            )
            for traced in (True, False)
        }
        out.update({
            "memory.charge_calls_per_op": tracer.charge_calls / ops,
            "memory.unattributed_units_per_op": w["unattributed"] / ops,
            "core.index.compact_leaf_fraction": (
                compact / leaves if leaves else 0.0
            ),
            "core.index.rand_lines_per_op": w["rand_lines"] / ops,
            "table.key_loads_per_op": w["key_loads"] / ops,
            "core.elasticity.conversions_per_kop": 1e3 * w["conversions"] / ops,
            "core.elasticity.reversions_per_kop": 1e3 * w["reversions"] / ops,
            "core.elasticity.conversion_units_per_op": (
                w["conversion_units"] / ops
            ),
            "cache.hit_rate": (w["cache_hits"] / w["cache_lookups"]
                               if w["cache_lookups"] else 0.0),
            "cache.budget_bytes": sum(
                c.budget_bytes for c in workloads.caches(self.db)
            ),
            "wal.fsyncs_per_kwrite": 1e3 * per_write(w["fsyncs"]),
            "wal.records_per_write": per_write(w["wal_records"]),
            "tuning.candidates_scored": w["candidates"],
            "tuning.actions_applied": w["actions"],
            "tuning.fee_units_per_op": w["fee_units"] / ops,
            "engine.arbiter.rebalances": w["rebalances"],
            "engine.executor.saved_units_per_op": w["executor_saved"] / ops,
            "exec.mlp_saved_units_per_op": w["mlp_saved"] / ops,
            "trace.overhead_frac": 1.0 - speed[True] / speed[False],
        })
        return out


def run_part(name: str, seed: int, seconds: float, trace: bool,
             quick: bool, out_dir: str) -> dict:
    """Measure one part of a workload run; returns what :func:`report`
    merges.  A traced part also writes its spans to ``out_dir``."""
    session = Session(name, seed, trace, quick)
    session.measure(seconds)
    if session.wl.recovers:
        session.recover()
    workloads.close(session.db)
    part = {
        "setup_s": session.setup_s,
        "raw_setup_s": session.raw_setup_s,
        "recover_s": session.recover_s,
        "raw_recover_s": session.raw_recover_s,
        "attempted": session.attempted,
        "failed": session.failed,
        "failures": session.failures,
        "model_rounds": session.wl.model_rounds,
        "index_bytes": session.index_bytes,
        "rounds": session.rounds,
    }
    if trace:
        os.makedirs(out_dir, exist_ok=True)
        session.tracer.write_spans(os.path.join(out_dir, f"{name}.trace.jsonl"))
        part["per_layer"] = session.per_layer()
        part["traced_units_per_op"] = (
            session.window["units"] / session.window["ops"]
        )
    return part


# ----------------------------------------------------------------------
# Merging parts into the run's metrics
# ----------------------------------------------------------------------
class Merged:
    """A run's parts, pooled."""

    def __init__(self, parts: List[dict], quick: bool) -> None:
        self.parts = parts
        self.quick = quick
        self.plain = [r for p in parts for r in p["rounds"] if not r["traced"]]
        self.modeled = [
            r for p in parts for r in p["rounds"][:p["model_rounds"]]
        ]
        self.attempted = sum(p["attempted"] for p in parts)
        self.failed = sum(p["failed"] for p in parts)

    def _median(self, key: str) -> Optional[float]:
        if not all(key in r for r in self.plain):
            return None
        return statistics.median(r[key] for r in self.plain)

    def _p99(self, cls: str) -> Optional[float]:
        floor = P99_MIN_SAMPLES_QUICK if self.quick else P99_MIN_SAMPLES
        if min(r[f"{cls}_samples"] for r in self.plain) < floor:
            return None
        return self._median(f"{cls}_p99_us")

    def end_to_end(self) -> Dict[str, Optional[float]]:
        return {
            "ops_per_s": self._median("ops_per_s"),
            "get_p50_us": self._median("get_p50_us"),
            "get_p99_us": self._p99("get"),
            "op_p50_us": self._median("op_p50_us"),
            "op_p99_us": self._p99("op"),
            "units_per_op": (sum(r["units"] for r in self.modeled)
                             / sum(r["ops"] for r in self.modeled)),
            "index_bytes_per_key": statistics.mean(
                value for p in self.parts for value in p["index_bytes"]
            ),
            "setup_s": statistics.median(p["setup_s"] for p in self.parts),
        }

    def extra(self) -> Dict[str, float]:
        """Per-class latencies, sample counts, recovery and failures:
        reported alongside the metrics, not gated."""
        out: Dict[str, float] = {}
        for cls in LATENCY_CLASSES:
            out[f"{cls}_samples_min"] = min(
                r[f"{cls}_samples"] for r in self.plain
            )
            if out[f"{cls}_samples_min"]:
                out[f"{cls}_p50_us"] = self._median(f"{cls}_p50_us")
                p99 = self._p99(cls)
                if p99 is not None:
                    out[f"{cls}_p99_us"] = p99
        recover_s = [s for p in self.parts for s in p["recover_s"]]
        if recover_s:
            out["recover_s"] = statistics.median(recover_s)
        out["failed_ops_frac"] = self.failed / self.attempted
        if "traced_units_per_op" in self.parts[0]:
            out["traced_units_per_op"] = self.parts[0]["traced_units_per_op"]
        return out


def report(parts: List[dict], name: str, seed: int, seconds: float,
           trace: bool, quick: bool, out_dir: str) -> int:
    """Print a run's metrics and result line and write its result file;
    returns the exit code."""
    merged = Merged(parts, quick)
    if trace:
        values, units = parts[0]["per_layer"], PER_LAYER
    else:
        values, units = merged.end_to_end(), END_TO_END
    reported = {
        metric: {"value": values[metric], "unit": unit}
        for metric, unit in units.items() if values[metric] is not None
    }
    extra = merged.extra()
    correct = merged.failed == 0

    for part in parts:
        for line in part["failures"][:5]:
            print(f"FAILED {name}: {line}")
    print(f"== {name} seed={seed} trace={int(trace)} parts={len(parts)} "
          f"rounds={sum(len(p['rounds']) for p in parts)}")
    for metric, entry in reported.items():
        print(f"  {metric:<42} {entry['value']:>14.6g} {entry['unit']}")
    for metric, value in extra.items():
        print(f"  ({metric:<40} {value:>14.6g})")

    os.makedirs(out_dir, exist_ok=True)
    stem = f"{name}.seed{seed}" + (".trace" if trace else "")
    with open(os.path.join(out_dir, stem + ".json"), "w") as fh:
        json.dump({
            "workload": name, "seed": seed, "trace": trace, "quick": quick,
            "seconds": seconds, "correct": correct,
            "attempted": merged.attempted, "failed": merged.failed,
            "metrics": reported, "end_to_end": merged.end_to_end(),
            "extra": extra, "parts": parts,
        }, fh, indent=1)
    print(json.dumps({
        "correct": correct, "attempted": merged.attempted,
        "failed": merged.failed, "metrics": reported,
    }))
    return 0 if correct else 1
