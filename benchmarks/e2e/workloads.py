"""The four end-to-end workloads: set-up, op streams and their oracle.

Every workload draws all of its inputs from one ``random.Random`` seeded
with ``"<name>:<seed>"``: the rows loaded at set-up, then each round's op
stream together with the answer every op must return.  Answers come
from a plain oracle (a dict plus sorted lists) that replays the stream
as it is generated, so the database under test only ever sees the
generated inputs and is checked against state it never touched.

An op is a tuple whose first item is its code:

* ``(GET, index, values)`` -> the row, or ``None``
* ``(GET_BATCH, index, [values, ...])`` -> one row (or ``None``) per key
* ``(SCAN, index, values, count)`` -> the next ``count`` rows
* ``(SCAN_BATCH, index, [values, ...], count)`` -> one row list per start
* ``(INSERT, seq, row)`` -> nothing; the runner records ``seq -> tid``
* ``(DELETE, seq)`` -> the deleted row; the runner maps ``seq`` (an
  earlier insert, possibly one made at set-up) to its tuple id.

Rows loaded at set-up take sequence numbers ``0 .. rows-1``.
"""

from __future__ import annotations

import bisect
import random
from collections import deque
from typing import Dict, List, Tuple

from repro.cache import CacheConfig
from repro.cluster import ReplicaConfig, ReplicaProfile
from repro.db.database import Database
from repro.memory.cost_model import CostModel
from repro.table.table import RowSchema
from repro.wal.log import WalConfig

GET, GET_BATCH, SCAN, SCAN_BATCH, INSERT, DELETE = range(6)

#: STX bytes per key for 8- and 16-byte keys, as
#: ``repro.bench.harness.estimate_stx_bytes_per_key`` measured them when
#: this benchmark was defined.  Bounds are fixed inputs, so a change to
#: the tree's footprint moves the measured numbers, not the workload.
STX_BYTES_PER_KEY = {8: 31.0, 16: 43.4}

KV = RowSchema("kv", ("k", "v"), (8, 8))
ORDERS = RowSchema("orders", ("id", "cust", "ts"), (8, 8, 8))

#: Rows per ``insert_batch`` call while loading.
LOAD_CHUNK = 1024

#: Keys span the whole u64 range, so range partitioning spreads them.
_KEY_BITS = 64


class Zipf:
    """Gray et al.'s constant-time zipfian sampler over ranks [0, n)."""

    def __init__(self, n: int, theta: float, rng: random.Random) -> None:
        self.n = n
        self.rng = rng
        self._zeta_n = sum(1.0 / (i ** theta) for i in range(1, n + 1))
        self._zeta_2 = 1.0 + 0.5 ** theta
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = ((1.0 - (2.0 / n) ** (1.0 - theta))
                     / (1.0 - self._zeta_2 / self._zeta_n))

    def next(self) -> int:
        u = self.rng.random()
        uz = u * self._zeta_n
        if uz < 1.0:
            return 0
        if uz < self._zeta_2:
            return 1
        rank = int(self.n * (self._eta * u - self._eta + 1.0) ** self._alpha)
        return min(rank, self.n - 1)


def _load(table, rows) -> Dict[int, int]:
    """Insert ``rows`` in chunks; returns ``seq -> tid`` for each row."""
    tids: Dict[int, int] = {}
    for start in range(0, len(rows), LOAD_CHUNK):
        chunk = rows[start:start + LOAD_CHUNK]
        for offset, tid in enumerate(table.insert_batch(chunk)):
            tids[start + offset] = tid
    return tids


def _fresh_key(rng: random.Random, taken) -> int:
    while True:
        key = rng.getrandbits(_KEY_BITS)
        if key not in taken:
            return key


def _distinct_keys(rng: random.Random, n: int) -> List[int]:
    """``n`` distinct random keys, in draw order."""
    taken: set = set()
    keys = []
    while len(keys) < n:
        key = _fresh_key(rng, taken)
        taken.add(key)
        keys.append(key)
    return keys


class Workload:
    """One named workload: sizes, set-up and a seeded op-stream oracle.

    ``quick`` shrinks every size for smoke tests; the shape of the
    workload (mix, skew, which layers it reaches) stays the same.
    """

    name = ""
    why = ""
    #: Discarded rounds played before measuring.
    warmup_rounds = 1
    #: Measured rounds a run always plays; modeled metrics cover these.
    model_rounds = 3
    #: Whether the run ends by rebuilding the database from its log.
    recovers = False

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")

    def before_round(self, db: Database) -> None:
        """Untimed, uncosted work before each round's ops."""

    def setup(self) -> Tuple[Database, object, Dict[int, int]]:
        """Build and load a fresh database; returns it, the table under
        test and the ``seq -> tid`` map of the loaded rows."""
        raise NotImplementedError

    def next_round(self) -> Tuple[list, list]:
        """The next round's ops and the answer each must return."""
        raise NotImplementedError

    def live_rows(self) -> int:
        """Rows the oracle holds after the rounds generated so far."""
        raise NotImplementedError


class PointTight(Workload):
    """Scalar zipfian gets on one elastic index squeezed to half the
    STX footprint, so most leaves are compact."""

    name = "point_tight"
    why = ("scalar gets through facade, elastic tree, compact leaves and "
           "table key loads; no cache, WAL, arbiter or replicas")
    warmup_rounds = 2
    model_rounds = 6

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.n_rows = 10_000 if quick else 100_000
        self.round_ops = 3_000 if quick else 12_000
        rng = self.rng
        keys = _distinct_keys(rng, self.n_rows)
        self.rows = [(k, rng.getrandbits(32)) for k in keys]
        self.by_rank = list(self.rows)
        rng.shuffle(self.by_rank)
        self.zipf = Zipf(self.n_rows, 0.99, rng)

    def setup(self):
        db = Database()
        table = db.create_table(KV)
        table.create_index(
            "by_k", ("k",), kind="elastic",
            size_bound_bytes=int(STX_BYTES_PER_KEY[8] * self.n_rows * 0.5),
        )
        return db, table, _load(table, self.rows)

    def next_round(self):
        ops, expected = [], []
        by_rank, zipf = self.by_rank, self.zipf
        for _ in range(self.round_ops):
            row = by_rank[zipf.next()]
            ops.append((GET, "by_k", (row[0],)))
            expected.append(row)
        return ops, expected

    def live_rows(self) -> int:
        return self.n_rows


class OltpComposed(Workload):
    """The composed stack: replicated, sharded, cached, WAL-backed,
    arbitrated and self-tuned, under a mixed read/write load."""

    name = "oltp_composed"
    why = ("the only workload through cluster, shard router, cache hits, "
           "budget arbiter and self-tuning, with WAL-logged writes")

    #: Heat-histogram bucket (of the router's 64) that holds the hot ids,
    #: so the cluster router classifies their gets as ``point_hot``.
    HOT_BUCKET = 10
    #: Long enough for several arbiter and advisor intervals to pass
    #: after the load before anything is measured.
    warmup_rounds = 3
    model_rounds = 5

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.n_rows = 5_000 if quick else 50_000
        self.round_ops = 1_500 if quick else 4_000
        self.customers = max(50, self.n_rows // 25)
        n_hot = 64 if quick else 512
        rng = self.rng
        hot_lo = self.HOT_BUCKET << 10
        taken = set()
        hot = []
        while len(hot) < n_hot:
            prefix = rng.randrange(hot_lo, hot_lo + 1024)
            key = (prefix << 48) | rng.getrandbits(48)
            if key not in taken:
                taken.add(key)
                hot.append(key)
        ids = list(hot)
        while len(ids) < self.n_rows:
            key = rng.getrandbits(_KEY_BITS)
            if key not in taken:
                taken.add(key)
                ids.append(key)
        rng.shuffle(ids)
        self.rows = [
            (key, rng.randrange(self.customers), ts)
            for ts, key in enumerate(ids, start=1)
        ]
        self.hot = hot
        self.zipf = Zipf(n_hot, 0.99, rng)
        self.by_id: Dict[int, tuple] = {row[0]: row for row in self.rows}
        self.cust_keys = sorted((row[1], row[2]) for row in self.rows)
        self.by_cust = {(row[1], row[2]): row for row in self.rows}
        self.next_ts = len(self.rows) + 1
        self.next_seq = len(self.rows)
        #: Rows inserted by the op stream, oldest first: deletes take
        #: from the front, so loaded rows (and the hot set) survive.
        self.inserted: deque = deque()

    def setup(self):
        db = Database(wal=WalConfig(group_size=64, shards=4))
        table = db.create_table(ORDERS)
        id_bound = int(3 * STX_BYTES_PER_KEY[8] * self.n_rows * 0.75)
        cust_bound = int(STX_BYTES_PER_KEY[16] * self.n_rows * 0.75)
        profiles = (
            ReplicaProfile(
                name="lattice", leaf_kinds=("standard", "compact", "learned"),
            ),
            ReplicaProfile(
                name="compact",
                index_kwargs=(
                    ("shrink_trigger_fraction", 0.6),
                    ("expand_trigger_fraction", 0.45),
                ),
            ),
            # Compact leaves behind a hot-row cache: the row tier admits
            # only keys found in compact leaves, so this replica shrinks
            # from the start and every hot key can be cached.  The cache
            # is fixed-size: arbiter rounds during the load, when nothing
            # reads, would shrink an adaptive one to its floor for good.
            ReplicaProfile(
                name="cache",
                cache=CacheConfig(budget_bytes=64 * 1024, adaptive=False),
                index_kwargs=(
                    ("shrink_trigger_fraction", 0.2),
                    ("expand_trigger_fraction", 0.1),
                ),
            ),
        )
        table.create_index(
            "by_id", ("id",), kind="elastic", shards=4, partitioner="hash",
            replicas=ReplicaConfig(
                replicas=3, profiles=profiles, total_bound_bytes=id_bound,
            ),
        )
        table.create_index(
            "by_cust", ("cust", "ts"), kind="elastic",
            size_bound_bytes=cust_bound,
            cache=CacheConfig(budget_bytes=32 * 1024),
        )
        # Sizes hold steady after the load, so under the default 2%
        # threshold the arbiter would stop moving budget altogether.
        db.enable_budget_arbiter(
            id_bound + cust_bound, rebalance_fraction=0.0002
        )
        tids = _load(table, self.rows)
        db.enable_self_tuning()
        return db, table, tids

    def _scan(self, cust: int, count: int) -> List[tuple]:
        start = bisect.bisect_left(self.cust_keys, (cust, 0))
        return [self.by_cust[k] for k in self.cust_keys[start:start + count]]

    def next_round(self):
        ops, expected = [], []
        rng, hot, zipf = self.rng, self.hot, self.zipf
        for _ in range(self.round_ops):
            roll = rng.random()
            if roll < 0.50:
                key = hot[zipf.next()]
                ops.append((GET, "by_id", (key,)))
                expected.append(self.by_id[key])
            elif roll < 0.66:
                cust = rng.randrange(self.customers)
                ops.append((SCAN, "by_cust", (cust, 0), 10))
                expected.append(self._scan(cust, 10))
            elif roll < 0.83 or not self.inserted:
                row = (_fresh_key(rng, self.by_id),
                       rng.randrange(self.customers), self.next_ts)
                self.next_ts += 1
                seq = self.next_seq
                self.next_seq += 1
                self.by_id[row[0]] = row
                bisect.insort(self.cust_keys, (row[1], row[2]))
                self.by_cust[(row[1], row[2])] = row
                self.inserted.append((seq, row))
                ops.append((INSERT, seq, row))
                expected.append(None)
            else:
                seq, row = self.inserted.popleft()
                del self.by_id[row[0]]
                position = bisect.bisect_left(self.cust_keys, (row[1], row[2]))
                del self.cust_keys[position]
                del self.by_cust[(row[1], row[2])]
                ops.append((DELETE, seq))
                expected.append(row)
        return ops, expected

    def live_rows(self) -> int:
        return len(self.by_id)


class BatchRoomy(Workload):
    """Batched uniform gets and scans on a roomy, range-sharded elastic
    index with a parallel shard executor and a small cache."""

    name = "batch_roomy"
    why = ("batched gets and scans through exec, shard executor and "
           "prefetch waves; all leaves standard and the cache mostly misses")

    GET_KEYS = 32
    SCAN_STARTS = 8
    SCAN_COUNT = 32
    model_rounds = 2

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.n_rows = 10_000 if quick else 100_000
        # 1,005 batched gets per round: enough for a per-round p99.
        self.round_calls = 300 if quick else 1_340
        rng = self.rng
        keys = _distinct_keys(rng, self.n_rows)
        self.rows = [(k, rng.getrandbits(32)) for k in keys]
        self.sorted_rows = sorted(self.rows)
        self.sorted_keys = [row[0] for row in self.sorted_rows]

    def setup(self):
        # Prefetch-wave width 4: the batched read paths price their
        # independent loads as overlapping misses.
        db = Database(cost_model=CostModel(mlp_width=4))
        table = db.create_table(KV)
        table.create_index(
            "by_k", ("k",), kind="elastic",
            size_bound_bytes=int(STX_BYTES_PER_KEY[8] * self.n_rows * 1.25),
            shards=4, partitioner="range", parallel=2,
            cache=CacheConfig(budget_bytes=16 * 1024),
        )
        return db, table, _load(table, self.rows)

    def next_round(self):
        ops, expected = [], []
        rng, rows = self.rng, self.rows
        keys, sorted_rows = self.sorted_keys, self.sorted_rows
        gets = self.round_calls * 3 // 4
        kinds = [GET_BATCH] * gets + [SCAN_BATCH] * (self.round_calls - gets)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == GET_BATCH:
                picked = [rows[rng.randrange(self.n_rows)]
                          for _ in range(self.GET_KEYS)]
                ops.append((GET_BATCH, "by_k", [(row[0],) for row in picked]))
                expected.append(picked)
            else:
                starts = [rng.getrandbits(_KEY_BITS)
                          for _ in range(self.SCAN_STARTS)]
                ops.append((SCAN_BATCH, "by_k", [(s,) for s in starts],
                            self.SCAN_COUNT))
                answers = []
                for start in starts:
                    at = bisect.bisect_left(keys, start)
                    answers.append(sorted_rows[at:at + self.SCAN_COUNT])
                expected.append(answers)
        return ops, expected

    def live_rows(self) -> int:
        return self.n_rows


class ChurnCycle(Workload):
    """Grow-then-shrink cycles of scalar writes through the WAL across
    the elastic index's shrink and expand thresholds."""

    name = "churn_cycle"
    why = ("write-heavy grow/shrink cycles across the elastic thresholds: "
           "conversions, reversions, splits, merges and WAL group commit")

    #: A get follows every ``GET_EVERY``-th write.
    GET_EVERY = 4
    recovers = True

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.low = 1_000 if quick else 3_000
        self.high = 5_000 if quick else 15_000
        self.bound_keys = 3_000 if quick else 9_000
        rng = self.rng
        keys = _distinct_keys(rng, self.low)
        self.rows = [(k, rng.getrandbits(32)) for k in keys]
        #: Live rows as ``(seq, row)``, oldest first from ``head``.
        self.live: List[Tuple[int, tuple]] = list(enumerate(self.rows))
        self.head = 0
        self.keys = set(keys)
        self.next_seq = len(self.rows)

    def setup(self):
        db = Database(wal=WalConfig(group_size=64))
        table = db.create_table(KV)
        table.create_index(
            "by_k", ("k",), kind="elastic",
            size_bound_bytes=int(STX_BYTES_PER_KEY[8] * self.bound_keys),
        )
        return db, table, _load(table, self.rows)

    def before_round(self, db: Database) -> None:
        # A checkpoint per round: recovery at the end of the run then
        # restores it and replays exactly one round of log.
        db.snapshot()

    def _maybe_get(self, writes: int, ops: list, expected: list) -> None:
        if writes % self.GET_EVERY == 0:
            _, row = self.live[self.rng.randrange(self.head, len(self.live))]
            ops.append((GET, "by_k", (row[0],)))
            expected.append(row)

    def next_round(self):
        ops, expected = [], []
        rng = self.rng
        writes = 0
        for _ in range(self.high - self.low):
            key = _fresh_key(rng, self.keys)
            row = (key, rng.getrandbits(32))
            self.keys.add(key)
            self.live.append((self.next_seq, row))
            ops.append((INSERT, self.next_seq, row))
            expected.append(None)
            self.next_seq += 1
            writes += 1
            self._maybe_get(writes, ops, expected)
        for _ in range(self.high - self.low):
            seq, row = self.live[self.head]
            self.head += 1
            self.keys.discard(row[0])
            ops.append((DELETE, seq))
            expected.append(row)
            writes += 1
            self._maybe_get(writes, ops, expected)
        del self.live[:self.head]
        self.head = 0
        return ops, expected

    def live_rows(self) -> int:
        return len(self.live) - self.head


WORKLOADS = {
    cls.name: cls for cls in (PointTight, OltpComposed, BatchRoomy, ChurnCycle)
}


def _behind(db: Database, many: str, one: str) -> List:
    """What ``db``'s indexes expose as ``many()`` (sharded and replicated
    indexes) or as ``one`` (a plain index)."""
    out: List = []
    for dbtable in db.tables.values():
        for secondary in dbtable.indexes.values():
            index = secondary.index
            found = getattr(index, many, None)
            if callable(found):
                out.extend(found())
            elif getattr(index, one, None) is not None:
                out.append(getattr(index, one))
    return out


def controllers(db: Database) -> List:
    """Every elasticity controller behind ``db``'s indexes."""
    return _behind(db, "controllers", "controller")


def caches(db: Database) -> List:
    """Every adaptive cache behind ``db``'s indexes."""
    return _behind(db, "caches", "cache")


def shard_executors(db: Database) -> List:
    """Distinct scatter/gather executors behind ``db``'s indexes."""
    seen: Dict[int, object] = {}
    for dbtable in db.tables.values():
        for secondary in dbtable.indexes.values():
            index = secondary.index
            replicas = getattr(index, "replicas", [])
            for owner in [index] + [replica.index for replica in replicas]:
                executor = getattr(owner, "executor", None)
                if executor is not None:
                    seen.setdefault(id(executor), executor)
    return list(seen.values())


def close(db: Database) -> None:
    """Stop what a database started: its advisor's bus subscription and
    every parallel executor's thread pool."""
    if db.advisor is not None:
        db.advisor.close()
    for executor in shard_executors(db):
        executor.close()
