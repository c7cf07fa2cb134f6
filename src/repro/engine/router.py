"""The router layer: scatter/gather over a set of index shards.

:class:`ShardedIndex` presents the :class:`~repro.baselines.interface.
OrderedIndex` surface over N per-shard indexes, so every consumer of the
protocol — :class:`~repro.exec.BatchExecutor`, the database facade, the
workload runners — works against a sharded index unchanged:

* Point operations (``insert`` / ``lookup`` / ``remove``) route to the
  one shard the partitioner places the key on.
* Batch operations partition the batch per shard and hand each segment
  to the shard index's own batch fast path (sorted-run descent sharing
  on the B+-tree family), gathering results back into input order.
* Scans depend on the partitioner: range partitioning keeps shard order
  equal to key order, so a scan drains the start shard and spills into
  successive shards; hash partitioning scatters the scan to every shard
  and k-way merges the per-shard runs.

*How* the per-shard segments are priced is delegated to an executor
(:mod:`repro.engine.executor`), which gets one zero-argument callable
per shard: the default serial backend visits shards one at a time
(byte-identical to the unsharded index in results and cost units),
while the parallel backend overlaps shard dispatches and charges
critical-path cost.

Results are byte-identical to the same index unsharded under either
backend: every key lives on exactly one deterministic shard, batch
segments preserve input order within a shard (duplicate keys apply in
input order), and scan merges reassemble global key order.
"""

from __future__ import annotations

import heapq
from functools import partial
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.executor import SerialShardExecutor
from repro.engine.partition import Partitioner
from repro.engine.shard import IndexShard
from repro.errors import ShardConfigError
from repro.memory.cost_model import NULL_COST_MODEL, CostModel

#: Shared default backend: stateless, so one instance serves every
#: serial-routed index.
_SERIAL = SerialShardExecutor()


class ShardedIndex:
    """An OrderedIndex that hash- or range-partitions across shards."""

    def __init__(
        self,
        shards: Sequence[IndexShard],
        partitioner: Partitioner,
        executor: Optional[SerialShardExecutor] = None,
        cost: Optional[CostModel] = None,
    ) -> None:
        if len(shards) != partitioner.n_shards:
            raise ShardConfigError(
                f"partitioner expects {partitioner.n_shards} shards, "
                f"got {len(shards)}"
            )
        self.shards: List[IndexShard] = list(shards)
        self.partitioner = partitioner
        self.executor: SerialShardExecutor = (
            executor if executor is not None else _SERIAL
        )
        if cost is None:
            cost = (
                self.shards[0].allocator.cost_model
                if self.shards else NULL_COST_MODEL
            )
        self.cost = cost

    # ------------------------------------------------------------------
    # Point operations: route to one shard
    # ------------------------------------------------------------------
    def _shard(self, key: bytes) -> IndexShard:
        return self.shards[self.partitioner.shard_of(key)]

    def insert(self, key: bytes, tid: int) -> Optional[int]:
        return self._shard(key).index.insert(key, tid)

    def lookup(self, key: bytes) -> Optional[int]:
        return self._shard(key).index.lookup(key)

    def remove(self, key: bytes) -> Optional[int]:
        return self._shard(key).index.remove(key)

    # ------------------------------------------------------------------
    # Scans: spill in shard order, or scatter + merge
    # ------------------------------------------------------------------
    def scan(self, start_key: bytes, count: int) -> List[Tuple[bytes, int]]:
        if count <= 0:
            return []
        if self.partitioner.ordered:
            items: List[Tuple[bytes, int]] = []
            first = self.partitioner.shard_of(start_key)
            for shard in self.shards[first:]:
                items.extend(shard.index.scan(start_key, count - len(items)))
                if len(items) >= count:
                    break
            return items
        runs = self.executor.run_tasks(
            [partial(shard.index.scan, start_key, count)
             for shard in self.shards],
            self.cost,
        )
        return list(islice(heapq.merge(*runs), count))

    # ------------------------------------------------------------------
    # Batch operations: partition, per-shard fast path, gather
    # ------------------------------------------------------------------
    def _group_by_shard(
        self, keys: Sequence[bytes], items: Sequence
    ) -> Dict[int, Tuple[List[int], List]]:
        """Input positions and ``items`` per shard, both in input order,
        in one pass (``items[i]`` routes by ``keys[i]``); shards in
        first-seen order."""
        groups: Dict[int, Tuple[List[int], List]] = {}
        get = groups.get
        shard_ids = self.partitioner.shards_of(keys)
        for position, (shard_id, item) in enumerate(zip(shard_ids, items)):
            group = get(shard_id)
            if group is None:
                group = groups[shard_id] = ([], [])
            group[0].append(position)
            group[1].append(item)
        return groups

    def _scatter(self, method: str, keys: Sequence[bytes], items: Sequence):
        """Hand each shard index's ``method`` its share of ``items``
        through the executor; gather the answers into input order."""
        results: List = [None] * len(items)
        groups = self._group_by_shard(keys, items)
        shards = self.shards
        tasks = [
            partial(getattr(shards[shard_id].index, method), share)
            for shard_id, (_, share) in groups.items()
        ]
        gathered = self.executor.run_tasks(tasks, self.cost)
        for (positions, _), answers in zip(groups.values(), gathered):
            for position, answer in zip(positions, answers):
                results[position] = answer
        return results

    def lookup_batch(self, keys: Sequence[bytes]) -> List[Optional[int]]:
        return self._scatter("lookup_batch", keys, keys)

    def insert_sorted_batch(
        self, pairs: Sequence[Tuple[bytes, int]]
    ) -> List[Optional[int]]:
        return self._scatter(
            "insert_sorted_batch", [key for key, _ in pairs], pairs
        )

    def scan_batch(
        self, start_keys: Sequence[bytes], count: int
    ) -> List[List[Tuple[bytes, int]]]:
        results: List[List[Tuple[bytes, int]]] = [[] for _ in start_keys]
        if not start_keys or count <= 0:
            return results
        if not self.partitioner.ordered:
            # Scatter to every shard, merge per start key.
            tasks = [
                partial(shard.index.scan_batch, start_keys, count)
                for shard in self.shards
            ]
            runs = self.executor.run_tasks(tasks, self.cost)
            for position in range(len(start_keys)):
                merged = heapq.merge(*(run[position] for run in runs))
                results[position] = list(islice(merged, count))
            return results
        groups = self._group_by_shard(start_keys, start_keys)
        tasks = [
            partial(self.shards[shard_id].index.scan_batch, share, count)
            for shard_id, (_, share) in groups.items()
        ]
        gathered = self.executor.run_tasks(tasks, self.cost)
        for (shard_id, (positions, _)), batches in zip(groups.items(),
                                                       gathered):
            for position, items in zip(positions, batches):
                # Spill into successive shards until the scan fills.
                # The spill chain is a sequential dependency (each hop
                # knows how many items are still missing), so it stays
                # on the caller's critical path under every backend.
                for shard in self.shards[shard_id + 1:]:
                    if len(items) >= count:
                        break
                    items = items + shard.index.scan(
                        start_keys[position], count - len(items)
                    )
                results[position] = items
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    @property
    def index_bytes(self) -> int:
        return sum(shard.index_bytes for shard in self.shards)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def check_invariants(self) -> None:
        """Raise ``ValueError`` naming the first broken invariant — every
        key of shard ``i`` is one the partitioner places on shard ``i``,
        and each shard holds as many keys as its length, so ``len(self)``
        (the sum of those lengths) counts every key — then run each
        shard index's own structural check (the elastic one where there
        is one).  Keys are read from the leaf chain (or, for kinds
        without one, a full scan) with charging paused, so the walk
        bumps no leaf's access count and touches no cache."""
        shard_of = self.partitioner.shard_of
        with self.cost.paused():
            for i, shard in enumerate(self.shards):
                index = shard.index
                items = getattr(index, "items", None)
                keys = [key for key, _ in (
                    items() if items is not None
                    else index.scan(bytes(index.key_width), len(index))
                )]
                for key in keys:
                    if shard_of(key) != i:
                        raise ValueError(
                            "ShardedIndex invariant broken: key "
                            f"{key.hex()} on {shard.name} belongs to "
                            f"shard {shard_of(key)}"
                        )
                if len(keys) != len(shard):
                    raise ValueError(
                        f"ShardedIndex invariant broken: {shard.name} "
                        f"holds {len(keys)} keys, its length is "
                        f"{len(shard)}"
                    )
        for shard in self.shards:
            index = shard.index
            check = getattr(index, "check_elastic_invariants", None) or \
                getattr(index, "check_invariants", None)
            if check is not None:
                check()

    def controllers(self) -> List:
        """Elasticity controllers of the elastic shards, in shard order."""
        return [s.controller for s in self.shards if s.controller is not None]

    def shard_report(self) -> List[Dict[str, float]]:
        """Per-shard occupancy/pressure snapshot (bench reporting)."""
        report = []
        for shard in self.shards:
            state = shard.pressure_state
            report.append({
                "name": shard.name,
                "items": len(shard),
                "index_bytes": shard.index_bytes,
                "soft_bound_bytes": shard.soft_bound_bytes or 0,
                "compact_fraction": shard.compact_fraction,
                "state": state.value if state is not None else "",
            })
        return report

    def caches(self) -> List:
        """Adaptive caches of the shards that have one, in shard order."""
        return [s.cache for s in self.shards if s.cache is not None]

    def cache_report(self) -> List[Dict[str, object]]:
        """Per-shard cache occupancy/hit-rate snapshot."""
        return [
            dict(shard.cache.report().as_dict(), shard=shard.name)
            for shard in self.shards
            if shard.cache is not None
        ]

