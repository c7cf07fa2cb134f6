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
    def _group_by_shard(self, keys: Sequence[bytes]) -> Dict[int, List[int]]:
        """Input positions per shard, preserving input order."""
        groups: Dict[int, List[int]] = {}
        shard_of = self.partitioner.shard_of
        for position, key in enumerate(keys):
            groups.setdefault(shard_of(key), []).append(position)
        return groups

    def lookup_batch(self, keys: Sequence[bytes]) -> List[Optional[int]]:
        results: List[Optional[int]] = [None] * len(keys)
        groups = self._group_by_shard(keys)
        tasks = [
            partial(self.shards[shard_id].index.lookup_batch,
                    [keys[p] for p in positions])
            for shard_id, positions in groups.items()
        ]
        gathered = self.executor.run_tasks(tasks, self.cost)
        for positions, hits in zip(groups.values(), gathered):
            for position, tid in zip(positions, hits):
                results[position] = tid
        return results

    def insert_sorted_batch(
        self, pairs: Sequence[Tuple[bytes, int]]
    ) -> List[Optional[int]]:
        results: List[Optional[int]] = [None] * len(pairs)
        groups = self._group_by_shard([key for key, _ in pairs])
        tasks = [
            partial(self.shards[shard_id].index.insert_sorted_batch,
                    [pairs[p] for p in positions])
            for shard_id, positions in groups.items()
        ]
        gathered = self.executor.run_tasks(tasks, self.cost)
        for positions, replaced in zip(groups.values(), gathered):
            for position, tid in zip(positions, replaced):
                results[position] = tid
        return results

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
        groups = self._group_by_shard(start_keys)
        tasks = [
            partial(self.shards[shard_id].index.scan_batch,
                    [start_keys[p] for p in positions], count)
            for shard_id, positions in groups.items()
        ]
        gathered = self.executor.run_tasks(tasks, self.cost)
        for (shard_id, positions), batches in zip(groups.items(), gathered):
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

