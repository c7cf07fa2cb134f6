"""The one index builder: every index shape from one frozen recipe.

An :class:`IndexRecipe` records how one index is built.  :func:`build`
makes the index it describes — plain, cached or sharded
(:func:`build_sharded_index` is the sharded half); the database, the
replica tier and the what-if engine (:mod:`repro.engine.whatif`) build
every index, scratch and rebuilt ones included, from recipes, so a
rebuild is always the index its creation built.  :func:`enroll` and
:func:`withdraw` move an index's elasticity controllers and caches in
and out of a budget arbiter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.cache import CacheConfig, IndexCache
from repro.engine.arbiter import largest_remainder
from repro.engine.executor import SerialShardExecutor
from repro.engine.partition import make_partitioner
from repro.engine.router import ShardedIndex
from repro.engine.shard import IndexShard
from repro.errors import CacheConfigError
from repro.memory.allocator import TrackingAllocator
from repro.memory.cost_model import NULL_COST_MODEL, CostModel
from repro.registry import build_index

Pairs = List[Tuple[bytes, int]]


@dataclass(frozen=True)
class IndexRecipe:
    """How one index is built: the registered ``kind``, the ``table``
    its keys resolve through, the shared cost model, key width, soft
    bound, fan-out (``shards``, ``partitioner``, scatter/gather
    ``executor``), ``cache`` configuration and the kind's own builder
    keywords (``(key, value)`` pairs, so a recipe stays frozen).
    ``name`` labels the index's shards, cache and arbiter enrollment;
    ``preset`` is the leaf-kind lattice preset the self-tuning advisor
    last swapped in (None until it swaps one)."""

    kind: str
    table: object
    cost: CostModel
    key_width: int
    size_bound_bytes: Optional[int] = None
    shards: int = 1
    partitioner: str = "hash"
    executor: Optional[SerialShardExecutor] = None
    cache: Optional[CacheConfig] = None
    index_kwargs: Tuple[Tuple[str, object], ...] = ()
    name: str = ""
    preset: Optional[str] = None

    def kwargs(self) -> Dict[str, object]:
        return dict(self.index_kwargs)

    def with_kwargs(self, overrides: Dict[str, object]) -> "IndexRecipe":
        """This recipe with ``overrides`` replacing its keywords."""
        merged = self.kwargs()
        merged.update(overrides)
        return replace(self, index_kwargs=tuple(merged.items()))


def _build_one(recipe: IndexRecipe, allocator, bound: Optional[int],
               cost: Optional[CostModel] = None):
    return build_index(
        recipe.kind, table=recipe.table, allocator=allocator,
        cost=recipe.cost if cost is None else cost,
        key_width=recipe.key_width, size_bound_bytes=bound,
        **recipe.kwargs(),
    )


def _plan(recipe: IndexRecipe, sharded: bool) -> List[Tuple]:
    """Each part's ``(bound, cache config)``.  Sharded, the bound and
    the cache budget split equally (largest remainder), and no shard's
    cache budget falls below the configured floor."""
    if not sharded:
        return [(recipe.size_bound_bytes, recipe.cache)]
    n, cache = recipe.shards, recipe.cache
    bounds = (
        largest_remainder(recipe.size_bound_bytes, [1.0] * n)
        if recipe.size_bound_bytes is not None else [None] * n
    )
    if cache is None:
        return [(bound, None) for bound in bounds]
    floor = cache.min_budget_bytes
    budgets = largest_remainder(max(cache.budget_bytes, n * floor),
                                [1.0] * n)
    return [
        (bound, replace(cache, budget_bytes=max(budget, floor)))
        for bound, budget in zip(bounds, budgets)
    ]


def check(recipe: IndexRecipe, plan: Optional[List[Tuple]] = None) -> None:
    """Raise :class:`~repro.errors.CacheConfigError` unless the recipe's
    cache fits under its bound (per shard when sharded) and its kind can
    carry a cache.  Charges nothing: the kind is tried on an empty index
    against the disabled cost model."""
    if recipe.cache is None:
        return
    if plan is None:
        plan = _plan(recipe, recipe.shards > 1)
    recipe.cache.validate()
    for bound, config in plan:
        if bound is not None:
            config.validate(bound)
    trial = _build_one(recipe, TrackingAllocator(), plan[0][0],
                       NULL_COST_MODEL)
    if not hasattr(trial, "attach_cache"):
        raise CacheConfigError(
            f"index kind {recipe.kind!r} does not support adaptive caching"
        )


def build(recipe: IndexRecipe, load: Optional[Pairs] = None):
    """The index ``recipe`` describes, after :func:`check`: a
    :class:`~repro.engine.router.ShardedIndex` when ``shards > 1``, else
    one ``kind`` index, each part on its own tracking allocator.
    ``load`` (sorted pairs) is bulk-loaded before the caches attach, so
    a rebuild's load never touches a cache."""
    return _build(recipe, recipe.shards > 1, load)


def _build(recipe: IndexRecipe, sharded: bool, load: Optional[Pairs]):
    plan = _plan(recipe, sharded)
    check(recipe, plan)
    if sharded:
        shards = []
        for shard_id, (bound, _) in enumerate(plan):
            allocator = TrackingAllocator(cost_model=recipe.cost)
            shards.append(IndexShard(
                shard_id, _build_one(recipe, allocator, bound), allocator,
                name=f"{recipe.name or 'shard'}[{shard_id}]",
            ))
        index = ShardedIndex(
            shards, make_partitioner(recipe.partitioner, recipe.shards),
            executor=recipe.executor, cost=recipe.cost,
        )
        targets = [(shard.index, shard.name) for shard in shards]
    else:
        index = _build_one(recipe, TrackingAllocator(cost_model=recipe.cost),
                           recipe.size_bound_bytes)
        targets = [(index, recipe.name)]
    if load:
        index.insert_sorted_batch(load)
    for (target, label), (_, config) in zip(targets, plan):
        if config is not None:
            target.attach_cache(IndexCache(config, name=f"{label}.cache"))
    return index


def build_sharded_index(kind: str, *, table, cost, key_width: int,
                        n_shards: int, partitioner: str = "hash",
                        size_bound_bytes: Optional[int] = None,
                        name: str = "",
                        executor: Optional[SerialShardExecutor] = None,
                        cache=None, **index_kwargs) -> ShardedIndex:
    """Build ``n_shards`` independent ``kind`` indexes behind one router
    (a :class:`~repro.engine.router.ShardedIndex` even for one shard),
    as :func:`build` does: each shard on its own tracking allocator, the
    bound and a ``cache``'s budget split equally across the shards (the
    static split a :class:`~repro.engine.arbiter.BudgetArbiter` later
    overrides), ``executor`` the scatter/gather backend (default
    serial)."""
    return _build(IndexRecipe(
        kind=kind, table=table, cost=cost, key_width=key_width,
        size_bound_bytes=size_bound_bytes, shards=n_shards,
        partitioner=partitioner, executor=executor, cache=cache,
        index_kwargs=tuple(index_kwargs.items()), name=name,
    ), True, None)


# ----------------------------------------------------------------------
# Budget-arbiter enrollment
# ----------------------------------------------------------------------
def parts(name: str, index) -> List[Tuple[str, object, object]]:
    """``(arbiter name, controller, cache)`` per shard of ``index``, or
    of the plain index itself under ``name``."""
    if isinstance(index, ShardedIndex):
        return [(s.name, s.controller, s.cache) for s in index.shards]
    return [(name, getattr(index, "controller", None),
             getattr(index, "cache", None))]


def controllers(index) -> List:
    """The elasticity controllers of ``index`` (one per elastic shard)."""
    return [c for _, c, _ in parts("", index) if c is not None]


def live_bound(index) -> Optional[int]:
    """The soft bound ``index`` holds now (summed over its shards), as
    the arbiter last set it; None when nothing in it is elastic."""
    held = controllers(index)
    return sum(c.budget.soft_bound_bytes for c in held) if held else None


def enroll(arbiter, name: str, index) -> None:
    """Enroll each elastic part of ``index``, and its cache, with
    ``arbiter``: a shard under its own name, a plain index as ``name``."""
    for part, controller, cache in parts(name, index):
        if controller is not None:
            arbiter.register(part, controller)
            if cache is not None:
                arbiter.register_cache(part, cache)


def withdraw(arbiter, name: str, index) -> None:
    """Withdraw whatever of ``index`` is enrolled with ``arbiter``."""
    registered = set(arbiter.shard_names)
    for part, _, _ in parts(name, index):
        if part in registered:
            arbiter.unregister(part)
