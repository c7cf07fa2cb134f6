"""Shared infrastructure for the per-figure experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.keys.encoding import encode_u64
from repro.memory.allocator import TrackingAllocator
from repro.memory.cost_model import CostModel
from repro.obs import Observer
# ``build_index`` and the index name table live in
# :mod:`repro.registry` now (so the database and engine layers build
# indexes without importing the benchmark package); the re-exports keep
# the historical ``repro.bench.harness`` spellings working for the
# figure drivers and any external callers.
from repro.registry import (  # noqa: F401  (re-export)
    INDEX_BUILDERS,
    available_indexes,
    build_index,
    register_index,
)
from repro.table.table import Table


# ----------------------------------------------------------------------
# Measurements
# ----------------------------------------------------------------------
@dataclass
class Measurement:
    """Operations executed against accumulated weighted cost."""

    ops: int
    cost_units: float
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Operations per cost unit (the harness' throughput proxy)."""
        if self.cost_units <= 0:
            return 0.0
        return self.ops / self.cost_units


def measure(cost: CostModel, ops: int, fn: Callable[[], None]) -> Measurement:
    """Run ``fn`` and return the cost delta as a Measurement."""
    with cost.measure() as delta:
        fn()
    return Measurement(ops=ops, cost_units=delta.weighted_cost(),
                       counts=delta.snapshot())


def watch(observer: Optional[Observer], cost: CostModel) -> None:
    """Have ``observer`` watch ``cost`` (nothing without one).  A driver
    calls it on every ledger it builds, so one observer sees the whole
    run."""
    if observer is not None:
        observer.watch(cost)


# ----------------------------------------------------------------------
# Result formatting
# ----------------------------------------------------------------------
@dataclass
class Series:
    """One line of a figure: y values over shared x values."""

    name: str
    ys: List[float]


@dataclass
class ExperimentResult:
    """A reproduced figure/table: named series over an x axis, plus
    free-form summary rows."""

    experiment_id: str
    title: str
    x_label: str = ""
    xs: List[float] = field(default_factory=list)
    series: List[Series] = field(default_factory=list)
    rows: List[Tuple[str, str]] = field(default_factory=list)

    def add_series(self, name: str, ys: Sequence[float]) -> None:
        self.series.append(Series(name, list(ys)))

    def add_row(self, label: str, value: str) -> None:
        self.rows.append((label, value))

    def get(self, name: str) -> List[float]:
        for series in self.series:
            if series.name == name:
                return series.ys
        raise KeyError(name)

    def render(self) -> str:
        """Plain-text rendering in the style of the paper's figures."""
        out = [f"== {self.experiment_id}: {self.title} =="]
        if self.series:
            width = max(len(s.name) for s in self.series)
            width = max(width, len(self.x_label))
            header = f"{self.x_label:>{width}} | " + " ".join(
                f"{x:>12g}" for x in self.xs
            )
            out.append(header)
            out.append("-" * len(header))
            for series in self.series:
                out.append(
                    f"{series.name:>{width}} | "
                    + " ".join(f"{y:>12.4g}" for y in series.ys)
                )
        for label, value in self.rows:
            out.append(f"{label}: {value}")
        return "\n".join(out)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.render() + "\n")


# ----------------------------------------------------------------------
# Index environments
# ----------------------------------------------------------------------
@dataclass
class IndexEnv:
    """A fully wired index: its own table, allocator and cost account."""

    name: str
    index: object
    table: Table
    cost: CostModel
    allocator: TrackingAllocator

    @property
    def index_bytes(self) -> int:
        return self.index.index_bytes


def make_u64_environment(
    builder_name: str,
    size_bound_bytes: Optional[int] = None,
    key_width: int = 8,
    **builder_kwargs,
) -> IndexEnv:
    """Create an index with a backing u64-keyed row table.

    Rows are the integer key values themselves; ``row_bytes`` models a
    32-byte table row (the section 6.3 row size).
    """
    cost = CostModel()
    allocator = TrackingAllocator(cost_model=cost)
    if key_width == 8:
        key_of_row = encode_u64
    else:
        pad = key_width - 8

        def key_of_row(value: int, _pad: int = pad) -> bytes:
            return encode_u64(value) + bytes(_pad)

    table = Table(key_of_row, row_bytes=32, cost_model=cost)
    index = build_index(
        builder_name,
        table=table,
        allocator=allocator,
        cost=cost,
        key_width=key_width,
        size_bound_bytes=size_bound_bytes,
        **builder_kwargs,
    )
    return IndexEnv(builder_name, index, table, cost, allocator)


def estimate_stx_bytes_per_key(key_width: int = 8, sample: int = 8000) -> float:
    """Calibrate the STX space rate, used to express the paper's size
    bounds ("start shrinking at N/2 items") in bytes."""
    env = make_u64_environment("stx", key_width=key_width)
    import random

    rng = random.Random(1234)
    for _ in range(sample):
        value = rng.getrandbits(56)
        tid = env.table.insert_row(value)
        env.index.insert(env.table.peek_key(tid), tid)
    return env.index.index_bytes / len(env.index)
