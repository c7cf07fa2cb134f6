"""Outside-in per-layer tracing for the end-to-end benchmark.

:class:`Tracer` wraps the public methods of each layer's classes while
it is installed, and puts the originals back afterwards, so the program
runs unmodified otherwise.  It records one span per call: layer,
``Class.method``, start and end, the parent span and the op it belongs
to (an op is one root span, i.e. one call the benchmark made into the
database facade).  A layer's self time is its spans' duration minus
their child spans' duration.

Every wrapper also enters ``CostModel.attributed_to(<layer>)`` on the
workload's shared cost model, so modeled units land in the innermost
layer's bucket.  Units charged under no layer, or taken back by rebates
(parallel critical-path pricing and what-if probes rebate with
attribution suppressed), stay in the global ledger only: that residue is
reported as ``memory.unattributed_units_per_op``.

Spans are kept in one stack shared by all threads.  That is sound here
because the only threads are the parallel shard executor's workers,
which run their sub-batches one at a time under the executor's
measurement lock while the dispatching thread blocks on their futures;
a span closed out of order raises instead of being mis-attributed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from typing import Dict, List, Optional, Tuple

from repro.memory.cost_model import CostModel

#: Layer name -> the classes whose own public methods belong to it.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("db", ("repro.db.database:Database", "repro.db.database:DBTable",
            "repro.db.database:SecondaryIndex")),
    ("db.write", ("repro.db.write:WriteBatch",)),
    ("wal", ("repro.wal.log:WriteAheadLog",)),
    ("tuning", ("repro.tuning.advisor:SelfTuningAdvisor",
                "repro.tuning.stats:StatsCollector")),
    ("engine.arbiter", ("repro.engine.arbiter:BudgetArbiter",)),
    ("cluster", ("repro.cluster.replica_set:ReplicaSet",
                 "repro.cluster.router:ClusterRouter",
                 "repro.cluster.advisor:ReplicaAdvisor")),
    ("engine.router", ("repro.engine.router:ShardedIndex",
                       "repro.engine.partition:HashPartitioner",
                       "repro.engine.partition:RangePartitioner")),
    ("engine.executor", ("repro.engine.executor:SerialShardExecutor",
                         "repro.engine.executor:ParallelShardExecutor")),
    ("exec", ("repro.exec.executor:BatchExecutor",)),
    ("cache", ("repro.cache.cache:IndexCache",)),
    ("core.index", ("repro.btree.tree:BPlusTree",
                    "repro.core.elastic_btree:ElasticBPlusTree")),
    ("core.elasticity", ("repro.core.elasticity:ElasticityController",)),
    ("leaf.standard", ("repro.btree.leaves:StandardLeaf",)),
    ("leaf.compact", ("repro.blindi.leaf:CompactLeaf",)),
    ("leaf.learned", ("repro.learned.leaf:LearnedLeaf",)),
    ("table", ("repro.table.table:Table", "repro.db.database:TableView")),
)

LAYER_NAMES = tuple(name for name, _ in LAYERS)

#: Private methods that are layer entry points all the same: the
#: elasticity controller installs these as the tree's overflow and
#: underflow hooks, which is how conversions and reversions run.
ENTRY_POINTS = {
    "ElasticityController": ("_handle_overflow", "_handle_underflow"),
}

#: Attribution tags the program sets itself, folded into their layer.
TAG_PREFIXES = (
    ("compact.", "leaf.compact"),
    ("learned.", "leaf.learned"),
    ("elastic.", "core.elasticity"),
)

#: Ops whose spans are kept for the ``.trace.jsonl`` dump.
KEEP_OPS = 5_000

#: The generator behind ``CostModel.attributed_to``: driving it by hand
#: runs the same attribution code as the ``with`` statement at a fifth
#: of the context-manager machinery's cost, which is most of a span's
#: overhead.
_attributed_to = CostModel.attributed_to.__wrapped__


def layer_of_tag(tag: str) -> Optional[str]:
    """The layer a cost-attribution tag belongs to, if any."""
    if tag in LAYER_NAMES:
        return tag
    for prefix, layer in TAG_PREFIXES:
        if tag.startswith(prefix):
            return layer
    return None


def _resolve(spec: str):
    module, name = spec.split(":")
    return getattr(importlib.import_module(module), name)


def _wrappable(cls) -> List[str]:
    """Names of ``cls``'s own methods that the tracer wraps."""
    names = []
    for name, value in vars(cls).items():
        if not inspect.isfunction(value):
            continue  # properties, static/class methods, attributes
        entry_points = ENTRY_POINTS.get(cls.__name__, ())
        if name.startswith("_") and name not in entry_points:
            continue
        names.append(name)
    return names


class Tracer:
    """Span recorder plus the method wrappers that feed it.

    :meth:`install` wraps every layer method and :meth:`uninstall` puts
    the originals back; both re-point the elasticity hooks of the trees
    of the controllers ``controllers()`` returns, so trees built before
    the install are traced too.
    """

    def __init__(self, cost: CostModel, controllers) -> None:
        self.cost = cost
        self._controllers = controllers
        self.installed = False
        self._saved: List[Tuple[type, str, object]] = []
        self._stack: List[list] = []
        self._next_span = 0
        #: Root spans seen so far (one per op the benchmark issued).
        self.ops = 0
        #: layer -> [calls, self_ns]
        self.totals: Dict[str, List[int]] = {
            name: [0, 0] for name in LAYER_NAMES
        }
        #: CostModel.charge invocations while installed.
        self.charge_calls = 0
        #: (op, span, parent, layer, method, start_ns, end_ns) of the
        #: first KEEP_OPS ops.
        self.spans: List[tuple] = []
        self._origin = time.perf_counter_ns()

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        controllers = list(self._controllers())
        for layer, specs in LAYERS:
            for spec in specs:
                cls = _resolve(spec)
                for name in _wrappable(cls):
                    original = vars(cls)[name]
                    self._saved.append((cls, name, original))
                    setattr(cls, name, self._wrap(
                        layer, f"{cls.__name__}.{name}", original
                    ))
        charge = CostModel.charge
        self._saved.append((CostModel, "charge", charge))
        tracer = self

        @functools.wraps(charge)
        def counted_charge(model, category, count=1):
            tracer.charge_calls += 1
            return charge(model, category, count)

        CostModel.charge = counted_charge
        self.installed = True
        self._rebind(controllers)

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved.clear()
        self.installed = False
        self._rebind(self._controllers())

    @staticmethod
    def _rebind(controllers) -> None:
        # The tree keeps the bound hook it was given at attach time;
        # fetch it again so it resolves through the current class dict.
        for controller in controllers:
            controller.tree.overflow_handler = controller._handle_overflow
            controller.tree.underflow_handler = controller._handle_underflow

    def _wrap(self, layer: str, method: str, fn):
        tracer = self
        cost = self.cost
        stack = self._stack
        total = self.totals[layer]
        spans = self.spans
        origin = self._origin
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.installed:
                return fn(*args, **kwargs)
            if stack:
                parent = stack[-1][1]
            else:
                parent = -1
                tracer.ops += 1
            span = tracer._next_span
            tracer._next_span = span + 1
            frame = [0, span]  # child_ns, span id
            stack.append(frame)
            attribution = _attributed_to(cost, layer)
            next(attribution)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                next(attribution, None)
                if stack.pop() is not frame:
                    raise RuntimeError(f"span of {method} closed out of order")
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                total[0] += 1
                total[1] += duration - frame[0]
                if tracer.ops <= KEEP_OPS:
                    spans.append((tracer.ops, span, parent, layer, method,
                                  start - origin, end - origin))

        return traced

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSON lines."""
        with open(path, "w") as fh:
            for op, span, parent, layer, method, start, end in self.spans:
                fh.write(json.dumps({
                    "op": op, "span": span, "parent": parent,
                    "layer": layer, "method": method,
                    "start_ns": start, "end_ns": end,
                }) + "\n")


def tagged_counts(cost: CostModel) -> Dict[str, Dict[str, int]]:
    """A copy of the cost model's per-tag event counts."""
    return {tag: dict(counts) for tag, counts in cost.tagged.items()}


def ledger(cost: CostModel, before_counts, after_counts,
           before_tags, after_tags) -> Tuple[Dict[str, float], float,
                                              Dict[str, Dict[str, int]]]:
    """Split a window's modeled units by layer.

    Returns ``(units per layer, unattributed units, event counts per
    layer)``.  The split is made on integer event counts, so the layer
    units plus the unattributed units equal the window's total up to
    float rounding.  Tags of no layer count as unattributed.
    """
    per_layer: Dict[str, Dict[str, int]] = {name: {} for name in LAYER_NAMES}
    unattributed: Dict[str, int] = {
        category: count - before_counts.get(category, 0)
        for category, count in after_counts.items()
    }
    for tag, counts in after_tags.items():
        layer = layer_of_tag(tag)
        if layer is None:
            continue
        base = before_tags.get(tag, {})
        bucket = per_layer[layer]
        for category, count in counts.items():
            delta = count - base.get(category, 0)
            if delta:
                bucket[category] = bucket.get(category, 0) + delta
                unattributed[category] = unattributed.get(category, 0) - delta
    units = {
        layer: _weigh(cost, counts) for layer, counts in per_layer.items()
    }
    return units, _weigh(cost, unattributed), per_layer


def _weigh(cost: CostModel, counts: Dict[str, int]) -> float:
    model = CostModel(weights=cost.weights)
    model.counts = {k: v for k, v in counts.items() if v}
    return model.weighted_cost()
