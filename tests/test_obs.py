"""Tests for the observability subsystem (repro.obs).

Covers the ISSUE 2 tentpole guarantees: events fire exactly at the
elasticity action points (cross-checked against the controller's own
counters), instrumentation is zero-overhead when disabled (differential
cost/bytes equality), exporter output round-trips through ``json.loads``
line by line, metrics snapshots are deterministic across scalar and
batched execution, and the Prometheus text parses.
"""

import json
import random

import pytest

from repro import obs
from repro.cache import CacheConfig
from repro.core.policies import EagerCompactionPolicy
from repro.db import Database
from repro.db.metrics import layer_metrics
from repro.exec import BatchExecutor
from repro.memory.cost_model import CostModel
from repro.table.table import RowSchema
from repro.wal import WalConfig

from tests.conftest import U64Source
from tests.test_elastic import fill, make_elastic


def run_grow_shrink(n=3000, size_bound=40_000, seed=3, policy=None,
                    observer=None):
    """A grow-then-shrink elastic workload touching every event source."""
    source = U64Source()
    tree = make_elastic(source, size_bound=size_bound)
    if policy is not None:
        tree.controller.policy = policy
    fill(tree, source, n, shuffle_seed=seed)
    rng = random.Random(seed)
    from repro.keys.encoding import encode_u64

    for _ in range(n // 4):
        tree.lookup(encode_u64(rng.randrange(n)))
    for v in rng.sample(range(n), 4 * n // 5):
        tree.remove(encode_u64(v))
    for _ in range(n // 2):
        tree.lookup(encode_u64(rng.randrange(n)))
    return tree, source


# ----------------------------------------------------------------------
# Zero overhead when disabled
# ----------------------------------------------------------------------
class TestZeroOverhead:
    def test_disabled_run_cost_and_bytes_identical(self):
        obs.set_enabled(False)
        tree_a, source_a = run_grow_shrink()
        with obs.enabled():
            observer = obs.Observer()
            tree_b, source_b = run_grow_shrink()
        assert len(observer.events) > 0
        assert source_a.cost.weighted_cost() == source_b.cost.weighted_cost()
        assert source_a.cost.counts == source_b.cost.counts
        assert tree_a.index_bytes == tree_b.index_bytes
        assert (
            tree_a.allocator.breakdown() == tree_b.allocator.breakdown()
        )

    def test_disabled_emit_publishes_nothing(self):
        observer = obs.Observer()
        obs.emit(obs.PressureTransitionEvent(previous="normal",
                                             state="shrinking"))
        assert not observer.events

    def test_trace_op_is_shared_noop_when_disabled(self):
        tracer = obs.Tracer()
        cost = CostModel()
        ctx_a = tracer.trace_op(cost, "x")
        ctx_b = tracer.trace_op(cost, "y")
        assert ctx_a is ctx_b  # the shared null context, no allocation
        with ctx_a:
            cost.charge("rand_line", 3)
        assert tracer.snapshot() == []


# ----------------------------------------------------------------------
# Events fire exactly at the elasticity action points
# ----------------------------------------------------------------------
class TestEventAccuracy:
    def test_event_counts_match_controller_stats(self):
        with obs.enabled():
            observer = obs.Observer()
            tree, _ = run_grow_shrink()
        tree.check_elastic_invariants()
        stats = tree.controller.stats
        events = observer.event_log()

        conversions = [e for e in events if e.kind == "leaf_conversion"]
        capacity = [e for e in events if e.kind == "capacity_change"]
        transitions = [e for e in events if e.kind == "pressure_transition"]

        to_compact = [e for e in conversions if e.direction == "to_compact"]
        assert len(to_compact) == stats.conversions_to_compact
        assert all(e.trigger in ("overflow", "cold_sweep", "bulk")
                   for e in to_compact)

        reversions = [
            e for e in conversions
            if e.direction == "to_standard" and e.trigger == "underflow"
        ]
        assert len(reversions) == stats.reversions_to_standard

        promotions = [e for e in capacity if e.direction == "double"]
        assert len(promotions) == stats.capacity_promotions
        assert all(e.new_capacity == 2 * e.old_capacity for e in promotions)

        stepdowns = [
            e for e in capacity
            if e.direction == "halve" and e.trigger == "underflow"
        ]
        assert len(stepdowns) == stats.capacity_stepdowns

        # Expansion splits produce exactly two per-split events (the two
        # half nodes), either compact halves or standard-leaf reverts.
        expansion = [
            e for e in conversions + capacity if e.trigger == "expansion"
        ]
        assert len(expansion) == 2 * stats.expansion_splits

        assert len(transitions) == stats.state_transitions
        assert transitions[0].previous == "normal"
        assert transitions[0].state == "shrinking"

    def test_seq_numbers_strictly_increase(self):
        with obs.enabled():
            observer = obs.Observer()
            run_grow_shrink(n=1500)
        seqs = [e.seq for e in observer.event_log()]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        assert all(s > 0 for s in seqs)

    def test_shrinking_run_has_conversion_and_transition(self):
        with obs.enabled():
            observer = obs.Observer()
            tree, _ = run_grow_shrink()
        assert observer.event_log("leaf_conversion")
        assert observer.event_log("pressure_transition")
        for event in observer.event_log("leaf_conversion"):
            assert event.index_bytes > 0
            assert event.cost_units > 0.0

    def test_breathing_resize_events(self):
        # A low capacity cap makes full compact leaves split, which
        # re-bases their breathing arrays (the only "rebase" source).
        with obs.enabled():
            observer = obs.Observer()
            source = U64Source()
            tree = make_elastic(source, size_bound=40_000,
                                max_compact_capacity=32)
            fill(tree, source, 4000, shuffle_seed=9)
        grows = [e for e in observer.event_log("breathing_resize")
                 if e.reason == "grow"]
        rebases = [e for e in observer.event_log("breathing_resize")
                   if e.reason == "rebase"]
        assert grows and rebases
        assert all(e.new_slots > e.old_slots for e in grows)
        assert all(e.new_slots <= e.capacity for e in grows)

    def test_policy_action_events(self):
        with obs.enabled():
            observer = obs.Observer()
            run_grow_shrink(policy=EagerCompactionPolicy())
        actions = observer.event_log("policy_action")
        assert any(a.policy == "eager_compaction" and
                   a.action == "bulk_compact" for a in actions)
        bulk = [e for e in observer.event_log("leaf_conversion")
                if e.trigger == "bulk"]
        assert bulk


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExporters:
    def test_event_log_round_trips_json_lines(self, tmp_path):
        with obs.enabled():
            observer = obs.Observer()
            run_grow_shrink(n=1500)
        path = tmp_path / "events.jsonl"
        written = observer.write_event_log(path)
        assert written == len(observer.events) > 0
        lines = path.read_text().splitlines()
        assert len(lines) == written
        kinds = set()
        for line, event in zip(lines, observer.event_log()):
            record = json.loads(line)  # every line parses independently
            assert record == event.as_dict()
            kinds.add(record["kind"])
        assert "leaf_conversion" in kinds
        assert "pressure_transition" in kinds
        assert obs.read_event_log(path) == [
            e.as_dict() for e in observer.event_log()
        ]

    def test_pressure_timeline_records_samples_and_transitions(
        self, tmp_path
    ):
        with obs.enabled() as bus:
            timeline = obs.PressureTimeline(bus, label="t")
            tree, source = run_grow_shrink(n=2000)
            timeline.sample(2000, tree.index_bytes,
                            tree.pressure_state.value)
        timeline.close()
        assert timeline.transitions
        samples = [r for r in timeline.rows if r["kind"] == "sample"]
        assert samples[-1]["x"] == 2000
        path = tmp_path / "timeline.jsonl"
        assert timeline.dump(path) == len(timeline.rows)
        for line in path.read_text().splitlines():
            json.loads(line)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def parse_prometheus(text: str):
    """Minimal exposition-format parser: {family: {labels_str: value}}."""
    families = {}
    current = None
    for line in text.splitlines():
        if line.startswith("# HELP "):
            current = line.split()[2]
            families.setdefault(current, {})
        elif line.startswith("# TYPE "):
            name, mtype = line.split()[2:4]
            assert name == current
            assert mtype in ("counter", "gauge", "histogram")
        else:
            assert current is not None, f"sample before header: {line!r}"
            name_and_labels, value = line.rsplit(" ", 1)
            assert name_and_labels.startswith(current)
            float(value)  # every sample value is numeric
            families[current][name_and_labels] = value
    return families


class TestMetrics:
    def test_snapshot_parses_as_prometheus(self):
        with obs.enabled():
            observer = obs.Observer()
            run_grow_shrink()
        families = parse_prometheus(observer.metrics_snapshot())
        assert families["repro_leaf_conversions_total"]
        assert families["repro_pressure_transitions_total"]
        conversions = observer.registry.get("repro_leaf_conversions_total")
        assert conversions.total() == len(
            observer.event_log("leaf_conversion")
        )

    def test_histogram_counts_conversion_costs(self):
        with obs.enabled():
            observer = obs.Observer()
            tree, _ = run_grow_shrink()
        histogram = observer.registry.get("repro_conversion_cost_units")
        total = sum(
            state[2] for state in histogram.values.values()
        )
        assert total == len(observer.event_log("leaf_conversion")) + len(
            observer.event_log("capacity_change")
        )

    def test_scalar_and_batched_snapshots_identical(self):
        """Same sorted workload, scalar vs. batched: identical metrics.

        A bare observer holds only the event-fed families, so every
        elasticity-driven family must match byte for byte.
        """

        def run_one(batched: bool) -> str:
            observer = obs.Observer()
            source = U64Source()
            tree = make_elastic(source, size_bound=40_000)
            pairs = [source.add(v) for v in range(3000)]
            keys = [k for k, _ in pairs]
            if batched:
                executor = BatchExecutor(tree, max_batch=256)
                executor.insert_batch(pairs)
                executor.get_batch(keys[::5])
            else:
                for key, tid in pairs:
                    tree.insert(key, tid)
                for key in keys[::5]:
                    tree.lookup(key)
            snapshot = observer.metrics_snapshot()
            observer.close()
            return snapshot

        with obs.enabled():
            scalar = run_one(batched=False)
            batched = run_one(batched=True)
        assert "repro_leaf_conversions_total" in scalar
        assert scalar == batched

    def test_registry_type_conflicts_rejected(self):
        registry = obs.MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")
        with pytest.raises(ValueError):
            obs.Histogram("bad", buckets=(5.0, 1.0))


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestTracing:
    def test_span_records_cost_delta_by_category(self):
        cost = CostModel()
        tracer = obs.Tracer()
        with obs.enabled(), tracer.trace_op(cost, "op1"):
            cost.charge("rand_line", 2)
            cost.charge("compare", 5)
        spans = tracer.snapshot()
        assert len(spans) == 1
        span = spans[0]
        assert span.op == "op1"
        assert span.by_category == {"rand_line": 2, "compare": 5}
        expected = 2 * cost.weights.rand_line + 5 * cost.weights.compare
        assert span.cost_units == pytest.approx(expected)

    def test_ring_buffer_bounds_spans(self):
        cost = CostModel()
        tracer = obs.Tracer(capacity=4)
        with obs.enabled():
            for i in range(10):
                with tracer.trace_op(cost, f"op{i}"):
                    cost.charge("branch", 1)
        spans = tracer.snapshot()
        assert len(spans) == 4
        assert [s.op for s in spans] == ["op6", "op7", "op8", "op9"]
        assert tracer.dropped == 6
        assert spans[-1].seq == 10

    def test_tracing_charges_no_cost(self):
        cost = CostModel()
        tracer = obs.Tracer()
        before = cost.weighted_cost()
        with obs.enabled(), tracer.trace_op(cost, "noop"):
            pass
        assert cost.weighted_cost() == before
        assert tracer.snapshot()[0].by_category == {}


# ----------------------------------------------------------------------
# Event bus
# ----------------------------------------------------------------------
#: The kinds the bus carries: each marks a state change.  Per-call
#: activity is read from layer stats instead.
KEPT_KINDS = {
    "leaf_conversion", "capacity_change", "leaf_retrain",
    "breathing_resize", "pressure_transition", "policy_action",
    "budget_rebalance", "cache_budget", "replica_route",
    "replica_failover", "replica_rebuild", "cluster_budget",
    "recovery_replay", "tuning_action", "tuning_payback",
}

#: Families read from a database's layer stats (the rest are event-fed).
LAYER_FAMILIES = {
    "repro_batch_dispatch_ops_total", "repro_cache_events_total",
    "repro_cache_hit_rate", "repro_parallel_saved_units_total",
    "repro_mlp_waves_total", "repro_mlp_loads_total",
    "repro_mlp_units_saved_total",
    "repro_shard_pressure_observations_total",
    "repro_tuning_probes_total", "repro_wal_records_total",
    "repro_wal_bytes_total", "repro_group_commits_total",
    "repro_group_commit_records_total", "repro_wal_durable_lsn",
}


class TestEventBus:
    def test_taxonomy_is_the_kept_kinds(self):
        kinds = [cls.kind for cls in obs.Event.__subclasses__()]
        assert len(kinds) == len(KEPT_KINDS) == 15
        assert set(kinds) == KEPT_KINDS

    def test_unsubscribe(self):
        bus = obs.EventBus()
        seen = []
        unsubscribe = bus.subscribe(seen.append)
        bus.publish(obs.PolicyActionEvent(policy="p", action="a"))
        unsubscribe()
        bus.publish(obs.PolicyActionEvent(policy="p", action="b"))
        assert len(seen) == 1

    def test_dead_observers_pruned_from_global_bus(self):
        import gc

        gc.collect()  # clear observers awaiting collection from earlier tests
        with obs.enabled():
            baseline = obs.BUS.subscriber_count
            observer = obs.Observer()
            assert obs.BUS.subscriber_count == baseline + 1
            del observer
            gc.collect()
            assert obs.BUS.subscriber_count == baseline


# ----------------------------------------------------------------------
# Database wiring
# ----------------------------------------------------------------------
class TestDatabaseObservability:
    def make_elastic_db(self):
        db = Database()
        table = db.create_table(RowSchema("t", ("a", "b"), (8, 8)))
        table.create_index("by_a", ("a",), kind="elastic",
                           size_bound_bytes=40_000)
        return db, table

    def test_db_metrics_and_event_log(self, tmp_path):
        with obs.enabled():
            db, table = self.make_elastic_db()
            table.insert_batch([(i, i) for i in range(3000)])
            for i in range(0, 3000, 3):
                table.get("by_a", (i,))
        assert db.event_log("leaf_conversion")
        families = parse_prometheus(db.metrics_snapshot())
        assert families["repro_leaf_conversions_total"]
        path = tmp_path / "db_events.jsonl"
        assert db.write_event_log(path) == len(db.event_log())
        for line in path.read_text().splitlines():
            json.loads(line)

    def make_layered_db(self):
        """A WAL-backed database whose one index is cached and elastic."""
        db = Database(wal=WalConfig(group_size=8))
        table = db.create_table(RowSchema("t", ("a", "b"), (8, 8)))
        table.create_index(
            "by_a", ("a",), kind="elastic", size_bound_bytes=6_000,
            cache=CacheConfig(budget_bytes=4096, sketch_width=64,
                              min_budget_bytes=1024),
        )
        return db, table

    def drive(self, table):
        table.insert_batch([(i, i) for i in range(400)])
        table.get_batch("by_a", [(i,) for i in range(0, 400, 3)])
        for i in range(0, 400, 7):
            table.get("by_a", (i,))

    def test_layer_families_belong_to_one_database(self):
        with obs.enabled():
            busy, busy_table = self.make_layered_db()
            quiet, _ = self.make_layered_db()
            self.drive(busy_table)
            busy_families = parse_prometheus(busy.metrics_snapshot())
            quiet_families = parse_prometheus(quiet.metrics_snapshot())
        for family in ("repro_batch_dispatch_ops_total",
                       "repro_cache_events_total", "repro_cache_hit_rate",
                       "repro_wal_records_total",
                       "repro_group_commits_total"):
            assert any(float(v) for v in busy_families[family].values())
            assert not any(float(v) for v in quiet_families[family].values())
        # Events stay process-wide: the quiet database's observer saw
        # the busy one's leaf conversions.
        assert quiet.event_log("leaf_conversion")
        assert len(quiet.event_log()) == len(busy.event_log())

    def test_layer_families_read_stats_with_obs_off(self):
        db, table = self.make_layered_db()
        self.drive(table)
        assert db.event_log() == []
        registry = layer_metrics(db)
        secondary = table.indexes["by_a"]
        cache = secondary.index.cache
        dispatch = registry.get("repro_batch_dispatch_ops_total")
        for kind, ops in secondary.executor.stats.by_kind.items():
            assert dispatch.value(op=kind, path="native") == ops
        events = registry.get("repro_cache_events_total")
        assert events.value(name=cache.name, action="hit", tier="row") == \
            cache.stats.row_hits > 0
        assert events.value(name=cache.name, action="miss",
                            tier="descent") == cache.stats.desc_misses
        assert registry.get("repro_cache_hit_rate").value(
            name=cache.name) == cache.stats.hit_rate
        assert registry.get("repro_wal_records_total").total() == len(
            db.wal.records)
        assert registry.get("repro_group_commits_total").total() == \
            db.wal.fsyncs > 0
        families = parse_prometheus(db.metrics_snapshot())
        assert set(families) == set(obs.Observer().registry.names()) | \
            LAYER_FAMILIES

    def test_bare_observer_renders_only_event_fed_families(self):
        observer = obs.Observer()
        names = set(observer.registry.names())
        observer.close()
        assert names.isdisjoint(LAYER_FAMILIES)
        assert len(names) == 23
        assert "repro_leaf_conversions_total" in names

    def test_db_trace_op_spans(self):
        with obs.enabled():
            db, table = self.make_elastic_db()
            table.insert_batch([(i, i) for i in range(100)])
            table.get("by_a", (5,))
            table.scan("by_a", (0,), count=10)
        ops = [s.op for s in db.observer.tracer.snapshot()]
        assert "db.get[by_a]" in ops
        assert "db.scan[by_a]" in ops
        get_span = next(s for s in db.observer.tracer.snapshot()
                        if s.op == "db.get[by_a]")
        assert get_span.cost_units > 0

    def test_executor_has_no_hasattr_probing(self):
        import inspect

        import repro.exec.executor as executor_module

        source = inspect.getsource(executor_module)
        assert "hasattr(" not in source
        assert 'getattr(index, "lookup_batch"' not in source
