"""Tests for the replicated cluster tier (``repro.cluster``).

Covers the tier's four contracts:

* **differential** — a replica set must answer every read exactly like
  a plain index over the same rows, for replicas in {1, 3} and with the
  shard tier stacked underneath (hash and range partitioners);
* **failover determinism** — a scripted :class:`~repro.engine.
  FaultPlan` outage replays to byte-identical results, cost units, and
  event streams, and recovery re-admits the replica without a rebuild;
* **budget** — the cluster-global bound is apportioned exactly by
  profile weight and every replica enrolls with the budget arbiter;
* **billing** — advisor rebuilds are charged like bulk conversions and
  announced as ``replica_rebuild`` events; a rebuild builds from the
  same recipe ``create_index`` did, under the bound the replica holds
  now, refuses a bad cache before charging anything, and re-enrolls the
  new structures with the budget arbiter.

It also checks that the one-call point read
(:meth:`~repro.cluster.ClusterRouter.route_point`) leaves every router
field exactly where the five-step read left it, and that the router's
and the replica set's ``check_invariants`` hold on live clusters and
catch corruption.
"""

import random

import pytest

from repro import obs
from repro.cache import CacheConfig
from repro.cluster import (
    QUERY_CLASSES,
    ReplicaAdvisor,
    ReplicaConfig,
    ReplicaProfile,
    ReplicaSet,
    apportion_bounds,
    build_replica_set,
    preset_profile,
)
from repro.db.database import Database
from repro.engine import FaultPlan
from repro.errors import CacheConfigError, ReplicaConfigError, ReproError
from repro.table.table import RowSchema

SCHEMA = RowSchema("t", ("k", "v"), (8, 8))


def make_table(db=None):
    db = db or Database()
    table = db.create_table(SCHEMA)
    return db, table


def load_values(n=600, seed=7):
    rng = random.Random(seed)
    return sorted({rng.getrandbits(48) for _ in range(n)})


def divergent_profiles():
    return (
        preset_profile("lattice", weight=0.5),
        preset_profile("cache", weight=0.3),
        preset_profile("compact", weight=0.2),
    )


# ----------------------------------------------------------------------
# Configuration validation
# ----------------------------------------------------------------------
class TestReplicaConfig:
    def test_defaults_validate(self):
        ReplicaConfig().validate()
        ReplicaConfig(replicas=3, profiles=divergent_profiles(),
                      total_bound_bytes=90_000).validate()

    @pytest.mark.parametrize("bad", [
        ReplicaConfig(replicas=0),
        ReplicaConfig(replicas=2, profiles=(preset_profile("lattice"),)),
        ReplicaConfig(replicas=2, profiles=(
            preset_profile("lattice"), preset_profile("lattice"))),
        ReplicaConfig(total_bound_bytes=0),
        ReplicaConfig(probe_keys=0),
        ReplicaConfig(score_interval_ops=0),
        ReplicaConfig(heat_buckets=1),
        ReplicaConfig(hot_multiplier=1.0),
        ReplicaConfig(advisor_fee_units=-0.5),
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ReplicaConfigError):
            bad.validate()

    def test_profile_validation(self):
        with pytest.raises(ReplicaConfigError):
            ReplicaProfile(name="").validate()
        with pytest.raises(ReplicaConfigError):
            ReplicaProfile(name="w", weight=0.0).validate()
        # leaf_kinds only make sense on the elastic family.
        with pytest.raises(ReplicaConfigError):
            ReplicaProfile(name="p", kind="stx",
                           leaf_kinds=("standard",)).validate()

    def test_presets(self):
        assert preset_profile("lattice").leaf_kinds == (
            "standard", "compact", "learned")
        assert preset_profile("cache").cache is not None
        assert preset_profile("baseline").kind == "stx"
        with pytest.raises(ReplicaConfigError):
            preset_profile("nope")

    def test_uniform_profiles_resolved_from_index_kwargs(self):
        cfg = ReplicaConfig(replicas=3)
        profiles = cfg.resolved_profiles("elastic", leaf_budget=64)
        assert [p.name for p in profiles] == [
            "elastic-0", "elastic-1", "elastic-2"]
        assert all(p.builder_kwargs() == {"leaf_budget": 64}
                   for p in profiles)

    def test_error_is_catchable_as_repro_error(self):
        assert issubclass(ReplicaConfigError, ReproError)
        assert issubclass(ReplicaConfigError, ValueError)


# ----------------------------------------------------------------------
# Budget apportionment
# ----------------------------------------------------------------------
class TestApportionment:
    def test_largest_remainder_is_exact(self):
        bounds = apportion_bounds(divergent_profiles(), 100_001)
        assert sum(bounds) == 100_001
        assert bounds[0] > bounds[1] > bounds[2]

    def test_non_elastic_profiles_get_no_bound(self):
        profiles = (preset_profile("lattice", weight=1.0),
                    preset_profile("baseline", weight=1.0))
        bounds = apportion_bounds(profiles, 50_000)
        assert bounds == [50_000, None]

    def test_all_unbounded_needs_no_total(self):
        profiles = (preset_profile("baseline"),)
        assert apportion_bounds(profiles, None) == [None]

    def test_elastic_without_total_rejected(self):
        with pytest.raises(ReplicaConfigError):
            apportion_bounds(divergent_profiles(), None)

    def test_create_index_apportions_cluster_bound(self):
        _, table = make_table()
        secondary = table.create_index(
            "by_k", ("k",), kind="elastic",
            replicas=ReplicaConfig(
                replicas=3, profiles=divergent_profiles(),
                total_bound_bytes=90_000,
            ),
        )
        bounds = [r.bound_bytes for r in secondary.index.replicas]
        assert sum(bounds) == 90_000
        assert bounds == [45_000, 27_000, 18_000]

    def test_explicit_profiles_refuse_create_index_cache(self):
        from repro.cache import CacheConfig

        _, table = make_table()
        with pytest.raises(ReplicaConfigError):
            table.create_index(
                "by_k", ("k",), kind="elastic",
                cache=CacheConfig(budget_bytes=8192),
                replicas=ReplicaConfig(
                    replicas=3, profiles=divergent_profiles(),
                    total_bound_bytes=90_000,
                ),
            )


# ----------------------------------------------------------------------
# Differential: replica sets answer exactly like a plain index
# ----------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("replicas", [1, 3])
    @pytest.mark.parametrize("partitioner", ["hash", "range"])
    def test_reads_match_plain_index(self, replicas, partitioner):
        values = load_values()
        rng = random.Random(11)

        def build(with_replicas):
            _, table = make_table()
            cfg = None
            if with_replicas:
                cfg = ReplicaConfig(
                    replicas=replicas, total_bound_bytes=60_000 * replicas,
                    score_interval_ops=128, heartbeat_interval_ops=64,
                )
            table.create_index(
                "by_k", ("k",), kind="elastic",
                size_bound_bytes=60_000, shards=2,
                partitioner=partitioner, replicas=cfg,
            )
            table.insert_batch([(v, v & 0xFF) for v in values])
            return table

        plain = build(False)
        cluster = build(True)
        probes = [rng.choice(values) for _ in range(120)]
        probes += [rng.getrandbits(48) for _ in range(30)]  # misses
        for v in probes:
            assert cluster.get("by_k", (v,)) == plain.get("by_k", (v,))
        batch = [(v,) for v in probes[:40]]
        assert cluster.get_batch("by_k", batch) == \
            plain.get_batch("by_k", batch)
        for start in probes[:20]:
            assert cluster.scan("by_k", (start,), count=17,
                                include_rows=False) == \
                plain.scan("by_k", (start,), count=17, include_rows=False)

    def test_writes_fan_out_to_every_replica(self):
        _, table = make_table()
        secondary = table.create_index(
            "by_k", ("k",), kind="elastic",
            replicas=ReplicaConfig(replicas=3, total_bound_bytes=90_000),
        )
        table.insert_batch([(v, 0) for v in load_values(200)])
        table.insert((7, 7))
        replica_set = secondary.index
        assert isinstance(replica_set, ReplicaSet)
        counts = {len(replica) for replica in replica_set.replicas}
        assert len(counts) == 1  # identical content everywhere
        # index_bytes is the cluster's true (summed) footprint.
        assert replica_set.index_bytes == sum(
            r.index_bytes for r in replica_set.replicas)

    def test_replicas_one_is_plain_passthrough(self):
        _, table = make_table()
        secondary = table.create_index(
            "by_k", ("k",), kind="elastic", size_bound_bytes=60_000,
            replicas=ReplicaConfig(replicas=1),
        )
        # No cluster machinery at all: the plain elastic index.
        assert not isinstance(secondary.index, ReplicaSet)
        assert not hasattr(secondary.index, "replica_report")


# ----------------------------------------------------------------------
# Routing: heat classification and class assignment
# ----------------------------------------------------------------------
class TestRouting:
    def build_cluster(self, faults=None, values=None):
        db, table = make_table()
        cfg = ReplicaConfig(
            replicas=3, profiles=divergent_profiles(),
            total_bound_bytes=120_000, score_interval_ops=64,
            heartbeat_interval_ops=32, probe_keys=4, faults=faults,
        )
        secondary = table.create_index("by_k", ("k",), kind="elastic",
                                       replicas=cfg)
        table.insert_batch([(v, v & 0xFF) for v in values or load_values()])
        return db, table, secondary.index

    def test_skewed_reads_classify_hot(self):
        # Heat buckets split on the key's top 16 bits, so the hot and
        # cold probes need distinct prefixes.
        hot = (5_000 << 48) | 17
        values = sorted(set(load_values()) | {hot})
        _, table, replica_set = self.build_cluster(values=values)
        router = replica_set.router
        for _ in range(200):
            table.get("by_k", (hot,))
        hot_key = hot.to_bytes(8, "big")
        assert router.is_hot(hot_key)
        assert router.classify_point(hot_key) == "point_hot"
        # A key from a bucket never touched is cold.
        cold_key = ((60_000 << 48) | 17).to_bytes(8, "big")
        assert router.classify_point(cold_key) == "point_cold"

    def test_assignment_covers_observed_classes(self):
        values = load_values()
        _, table, replica_set = self.build_cluster(values=values)
        rng = random.Random(3)
        for _ in range(300):
            table.get("by_k", (rng.choice(values),))
        table.get_batch("by_k", [(v,) for v in values[:8]])
        table.scan("by_k", (values[0],), count=8, include_rows=False)
        assignment = replica_set.router.assignment()
        assert set(assignment) <= set(QUERY_CLASSES)
        assert assignment  # scoring rounds fired
        n = replica_set.n_replicas
        assert all(0 <= rid < n for rid in assignment.values())
        mix = replica_set.router.class_mix()
        assert abs(sum(mix.values()) - 1.0) < 1e-9

    def test_scoring_is_rebated_except_fee(self):
        values = load_values(300)
        db, table, replica_set = self.build_cluster(values=values)
        router = replica_set.router
        router.observe("point_cold", [values[0].to_bytes(8, "big")])
        before = db.cost.weighted_cost()
        scores = router.score_round()
        charged = db.cost.weighted_cost() - before
        # Only the advisor fee is left on the ledger.
        fee = replica_set.config.advisor_fee_units
        assert scores
        assert charged == pytest.approx(fee * len(scores) / 1.0, rel=1e-6)


# ----------------------------------------------------------------------
# Failover: scripted outages, deterministic replay, cheap recovery
# ----------------------------------------------------------------------
class TestFailover:
    def run_outage(self, capture=False):
        values = load_values(400, seed=5)
        rng = random.Random(9)
        queries = [rng.choice(values) for _ in range(400)]
        plan = FaultPlan().down(replica=0, beats=4, after=2)
        db, table = make_table()
        cfg = ReplicaConfig(
            replicas=3, total_bound_bytes=120_000,
            score_interval_ops=64, heartbeat_interval_ops=32,
            probe_keys=4, faults=plan,
        )
        table.create_index("by_k", ("k",), kind="elastic", replicas=cfg)
        table.insert_batch([(v, v & 0xFF) for v in values])
        results = []
        with db.cost.measure() as delta:
            for v in queries:
                results.append(table.get("by_k", (v,)))
        events = []
        if capture:
            for event in db.event_log():
                kind = type(event).kind
                if kind.startswith("replica"):
                    # seq is a process-global counter; replay identity
                    # is about the payloads, in order.
                    fields = {k: v for k, v in vars(event).items()
                              if k != "seq"}
                    events.append((kind, sorted(fields.items())))
        return results, delta.weighted_cost(), events, plan

    def test_replay_is_deterministic(self):
        first = self.run_outage()
        second = self.run_outage()
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert first[3].exhausted  # the outage actually fired

    def test_failover_events_replay_identically(self):
        with obs.enabled():
            first = self.run_outage(capture=True)
            second = self.run_outage(capture=True)
        assert first[2] == second[2]
        kinds = [kind for kind, _ in first[2]]
        assert "replica_failover" in kinds
        # Recovery is re-admission from cached scores: no rebuilds.
        assert "replica_rebuild" not in kinds

    def test_down_replica_stops_serving_reads(self):
        _, table = make_table()
        plan = FaultPlan().down(replica=0, beats=1000)
        cfg = ReplicaConfig(
            replicas=2, total_bound_bytes=80_000,
            score_interval_ops=32, heartbeat_interval_ops=8, faults=plan,
        )
        secondary = table.create_index("by_k", ("k",), kind="elastic",
                                       replicas=cfg)
        values = load_values(300)
        table.insert_batch([(v, 0) for v in values])
        replica_set = secondary.index
        assert not replica_set.replicas[0].up
        rng = random.Random(2)
        for _ in range(50):
            v = rng.choice(values)
            assert table.get("by_k", (v,)) is not None
        served = replica_set.router.assignment()
        assert all(rid == 1 for rid in served.values())
        # Writes still fan out to the down replica (no content divergence).
        table.insert((3, 3))
        assert len(replica_set.replicas[0]) == len(replica_set.replicas[1])

    def test_all_replicas_down_raises(self):
        _, table = make_table()
        plan = (FaultPlan()
                .down(replica=0, beats=1000)
                .down(replica=1, beats=1000))
        cfg = ReplicaConfig(
            replicas=2, total_bound_bytes=80_000,
            heartbeat_interval_ops=8, faults=plan,
        )
        table.create_index("by_k", ("k",), kind="elastic", replicas=cfg)
        values = load_values(200)
        table.insert_batch([(v, 0) for v in values])
        with pytest.raises(RuntimeError):
            table.get("by_k", (values[0],))

    def test_fault_plan_after_offset(self):
        plan = FaultPlan().down(replica=1, beats=2, after=3)
        beats = [plan.take_heartbeat(1) for _ in range(7)]
        assert beats == [False, False, False, True, True, False, False]
        assert plan.exhausted
        assert not plan.take_heartbeat(0)  # other replicas unaffected

    def test_heartbeat_outages_script_deterministically(self):
        # The cluster tier's vocabulary on the same plan object: a
        # scripted outage of `beats` failed heartbeats after `after`
        # healthy ones, consumed beat by beat.
        plan = FaultPlan().down(replica=0, beats=2).down(
            replica=0, beats=1, after=1)
        assert not plan.exhausted
        seen = [plan.take_heartbeat(0) for _ in range(5)]
        assert seen == [True, True, False, True, False]
        assert plan.exhausted
        # Unscripted replicas never fail a beat.
        assert not plan.take_heartbeat(3)

    def test_heartbeat_outage_validates_arguments(self):
        with pytest.raises(ValueError):
            FaultPlan().down(replica=0, beats=0)
        with pytest.raises(ValueError):
            FaultPlan().down(replica=0, beats=1, after=-1)


# ----------------------------------------------------------------------
# Advisor: billed rebuilds, rebated candidate pricing
# ----------------------------------------------------------------------
class TestAdvisor:
    def build(self):
        db, table = make_table()
        cfg = ReplicaConfig(
            replicas=3, profiles=divergent_profiles(),
            total_bound_bytes=120_000, score_interval_ops=64,
            heartbeat_interval_ops=32, probe_keys=4,
        )
        secondary = table.create_index("by_k", ("k",), kind="elastic",
                                       replicas=cfg)
        values = load_values(400)
        table.insert_batch([(v, v & 0xFF) for v in values])
        return db, table, secondary.index, values

    def test_rebuild_is_billed_and_swaps_profile(self):
        db, table, replica_set, values = self.build()
        advisor = ReplicaAdvisor(replica_set)
        items_before = len(replica_set.replicas[2])
        before = db.cost.weighted_cost()
        with obs.enabled():
            observer = obs.Observer()
            units = advisor.rebuild(2, preset_profile("lattice", weight=0.2))
            events = observer.event_log("replica_rebuild")
            observer.close()
        assert units > 0
        assert db.cost.weighted_cost() - before == pytest.approx(units)
        assert replica_set.replicas[2].profile.name == "lattice"
        assert len(replica_set.replicas[2]) == items_before
        assert len(events) == 1
        assert events[0].old_profile == "compact"
        assert events[0].new_profile == "lattice"
        assert events[0].cost_units == pytest.approx(units)
        # The rebuilt replica still answers reads correctly.
        assert replica_set.replicas[2].index.lookup(
            values[0].to_bytes(8, "big")) is not None

    def test_rebuild_validates_target(self):
        _, _, replica_set, _ = self.build()
        advisor = ReplicaAdvisor(replica_set)
        with pytest.raises(ReplicaConfigError):
            advisor.rebuild(9, preset_profile("lattice"))

    def test_advise_charges_only_the_fee_when_not_rebuilding(self):
        db, table, replica_set, values = self.build()
        rng = random.Random(4)
        for _ in range(200):
            table.get("by_k", (rng.choice(values),))
        advisor = ReplicaAdvisor(replica_set)
        advisor.score_round()
        contributions = advisor.mix_weighted_scores()
        assert set(contributions) == {0, 1, 2}
        before = db.cost.weighted_cost()
        # An improvement bar nothing can clear: no rebuild, fee only.
        decision = advisor.advise(
            [preset_profile("lattice", weight=0.5)],
            improvement_fraction=1.0,
        )
        charged = db.cost.weighted_cost() - before
        assert decision is None
        fee = replica_set.config.advisor_fee_units
        assert 0 <= charged <= fee * 1 + 1e-9

    def test_rebuild_keeps_the_create_index_keywords(self):
        _, table = make_table()
        secondary = table.create_index(
            "by_k", ("k",), kind="elastic", size_bound_bytes=200_000,
            replicas=ReplicaConfig(replicas=2, profiles=(
                ReplicaProfile(name="a"), ReplicaProfile(name="b"))),
            shrink_trigger_fraction=0.6, expand_trigger_fraction=0.45,
        )
        table.insert_batch([(v, 0) for v in load_values(3000)])
        replica_set = secondary.index
        ReplicaAdvisor(replica_set).rebuild(1, ReplicaProfile(name="b2"))
        for replica in replica_set.replicas:
            config = replica.index.config
            assert (config.shrink_trigger_fraction,
                    config.expand_trigger_fraction) == (0.6, 0.45)
        replica_set.check_invariants()

    def test_uncacheable_profile_is_refused_before_any_charge(self):
        db, table, replica_set, _ = self.build()
        hot = ReplicaProfile(name="hot", kind="hot",
                             cache=CacheConfig(budget_bytes=16 * 1024))
        with pytest.raises(CacheConfigError):
            table.create_index(
                "by_hot", ("k",), kind="elastic", replicas=ReplicaConfig(
                    replicas=2, total_bound_bytes=120_000,
                    profiles=(preset_profile("lattice"), hot),
                ),
            )
        before = dict(db.cost.counts)
        with pytest.raises(CacheConfigError):
            ReplicaAdvisor(replica_set).rebuild(2, hot)
        assert dict(db.cost.counts) == before
        assert replica_set.replicas[2].profile.name == "compact"

    def build_enrolled(self):
        db, table = make_table()
        arbiter = db.enable_budget_arbiter(1 << 20)
        secondary = table.create_index(
            "by_k", ("k",), kind="elastic", replicas=ReplicaConfig(
                replicas=3, profiles=divergent_profiles(),
                total_bound_bytes=120_000,
            ),
        )
        table.insert_batch([(v, v & 0xFF) for v in load_values(400)])
        return db, arbiter, secondary.index

    @staticmethod
    def enrolled(arbiter):
        """What the arbiter holds: name -> id of controller / cache."""
        return (
            {n: id(c) for n, c in zip(arbiter.shard_names,
                                      arbiter.controllers)},
            {n: id(c) for n, c in arbiter._caches.items()},
        )

    @staticmethod
    def live(replica_set):
        """The replicas' live controllers and caches, by replica name."""
        return (
            {r.name: id(r.index.controller) for r in replica_set.replicas},
            {r.name: id(r.index.cache) for r in replica_set.replicas
             if r.index.cache is not None},
        )

    def test_rebuild_re_enrolls_with_the_arbiter(self):
        _, arbiter, replica_set = self.build_enrolled()
        advisor = ReplicaAdvisor(replica_set)
        assert self.enrolled(arbiter) == self.live(replica_set)
        advisor.rebuild(2, preset_profile("lattice", weight=0.2))
        assert self.enrolled(arbiter) == self.live(replica_set)
        # The cache replica loses its cache.
        advisor.rebuild(1, preset_profile("compact"))
        assert self.enrolled(arbiter) == self.live(replica_set)
        assert arbiter._caches == {}
        replica_set.check_invariants()

    def test_rebuild_keeps_the_live_bound(self):
        db, _, replica_set = self.build_enrolled()
        db.rebalance_budget()
        replica = replica_set.replicas[0]
        held = replica.index.controller.budget.soft_bound_bytes
        assert held != replica.bound_bytes  # the arbiter moved it
        ReplicaAdvisor(replica_set).rebuild(0, preset_profile("compact"))
        assert replica.index.controller.budget.soft_bound_bytes == held
        assert replica.bound_bytes == held

    def test_report_shows_the_live_bound(self):
        from repro.tools.inspect import cluster_summary

        db, _, replica_set = self.build_enrolled()
        db.rebalance_budget()
        held = [r.index.controller.budget.soft_bound_bytes
                for r in replica_set.replicas]
        assert held != [r.bound_bytes for r in replica_set.replicas]
        report = replica_set.replica_report()
        assert [row["bound_bytes"] for row in report] == held
        text = cluster_summary(replica_set)
        for bound in held:
            assert f"{bound / sum(held) * 100:.1f}%" in text
        # An unbounded kind holds no bound.
        ReplicaAdvisor(replica_set).rebuild(2, preset_profile("baseline"))
        assert replica_set.replica_report()[2]["bound_bytes"] == 0


# ----------------------------------------------------------------------
# Arbiter enrollment and tooling
# ----------------------------------------------------------------------
class TestClusterIntegration:
    def test_replicas_enroll_with_budget_arbiter(self):
        db, table = make_table()
        arbiter = db.enable_budget_arbiter(1 << 20)
        table.create_index(
            "by_k", ("k",), kind="elastic",
            replicas=ReplicaConfig(
                replicas=3, profiles=divergent_profiles(),
                total_bound_bytes=120_000,
            ),
        )
        assert sorted(arbiter.shard_names) == [
            "t.by_k/r0", "t.by_k/r1", "t.by_k/r2"]

    def test_cluster_budget_event_announced_at_build(self):
        with obs.enabled():
            db, table = make_table()
            table.create_index(
                "by_k", ("k",), kind="elastic",
                replicas=ReplicaConfig(
                    replicas=3, profiles=divergent_profiles(),
                    total_bound_bytes=90_000,
                ),
            )
            events = db.event_log("cluster_budget")
        assert len(events) == 1
        assert events[0].total_bytes == 90_000
        assert sum(events[0].bounds) == 90_000
        assert events[0].replicas == ["lattice", "cache", "compact"]

    def test_inspect_cluster_summary(self):
        from repro.tools.inspect import cluster_summary

        _, table = make_table()
        secondary = table.create_index(
            "by_k", ("k",), kind="elastic",
            replicas=ReplicaConfig(
                replicas=3, profiles=divergent_profiles(),
                total_bound_bytes=120_000,
            ),
        )
        table.insert_batch([(v, 0) for v in load_values(200)])
        text = cluster_summary(secondary.index)
        for label in ("lattice", "cache", "compact", "bound share"):
            assert label in text
        # Plain indexes render a symmetric single-row table.
        plain = table.create_index("plain", ("v", "k"), kind="stx")
        assert "replica" in cluster_summary(plain.index)

    def test_api_surface(self):
        from repro import api

        for name in ("ReplicaConfig", "ReplicaProfile", "ReplicaSet",
                     "Replica", "ClusterRouter", "ReplicaAdvisor",
                     "ReplicaConfigError", "build_replica_set",
                     "preset_profile"):
            assert hasattr(api, name), name
            assert name in api.__all__, name


# ----------------------------------------------------------------------
# One router call per point read
# ----------------------------------------------------------------------
def five_step_point_read(replica_set, key):
    """A point read the way ``ReplicaSet.lookup`` made it before
    ``ClusterRouter.route_point``: count the access, classify the key,
    sample it, tick the op clock, route.  The heat update, the hot rule,
    the sample trim and the tick body are written out over the router's
    fields, so a change to the router's own copies of them cannot move
    both sides of the comparison.  Returns ``(replica id, tuple id)``."""
    router = replica_set.router
    config = router.config
    bucket = router.bucket_of(key)
    router._heat[bucket] += 1
    router._heat_total += 1
    total = router._heat_total
    hot = total >= config.heat_buckets and (
        router._heat[bucket] * config.heat_buckets
        > config.hot_multiplier * total
    )
    cls = "point_hot" if hot else "point_cold"
    buffer = router._samples[cls]
    buffer.append(key)
    if len(buffer) > config.probe_keys:
        del buffer[: len(buffer) - config.probe_keys]
    router._class_ops[cls] += 1
    router._ops_since_beat += 1
    if router._ops_since_beat >= config.heartbeat_interval_ops:
        router._ops_since_beat = 0
        router.heartbeat()
    router._ops_since_score += 1
    if router._ops_since_score >= config.score_interval_ops:
        router._ops_since_score = 0
        router.score_round()
    replica = router.replica_for(cls)
    return replica.replica_id, replica.index.lookup(key)


def router_state(router):
    return (
        router._heat, router._heat_total, router._samples, router._class_ops,
        router._ops_since_beat, router._ops_since_score, router._assignment,
        router._scores,
    )


#: Heat bucket (of 64) holding the hot keys of the outage cluster.
HOT_BUCKET = 10


def build_outage_cluster():
    """A 3-replica cluster over 16 hot and 400 cold keys, with a
    scripted outage.  Returns ``(db, replica set, hot, values)``."""
    rng = random.Random(21)
    hot = [(HOT_BUCKET << 10 | rng.randrange(1024)) << 48
           | rng.getrandbits(48) for _ in range(16)]
    values = sorted(set(hot) | {rng.getrandbits(64) for _ in range(400)})
    # The load consumes heartbeat 0, then reads beat every 16 ops and
    # score every 64: replica 0 goes down on beat 8 (read 128, a scoring
    # step) and comes back on beat 12 (read 192, another); on beats
    # 19-20 every replica is down.
    plan = (FaultPlan()
            .down(replica=0, beats=4, after=8)
            .down(replica=0, beats=2, after=7)
            .down(replica=1, beats=2, after=19)
            .down(replica=2, beats=2, after=19))
    db, table = make_table()
    cfg = ReplicaConfig(
        replicas=3, profiles=divergent_profiles(),
        total_bound_bytes=120_000, score_interval_ops=64,
        heartbeat_interval_ops=16, faults=plan,
    )
    secondary = table.create_index("by_k", ("k",), kind="elastic",
                                   replicas=cfg)
    table.insert_batch([(v, v & 0xFF) for v in values])
    return db, secondary.index, hot, values


class TestRoutePoint:
    def test_matches_the_five_step_read(self):
        db, replica_set, hot, values = build_outage_cluster()
        ref_db, ref_set, _, _ = build_outage_cluster()
        router, ref_router = replica_set.router, ref_set.router
        served = []
        route = router.route_point

        def spy(key):
            replica = route(key)
            served.append(replica.replica_id)
            return replica

        router.route_point = spy
        rng = random.Random(22)
        coinciding = refused = 0
        for _ in range(600):
            value = rng.choice(hot) if rng.random() < 0.5 else (
                rng.choice(values) if rng.random() < 0.8
                else rng.getrandbits(64))
            key = value.to_bytes(8, "big")
            up_before = [replica.up for replica in replica_set.replicas]
            try:
                tid = replica_set.lookup(key)
                got = (served.pop(), tid)
            except RuntimeError as exc:
                got = ("raised", str(exc))
            try:
                want = five_step_point_read(ref_set, key)
            except RuntimeError as exc:
                want = ("raised", str(exc))
            assert got == want
            assert got[0] == "raised" or replica_set.replicas[got[0]].up
            assert router_state(router) == router_state(ref_router)
            assert list(db.cost.counts.items()) == \
                list(ref_db.cost.counts.items())
            router.check_invariants()
            refused += got[0] == "raised"
            up_after = [replica.up for replica in replica_set.replicas]
            coinciding += (up_after != up_before
                           and router._ops_since_score == 0)
        assert refused  # the all-down window was reached
        assert coinciding >= 2  # up/down transitions on scoring steps
        assert router._class_ops["point_hot"] > 0
        assert router._class_ops["point_cold"] > 0

    def test_samples_keep_the_last_probe_keys(self):
        _, replica_set, hot, _ = build_outage_cluster()
        router = replica_set.router
        keys = [value.to_bytes(8, "big") for value in hot[:9]]
        for key in keys:
            router.route_point(key)
        # Fewer reads than heat buckets: every one of them is cold.
        assert router._samples == {
            "point_hot": [], "point_cold": keys[-router.config.probe_keys:],
            "batch": [], "scan": [],
        }


class TestRouterInvariants:
    @pytest.fixture(scope="class")
    def composed(self):
        from tests.test_hot_path_accounting import _cluster_mix

        return _cluster_mix()

    def test_hold_on_a_live_composed_database(self, composed):
        _, table = composed
        table.indexes["by_id"].index.router.check_invariants()
        table.indexes["by_id"].index.check_invariants()

    @pytest.mark.parametrize("corrupt, invariant", [
        (lambda r: r._heat.__setitem__(0, r._heat[0] + 1), "heat buckets"),
        (lambda r: r._samples["scan"].extend(
            [b"k"] * (r.config.probe_keys + 1)), "sample buffers"),
        (lambda r: setattr(r, "_ops_since_beat",
                           r.config.heartbeat_interval_ops),
         "heartbeat counter"),
        (lambda r: setattr(r, "_ops_since_score",
                           r.config.score_interval_ops),
         "score counter"),
        (lambda r: r._assignment.__setitem__("scan", len(r.replicas)),
         "assignment"),
    ])
    def test_corruption_raises(self, corrupt, invariant):
        _, replica_set, _, _ = build_outage_cluster()
        router = replica_set.router
        router.check_invariants()
        corrupt(router)
        with pytest.raises(ValueError, match=invariant):
            router.check_invariants()


class TestReplicaSetInvariants:
    @pytest.mark.parametrize("corrupt, invariant", [
        (lambda rs: setattr(rs.replicas[1], "replica_id", 2),
         "replica_id"),
        (lambda rs: rs.router.replicas.reverse(), "router.replicas"),
        (lambda rs: rs.replicas[0].index.insert(b"\x00" * 8, 1 << 40),
         "same item count"),
        (lambda rs: rs.router._heat.__setitem__(0, rs.router._heat[0] + 1),
         "ClusterRouter invariant broken: heat buckets"),
    ])
    def test_corruption_raises(self, corrupt, invariant):
        _, replica_set, _, _ = build_outage_cluster()
        replica_set.check_invariants()
        corrupt(replica_set)
        with pytest.raises(ValueError, match=invariant):
            replica_set.check_invariants()
