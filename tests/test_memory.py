"""Unit tests for the memory substrate: allocator, cost model, budget."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.allocator import TrackingAllocator, jemalloc_size_class
from repro.memory.budget import MemoryBudget, PressureState
from repro.memory.cost_model import CostModel, CostWeights


class TestSizeClasses:
    def test_tiny(self):
        assert jemalloc_size_class(0) == 0
        assert jemalloc_size_class(1) == 8
        assert jemalloc_size_class(8) == 8
        assert jemalloc_size_class(9) == 16

    def test_small(self):
        assert jemalloc_size_class(100) == 112
        assert jemalloc_size_class(128) == 128

    def test_groups_of_four(self):
        # Between 128 and 256 the step is 32.
        assert jemalloc_size_class(129) == 160
        assert jemalloc_size_class(160) == 160
        assert jemalloc_size_class(161) == 192
        # Between 256 and 512 the step is 64.
        assert jemalloc_size_class(300) == 320

    def test_monotone_and_geq(self):
        prev = 0
        for n in range(1, 5000, 7):
            cls = jemalloc_size_class(n)
            assert cls >= n
            assert cls >= prev
            prev = cls


class TestTrackingAllocator:
    def test_allocate_free_balance(self):
        alloc = TrackingAllocator(use_size_classes=False)
        alloc.allocate(100, "a")
        alloc.allocate(50, "b")
        assert alloc.total_bytes == 150
        alloc.free(100, "a")
        assert alloc.total_bytes == 50
        alloc.free(50, "b")
        alloc.assert_balanced()

    def test_rounding_applied(self):
        alloc = TrackingAllocator(use_size_classes=True)
        alloc.allocate(100, "a")
        assert alloc.total_bytes == 112

    def test_over_free_rejected(self):
        alloc = TrackingAllocator(use_size_classes=False)
        alloc.allocate(10, "a")
        with pytest.raises(ValueError):
            alloc.free(20, "a")

    def test_peak_tracking(self):
        alloc = TrackingAllocator(use_size_classes=False)
        alloc.allocate(100)
        alloc.allocate(100)
        alloc.free(100)
        assert alloc.peak_bytes == 200

    def test_resize(self):
        alloc = TrackingAllocator(use_size_classes=False)
        alloc.allocate(64, "x")
        alloc.resize(64, 128, "x")
        assert alloc.bytes_in("x") == 128

    def test_breakdown_hides_empty(self):
        alloc = TrackingAllocator(use_size_classes=False)
        alloc.allocate(10, "a")
        alloc.free(10, "a")
        assert alloc.breakdown() == {}

    # The leak checks raise even under ``python -O``.
    def test_leak_in_category_raises(self):
        alloc = TrackingAllocator(use_size_classes=False)
        alloc.allocate(10, "a")
        alloc.assert_balanced("b")
        with pytest.raises(AssertionError,
                           match="10 bytes leaked in category 'a'"):
            alloc.assert_balanced("a")

    def test_total_leak_raises(self):
        alloc = TrackingAllocator(use_size_classes=False)
        alloc.allocate(10, "a")
        with pytest.raises(AssertionError, match="10 bytes leaked"):
            alloc.assert_balanced()


class TestCostModel:
    def test_counters(self):
        cost = CostModel()
        cost.rand_lines(3)
        cost.compares(10)
        assert cost.counts == {"rand_line": 3, "compare": 10}

    def test_weighted_cost(self):
        cost = CostModel(weights=CostWeights(rand_line=2.0, compare=0.5))
        cost.rand_lines(3)
        cost.compares(4)
        assert cost.weighted_cost() == pytest.approx(8.0)

    def test_copy_bytes_rounds_to_lines(self):
        cost = CostModel()
        cost.copy_bytes(1)
        cost.copy_bytes(65)
        assert cost.counts["copy_line"] == 3

    def test_touch_bytes_seq(self):
        cost = CostModel()
        cost.touch_bytes_seq(200)  # 4 lines: 1 random + 3 sequential
        assert cost.counts["rand_line"] == 1
        assert cost.counts["seq_line"] == 3

    def test_disabled_model_charges_nothing(self):
        cost = CostModel(enabled=False)
        cost.rand_lines(5)
        assert cost.counts == {}

    def test_measure_delta(self):
        cost = CostModel()
        cost.rand_lines(1)
        with cost.measure() as delta:
            cost.rand_lines(2)
            cost.compares(3)
        assert delta.counts == {"rand_line": 2, "compare": 3}
        assert cost.counts["rand_line"] == 3

    def test_paused(self):
        cost = CostModel()
        with cost.paused():
            cost.rand_lines(5)
        cost.rand_lines(1)
        assert cost.counts == {"rand_line": 1}

    def test_fixed_ops(self):
        cost = CostModel()
        cost.fixed_ops(2.5)
        assert cost.weighted_cost() == pytest.approx(2.5)

    def test_attribution_tags_charges(self):
        cost = CostModel()
        cost.rand_lines(1)
        with cost.attributed_to("hot_path"):
            cost.rand_lines(2)
            cost.compares(5)
        cost.rand_lines(1)
        assert cost.counts["rand_line"] == 4  # global counters see all
        assert cost.tagged["hot_path"] == {"rand_line": 2, "compare": 5}
        assert cost.tagged_cost("hot_path") == pytest.approx(2 + 5 * 0.02)
        assert cost.tagged_cost("unknown") == 0.0

    def test_attribution_nesting_innermost_wins(self):
        cost = CostModel()
        with cost.attributed_to("outer"):
            cost.rand_lines(1)
            with cost.attributed_to("inner"):
                cost.rand_lines(1)
            cost.rand_lines(1)
        assert cost.tagged["outer"]["rand_line"] == 2
        assert cost.tagged["inner"]["rand_line"] == 1

    def test_reset_clears_tags(self):
        cost = CostModel()
        with cost.attributed_to("t"):
            cost.rand_lines(1)
        cost.reset()
        assert cost.tagged == {} and cost.counts == {}


_CATEGORIES = st.sampled_from(["rand_line", "seq_line", "compare", "branch"])
_COUNTS = st.integers(min_value=-2, max_value=3)
_CHARGE = st.tuples(st.just("charge"), _CATEGORIES, _COUNTS)
_MANY = st.tuples(
    st.just("many"),
    st.lists(st.tuples(_CATEGORIES, _COUNTS), min_size=1, max_size=4),
)
#: A charging program: single and grouped charges, nested under
#: ``attributed_to``, a hand-set ``_attribution``, ``paused()`` and
#: ``measure()`` (whose delta may then be rebated).
_PROGRAM = st.recursive(
    st.lists(st.one_of(_CHARGE, _MANY), max_size=4),
    lambda inner: st.lists(
        st.one_of(
            _CHARGE,
            _MANY,
            st.tuples(st.sampled_from(["attributed", "hand"]),
                      st.sampled_from(["a", "b", "c"]), inner),
            st.tuples(st.just("paused"), inner),
            st.tuples(st.just("measure"), st.booleans(), inner),
        ),
        max_size=5,
    ),
    max_leaves=24,
)


def _play(cost, program, grouped, deltas):
    """Run ``program`` on ``cost``: a group is one ``charge_many`` call
    when ``grouped``, back-to-back ``charge`` calls otherwise."""
    for op in program:
        kind = op[0]
        if kind == "charge":
            cost.charge(op[1], op[2])
        elif kind == "many":
            if grouped:
                cost.charge_many(*(x for pair in op[1] for x in pair))
            else:
                for category, count in op[1]:
                    cost.charge(category, count)
        elif kind == "attributed":
            with cost.attributed_to(op[1]):
                _play(cost, op[2], grouped, deltas)
        elif kind == "hand":
            previous = cost._attribution
            cost._attribution = op[1]
            try:
                _play(cost, op[2], grouped, deltas)
            finally:
                cost._attribution = previous
        elif kind == "paused":
            with cost.paused():
                _play(cost, op[1], grouped, deltas)
        else:
            with cost.measure() as delta:
                _play(cost, op[2], grouped, deltas)
            deltas.append(list(delta.counts.items()))
            if op[1]:
                cost.rebate_delta(delta)


class TestChargeMany:
    def test_argument_order_and_zero_counts(self):
        cost = CostModel()
        with cost.attributed_to("t"):
            cost.charge_many("seq_line", 2, "rand_line", 0,
                             "compare", 3, "rand_line", 1)
            cost.charge_many("branch", 0)
        assert list(cost.counts.items()) == [
            ("seq_line", 2), ("compare", 3), ("rand_line", 1)
        ]
        assert list(cost.tagged.items()) == [
            ("t", {"seq_line": 2, "compare": 3, "rand_line": 1})
        ]
        # A group of zero counts builds no bucket, as charge(c, 0) does.
        with cost.attributed_to("u"):
            cost.charge_many("compare", 0, "branch", 0)
        assert "u" not in cost.tagged

    def test_disabled_model_charges_nothing(self):
        cost = CostModel(enabled=False)
        cost.charge_many("rand_line", 1, "compare", 2)
        assert cost.counts == {} and cost.tagged == {}

    @given(_PROGRAM)
    @settings(max_examples=150, deadline=None)
    def test_equals_single_charges(self, program):
        """``charge_many`` leaves the ledger of the ``charge`` calls it
        stands for: totals and key order in ``counts``, every bucket's
        order and totals, and every ``measure()`` delta."""
        ledgers = []
        for grouped in (True, False):
            cost, deltas = CostModel(), []
            _play(cost, program, grouped, deltas)
            ledgers.append((
                list(cost.counts.items()),
                [(tag, list(bucket.items()))
                 for tag, bucket in cost.tagged.items()],
                deltas,
            ))
        assert ledgers[0] == ledgers[1]


class TestMemoryBudget:
    def test_thresholds(self):
        budget = MemoryBudget(1000, 0.9, 0.75)
        assert budget.shrink_threshold_bytes == 900
        assert budget.expand_threshold_bytes == 750

    def test_requires_hysteresis(self):
        with pytest.raises(ValueError):
            MemoryBudget(1000, 0.5, 0.9)
        with pytest.raises(ValueError):
            MemoryBudget(0)

    def test_normal_to_shrinking(self):
        budget = MemoryBudget(1000)
        assert budget.observe(100) is PressureState.NORMAL
        assert budget.observe(899) is PressureState.NORMAL
        assert budget.observe(900) is PressureState.SHRINKING

    def test_shrinking_to_expanding_needs_hysteresis(self):
        budget = MemoryBudget(1000, 0.9, 0.75)
        budget.observe(950)
        # Dropping just below the shrink threshold is not enough.
        assert budget.observe(880) is PressureState.SHRINKING
        assert budget.observe(700) is PressureState.EXPANDING

    def test_expanding_back_to_shrinking(self):
        budget = MemoryBudget(1000, 0.9, 0.75)
        budget.observe(950)
        budget.observe(700)
        assert budget.observe(920) is PressureState.SHRINKING

    def test_settle(self):
        budget = MemoryBudget(1000, 0.9, 0.75)
        budget.observe(950)
        budget.observe(700)
        budget.settle()
        assert budget.state is PressureState.NORMAL

    def test_no_oscillation_within_band(self):
        budget = MemoryBudget(1000, 0.9, 0.75)
        budget.observe(950)
        transitions_before = budget.transitions
        # Bouncing within (expand, shrink) thresholds causes no flapping.
        for size in (890, 850, 880, 800, 870, 760):
            budget.observe(size)
        assert budget.transitions == transitions_before

    def test_headroom(self):
        budget = MemoryBudget(1000)
        assert budget.headroom_bytes(800) == 100


class TestSetSoftBound:
    """Runtime re-bounding (the budget arbiter's entry point) must move
    the thresholds without losing hysteresis state."""

    def test_moves_thresholds(self):
        budget = MemoryBudget(1000, 0.9, 0.75)
        budget.set_soft_bound(2000)
        assert budget.soft_bound_bytes == 2000
        assert budget.shrink_threshold_bytes == 1800
        assert budget.expand_threshold_bytes == 1500

    def test_invalid_bound_rejected(self):
        budget = MemoryBudget(1000)
        with pytest.raises(ValueError):
            budget.set_soft_bound(0)
        with pytest.raises(ValueError):
            budget.set_soft_bound(-5)
        assert budget.soft_bound_bytes == 1000

    def test_shrinking_survives_a_raise(self):
        """Granting more budget must NOT silently flip SHRINKING back to
        NORMAL: the state machine has no such edge, and compact leaves
        may still need decompacting.  The state persists until an observe
        drives an ordinary transition under the new thresholds."""
        budget = MemoryBudget(1000, 0.9, 0.75)
        budget.observe(950)
        assert budget.state is PressureState.SHRINKING
        assert budget.set_soft_bound(10_000) is PressureState.SHRINKING
        # Inside the new hysteresis band (expand 7500, shrink 9000) the
        # state holds: no silent SHRINKING -> NORMAL flip.
        assert budget.observe(8000) is PressureState.SHRINKING
        # Below the new expand threshold the ordinary SHRINKING ->
        # EXPANDING edge fires (decompaction, not a teleport to NORMAL),
        # exactly as if the bound had always been 10_000.
        assert budget.observe(7000) is PressureState.EXPANDING

    def test_shrinking_survives_a_drop(self):
        budget = MemoryBudget(1000, 0.9, 0.75)
        budget.observe(950)
        assert budget.set_soft_bound(800, current_bytes=950) is (
            PressureState.SHRINKING
        )
        assert budget.shrink_threshold_bytes == 720

    def test_transition_counter_survives_rebound(self):
        budget = MemoryBudget(1000, 0.9, 0.75)
        budget.observe(950)  # NORMAL -> SHRINKING
        assert budget.transitions == 1
        budget.set_soft_bound(500)
        # 1600 sits inside the new band (expand 1500, shrink 1800): the
        # re-bound itself must not mint a transition.
        budget.set_soft_bound(2000, current_bytes=1600)
        assert budget.transitions == 1

    def test_optional_observe_runs_against_new_thresholds(self):
        budget = MemoryBudget(1000, 0.9, 0.75)
        assert budget.state is PressureState.NORMAL
        # 500 would be comfortable under the old bound; under the new
        # bound of 520 it is past the shrink threshold (468).
        assert budget.set_soft_bound(520, current_bytes=500) is (
            PressureState.SHRINKING
        )
        # Without current_bytes no observe runs at all.
        budget2 = MemoryBudget(1000, 0.9, 0.75)
        assert budget2.set_soft_bound(520) is PressureState.NORMAL
        assert budget2.transitions == 0


class TestPrefetchWaves:
    """mlp_window / wave_loads: the prefetch-wave accounting primitive."""

    def test_wave_grouping_and_partial_flush(self):
        cost = CostModel()
        with cost.mlp_window(3) as wave:
            for _ in range(7):
                cost.wave_loads("rand_line")
        # 7 loads at W=3: two full waves + one partial flushed on close.
        assert cost.counts == {"rand_line": 3, "wave_issue": 3}
        assert wave.loads == 7 and wave.waves == 3
        assert wave.overlapped == 4
        assert wave.serial_units == pytest.approx(7.0)
        assert wave.wave_units == pytest.approx(3 * 1.1)
        assert wave.saved_units == pytest.approx(7.0 - 3.3)

    def test_no_window_is_plain_charge(self):
        cost = CostModel()
        cost.wave_loads("rand_line", 5)
        assert cost.counts == {"rand_line": 5}

    def test_width_one_is_exact_serial_passthrough(self):
        serial = CostModel()
        serial.rand_lines(5)
        serial.key_loads_batched(3)
        waved = CostModel()
        with waved.mlp_window(1) as wave:
            waved.wave_loads("rand_line", 5)
            waved.key_loads_batched(3)
        assert waved.counts == serial.counts
        assert wave.loads == 0  # inert stats: nothing wave-priced
        assert waved.mlp_totals.loads == 0

    def test_w3_key_load_wave_is_batched_rate_fixed_point(self):
        # (key_load 1.25 + wave_issue 0.10) / 3 == key_load_batched 0.45.
        flat = CostModel()
        with flat.mlp_batch():
            flat.key_loads(3)
        waved = CostModel()
        with waved.mlp_window(3):
            with waved.mlp_batch():
                waved.key_loads(3)
        assert waved.weighted_cost() == pytest.approx(flat.weighted_cost())
        assert waved.counts == {"key_load": 1, "wave_issue": 1}

    def test_key_loads_batched_joins_window_waves(self):
        cost = CostModel()
        with cost.mlp_window(4):
            cost.key_loads_batched(8)
        assert cost.counts == {"key_load": 2, "wave_issue": 2}

    def test_dependent_key_loads_stay_serial_under_window(self):
        cost = CostModel()
        with cost.mlp_window(4):
            cost.key_loads(2)  # not inside mlp_batch: dependent chase
        assert cost.counts == {"key_load": 2}

    def test_nested_windows_join_the_outermost(self):
        cost = CostModel()
        with cost.mlp_window(3) as outer:
            cost.wave_loads("rand_line", 2)
            with cost.mlp_window(8) as inner:  # width ignored: joins outer
                cost.wave_loads("rand_line", 1)
            assert inner is outer
            # 3 accumulated loads completed one wave inside the block.
            assert cost.counts == {"rand_line": 1, "wave_issue": 1}
        assert outer.waves == 1 and outer.loads == 3

    def test_window_flush_is_exception_safe(self):
        cost = CostModel()
        with pytest.raises(RuntimeError):
            with cost.mlp_window(4):
                cost.wave_loads("rand_line", 2)
                raise RuntimeError("boom")
        # Partial wave flushed, window closed, model reusable.
        assert cost.counts == {"rand_line": 1, "wave_issue": 1}
        assert cost._wave is None
        cost.wave_loads("rand_line", 1)
        assert cost.counts["rand_line"] == 2

    def test_flush_order_is_deterministic_per_category(self):
        cost = CostModel()
        with cost.mlp_window(4):
            cost.wave_loads("rand_line", 1)
            cost.wave_loads("key_load", 1)
        assert cost.counts == {"rand_line": 1, "key_load": 1,
                               "wave_issue": 2}

    def test_disabled_model_ignores_windows(self):
        cost = CostModel(enabled=False)
        with cost.mlp_window(4) as wave:
            cost.wave_loads("rand_line", 8)
        assert cost.counts == {} and wave.loads == 0

    def test_using_mlp_width_scopes_the_default(self):
        cost = CostModel()
        assert cost.mlp_width == 1
        with cost.using_mlp_width(4):
            with cost.mlp_window():  # picks up the scoped default
                cost.wave_loads("rand_line", 4)
        assert cost.mlp_width == 1
        assert cost.counts == {"rand_line": 1, "wave_issue": 1}
        with pytest.raises(ValueError):
            with cost.using_mlp_width(0):
                pass

    def test_mlp_summary_and_reset(self):
        cost = CostModel()
        with cost.mlp_window(2):
            cost.wave_loads("rand_line", 4)
        summary = cost.mlp_summary()
        assert summary["loads"] == 4 and summary["waves"] == 2
        assert summary["overlapped"] == 2
        assert summary["saved_units"] == pytest.approx(4.0 - 2 * 1.1)
        cost.reset()
        assert cost.mlp_summary()["loads"] == 0

    def test_mlp_batch_nesting_and_exception_unwind(self):
        cost = CostModel()
        with cost.mlp_batch():
            with cost.mlp_batch():
                cost.key_loads(1)
            cost.key_loads(1)  # still inside the outer block
        assert cost.counts == {"key_load_batched": 2}
        with pytest.raises(RuntimeError):
            with cost.mlp_batch():
                raise RuntimeError("boom")
        assert cost._mlp_depth == 0
        cost.key_loads(1)  # back to the dependent rate after unwind
        assert cost.counts["key_load"] == 1

    # The depth guards raise even under ``python -O``.
    def test_mlp_batch_underflow_is_guarded(self):
        cost = CostModel()
        cm = cost.mlp_batch()
        cm.__enter__()
        cost._mlp_depth = 0  # simulate corrupted bookkeeping
        with pytest.raises(AssertionError, match="mlp_batch depth underflow"):
            cm.__exit__(None, None, None)

    def test_nested_mlp_window_underflow_is_guarded(self):
        cost = CostModel()
        with pytest.raises(AssertionError, match="mlp_window depth underflow"):
            with cost.mlp_window(2):
                with cost.mlp_window(2):
                    cost._wave.depth = 1  # corrupted bookkeeping

    def test_outer_mlp_window_depth_is_guarded(self):
        cost = CostModel()
        with pytest.raises(AssertionError, match="mlp_window depth underflow"):
            with cost.mlp_window(2):
                cost._wave.depth = 2  # an inner window that never closed


class TestRebateResidues:
    """rebate_delta / charge_parallel never leave negative residues."""

    def test_rebate_under_foreign_attribution_stays_clean(self):
        cost = CostModel()
        with cost.attributed_to("original"):
            with cost.measure() as delta:
                cost.rand_lines(3)
        with cost.attributed_to("other"):
            cost.compares(1)
            cost.rebate_delta(delta)
        # Global ledger rebated; neither tag picked up negative counts.
        assert cost.counts["rand_line"] == 0
        assert cost.tagged["original"] == {"rand_line": 3}
        assert "rand_line" not in cost.tagged.get("other", {})

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["rand_line", "key_load", "compare"]),
                st.integers(min_value=1, max_value=5),
                st.sampled_from(["", "a", "b"]),
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_measure_rebate_interleavings(self, steps, width):
        cost = CostModel()
        deltas = []
        for category, count, tag, rebate_now in steps:
            if tag:
                with cost.attributed_to(tag):
                    with cost.measure() as delta:
                        cost.charge(category, count)
            else:
                with cost.measure() as delta:
                    cost.charge(category, count)
            if rebate_now:
                # Interleave: rebate immediately under a different tag.
                with cost.attributed_to("rebater"):
                    cost.rebate_delta(delta)
            else:
                deltas.append(delta)
        if deltas:
            cost.charge_parallel(
                [delta.counts for delta in deltas], width,
                coordination_units=0.5,
            )
        for category, count in cost.counts.items():
            assert count >= 0, (category, cost.counts)
        for tag, bucket in cost.tagged.items():
            for category, count in bucket.items():
                assert count >= 0, (tag, category, cost.tagged)
        assert cost.weighted_cost() >= 0.0

    def test_charge_parallel_with_wave_priced_deltas(self):
        # Wave-priced deltas rebate exactly what they charged (fees
        # included): composition, not double discount.
        cost = CostModel()
        deltas = []
        for _ in range(4):
            with cost.measure() as delta:
                with cost.mlp_window(4):
                    cost.wave_loads("rand_line", 4)
            deltas.append(delta)
        serial_sum, critical = cost.charge_parallel(
            [delta.counts for delta in deltas], width=4
        )
        assert serial_sum == pytest.approx(4 * 1.1)
        assert critical == pytest.approx(1.1)
        assert cost.counts["rand_line"] == 1
        assert cost.counts["wave_issue"] == 1
        assert all(c >= 0 for c in cost.counts.values())
