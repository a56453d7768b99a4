"""Tests for quantum policies (Algorithm 1), barrier model, and stats."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AdaptiveQuantumPolicy,
    AimdQuantumPolicy,
    BarrierModel,
    BucketTimeline,
    FixedQuantumPolicy,
    HostCostBreakdown,
    QuantumStats,
    ThresholdAdaptivePolicy,
)
from repro.core.quantum import QuantumPolicy, suggested_dec
from repro.engine.units import MICROSECOND


US = MICROSECOND


class TestFixedPolicy:
    def test_constant(self):
        policy = FixedQuantumPolicy(10 * US)
        q = policy.initial()
        assert q == 10 * US
        assert policy.next(q, 0) == 10 * US
        assert policy.next(q, 500) == 10 * US

    def test_idle_chunk_counts(self):
        policy = FixedQuantumPolicy(10)
        lengths, state = policy.idle_chunk(10.0, span=95, max_windows=100)
        assert list(lengths) == [10] * 9
        assert state == 10.0

    def test_idle_chunk_respects_max_windows(self):
        policy = FixedQuantumPolicy(10)
        lengths, _ = policy.idle_chunk(10.0, span=1000, max_windows=3)
        assert len(lengths) == 3

    def test_describe(self):
        assert FixedQuantumPolicy(US).describe() == "fixed 1.000us"


class TestAdaptivePolicy:
    def make(self, inc=1.03, dec=0.02):
        return AdaptiveQuantumPolicy(US, 1000 * US, inc=inc, dec=dec)

    def test_starts_at_minimum(self):
        assert self.make().initial() == US

    def test_algorithm1_grow_on_silence(self):
        policy = self.make()
        assert policy.next(1000.0, 0) == pytest.approx(1030.0)

    def test_algorithm1_shrink_on_traffic(self):
        policy = self.make()
        q = policy.next(500_000.0, 1)
        assert q == pytest.approx(10_000.0)
        # One more busy quantum floors it (the "speed bump").
        assert policy.next(q, 7) == pytest.approx(US)  # clamped at min

    def test_clamped_at_max(self):
        policy = self.make()
        q = float(1000 * US)
        assert policy.next(q, 0) == 1000 * US

    def test_clamped_at_min(self):
        policy = self.make()
        assert policy.next(float(US), 100) == US

    def test_paper_configurations(self):
        dyn1 = AdaptiveQuantumPolicy.paper_dyn1(US, 1000 * US)
        dyn2 = AdaptiveQuantumPolicy.paper_dyn2(US, 1000 * US)
        assert dyn1.inc == 1.03 and dyn2.inc == 1.05
        assert dyn1.dec == dyn2.dec == 0.02

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AdaptiveQuantumPolicy(US, 1000 * US, inc=1.0)
        with pytest.raises(ValueError):
            AdaptiveQuantumPolicy(US, 1000 * US, dec=0.0)
        with pytest.raises(ValueError):
            AdaptiveQuantumPolicy(US, 1000 * US, dec=1.0)
        with pytest.raises(ValueError):
            AdaptiveQuantumPolicy(0, 1000)
        with pytest.raises(ValueError):
            AdaptiveQuantumPolicy(1000, 10)

    @given(
        st.floats(min_value=1000, max_value=1_000_000),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_property_always_in_bounds(self, q, np_count):
        policy = self.make()
        next_q = policy.next(q, np_count)
        assert US <= next_q <= 1000 * US

    @settings(max_examples=50)
    @given(
        st.floats(min_value=1000, max_value=900_000),
        st.integers(min_value=1, max_value=500_000),
        st.integers(min_value=1, max_value=64),
    )
    def test_property_idle_chunk_matches_iteration(self, q0, span, max_windows):
        """The vectorised idle path must equal iterating Algorithm 1."""
        policy = self.make()
        lengths, final_state = policy.idle_chunk(q0, span, max_windows)

        expected = []
        state = q0
        remaining = span
        while len(expected) < max_windows:
            window = policy.window(state)
            if window > remaining:
                break
            expected.append(window)
            remaining -= window
            state = policy.next(state, 0)
        assert list(lengths) == expected
        assert final_state == pytest.approx(state, rel=1e-9)

    def test_idle_chunk_empty_when_window_does_not_fit(self):
        policy = self.make()
        lengths, state = policy.idle_chunk(10_000.0, span=5_000, max_windows=10)
        assert len(lengths) == 0
        assert state == 10_000.0


class TestAblationPolicies:
    def test_aimd_grows_additively(self):
        policy = AimdQuantumPolicy(US, 1000 * US, step=500)
        assert policy.next(5_000.0, 0) == 5_500.0
        assert policy.next(5_000.0, 3) == pytest.approx(US)

    def test_aimd_idle_chunk_matches_iteration(self):
        policy = AimdQuantumPolicy(US, 1000 * US, step=777)
        lengths, final_state = policy.idle_chunk(1_000.0, span=100_000, max_windows=50)
        state, expected, remaining = 1_000.0, [], 100_000
        while len(expected) < 50:
            window = policy.window(state)
            if window > remaining:
                break
            expected.append(window)
            remaining -= window
            state = policy.next(state, 0)
        assert list(lengths) == expected
        assert final_state == pytest.approx(state)

    def test_threshold_tolerates_sparse_traffic(self):
        policy = ThresholdAdaptivePolicy(US, 1000 * US, threshold=2)
        assert policy.next(10_000.0, 2) > 10_000.0
        assert policy.next(10_000.0, 3) < 10_000.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            AimdQuantumPolicy(US, 1000 * US, step=0)
        with pytest.raises(ValueError):
            ThresholdAdaptivePolicy(US, 1000 * US, threshold=0)


IDLE_CHUNK_POLICIES = {
    "fixed": lambda: FixedQuantumPolicy(10 * US),
    "dyn 1": lambda: AdaptiveQuantumPolicy.paper_dyn1(US, 1000 * US),
    "dyn 2": lambda: AdaptiveQuantumPolicy.paper_dyn2(US, 1000 * US),
    "aimd": lambda: AimdQuantumPolicy(US, 1000 * US),
    "threshold": lambda: ThresholdAdaptivePolicy(US, 1000 * US),
}


class TestIdleChunkContract:
    """What the cluster's fast-forward relies on, for every policy's
    ``idle_chunk`` and for the base class's iterative one.

    The driver stops a span as soon as the span left is shorter than the
    current window, without asking for a chunk; that is only sound if
    such a call returns no windows.  (No equality with iterating
    ``next(q, 0)``: the closed form ``q * inc**k`` rounds differently.)
    """

    @settings(max_examples=300, deadline=None)
    @given(
        name=st.sampled_from(sorted(IDLE_CHUNK_POLICIES)),
        iterative=st.booleans(),
        position=st.floats(min_value=0.0, max_value=1.0),
        span=st.integers(min_value=0, max_value=3_000 * US),
        near=st.one_of(
            st.none(),
            st.tuples(
                st.integers(min_value=1, max_value=6),
                st.integers(min_value=-2, max_value=2),
            ),
        ),
        max_windows=st.integers(min_value=0, max_value=300),
    )
    def test_property_windows_fit_the_span(
        self, name, iterative, position, span, near, max_windows
    ):
        policy = IDLE_CHUNK_POLICIES[name]()
        low, high = policy.min_quantum, policy.max_quantum
        q = policy.clamp(low + position * (high - low))
        if near is not None:
            # Spans within a few ns of the first k idle windows' total.
            k, offset = near
            state, total = q, 0
            for _ in range(k):
                total += policy.window(state)
                state = policy.next(state, 0)
            span = max(0, total + offset)
        chunk = QuantumPolicy.idle_chunk if iterative else type(policy).idle_chunk
        lengths, _ = chunk(policy, q, span, max_windows)
        if span < policy.window(q):
            assert len(lengths) == 0
        assert all(length >= 1 for length in lengths.tolist())
        assert int(lengths.sum()) <= span
        assert len(lengths) <= max_windows


class TestSuggestedDec:
    def test_square_root_rule(self):
        assert suggested_dec(1000, 2) == pytest.approx(1 / np.sqrt(1000))

    def test_cube_root_rule(self):
        assert suggested_dec(1000, 3) == pytest.approx(1000 ** (-1 / 3))

    def test_paper_value_is_near_002(self):
        # dec = 0.02 "is very close to 1/sqrt(1000)" (paper Section 5).
        assert suggested_dec(1000, 2) == pytest.approx(0.0316, abs=0.001)

    def test_invalid(self):
        with pytest.raises(ValueError):
            suggested_dec(1)
        with pytest.raises(ValueError):
            suggested_dec(100, 0)


class TestBarrierModel:
    def test_linear_in_nodes(self):
        barrier = BarrierModel(base=1e-3, per_node=1e-4)
        assert barrier.overhead(8) == pytest.approx(1.8e-3)
        assert barrier.overhead(64) - barrier.overhead(8) == pytest.approx(5.6e-3)

    def test_free_barrier(self):
        assert BarrierModel.free().overhead(100) == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            BarrierModel(base=-1)
        with pytest.raises(ValueError):
            BarrierModel().overhead(0)


class TestQuantumStats:
    def test_record_scalar(self):
        stats = QuantumStats()
        stats.record(10)
        stats.record(30)
        stats.record(20, count=2)
        assert stats.quanta == 4
        assert stats.total_quantum_time == 80
        assert stats.min_used == 10
        assert stats.max_used == 30
        assert stats.mean_quantum == 20

    def test_record_lengths(self):
        stats = QuantumStats()
        stats.record_lengths(np.array([5, 50, 10], dtype=np.int64))
        stats.record_lengths(np.empty(0, dtype=np.int64))
        assert stats.quanta == 3
        assert stats.min_used == 5
        assert stats.max_used == 50

    def test_empty(self):
        assert QuantumStats().mean_quantum == 0.0


class TestHostCostBreakdown:
    def test_accumulates(self):
        breakdown = HostCostBreakdown()
        breakdown.add(2.0, 1.0)
        breakdown.add(1.0, 0.0)
        assert breakdown.total == 4.0
        assert breakdown.barrier_fraction == 0.25

    def test_empty_fraction(self):
        assert HostCostBreakdown().barrier_fraction == 0.0


class TestBucketTimeline:
    def test_add_accumulates_per_bucket(self):
        timeline = BucketTimeline(100)
        timeline.add(5, 1.0)
        timeline.add(50, 2.0)
        timeline.add(150, 4.0)
        assert timeline.series() == [(0, 3.0), (100, 4.0)]
        assert timeline.total_host_time == 7.0
        assert len(timeline) == 2

    def test_add_span_distributes_proportionally(self):
        timeline = BucketTimeline(100)
        timeline.add_span(50, 250, 4.0)  # 25% / 50% / 25%
        series = dict(timeline.series())
        assert series[0] == pytest.approx(1.0)
        assert series[100] == pytest.approx(2.0)
        assert series[200] == pytest.approx(1.0)

    def test_add_span_degenerate(self):
        timeline = BucketTimeline(100)
        timeline.add_span(70, 70, 3.0)
        assert timeline.series() == [(0, 3.0)]

    def test_speedup_series(self):
        timeline = BucketTimeline(1_000_000)  # 1 ms buckets
        timeline.add(0, 0.002)  # 2 host-seconds per sim-second
        timeline.add(1_000_000, 0.0005)
        series = timeline.speedup_series(baseline_host_per_sim_second=2.0)
        assert series[0] == (0, pytest.approx(1.0))
        assert series[1] == (1_000_000, pytest.approx(4.0))

    def test_invalid(self):
        with pytest.raises(ValueError):
            BucketTimeline(0)
        timeline = BucketTimeline(10)
        with pytest.raises(ValueError):
            timeline.add(0, -1.0)
        with pytest.raises(ValueError):
            timeline.speedup_series(0.0)
