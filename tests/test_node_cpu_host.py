"""Tests for the CPU timing model and the host execution model."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.engine import RngStreams
from repro.node import CpuModel, HostExecutionModel, HostModelParams
from repro.node.hostmodel import BUSY, IDLE


class TestCpuModel:
    def test_defaults_are_paper_opteron(self):
        cpu = CpuModel()
        assert cpu.frequency_hz == pytest.approx(2.6e9)
        # 2.6e9 ops == one simulated second.
        assert cpu.compute_time(2.6e9) == 1_000_000_000

    def test_zero_ops_is_free(self):
        assert CpuModel().compute_time(0) == 0

    def test_tiny_work_rounds_up_to_1ns(self):
        assert CpuModel().compute_time(1) == 1

    def test_ipc_scales(self):
        wide = CpuModel(frequency_hz=1e9, ipc=4.0)
        narrow = CpuModel(frequency_hz=1e9, ipc=1.0)
        assert narrow.compute_time(4e9) == 4 * wide.compute_time(4e9)

    def test_ops_for_time_round_trip(self):
        cpu = CpuModel()
        ops = 1_000_000
        assert cpu.ops_for_time(cpu.compute_time(ops)) == pytest.approx(ops, rel=1e-6)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CpuModel(frequency_hz=0)
        with pytest.raises(ValueError):
            CpuModel(ipc=-1)
        with pytest.raises(ValueError):
            CpuModel().compute_time(-1)
        with pytest.raises(ValueError):
            CpuModel().ops_for_time(-1)

    @given(st.floats(min_value=0, max_value=1e12, allow_nan=False))
    def test_property_monotone(self, ops):
        cpu = CpuModel()
        assert cpu.compute_time(ops) <= cpu.compute_time(ops + 1000)


class TestHostModelParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            HostModelParams(busy_slowdown=0)
        with pytest.raises(ValueError):
            HostModelParams(idle_slowdown=-1)
        with pytest.raises(ValueError):
            HostModelParams(jitter_sigma=-0.1)


class TestHostExecutionModel:
    def make(self, seed=1, **kwargs):
        return HostExecutionModel(0, HostModelParams(**kwargs), RngStreams(seed))

    def test_busy_slower_than_idle_on_average(self):
        model = self.make(busy_slowdown=20, idle_slowdown=1, jitter_sigma=0.2)
        busy = model.slowdowns(500, BUSY).mean()
        idle = model.slowdowns(500, IDLE).mean()
        assert busy > 10 * idle

    def test_no_jitter_is_deterministic(self):
        model = self.make(jitter_sigma=0.0, hetero_sigma=0.0)
        assert model.slowdown(BUSY) == 20.0
        assert list(model.slowdowns(5, IDLE)) == [1.0] * 5

    def test_jitter_mean_is_unbiased(self):
        model = self.make(jitter_sigma=0.3, hetero_sigma=0.0)
        draws = model.slowdowns(20_000, BUSY)
        assert draws.mean() == pytest.approx(20.0, rel=0.02)

    def test_reproducible_given_seed(self):
        first = self.make(seed=7).slowdowns(10, BUSY)
        second = self.make(seed=7).slowdowns(10, BUSY)
        assert np.array_equal(first, second)

    def test_nodes_differ(self):
        streams = RngStreams(3)
        params = HostModelParams()
        node0 = HostExecutionModel(0, params, streams)
        node1 = HostExecutionModel(1, params, streams)
        assert node0.slowdown(BUSY) != node1.slowdown(BUSY)

    def test_scalar_and_vector_share_stream(self):
        base = self.make(seed=11)
        mixed = [base.slowdown(BUSY)] + list(base.slowdowns(3, BUSY))
        replay = list(self.make(seed=11).slowdowns(4, BUSY))
        assert mixed == pytest.approx(replay)

    def test_unknown_activity_rejected(self):
        with pytest.raises(ValueError):
            self.make().slowdown("sleeping")

    @pytest.mark.parametrize("sigma", [0.0, 0.2])
    def test_zero_count_draws_nothing(self, sigma):
        model = self.make(seed=5, jitter_sigma=sigma)
        assert model.take_jitter(0).shape == (0,)
        assert model.slowdowns(0, BUSY).shape == (0,)
        # An empty draw leaves the stream where it was.
        fresh = self.make(seed=5, jitter_sigma=sigma)
        assert np.array_equal(model.slowdowns(3, IDLE), fresh.slowdowns(3, IDLE))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            self.make().slowdowns(-1, BUSY)

    def test_expected_max_grows_with_nodes(self):
        model = self.make(jitter_sigma=0.2)
        assert model.expected_max_slowdown(BUSY, 8) > model.expected_max_slowdown(BUSY, 2)
        assert model.expected_max_slowdown(BUSY, 1) == 20.0
        with pytest.raises(ValueError):
            model.expected_max_slowdown(BUSY, 0)

    def test_all_slowdowns_positive(self):
        model = self.make(jitter_sigma=0.5)
        assert (model.slowdowns(1000, BUSY) > 0).all()
