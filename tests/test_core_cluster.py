"""Integration tests for the quantum-synchronized cluster driver."""

import pickle

import pytest

from repro.core import (
    AdaptiveQuantumPolicy,
    BarrierModel,
    ClusterConfig,
    ClusterSimulator,
    DeadlockError,
    FixedQuantumPolicy,
)
from repro.engine.units import MICROSECOND, MILLISECOND
from repro.network import NetworkController, PAPER_NETWORK
from repro.node import ComputeTime, Recv, Send, SimulatedNode, Sleep
from repro.node.hostmodel import HostModelParams
from repro.obs.collector import TraceConfig
from repro.workloads import IsWorkload

from tests.reference_stepper import ReferenceSimulator

US = MICROSECOND


def pingpong_apps(rounds, gap=50 * US, nbytes=64):
    def pinger():
        for _ in range(rounds):
            yield Send(dst=1, nbytes=nbytes)
            yield Recv(src=1)
            yield ComputeTime(gap)
        return "ping-done"

    def ponger():
        for _ in range(rounds):
            yield Recv(src=0)
            yield Send(dst=0, nbytes=nbytes)
        return "pong-done"

    return [pinger(), ponger()]


def build(
    policy, apps=None, seed=7, num_nodes=2, simulator=ClusterSimulator, **config_kwargs
):
    apps = apps if apps is not None else pingpong_apps(10)
    nodes = [SimulatedNode(i, app) for i, app in enumerate(apps)]
    controller = NetworkController(num_nodes, PAPER_NETWORK(num_nodes))
    config = ClusterConfig(seed=seed, **config_kwargs)
    return simulator(nodes, controller, policy, config)


class TestConstruction:
    def test_rejects_single_node(self):
        node = SimulatedNode(0, iter(()))
        controller = NetworkController(2, PAPER_NETWORK(2))
        with pytest.raises(ValueError):
            ClusterSimulator([node], controller, FixedQuantumPolicy(US))

    def test_rejects_mismatched_controller(self):
        apps = pingpong_apps(1)
        nodes = [SimulatedNode(i, app) for i, app in enumerate(apps)]
        controller = NetworkController(4, PAPER_NETWORK(4))
        with pytest.raises(ValueError):
            ClusterSimulator(nodes, controller, FixedQuantumPolicy(US))

    def test_rejects_bad_node_ids(self):
        apps = pingpong_apps(1)
        nodes = [SimulatedNode(1, apps[0]), SimulatedNode(0, apps[1])]
        controller = NetworkController(2, PAPER_NETWORK(2))
        with pytest.raises(ValueError):
            ClusterSimulator(nodes, controller, FixedQuantumPolicy(US))


class TestGroundTruth:
    def test_1us_quantum_has_zero_stragglers(self):
        result = build(FixedQuantumPolicy(US)).run()
        assert result.completed
        assert result.controller_stats.stragglers == 0
        assert result.controller_stats.packets_routed == 20

    def test_ground_truth_independent_of_seed(self):
        """Q <= T makes every delivery exact, so host-speed randomness
        cannot affect the application timeline (the paper's 'deterministic
        ground truth')."""
        makespans = set()
        for seed in (1, 2, 3, 99):
            result = build(FixedQuantumPolicy(US), seed=seed).run()
            makespans.add(result.makespan)
        assert len(makespans) == 1

    def test_zero_stragglers_across_seeds(self):
        for seed in range(5):
            result = build(FixedQuantumPolicy(US), seed=seed).run()
            assert result.controller_stats.stragglers == 0

    def test_host_time_varies_with_seed_even_for_ground_truth(self):
        hosts = {build(FixedQuantumPolicy(US), seed=seed).run().host_time for seed in range(3)}
        assert len(hosts) == 3

    def test_app_results_surface(self):
        result = build(FixedQuantumPolicy(US)).run()
        assert result.app_results == ["ping-done", "pong-done"]
        assert all(t is not None for t in result.app_finish_times)


class TestAccuracySpeedTradeoff:
    def test_larger_quantum_dilates_makespan(self):
        truth = build(FixedQuantumPolicy(US)).run()
        coarse = build(FixedQuantumPolicy(1000 * US)).run()
        assert coarse.makespan > truth.makespan
        assert coarse.controller_stats.stragglers > 0

    def test_larger_quantum_is_faster_in_host_time(self):
        truth = build(FixedQuantumPolicy(US)).run()
        coarse = build(FixedQuantumPolicy(100 * US)).run()
        assert coarse.host_time < truth.host_time
        assert coarse.speedup_vs(truth) > 5

    def test_adaptive_beats_coarse_accuracy(self):
        truth = build(FixedQuantumPolicy(US)).run()
        coarse = build(FixedQuantumPolicy(1000 * US)).run()
        adaptive = build(AdaptiveQuantumPolicy(US, 1000 * US)).run()
        truth_error = abs(adaptive.makespan - truth.makespan) / truth.makespan
        coarse_error = abs(coarse.makespan - truth.makespan) / truth.makespan
        assert truth_error < coarse_error

    def test_adaptive_quantum_stays_in_bounds(self):
        result = build(AdaptiveQuantumPolicy(US, 1000 * US)).run()
        assert result.quantum_stats.min_used >= US
        assert result.quantum_stats.max_used <= 1000 * US

    def test_compute_phase_lets_adaptive_grow(self):
        def quiet_then_chat(peer):
            yield ComputeTime(60 * MILLISECOND)
            yield Send(dst=peer, nbytes=64)
            yield Recv(src=peer)

        apps = [quiet_then_chat(1), quiet_then_chat(0)]
        result = build(AdaptiveQuantumPolicy(US, 1000 * US), apps=apps).run()
        assert result.quantum_stats.max_used == 1000 * US
        assert result.quantum_stats.min_used == US


class TestFastForwardEquivalence:
    def fast_and_slow(self, policy, seed=3):
        compute_apps = lambda: [
            iter(pingpong_apps(3, gap=5 * MILLISECOND)[i]) for i in range(2)
        ]
        fast = build(policy, apps=compute_apps(), seed=seed, fast_forward=True).run()
        slow = build(policy, apps=compute_apps(), seed=seed, fast_forward=False).run()
        return fast, slow

    def test_fixed_policy_identical_results(self):
        fast, slow = self.fast_and_slow(FixedQuantumPolicy(10 * US))
        assert fast.makespan == slow.makespan
        assert fast.sim_time == slow.sim_time
        assert fast.host_time == pytest.approx(slow.host_time, rel=1e-9)
        assert fast.controller_stats.packets_routed == slow.controller_stats.packets_routed
        assert fast.controller_stats.stragglers == slow.controller_stats.stragglers
        assert fast.quantum_stats.quanta == slow.quantum_stats.quanta

    def test_adaptive_policy_identical_results(self):
        fast, slow = self.fast_and_slow(AdaptiveQuantumPolicy(US, 1000 * US))
        assert fast.makespan == slow.makespan
        assert fast.host_time == pytest.approx(slow.host_time, rel=1e-9)
        assert fast.quantum_stats.quanta == slow.quantum_stats.quanta
        assert fast.quantum_stats.total_quantum_time == slow.quantum_stats.total_quantum_time

    def test_fast_forward_actually_engages(self):
        apps = pingpong_apps(2, gap=10 * MILLISECOND)
        result = build(FixedQuantumPolicy(US), apps=apps, seed=1).run()
        # 10ms compute gaps at 1us quanta: tens of thousands of quanta that
        # must have been skipped arithmetically for this to finish quickly.
        assert result.quantum_stats.quanta > 10_000


class TestTermination:
    def test_deadlock_detected(self):
        def waiter():
            yield Recv(src=1)

        def silent():
            yield ComputeTime(10 * US)

        apps = [waiter(), silent()]
        with pytest.raises(DeadlockError, match="node0"):
            build(FixedQuantumPolicy(US), apps=apps).run()

    def test_sim_time_limit_stops_run(self):
        def chatty(peer):
            while True:
                yield Send(dst=peer, nbytes=64)
                yield Sleep(100 * US)

        apps = [chatty(1), chatty(0)]
        result = build(
            FixedQuantumPolicy(10 * US), apps=apps, sim_time_limit=2 * MILLISECOND
        ).run()
        assert not result.completed
        assert result.sim_time >= 2 * MILLISECOND

    def test_in_flight_frames_drain_after_apps_finish(self):
        def sender():
            yield Send(dst=1, nbytes=200_000)  # many paced fragments

        def receiver():
            yield Recv(src=0)

        apps = [sender(), receiver()]
        result = build(FixedQuantumPolicy(US), apps=apps).run()
        assert result.completed
        assert result.node_stats[1].messages_received == 1


class TestTimeline:
    def test_timeline_recorded_when_enabled(self):
        result = build(
            FixedQuantumPolicy(10 * US), timeline_bucket=100 * US
        ).run()
        assert result.timeline is not None
        assert result.timeline.total_host_time == pytest.approx(result.host_time, rel=1e-6)

    def test_timeline_absent_by_default(self):
        result = build(FixedQuantumPolicy(10 * US)).run()
        assert result.timeline is None


class TestHostModelInfluence:
    def test_no_jitter_no_hetero_gives_symmetric_races(self):
        params = HostModelParams(hetero_sigma=0.0, jitter_sigma=0.0)
        result = build(
            FixedQuantumPolicy(100 * US), host_params=params, barrier=BarrierModel.free()
        ).run()
        assert result.completed

    def test_barrier_dominates_small_quanta(self):
        result = build(FixedQuantumPolicy(US)).run()
        assert result.breakdown.barrier_fraction > 0.9

    def test_barrier_negligible_for_huge_quanta(self):
        result = build(FixedQuantumPolicy(1000 * US)).run()
        assert result.breakdown.barrier_fraction < 0.5


class TestConstructionKnobs:
    def test_vectorized_knob_is_gone(self):
        # One stepper: there is no stepper selection left to configure.
        with pytest.raises(TypeError):
            ClusterConfig(vectorized=True)


class TestWindowModeCounter:
    """``PerfCounters.drain_windows`` reports which window mode a run took.

    Drain windows need ``Q <= T`` and no trace collector or fault
    injector; the counter is host-side telemetry and never reaches
    :class:`RunResult`.
    """

    @staticmethod
    def run_is(window, **kwargs):
        apps = IsWorkload(total_keys=2**12, iterations=2, ops_per_key=8).build_apps(4)
        sim = build(FixedQuantumPolicy(window), apps=apps, num_nodes=4, **kwargs)
        return sim.run(), sim.perf

    def test_untraced_ground_truth_run_drains_every_window(self):
        result, perf = self.run_is(PAPER_NETWORK(4).min_latency())
        assert result.completed
        assert perf.event_quanta > 0
        assert perf.drain_windows == perf.event_quanta

    def test_traced_or_coarse_runs_never_drain(self):
        _, traced = self.run_is(PAPER_NETWORK(4).min_latency(), trace=TraceConfig())
        _, coarse = self.run_is(2 * PAPER_NETWORK(4).min_latency())
        for perf in (traced, coarse):
            assert perf.event_quanta > 0
            assert perf.drain_windows == 0

    def test_window_mode_leaves_the_result_byte_identical(self):
        truth = PAPER_NETWORK(4).min_latency()
        drained, drained_perf = self.run_is(truth)
        interleaved, interleaved_perf = self.run_is(truth, trace=TraceConfig())
        assert drained_perf.drain_windows > 0
        assert interleaved_perf.drain_windows == 0
        assert pickle.dumps(drained) == pickle.dumps(interleaved)
        assert "drain_windows" not in repr(drained)

    def test_reference_stepper_counts_no_drain_windows(self):
        """The reference interleaves every window, even at ``Q <= T``."""
        truth = PAPER_NETWORK(4).min_latency()
        drained, _ = self.run_is(truth)
        reference, perf = self.run_is(truth, simulator=ReferenceSimulator)
        assert perf.event_quanta > 0
        assert perf.drain_windows == 0
        assert reference == drained
