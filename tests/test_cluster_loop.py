"""Production's quantum loop against the reference stepper's own loop.

:class:`~repro.core.cluster.ClusterSimulator` does each quantum's work
inline: lazy clocks, the drain, the window cost, termination and the
accounting.  :class:`tests.reference_stepper.ReferenceSimulator` runs a
separate, plain loop.  These tests pin two things the result-level
differential suite (``test_cluster_vectorized.py``) cannot see:

* **Per-quantum clock rates.**  A last-bit change in a node's slowdown
  (say ``(base * jitter) * factor`` for ``base * (jitter * factor)``)
  is usually absorbed by the host-time sums a :class:`RunResult` holds.
  A checked run gives every node a clock before each quantum end, so the
  exact ``busy_rate`` and ``idle_rate`` of every clock are compared there,
  quantum by quantum, on drain windows, interleaved windows and a wide
  cluster.
* **Untouched nodes setting the window cost.**  When the slowest node
  of a window has no event in it, production costs it arithmetically
  while the reference resets its clock.  With busy event-free nodes
  from the first quantum on and a free barrier, a last-bit change there
  reaches ``host_time``.
* **Quantum bookkeeping edge cases** that built-in policies at default
  settings never reach: a policy whose first window is its longest, and
  a fast-forward span of exactly one window.
* **Termination out of rank order.**  Production gates its completion
  check on the first unfinished rank; runs where rank 0 finishes first
  (with its frames still held by the controller) or the highest rank
  finishes first must still stop at the reference's quantum.
"""

from __future__ import annotations

from repro.core import (
    AdaptiveQuantumPolicy,
    BarrierModel,
    ClusterConfig,
    ClusterSimulator,
    FixedQuantumPolicy,
    HostCostBreakdown,
    QuantumStats,
)
from repro.core import cluster
from repro.engine.units import MICROSECOND
from repro.mpi.api import spmd_apps
from repro.network import NetworkController, PAPER_NETWORK
from repro.node import SimulatedNode
from repro.node.requests import Compute
from repro.workloads import EpWorkload, IsWorkload

from tests.reference_stepper import ReferenceSimulator
from tests.test_cluster_vectorized import POLICIES, _assert_equivalent

US = MICROSECOND


def _checked_rates(simulator, apps_factory, size, policy, seed=7):
    """Run with the sanitizer on; record every clock's rates at each
    quantum end, plus the run's result and perf counters."""
    nodes = [SimulatedNode(i, app) for i, app in enumerate(apps_factory(size))]
    controller = NetworkController(size, PAPER_NETWORK(size))
    sim = simulator(nodes, controller, policy, ClusterConfig(seed=seed, check=True))
    sanitizer = sim.sanitizer
    assert sanitizer is not None
    original = sanitizer.on_quantum_end
    rates = []

    def on_quantum_end(start, end, np_count):
        rates.append(
            (start, [(clock.busy_rate, clock.idle_rate) for clock in sim._clocks])
        )
        original(start, end, np_count)

    sanitizer.on_quantum_end = on_quantum_end
    result = sim.run()
    assert result.completed
    return result, sim.perf, rates


def _assert_same_rates(apps_factory, size, policy_factory):
    expected, _, reference = _checked_rates(
        ReferenceSimulator, apps_factory, size, policy_factory()
    )
    result, perf, rates = _checked_rates(
        ClusterSimulator, apps_factory, size, policy_factory()
    )
    assert result == expected
    assert len(rates) == len(reference) == perf.event_quanta
    for got, want in zip(rates, reference):
        assert got == want
    return perf


def _small_is(size):
    return IsWorkload(total_keys=2**16).build_apps(size)


def test_rates_match_in_drain_windows():
    truth = PAPER_NETWORK(4).min_latency()
    perf = _assert_same_rates(_small_is, 4, lambda: FixedQuantumPolicy(truth))
    assert perf.drain_windows == perf.event_quanta > 0


def test_rates_match_in_interleaved_windows():
    for name in ("10us", "dyn 1.05"):
        perf = _assert_same_rates(_small_is, 4, POLICIES[name])
        assert perf.event_quanta > perf.drain_windows


def test_rates_match_on_a_wide_cluster():
    size = cluster._ARRAY_COST_MIN_NODES
    perf = _assert_same_rates(
        lambda n: EpWorkload().build_apps(n), size, POLICIES["10us"]
    )
    assert perf.event_quanta > 0


def _one_active_rank(mpi):
    """Rank 0 has an event in every window; the other ranks sit in one
    long compute, busy but event-free, so they are costed untouched.
    They finish first, so no long fast-forward span follows."""
    if mpi.rank == 0:
        for _ in range(300):
            yield Compute(ops=780.0)  # ~300 ns at 2.6 GHz
    else:
        yield Compute(ops=208_000.0)  # ~80 us
    return mpi.rank


def test_untouched_busy_nodes_cost_like_the_reference():
    """With a free barrier and no long fast-forward span, host time stays
    of the order of the node costs it sums, so their last bits survive
    into ``host_time``."""
    for seed in range(8):
        for name in ("1us", "10us"):
            results = []
            for simulator in (ReferenceSimulator, ClusterSimulator):
                apps = spmd_apps(4, _one_active_rank)
                nodes = [SimulatedNode(i, app) for i, app in enumerate(apps)]
                sim = simulator(
                    nodes, NetworkController(4, PAPER_NETWORK(4)),
                    POLICIES[name](),
                    ClusterConfig(seed=seed, barrier=BarrierModel.free()),
                )
                results.append(sim.run())
            assert sim.perf.subset_windows > 0
            assert results[0] == results[1], (seed, name)


class _StartHigh(AdaptiveQuantumPolicy):
    """Starts at its longest window, so traffic later lowers ``min_used``."""

    def initial(self) -> float:
        return float(self.max_quantum)


def test_quantum_stats_follow_a_policy_that_starts_high():
    def policy():
        return _StartHigh(US, 100 * US, inc=1.05, dec=0.02)

    _assert_equivalent(_small_is, 4, policy)
    result, _, _ = _checked_rates(ClusterSimulator, _small_is, 4, policy())
    stats = result.quantum_stats
    assert stats.min_used < stats.max_used == 100 * US


def test_fast_forward_takes_a_span_of_exactly_whole_windows():
    """One-window chunks: the last window of the span fits exactly and
    must still be skipped, as ``idle_chunk`` would return it."""
    q = 10 * US
    for chunk in (1, 1 << 16):
        spent = []
        for simulator in (ReferenceSimulator, ClusterSimulator):
            apps = spmd_apps(2, _one_active_rank)
            nodes = [SimulatedNode(i, app) for i, app in enumerate(apps)]
            sim = simulator(
                nodes, NetworkController(2, PAPER_NETWORK(2)),
                FixedQuantumPolicy(q), ClusterConfig(seed=1, chunk=chunk),
            )
            now, host, _ = sim._fast_forward(
                0, 0.0, float(q), 3 * q, 1e-6, QuantumStats(),
                HostCostBreakdown(), None,
            )
            assert now == 3 * q
            assert sim.perf.ff_quanta == 3
            spent.append(host)
        assert spent[0] == spent[1]


# ---------------------------------------------------------------------- #
# Termination out of rank order
# ---------------------------------------------------------------------- #


def _rank0_first(mpi):
    """Rank 0 sends to every peer and exits at once (sends are eager), so
    it has finished while its frames are still in flight."""
    if mpi.rank == 0:
        for peer in range(1, mpi.size):
            yield from mpi.send(peer, 4096, tag=1)
        return "sender"
    yield Compute(ops=26_000.0 * mpi.rank)
    message = yield from mpi.recv(src=0, tag=1)
    yield Compute(ops=260_000.0)
    return message.nbytes


def _last_rank_first(mpi):
    """Ranks finish in reverse order: the highest rank first.  Rank 0,
    the last to finish, sends a parting frame to the highest rank as its
    final act, so every application has finished while it is in flight."""
    yield Compute(ops=26_000.0 * (mpi.size - mpi.rank))
    if mpi.rank > 0:
        yield from mpi.send(mpi.rank - 1, 512, tag=2)
    if mpi.rank < mpi.size - 1:
        yield from mpi.recv(src=mpi.rank + 1, tag=2)
    yield Compute(ops=52_000.0 * (mpi.size - mpi.rank))
    if mpi.rank == 0:
        yield from mpi.send(mpi.size - 1, 64, tag=3)
    return mpi.rank


FINISH_ORDER_POLICIES = {
    "Q=T": lambda: FixedQuantumPolicy(PAPER_NETWORK(4).min_latency()),
    "10us": POLICIES["10us"],
    "dyn 1.03": lambda: AdaptiveQuantumPolicy(US, 1000 * US, inc=1.03, dec=0.02),
}


def _finish_order(program, size, policy_factory):
    nodes = [SimulatedNode(i, app) for i, app in enumerate(spmd_apps(size, program))]
    controller = NetworkController(size, PAPER_NETWORK(size))
    sim = ClusterSimulator(nodes, controller, policy_factory(), ClusterConfig(seed=3))
    # Per quantum end: (rank 0 finished, every app finished, held
    # frames, run complete).
    ends = []
    original = controller.end_quantum

    def end_quantum():
        ends.append(
            (
                nodes[0].finished,
                all(node.finished for node in nodes),
                controller.pending_count(),
                sim._done(),
            )
        )
        return original()

    controller.end_quantum = end_quantum
    result = sim.run()
    assert result.completed
    return result, ends


def test_rank0_finishing_first_matches_the_reference():
    size = 4
    for policy_factory in FINISH_ORDER_POLICIES.values():
        result, ends = _finish_order(_rank0_first, size, policy_factory)
        finish = result.app_finish_times
        assert finish[0] < min(finish[1:])
        # Some quantum ended with rank 0 done and its frames still held.
        assert any(rank0 and held > 0 for rank0, _, held, _ in ends)
        for checked in (None, True):
            _assert_equivalent(
                lambda n: spmd_apps(n, _rank0_first), size, policy_factory,
                check=checked,
            )


def test_highest_rank_finishing_first_matches_the_reference():
    size = 4
    outlived = []
    for policy_factory in FINISH_ORDER_POLICIES.values():
        result, ends = _finish_order(_last_rank_first, size, policy_factory)
        finish = result.app_finish_times
        assert finish == sorted(finish, reverse=True)
        assert finish[-1] < finish[-2]
        # Did a quantum end with every application done but the parting
        # frame not yet delivered?  (At Q = T it arrives in the quantum
        # rank 0 finishes in.)
        outlived.append(any(apps and not done for _, apps, _, done in ends))
        for checked in (None, True):
            _assert_equivalent(
                lambda n: spmd_apps(n, _last_rank_first), size, policy_factory,
                check=checked,
            )
    assert outlived == [False, True, True]
