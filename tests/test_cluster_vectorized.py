"""Differential equivalence of the stepper *and* engine backends.

The cluster stepper builds clocks lazily from plain-float slowdowns,
costs event-free nodes arithmetically (the subset fast-forward), and
drains ground-truth windows; ``ClusterConfig.backend`` swaps the engine
hot core for the compiled C implementation.  All of them are
*accelerations*, not approximations: every test here runs the same
configuration through the full backend x driver grid (python/native x
reference/stepper — native rows only when the compiled module is
importable) and asserts the results are equal field-for-field —
including the structured trace stream when tracing is on.  The
reference is the eager scalar stepper in :mod:`tests.reference_stepper`.

Coverage:

* a deterministic sweep of 45+ configurations (three paper workloads x
  three cluster sizes x five quantum policies, plus traced, faulted,
  sanitized, and recovery-transport variants), each swept over the grid,
* the numpy costing of event-free nodes on wide clusters, forced at 4
  nodes and run unforced at its node-count threshold,
* a Hypothesis property over random SPMD programs, policies, and seeds,
  with tracing enabled so the event streams are compared too,
* a regression guard that the subset fast-forward never fires when every
  node holds a pending application event in every window.
"""

from __future__ import annotations

import dataclasses

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    AdaptiveQuantumPolicy,
    ClusterConfig,
    ClusterSimulator,
    FixedQuantumPolicy,
)
from repro.core import cluster
from repro.engine.backend import native_available
from repro.engine.units import MICROSECOND
from repro.faults.plan import FaultPlan, NodeStall, load_plan
from repro.mpi.api import spmd_apps
from repro.network import NetworkController, PAPER_NETWORK
from repro.node import SimulatedNode
from repro.node.requests import Compute
from repro.node.sampling import SamplingSchedule
from repro.node.transport import RecoveryConfig, TransportConfig
from repro.obs.collector import TraceConfig
from repro.workloads import EpWorkload, IsWorkload, NamdWorkload

from tests.reference_stepper import ReferenceSimulator
from tests.test_cluster_properties import make_program, program_schedules

US = MICROSECOND

# Without a compiler (or before `python -m repro.engine.backend --build`)
# the grid degrades to the python column: the pure-python path is the
# reference and must pass on its own.
BACKENDS = ("python", "native") if native_available() else ("python",)

SIZES = (2, 4, 8)

POLICIES = {
    "1us": lambda: FixedQuantumPolicy(US),
    "10us": lambda: FixedQuantumPolicy(10 * US),
    "100us": lambda: FixedQuantumPolicy(100 * US),
    "dyn 1.03": lambda: AdaptiveQuantumPolicy(US, 1000 * US, inc=1.03, dec=0.02),
    "dyn 1.05": lambda: AdaptiveQuantumPolicy(US, 1000 * US, inc=1.05, dec=0.02),
}

WORKLOADS = {
    "EP": lambda size: EpWorkload().build_apps(size),
    "IS": lambda size: IsWorkload().build_apps(size),
    "NAMD": lambda size: NamdWorkload().build_apps(size),
}


def _normalize_packet_ids(events):
    """Rebase absolute packet ids to per-run dense indices.

    ``Packet.packet_id`` comes from a process-global counter, so two runs
    in one process see different absolute ids even when they create the
    exact same packets in the exact same order.  Remapping ids by first
    appearance makes the comparison exact while still verifying that the
    two streams reference packets in the same relative pattern.
    """
    mapping: dict[int, int] = {}
    normalized = []
    for event in events:
        packet_id = getattr(event, "packet_id", None)
        if packet_id is None:
            normalized.append(event)
            continue
        dense = mapping.setdefault(packet_id, len(mapping))
        normalized.append(dataclasses.replace(event, packet_id=dense))
    return normalized


def _run(
    apps_factory,
    size,
    policy_factory,
    *,
    reference,
    seed=7,
    faults=None,
    trace=False,
    transport=None,
    check=None,
    backend="python",
    sampling=None,
):
    nodes = [
        SimulatedNode(i, app, transport=transport)
        for i, app in enumerate(apps_factory(size))
    ]
    controller = NetworkController(size, PAPER_NETWORK(size))
    config = ClusterConfig(
        seed=seed,
        faults=faults,
        trace=TraceConfig() if trace else None,
        check=check,
        backend=backend,
        sampling=sampling,
    )
    simulator = ReferenceSimulator if reference else ClusterSimulator
    sim = simulator(nodes, controller, policy_factory(), config)
    result = sim.run()
    events = (
        _normalize_packet_ids(sim.collector.events)
        if sim.collector is not None
        else None
    )
    counts = dict(sim.collector.counts) if sim.collector is not None else None
    return result, sim, events, counts


def _assert_equivalent(apps_factory, size, policy_factory, **kwargs):
    """Sweep the backend x driver grid; every cell must equal the first.

    The reference stepper on the pure-python core is the reference
    implementation; the stepper and the compiled backend (in every
    combination) must reproduce it field-for-field, trace stream included.
    """
    expected = None
    for backend in BACKENDS:
        for reference in (True, False):
            result, _, events, counts = _run(
                apps_factory, size, policy_factory,
                reference=reference, backend=backend, **kwargs
            )
            assert result.completed
            if expected is None:
                expected = (result, events, counts)
                continue
            assert result == expected[0], (backend, reference)
            assert events == expected[1], (backend, reference)
            assert counts == expected[2], (backend, reference)


# ---------------------------------------------------------------------- #
# Deterministic configuration sweep (the >= 40 config equivalence matrix)
# ---------------------------------------------------------------------- #


def test_paper_matrix_is_bit_identical():
    """3 workloads x 3 sizes x 5 policies = 45 configurations."""
    configs = 0
    for apps_factory in WORKLOADS.values():
        for size in SIZES:
            for policy_factory in POLICIES.values():
                _assert_equivalent(apps_factory, size, policy_factory)
                configs += 1
    assert configs == 45


def test_traced_runs_are_bit_identical():
    """Tracing forces interleaved windows; streams must match exactly."""
    for name in ("1us", "dyn 1.03"):
        for apps_factory in WORKLOADS.values():
            _assert_equivalent(apps_factory, 4, POLICIES[name], trace=True)


def test_checked_runs_are_bit_identical():
    """The causality sanitizer audits both steppers without changing results."""
    for name in ("1us", "dyn 1.03"):
        _assert_equivalent(WORKLOADS["IS"], 4, POLICIES[name], check=True)


def test_faulted_runs_are_bit_identical():
    """Fault injection (loss + jitter) disables the drain window; the
    stepper must still reproduce the reference run exactly."""
    transport = TransportConfig(recovery=RecoveryConfig())
    for preset in ("lossy-1", "jittery"):
        faults = load_plan(preset)
        for name in ("1us", "dyn 1.03"):
            _assert_equivalent(
                WORKLOADS["IS"], 4, POLICIES[name], faults=faults,
                transport=transport,
            )


STALLS = FaultPlan(
    stalls=(
        NodeStall(node=1, start=20_000 * US, end=120_000 * US, factor=6.0),
        NodeStall(node=3, start=100_000 * US, end=200_000 * US, factor=3.0),
    )
)

SAMPLING = SamplingSchedule(
    period=5_000 * US, detail_fraction=0.3, phase_stagger=700 * US
)


def test_stalled_runs_are_bit_identical():
    """Host stalls scale a node's slowdowns after the base and jitter
    products, in event windows and fast-forward spans alike."""
    for name in ("1us", "dyn 1.03"):
        _assert_equivalent(WORKLOADS["IS"], 4, POLICIES[name], faults=STALLS)


def test_sampled_runs_are_bit_identical():
    """Sampling varies each node's busy base per window; the stepper reads
    it at window start exactly like per-node slowdown draws do."""
    for name in ("1us", "dyn 1.03", "100us"):
        for apps_factory in (WORKLOADS["IS"], WORKLOADS["NAMD"]):
            _assert_equivalent(apps_factory, 4, POLICIES[name], sampling=SAMPLING)


def test_array_costing_is_bit_identical(monkeypatch):
    """Wide clusters cost their event-free nodes with numpy arrays instead
    of a plain-float loop.  With the threshold lowered, that path runs at
    4 nodes through every paper policy, stalls, sampling and the
    sanitizer, and must still reproduce the reference."""
    monkeypatch.setattr(cluster, "_ARRAY_COST_MIN_NODES", 2)
    _, sim, _, _ = _run(WORKLOADS["IS"], 4, POLICIES["10us"], reference=False)
    assert sim._busy_mask is not None
    for apps_factory in WORKLOADS.values():
        for policy_factory in POLICIES.values():
            _assert_equivalent(apps_factory, 4, policy_factory)
    for name in ("1us", "dyn 1.03"):
        _assert_equivalent(WORKLOADS["IS"], 4, POLICIES[name], faults=STALLS)
        _assert_equivalent(WORKLOADS["IS"], 4, POLICIES[name], sampling=SAMPLING)
        _assert_equivalent(WORKLOADS["IS"], 4, POLICIES[name], check=True)


def test_wide_cluster_runs_are_bit_identical():
    """At the array-costing threshold itself, unpatched."""
    size = cluster._ARRAY_COST_MIN_NODES
    for name in ("10us", "dyn 1.03"):
        _assert_equivalent(WORKLOADS["IS"], size, POLICIES[name])


def test_recovery_transport_runs_are_bit_identical():
    """Delayed-ack and RTO timer events flow through the fused window
    drain; recovery-transport runs must stay equivalent (and this covers
    the drain path's timer dispatch)."""
    transport = TransportConfig(recovery=RecoveryConfig())
    for name in ("1us", "dyn 1.03"):
        _assert_equivalent(
            WORKLOADS["IS"], 4, POLICIES[name], transport=transport
        )


# ---------------------------------------------------------------------- #
# Property: random programs, policies, seeds — results and traces match
# ---------------------------------------------------------------------- #

_policy_factories = st.one_of(
    st.sampled_from([US, 10 * US, 100 * US, 1000 * US]).map(
        lambda q: (lambda: FixedQuantumPolicy(q))
    ),
    st.tuples(
        st.floats(min_value=1.01, max_value=1.4),
        st.floats(min_value=0.02, max_value=0.9),
    ).map(lambda p: (lambda: AdaptiveQuantumPolicy(US, 1000 * US, inc=p[0], dec=p[1]))),
)


@settings(deadline=None, max_examples=15,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    schedule=program_schedules,
    size=st.integers(min_value=2, max_value=5),
    policy_factory=_policy_factories,
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_vectorized_is_bit_identical(schedule, size, policy_factory, seed):
    def apps_factory(n):
        return spmd_apps(n, make_program(schedule))

    _assert_equivalent(
        apps_factory, size, policy_factory, seed=seed, trace=True
    )


# ---------------------------------------------------------------------- #
# Subset fast-forward engagement guards
# ---------------------------------------------------------------------- #


def test_subset_fast_forward_never_fires_when_every_node_is_busy():
    """When every node holds a pending application event in every window,
    nothing can be skipped: the subset fast-forward must stay silent."""

    def app():
        # ~300 ns per compute chunk at the default 2.6 GHz: strictly more
        # than one event per node per 1 us ground-truth window.
        for _ in range(400):
            yield Compute(ops=780.0)

    size = 4
    nodes = [SimulatedNode(i, app()) for i in range(size)]
    controller = NetworkController(size, PAPER_NETWORK(size))
    config = ClusterConfig(seed=3)
    sim = ClusterSimulator(nodes, controller, FixedQuantumPolicy(US), config)
    result = sim.run()
    assert result.completed
    assert sim.perf.stepped_node_quanta > 0
    assert sim.perf.subset_windows == 0
    assert sim.perf.skipped_node_quanta == 0


def test_subset_fast_forward_fires_on_imbalanced_nodes():
    """Sanity check of the counter itself: with one busy rank and idle
    peers (blocked in Recv), windows must skip the idle subset."""

    def program(mpi):
        if mpi.rank == 0:
            yield Compute(ops=2_600_000.0)  # ~1 ms alone
            for peer in range(1, mpi.size):
                yield from mpi.send(peer, 64, tag=9)
        else:
            yield from mpi.recv(src=0, tag=9)
        return "done"

    size = 4
    nodes = [
        SimulatedNode(i, app) for i, app in enumerate(spmd_apps(size, program))
    ]
    controller = NetworkController(size, PAPER_NETWORK(size))
    config = ClusterConfig(seed=3)
    sim = ClusterSimulator(nodes, controller, FixedQuantumPolicy(US), config)
    result = sim.run()
    assert result.completed
    assert sim.perf.subset_windows > 0
    assert sim.perf.skipped_node_quanta > 0
