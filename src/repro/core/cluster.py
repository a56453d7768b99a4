"""The quantum-synchronized cluster simulator (the paper's Figure 1).

This driver turns N independent :class:`~repro.node.node.SimulatedNode`
instances plus a :class:`~repro.network.controller.NetworkController` into a
cluster simulator, co-simulating two time domains:

* **Simulated time** advances in lock-step quanta ``[T, T+Q)``.  Within a
  quantum every node runs freely; at the boundary everyone blocks at a
  barrier, the controller counts the quantum's traffic (``np``), the
  quantum policy picks the next ``Q``, and the barrier releases.
* **Host time** models the wall clock of the simulation farm.  All nodes
  start a quantum at the same host instant; node *i* then advances its
  simulated clock *piecewise-affinely*: fast (idle rate) while the guest is
  halted waiting for packets, slow (busy rate) while it executes target
  code, switching whenever the application blocks or wakes.  The *slowest
  node sets the pace* (paper Figure 5): the quantum costs the max over
  nodes of their host finishing times, plus the barrier overhead.

Within a quantum, per-node events are interleaved in **host-time order**
through these maps — this decides straggler races exactly as the paper's
Figures 2/3 describe.  The piecewise map captures the crucial asymmetry of
full-system simulation: a node blocked on a receive simulates its idle
guest much faster than its busy peers, races to the quantum boundary, and
any packet then addressed to it must be delivered late — Figure 3(d)'s
"latency snaps to next quantum".

A **fast-forward accelerator** recognises packet-free spans (no node has a
local event and no held delivery is due before a horizon) and processes
whole runs of quanta arithmetically: vectorised slowdown draws, closed-form
adaptive-quantum growth, and a single accounting update.  This keeps 1 us
ground-truth runs (hundreds of thousands of quanta) tractable while being
*observationally identical* to the event-by-event path — the skipped quanta
provably contain no packets and no application events.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.analysis.invariants import CausalitySanitizer, check_enabled
from repro.checkpoint.config import CheckpointConfig
from repro.core.barrier import BarrierModel
from repro.core.quantum import QuantumPolicy, QuantumStats
from repro.core.stats import BucketTimeline, HostCostBreakdown
from repro.engine.backend import queue_class, resolve_backend
from repro.engine.rng import RngStreams
from repro.engine.units import SECOND, SimTime, format_time
from repro.faults.injector import FaultInjector, FaultStats
from repro.faults.plan import FaultPlan
from repro.network.controller import ControllerStats, NetworkController
from repro.network.packet import Packet
from repro.node.hostmodel import BUSY, HostExecutionModel, HostModelParams
from repro.node.node import NodeStats, SimulatedNode
from repro.node.sampling import SampledHostExecutionModel, SamplingSchedule
from repro.node.transport import TransportStats
from repro.obs.collector import TraceCollector, TraceConfig


class DeadlockError(RuntimeError):
    """All applications are blocked and no packet can ever wake them."""


@dataclass(frozen=True)
class ClusterConfig:
    """Driver options.

    There is one stepper and no knob to pick another: each event quantum
    draws one jitter row, builds a node's clock only when the window
    first touches it (event-free nodes are costed arithmetically), and
    runs as a *drain* window when the run allows it (``Q <= T``, no trace
    collector, no fault injector) or as a host-time interleaved window
    otherwise.  Both window modes are bit-identical.

    Attributes:
        seed: root seed for every stochastic component.
        host_params: calibration of the host execution model.
        barrier: host cost of each quantum barrier.
        sim_time_limit: hard stop in simulated time (guards runaway runs).
        timeline_bucket: if set, record host cost per simulated-time bucket
            of this width (enables Figure-9-style speedup-over-time series).
        fast_forward: enable the packet-free span accelerator.
        fast_forward_min_quanta: minimum whole quanta a span must cover
            before the accelerator engages (below this the event path is
            just as fast).
        chunk: maximum quanta processed per vectorised fast-forward batch.
        sampling: if set, node simulators follow this detailed/functional
            sampling schedule (the paper's future-work combination).
        check: run the causality sanitizer (None defers to ``REPRO_CHECK``
            in the environment).  Checked runs are bit-identical to
            unchecked ones; they just raise on the first broken invariant.
        faults: declarative fault plan (see :mod:`repro.faults`); None
            keeps the paper's ideal network and healthy hosts.  A plan
            that can lose or duplicate frames requires every node to run
            a recovery-enabled transport.
        trace: record structured trace events (see :mod:`repro.obs`);
            None disables tracing entirely.  Tracing only observes:
            a traced run's results are bit-identical to an untraced one.
        shards: split this run's nodes across this many worker processes
            (None defers to ``REPRO_SHARDS`` in the environment, like
            ``check``/``REPRO_CHECK``).  Read by :mod:`repro.shard` —
            :meth:`ClusterSimulator.run` itself always steps serially;
            sharded results are bit-identical, so the setting never
            enters cache keys.
        checkpoint: write crash-safe snapshots at this cadence (see
            :mod:`repro.checkpoint`); None disables checkpointing.  A
            checkpointed run is bit-identical to a plain one — restoring
            a snapshot and running to completion reproduces the
            uninterrupted results exactly — so, like ``check``/``trace``/
            ``shards``, the setting never enters cache keys.  Checkpointed
            runs step serially (:mod:`repro.shard` falls back, itself
            bit-identical).
        backend: engine-core implementation — ``"python"`` (the pure
            reference), ``"native"`` (the compiled core, an error if not
            built), or ``"auto"`` (native when importable, degrading to
            python with the reason recorded on the simulator; overridable
            via ``REPRO_BACKEND``).  See :mod:`repro.engine.backend`.
            Both backends are bit-identical, so — like ``check``/
            ``trace``/``shards`` — the setting never enters cache keys.
    """

    seed: int = 42
    host_params: HostModelParams = field(default_factory=HostModelParams)
    barrier: BarrierModel = field(default_factory=BarrierModel)
    sim_time_limit: SimTime = 300 * SECOND
    timeline_bucket: Optional[SimTime] = None
    fast_forward: bool = True
    fast_forward_min_quanta: int = 4
    chunk: int = 1 << 16
    sampling: Optional[SamplingSchedule] = None
    check: Optional[bool] = None
    faults: Optional[FaultPlan] = None
    trace: Optional[TraceConfig] = None
    shards: Optional[int] = None
    checkpoint: Optional[CheckpointConfig] = None
    backend: str = "auto"


@dataclass
class RunResult:
    """Everything a finished (or stopped) run reports."""

    sim_time: SimTime
    host_time: float
    completed: bool
    breakdown: HostCostBreakdown
    quantum_stats: QuantumStats
    controller_stats: ControllerStats
    node_stats: list[NodeStats]
    app_results: list[Any]
    app_finish_times: list[Optional[SimTime]]
    timeline: Optional[BucketTimeline]
    #: What the fault injector did; None for runs without a fault plan.
    fault_stats: Optional[FaultStats] = None
    #: Per-node transport counters, reported whenever any node runs the
    #: reliable (recovery) transport; None otherwise.
    transport_stats: Optional[list[TransportStats]] = None

    @property
    def makespan(self) -> SimTime:
        """Simulated time at which the last application finished."""
        finished = [t for t in self.app_finish_times if t is not None]
        return max(finished) if finished else self.sim_time

    @property
    def host_per_sim_second(self) -> float:
        """Average modelled slowdown of the whole cluster simulation."""
        if self.sim_time == 0:
            return 0.0
        return self.host_time / (self.sim_time / SECOND)

    def speedup_vs(self, baseline: "RunResult") -> float:
        """Wall-clock speedup of this run relative to *baseline*."""
        if self.host_time <= 0:
            raise ValueError("run has no host time")
        return baseline.host_time / self.host_time

    def summary(self) -> str:
        stats = self.controller_stats
        text = (
            f"sim={format_time(self.sim_time)} host={self.host_time:.2f}s "
            f"quanta={self.quantum_stats.quanta} "
            f"packets={stats.packets_routed} stragglers={stats.stragglers} "
            f"({100 * stats.straggler_fraction:.1f}%)"
        )
        faults = self.fault_stats
        if faults is not None:
            text += (
                f" faults[drops={faults.total_drops} dup={faults.frames_duplicated}"
                f" delayed={faults.frames_delayed} stall-quanta={faults.stall_quanta}]"
            )
        if self.transport_stats is not None:
            retransmits = sum(t.retransmits for t in self.transport_stats)
            duplicates = sum(
                t.duplicates_dropped + t.spurious_retransmits
                for t in self.transport_stats
            )
            text += f" recovery[retransmits={retransmits} dup-dropped={duplicates}]"
        return text


@dataclass
class PerfCounters:
    """Hot-path instrumentation of one run (driver-level, not part of
    :class:`RunResult` — the counters describe *how* the driver stepped,
    e.g. which window mode it took, while the results themselves do not
    depend on it).
    """

    #: Quanta processed event-by-event (windows).
    event_quanta: int = 0
    #: Quanta skipped arithmetically by the whole-cluster span accelerator.
    ff_quanta: int = 0
    #: Fast-forward batches (each covers >= 1 quanta).
    ff_spans: int = 0
    #: Local node events handled inside windows.
    events: int = 0
    #: Node-quanta that were event-stepped (clock materialized).
    stepped_node_quanta: int = 0
    #: Node-quanta advanced arithmetically by the subset fast-forward
    #: (node had no event in the window; its clock was never materialized).
    skipped_node_quanta: int = 0
    #: Windows in which at least one node was skipped arithmetically.
    subset_windows: int = 0
    #: Windows stepped as drain windows (``Q <= T``, untraced, unfaulted);
    #: the other ``event_quanta`` were interleaved in host-time order.
    drain_windows: int = 0


#: From this many nodes up, a window costs its event-free nodes with a few
#: numpy calls instead of a plain-float loop.  The loop's cost grows with
#: the node count and the numpy calls' cost barely does; on a 2-CPU x86
#: host the two cross between 64 and 96 nodes (DESIGN.md §3).
_ARRAY_COST_MIN_NODES = 96

#: Fast-forward takes its max over nodes in column blocks of about this
#: many elements: a whole ``(64, 65536)`` chunk's product would be 32 MB.
_FF_BLOCK_ELEMENTS = 1 << 15


def _slowdowns(
    jitter: Any, factor: Any, busy_base: Any, idle_base: float, stall: Any
) -> tuple[Any, Any]:
    """One window's ``(busy, idle)`` slowdowns of a node, or of every node.

    The same operands in the same order as
    :meth:`~repro.node.hostmodel.HostExecutionModel.slowdown_pair` plus
    host-stall scaling: ``tmp = jitter * node_factor``, ``base * tmp``,
    then times the stall factor (``None`` without stalls; multiplying by
    an unstalled node's ``1.0`` is exact).  Plain floats and numpy arrays
    give the identical doubles, element by element.
    """
    tmp = jitter * factor
    busy = busy_base * tmp
    idle = idle_base * tmp
    if stall is not None:
        busy = busy * stall
        idle = idle * stall
    return busy, idle


class _JitterFeed:
    """Row-major prefetch of per-quantum jitter draws across all nodes.

    The stepper consumes one jitter draw per node per quantum, as a row
    (event windows) or a ``(N, count)`` block (fast-forward spans).  The
    feed pulls blocks from each node's private stream via
    :meth:`~repro.node.hostmodel.HostExecutionModel.take_jitter`, so draw
    *i* of node *n* is the same number per-quantum
    :meth:`~repro.node.hostmodel.HostExecutionModel.slowdown_pair` calls
    would have drawn for node *n*'s *i*-th quantum: batching changes only
    the access pattern, never the values.
    """

    _BLOCK = 256

    __slots__ = ("_models", "_matrix", "_cursor", "_ones_row", "_ones_list")

    def __init__(self, models: list[HostExecutionModel]) -> None:
        self._models = models
        self._matrix = np.empty((0, len(models)))
        self._cursor = 0
        # With zero jitter sigma the per-call draws consume nothing; the
        # feed must not either.
        self._ones_row = (
            np.ones(len(models))
            if models[0].params.jitter_sigma == 0
            else None
        )
        self._ones_list = [1.0] * len(models)

    def row(self) -> np.ndarray:
        """The next per-node draw for one quantum, shape ``(N,)``."""
        ones = self._ones_row
        if ones is not None:
            return ones
        if self._cursor >= len(self._matrix):
            self._matrix = self._fetch(self._BLOCK)
            self._cursor = 0
        row = self._matrix[self._cursor]
        self._cursor += 1
        return row

    def row_list(self) -> list[float]:
        """:meth:`row` as plain floats (the caller must not mutate it).

        Converts only this one row: fast-forward spans consume the rest
        of a prefetched block, so converting the whole block up front
        would be paid again after every span.
        """
        if self._ones_row is not None:
            return self._ones_list
        if self._cursor >= len(self._matrix):
            self._matrix = self._fetch(self._BLOCK)
            self._cursor = 0
        row: list[float] = self._matrix[self._cursor].tolist()
        self._cursor += 1
        return row

    def rows(self, count: int) -> np.ndarray:
        """The next *count* draws per node, shape ``(N, count)``.

        Node-major layout: row *i* is node *i*'s next *count* draws.  When
        the prefetched block covers them this is a transposed view of the
        block (the caller must not mutate it); otherwise the prefetched
        head is copied and each node's remaining draws are filled straight
        from its stream into its contiguous row.  The draws are the same
        numbers :meth:`row` would have produced quantum by quantum — only
        the memory layout differs.
        """
        models = self._models
        if self._ones_row is not None:
            return np.ones((len(models), count))
        cursor = self._cursor
        have = len(self._matrix) - cursor
        if have >= count:
            self._cursor = cursor + count
            return self._matrix[cursor : cursor + count].T
        out = np.empty((len(models), count))
        if have:
            out[:, :have] = self._matrix[cursor:].T
            self._cursor += have
        rest = count - have
        for index, model in enumerate(models):
            out[index, have:] = model.take_jitter(rest)
        return out

    def _fetch(self, rows: int) -> np.ndarray:
        matrix = np.empty((rows, len(self._models)))
        for index, model in enumerate(self._models):
            matrix[:, index] = model.take_jitter(rows)
        return matrix


class _NodeClock:
    """The piecewise-affine simulated-time/host-time map of one node.

    Within a quantum the map is a sequence of segments, each with a rate in
    simulated nanoseconds per host second.  A new segment starts whenever
    the node's activity flips (application blocks or wakes); the driver
    resets the map at every barrier release.
    """

    __slots__ = ("seg_sim", "seg_host", "seg_rate", "busy_rate", "idle_rate")

    def __init__(self) -> None:
        self.seg_sim: SimTime = 0
        self.seg_host: float = 0.0
        self.seg_rate: float = 1.0
        self.busy_rate: float = 1.0
        self.idle_rate: float = 1.0

    def reset(
        self,
        sim_start: SimTime,
        host_start: float,
        busy_slowdown: float,
        idle_slowdown: float,
        activity: str,
    ) -> None:
        self.busy_rate = 1e9 / busy_slowdown
        self.idle_rate = 1e9 / idle_slowdown
        self.seg_sim = sim_start
        self.seg_host = host_start
        self.seg_rate = self.busy_rate if activity == BUSY else self.idle_rate

    def transition(self, sim_time: SimTime, activity: str) -> None:
        """Start a new segment at *sim_time* with the rate for *activity*."""
        self.seg_host = self.host_of(sim_time)
        self.seg_sim = sim_time
        self.seg_rate = self.busy_rate if activity == BUSY else self.idle_rate

    def host_of(self, sim_time: SimTime) -> float:
        """Host instant at which this node reaches *sim_time* (>= segment)."""
        return self.seg_host + (sim_time - self.seg_sim) / self.seg_rate

    def position_at(self, host_time: float, window: tuple[SimTime, SimTime]) -> SimTime:
        """Simulated position at *host_time*, clamped to the quantum."""
        start, end = window
        position = self.seg_sim + round(self.seg_rate * (host_time - self.seg_host))
        return min(max(position, start), end)

    def finish_host(self, quantum_end: SimTime) -> float:
        """Host instant at which this node reaches the barrier."""
        return self.host_of(quantum_end)


class ClusterSimulator:
    """Co-simulates N node simulators under quantum synchronization."""

    def __init__(
        self,
        nodes: list[SimulatedNode],
        controller: NetworkController,
        policy: QuantumPolicy,
        config: Optional[ClusterConfig] = None,
    ) -> None:
        if len(nodes) < 2:
            raise ValueError("a cluster needs at least two nodes")
        if controller.num_nodes != len(nodes):
            raise ValueError(
                f"controller is sized for {controller.num_nodes} nodes, got {len(nodes)}"
            )
        ids = [node.node_id for node in nodes]
        if ids != list(range(len(nodes))):
            raise ValueError(f"node ids must be 0..N-1 in order, got {ids}")
        self.nodes = nodes
        self.controller = controller
        self.policy = policy
        self.config = config or ClusterConfig()
        self.rng = RngStreams(self.config.seed)
        if self.config.sampling is not None:
            self.host_models: list[HostExecutionModel] = [
                SampledHostExecutionModel(
                    node.node_id, self.config.host_params, self.rng,
                    self.config.sampling,
                )
                for node in nodes
            ]
        else:
            self.host_models = [
                HostExecutionModel(node.node_id, self.config.host_params, self.rng)
                for node in nodes
            ]
        self.injector: Optional[FaultInjector] = None
        if self.config.faults is not None:
            self.injector = FaultInjector(
                self._validate_faults(self.config.faults), self.rng
            )
        controller.injector = self.injector
        controller.bind(self)
        self.sanitizer: Optional[CausalitySanitizer] = None
        if check_enabled(self.config.check):
            self.sanitizer = CausalitySanitizer.for_cluster(self)
        controller.sanitizer = self.sanitizer
        self.collector: Optional[TraceCollector] = None
        if self.config.trace is not None:
            self.collector = TraceCollector(self.config.trace)
        controller.collector = self.collector
        resolved = resolve_backend(self.config.backend)
        #: The concrete engine backend this run steps with ("python" or
        #: "native") and why "auto" degraded, if it did.  Observational
        #: only: both backends are bit-identical.
        self.backend = resolved.name
        self.backend_fallback_reason = resolved.fallback_reason
        if resolved.name == "native":
            # Swap each node's (still empty — start() has not run) queue
            # for the compiled implementation.  Everything downstream goes
            # through the shared queue API, so this is the only branch.
            native_queue = queue_class("native")
            for node in nodes:
                node.queue = native_queue()
        self._clocks = [_NodeClock() for _ in nodes]
        for node in nodes:
            node.emit_hook = self._on_emit
            node.activity_hook = self._on_activity_change
            node.collector = self.collector
            if self.config.checkpoint is not None:
                # Snapshots replay the application input log to rebuild
                # the (unpicklable) generators; recording costs one list
                # append per application step, only when checkpointing.
                node.app_log = []
            node.start()
        #: Harness-installed per-quantum callback ``(now, window)`` — the
        #: progress watchdog's beat (see :mod:`repro.harness.supervise`).
        #: Plain runs pay one ``is None`` test per quantum.
        self.supervision: Optional[Callable[[SimTime, SimTime], None]] = None
        #: Where snapshots go: None builds the default store sink from
        #: ``config.checkpoint`` on first use; tests install their own.
        self.checkpoint_sink: Optional[Callable[[Any], None]] = None
        #: Loop state installed by :func:`repro.checkpoint.restore_snapshot`;
        #: :meth:`run` consumes it to continue instead of starting at zero.
        self._resume: Optional[dict[str, Any]] = None
        self._window: tuple[SimTime, SimTime] = (0, 0)
        self._host_window_start: float = 0.0
        self._in_window = False
        self._dirty: list[int] = []
        #: Hot-path instrumentation; purely observational (never part of
        #: :class:`RunResult`).
        self.perf = PerfCounters()
        self._sampling = self.config.sampling is not None
        self._stalled = self.injector is not None and bool(
            self.injector.plan.stalls
        )
        # Per-quantum slowdowns are plain floats: one jitter row per window,
        # combined per node only when the window first touches the node
        # (:meth:`_materialize`) — event-free nodes never get a clock.
        self._feed = _JitterFeed(self.host_models)
        #: Cached bound methods: the run loop peeks every node's queue
        #: between quanta, and the attribute chain is measurable there.
        self._peeks = [node.queue.peek_time for node in nodes]
        #: The conservative bound T of the network (``Q <= T`` guarantees
        #: every in-window emission is due at or beyond the barrier) —
        #: eligibility test for the ground-truth window drain.
        self._min_latency = controller.latency_model.min_latency()
        #: Non-None while a drain window is collecting emissions (see
        #: the drain in :meth:`run`).
        self._drain_pending: Optional[list[tuple[float, int, int, Packet]]] = None
        # numpy copies of the per-node constants for the fast-forward
        # accelerator's (N, count) blocks.
        self._node_factors = np.array(
            [model.node_factor for model in self.host_models]
        )
        self._busy_bases = np.full(
            len(nodes), self.config.host_params.busy_slowdown
        )
        self._idle_bases = np.full(
            len(nodes), self.config.host_params.idle_slowdown
        )
        self._factors: list[float] = self._node_factors.tolist()
        self._idle_base = self.config.host_params.idle_slowdown
        self._epoch = 0
        self._epochs = [0] * len(nodes)
        self._touched: list[int] = []
        # This window's inputs to a node's slowdowns: jitter row, busy
        # bases (they vary per window only under sampling) and host-stall
        # factors (None without stalls).
        self._q_jitter: list[float] = []
        self._q_busy_bases: list[float] = self._busy_bases.tolist()
        self._q_stalls: Optional[list[float]] = None
        # Wide clusters only (see ``_ARRAY_COST_MIN_NODES``): this window's
        # jitter row as an array, and which nodes are busy at its start.
        # run() builds the mask from ``node.activity`` on entry, so a
        # restored snapshot needs no copy of it.
        self._q_row: Optional[np.ndarray] = None
        self._busy_mask: Optional[np.ndarray] = None

    def _validate_faults(self, plan: FaultPlan) -> FaultPlan:
        """Reject fault plans this cluster cannot execute to completion."""
        num_nodes = len(self.nodes)
        named = [
            node
            for partition in plan.partitions
            for node in partition.nodes
        ] + [stall.node for stall in plan.stalls]
        out_of_range = sorted({node for node in named if node >= num_nodes})
        if out_of_range:
            raise ValueError(
                f"fault plan names nodes {out_of_range} but the cluster has "
                f"only {num_nodes} nodes"
            )
        if plan.requires_recovery():
            for node in self.nodes:
                if node.transport is None or node.transport.recovery is None:
                    raise ValueError(
                        f"fault plan ({plan.describe()}) can lose or duplicate "
                        f"frames but {node.name} has no recovery-enabled "
                        "transport; construct nodes with transport="
                        "TransportConfig(recovery=RecoveryConfig()) so "
                        "workloads survive the faults"
                    )
        return plan

    # ------------------------------------------------------------------ #
    # ClusterState protocol (used by the controller's delivery policy)
    # ------------------------------------------------------------------ #

    def quantum_window(self) -> tuple[SimTime, SimTime]:
        return self._window

    def node_position_at(self, node: int, host_time: float) -> SimTime:
        # The delivery policy asks for destination positions mid-window;
        # give the destination a real clock if it was event-free so far.
        self._materialize(node)
        return self._clocks[node].position_at(host_time, self._window)

    # ------------------------------------------------------------------ #
    # Node hooks
    # ------------------------------------------------------------------ #

    def _on_emit(self, node: SimulatedNode, packet: Packet) -> None:
        pending = self._drain_pending
        if pending is not None:
            # Drain window: defer submission; the drain sorts the batch
            # into global host-time order before routing (every frame is
            # provably held, so nothing downstream needs it mid-window).
            node_id = node.node_id
            pending.append(
                (
                    self._clocks[node_id].host_of(packet.send_time),
                    node_id,
                    len(pending),
                    packet,
                )
            )
            return
        sender_host_time = self._clocks[node.node_id].host_of(packet.send_time)
        for decision in self.controller.submit(packet, sender_host_time):
            dst = decision.packet.dst
            self.nodes[dst].deliver(decision.packet, decision.deliver_time)
            # An in-window delivery may become the destination's next event.
            self._dirty.append(dst)

    def _on_activity_change(
        self, node: SimulatedNode, sim_time: SimTime, activity: str
    ) -> None:
        if self._in_window:
            # A node can only flip activity while handling one of its own
            # events, and handling is always preceded by materialization
            # (drain/heap entry or a delivery-position query), so the clock
            # is guaranteed fresh here (invariant covered by the property
            # tests comparing against the eagerly-reset reference stepper).
            self._clocks[node.node_id].transition(sim_time, activity)

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def run(self) -> RunResult:
        config = self.config
        nodes = self.nodes
        controller = self.controller
        policy = self.policy
        sanitizer = self.sanitizer
        injector = self.injector
        collector = self.collector
        num_nodes = len(nodes)
        barrier_cost = config.barrier.overhead(num_nodes)
        perf = self.perf

        resume = self._resume
        if resume is not None:
            # A restored snapshot re-enters the loop mid-run with the
            # exact locals the capture point saw (perf counters, queues,
            # RNG positions were restored onto ``self`` already).
            self._resume = None
            now: SimTime = resume["now"]
            host: float = resume["host"]
            q_state = resume["q_state"]
            quantum_stats = resume["quantum_stats"]
            breakdown = resume["breakdown"]
            timeline = resume["timeline"]
        else:
            now = 0
            host = 0.0
            q_state = policy.initial()
            quantum_stats = QuantumStats()
            breakdown = HostCostBreakdown()
            timeline = (
                BucketTimeline(config.timeline_bucket)
                if config.timeline_bucket is not None
                else None
            )
        supervision = self.supervision
        checkpoint = config.checkpoint
        # Cadence anchors: measured from the entry state so a resumed run
        # does not immediately re-snapshot what it just restored.
        cp_quanta = perf.event_quanta + perf.ff_quanta
        cp_sim = now

        # The drain path reorders only *unobserved* work (packet creation
        # order, hence packet ids, differs from the interleaved path), so
        # traced runs keep the interleaved window, and faulted runs keep
        # it too so the injector consumes its verdict stream at the same
        # call sites.  Results are bit-identical either way.
        drain_ok = collector is None and injector is None
        min_latency = self._min_latency
        limit = config.sim_time_limit
        # Every node's next event time, maintained incrementally: a node's
        # queue only changes when it is stepped in a window (the window
        # refreshes it) or when a held frame is released to it (updated at
        # the release site) — fast-forward spans touch no queues at all.
        times: list[Optional[SimTime]] = [peek() for peek in self._peeks]
        busy_mask: Optional[np.ndarray] = None
        if num_nodes >= _ARRAY_COST_MIN_NODES:
            self._busy_mask = busy_mask = np.array(
                [node.activity == BUSY for node in nodes]
            )
        feed = self._feed
        clocks = self._clocks
        epochs = self._epochs
        touched = self._touched
        factors = self._factors
        idle_base = self._idle_base
        drains = [node.queue.drain for node in nodes]
        # Termination: ``_done()`` can only hold once every application
        # has finished, and finishing is permanent, so a cursor at the
        # first unfinished node gates it.
        unfinished = 0
        while unfinished < num_nodes and nodes[unfinished].finished:
            unfinished += 1
        if unfinished == num_nodes and self._done():
            return self._result(now, host, True, breakdown, quantum_stats, timeline)

        while True:
            window = policy.window(q_state)
            if supervision is not None:
                # One call per quantum: the watchdog records progress and
                # raises RunTimeout past its wall-clock deadline.
                supervision(now, window)
            if now >= limit:
                return self._result(now, host, False, breakdown, quantum_stats, timeline)

            # Fast-forward never touches held frames, so this one read
            # also serves the release check below.
            held = controller.next_held_time()
            horizon = held
            for t in times:
                if t is not None and (horizon is None or t < horizon):
                    horizon = t
            if horizon is None:
                raise DeadlockError(self._deadlock_report(now))
            if (
                config.fast_forward
                and horizon - now >= config.fast_forward_min_quanta * window
            ):
                now, host, q_state = self._fast_forward(
                    now, host, q_state, min(horizon, limit),
                    barrier_cost, quantum_stats, breakdown, timeline,
                )
                window = policy.window(q_state)

            # One event-by-event quantum.  Its slowdown inputs are taken
            # as plain floats (wide clusters also keep the jitter row as
            # an array); a node's clock is built from them only when the
            # window first touches it, so event-free nodes advance
            # arithmetically (the subset fast-forward).
            start, end = now, now + window
            self._window = (start, end)
            if sanitizer is not None:
                sanitizer.on_quantum_start(start, end)
            if collector is not None:
                collector.quantum_begin(start, end)
            self._host_window_start = host
            if busy_mask is not None:
                self._q_row = row = feed.row()
                self._q_jitter = jitter = row.tolist()
            else:
                self._q_jitter = jitter = feed.row_list()
            if self._sampling:
                self._q_busy_bases = [
                    model.busy_base_at(start) for model in self.host_models
                ]
            if injector is not None:
                if self._stalled:
                    self._q_stalls = [
                        injector.stall_factor(node_id, start, end)
                        for node_id in range(num_nodes)
                    ]
                injector.on_quantum(start, end)
            busy_bases = self._q_busy_bases
            stalls = self._q_stalls
            self._epoch = epoch = self._epoch + 1
            touched.clear()

            # Only ask the controller to scan its held-frame heap when the
            # earliest held frame is actually due — for most quanta the call
            # would return an empty list (the hot path of long runs).
            if held is not None and held < end:
                for decision in controller.release_due(start, end):
                    dst = decision.packet.dst
                    nodes[dst].deliver(decision.packet, decision.deliver_time)
                    times[dst] = nodes[dst].peek_time()

            self._in_window = True
            if drain_ok and window <= min_latency:
                # Drain window (``Q <= T``, DESIGN.md §3): every frame
                # sent in it is held past the barrier, so each active node
                # drains its events in one pass.  :meth:`_on_emit` collects
                # the emissions, sorted into the interleaved heap's order
                # ``(host time, node id, per-node order)`` for submission.
                pending: list[tuple[float, int, int, Packet]] = []
                self._drain_pending = pending
                handled = 0
                for node_id, event_time in enumerate(times):
                    if event_time is None or event_time >= end:
                        continue
                    node = nodes[node_id]
                    if epochs[node_id] != epoch:
                        # :meth:`_materialize` written out: a ground-truth
                        # window materializes most nodes, and the call
                        # per node cost 1-5% of a 64-node run.
                        epochs[node_id] = epoch
                        touched.append(node_id)
                        busy, idle = _slowdowns(
                            jitter[node_id], factors[node_id], busy_bases[node_id],
                            idle_base, None if stalls is None else stalls[node_id],
                        )
                        clock = clocks[node_id]
                        clock.busy_rate = busy_rate = 1e9 / busy
                        clock.idle_rate = idle_rate = 1e9 / idle
                        clock.seg_sim = start
                        clock.seg_host = host
                        clock.seg_rate = (
                            busy_rate if node.activity == BUSY else idle_rate
                        )
                    # Nothing is delivered mid-window, so the drain's final
                    # head time is exactly a fresh peek.
                    count, times[node_id] = drains[node_id](end, node)
                    handled += count
                self._drain_pending = None
                if pending:
                    if len(pending) > 1:
                        # The unique order field makes the sort total
                        # without ever comparing packets.
                        pending.sort()
                    controller.submit_held_batch(pending)
                perf.events += handled
                perf.drain_windows += 1
            else:
                self._run_window(end, times)
            self._in_window = False

            perf.event_quanta += 1
            stepped = len(touched)
            perf.stepped_node_quanta += stepped
            if stepped < num_nodes:
                # Subset fast-forward: the event-free nodes of this
                # window were advanced arithmetically.
                perf.skipped_node_quanta += num_nodes - stepped
                perf.subset_windows += 1

            np_count = controller.end_quantum()
            if sanitizer is not None:
                # The sanitizer audits every clock's segment anchor;
                # give event-free nodes their (value-identical) clocks.
                self._materialize_all()
                sanitizer.on_quantum_end(start, end, np_count)
            while unfinished < num_nodes and nodes[unfinished].finished:
                unfinished += 1
            if unfinished == num_nodes and self._done():
                self._materialize_all()
                # The run completed inside this quantum: the simulation stops
                # the moment the last application event is processed, so the
                # final (partial) quantum costs host time only up to that
                # instant and pays no closing barrier.
                finishes = [
                    min(max(t, start), end)
                    for t in (node.app_finish_time for node in nodes)
                    if t is not None
                ]
                last = max(finishes) if finishes else start
                node_cost = max(
                    clock.host_of(min(max(t, start), end))
                    for clock, t in zip(
                        clocks,
                        (node.app_finish_time or start for node in nodes),
                    )
                ) - host
                host += node_cost
                breakdown.add(node_cost, 0.0)
                # Stats record the policy's nominal window (the truncation
                # is a termination artefact, not a policy decision).
                quantum_stats.record(window)
                if timeline is not None and node_cost > 0:
                    timeline.add_span(start, max(last, start + 1), node_cost)
                if collector is not None:
                    collector.quantum_end(
                        start, end, np_count, "final", window, node_cost, 0.0
                    )
                now = max(last, start + 1)
                break

            # Window cost: the max host finish time over all nodes.  An
            # untouched node finishes at ``host + window / (1e9 / s)`` for
            # its slowdown ``s``; that is monotone in ``s``, so the max over
            # untouched nodes is taken at their largest ``s`` (DESIGN.md
            # §3).  Read the touched count only now: the sanitizer may have
            # materialized every node.
            best = -math.inf
            for node_id in touched:
                clock = clocks[node_id]
                finish = clock.seg_host + (end - clock.seg_sim) / clock.seg_rate
                if finish > best:
                    best = finish
            if busy_mask is not None:
                # Only stepped nodes can have flipped activity; the mask
                # now holds every node's activity at the next window's start.
                for node_id in touched:
                    busy_mask[node_id] = nodes[node_id].activity == BUSY
            if len(touched) < num_nodes:
                if busy_mask is not None:
                    worst = self._worst_untouched_slowdown()
                else:
                    # An untouched node's activity is still its window-start
                    # value; :func:`_slowdowns` written out, since a call
                    # per node took a 64-node window from 5.2 to 9.0 us.
                    worst = 0.0
                    for node_id, node in enumerate(nodes):
                        if epochs[node_id] == epoch:
                            continue
                        slow = (
                            busy_bases[node_id]
                            if node.activity == BUSY
                            else idle_base
                        ) * (jitter[node_id] * factors[node_id])
                        if stalls is not None:
                            slow *= stalls[node_id]
                        if slow > worst:
                            worst = slow
                finish = host + window / (1e9 / worst)
                if finish > best:
                    best = finish
            node_cost = best - host
            # ``breakdown.add`` and ``quantum_stats.record`` written out.
            host += node_cost + barrier_cost
            breakdown.node_simulation += node_cost
            breakdown.barrier += barrier_cost
            if quantum_stats.quanta == 0:
                quantum_stats.min_used = quantum_stats.max_used = window
            elif window < quantum_stats.min_used:
                quantum_stats.min_used = window
            elif window > quantum_stats.max_used:
                quantum_stats.max_used = window
            quantum_stats.quanta += 1
            quantum_stats.total_quantum_time += window
            if timeline is not None:
                timeline.add_span(start, end, node_cost + barrier_cost)
            next_state = policy.next(q_state, np_count)
            if collector is not None:
                if collector.config.barriers:
                    self._materialize_all()
                    finishes = [clock.finish_host(end) for clock in clocks]
                    slowest = max(finishes)
                    for node_id, finish in enumerate(finishes):
                        collector.barrier_wait(node_id, end, slowest - finish)
                next_window = policy.window(next_state)
                if next_window > window:
                    decision = "grow"
                elif next_window < window:
                    decision = "shrink"
                else:
                    decision = "hold"
                collector.quantum_end(
                    start, end, np_count, decision, next_window,
                    node_cost, barrier_cost,
                )
            q_state = next_state
            now = end
            if checkpoint is not None:
                quanta_done = perf.event_quanta + perf.ff_quanta
                if (
                    checkpoint.every_quanta is not None
                    and quanta_done - cp_quanta >= checkpoint.every_quanta
                ) or (
                    checkpoint.every_sim_time is not None
                    and now - cp_sim >= checkpoint.every_sim_time
                ):
                    self._emit_checkpoint(
                        now, host, q_state, quantum_stats, breakdown, timeline
                    )
                    cp_quanta = quanta_done
                    cp_sim = now

        return self._result(now, host, True, breakdown, quantum_stats, timeline)

    def _emit_checkpoint(
        self,
        now: SimTime,
        host: float,
        q_state: float,
        quantum_stats: QuantumStats,
        breakdown: HostCostBreakdown,
        timeline: Optional[BucketTimeline],
    ) -> None:
        """Capture the boundary state and hand it to the snapshot sink.

        The capture/store machinery is imported lazily: plain runs never
        touch :mod:`repro.checkpoint.snapshot` (which imports back into
        this module at its top level).
        """
        from repro.checkpoint.snapshot import capture_snapshot

        snapshot = capture_snapshot(
            self,
            now=now,
            host=host,
            q_state=q_state,
            quantum_stats=quantum_stats,
            breakdown=breakdown,
            timeline=timeline,
        )
        if self.checkpoint_sink is None:
            from repro.checkpoint.store import CheckpointStore

            checkpoint = self.config.checkpoint
            assert checkpoint is not None
            store = CheckpointStore(checkpoint.directory)
            label, key = checkpoint.label, checkpoint.key

            def sink(snap: Any) -> None:
                store.save(label, snap, key=key)

            self.checkpoint_sink = sink
        self.checkpoint_sink(snapshot)

    # ------------------------------------------------------------------ #
    # Event windows
    # ------------------------------------------------------------------ #

    def _materialize(self, node_id: int) -> None:
        """Give *node_id* a real per-window clock (idempotent per window).

        The slowdowns come from :func:`_slowdowns`, then ``rate = 1e9 /
        slowdown`` — the same doubles per-node ``slowdown_pair`` plus
        ``clock.reset`` would give.  Untouched nodes cannot have flipped
        activity (flips only happen while handling events, which
        materializes first), so ``node.activity`` still holds the
        window-start value.
        """
        if self._epochs[node_id] == self._epoch:
            return
        self._epochs[node_id] = self._epoch
        self._touched.append(node_id)
        stalls = self._q_stalls
        busy, idle = _slowdowns(
            self._q_jitter[node_id],
            self._factors[node_id],
            self._q_busy_bases[node_id],
            self._idle_base,
            None if stalls is None else stalls[node_id],
        )
        clock = self._clocks[node_id]
        clock.busy_rate = busy_rate = 1e9 / busy
        clock.idle_rate = idle_rate = 1e9 / idle
        clock.seg_sim = self._window[0]
        clock.seg_host = self._host_window_start
        clock.seg_rate = (
            busy_rate if self.nodes[node_id].activity == BUSY else idle_rate
        )

    def _materialize_all(self) -> None:
        for node_id in range(len(self.nodes)):
            self._materialize(node_id)

    def _worst_untouched_slowdown(self) -> float:
        """The largest slowdown of a node this window did not step, for
        wide clusters (``_ARRAY_COST_MIN_NODES``): a few numpy calls over
        the window's jitter row and the busy mask.

        An untouched node's activity is still its window-start value, so
        its slowdown is the busy or idle one of :func:`_slowdowns`.
        """
        mask = self._busy_mask
        stalls = self._q_stalls
        assert mask is not None and self._q_row is not None
        busy, idle = _slowdowns(
            self._q_row,
            self._node_factors,
            np.array(self._q_busy_bases) if self._sampling else self._busy_bases,
            self._idle_base,
            None if stalls is None else np.array(stalls),
        )
        slow = np.where(mask, busy, idle)
        # Stepped nodes' entries are stale (their activity was refreshed);
        # slowdowns are positive, so 0 never wins.
        slow[self._touched] = 0.0
        return float(slow.max())

    def _run_window(self, end: SimTime, times: list[Optional[SimTime]]) -> None:
        """Interleave node events in host-time order until the barrier.

        A lazy-invalidation heap orders the nodes' next events by
        ``(host_key, node_id, seq)``; an entry is stale whenever its node's
        queue head or clock may have changed (tracked with per-node
        sequence numbers).  Nodes are materialized on first touch
        (event-free nodes never enter the heap at all), and after handling
        an event the node keeps draining *directly* while its next key
        still beats the heap top — the heap top's key is a lower bound on
        every live entry, so winning the comparison proves the node would
        be popped next anyway.  Every stepped node's entry in *times* is
        refreshed before returning.
        """
        nodes = self.nodes
        clocks = self._clocks
        materialize = self._materialize
        sequences = [0] * len(nodes)
        heap: list[tuple[float, int, int]] = []
        for node_id, event_time in enumerate(times):
            if event_time is not None and event_time < end:
                materialize(node_id)
                heap.append((clocks[node_id].host_of(event_time), node_id, 0))
        heapq.heapify(heap)
        heappush = heapq.heappush
        heappop = heapq.heappop
        dirty = self._dirty
        handled = 0
        while heap:
            _, node_id, entry_seq = heappop(heap)
            if entry_seq != sequences[node_id]:
                continue
            node = nodes[node_id]
            clock = clocks[node_id]
            peek = node.queue.peek_time
            handle = node.pop_and_handle
            while True:
                dirty.clear()
                handle()
                handled += 1
                for touched in dirty:
                    if touched == node_id:
                        continue
                    sequences[touched] += 1
                    t = nodes[touched].peek_time()
                    if t is not None and t < end:
                        materialize(touched)
                        heappush(
                            heap,
                            (
                                clocks[touched].host_of(t),
                                touched,
                                sequences[touched],
                            ),
                        )
                event_time = peek()
                if event_time is None or event_time >= end:
                    break
                if not heap:
                    continue
                key = clock.host_of(event_time)
                top = heap[0]
                if key < top[0] or (key == top[0] and node_id < top[1]):
                    continue
                sequences[node_id] += 1
                heappush(heap, (key, node_id, sequences[node_id]))
                break
        dirty.clear()
        self.perf.events += handled
        # Only stepped nodes' queues changed: an in-window delivery asks
        # for its destination's position, which materializes it.
        peeks = self._peeks
        for node_id in self._touched:
            times[node_id] = peeks[node_id]()

    # ------------------------------------------------------------------ #
    # Fast-forward accelerator
    # ------------------------------------------------------------------ #

    def _fast_forward(
        self,
        now: SimTime,
        host: float,
        q_state: float,
        horizon: SimTime,
        barrier_cost: float,
        quantum_stats: QuantumStats,
        breakdown: HostCostBreakdown,
        timeline: Optional[BucketTimeline],
    ) -> tuple[SimTime, float, float]:
        """Skip whole packet-free quanta up to (never into) *horizon*.

        No events means no activity transitions, so each node advances each
        skipped quantum at a single rate.  Jitter comes through the shared
        feed as one ``(N, count)`` block per chunk.  The homogeneous case
        (no sampling schedule, no host stalls) folds each node's slowdowns
        into one coefficient times its jitter row and takes the max over
        nodes one column block at a time (``_FF_BLOCK_ELEMENTS``); sampled
        or stalled runs apply the per-node slowdown formula.  Either way
        the per-element float operations match per-quantum draws exactly.

        :meth:`~repro.core.quantum.QuantumPolicy.idle_chunk` returns only
        windows that fit the span, so none fits once the span left is
        shorter than the current window: the loop stops there without
        asking for an empty chunk.
        """
        policy = self.policy
        chunk = self.config.chunk
        controller = self.controller
        sanitizer = self.sanitizer
        injector = self.injector
        collector = self.collector
        perf = self.perf
        stalled = self._stalled
        activities = [node.activity for node in self.nodes]
        coeff: Optional[np.ndarray] = None
        if not (self._sampling or stalled):
            busy_base = self.config.host_params.busy_slowdown
            idle_base = self._idle_base
            # slowdown = (base * node_factor) * jitter, elementwise — the
            # same products per-quantum draws would compute.
            coeff = np.array(
                [
                    (busy_base if activity == BUSY else idle_base) * factor
                    for activity, factor in zip(activities, self._factors)
                ]
            )[:, None]
        block = max(1, _FF_BLOCK_ELEMENTS // len(activities))
        while horizon - now >= policy.window(q_state):
            lengths, next_state = policy.idle_chunk(q_state, horizon - now, chunk)
            count = len(lengths)
            if count == 0:  # ``config.chunk == 0`` allows no windows
                break
            jitter = self._feed.rows(count)
            if coeff is not None:
                # Float max is order-insensitive; the column blocks bound
                # the product temporary.
                max_slow = np.empty(count)
                for first in range(0, count, block):
                    (jitter[:, first : first + block] * coeff).max(
                        axis=0, out=max_slow[first : first + block]
                    )
            else:
                starts = now + np.concatenate(([0], np.cumsum(lengths[:-1])))
                ends = starts + lengths if stalled else None
                models = self.host_models
                max_slow = models[0].slowdowns_from(
                    jitter[0], activities[0], starts
                )
                if stalled:
                    assert injector is not None and ends is not None
                    factors = injector.stall_factors(0, starts, ends)
                    if factors is not None:
                        max_slow *= factors
                for node_id, (model, activity) in enumerate(
                    zip(models[1:], activities[1:]), start=1
                ):
                    slow = model.slowdowns_from(
                        jitter[node_id], activity, starts
                    )
                    if stalled:
                        assert injector is not None and ends is not None
                        factors = injector.stall_factors(node_id, starts, ends)
                        if factors is not None:
                            slow = slow * factors
                    np.maximum(max_slow, slow, out=max_slow)
                if stalled:
                    assert injector is not None and ends is not None
                    injector.on_quanta(starts, ends)
            node_cost = float((lengths * max_slow).sum()) / 1e9
            span = int(lengths.sum())
            barrier_total = barrier_cost * count
            host += node_cost + barrier_total
            breakdown.add(node_cost, barrier_total)
            quantum_stats.record_lengths(lengths)
            controller.note_idle_quanta(count)
            if sanitizer is not None:
                sanitizer.on_fast_forward(
                    now, span, count, horizon, controller.next_held_time()
                )
            if collector is not None:
                collector.fast_forward(now, span, count, node_cost, barrier_total)
            if timeline is not None:
                timeline.add_span(now, now + span, node_cost + barrier_total)
            perf.ff_spans += 1
            perf.ff_quanta += count
            now += span
            q_state = next_state
        return now, host, q_state

    # ------------------------------------------------------------------ #
    # Termination
    # ------------------------------------------------------------------ #

    def _done(self) -> bool:
        if self.controller.pending_count() > 0:
            return False
        for node in self.nodes:
            if not node.finished or node.peek_time() is not None:
                return False
            if node.transport is not None and (
                node.transport.queued_frames() > 0
                or node.transport.unacked_frames() > 0
            ):
                return False
        return True

    def _deadlock_report(self, now: SimTime) -> str:
        blocked = [node.name for node in self.nodes if node.blocked]
        return (
            f"deadlock at {format_time(now)}: no pending events or packets, "
            f"but applications are still waiting (blocked: {', '.join(blocked) or 'none'})"
        )

    def _result(
        self,
        now: SimTime,
        host: float,
        completed: bool,
        breakdown: HostCostBreakdown,
        quantum_stats: QuantumStats,
        timeline: Optional[BucketTimeline],
    ) -> RunResult:
        transport_stats: Optional[list[TransportStats]] = None
        if any(
            node.transport is not None and node.transport.recovery is not None
            for node in self.nodes
        ):
            transport_stats = [
                node.transport.stats if node.transport is not None else TransportStats()
                for node in self.nodes
            ]
        result = RunResult(
            sim_time=now,
            host_time=host,
            completed=completed,
            breakdown=breakdown,
            quantum_stats=quantum_stats,
            controller_stats=self.controller.stats,
            node_stats=[node.stats for node in self.nodes],
            app_results=[node.app_result for node in self.nodes],
            app_finish_times=[node.app_finish_time for node in self.nodes],
            timeline=timeline,
            fault_stats=self.injector.stats if self.injector is not None else None,
            transport_stats=transport_stats,
        )
        if self.sanitizer is not None:
            self.sanitizer.on_run_end(result)
        if self.collector is not None:
            self.collector.flush()
        return result
