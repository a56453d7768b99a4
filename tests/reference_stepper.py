"""The scalar reference stepper, kept for differential tests only.

:class:`ReferenceSimulator` runs its own main loop — the plain loop the
production driver had before it inlined its per-quantum work — so the
differential tests check production's termination, fast-forward dispatch
and accounting against an independent implementation.  The loop calls
window hooks that state each step's semantics in its most direct form:

* every node's clock is reset eagerly at each window start, from one
  :meth:`~repro.node.hostmodel.HostExecutionModel.slowdown_pair` call per
  node (plus host-stall scaling) — no jitter feed, no lazy clocks;
* every window interleaves all nodes' events through one host-time heap,
  re-keying after every event (no drain windows, no run-length elision);
* termination is a full :meth:`~ClusterSimulator._done` check at every
  quantum boundary;
* a window costs the max over all clocks' finish times;
* fast-forward spans draw each node's slowdowns with
  :meth:`~repro.node.hostmodel.HostExecutionModel.slowdowns`.

The production stepper must reproduce this class's results field for
field (and trace stream for trace stream).
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from repro.core.cluster import ClusterSimulator, DeadlockError, RunResult
from repro.core.quantum import QuantumStats
from repro.core.stats import BucketTimeline, HostCostBreakdown
from repro.engine.units import SimTime


class ReferenceSimulator(ClusterSimulator):
    """Eager, heap-interleaved, per-model stepper with the same results."""

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

        # Every node's next event time; every window re-peeks all nodes.
        times: list[Optional[SimTime]] = [peek() for peek in self._peeks]

        while not self._done():
            if supervision is not None:
                # One call per quantum: the watchdog records progress and
                # raises RunTimeout past its wall-clock deadline.
                supervision(now, policy.window(q_state))
            if now >= config.sim_time_limit:
                return self._result(now, host, False, breakdown, quantum_stats, timeline)

            horizon = controller.next_held_time()
            for t in times:
                if t is not None and (horizon is None or t < horizon):
                    horizon = t
            if horizon is None:
                raise DeadlockError(self._deadlock_report(now))

            if config.fast_forward:
                window = policy.window(q_state)
                if horizon - now >= config.fast_forward_min_quanta * window:
                    now, host, q_state = self._fast_forward(
                        now, host, q_state, min(horizon, config.sim_time_limit),
                        barrier_cost, quantum_stats, breakdown, timeline,
                    )

            # One event-by-event quantum.
            window = policy.window(q_state)
            start, end = now, now + window
            self._window = (start, end)
            if sanitizer is not None:
                sanitizer.on_quantum_start(start, end)
            if collector is not None:
                collector.quantum_begin(start, end)
            self._host_window_start = host
            self._prepare_window(start, end)
            if injector is not None:
                injector.on_quantum(start, end)

            # Only ask the controller to scan its held-frame heap when the
            # earliest held frame is actually due — for most quanta the call
            # would return an empty list (the hot path of long runs).
            held = controller.next_held_time()
            if held is not None and held < end:
                for decision in controller.release_due(start, end):
                    dst = decision.packet.dst
                    nodes[dst].deliver(decision.packet, decision.deliver_time)
                    times[dst] = nodes[dst].peek_time()

            self._in_window = True
            self._run_window(end, times)
            self._in_window = False

            perf.event_quanta += 1
            stepped = len(self._touched)
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
            if self._done():
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
                        self._clocks,
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
            node_cost = self._window_cost(start, end, host)
            host += node_cost + barrier_cost
            breakdown.add(node_cost, barrier_cost)
            quantum_stats.record(window)
            if timeline is not None:
                timeline.add_span(start, end, node_cost + barrier_cost)
            next_state = policy.next(q_state, np_count)
            if collector is not None:
                if collector.config.barriers:
                    self._materialize_all()
                    finishes = [clock.finish_host(end) for clock in self._clocks]
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


    def _prepare_window(self, start: SimTime, end: SimTime) -> None:
        host = self._host_window_start
        injector = self.injector
        for node, clock, model in zip(self.nodes, self._clocks, self.host_models):
            busy_slowdown, idle_slowdown = model.slowdown_pair(start)
            if injector is not None:
                stall = injector.stall_factor(node.node_id, start, end)
                if stall != 1.0:
                    busy_slowdown *= stall
                    idle_slowdown *= stall
            clock.reset(start, host, busy_slowdown, idle_slowdown, node.activity)
        self._touched[:] = range(len(self.nodes))

    def _materialize(self, node_id: int) -> None:
        """Every clock was reset at window start."""

    def _window_cost(self, start: SimTime, end: SimTime, host: float) -> float:
        return max(clock.finish_host(end) for clock in self._clocks) - host

    def _run_window(self, end: SimTime, times: list[Optional[SimTime]]) -> None:
        """Interleave node events in host-time order until the barrier.

        A lazy-invalidation heap orders the nodes' next events by host time
        (ties by node id); a node's entry is stale whenever its queue head
        or its clock may have changed, tracked with per-node sequence
        numbers bumped on every push.  Afterwards every entry of *times*
        is re-peeked.
        """
        nodes = self.nodes
        clocks = self._clocks
        sequences = [0] * len(nodes)
        heap: list[tuple[float, int, int]] = []

        def push(node_id: int) -> None:
            event_time = nodes[node_id].peek_time()
            sequences[node_id] += 1
            if event_time is None or event_time >= end:
                return
            key = clocks[node_id].host_of(event_time)
            heapq.heappush(heap, (key, node_id, sequences[node_id]))

        for node_id in range(len(nodes)):
            push(node_id)
        dirty = self._dirty
        handled = 0
        while heap:
            _, node_id, entry_seq = heapq.heappop(heap)
            if entry_seq != sequences[node_id]:
                continue
            dirty.clear()
            nodes[node_id].pop_and_handle()
            handled += 1
            push(node_id)
            for touched in dirty:
                if touched != node_id:
                    push(touched)
        dirty.clear()
        self.perf.events += handled
        times[:] = [node.peek_time() for node in nodes]

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
        activities = [node.activity for node in self.nodes]
        injector = self.injector
        stalled = injector is not None and bool(injector.plan.stalls)
        while True:
            lengths, next_state = self.policy.idle_chunk(
                q_state, horizon - now, self.config.chunk
            )
            count = len(lengths)
            if count == 0:
                return now, host, q_state
            starts = now + np.concatenate(([0], np.cumsum(lengths[:-1])))
            ends = starts + lengths
            max_slow = None
            for node_id, (model, activity) in enumerate(
                zip(self.host_models, activities)
            ):
                slow = model.slowdowns(count, activity, starts)
                if stalled:
                    assert injector is not None
                    factors = injector.stall_factors(node_id, starts, ends)
                    if factors is not None:
                        slow = slow * factors
                max_slow = slow if max_slow is None else np.maximum(max_slow, slow)
            assert max_slow is not None
            if stalled:
                assert injector is not None
                injector.on_quanta(starts, ends)
            node_cost = float((lengths * max_slow).sum()) / 1e9
            span = int(lengths.sum())
            barrier_total = barrier_cost * count
            host += node_cost + barrier_total
            breakdown.add(node_cost, barrier_total)
            quantum_stats.record_lengths(lengths)
            self.controller.note_idle_quanta(count)
            if self.sanitizer is not None:
                self.sanitizer.on_fast_forward(
                    now, span, count, horizon, self.controller.next_held_time()
                )
            if self.collector is not None:
                self.collector.fast_forward(
                    now, span, count, node_cost, barrier_total
                )
            if timeline is not None:
                timeline.add_span(now, now + span, node_cost + barrier_total)
            self.perf.ff_spans += 1
            self.perf.ff_quanta += count
            now += span
            q_state = next_state
