"""The scalar reference stepper, kept for differential tests only.

:class:`ReferenceSimulator` runs the same main loop as
:class:`~repro.core.cluster.ClusterSimulator` but replaces every window
hook with the most direct form of its semantics:

* every node's clock is reset eagerly at each window start, from one
  :meth:`~repro.node.hostmodel.HostExecutionModel.slowdown_pair` call per
  node (plus host-stall scaling) — no jitter feed, no lazy clocks;
* every window interleaves all nodes' events through one host-time heap,
  re-keying after every event (no drain windows, no run-length elision);
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

from repro.core.cluster import ClusterSimulator
from repro.core.quantum import QuantumStats
from repro.core.stats import BucketTimeline, HostCostBreakdown
from repro.engine.units import SimTime


class ReferenceSimulator(ClusterSimulator):
    """Eager, heap-interleaved, per-model stepper with the same results."""

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

    # The reference never drains: every window interleaves in host time.
    _run_window_drain = _run_window

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
