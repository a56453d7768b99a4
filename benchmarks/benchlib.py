"""Shared machinery and JSON schema for the wall-clock benchmarks.

Every runtime benchmark in this directory reports through one schema
(``repro-bench/1``) so results from different harnesses are comparable:

.. code-block:: json

    {
      "meta":  { "schema": "repro-bench/1", "generated_by": "...",
                 "python": "...", "cpu_count": 8, "rounds": 3, "seed": 42 },
      "cases": { "<case>": { "wall_s": 1.0, "speedup": 1.6, ... } }
    }

``meta`` carries everything needed to judge whether two reports came from
comparable machines; ``cases`` maps a case name to its measured numbers.
All timings are best-of-``rounds`` (small containers are noisy; the
minimum is the stable statistic).

The module also hosts the case registry for ``bench_runtime.py``: the
single-run hot-path cases (the Section-6 64-node ground-truth runs, the
Figure-6 8-node adaptive matrix and a sparse 256-node service run), each
a list of simulator executions
built from public APIs only — so the same case definitions can be timed
against an older checkout of the simulator (see ``REPRO_BENCH_SRC``).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent

# The benchmarks normally run against the in-tree sources; a baseline
# harness may point REPRO_BENCH_SRC at another checkout's ``src`` to time
# the identical cases against older simulator code.
_src = Path(os.environ.get("REPRO_BENCH_SRC") or REPO_ROOT / "src")
if str(_src) not in sys.path:
    sys.path.insert(0, str(_src))

from repro.core.cluster import ClusterConfig, ClusterSimulator  # noqa: E402
from repro.core.quantum import (  # noqa: E402
    AdaptiveQuantumPolicy,
    FixedQuantumPolicy,
)
from repro.network.controller import NetworkController  # noqa: E402
from repro.network.latency import PAPER_NETWORK  # noqa: E402
from repro.node.node import SimulatedNode  # noqa: E402

SCHEMA = "repro-bench/1"
BENCH_SEED = 42
US = 1_000


# --------------------------------------------------------------------- #
# Schema helpers
# --------------------------------------------------------------------- #


def bench_meta(**extra: Any) -> dict[str, Any]:
    """The standard ``meta`` block, plus any harness-specific fields."""
    meta: dict[str, Any] = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "seed": BENCH_SEED,
    }
    meta.update(extra)
    return meta


def write_report(path: Path, meta: dict[str, Any], cases: dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"meta": meta, "cases": cases}, indent=2) + "\n")


# --------------------------------------------------------------------- #
# Single-run execution
# --------------------------------------------------------------------- #


def run_once(
    workload: Any,
    size: int,
    policy: Any,
    *,
    seed: int = BENCH_SEED,
    shards: int = 1,
    backend: str = "python",
    simulator: Optional[type] = None,
) -> tuple[Any, Any, float]:
    """Build and run one cluster simulation; returns (result, perf, wall_s).

    ``perf`` is the driver's :class:`PerfCounters` when the checkout
    exposes them, else ``None``.  ``shards > 1`` runs through the sharded
    driver (bit-identical to serial; raises if the checkout predates it
    or the configuration fell back to serial — a benchmark labelled
    "sharded" must not silently time the serial path).  ``backend``
    defaults to the pure-python engine core so timings never depend on
    whether the compiled module happens to be importable; a benchmark
    labelled "native" raises rather than silently timing python.
    ``simulator`` replaces :class:`ClusterSimulator` (e.g. with the
    reference stepper the identity checks compare against).
    """

    def build() -> Any:
        apps = workload.build_apps(size)
        nodes = [SimulatedNode(i, app) for i, app in enumerate(apps)]
        controller = NetworkController(size, PAPER_NETWORK(size))
        try:
            config = ClusterConfig(seed=seed, backend=backend)
        except TypeError:
            # Older checkouts (baseline timing) predate the ``backend``
            # knob; they time their default path.
            if backend != "python":
                raise
            config = ClusterConfig(seed=seed)
        return (simulator or ClusterSimulator)(nodes, controller, policy, config)

    if shards > 1:
        from repro.shard import run_sharded

        started = time.perf_counter()
        outcome = run_sharded(build, shards=shards)
        wall = time.perf_counter() - started
        if outcome.shards != shards:
            raise RuntimeError(
                f"sharded benchmark fell back to serial: "
                f"{outcome.fallback_reason}"
            )
        return outcome.result, getattr(outcome.simulator, "perf", None), wall
    sim = build()
    started = time.perf_counter()
    result = sim.run()
    wall = time.perf_counter() - started
    return result, getattr(sim, "perf", None), wall


# --------------------------------------------------------------------- #
# Case registry for bench_runtime.py
# --------------------------------------------------------------------- #

#: name -> list of run factories; each factory yields (workload, size, policy)
#: with fresh objects, so repeated timings are fully independent.
RunFactory = Callable[[], tuple[Any, int, Any]]


def _gt() -> Any:
    return FixedQuantumPolicy(US)


def _dyn(inc: float, max_q: int = 1000 * US, min_q: int = US) -> Any:
    return AdaptiveQuantumPolicy(min_q, max_q, inc=inc, dec=0.02)


def _sec6_runs() -> dict[str, list[RunFactory]]:
    from repro.workloads.namd import NamdWorkload
    from repro.workloads.nas_ep import EpWorkload
    from repro.workloads.nas_is import IsWorkload

    return {
        # Section 6 case studies at the ground-truth quantum (1 us): the
        # hot-path headline cases — every quantum is a drain window.
        "namd64_gt": [lambda: (NamdWorkload(), 64, _gt())],
        "is64_gt": [lambda: (IsWorkload(total_keys=2**24), 64, _gt())],
        "ep64_gt": [lambda: (EpWorkload(total_ops=6.4e9), 64, _gt())],
    }


def _f6_adaptive_runs() -> list[RunFactory]:
    """The Figure-6 adaptive matrix at 8 nodes: five NAS kernels under
    both paper adaptive configurations."""
    from repro.workloads.nas_cg import CgWorkload
    from repro.workloads.nas_ep import EpWorkload
    from repro.workloads.nas_is import IsWorkload
    from repro.workloads.nas_lu import LuWorkload
    from repro.workloads.nas_mg import MgWorkload

    kernels = (EpWorkload, IsWorkload, CgWorkload, MgWorkload, LuWorkload)
    runs: list[RunFactory] = []
    for inc in (1.03, 1.05):
        for kernel in kernels:
            runs.append(lambda k=kernel, i=inc: (k(), 8, _dyn(i)))
    return runs


def _wide_service_runs() -> list[RunFactory]:
    """A sparse 256-node service run at ``Q = T``: about four nodes step
    per window, so costing the event-free nodes dominates the driver.
    This is the wide side of the stepper's node-count switch (numpy
    costing from 96 nodes up); the 8-node cases are the narrow side."""
    from repro.service import ArrivalProfile, ServiceWorkload

    def run() -> tuple[Any, int, Any]:
        profile = ArrivalProfile(
            rate_per_sec=20_000.0, num_requests=500, diurnal_amplitude=0.3
        )
        truth = FixedQuantumPolicy(PAPER_NETWORK(256).min_latency())
        return ServiceWorkload(profile=profile, seed=BENCH_SEED), 256, truth

    return [run]


def full_cases() -> dict[str, list[RunFactory]]:
    cases = _sec6_runs()
    cases["f6_8node_adaptive"] = _f6_adaptive_runs()
    cases["svc256_gt"] = _wide_service_runs()
    return cases


def quick_cases() -> dict[str, list[RunFactory]]:
    """Small cases (sub-second each) for the CI perf smoke job."""
    from repro.workloads.namd import NamdWorkload
    from repro.workloads.nas_is import IsWorkload

    return {
        "is8_dyn_quick": [lambda: (IsWorkload(), 8, _dyn(1.03, 100 * US))],
        "namd8_dyn_quick": [lambda: (NamdWorkload(), 8, _dyn(1.03, 100 * US))],
    }


def all_cases() -> dict[str, list[RunFactory]]:
    cases = full_cases()
    cases.update(quick_cases())
    return cases


#: Worker processes per sharded benchmark case.  Sharded cases time the
#: same runs as their serial counterparts but through ``repro.shard``; the
#: per-case count is recorded in the report so a reader can judge the
#: committed speedups against the recording host's ``meta.cpu_count``
#: (speedup gates are skipped when the host has fewer CPUs than shards).
def sharded_cases(quick: bool) -> dict[str, tuple[list[RunFactory], int]]:
    from repro.workloads.nas_is import IsWorkload

    if quick:
        # Sub-second smoke for CI: big enough (16 nodes) that sharding is
        # eligible and exercised, small enough to finish fast anywhere.
        return {"is16_gt_shard2": ([lambda: (IsWorkload(), 16, _gt())], 2)}
    # The acceptance case: a Section-6 64-node ground-truth run split
    # four ways (>= 2x wall-clock expected on hosts with >= 4 cores).
    return {
        "is64_gt_shard4": (
            [lambda: (IsWorkload(total_keys=2**24), 64, _gt())], 4
        ),
    }


def time_case(
    runs: list[RunFactory],
    *,
    shards: int = 1,
    backend: str = "python",
) -> dict[str, Any]:
    """Execute every run of a case once; returns summed wall/event counts."""
    wall = 0.0
    events = 0
    quanta = 0
    for factory in runs:
        workload, size, policy = factory()
        _, perf, run_wall = run_once(
            workload, size, policy, shards=shards, backend=backend
        )
        wall += run_wall
        if perf is not None:
            events += perf.events
            quanta += perf.event_quanta + perf.ff_quanta
    return {"wall_s": wall, "events": events, "quanta": quanta}
