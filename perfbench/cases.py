"""The benchmark's workloads, the outputs it checks, and the check itself.

Every run is built through the simulator's public construction path only:
``workload.build_apps``, ``SimulatedNode``, ``NetworkController(n,
PAPER_NETWORK(n))`` and ``ClusterSimulator(..., ClusterConfig(seed=...))``.
No other configuration is passed, so a run always takes whatever path the
default configuration resolves to.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core import (
    AdaptiveQuantumPolicy,
    ClusterConfig,
    ClusterSimulator,
    FixedQuantumPolicy,
    QuantumPolicy,
    RunResult,
)
from repro.core import cluster as cluster_module
from repro.network import PAPER_NETWORK, NetworkController
from repro.node import SimulatedNode
from repro.service import ArrivalProfile, ServiceWorkload
from repro.workloads import (
    CgWorkload,
    EpWorkload,
    IsWorkload,
    LuWorkload,
    MgWorkload,
    NamdWorkload,
)

US = 1_000
#: The seed whose outputs are pinned in ``pinned.json``.
DEFAULT_SEED = 42
PINNED_PATH = Path(__file__).resolve().parent / "pinned.json"
WORKLOADS = ("gt64", "adaptive4", "service8")
#: The exact (Q = T) service run the adaptive one is scored against.
SERVICE_REFERENCE = "SVC Q=T"


@dataclass(frozen=True)
class RunSpec:
    """One simulation run: a label and a factory for its fresh inputs."""

    label: str
    size: int
    make: Callable[[], tuple[Any, QuantumPolicy]]


def _dyn(inc: float) -> QuantumPolicy:
    """The paper's adaptive configuration: Q in [1 us, 1 ms], dec 0.02."""
    return AdaptiveQuantumPolicy(US, 1000 * US, inc=inc, dec=0.02)


def _service(seed: int, requests: int) -> ServiceWorkload:
    # The bench_service_slo.py profile: open loop in simulated time.
    profile = ArrivalProfile(
        rate_per_sec=20_000.0, num_requests=requests, diurnal_amplitude=0.3
    )
    return ServiceWorkload(profile=profile, seed=seed)


def workload_runs(name: str, seed: int, tiny: bool = False) -> list[RunSpec]:
    """The runs of workload *name*; ``tiny`` shrinks inputs for tests."""
    if name == "gt64":
        size = 4 if tiny else 64
        keys = 2**14 if tiny else 2**24
        steps = 2 if tiny else 12
        return [
            RunSpec(
                "IS Q=1us", size,
                lambda: (IsWorkload(total_keys=keys), FixedQuantumPolicy(US)),
            ),
            RunSpec(
                "NAMD Q=1us", size,
                lambda: (NamdWorkload(timesteps=steps), FixedQuantumPolicy(US)),
            ),
        ]
    if name == "adaptive4":
        kernels = (EpWorkload, IsWorkload, CgWorkload, MgWorkload, LuWorkload)
        if tiny:
            kernels = (EpWorkload, MgWorkload)
        return [
            RunSpec(
                f"{kernel.name} dyn inc={inc}", 4,
                lambda kernel=kernel, inc=inc: (kernel(), _dyn(inc)),
            )
            for inc in (1.03, 1.05)
            for kernel in kernels
        ]
    if name == "service8":
        requests = 40 if tiny else 2_000
        truth = PAPER_NETWORK(8).min_latency()
        return [
            RunSpec(
                SERVICE_REFERENCE, 8,
                lambda: (_service(seed, requests), FixedQuantumPolicy(truth)),
            ),
            RunSpec(
                "SVC dyn 1:1000", 8,
                lambda: (_service(seed, requests), _dyn(1.05)),
            ),
        ]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def build(
    spec: RunSpec, workload: Any, policy: QuantumPolicy, seed: int
) -> ClusterSimulator:
    """Construct one run's simulator from its fresh inputs (not yet run)."""
    apps = workload.build_apps(spec.size)
    nodes = [SimulatedNode(rank, app) for rank, app in enumerate(apps)]
    controller = NetworkController(spec.size, PAPER_NETWORK(spec.size))
    return ClusterSimulator(nodes, controller, policy, ClusterConfig(seed=seed))


def is_exact(spec: RunSpec, policy: QuantumPolicy) -> bool:
    """True when every quantum is at most the network's minimum latency T,
    where the paper guarantees delivery at the exact time (no stragglers)."""
    return policy.max_quantum <= PAPER_NETWORK(spec.size).min_latency()


def resolved_path(sim: ClusterSimulator) -> str:
    """The engine backend and stepper a run resolved to, as text."""
    backend = getattr(sim, "backend", "python")
    resolve = getattr(cluster_module, "resolve_vectorized", None)
    stepper = "default"
    if resolve is not None:
        vectorized = resolve(getattr(sim.config, "vectorized", "auto"), len(sim.nodes))
        stepper = "vectorized" if vectorized else "scalar"
    return f"backend={backend} stepper={stepper}"


def _digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def outputs(result: RunResult, workload: Any) -> dict[str, Any]:
    """The simulated outputs a run is checked on (all seed-determined)."""
    stats = result.controller_stats
    out: dict[str, Any] = {
        "completed": result.completed,
        "sim_time": result.sim_time,
        "host_time": result.host_time,
        "quanta": result.quantum_stats.quanta,
        "packets": stats.packets_routed,
        "stragglers": stats.stragglers,
        "app_finish_times": list(result.app_finish_times),
        "app_results": _digest(result.app_results),
    }
    if isinstance(workload, ServiceWorkload):
        summary = workload.service_summary(result)
        out["requests"] = workload.profile.num_requests
        out["served"] = summary.completed
        out["p99_ns"] = summary.percentiles[99.0]
        out["slo_miss_rate"] = summary.slo_miss_rate
    return out


def check(
    got: dict[str, Any], exact: bool, pinned: dict[str, Any] | None
) -> list[str]:
    """Every way *got* fails its checks; empty when the run passes.

    The invariants hold at any seed: the run completed, a run with
    ``Q <= T`` (``exact``) has no stragglers, and a service run served
    every request.  ``pinned`` (the default seed only) must match exactly.
    """
    problems = []
    if not got["completed"]:
        problems.append("run stopped before completing")
    if exact and got["stragglers"]:
        problems.append(f"{got['stragglers']} stragglers with Q <= T")
    if "requests" in got and got["served"] != got["requests"]:
        problems.append(f"served {got['served']} of {got['requests']} requests")
    if pinned is not None:
        for key, want in pinned.items():
            if got.get(key) != want:
                problems.append(f"{key} = {got.get(key)!r}, pinned {want!r}")
    return problems


def load_pins() -> dict[str, dict[str, dict[str, Any]]]:
    """``workload -> run label -> pinned outputs`` at :data:`DEFAULT_SEED`."""
    return json.loads(PINNED_PATH.read_text())["runs"]
