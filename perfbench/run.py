#!/usr/bin/env python3
"""The repository benchmark: host cost of the cluster simulator.

Runs one workload (``gt64``, ``adaptive4`` or ``service8``; see README.md)
repeatedly for ``--seconds``, one simulation at a time in this single
process, checks every run's simulated outputs, and prints each metric by
name with its unit.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (untraced); with ``--trace 1`` they are
the per-layer ones from traced repetitions interleaved with untraced ones.

Usage::

    python3 perfbench/run.py --workload gt64 --seed 42 --seconds 25 --trace 0
    python3 perfbench/run.py --write-pins   # re-pin outputs at the default seed
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# The benchmark's own modules, and the simulator from the checkout's sources.
sys.path[:0] = [str(HERE), str(SRC)]

import cases  # noqa: E402
import layers  # noqa: E402

#: Environment overrides that would steer the simulator off the path its
#: default configuration resolves to.
SCRUBBED_ENV = (
    "REPRO_CHECK", "REPRO_BACKEND", "REPRO_SHARDS", "REPRO_NO_NATIVE", "REPRO_PARALLEL",
)
#: Fresh interpreters that each time one import of the simulator.
IMPORT_PROBES = 9
#: Fewest repetitions a measurement takes, however short ``--seconds`` is.
MIN_REPS = 3


@dataclass
class Rep:
    """One repetition: every run of the workload, built and run once."""

    build_s: float = 0.0
    run_s: float = 0.0
    inputs_s: float = 0.0
    runs: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    outputs: dict[str, dict[str, Any]] = field(default_factory=dict)
    paths: dict[str, str] = field(default_factory=dict)
    #: Traced repetitions only: layer -> [self seconds, calls].
    layers: defaultdict[str, list[float]] = field(
        default_factory=lambda: defaultdict(lambda: [0.0, 0])
    )
    counters: Counter[str] = field(default_factory=Counter)


def repetition(
    runs: list[cases.RunSpec], seed: int, pins: dict[str, Any] | None,
    reference: dict[str, Any] | None = None, tracer: layers.LayerTracer | None = None,
) -> Rep:
    """Build and run each of *runs* once; never raises for a failed run.

    A run fails if it raises, or if its outputs fail :func:`cases.check`
    against *pins* or differ from *reference* (an earlier repetition's).
    """
    clock = time.perf_counter
    rep = Rep()
    for spec in runs:
        rep.runs += 1
        try:
            gc.collect()
            started = clock()
            workload, policy = spec.make()
            made = clock()
            if tracer is not None:
                tracer.reset()
            sim = cases.build(spec, workload, policy, seed)
            built = clock()
            if tracer is not None:
                rep.inputs_s += made - started + tracer.self_s["setup.inputs"]
                tracer.reset()
            result = sim.run()
            ran = clock()
        except Exception as exc:  # a failed run is counted, not fatal
            rep.failed += 1
            rep.failures.append(f"{spec.label}: raised {type(exc).__name__}: {exc}")
            continue
        rep.build_s += built - started
        rep.run_s += ran - built
        rep.paths[spec.label] = cases.resolved_path(sim)
        got = cases.outputs(result, workload)
        rep.outputs[spec.label] = got
        pinned = None if pins is None else pins.get(spec.label, {"pin": "missing"})
        problems = cases.check(got, cases.is_exact(spec, policy), pinned)
        if reference is not None and reference.get(spec.label, got) != got:
            problems.append("outputs differ from the first repetition")
        rep.failed += bool(problems)
        rep.failures.extend(f"{spec.label}: {problem}" for problem in problems)
        if tracer is not None:
            for layer, seconds in tracer.self_s.items():
                rep.layers[layer][0] += seconds
            for layer, count in tracer.calls.items():
                rep.layers[layer][1] += count
            _count(rep.counters, sim, result, tracer.releases)
    return rep


def _count(into: Counter[str], sim: Any, result: Any, releases: tuple[int, int]) -> None:
    perf = getattr(sim, "perf", None)
    for name in ("event_quanta", "ff_quanta", "stepped_node_quanta", "events"):
        into[name] += getattr(perf, name, 0)
    into["node_quanta"] += getattr(perf, "event_quanta", 0) * len(sim.nodes)
    into["packets"] += result.controller_stats.packets_routed
    into["stragglers"] += result.controller_stats.stragglers
    into["empty_releases"] += releases[0]
    into["releases"] += releases[1]


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def fidelity(outputs: dict[str, dict[str, Any]]) -> list[str]:
    """p99 error and modelled speedup of each service run vs its Q = T run."""
    reference = outputs.get(cases.SERVICE_REFERENCE)
    if reference is None:
        return []
    lines = []
    for label, got in outputs.items():
        if label == cases.SERVICE_REFERENCE:
            continue
        error = abs(got["p99_ns"] - reference["p99_ns"]) / reference["p99_ns"]
        speedup = reference["host_time"] / got["host_time"]
        lines.append(
            f"fidelity {label} vs {cases.SERVICE_REFERENCE}: p99 error {error:.4%}, "
            f"modelled speedup {speedup:.3f}x"
        )
    return lines


def measure(
    runs: list[cases.RunSpec], seed: int, seconds: float, trace: bool,
    pins: dict[str, Any] | None,
) -> tuple[list[Rep], list[Rep]]:
    """Untraced (and, with *trace*, interleaved traced) repetitions for
    *seconds*; returns ``(untraced, traced)``."""
    untraced: list[Rep] = []
    traced: list[Rep] = []
    deadline = time.perf_counter() + seconds
    reference = None
    while True:
        untraced.append(repetition(runs, seed, pins, reference))
        if reference is None:
            reference = untraced[0].outputs
        if trace:
            with layers.LayerTracer() as tracer:
                traced.append(repetition(runs, seed, pins, reference, tracer))
        if time.perf_counter() >= deadline and len(untraced) >= MIN_REPS:
            return untraced, traced


def end_to_end(untraced: list[Rep], import_s: float) -> dict[str, tuple[float, str]]:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "run_s": (statistics.median(r.run_s for r in untraced), "s"),
        "setup_s": (import_s + statistics.median(r.build_s for r in untraced), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(
    untraced: list[Rep], traced: list[Rep], import_s: float
) -> dict[str, tuple[float, str]]:
    def median_self(layer: str) -> float:
        return statistics.median(r.layers[layer][0] for r in traced)

    first = traced[0]
    counters = first.counters
    calls = {layer: first.layers[layer][1] for layer in layers.RUN_LAYERS}
    traced_run_s = statistics.median(r.run_s for r in traced)
    plain_run_s = statistics.median(r.run_s for r in untraced)
    unattributed = statistics.median(
        r.run_s - sum(r.layers[layer][0] for layer in layers.RUN_LAYERS) for r in traced
    )
    quanta = counters["event_quanta"] + counters["ff_quanta"]
    metrics: dict[str, tuple[float, str]] = {
        "core.cluster.self_s": (median_self("core.cluster"), "s"),
        "core.cluster.event_quanta": (counters["event_quanta"], "count"),
        "core.cluster.ff_quanta": (counters["ff_quanta"], "count"),
        "core.cluster.ff_share": (_share(counters["ff_quanta"], quanta), "ratio"),
        "core.cluster.stepped_node_share": (
            _share(counters["stepped_node_quanta"], counters["node_quanta"]), "ratio",
        ),
        "engine.events.self_s": (median_self("engine.events"), "s"),
        "engine.events.calls": (calls["engine.events"], "count"),
        "engine.events.events": (counters["events"], "count"),
    }
    for layer in ("node", "node.nic", "node.hostmodel", "core.quantum", "network.controller"):
        metrics[f"{layer}.self_s"] = (median_self(layer), "s")
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    metrics.update({
        "network.controller.packets": (counters["packets"], "count"),
        "network.controller.straggler_share": (
            _share(counters["stragglers"], counters["packets"]), "ratio",
        ),
        "network.controller.empty_release_share": (
            _share(counters["empty_releases"], counters["releases"]), "ratio",
        ),
        "setup.import_s": (import_s, "s"),
        "setup.build_s": (statistics.median(r.build_s for r in untraced), "s"),
        "setup.inputs_s": (statistics.median(r.inputs_s for r in traced), "s"),
        "trace.run_s": (traced_run_s, "s"),
        "trace.overhead": (_share(traced_run_s, plain_run_s), "ratio"),
        "trace.unattributed_s": (unattributed, "s"),
    })
    return metrics


def shares(traced: list[Rep]) -> list[str]:
    """Each run layer's median share of traced run time, as text lines."""
    lines = []
    for layer in layers.RUN_LAYERS:
        share = statistics.median(
            _share(r.layers[layer][0], r.run_s) for r in traced
        )
        lines.append(f"share {layer:<20} {share:7.2%} of traced run time")
    return lines


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import the simulator.

    Each probe is a cold interpreter, as a user starts one; the median of
    several keeps one slow file-system moment from setting the figure.
    """
    probe = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; start = time.perf_counter(); "
        "import cases; print(time.perf_counter() - start)"
    )
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", probe, str(HERE), str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def write_pins() -> None:
    """Pin every workload's outputs at the default seed (run once each)."""
    pinned: dict[str, dict[str, Any]] = {}
    for name in cases.WORKLOADS:
        runs = cases.workload_runs(name, cases.DEFAULT_SEED)
        rep = repetition(runs, cases.DEFAULT_SEED, None)
        if rep.failures:
            raise SystemExit("cannot pin failing runs:\n" + "\n".join(rep.failures))
        pinned[name] = rep.outputs
    text = json.dumps({"seed": cases.DEFAULT_SEED, "runs": pinned}, indent=1)
    cases.PINNED_PATH.write_text(text + "\n")
    print(f"pinned {sum(len(v) for v in pinned.values())} runs in {cases.PINNED_PATH}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=cases.WORKLOADS, default="gt64")
    parser.add_argument("--seed", type=int, default=cases.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="re-pin the outputs of every workload at the default seed")
    args = parser.parse_args(argv)

    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    if args.write_pins:
        write_pins()
        return 0
    import_s = import_seconds()
    runs = cases.workload_runs(args.workload, args.seed)
    pins = cases.load_pins()[args.workload] if args.seed == cases.DEFAULT_SEED else None

    untraced, traced = measure(runs, args.seed, args.seconds, bool(args.trace), pins)
    reps = untraced + traced
    attempted = sum(rep.runs for rep in reps)
    failed = sum(rep.failed for rep in reps)

    print(f"workload {args.workload} seed {args.seed}: {len(runs)} runs per "
          f"repetition, {len(untraced)} untraced and {len(traced)} traced repetitions")
    for label, path in reps[0].paths.items():
        got = reps[0].outputs[label]
        print(f"run {label:<18} {path} sim_time={got['sim_time']} "
              f"host_time={got['host_time']:.6f} quanta={got['quanta']} "
              f"packets={got['packets']} stragglers={got['stragglers']}")
    for line in fidelity(reps[0].outputs):
        print(line)
    for rep in reps:
        for problem in rep.failures:
            print(f"FAIL {problem}")

    if args.trace:
        metrics = per_layer(untraced, traced, import_s)
        for line in shares(traced):
            print(line)
    else:
        metrics = end_to_end(untraced, import_s)
        times = sorted(rep.run_s for rep in untraced)
        quartiles = statistics.quantiles(times, n=4)
        print(f"run_s over {len(times)} repetitions: min {times[0]:.4f} s, "
              f"p25 {quartiles[0]:.4f} s, p75 {quartiles[2]:.4f} s, max {times[-1]:.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
