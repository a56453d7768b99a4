"""Perf-regression harness for the single-run hot path.

Times the canonical single-run cases — the Section-6 64-node runs at the
ground-truth quantum (1 us), the Figure-6 8-node adaptive matrix and a
sparse 256-node service run — through the cluster stepper and (optionally) an older git checkout, and
writes the results in the shared ``repro-bench/1`` schema (see
:mod:`benchlib`).

Every timing runs in a fresh subprocess so current/baseline measurements
are symmetric (same interpreter warm-up, no shared caches), and the modes
are interleaved round by round so machine noise hits all of them
equally.  Before timing, each case is executed once **in-process**
through the stepper and through the scalar reference stepper of
``tests/reference_stepper.py``, and the two :class:`RunResult` objects
are asserted equal — the harness refuses to report numbers for a case
whose stepper does not reproduce the reference bit-for-bit.

Usage::

    python benchmarks/bench_runtime.py                       # full suite
    python benchmarks/bench_runtime.py --baseline-ref <sha>  # + old-tree timing
    python benchmarks/bench_runtime.py --quick               # CI smoke cases
    python benchmarks/bench_runtime.py --quick \\
        --check BENCH_runtime.json --max-regression 0.30     # regression gate

The full suite writes ``BENCH_runtime.json`` at the repo root (the
committed reference numbers); ``--quick`` writes to ``benchmarks/out/``
and is meant for the CI perf-smoke job, which compares its events/sec
against the committed file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchlib
from benchlib import REPO_ROOT, all_cases, bench_meta, full_cases, quick_cases

DEFAULT_ROUNDS = 3
DEFAULT_MAX_REGRESSION = 0.30

#: Minimum wall-clock speedup a sharded case must show over the serial
#: stepper — enforced only when the host has at least as many
#: CPUs as the case has shards (a 1-CPU host serializes the workers, so
#: the committed reference numbers may legitimately show < 1x there; the
#: report records the recording host's cpu_count for exactly this reason).
SHARD_SPEEDUP_FLOORS = {"is64_gt_shard4": 2.0}


def _sharded_registry() -> dict[str, tuple[list, int]]:
    merged = dict(benchlib.sharded_cases(quick=False))
    merged.update(benchlib.sharded_cases(quick=True))
    return merged


def _run_one(case: str, mode: str, backend: str) -> None:
    """Internal entry point: time one case once and print JSON to stdout."""
    sharded = _sharded_registry()
    if case in sharded:
        runs, shards = sharded[case]
        stats = benchlib.time_case(
            runs, shards=shards if mode == "shard" else 1
        )
    else:
        stats = benchlib.time_case(all_cases()[case], backend=backend)
    print(json.dumps(stats))


def _subprocess_time(
    case: str,
    mode: str,
    baseline_src: Path | None,
    backend: str = "python",
) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_BENCH_SRC", None)
    if baseline_src is not None:
        env["REPRO_BENCH_SRC"] = str(baseline_src)
    proc = subprocess.run(
        [
            sys.executable, __file__, "--run-one", case,
            "--mode", mode, "--backend", backend,
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"timing subprocess failed for {case}/{mode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _verify_identical(case: str, runs, backend: str = "python") -> dict:
    """Run the case in-process; assert it equals the scalar reference
    stepper on the python core.  For ``backend="native"`` this is also
    the acceptance check that the compiled core reproduces the reference
    bit-for-bit before any native timing is reported."""
    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    from tests.reference_stepper import ReferenceSimulator

    events = 0
    quanta = 0
    for factory in runs:
        workload, size, policy = factory()
        reference, _, _ = benchlib.run_once(
            workload, size, policy, simulator=ReferenceSimulator
        )
        workload, size, policy = factory()
        result, perf, _ = benchlib.run_once(
            workload, size, policy, backend=backend
        )
        assert reference == result, (
            f"{case}: stepper ({backend}) RunResult differs from the "
            f"scalar reference stepper (python)"
        )
        if perf is not None:
            events += perf.events
            quanta += perf.event_quanta + perf.ff_quanta
    return {"events": events, "quanta": quanta}


def _verify_sharded(case: str, runs, shards: int) -> dict:
    """Run the case serially and sharded in-process; assert equal results."""
    events = 0
    quanta = 0
    for factory in runs:
        workload, size, policy = factory()
        serial_result, _, _ = benchlib.run_once(workload, size, policy)
        workload, size, policy = factory()
        shard_result, perf, _ = benchlib.run_once(
            workload, size, policy, shards=shards
        )
        assert serial_result == shard_result, (
            f"{case}: sharded RunResult differs from the serial reference"
        )
        if perf is not None:
            events += perf.events
            quanta += perf.event_quanta + perf.ff_quanta
    return {"events": events, "quanta": quanta}


class _BaselineTree:
    """A temporary ``git worktree`` of the baseline ref, if requested."""

    def __init__(self, ref: str | None) -> None:
        self.ref = ref
        self.path: Path | None = None

    def __enter__(self) -> Path | None:
        if self.ref is None:
            return None
        self.path = Path(tempfile.mkdtemp(prefix="bench-baseline-"))
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(self.path), self.ref],
            cwd=REPO_ROOT,
            check=True,
            capture_output=True,
        )
        return self.path / "src"

    def __exit__(self, *exc) -> None:
        if self.path is not None:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(self.path)],
                cwd=REPO_ROOT,
                check=False,
                capture_output=True,
            )


def _check_regression(
    cases: dict, reference_path: Path, max_regression: float
) -> list[str]:
    reference = json.loads(reference_path.read_text())
    failures = []
    for name, entry in cases.items():
        ref_entry = reference.get("cases", {}).get(name)
        if ref_entry is None or not ref_entry.get("events_per_sec"):
            continue
        # Like-for-like backends only: a host without a compiler runs the
        # python cases and simply never produces the native entries, and
        # a python measurement must never be judged against a committed
        # native number (or vice versa) — a missing compiler degrades
        # coverage, it cannot fake a regression.
        if entry.get("backend", "python") != ref_entry.get("backend", "python"):
            continue
        floor = ref_entry["events_per_sec"] * (1.0 - max_regression)
        if entry["events_per_sec"] < floor:
            failures.append(
                f"{name}: {entry['events_per_sec']:,.0f} events/s is more than "
                f"{max_regression:.0%} below the reference "
                f"{ref_entry['events_per_sec']:,.0f} events/s"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="run only the small CI smoke cases")
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS,
                        help="timing repetitions per mode (best is reported)")
    parser.add_argument("--out", type=Path, default=None,
                        help="report path (default: BENCH_runtime.json at the "
                             "repo root; benchmarks/out/ for --quick)")
    parser.add_argument("--baseline-ref", default=None,
                        help="git ref to time the same cases against "
                             "(via a temporary worktree)")
    parser.add_argument("--check", type=Path, default=None,
                        help="reference report; fail if events/sec regresses")
    parser.add_argument("--max-regression", type=float,
                        default=DEFAULT_MAX_REGRESSION,
                        help="allowed fractional events/sec drop for --check")
    parser.add_argument("--run-one", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--mode", default="serial", help=argparse.SUPPRESS)
    parser.add_argument("--backend", default="python", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.run_one is not None:
        _run_one(args.run_one, args.mode, args.backend)
        return 0

    if args.quick:
        cases = quick_cases()
        out = args.out or REPO_ROOT / "benchmarks" / "out" / "bench_runtime_quick.json"
    else:
        cases = all_cases()
        out = args.out or REPO_ROOT / "BENCH_runtime.json"

    from repro.engine.backend import native_available, native_unavailable_reason

    if not native_available():
        print(
            f"[backend] compiled engine core unavailable "
            f"({native_unavailable_reason()}); native cases skipped",
            file=sys.stderr,
        )

    report_cases: dict[str, dict] = {}
    with _BaselineTree(args.baseline_ref) as baseline_src:
        for name, runs in cases.items():
            backends = ["python"] + (["native"] if native_available() else [])
            for backend in backends:
                case_name = name if backend == "python" else f"{name}_native"
                print(
                    f"[{case_name}] verifying stepper ({backend}) == "
                    f"scalar reference ...",
                    flush=True,
                )
                counts = _verify_identical(name, runs, backend)

                best: dict[str, float] = {}
                # The old-tree baseline predates the backend knob; only
                # the python rows time against it.
                modes = ["serial"] + (
                    ["baseline"] if baseline_src and backend == "python" else []
                )
                for round_index in range(args.rounds):
                    for mode in modes:
                        src = baseline_src if mode == "baseline" else None
                        wall = _subprocess_time(
                            name, "serial", src, backend=backend
                        )["wall_s"]
                        best[mode] = min(best.get(mode, wall), wall)
                        print(
                            f"[{case_name}] round {round_index + 1} {mode:8s}"
                            f" {wall:7.3f}s",
                            flush=True,
                        )

                wall = best["serial"]
                entry = {
                    "backend": backend,
                    "wall_s": round(wall, 3),
                    "baseline_wall_s": (
                        round(best["baseline"], 3) if "baseline" in best else None
                    ),
                    "workers": 1,
                    "events": counts["events"],
                    "quanta": counts["quanta"],
                    "events_per_sec": round(counts["events"] / wall, 1),
                    "quanta_per_sec": round(counts["quanta"] / wall, 1),
                    "speedup_vs_baseline": (
                        round(best["baseline"] / wall, 2)
                        if "baseline" in best
                        else None
                    ),
                    "identical_to_scalar": True,
                }
                report_cases[case_name] = entry

    # Sharded cases: timed against the serial stepper (never the
    # baseline tree — it predates repro.shard).  The speedup gate only
    # applies when the host can actually run the workers concurrently.
    cpu_count = os.cpu_count() or 1
    gate_failures: list[str] = []
    for name, (runs, shards) in benchlib.sharded_cases(quick=args.quick).items():
        print(f"[{name}] verifying {shards}-shard == serial ...", flush=True)
        counts = _verify_sharded(name, runs, shards)
        best = {}
        for round_index in range(args.rounds):
            for mode in ("serial", "shard"):
                wall = _subprocess_time(name, mode, None)["wall_s"]
                best[mode] = min(best.get(mode, wall), wall)
                print(
                    f"[{name}] round {round_index + 1} {mode:8s}"
                    f" {wall:7.3f}s",
                    flush=True,
                )
        wall = best["shard"]
        speedup = best["serial"] / wall
        entry = {
            "backend": "python",
            "wall_s": round(wall, 3),
            "serial_wall_s": round(best["serial"], 3),
            "workers": shards,
            "events": counts["events"],
            "quanta": counts["quanta"],
            "events_per_sec": round(counts["events"] / wall, 1),
            "quanta_per_sec": round(counts["quanta"] / wall, 1),
            "speedup_vs_serial": round(speedup, 2),
            "identical_to_serial": True,
        }
        floor = SHARD_SPEEDUP_FLOORS.get(name)
        if cpu_count < shards:
            print(
                f"[{name}] WARNING: host has {cpu_count} CPU(s) for "
                f"{shards} shards; the workers serialize, so the sharded "
                "speedup gate is skipped (re-measure on a host with "
                f">= {shards} cores)",
                file=sys.stderr,
            )
            entry["speedup_gate"] = (
                f"skipped: cpu_count={cpu_count} < shards={shards}"
            )
        elif floor is None:
            entry["speedup_gate"] = "ungated"
        elif speedup < floor:
            entry["speedup_gate"] = f"fail: {speedup:.2f}x < {floor}x"
            gate_failures.append(
                f"{name}: sharded speedup {speedup:.2f}x is below the "
                f"{floor}x floor at {shards} shards ({cpu_count} CPUs)"
            )
        else:
            entry["speedup_gate"] = "pass"
        report_cases[name] = entry

    meta = bench_meta(
        generated_by="benchmarks/bench_runtime.py",
        rounds=args.rounds,
        quick=args.quick,
        baseline_ref=args.baseline_ref,
    )
    benchlib.write_report(out, meta, report_cases)

    def column(value: float | None, unit: str) -> str:
        return f"{value:>7.3f}{unit}" if value is not None else "       -"

    width = max(len(name) for name in report_cases)
    print(f"\n{'case':<{width}}  {'wall':>8} {'serial':>8} {'base':>8} "
          f"{'vs ser.':>8} {'vs base':>8} {'workers':>7} {'events/s':>12}")
    for name, entry in report_cases.items():
        # Sharded cases compare against the serial stepper; any case
        # against the baseline tree when one was timed.
        print(
            f"{name:<{width}}  {entry['wall_s']:>7.3f}s "
            f"{column(entry.get('serial_wall_s'), 's')} "
            f"{column(entry.get('baseline_wall_s'), 's')} "
            f"{column(entry.get('speedup_vs_serial'), 'x')} "
            f"{column(entry.get('speedup_vs_baseline'), 'x')} "
            f"{entry['workers']:>7} "
            f"{entry['events_per_sec']:>12,.0f}"
        )
    print(f"\n[saved to {out}]")

    if gate_failures:
        print("\nSHARDED SPEEDUP GATE:", file=sys.stderr)
        for failure in gate_failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    if args.check is not None:
        failures = _check_regression(
            report_cases, args.check, args.max_regression
        )
        if failures:
            print("\nPERF REGRESSION:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"\nperf check OK (within {args.max_regression:.0%} of "
              f"{args.check})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
