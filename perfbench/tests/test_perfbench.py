"""Tests of the benchmark itself (not of the simulator).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

# Importing the entry point puts the simulator sources on the path too.
import run  # noqa: E402
from run import cases, layers  # noqa: E402

SEED = cases.DEFAULT_SEED


def _tiny(name: str) -> list[cases.RunSpec]:
    return cases.workload_runs(name, SEED, tiny=True)


@pytest.mark.parametrize("name", cases.WORKLOADS)
def test_every_workload_runs_tiny_and_passes_its_checks(name):
    runs = _tiny(name)
    rep = run.repetition(runs, SEED, None)
    assert rep.failures == []
    assert rep.runs == len(runs) and rep.failed == 0
    assert set(rep.outputs) == {spec.label for spec in runs}
    assert all(got["completed"] for got in rep.outputs.values())


def test_perturbed_pin_fails_that_run_without_crashing():
    runs = _tiny("gt64")
    pins = run.repetition(runs, SEED, None).outputs
    victim = runs[1].label
    pins[victim] = dict(pins[victim], host_time=pins[victim]["host_time"] * (1 + 1e-12))

    rep = run.repetition(runs, SEED, pins)

    assert rep.runs == 2 and rep.failed == 1
    assert len(rep.failures) == 1 and rep.failures[0].startswith(f"{victim}: host_time")


def test_invariants_fail_at_any_seed():
    got = {"completed": False, "stragglers": 3, "requests": 10, "served": 9}
    problems = cases.check(got, exact=True, pinned=None)
    assert len(problems) == 3
    assert cases.check(dict(got, completed=True, served=10), exact=False, pinned=None) == []


def _installed() -> dict[tuple[object, str], object]:
    found = {}
    for targets in layers.LAYERS.values():
        for module_name, owner_name, methods in targets:
            module = sys.modules.get(module_name) or __import__(module_name, fromlist=["x"])
            owner = module if owner_name is None else getattr(module, owner_name)
            for method in methods:
                found[(owner, method)] = vars(owner).get(method)
    return found


def test_traced_run_restores_every_wrapped_method():
    before = _installed()
    runs = _tiny("service8")
    with layers.LayerTracer() as tracer:
        assert _installed() != before
        rep = run.repetition(runs, SEED, None, tracer=tracer)
    assert _installed() == before
    assert rep.failed == 0
    assert all(rep.layers[layer][1] > 0 for layer in layers.RUN_LAYERS)
    assert rep.inputs_s > 0

    with pytest.raises(RuntimeError), layers.LayerTracer():
        raise RuntimeError("boom")
    assert _installed() == before


def test_layer_self_times_add_up_to_the_traced_run():
    runs = _tiny("gt64")
    with layers.LayerTracer() as tracer:
        rep = run.repetition(runs, SEED, None, tracer=tracer)
    attributed = sum(rep.layers[layer][0] for layer in layers.RUN_LAYERS)
    assert 0.9 * rep.run_s <= attributed <= rep.run_s


def _last_json(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "adaptive4",
         "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True, timeout=300,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(("trace", "section"), [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    result = _last_json(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in declared}


def test_refuses_to_run_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "gt64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
