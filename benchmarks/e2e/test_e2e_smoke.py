"""Smoke test of the end-to-end benchmark harness.

Runs ``run.py --workload all --smoke --trace 1`` once: tiny inputs,
one timed + one verify + one traced rep per workload.  It checks the
harness and its contract, not performance, and deliberately uses no
``benchmark`` fixture, so ``BENCH_timings_ci.json`` and the drift gate
never see it.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Paths a run may touch: the benchmark's own output directory and
#: what any Python process leaves behind.
_IGNORED_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}


def _tree_state() -> dict[str, tuple[int, int]]:
    state = {}
    for folder, dirs, files in os.walk(ROOT):
        dirs[:] = [
            d for d in dirs
            if d not in _IGNORED_DIRS and Path(folder, d) != OUT
        ]
        for name in files:
            stat = Path(folder, name).stat()
            state[str(Path(folder, name))] = (stat.st_mtime_ns, stat.st_size)
    return state


@pytest.fixture(scope="module")
def smoke_run():
    before = _tree_state()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all",
         "--smoke", "--trace", "1"],
        capture_output=True, text=True, timeout=120,
    )
    after = _tree_state()
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    assert len(lines) == len(WORKLOADS)
    ledgers = {
        name: json.loads(
            (OUT / f"{name}-seed0-smoke-trace1.json").read_text()
        )
        for name in WORKLOADS
    }
    return {
        "results": dict(zip(WORKLOADS, lines)),
        "ledgers": ledgers,
        "touched": {p for p in before.keys() | after.keys()
                    if before.get(p) != after.get(p)},
    }


def test_benchmark_json_names_the_harness():
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert WORKLOADS == [
        "steady-poll", "overlay-4096", "chaos-2048", "macro-table2",
    ]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_carries_every_per_layer_metric(smoke_run, workload):
    result = smoke_run["results"][workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (3, 0)
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    # Every wrap target resolves at this commit, so no metric is null.
    assert smoke_run["ledgers"][workload]["unresolved"] == []
    assert all(
        isinstance(entry["value"], (int, float))
        for entry in result["metrics"].values()
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_ledger_carries_every_end_to_end_metric(smoke_run, workload):
    ledger = smoke_run["ledgers"][workload]
    assert ledger["failures"] == []
    assert {
        name: entry["unit"] for name, entry in ledger["end_to_end"].items()
    } == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(
        entry["value"] > 0 for entry in ledger["end_to_end"].values()
    )
    environment = ledger["environment"]
    assert environment["timed_reps"] == 1
    for key in ("commit", "nproc", "python", "numpy",
                "load_1min_at_start", "noisy"):
        assert key in environment


def test_layers_are_used_and_bypassed_as_documented(smoke_run):
    def layer(workload: str, metric: str):
        return smoke_run["results"][workload]["metrics"][metric]["value"]

    assert layer("macro-table2", "diffengine.extract_calls") == 0
    assert layer("steady-poll", "diffengine.extract_calls") > 0
    for workload in ("steady-poll", "overlay-4096", "macro-table2"):
        assert layer(workload, "faults.transmit_calls") == 0
    assert layer("chaos-2048", "faults.transmit_calls") > 0
    assert layer("chaos-2048", "overlay.churn_ops") > 0
    assert layer("macro-table2", "macro.run_self_s") > 0
    # Full-scale reps must reach 0.90.  A smoke rep is half import,
    # and the ~50 ms of interpreter start and stop no span can cover
    # weigh more in it.
    for workload in WORKLOADS:
        assert layer(workload, "trace.coverage") >= 0.75


def test_harness_writes_only_its_out_directory(smoke_run):
    assert smoke_run["touched"] == set()
    assert (OUT / ".gitignore").read_text() == "*\n"


def test_unresolved_target_is_a_null_metric_not_a_crash():
    sys.path.insert(0, str(HERE))
    try:
        layers = importlib.import_module("layers")
    finally:
        sys.path.remove(str(HERE))
    recorder = layers.Recorder()
    layers.install(
        recorder,
        (layers.Target("diffengine.diff", "repro.core.node", "no_such_name"),),
    )
    assert recorder.unresolved == ["repro.core.node:no_such_name"]
    reduced = layers.Reduced(recorder.to_dict("test"), defaultdict(int))
    metrics = layers.per_layer_metrics(reduced)
    assert metrics["diffengine.diff_s"] is None
    assert metrics["diffengine.tokenize_s"] == 0.0


def test_public_api_surface_resolves():
    """What the benchmark reaches the program through; keep it."""
    surface = {
        "repro.scenarios": ("get_scenario", "ScenarioRunner"),
        "repro.scenarios.spec": ("ScenarioSpec",),
        "repro.faults.chaos": ("chaos_timeline",),
        "repro.workload.trace": ("generate_trace",),
        "repro.simulation.macro": ("MacroSimulator",),
        "repro.simulation.engine": ("EventEngine",),
        "repro.core.config": ("CoronaConfig", "SCHEME_NAMES"),
        "repro.obs": ("Observability",),
        "repro.analysis.stats": ("rank_correlation", "steady_state_mean"),
    }
    for module_name, names in surface.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert hasattr(module, name), f"{module_name}.{name}"
    from repro.obs import Observability
    from repro.scenarios import ScenarioRunner
    from repro.scenarios.spec import ScenarioSpec
    from repro.simulation.engine import EventEngine
    from repro.simulation.macro import MacroSimulator

    assert callable(ScenarioSpec.from_dict)
    assert callable(ScenarioRunner.run)
    assert callable(EventEngine.run_until)
    assert callable(MacroSimulator.run)
    assert callable(Observability.introspected)
