#!/usr/bin/env python
"""Reachability census: which ``src/repro`` functions does no user path run?

Runs every user-facing entry point in one process under
``sys.setprofile`` (installed before ``repro`` is imported, so import
time counts):

* every ``repro`` CLI verb that ``build_parser()`` defines, with the
  arguments in ``VERB_ARGS`` (small scale);
* every registered scenario variant (``scenario run``) and every
  registered sweep (``sweep run``, serial and with two workers, then
  ``--resume``), trimmed to ``SMALL_VARIANTS`` where a variant is too
  large to run here;
* ``examples/*.py``;
* ``benchmarks/test_*.py`` at the ``ci`` scale.

It then parses ``src/repro`` with :mod:`ast` and lists each function
whose code object never ran.  Every such function must be named in
``KEEP`` with a one-line reason; the census exits 1 when an unreached
function has no reason, when a ``KEEP`` entry ran after all, or when a
``KEEP`` entry names no function.  The profiler sees only this
process: work done inside spawned sweep workers is invisible to it,
which is why ``worker_loop`` is kept by name.

Usage::

    python scripts/reachability.py
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import glob
import io
import os
import runpy
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
PACKAGE_ROOT = SRC_ROOT / "repro"

#: Variants too large for the census; every other variant runs.
SMALL_VARIANTS: dict[str, tuple[str, ...]] = {
    "churn-scale-sweep": ("n512",),
}

#: Small-scale arguments shared by the paper-experiment verbs.
_SMALL = ["--nodes", "32", "--channels", "200", "--subscriptions", "2000"]

#: Fixed invocations per CLI verb (the path of sub-command names).
#: ``scenario run``, ``sweep run``, ``sweep resume`` and ``report`` are
#: expanded from the registries by :func:`cli_invocations`; ``{tmp}``
#: is the census's scratch directory.  A verb with no entry here and
#: no expansion fails the census, so a new verb cannot go uncounted.
VERB_ARGS: dict[tuple[str, ...], list[list[str]]] = {
    ("table2",): [["table2", *_SMALL, "--hours", "1"]],
    ("deploy",): [
        ["deploy", "--nodes", "8", "--channels", "30",
         "--subscriptions", "300", "--hours", "0.5", "--tau", "600"],
        ["-q", "deploy", "--nodes", "8", "--channels", "30",
         "--subscriptions", "30", "--hours", "0.05", "--tau", "600"],
        ["-vv", "deploy", "--nodes", "8", "--channels", "30",
         "--subscriptions", "30", "--hours", "0.05", "--tau", "600"],
    ],
    ("scenario", "list"): [["scenario", "list"], ["-v", "scenario", "list"]],
    ("sweep", "list"): [["sweep", "list"]],
    ("trace", "export"): [
        ["trace", "export", "{tmp}/scenario.jsonl"],
        ["trace", "export", "{tmp}/scenario.jsonl", "--clock", "sim",
         "-o", "{tmp}/scenario-trace.json"],
        ["trace", "export", "{tmp}/sweep.jsonl"],
        ["trace", "export", "{tmp}/missing.jsonl"],
    ],
    ("bench", "compare"): [
        ["bench", "compare",
         "benchmarks/results/BENCH_timings_ci.json",
         "benchmarks/results/BENCH_timings_ci.json"],
        ["bench", "compare", "--no-gate", "--window", "2",
         "benchmarks/results/BENCH_timings_ci.json",
         "{tmp}/missing.json"],
    ],
}

#: The reasons a function may stay although no user path runs it.
CLASSES: dict[str, str] = {
    "reference": "a test checks production code against it",
    "wrap target": "benchmarks/e2e/layers.py times it by name",
    "e2e harness": "benchmarks/e2e (outside the census) calls it",
    "worker": "runs only inside a spawned sweep worker",
    "failure path": "handles a failure healthy runs never produce",
    "protocol": "Python calls it implicitly",
    "declaration": "the interface the content substrate implements",
    "long run": "fires only past a bound no census run reaches",
    "inspection": "a read-only view the tests of other modules check "
    "production state by (one only its own unit tests read is deleted)",
    "test driver": "the one way tests steer a chosen node or link",
}

#: Functions no user path runs, each with the reason it stays.  Keys
#: are ``<file under src/repro>::<qualified name>``; every reason
#: opens with one of ``CLASSES`` and a colon.
KEEP: dict[str, str] = {
    "core/polling.py::PollScheduler.stop":
        "test driver: the poll-calendar tests stop a chosen task",
    "core/subscription.py::SubscriptionRegistry.total_subscriptions":
        "inspection: the churn, system and integration tests check "
        "no subscription is lost",
    "core/system.py::Fetcher.fetch":
        "declaration: the interface WebServerFarm implements",
    "core/system.py::Fetcher.published_at":
        "declaration: the interface WebServerFarm implements",
    "core/system.py::CoronaSystem.add_node":
        "test driver: joins a chosen address (timelines join anonymous "
        "nodes through join_nodes)",
    "core/system.py::CoronaSystem.fail_node":
        "test driver: fails a chosen node (timelines pick victims at "
        "random through crash_nodes)",
    "diffengine/tokenizer.py::scan":
        "reference: the lexer tokenize runs; test_tokenizer.py checks it "
        "against the str.find scanner",
    "diffengine/tokenizer.py::tokenize":
        "wrap target: diffengine.tokenize (re-exported by extractor.py)",
    "faults/links.py::LinkTable.set_link":
        "test driver: pins a spec on one exact directed link",
    "honeycomb/problem.py::ChannelTradeoff.is_monotonic":
        "reference: tests check production-built curves meet "
        "Honeycomb's monotonicity precondition",
    "obs/metrics.py::_Metric.labels":
        "failure path: counts an invariant violation by invariant",
    "obs/metrics.py::Counter.inc":
        "failure path: counts an invariant violation",
    "obs/metrics.py::CounterStruct.__eq__":
        "reference: the equivalence tests compare whole counter structs "
        "(eager against delta, memo against eager)",
    "obs/metrics.py::CounterStruct.__repr__":
        "protocol: names the fields when a struct comparison fails",
    "obs/timeline.py::TimelineSampler._decimate":
        "long run: fires past 256 sampled rounds",
    "overlay/leafset.py::LeafSet.remove":
        "failure path: PastryNode.forget drops a stale contact",
    "overlay/leafset.py::LeafSet.clockwise":
        "inspection: the incremental-churn tests read each side",
    "overlay/leafset.py::LeafSet.counter_clockwise":
        "inspection: the incremental-churn tests read each side",
    "overlay/network.py::RoutingTablesView.__len__":
        "protocol: Mapping requires it",
    "overlay/network.py::OverlayNetwork.owner_of":
        "reference: routing tests check route(start, key) ends at it",
    "overlay/network.py::OverlayNetwork.wedge":
        "reference: the flood tests compare dissemination_tree with it",
    "overlay/node.py::PastryNode.forget":
        "failure path: OverlayNetwork._trace_route forgets a stale hop",
    "overlay/nodeid.py::NodeId.digits":
        "reference: test_nodeid checks shared_prefix_len against it",
    "overlay/routing.py::RoutingTable.slot_for":
        "reference: the join's _slot_for_values is its integer twin",
    "overlay/routing.py::RoutingTable.remove":
        "failure path: PastryNode.forget drops a stale contact",
    "overlay/routing.py::RoutingTable.occupied_rows":
        "inspection: the incremental-churn tests read the rows",
    "overlay/wedge.py::wedge_members":
        "reference: the wedge definition behind OverlayNetwork.wedge",
    "overlay/wedge.py::is_orphan":
        "reference: section 4's empty-wedge definition; test_wedge "
        "checks the anchor-prefix shortcut channels use against it",
    "scenarios/invariants.py::InvariantMonitor._record":
        "failure path: records an invariant violation",
    "scenarios/invariants.py::InvariantMonitor.report":
        "failure path: reports invariant violations",
    "scenarios/spec.py::ScenarioSpec.from_dict":
        "e2e harness: benchmarks/e2e/workloads.py builds its specs",
    "scenarios/spec.py::ScenarioSpec.to_dict":
        "e2e harness: benchmarks/e2e/workloads.py reads built-ins",
    "sweeps/farm.py::_Worker.kill":
        "failure path: a worker over its --timeout is killed",
    "sweeps/farm.py::_run_parallel.<locals>.note_respawn":
        "failure path: a dead worker is replaced",
    "sweeps/worker.py::worker_loop":
        "worker: the loop of every spawned sweep worker",
}


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def verbs(
    parser: argparse.ArgumentParser,
) -> dict[tuple[str, ...], argparse.ArgumentParser]:
    """Every leaf sub-command of ``parser`` by its path of names."""
    leaves: dict[tuple[str, ...], argparse.ArgumentParser] = {}

    def walk(node: argparse.ArgumentParser, prefix: tuple[str, ...]):
        subparsers = [
            action for action in node._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        if not subparsers:
            leaves[prefix] = node
        for action in subparsers:
            for name, child in action.choices.items():
                walk(child, prefix + (name,))

    walk(parser, ())
    return leaves


def scenario_runs() -> list[list[str]]:
    """``scenario run`` arguments covering every registered scenario.

    A scenario runs all its variants in one invocation (the summary
    of a multi-variant run is its own table), except where
    ``SMALL_VARIANTS`` names the variants to run one by one.
    Single-variant scenarios emit ``--json``.
    """
    from repro.scenarios import list_scenarios

    runs: list[list[str]] = []
    for spec in list_scenarios():
        labels = spec.variant_labels()
        small = SMALL_VARIANTS.get(spec.name)
        if small is not None:
            runs += [
                ["scenario", "run", spec.name, "--json", "--variant", label]
                for label in labels if label in small
            ]
        elif labels:
            runs.append(["scenario", "run", spec.name])
        else:
            runs.append(["scenario", "run", spec.name, "--json"])
    return runs


def trim_sweeps() -> None:
    """Re-register every sweep without its ``SMALL_VARIANTS`` excess."""
    from dataclasses import replace

    from repro.scenarios import get_scenario
    from repro.sweeps import list_sweeps, register

    for spec in list_sweeps():
        selections = []
        for selection in spec.selections:
            small = SMALL_VARIANTS.get(selection.scenario)
            if small is not None:
                labels = selection.variants or tuple(
                    get_scenario(selection.scenario).variant_labels()
                )
                selection = replace(
                    selection,
                    variants=tuple(v for v in labels if v in small),
                )
            selections.append(selection)
        register(replace(spec, selections=tuple(selections)), replace=True)


def cli_invocations(tmp: str) -> list[list[str]]:
    """Argument vectors covering every verb of ``repro``'s parser."""
    from repro.cli import build_parser
    from repro.scenarios import list_scenarios
    from repro.sweeps import sweep_names

    leaves = verbs(build_parser())
    scheme_choices = next(
        action.choices for action in leaves[("simulate",)]._actions
        if action.dest == "scheme"
    )
    expanded: dict[tuple[str, ...], list[list[str]]] = {
        ("simulate",): [
            ["simulate", *_SMALL, "--hours", "1", "--scheme", scheme]
            for scheme in scheme_choices
        ],
        ("scenario", "run"): [],
        ("sweep", "run"): [],
        ("sweep", "resume"): [],
        ("report",): [],
    }
    # A traced run whose timeline has churn-wave ticks: the repeating
    # callbacks tracing marks with an instant each time they fire.
    traced = next(
        spec.name for spec in list_scenarios()
        if not spec.variant_labels()
        and any(type(event).__name__ == "ChurnWave" for event in spec.events)
    )
    expanded[("scenario", "run")] += scenario_runs() + [
        ["scenario", "run", traced, "--trace", f"{tmp}/scenario.jsonl"],
        ["-vv", "scenario", "run", "chaos-soak", "--variant", "chaos-0",
         "--check-invariants", "--trace", f"{tmp}/chaos.jsonl"],
        ["scenario", "run", "no-such-scenario"],
        ["scenario", "run", traced, "--variant", "no-such"],
    ]
    sweeps = sweep_names()
    for index, name in enumerate(sweeps):
        out = f"{tmp}/sweep-{name}"
        jobs = "1" if index == 0 else "2"
        argv = ["sweep", "run", name, "-j", jobs, "--out", out]
        if index == 0:
            argv += ["--check-invariants", "--trace", f"{tmp}/sweep.jsonl"]
        if index == 1:
            argv += ["--json"]
        expanded[("sweep", "run")].append(argv)
    expanded[("sweep", "run")] += [
        ["sweep", "run", sweeps[0], "-j", "1", "--resume",
         "--check-invariants", "--out", f"{tmp}/sweep-{sweeps[0]}"],
        ["sweep", "run", "no-such-sweep"],
    ]
    expanded[("sweep", "resume")].append(
        ["sweep", "resume", sweeps[-1], "-j", "1",
         "--out", f"{tmp}/sweep-{sweeps[-1]}"]
    )
    expanded[("report",)] += [
        ["report", traced],
        ["report", traced, "--format", "md", "--timings",
         "--check-invariants"],
        ["report", traced, "--out", f"{tmp}/report.json"],
        ["report", sweeps[-1], "-j", "1"],
        ["report", sweeps[-1], "-j", "2", "--format", "md"],
        ["report", sweeps[-1], "-j", "1", "--out", f"{tmp}/sweep.json"],
        ["report", "no-such-name"],
    ]

    runs: list[list[str]] = []
    for path in leaves:
        argvs = expanded.get(path, VERB_ARGS.get(path))
        if not argvs:
            raise SystemExit(
                f"census: verb {' '.join(path)!r} has no invocation; "
                "add one to VERB_ARGS in scripts/reachability.py"
            )
        runs += [[arg.format(tmp=tmp) for arg in argv] for argv in argvs]
    return runs


def example_paths() -> list[str]:
    return sorted(glob.glob(str(REPO_ROOT / "examples" / "*.py")))


def benchmark_paths() -> list[str]:
    return sorted(glob.glob(str(REPO_ROOT / "benchmarks" / "test_*.py")))


# ----------------------------------------------------------------------
# static side: every function under src/repro
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FunctionDef:
    key: str  # "<file under src/repro>::<qualified name>"
    path: str  # absolute file path, as code objects report it
    first_line: int  # first decorator, else ``def`` (= co_firstlineno)
    lines: int
    parent: str | None  # key of the enclosing function, if any


def _functions_in(path: Path, rel: str) -> list[FunctionDef]:
    found: list[FunctionDef] = []

    def visit(node, prefix: str, parent: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", parent)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                key = f"{rel}::{qualname}"
                found.append(FunctionDef(
                    key, str(path), first, child.end_lineno - first + 1,
                    parent,
                ))
                visit(child, f"{qualname}.<locals>.", key)
            else:
                visit(child, prefix, parent)

    visit(ast.parse(path.read_text(encoding="utf-8")), "", None)
    return found


def source_functions(root: Path = PACKAGE_ROOT) -> list[FunctionDef]:
    """Every ``def`` under ``root``, keyed by file and qualified name."""
    return [
        function
        for path in sorted(root.rglob("*.py"))
        for function in _functions_in(path, path.relative_to(root).as_posix())
    ]


# ----------------------------------------------------------------------
# dynamic side
# ----------------------------------------------------------------------
def _profiler(seen: set):
    package = str(PACKAGE_ROOT)

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(package):
                seen.add((code.co_filename, code.co_firstlineno))

    return profile


def _run_quietly(label: str, call) -> int:
    """Run ``call`` with its output swallowed; return its exit code."""
    started = time.perf_counter()
    sink = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = call()
        except SystemExit as exit_:
            code = exit_.code
    print(
        f"  {time.perf_counter() - started:6.1f}s  exit {code}  {label}",
        file=sys.__stdout__,
        flush=True,
    )
    return code or 0


def _run_example(path: str) -> int:
    runpy.run_path(path, run_name="__main__")
    return 0


def run_census() -> tuple[set, list[str]]:
    """Run every entry point under the profiler.

    Returns what ran and the entry points that failed unexpectedly
    (the ``no-such``/``missing`` arguments exercise the error paths
    and must fail).
    """
    seen: set = set()
    failed: list[str] = []
    profile = _profiler(seen)
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        sys.path[:0] = [str(SRC_ROOT), str(REPO_ROOT)]
        from repro.cli import main

        trim_sweeps()
        with tempfile.TemporaryDirectory(prefix="census-") as tmp:
            for argv in cli_invocations(tmp):
                label = "repro " + " ".join(argv)
                code = _run_quietly(label, lambda a=argv: main(a))
                expected = any(
                    "no-such" in arg or "missing" in arg for arg in argv
                )
                if bool(code) != expected:
                    failed.append(f"{label} (exit {code})")
            for path in example_paths():
                label = os.path.relpath(path, REPO_ROOT)
                if _run_quietly(label, lambda p=path: _run_example(p)):
                    failed.append(label)
        import pytest

        paths = benchmark_paths()
        label = f"pytest {len(paths)} benchmark files (ci scale)"
        if _run_quietly(
            label,
            lambda: pytest.main(["-q", "-p", "no:cacheprovider", *paths]),
        ):
            failed.append(label)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return seen, failed


@dataclass(frozen=True)
class Verdict:
    missed: list[FunctionDef]  # never ran, outermost only
    no_reason: list[FunctionDef]  # missed and not in KEEP
    reached: list[str]  # KEEP entries that ran after all
    vanished: list[str]  # KEEP entries that name no function

    @property
    def ok(self) -> bool:
        return not (self.no_reason or self.reached or self.vanished)


def judge(
    functions: list[FunctionDef], seen: set, keep: dict[str, str]
) -> Verdict:
    """Compare what ran with ``keep``.

    A function inside one that never ran is reported through its
    parent, but a kept one still counts as not reached.
    """
    never_ran = {
        fn.key for fn in functions if (fn.path, fn.first_line) not in seen
    }
    missed = [
        fn for fn in functions
        if fn.key in never_ran and fn.parent not in never_ran
    ]
    known = {fn.key for fn in functions}
    return Verdict(
        missed=missed,
        no_reason=[fn for fn in missed if fn.key not in keep],
        reached=sorted(
            key for key in keep if key in known and key not in never_ran
        ),
        vanished=sorted(key for key in keep if key not in known),
    )


def main() -> int:
    os.chdir(REPO_ROOT)
    os.environ.setdefault("CORONA_BENCH_SCALE", "ci")

    started = time.perf_counter()
    seen, failed = run_census()
    functions = source_functions()
    verdict = judge(functions, seen, KEEP)
    missed = verdict.missed

    print(
        f"\ncensus: {len(functions)} functions in src/repro, "
        f"{len(missed)} never ran ({sum(fn.lines for fn in missed)} "
        f"lines); {len(missed) - len(verdict.no_reason)} kept with a "
        f"reason ({time.perf_counter() - started:.0f}s)"
    )
    for fn in verdict.no_reason:
        print(f"UNREACHED, no reason: {fn.key} ({fn.lines} lines)")
    for key in verdict.reached:
        print(f"KEEP entry now reached (drop it): {key}")
    for key in verdict.vanished:
        print(f"KEEP entry names no function (drop it): {key}")
    for label in failed:
        print(f"ENTRY POINT FAILED: {label}")
    return 0 if verdict.ok and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
