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

It then parses ``src/repro`` with :mod:`ast` and takes two censuses.

* **Functions**: each function whose code object never ran must be
  named in ``KEEP`` with a one-line reason.
* **Settable values**: each defaulted parameter of a function that ran,
  and each defaulted ``init`` field of a ``repro`` dataclass, must be
  given a value other than its default by some call, or be named in
  ``KEEP_VALUES``.  Defaults are read from the function object on the
  first call of its code object; a dataclass field counts as set when
  its class's generated ``__init__`` receives another value (any value
  at all for a ``default_factory`` field).

The census exits 1 when an unreached function or a never-set value has
no reason, when a table entry ran or was set after all, or when an
entry names nothing.  The profiler sees only this process: work done
inside spawned sweep workers is invisible to it, which is why
``worker_loop`` is kept by name.  pytest-benchmark pauses profilers
around every timed body; the census keeps its profiler on there.

Usage::

    python scripts/reachability.py
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import gc
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
#: ``scenario run``, ``sweep run`` and ``report`` are expanded from the
#: registries by :func:`cli_invocations`; ``{tmp}`` is the census's
#: scratch directory.  A verb with no entry here and no expansion fails
#: the census, so a new verb cannot go uncounted.
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
    "test driver": "the one way tests steer a chosen node, link or client",
    "spec format": "a field of the declarative scenario format "
    "(ScenarioSpec.from_dict) that the timeline-event tests set",
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

#: Settable values no user path sets, each with the reason it stays.
#: Keys are ``<file>::<function>(<parameter>)`` or
#: ``<file>::<Class>.<field>``; reasons are classed as in ``KEEP``.
KEEP_VALUES: dict[str, str] = {
    "diffengine/extractor.py::CoreContentExtractor.noise_elements":
        "reference: the golden core-lines digests replay a keep-all "
        "configuration",
    "diffengine/extractor.py::CoreContentExtractor.extra_noise_elements":
        "reference: the golden core-lines digests replay an extra-noise "
        "configuration",
    "diffengine/extractor.py::CoreContentExtractor.strip_comments":
        "reference: the golden core-lines digests replay a keep-all "
        "configuration",
    "diffengine/extractor.py::CoreContentExtractor.strip_feed_metadata":
        "reference: the golden core-lines digests replay a keep-all "
        "configuration",
    "diffengine/extractor.py::CoreContentExtractor.strip_timestamp_text":
        "reference: the golden core-lines digests replay a keep-all "
        "configuration",
    "diffengine/tokenizer.py::Token.name":
        "reference: tokenize, the reference lexer, builds tag tokens",
    "diffengine/tokenizer.py::Token.attrs":
        "reference: tokenize, the reference lexer, builds tag tokens",
    "faults/chaos.py::chaos_timeline(incidents)":
        "e2e harness: chaos-2048 draws its own incident count",
    "feeds/generator.py::FeedGenerator.include_noise":
        "reference: the golden core-lines and diff-hunk digests replay "
        "noise-free feeds",
    "im/service.py::SimIMService.connect(now)":
        "test driver: the IM tests reconnect a client at a chosen time",
    "scenarios/spec.py::WorkloadSpec.url_prefix":
        "e2e harness: workloads.py re-keys the channel namespace per seed",
    "scenarios/spec.py::FlashCrowd.channel":
        "spec format: the channel rank a crowd subscribes to",
    "scenarios/spec.py::FlashCrowd.window":
        "spec format: the span a crowd arrives over",
    "scenarios/spec.py::UpdateBurst.factor":
        "spec format: how much faster a burst publishes",
    "scenarios/spec.py::UpdateBurst.channel_fraction":
        "spec format: the share of channels a burst speeds up",
    "scenarios/spec.py::ChurnWave.interval":
        "spec format: the seconds between churn ticks",
    "scenarios/spec.py::SubscriptionFlap.channels":
        "spec format: the channel pool a flap cycles",
    "scenarios/spec.py::SubscriptionFlap.subscribers":
        "spec format: the clients per channel a flap cycles",
    "simulation/macro.py::MacroSimulator.__init__(obs)":
        "e2e harness: child.py reads the solver counters off its plane",
    "sweeps/farm.py::TaskResult.error":
        "failure path: the message of a task that raised or timed out",
    "workload/trace.py::generate_trace(url_prefix)":
        "e2e harness: macro-table2 re-keys the channel namespace per seed",
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
        ] + [["simulate", *_SMALL, "--hours", "1", "--target", "20"]],
        ("scenario", "run"): [],
        ("sweep", "run"): [],
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
            argv += ["--json", "--timeout", "600", "--retries", "2"]
        expanded[("sweep", "run")].append(argv)
    expanded[("sweep", "run")] += [
        ["sweep", "run", sweeps[0], "-j", "1", "--resume",
         "--check-invariants", "--out", f"{tmp}/sweep-{sweeps[0]}"],
        ["sweep", "run", sweeps[-1], "-j", "1", "--resume",
         "--out", f"{tmp}/sweep-{sweeps[-1]}"],
        ["sweep", "run", "no-such-sweep"],
    ]
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


# static side: every function and settable value under src/repro
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FunctionDef:
    key: str  # "<file under src/repro>::<qualified name>"
    path: str  # absolute file path, as code objects report it
    first_line: int  # first decorator, else ``def`` (= co_firstlineno)
    lines: int
    parent: str | None  # key of the enclosing function, if any


@dataclass(frozen=True)
class Settable:
    """A defaulted parameter or a defaulted ``init`` dataclass field."""

    key: str  # "<file>::<function>(<parameter>)" or "<file>::<Class>.<field>"
    ident: tuple  # what the profiler records when a call sets it
    function: tuple | None  # (path, first line) of a parameter's function


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        name = (
            decorator.attr if isinstance(decorator, ast.Attribute)
            else decorator.id
        )
        if name == "dataclass":
            return True
    return False


def _field_has_init_default(node: ast.AnnAssign) -> bool:
    """True for ``x: T = v`` or ``field(default…)`` ``__init__`` takes."""
    if node.value is None or ast.unparse(node.annotation).startswith(
        ("ClassVar", "typing.ClassVar")
    ):
        return False
    call = node.value
    if not (isinstance(call, ast.Call) and ast.unparse(call.func).endswith(
        "field"
    )):
        return True
    keywords = {kw.arg: kw.value for kw in call.keywords}
    init = keywords.get("init")
    if isinstance(init, ast.Constant) and init.value is False:
        return False
    return "default" in keywords or "default_factory" in keywords


def _defaulted_parameters(node) -> list[str]:
    args = node.args
    positional = args.posonlyargs + args.args
    defaulted = positional[len(positional) - len(args.defaults):]
    return [arg.arg for arg in defaulted] + [
        arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]


def _definitions_in(
    path: Path, rel: str
) -> tuple[list[FunctionDef], list[Settable]]:
    functions: list[FunctionDef] = []
    settables: list[Settable] = []

    def visit(node, prefix: str, parent: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                qualname = f"{prefix}{child.name}"
                if _is_dataclass(child):
                    settables.extend(
                        Settable(
                            f"{rel}::{qualname}.{item.target.id}",
                            (str(path), qualname, item.target.id),
                            None,
                        )
                        for item in child.body
                        if isinstance(item, ast.AnnAssign)
                        and _field_has_init_default(item)
                    )
                visit(child, f"{qualname}.", parent)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                key = f"{rel}::{qualname}"
                functions.append(FunctionDef(
                    key, str(path), first, child.end_lineno - first + 1,
                    parent,
                ))
                settables.extend(
                    Settable(
                        f"{key}({name})", (str(path), first, name),
                        (str(path), first),
                    )
                    for name in _defaulted_parameters(child)
                )
                visit(child, f"{qualname}.<locals>.", key)
            else:
                visit(child, prefix, parent)

    visit(ast.parse(path.read_text(encoding="utf-8")), "", None)
    return functions, settables


def _definitions(root: Path, index: int) -> list:
    return [
        item
        for path in sorted(root.rglob("*.py"))
        for item in _definitions_in(
            path, path.relative_to(root).as_posix()
        )[index]
    ]


def source_functions(root: Path = PACKAGE_ROOT) -> list[FunctionDef]:
    """Every ``def`` under ``root``, keyed by file and qualified name."""
    return _definitions(root, 0)


def source_settables(root: Path = PACKAGE_ROOT) -> list[Settable]:
    """Every defaulted parameter and ``init`` dataclass field under
    ``root`` (``ClassVar`` and ``field(init=False)`` are not settable)."""
    return _definitions(root, 1)


# ----------------------------------------------------------------------
# dynamic side
# ----------------------------------------------------------------------
def _function_of(frame, code):
    """The function object whose code ``frame`` runs, or None.

    Looked up by qualified name from the module's globals; a closure
    or a shadowed name falls back to a scan of the code's referrers.
    """
    candidates = []
    owner = frame.f_globals
    try:
        for part in code.co_qualname.split("."):
            scope = owner if isinstance(owner, dict) else vars(owner)
            owner = scope[part]
        candidates.append(owner)
    except (KeyError, TypeError):
        candidates += gc.get_referrers(code)
    while candidates:
        candidate = candidates.pop()
        if getattr(candidate, "__code__", None) is code:
            return candidate
        candidates += [
            getattr(candidate, attr) for attr in
            ("__func__", "fget", "fset", "func", "__wrapped__")
            if getattr(candidate, attr, None) is not None
        ]
    return None


def _default_pairs(function, code) -> list[tuple[str, object]]:
    """``(parameter, default)`` for each defaulted parameter."""
    positional = code.co_varnames[:code.co_argcount]
    defaults = function.__defaults__ or ()
    pairs = list(zip(positional[len(positional) - len(defaults):], defaults))
    return pairs + list((function.__kwdefaults__ or {}).items())


def _parameter_defaults(frame, code) -> list[tuple]:
    function = _function_of(frame, code)
    if function is None:
        return []
    where = (code.co_filename, code.co_firstlineno)
    return [
        (where + (name,), name, default)
        for name, default in _default_pairs(function, code)
    ]


def _field_defaults(frame, code, package: str) -> list[tuple]:
    """The defaulted fields a dataclass's generated ``__init__`` takes."""
    instance = frame.f_locals.get(code.co_varnames[0])
    cls = next(
        (
            klass for klass in type(instance).__mro__
            if getattr(vars(klass).get("__init__"), "__code__", None) is code
        ),
        None,
    )
    if cls is None or "__dataclass_fields__" not in vars(cls):
        return []
    watch = []
    for name, default in _default_pairs(vars(cls)["__init__"], code):
        owner = next(
            (
                klass for klass in cls.__mro__
                if name in vars(klass).get("__annotations__", {})
            ),
            cls,
        )
        path = getattr(sys.modules.get(owner.__module__), "__file__", "")
        if path and path.startswith(package):
            watch.append(((path, owner.__qualname__, name), name, default))
    return watch


def _same(value, default) -> bool:
    if value is default:
        return True
    try:
        return type(value) is type(default) and bool(value == default)
    except Exception:
        return False


def _profiler(seen: set, setters: set, package: str = str(PACKAGE_ROOT)):
    """A ``sys.setprofile`` hook recording what runs and what is set.

    ``seen`` collects ``(file, first line)`` of every ``package`` code
    object that runs; ``setters`` collects the ident of every
    :class:`Settable` some call gives a value other than its default.
    """
    watched: dict[int, tuple] = {}

    def resolve(frame, code) -> list:
        if code.co_filename.startswith(package):
            seen.add((code.co_filename, code.co_firstlineno))
            return _parameter_defaults(frame, code)
        if code.co_name == "__init__" and code.co_filename == "<string>":
            return _field_defaults(frame, code, package)
        return []

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        entry = watched.get(id(code))
        if entry is None:
            # The code object is held so its id is never reused.
            entry = watched[id(code)] = (code, resolve(frame, code))
        watch = entry[1]
        if watch:
            values = frame.f_locals
            for item in list(watch):
                value = values.get(item[1], item[2])
                if not _same(value, item[2]):
                    setters.add(item[0])
                    watch.remove(item)

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


def run_benchmarks(paths: list[str]) -> int:
    """``pytest`` on ``paths`` with the profiler kept on in timed bodies.

    pytest-benchmark's ``PauseInstrumentation`` clears
    ``sys.setprofile`` around every timed round and around the whole
    of ``benchmark.pedantic``; it is replaced by a no-op for the run.
    """
    from pytest_benchmark import fixture

    pause = fixture.PauseInstrumentation
    import pytest

    fixture.PauseInstrumentation = contextlib.nullcontext
    try:
        return pytest.main(["-q", "-p", "no:cacheprovider", *paths])
    finally:
        fixture.PauseInstrumentation = pause


def run_census() -> tuple[set, set, list[str]]:
    """Run every entry point under the profiler.

    Returns what ran, which settable values were set and the entry
    points that failed unexpectedly (the ``no-such``/``missing``
    arguments exercise the error paths and must fail).
    """
    seen: set = set()
    setters: set = set()
    failed: list[str] = []
    profile = _profiler(seen, setters)
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
        paths = benchmark_paths()
        label = f"pytest {len(paths)} benchmark files (ci scale)"
        if _run_quietly(label, lambda: run_benchmarks(paths)):
            failed.append(label)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return seen, setters, failed


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


@dataclass(frozen=True)
class ValueVerdict:
    never_set: list[str]  # keys no call gave another value
    no_reason: list[str]  # never set and not in KEEP_VALUES
    set_after_all: list[str]  # KEEP_VALUES entries some call set
    vanished: list[str]  # KEEP_VALUES entries that name no value

    @property
    def ok(self) -> bool:
        return not (self.no_reason or self.set_after_all or self.vanished)


def judge_values(
    settables: list[Settable], seen: set, setters: set, keep: dict[str, str]
) -> ValueVerdict:
    """Compare what was set with ``keep``.

    A parameter of a function that never ran is left to the function
    census (its function is missed or kept there).
    """
    never_set = [
        value.key for value in settables
        if value.ident not in setters
        and (value.function is None or value.function in seen)
    ]
    known = {value.key for value in settables}
    return ValueVerdict(
        never_set=never_set,
        no_reason=[key for key in never_set if key not in keep],
        set_after_all=sorted(
            key for key in keep if key in known and key not in never_set
        ),
        vanished=sorted(key for key in keep if key not in known),
    )


def main() -> int:
    os.chdir(REPO_ROOT)
    os.environ.setdefault("CORONA_BENCH_SCALE", "ci")

    started = time.perf_counter()
    seen, setters, failed = run_census()
    functions = source_functions()
    verdict = judge(functions, seen, KEEP)
    missed = verdict.missed
    settables = source_settables()
    values = judge_values(settables, seen, setters, KEEP_VALUES)
    wall = time.perf_counter() - started

    print(
        f"\ncensus: {len(functions)} functions in src/repro, "
        f"{len(missed)} never ran ({sum(fn.lines for fn in missed)} "
        f"lines); {len(missed) - len(verdict.no_reason)} kept with a "
        f"reason ({wall:.0f}s)"
    )
    print(
        f"census: {len(settables)} settable values in src/repro, "
        f"{len(values.never_set)} never set; "
        f"{len(values.never_set) - len(values.no_reason)} kept with a "
        "reason"
    )
    for fn in verdict.no_reason:
        print(f"UNREACHED, no reason: {fn.key} ({fn.lines} lines)")
    for key in verdict.reached:
        print(f"KEEP entry now reached (drop it): {key}")
    for key in verdict.vanished:
        print(f"KEEP entry names no function (drop it): {key}")
    for key in values.no_reason:
        print(f"NEVER SET, no reason: {key}")
    for key in values.set_after_all:
        print(f"KEEP_VALUES entry now set (drop it): {key}")
    for key in values.vanished:
        print(f"KEEP_VALUES entry names no value (drop it): {key}")
    for label in failed:
        print(f"ENTRY POINT FAILED: {label}")
    return 0 if verdict.ok and values.ok and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
