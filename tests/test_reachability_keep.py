"""The reachability census's static half: its KEEP and KEEP_VALUES
tables, its verdicts, its profiler and its entry-point enumeration
(``scripts/reachability.py``).

No census runs here.  Source functions and settable values come from
the script's :mod:`ast` walk of ``src/repro``; the verdicts are
checked on small modules with hand-picked functions marked as run and
values marked as set; the profiler runs on modules written to a
temporary directory; the entry points are the argument vectors the
census would run, compared with the scenario and sweep registries and
the CLI parser.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.scenarios import get_scenario, scenario_names
from repro.sweeps import sweep_names

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "reachability.py"


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location("reachability", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve through it
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.fixture(scope="module")
def invocations(census, tmp_path_factory):
    runs = census.cli_invocations(str(tmp_path_factory.mktemp("census")))
    # Drop the global verbosity flags some runs lead with.
    return [
        argv[next(i for i, arg in enumerate(argv) if arg[0] != "-"):]
        for argv in runs
    ]


def test_every_keep_entry_names_a_source_function(census):
    known = {function.key for function in census.source_functions()}
    assert sorted(set(census.KEEP) - known) == []


def test_every_keep_values_entry_names_a_settable_value(census):
    known = {value.key for value in census.source_settables()}
    assert sorted(set(census.KEEP_VALUES) - known) == []


def test_every_keep_entry_gives_a_classed_reason(census):
    for key, reason in {**census.KEEP, **census.KEEP_VALUES}.items():
        kind, _, text = reason.partition(": ")
        assert kind in census.CLASSES and text, key


def test_every_reason_class_is_used(census):
    used = {
        reason.partition(": ")[0]
        for reason in [*census.KEEP.values(), *census.KEEP_VALUES.values()]
    }
    assert sorted(set(census.CLASSES) - used) == []


SAMPLE = """
class Box:
    def open(self):
        def latch():
            pass
        return latch


def helper():
    pass
"""
OPEN, LATCH, HELPER = (
    "sample.py::Box.open",
    "sample.py::Box.open.<locals>.latch",
    "sample.py::helper",
)


@pytest.fixture()
def sample(census, tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE)
    return census.source_functions(tmp_path)


def ran(functions, *keys):
    """The profiler's record of ``keys`` having run."""
    return {
        (fn.path, fn.first_line) for fn in functions if fn.key in keys
    }


def test_function_keys_follow_qualified_names(sample):
    assert {fn.key: fn.parent for fn in sample} == {
        OPEN: None, LATCH: OPEN, HELPER: None,
    }


def test_unreached_function_needs_a_reason(census, sample):
    seen = ran(sample, OPEN, LATCH)
    verdict = census.judge(sample, seen, {})
    assert [fn.key for fn in verdict.no_reason] == [HELPER]
    assert not verdict.ok
    assert census.judge(sample, seen, {HELPER: "worker: x"}).ok


def test_nested_function_is_reported_through_its_parent(census, sample):
    verdict = census.judge(sample, set(), {})
    assert [fn.key for fn in verdict.missed] == [OPEN, HELPER]


def test_kept_function_under_an_unreached_parent_is_not_reached(
    census, sample
):
    keep = {OPEN: "worker: x", LATCH: "worker: y", HELPER: "worker: z"}
    verdict = census.judge(sample, set(), keep)
    assert verdict.reached == []
    assert verdict.ok


def test_kept_function_that_ran_is_reported(census, sample):
    seen = ran(sample, OPEN, LATCH, HELPER)
    verdict = census.judge(sample, seen, {HELPER: "worker: x"})
    assert verdict.reached == [HELPER]
    assert not verdict.ok


def test_keep_entry_naming_no_function_is_reported(census, sample):
    seen = ran(sample, OPEN, LATCH, HELPER)
    verdict = census.judge(sample, seen, {"sample.py::gone": "worker: x"})
    assert verdict.vanished == ["sample.py::gone"]
    assert not verdict.ok


def test_every_scenario_runs(invocations):
    ran = {
        argv[2] for argv in invocations if argv[:2] == ["scenario", "run"]
    }
    assert set(scenario_names()) <= ran


def test_small_variants_are_registered(census):
    for name, labels in census.SMALL_VARIANTS.items():
        assert set(labels) <= set(get_scenario(name).variant_labels())


def test_every_sweep_runs(invocations):
    ran = {argv[2] for argv in invocations if argv[:2] == ["sweep", "run"]}
    assert set(sweep_names()) <= ran


def test_every_verb_runs(census, invocations):
    verbs = census.verbs(build_parser())
    assert len(verbs) >= 9  # table2 … trace export
    for path in verbs:
        assert any(
            tuple(argv[: len(path)]) == path for argv in invocations
        ), path


def test_examples_and_benchmarks_are_found(census):
    assert len(census.example_paths()) >= 5
    assert len(census.benchmark_paths()) >= 10


VALUES = """
from dataclasses import dataclass, field
from typing import ClassVar


def tune(a, b=1, *, c=2):
    return a + b + c


@dataclass
class Knobs:
    size: int
    cap: int = 4
    rate: float = field(default=0.5)
    items: list = field(default_factory=list)
    state: int = field(default=0, init=False)
    limit: ClassVar[int] = 9


SET_AT_IMPORT = (tune(0, b=5), Knobs(1, cap=8))
"""


@pytest.fixture()
def values_module(census, tmp_path, monkeypatch):
    """``VALUES`` as an importable module, and its settable values."""
    (tmp_path / "census_values.py").write_text(VALUES)
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "census_values", raising=False)
    return tmp_path, census.source_settables(tmp_path)


def test_settable_values_follow_the_static_rule(values_module):
    _, settables = values_module
    assert {value.key for value in settables} == {
        "census_values.py::tune(b)",
        "census_values.py::tune(c)",
        "census_values.py::Knobs.cap",
        "census_values.py::Knobs.rate",
        "census_values.py::Knobs.items",
    }


def test_profiler_sees_values_set_at_import_time(census, values_module):
    root, settables = values_module
    seen, setters = set(), set()
    sys.setprofile(census._profiler(seen, setters, package=str(root)))
    try:
        importlib.import_module("census_values")
    finally:
        sys.setprofile(None)
    verdict = census.judge_values(settables, seen, setters, {})
    assert sorted(verdict.never_set) == [
        "census_values.py::Knobs.items",
        "census_values.py::Knobs.rate",
        "census_values.py::tune(c)",
    ]


def test_never_set_value_needs_a_reason(census, values_module):
    _, settables = values_module
    tune = next(v for v in settables if v.key.endswith("tune(b)"))
    ran = {tune.function}
    verdict = census.judge_values(settables, ran, set(), {})
    assert "census_values.py::tune(b)" in verdict.no_reason
    assert not verdict.ok
    keep = {key: "reference: x" for key in verdict.never_set}
    assert census.judge_values(settables, ran, set(), keep).ok


def test_parameters_of_functions_that_never_ran_are_not_judged(
    census, values_module
):
    _, settables = values_module
    verdict = census.judge_values(settables, set(), set(), {})
    assert not any("tune" in key for key in verdict.never_set)


def test_kept_value_that_was_set_is_reported(census, values_module):
    _, settables = values_module
    cap = next(v for v in settables if v.key.endswith("Knobs.cap"))
    keep = {cap.key: "reference: x", "census_values.py::gone(x)": "x: y"}
    verdict = census.judge_values(settables, set(), {cap.ident}, keep)
    assert verdict.set_after_all == [cap.key]
    assert verdict.vanished == ["census_values.py::gone(x)"]


BENCHMARK = """
import census_bench_target


def test_timed(benchmark):
    benchmark.pedantic(
        census_bench_target.work, kwargs={"x": 2}, rounds=1
    )
"""


def test_census_sees_inside_pedantic_benchmark_bodies(
    census, tmp_path, monkeypatch
):
    """pytest-benchmark pauses profilers around timed bodies; the
    census's benchmark run keeps its own on."""
    (tmp_path / "census_bench_target.py").write_text(
        "\"\"\"Timed only.\"\"\"\n\n\ndef work(x=1):\n    return x\n"
    )
    (tmp_path / "test_census_bench.py").write_text(BENCHMARK)
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "census_bench_target", raising=False)
    seen, setters = set(), set()
    profile = census._profiler(seen, setters, package=str(tmp_path))
    sys.setprofile(profile)
    try:
        code = census.run_benchmarks([str(tmp_path / "test_census_bench.py")])
    finally:
        sys.setprofile(None)
    assert code == 0
    target = str(tmp_path / "census_bench_target.py")
    assert (target, 4) in seen  # the def, not the module body
    assert (target, 4, "x") in setters
