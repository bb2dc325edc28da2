"""The reachability census's static half: its KEEP table, its
verdict and its entry-point enumeration (``scripts/reachability.py``).

No census runs here.  Source functions come from the script's
:mod:`ast` walk of ``src/repro``; the verdict is checked on a small
module with hand-picked functions marked as run; the entry points are
the argument vectors the census would run, compared with the scenario
and sweep registries and the CLI parser.
"""

from __future__ import annotations

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


def test_every_keep_entry_gives_a_classed_reason(census):
    for key, reason in census.KEEP.items():
        kind, _, text = reason.partition(": ")
        assert kind in census.CLASSES and text, key


def test_every_reason_class_is_used(census):
    used = {reason.partition(": ")[0] for reason in census.KEEP.values()}
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
    assert len(verbs) >= 11  # table2 … bench compare
    for path in verbs:
        assert any(
            tuple(argv[: len(path)]) == path for argv in invocations
        ), path


def test_examples_and_benchmarks_are_found(census):
    assert len(census.example_paths()) >= 5
    assert len(census.benchmark_paths()) >= 10
