"""SweepSpec enumeration order, validation, and the sweep registry."""

import pytest

from repro.sweeps import (
    SweepSelection,
    SweepSpec,
    SweepSpecError,
    SweepTask,
    UnknownSweepError,
    get_sweep,
    list_sweeps,
    sweep_names,
)
from repro.sweeps.builtin import BUILTIN_NAMES


class TestSweepTask:
    def test_key_and_label(self):
        assert SweepTask("flash-crowd", None, 3).key == (
            "flash-crowd[base]@seed3"
        )
        assert SweepTask("scheme-fault-sweep", "fair", 0).label == "fair"

    def test_validate_rejects_unknowns(self):
        with pytest.raises(SweepSpecError):
            SweepTask("no-such-scenario").validate()
        with pytest.raises(SweepSpecError):
            SweepTask("flash-crowd", "no-such-variant").validate()
        with pytest.raises(SweepSpecError):
            SweepTask("flash-crowd", None, -1).validate()


class TestSweepSpec:
    def test_tasks_enumerate_selection_major_then_variant_then_seed(self):
        spec = SweepSpec(
            name="grid",
            selections=(
                SweepSelection("scheme-fault-sweep", ("fast", "lite")),
                SweepSelection("flash-crowd"),
            ),
            seeds=(0, 7),
        )
        spec.validate()
        assert spec.tasks() == (
            SweepTask("scheme-fault-sweep", "fast", 0),
            SweepTask("scheme-fault-sweep", "fast", 7),
            SweepTask("scheme-fault-sweep", "lite", 0),
            SweepTask("scheme-fault-sweep", "lite", 7),
            SweepTask("flash-crowd", None, 0),
            SweepTask("flash-crowd", None, 7),
        )
        assert spec.scenario_names() == [
            "scheme-fault-sweep",
            "flash-crowd",
        ]

    def test_all_variants_when_unrestricted(self):
        selection = SweepSelection("churn-scale-sweep")
        assert selection.resolve_labels() == (
            "n512",
            "n1024",
            "n2048",
            "n4096",
        )

    @pytest.mark.parametrize(
        "spec",
        [
            SweepSpec(name=""),
            SweepSpec(name="empty"),
            SweepSpec(
                name="no-seeds",
                selections=(SweepSelection("flash-crowd"),),
                seeds=(),
            ),
            SweepSpec(
                name="dup-seeds",
                selections=(SweepSelection("flash-crowd"),),
                seeds=(1, 1),
            ),
            SweepSpec(
                name="bad-variant",
                selections=(SweepSelection("flash-crowd", ("nope",)),),
            ),
        ],
        ids=[
            "unnamed",
            "no-selections",
            "no-seeds",
            "duplicate-seeds",
            "unknown-variant",
        ],
    )
    def test_validate_rejects(self, spec):
        with pytest.raises(SweepSpecError):
            spec.validate()


class TestRegistry:
    def test_builtins_registered_and_valid(self):
        assert set(BUILTIN_NAMES) <= set(sweep_names())
        for spec in list_sweeps():
            spec.validate()
            assert spec.tasks()

    def test_unknown_sweep_is_loud(self):
        with pytest.raises(UnknownSweepError):
            get_sweep("no-such-sweep")

    def test_seed_grid_replicates_seeds(self):
        spec = get_sweep("seed-grid")
        assert [task.seed for task in spec.tasks()] == [0, 1, 2]
