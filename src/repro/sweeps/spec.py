"""Declarative sweep specifications.

A sweep is the unit the farm executes: a grid of independent scenario
runs — every (scenario, variant, seed) cell is one
:class:`SweepTask` — enumerated from registered
:class:`~repro.scenarios.spec.ScenarioSpec`\\ s.  Like scenarios,
sweeps are data: a :class:`SweepSpec` names which scenarios (and
optionally which of their variants) to run and under which seeds, and
:meth:`SweepSpec.tasks` expands the grid in a deterministic order
(selection-major, then registered variant order, then seed order).
That order is the canonical merge order — the farm may *complete*
tasks in any order across worker processes, but artifacts are always
keyed and emitted in enumeration order, which is half of the
byte-identity contract (see :mod:`repro.sweeps.farm`).

Validation is eager and loud, mirroring
:meth:`~repro.scenarios.spec.ScenarioSpec.validate`: unknown
scenarios, unknown variant labels, duplicate seeds and empty grids
all raise :class:`SweepSpecError` before any process is spawned.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.scenarios.registry import UnknownScenarioError, get_scenario


class SweepSpecError(ValueError):
    """A sweep spec failed validation (bad scenario, variant, seed…)."""


@dataclass(frozen=True)
class SweepTask:
    """One cell of the grid: one scenario variant under one seed.

    ``variant`` is ``None`` for a scenario without variants (the
    runner's ``base`` run).  Tasks are plain frozen dataclasses so
    they pickle across the spawn boundary unchanged, and ``key`` is
    the stable identifier artifacts and tests address results by.
    """

    scenario: str
    variant: str | None = None
    seed: int = 0
    #: Run with the runner's invariant monitors attached.  Monitors
    #: are read-only (monitored runs stay byte-identical), so this
    #: does not participate in ``key``: the cell's identity — and its
    #: artifacts — are the same with or without monitoring.
    check_invariants: bool = False
    #: Run with the introspection plane attached (timeline sampler +
    #: provenance tracker) and ship a per-task report document back.
    #: Read-only like the monitors — identical payload bytes, so this
    #: is likewise excluded from ``key``.
    collect_report: bool = False

    @property
    def label(self) -> str:
        """The variant label the runner reports (``base`` if none)."""
        return self.variant if self.variant is not None else "base"

    @property
    def key(self) -> str:
        return f"{self.scenario}[{self.label}]@seed{self.seed}"

    def validate(self) -> None:
        """Resolve against the scenario registry; raise on a bad cell."""
        try:
            spec = get_scenario(self.scenario)
        except UnknownScenarioError as error:
            raise SweepSpecError(str(error)) from None
        if self.variant is not None:
            labels = spec.variant_labels()
            if self.variant not in labels:
                raise SweepSpecError(
                    f"scenario {self.scenario!r} has no variant "
                    f"{self.variant!r}; defined: {labels or '(none)'}"
                )
        if self.seed < 0:
            raise SweepSpecError("task seed cannot be negative")


@dataclass(frozen=True)
class SweepSelection:
    """One scenario's contribution to the grid.

    ``variants=None`` means *all* registered variants (or the base
    run when the scenario defines none); an explicit tuple restricts
    the grid to those labels, in the given order.
    """

    scenario: str
    variants: tuple[str, ...] | None = None

    def resolve_labels(self) -> tuple[str | None, ...]:
        """The variant labels this selection expands to."""
        spec = get_scenario(self.scenario)
        if self.variants is not None:
            return self.variants
        labels = spec.variant_labels()
        if not labels:
            return (None,)
        return tuple(labels)

    def validate(self) -> None:
        if not self.scenario:
            raise SweepSpecError("selection needs a scenario name")
        if self.variants is not None and not self.variants:
            raise SweepSpecError(
                f"selection {self.scenario!r}: variants, when given, "
                "cannot be empty (omit for all)"
            )
        for label in self.resolve_labels():
            SweepTask(self.scenario, label).validate()


@dataclass(frozen=True)
class SweepSpec:
    """One declarative sweep (see module docstring)."""

    name: str
    description: str = ""
    selections: tuple[SweepSelection, ...] = ()
    seeds: tuple[int, ...] = (0,)

    def validate(self) -> None:
        """Raise :class:`SweepSpecError` on the first bad field."""
        if not self.name:
            raise SweepSpecError("sweep needs a name")
        if not self.selections:
            raise SweepSpecError(
                f"sweep {self.name!r} selects no scenarios"
            )
        if not self.seeds:
            raise SweepSpecError(f"sweep {self.name!r} has no seeds")
        if len(set(self.seeds)) != len(self.seeds):
            raise SweepSpecError(
                f"sweep {self.name!r} repeats a seed: {self.seeds}"
            )
        for selection in self.selections:
            selection.validate()
        for seed in self.seeds:
            if not isinstance(seed, int) or seed < 0:
                raise SweepSpecError(
                    f"sweep {self.name!r} seeds must be non-negative "
                    f"ints, got {seed!r}"
                )

    # ------------------------------------------------------------------
    def tasks(self) -> tuple[SweepTask, ...]:
        """The grid, in canonical enumeration (= merge) order."""
        grid: list[SweepTask] = []
        for selection in self.selections:
            for label in selection.resolve_labels():
                for seed in self.seeds:
                    grid.append(
                        SweepTask(selection.scenario, label, seed)
                    )
        return tuple(grid)

    def scenario_names(self) -> list[str]:
        """Distinct scenarios the sweep touches, in selection order."""
        seen: dict[str, None] = {}
        for selection in self.selections:
            seen.setdefault(selection.scenario, None)
        return list(seen)
