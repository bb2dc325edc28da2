"""Named scenario registry.

Built-ins self-register on package import
(:mod:`repro.scenarios.builtin`); downstream experiments register
their own specs with :func:`register`.  Lookup failures raise
:class:`UnknownScenarioError` listing what *is* available, so a CLI
typo is a one-line fix.
"""

from __future__ import annotations

from repro.scenarios.spec import ScenarioSpec

_REGISTRY: dict[str, ScenarioSpec] = {}


class UnknownScenarioError(KeyError):
    """Requested scenario name is not registered."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(
            f"unknown scenario {name!r}; registered: {scenario_names()}"
        )

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return self.args[0]


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Validate and register ``spec`` under its name; returns it."""
    spec.validate()
    if spec.name in _REGISTRY:
        raise ValueError(f"scenario {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownScenarioError(name) from None


def scenario_names() -> list[str]:
    """Registered names, sorted."""
    return sorted(_REGISTRY)


def list_scenarios() -> list[ScenarioSpec]:
    """Registered specs, sorted by name."""
    return [_REGISTRY[name] for name in scenario_names()]
