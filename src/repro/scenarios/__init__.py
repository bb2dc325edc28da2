"""Scenario orchestration & fault injection.

The paper evaluates Corona under a handful of fixed workloads
(Figures 3–10).  This package generalizes those experiments into
*declarative scenarios*: a :class:`~repro.scenarios.spec.ScenarioSpec`
describes the node population, the channel/workload mix and a timeline
of injected events (churn, flash crowds, update bursts, network
degradation); :class:`~repro.scenarios.runner.ScenarioRunner` compiles
the spec onto the discrete-event engine against the real protocol
stack (:class:`~repro.core.system.CoronaSystem`) and emits unified
:class:`~repro.scenarios.runner.ScenarioMetrics`.

Built-in scenarios live in :mod:`repro.scenarios.builtin` and are
looked up through :mod:`repro.scenarios.registry`; the CLI front end
is ``repro scenario run <name>`` / ``repro scenario list``.
"""

from repro.scenarios.registry import (
    get_scenario,
    list_scenarios,
    register,
    scenario_names,
)
from repro.scenarios.runner import ScenarioMetrics, ScenarioRunner
from repro.scenarios.spec import (
    ChurnWave,
    CorrelatedManagerFailure,
    FlashCrowd,
    MessageLoss,
    NetworkDegradation,
    NodeCrash,
    NodeJoin,
    NodeRecovery,
    Partition,
    PartitionHeal,
    ScenarioSpec,
    ScenarioSpecError,
    SubscriptionFlap,
    UpdateBurst,
    WorkloadSpec,
)

# Importing the package registers the built-in scenarios.
# isort: split
from repro.scenarios import builtin as _builtin  # noqa: E402  (self-registration)

__all__ = [
    "ChurnWave",
    "CorrelatedManagerFailure",
    "FlashCrowd",
    "MessageLoss",
    "NetworkDegradation",
    "NodeCrash",
    "NodeJoin",
    "NodeRecovery",
    "Partition",
    "PartitionHeal",
    "ScenarioMetrics",
    "ScenarioRunner",
    "ScenarioSpec",
    "ScenarioSpecError",
    "SubscriptionFlap",
    "UpdateBurst",
    "WorkloadSpec",
    "get_scenario",
    "list_scenarios",
    "register",
    "scenario_names",
]

del _builtin
