"""The eager-reference seam engages, and only inside its helper.

Every equivalence suite compares a production run with one driven
under :mod:`tests.reference_paths`.  If the helper stopped swapping in
the references, those suites would compare the delta/memo paths with
themselves and pass vacuously; these tests fail instead.
"""

import pytest

from repro.core.config import CoronaConfig
from repro.core.system import CoronaSystem
from repro.honeycomb.aggregation import DecentralizedAggregator
from repro.scenarios.runner import ScenarioRunner
from repro.simulation.macro import MacroSimulator
from repro.simulation.webserver import WebServerFarm
from repro.workload.trace import generate_trace
from tests.reference_paths import (
    ROUND_SWAPS,
    SOLVE_SWAPS,
    eager_reference,
)
from tests.scenarios.conftest import tiny_spec


@pytest.fixture()
def delta_round_calls(monkeypatch):
    """Count calls of the delta round body."""
    calls = []
    delta_body = DecentralizedAggregator._run_round_delta

    def counting(self):
        calls.append(self)
        return delta_body(self)

    monkeypatch.setattr(
        DecentralizedAggregator, "_run_round_delta", counting
    )
    return calls


def run_tiny() -> dict:
    return ScenarioRunner(tiny_spec(), seed=5).run().to_dict()


def test_production_run_takes_the_delta_and_memo_paths(delta_round_calls):
    metrics = run_tiny()
    assert delta_round_calls
    assert metrics["solver_work_memo_hits"] > 0
    assert metrics["solver_work_shared_hits"] > 0


def test_eager_reference_bypasses_every_memo_and_delta_round(
    delta_round_calls,
):
    with eager_reference():
        metrics = run_tiny()
    assert not delta_round_calls
    assert metrics["solver_work_memo_hits"] == 0
    assert metrics["solver_work_shared_hits"] == 0
    assert metrics["solver_work_problems_solved"] > 0


def test_eager_reference_restores_the_front_methods():
    swaps = ROUND_SWAPS + SOLVE_SWAPS
    fronts = [owner.__dict__[name] for owner, name, _ in swaps]
    with pytest.raises(RuntimeError), eager_reference():
        for owner, name, reference in swaps:
            assert owner.__dict__[name] is reference
        raise RuntimeError("leave the block early")
    for (owner, name, _), front in zip(swaps, fronts):
        assert owner.__dict__[name] is front


def _system_round() -> None:
    system = CoronaSystem(
        n_nodes=8, config=CoronaConfig(base=4), fetcher=WebServerFarm(), seed=2
    )
    system.run_maintenance_round(0.0)


def _macro_round() -> None:
    trace = generate_trace(n_channels=20, n_subscriptions=200, seed=2)
    MacroSimulator(trace, CoronaConfig(), n_nodes=8, seed=2)._run_control_round()


@pytest.mark.parametrize("drive", [_system_round, _macro_round])
def test_both_drivers_run_the_one_aggregation_phase(drive, monkeypatch):
    """Each driver's round runs ``run_phase``, and the phase reaches
    its steps by attribute — so the e2e ledger's wraps and the
    reference swaps on ``refresh_locals`` / ``run_round`` engage."""
    calls = []
    for name in ("run_phase", "refresh_locals", "run_round"):
        method = getattr(DecentralizedAggregator, name)

        def counting(self, *args, _name=name, _method=method):
            calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(DecentralizedAggregator, name, counting)
    drive()
    assert calls == ["run_phase", "refresh_locals", "run_round", "run_round"]
