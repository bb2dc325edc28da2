"""The eager-reference seam engages, and only inside its helper.

Every equivalence suite compares a production run with one driven
under :mod:`tests.reference_paths`.  If the helper stopped swapping in
the references, those suites would compare the delta/memo paths with
themselves and pass vacuously; these tests fail instead.
"""

import pytest

from repro.honeycomb.aggregation import DecentralizedAggregator
from repro.scenarios.runner import ScenarioRunner
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
