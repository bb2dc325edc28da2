"""Golden allocations of the optimization round, recorded from a parent.

``golden/optimization_rounds.json`` holds, per case and per control
round, the sha256 of every manager's sorted ``controller.desired``
(the targets ``run_optimization`` set) and, per case, the sha256 of
every channel's final polling level.  The cases are

* a :class:`MacroSimulator` per scheme, seed 7, over ``repro table2``'s
  six hours (six control rounds), on the e2e smoke population
  (100 channels, 2000 subscriptions, 32 nodes — the smoke's own one
  hour holds a single round) and on a quarter of ``table2``'s
  (500 channels, 25 000 subscriptions, its 128 nodes, whose identifiers
  collide six digits deep, so remote summaries keep arriving and
  split bins keep moving for three rounds), and
* the built-in ``heavy-churn`` scenario at seed 0 — ownership
  transfers, orphans and wholesale ``channel.stats`` swaps under a
  membership treadmill.

The digests were recorded from the parent of PR 20 (commit b6ca930),
before ``run_optimization`` stopped rebuilding its instance through
``ClusterSummary.copy()`` + ``add_channel`` and started assembling it
from cached per-channel records — a replay proves the new assembly
performs the same float additions in the same order, independently of
the scenario baselines.

Regenerate only when allocations are *meant* to change, from the commit
whose behaviour is the new reference::

    PYTHONPATH=src python tests/core/test_golden_optimization_rounds.py

and say in the commit why they moved.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.config import SCHEME_NAMES, CoronaConfig
from repro.core.system import CoronaSystem
from repro.scenarios import ScenarioRunner, get_scenario
from repro.simulation.macro import MacroSimulator
from repro.workload.trace import generate_trace

GOLDEN_PATH = Path(__file__).parent / "golden" / "optimization_rounds.json"
#: label -> (n_channels, n_subscriptions, n_nodes)
MACRO_SIZES = {"smoke": (100, 2000, 32), "quarter": (500, 25_000, 128)}
CASES = tuple(
    f"macro-{size}-{scheme}" for size in MACRO_SIZES for scheme in SCHEME_NAMES
) + ("heavy-churn",)


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()


def _round_digest(nodes) -> str:
    """sha256 over every manager's sorted desired levels."""
    return _digest(
        sorted(
            (node_id.hex(), sorted(node.controller.desired.items()))
            for node_id, node in nodes.items()
            if node.controller.desired
        )
    )


def _record_macro(size: str, scheme: str) -> dict:
    n_channels, n_subscriptions, n_nodes = MACRO_SIZES[size]
    rounds: list[str] = []

    class Recording(MacroSimulator):
        def _run_control_round(self) -> None:
            super()._run_control_round()
            rounds.append(_round_digest(self.nodes))

    trace = generate_trace(
        n_channels=n_channels, n_subscriptions=n_subscriptions, seed=7
    )
    simulator = Recording(
        trace,
        CoronaConfig(scheme=scheme, polling_interval=1800.0),
        n_nodes=n_nodes,
        seed=7,
        horizon=6 * 3600.0,
    )
    result = simulator.run()
    return {
        "rounds": rounds,
        "final_levels": _digest([int(level) for level in result.final_levels]),
    }


def _record_heavy_churn(monkeypatch) -> dict:
    rounds: list[str] = []
    final_levels: dict[str, int] = {}
    run_round = CoronaSystem.run_maintenance_round

    def recording_round(system, now):
        sent = run_round(system, now)
        rounds.append(_round_digest(system.nodes))
        final_levels.clear()
        final_levels.update(
            (url, channel.level)
            for node in system.nodes.values()
            for url, channel in node.managed.items()
        )
        return sent

    monkeypatch.setattr(CoronaSystem, "run_maintenance_round", recording_round)
    ScenarioRunner(get_scenario("heavy-churn"), seed=0).run()
    return {"rounds": rounds, "final_levels": _digest(sorted(final_levels.items()))}


def record(case: str, monkeypatch) -> dict:
    if case == "heavy-churn":
        return _record_heavy_churn(monkeypatch)
    _, size, scheme = case.split("-", 2)
    return _record_macro(size, scheme)


@pytest.mark.parametrize("case", CASES)
def test_rounds_replay_the_recorded_allocations(case, monkeypatch):
    golden = json.loads(GOLDEN_PATH.read_text())[case]
    assert golden["rounds"], "a case with no control round proves nothing"
    assert record(case, monkeypatch) == golden


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as patch:
        recorded = {case: record(case, patch) for case in CASES}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(recorded, indent=1, sort_keys=True) + "\n"
    )
    rounds = sum(len(entry["rounds"]) for entry in recorded.values())
    print(f"wrote {rounds} round digests for {len(CASES)} cases to {GOLDEN_PATH}")
