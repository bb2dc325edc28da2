"""Golden brackets of the Honeycomb solver, recorded from a parent.

``golden/solver_brackets.json`` holds, per case, one record per
distinct instance: the sha256 of the problem (budget plus every
channel's key, levels, curves and weight, floats as ``float.hex``) and
the sha256 of its :class:`BracketingSolution` — both sides' sorted
levels, objective, cost, feasibility and split records, plus λ* and
the iteration count.  The cases are

* ``random`` — seeded instances of 0–64 entries with weights from
  {1, 2, 7, 40, 500} and budgets that are infeasible, slack or
  unconstrained;
* ``saturated`` — one cluster whose saturated levels repeat a (g, f)
  point, so the hull must drop the duplicates;
* ``ablation`` — the 20 000-entry instance of
  ``benchmarks/test_ablation_solver.py``;
* ``macro-quarter-lite`` and ``heavy-churn`` — every distinct instance
  the solver is handed during a :class:`MacroSimulator` Lite run over a
  quarter of ``table2``'s population (the run
  ``test_golden_optimization_rounds.py`` replays) and during the
  built-in ``heavy-churn`` scenario at seed 0.  These records also
  store the instance itself (``float.hex`` curves, at most three
  entries each), so the replay depends on no simulator: a change to what
  the simulators pose leaves this oracle intact.

The digests and instances were recorded at commit 6a1cd78, whose
production kernel was a numpy twin of the pure-Python bracketing
kernel, before that twin was deleted — a replay proves the surviving
kernel answers every instance exactly as the deleted one did.  A
mismatch in the problem digests means the corpus itself drifted (the
generated cases changed, or the stored instances decode differently),
not that the solver changed its answers.

Regenerate only when brackets are *meant* to change, from the commit
whose behaviour is the new reference::

    PYTHONPATH=src python -m tests.honeycomb.test_golden_solver

re-solves the stored instances; add ``--capture`` to pose the
simulator cases afresh.  Say in the commit why the brackets moved.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from benchmarks.test_ablation_solver import paper_sized_problem
from repro.honeycomb.problem import ChannelTradeoff, TradeoffProblem
from repro.honeycomb.solver import HoneycombSolver

GOLDEN_PATH = Path(__file__).parent / "golden" / "solver_brackets.json"
CASES = (
    "random", "saturated", "ablation", "macro-quarter-lite", "heavy-churn"
)
CAPTURED = ("macro-quarter-lite", "heavy-churn")
WEIGHTS = (1, 2, 7, 40, 500)


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()


def _hex(values) -> list[str]:
    return [float(value).hex() for value in values]


def problem_digest(problem: TradeoffProblem) -> str:
    return _digest(
        [
            float(problem.target).hex(),
            [
                [repr(ch.key), [int(level) for level in ch.levels],
                 _hex(ch.f), _hex(ch.g), ch.weight]
                for ch in problem.channels
            ],
        ]
    )


def encode(problem: TradeoffProblem) -> dict:
    """A captured instance as JSON data that :func:`decode` restores
    bit for bit (keys are the ints a manager's clusters carry)."""
    for ch in problem.channels:
        assert type(ch.key) is int, f"cannot store key {ch.key!r}"
    return {
        "target": float(problem.target).hex(),
        "channels": [
            [ch.key, [int(level) for level in ch.levels],
             _hex(ch.f), _hex(ch.g), ch.weight]
            for ch in problem.channels
        ],
    }


def decode(instance: dict) -> TradeoffProblem:
    return TradeoffProblem(
        channels=[
            ChannelTradeoff(
                key=key,
                levels=tuple(levels),
                f=tuple(float.fromhex(value) for value in f),
                g=tuple(float.fromhex(value) for value in g),
                weight=weight,
            )
            for key, levels, f, g, weight in instance["channels"]
        ],
        target=float.fromhex(instance["target"]),
    )


def _solution_payload(solution) -> list:
    return [
        sorted(
            (repr(key), int(level)) for key, level in solution.levels.items()
        ),
        _hex((solution.objective, solution.cost)),
        bool(solution.feasible),
        sorted(
            (repr(key), int(split.level_low), split.count_low,
             int(split.level_high), split.count_high,
             *_hex((split.f_low, split.f_high)))
            for key, split in solution.splits.items()
        ),
    ]


def bracket_digest(bracket) -> str:
    return _digest(
        [
            _solution_payload(bracket.lower),
            _solution_payload(bracket.upper),
            float(bracket.lambda_star).hex(),
            bracket.iterations,
        ]
    )


def _random_problems(count: int = 200, seed: int = 26) -> list:
    """Corona-shaped instances across sizes, weights and budgets."""
    rng = random.Random(seed)
    problems = []
    for _ in range(count):
        m, k = rng.randint(0, 64), rng.randint(0, 5)
        base = rng.choice((2, 4, 16))
        levels = tuple(range(k + 1))
        channels = []
        for index in range(m):
            q, s = rng.uniform(0.1, 100), rng.uniform(0.1, 10)
            channels.append(
                ChannelTradeoff(
                    key=index,
                    levels=levels,
                    f=tuple(q * base**level for level in levels),
                    g=tuple(s * 100.0 / base**level for level in levels),
                    weight=rng.choice(WEIGHTS),
                )
            )
        cheapest = sum(ch.weight * ch.g[-1] for ch in channels)
        dearest = sum(ch.weight * ch.g[0] for ch in channels)
        target = rng.choice(
            [cheapest / 2, rng.uniform(cheapest, dearest), 1e9]
        )
        problems.append(TradeoffProblem(channels=channels, target=target))
    return problems


def _saturated_problem() -> TradeoffProblem:
    channel = ChannelTradeoff(
        key="sat",
        levels=(0, 1, 2, 3, 4),
        f=(1.0, 4.0, 16.0, 16.0, 16.0),
        g=(100.0, 25.0, 1.0, 1.0, 1.0),
        weight=9,
    )
    return TradeoffProblem(channels=[channel], target=50.0)


def _run_macro_quarter_lite() -> None:
    from repro.core.config import CoronaConfig
    from repro.simulation.macro import MacroSimulator
    from repro.workload.trace import generate_trace

    trace = generate_trace(n_channels=500, n_subscriptions=25_000, seed=7)
    MacroSimulator(
        trace,
        CoronaConfig(scheme="lite", polling_interval=1800.0),
        n_nodes=128,
        seed=7,
        horizon=6 * 3600.0,
    ).run()


def _run_heavy_churn() -> None:
    from repro.scenarios import ScenarioRunner, get_scenario

    ScenarioRunner(get_scenario("heavy-churn"), seed=0).run()


def _posed_by(run) -> list:
    """Every distinct instance the solver is handed during ``run()``."""
    posed: dict[str, TradeoffProblem] = {}
    solve_bracketing = HoneycombSolver.solve_bracketing

    def capturing(solver, problem):
        posed.setdefault(problem_digest(problem), problem)
        return solve_bracketing(solver, problem)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(HoneycombSolver, "solve_bracketing", capturing)
        run()
    return list(posed.values())


def capture(case: str) -> list:
    """Pose a simulator case afresh (regeneration only)."""
    if case == "macro-quarter-lite":
        return _posed_by(_run_macro_quarter_lite)
    return _posed_by(_run_heavy_churn)


def corpus(case: str, golden: list) -> list:
    """The instances of ``case``: generated, or decoded from the
    ``golden`` records for the simulator cases."""
    if case == "random":
        return _random_problems()
    if case == "saturated":
        return [_saturated_problem()]
    if case == "ablation":
        return [paper_sized_problem()]
    return [decode(entry["instance"]) for entry in golden]


def record(case: str, problems: list) -> list:
    solver = HoneycombSolver()
    records = []
    for problem in problems:
        entry = {
            "problem": problem_digest(problem),
            "bracket": bracket_digest(solver.bracket(problem)),
        }
        if case in CAPTURED:
            entry["instance"] = encode(problem)
            assert problem_digest(decode(entry["instance"])) == entry["problem"]
        records.append(entry)
    return records


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", CASES)
def test_solver_replays_the_recorded_brackets(case):
    golden = load_golden()[case]
    assert golden, "a case with no instance proves nothing"
    problems = corpus(case, golden)
    assert [problem_digest(problem) for problem in problems] == [
        entry["problem"] for entry in golden
    ], "corpus drift: the instances are not the recorded ones"
    replayed = record(case, problems)
    differing = [
        index
        for index, (mine, theirs) in enumerate(zip(replayed, golden))
        if mine["bracket"] != theirs["bracket"]
    ]
    assert not differing, (
        f"{len(differing)} of {len(golden)} brackets differ from the "
        f"recorded ones (first at index {differing[0]})"
    )


def dump(recorded: dict) -> str:
    """One record per line, so a regeneration diffs instance by
    instance."""
    cases = []
    for case in sorted(recorded):
        lines = ",\n".join(
            "  " + json.dumps(entry, sort_keys=True)
            for entry in recorded[case]
        )
        cases.append(f" {json.dumps(case)}: [\n{lines}\n ]")
    return "{\n" + ",\n".join(cases) + "\n}\n"


if __name__ == "__main__":
    fresh = "--capture" in sys.argv[1:]
    golden = {} if fresh else load_golden()
    recorded = {
        case: record(
            case,
            capture(case)
            if fresh and case in CAPTURED
            else corpus(case, golden.get(case, [])),
        )
        for case in CASES
    }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(dump(recorded))
    sizes = ", ".join(f"{case} {len(recorded[case])}" for case in CASES)
    print(f"wrote solver brackets ({sizes}) to {GOLDEN_PATH}")
