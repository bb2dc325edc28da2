"""Ablation — Honeycomb's solution strategy (DESIGN.md §5.1).

The paper stresses that pre-computing the discrete λ iteration space
and bracketing over it gives O(M log M log N) total work with O(log M)
iterations.  This bench times the bracketing solve against the naive
move-at-a-time scan on a paper-sized instance (M = 20 000 channels) —
both on the one pure-Python kernel, so the gap is the strategy's and
not an implementation language's — bounds the moves the scan applies
against the probes a binary search needs, and checks they agree.
"""

import random

import pytest

from repro.honeycomb.problem import ChannelTradeoff, TradeoffProblem
from repro.honeycomb.solver import HoneycombSolver


def paper_sized_problem(m=20_000, k=3, seed=3) -> TradeoffProblem:
    rng = random.Random(seed)
    channels = []
    for index in range(m):
        q = rng.paretovariate(0.5)
        s = rng.uniform(1.0, 16.0)
        levels = tuple(range(k + 1))
        channels.append(
            ChannelTradeoff(
                key=index,
                levels=levels,
                f=tuple(q * 16**level for level in levels),
                g=tuple(s * 1024.0 / 16**level for level in levels),
            )
        )
    budget = sum(channel.g[1] for channel in channels) * 0.8
    return TradeoffProblem(channels=channels, target=budget)


@pytest.fixture(scope="module")
def problem() -> TradeoffProblem:
    return paper_sized_problem()


def test_solver_bracketing(benchmark, problem):
    # The memo-less kernel: the ablation times bracketing itself, not
    # an LRU replay of the first iteration's solution.
    solver = HoneycombSolver()
    solution = benchmark(lambda: solver.bracket(problem).lower)
    assert solution.feasible


def test_solver_scan_baseline(benchmark, problem):
    solver = HoneycombSolver()
    solution = benchmark(lambda: solver.solve_scan(problem))
    assert solution.feasible


def test_scan_applies_far_more_moves_than_a_binary_search_probes(problem):
    """The strategy difference as a bound rather than a timing: the scan
    re-checks the budget after every move it applies, while a binary
    search over the prefix sums of all ``moves`` probes at most
    ``(moves + 1).bit_length()`` of them."""
    scan = HoneycombSolver().solve_scan(problem)
    # f·g is constant per channel, so every level is a hull vertex and
    # level 0 is the unconstrained optimum: each level step is one move.
    moves = sum(len(channel.levels) - 1 for channel in problem.channels)
    applied = sum(scan.levels.values())
    assert applied > 1000 * (moves + 1).bit_length()


def test_strategies_agree(benchmark, problem):
    solver = HoneycombSolver()

    def both():
        return solver.bracket(problem).lower, solver.solve_scan(problem)

    fast, slow = benchmark.pedantic(both, rounds=1, iterations=1)
    assert abs(fast.objective - slow.objective) <= 1e-6 * slow.objective
    assert abs(fast.cost - slow.cost) <= 1e-6 * slow.cost
