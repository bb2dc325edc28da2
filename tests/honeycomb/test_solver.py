"""The Honeycomb solver: correctness against brute force, the paper's
accuracy guarantee, weighted clusters, and degenerate cases."""

import ast
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.honeycomb import solver as solver_module
from repro.honeycomb.problem import ChannelTradeoff, TradeoffProblem
from repro.honeycomb.solver import HoneycombSolver


def corona_like_channel(key, q, s, base=4, k=3, weight=1):
    """A Corona-Lite-shaped tradeoff: latency vs load."""
    levels = tuple(range(k + 1))
    return ChannelTradeoff(
        key=key,
        levels=levels,
        f=tuple(q * base**level for level in levels),
        g=tuple(s * 100.0 / base**level for level in levels),
        weight=weight,
    )


def recompute(problem, solution):
    """``(objective, cost)`` re-derived from the channel tables, counting
    a split cluster's members at both of its levels."""
    objective = cost = 0.0
    for channel in problem.channels:
        split = solution.splits.get(channel.key)
        if split is None:
            parts = [(solution.levels[channel.key], channel.weight)]
        else:
            assert split.count_low + split.count_high == channel.weight
            assert solution.levels[channel.key] in (
                split.level_low,
                split.level_high,
            )
            parts = [
                (split.level_low, split.count_low),
                (split.level_high, split.count_high),
            ]
        for level, count in parts:
            index = channel.levels.index(level)
            objective += count * channel.f[index]
            cost += count * channel.g[index]
    return objective, cost


def close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def brute_force(problem):
    """Exact optimum by exhaustive enumeration (small instances)."""
    best = None
    channels = problem.channels
    for combo in itertools.product(
        *(range(len(channel.levels)) for channel in channels)
    ):
        cost = sum(
            ch.weight * ch.g[i] for ch, i in zip(channels, combo)
        )
        if cost <= problem.target:
            objective = sum(
                ch.weight * ch.f[i] for ch, i in zip(channels, combo)
            )
            if best is None or objective < best:
                best = objective
    return best


class TestAgainstBruteForce:
    @pytest.mark.parametrize("trial", range(25))
    def test_bracketing_guarantee(self, trial):
        """L*_u (relaxation) <= true optimum <= L*_d (returned), and
        the bracket differs in at most one channel — §3.2's accuracy
        claim, verified against exhaustive search."""
        rng = random.Random(trial)
        m, k = rng.randint(1, 6), rng.randint(1, 4)
        channels = [
            corona_like_channel(i, rng.uniform(1, 100), rng.uniform(1, 10), k=k)
            for i in range(m)
        ]
        target = rng.uniform(m * 2, m * 120)
        problem = TradeoffProblem(channels=channels, target=target)
        bracket = HoneycombSolver().solve_bracketing(problem)
        optimum = brute_force(problem)
        if optimum is None:
            assert not bracket.lower.feasible
            return
        assert bracket.lower.feasible
        assert bracket.lower.cost <= target + 1e-9
        assert bracket.upper.objective <= optimum + 1e-9
        assert optimum <= bracket.lower.objective + 1e-9
        differing = sum(
            1
            for key in bracket.lower.levels
            if bracket.lower.levels[key] != bracket.upper.levels[key]
        )
        assert differing <= 1

    def test_scan_agrees_with_bracketing(self):
        rng = random.Random(99)
        for _ in range(20):
            m = rng.randint(1, 8)
            channels = [
                corona_like_channel(i, rng.uniform(1, 50), rng.uniform(1, 5))
                for i in range(m)
            ]
            problem = TradeoffProblem(
                channels=channels, target=rng.uniform(10, 400)
            )
            solver = HoneycombSolver()
            fast = solver.solve(problem)
            slow = solver.solve_scan(problem)
            assert abs(fast.objective - slow.objective) < 1e-9
            assert abs(fast.cost - slow.cost) < 1e-9


class TestBracketInvariants:
    """What every bracket must satisfy, over weighted clusters, fixed
    single-level channels, empty problems and budgets from infeasible
    through slack to unconstrained."""

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_brackets_are_consistent(self, seed):
        rng = random.Random(seed)
        solver = HoneycombSolver(memo_solve=False)
        for _ in range(60):
            m, k = rng.randint(0, 9), rng.randint(0, 5)
            channels = [
                corona_like_channel(
                    index,
                    rng.uniform(0.1, 100),
                    rng.uniform(0.1, 10),
                    k=k,
                    weight=rng.choice([1, 1, 1, 2, 7, 40, 500]),
                )
                for index in range(m)
            ]
            target = rng.choice([0.01, rng.uniform(1, m * 150 + 1), 1e9])
            problem = TradeoffProblem(channels=channels, target=target)
            bracket = solver.solve_bracketing(problem)
            lower, upper = bracket.lower, bracket.upper

            for solution in (lower, upper):
                objective, cost = recompute(problem, solution)
                assert close(objective, solution.objective)
                assert close(cost, solution.cost)
                assert solution.feasible == (solution.cost <= target)
            assert len(lower.splits) <= 1
            assert not upper.splits
            differing = [
                key for key in lower.levels
                if lower.levels[key] != upper.levels[key]
            ]
            assert len(differing) <= 1
            if upper is not lower:
                # One move short of feasible, and the move only trades
                # objective for cost.
                assert lower.feasible and not upper.feasible
                assert lower.cost < upper.cost
                assert lower.objective >= upper.objective
            if all(channel.weight == 1 for channel in channels):
                scanned = solver.solve_scan(problem)
                assert scanned.levels == lower.levels
                assert close(scanned.objective, lower.objective)
                assert close(scanned.cost, lower.cost)

    def test_duplicate_points_and_saturated_levels(self):
        """Levels whose wedge size saturates produce duplicate (g, f)
        points; the hull keeps the lowest such level, and the cluster
        splits across the last move exactly as far as the budget
        needs."""
        channel = ChannelTradeoff(
            key="sat",
            levels=(0, 1, 2, 3, 4),
            f=(1.0, 4.0, 16.0, 16.0, 16.0),
            g=(100.0, 25.0, 1.0, 1.0, 1.0),
            weight=9,
        )
        problem = TradeoffProblem(channels=[channel], target=50.0)
        bracket = HoneycombSolver().solve_bracketing(problem)
        # From 9 x level 0 (cost 900): all 9 move to level 1 (cost 225),
        # then ceil(175 / 24) = 8 of them on to level 2 (cost 33).
        assert bracket.upper.levels == {"sat": 1}
        assert bracket.upper.cost == 225.0
        assert bracket.upper.objective == 36.0
        assert bracket.lower.levels == {"sat": 2}
        assert bracket.lower.cost == 33.0
        assert bracket.lower.objective == 132.0
        split = bracket.lower.splits["sat"]
        assert (split.level_low, split.count_low) == (2, 8)
        assert (split.level_high, split.count_high) == (1, 1)
        assert bracket.lambda_star == 12.0 / 24.0
        assert bracket.iterations == 2


class TestWeightedClusters:
    def test_cluster_behaves_like_identical_channels(self):
        """A weight-w entry must give the same aggregate as w copies."""
        solver = HoneycombSolver()
        single = corona_like_channel("x", 10.0, 2.0)
        cluster_problem = TradeoffProblem(
            channels=[
                ChannelTradeoff(
                    key="cluster",
                    levels=single.levels,
                    f=single.f,
                    g=single.g,
                    weight=7,
                )
            ],
            target=700.0,
        )
        copies_problem = TradeoffProblem(
            channels=[
                ChannelTradeoff(
                    key=f"copy{i}",
                    levels=single.levels,
                    f=single.f,
                    g=single.g,
                )
                for i in range(7)
            ],
            target=700.0,
        )
        clustered = solver.solve(cluster_problem)
        individual = solver.solve(copies_problem)
        assert abs(clustered.cost - individual.cost) < 1e-9
        assert abs(clustered.objective - individual.objective) < 1e-9

    def test_split_cluster_counts_add_up(self):
        solver = HoneycombSolver()
        problem = TradeoffProblem(
            channels=[
                ChannelTradeoff(
                    key="c",
                    levels=(0, 1, 2),
                    f=(1.0, 4.0, 16.0),
                    g=(100.0, 25.0, 6.25),
                    weight=10,
                )
            ],
            target=400.0,
        )
        solution = solver.solve(problem)
        assert solution.feasible
        split = solution.splits.get("c")
        assert split is not None
        assert split.count_low + split.count_high == 10
        assert split.count_low > 0 and split.count_high > 0

    def test_partial_split_exactly_meets_budget(self):
        """The final partial move stops as soon as feasibility holds
        (the one-channel granularity of the accuracy guarantee)."""
        solver = HoneycombSolver()
        problem = TradeoffProblem(
            channels=[
                ChannelTradeoff(
                    key="c",
                    levels=(0, 1),
                    f=(0.0, 1.0),
                    g=(10.0, 0.0),
                    weight=100,
                )
            ],
            target=505.0,
        )
        solution = solver.solve(problem)
        # 100 members at g=10 cost 1000; need to move 50 to reach 500.
        assert solution.cost <= 505.0
        assert solution.cost > 505.0 - 10.0 - 1e-9


class TestDegenerateCases:
    def test_empty_problem(self):
        solution = HoneycombSolver().solve(TradeoffProblem(target=5.0))
        assert solution.feasible
        assert solution.levels == {}

    def test_unconstrained_optimum_when_budget_ample(self):
        channel = corona_like_channel("x", 5.0, 1.0)
        problem = TradeoffProblem(channels=[channel], target=1e9)
        solution = HoneycombSolver().solve(problem)
        assert solution.levels["x"] == 0  # min f sits at level 0
        assert solution.objective == channel.f[0]

    def test_infeasible_flagged(self):
        channel = corona_like_channel("x", 5.0, 1.0)
        # Even the cheapest corner costs more than the target.
        problem = TradeoffProblem(channels=[channel], target=0.01)
        solution = HoneycombSolver().solve(problem)
        assert not solution.feasible
        assert solution.levels["x"] == channel.levels[-1]

    def test_single_level_channel_is_fixed_cost(self):
        fixed = ChannelTradeoff(key="o", levels=(3,), f=(9.0,), g=(1.0,))
        flexible = corona_like_channel("x", 5.0, 1.0)
        problem = TradeoffProblem(channels=[fixed, flexible], target=30.0)
        solution = HoneycombSolver().solve(problem)
        assert solution.levels["o"] == 3

    def test_iterations_logarithmic(self):
        """The bracketing search runs in O(log(M log N)) probes."""
        channels = [
            corona_like_channel(i, 1.0 + i % 17, 1.0 + i % 5)
            for i in range(2000)
        ]
        problem = TradeoffProblem(channels=channels, target=50_000.0)
        bracket = HoneycombSolver().solve_bracketing(problem)
        assert bracket.iterations <= 20


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=1e4),
            st.floats(min_value=0.1, max_value=1e3),
        ),
        min_size=1,
        max_size=12,
    ),
    st.floats(min_value=1.0, max_value=1e5),
)
@settings(max_examples=60, deadline=None)
def test_solution_always_respects_monotone_structure(params, target):
    """Property: the returned assignment is always a valid level per
    channel, cost is consistent with the assignment, and feasibility is
    reported truthfully."""
    channels = [
        corona_like_channel(index, q, s) for index, (q, s) in enumerate(params)
    ]
    problem = TradeoffProblem(channels=channels, target=target)
    problem.validate()
    solution = HoneycombSolver().solve(problem)
    recomputed_cost = 0.0
    recomputed_objective = 0.0
    for channel in channels:
        level = solution.levels[channel.key]
        assert level in channel.levels
        index = channel.levels.index(level)
        recomputed_cost += channel.g[index]
        recomputed_objective += channel.f[index]
    assert abs(recomputed_cost - solution.cost) < 1e-6 * max(
        1.0, abs(solution.cost)
    )
    assert solution.feasible == (solution.cost <= target + 1e-9)


def test_solver_module_imports_no_numpy():
    """The kernel is pure Python on purpose: at the sizes managers pose
    (a handful of entries) plain loops beat array set-up.  Bringing a
    vectorized path back is a decision to make with measurements (see
    README's solver bullet), not a drift."""
    tree = ast.parse(Path(solver_module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    assert not {name for name in imported if name.split(".")[0] == "numpy"}
