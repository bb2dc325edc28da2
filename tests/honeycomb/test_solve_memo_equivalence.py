"""Solve-memo property suite: memoized optimization == eager re-solve.

``memo_solve`` makes the optimization phase delta-driven at three
layers — a whole-phase fingerprint skip per manager, a round-scoped
shared-solution cache across managers, and an input-hash memo inside
the solver.  None of them may change a single bit of any output: a
memo hit must replay exactly what a re-solve would compute, and a full
system driven with ``memo_solve=True`` must produce the same channel
levels, counters and aggregation states as the eager reference under
any interleaving of steady state, heavy churn and flash crowds
(mirroring ``test_delta_rounds.py``'s proof obligation for the
aggregation phase).  Only the ``solver_work`` counters may differ —
they report how the phase was executed.  What the solver itself
answers is pinned by ``test_golden_solver.py``.
"""

import random

import pytest

from repro.core.config import CoronaConfig
from repro.core.node import CoronaNode
from repro.core.system import CoronaSystem
from repro.honeycomb.clusters import ChannelFactors, ClusterSummary
from repro.honeycomb.problem import ChannelTradeoff, TradeoffProblem
from repro.honeycomb.solver import HoneycombSolver, SolverWork
from repro.overlay.hashing import channel_id
from repro.scenarios.runner import ScenarioRunner
from repro.simulation.webserver import WebServerFarm
from tests.scenarios.conftest import tiny_spec


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


def assert_solution_identical(left, right):
    """Exact (bitwise) equality of two solutions."""
    assert left.levels == right.levels
    assert left.objective == right.objective
    assert left.cost == right.cost
    assert left.feasible == right.feasible
    assert set(left.splits) == set(right.splits)
    for key in left.splits:
        mine, theirs = left.splits[key], right.splits[key]
        assert (
            mine.level_low,
            mine.count_low,
            mine.level_high,
            mine.count_high,
            mine.f_low,
            mine.f_high,
        ) == (
            theirs.level_low,
            theirs.count_low,
            theirs.level_high,
            theirs.count_high,
            theirs.f_low,
            theirs.f_high,
        )


def assert_bracket_identical(left, right):
    assert_solution_identical(left.lower, right.lower)
    assert_solution_identical(left.upper, right.upper)
    assert left.lambda_star == right.lambda_star
    assert left.iterations == right.iterations


class TestSolverMemo:
    """The input-hash LRU inside HoneycombSolver."""

    def test_memo_hit_replays_the_exact_solution(self):
        solver = HoneycombSolver(memo_solve=True)
        problem = TradeoffProblem(
            channels=[corona_like_channel("x", 10.0, 2.0, weight=7)],
            target=300.0,
        )
        first = solver.solve_bracketing(problem)
        second = solver.solve_bracketing(problem)
        assert solver.work.problems_solved == 1
        assert solver.work.memo_hits == 1
        assert_bracket_identical(first, second)
        # Hits hand out independent copies: mutating one result must
        # not poison the cache.
        second.lower.levels["x"] = -99
        third = solver.solve_bracketing(problem)
        assert_bracket_identical(first, third)

    def test_memo_capacity_is_bounded(self):
        solver = HoneycombSolver(memo_solve=True, memo_capacity=4)
        for index in range(10):
            problem = TradeoffProblem(
                channels=[corona_like_channel(index, 1.0 + index, 2.0)],
                target=100.0,
            )
            solver.solve_bracketing(problem)
        assert len(solver._memo) == 4
        assert solver.work.problems_solved == 10

    def test_memo_off_always_solves(self):
        solver = HoneycombSolver(memo_solve=False)
        problem = TradeoffProblem(
            channels=[corona_like_channel("x", 10.0, 2.0)], target=300.0
        )
        solver.solve(problem)
        solver.solve(problem)
        assert solver.work.problems_solved == 2
        assert solver.work.memo_hits == 0


def build_node(memo_solve, n_channels=5, work=None):
    # Corona-Fair: the update-interval estimator enters the curves, so
    # estimator movement must invalidate the memo (under Lite + polls
    # the curves ignore u_i and s_i, and an "unchanged problem" memo
    # hit would be the correct behaviour instead).
    config = CoronaConfig(
        polling_interval=60.0, maintenance_interval=120.0, base=4,
        scheme="fair",
    )
    node = CoronaNode(
        channel_id("node-under-test"),
        config,
        memo_solve=memo_solve,
        solver_work=work,
    )
    for rank in range(n_channels):
        url = f"http://memo{rank}.example/rss"
        channel = node.adopt_channel(
            url, max_level=3, anchor_prefix=3, now=0.0
        )
        channel.stats.subscribers = 3 + rank
        channel.stats.content_size = 500 + 100 * rank
    return node


def remote_summary(count=20, bins=16):
    summary = ClusterSummary(bins=bins)
    for rank in range(count):
        summary.add_channel(
            ChannelFactors(
                subscribers=1.0 + rank % 7,
                size=300.0 + 40 * rank,
                update_interval=120.0 * (1 + rank % 5),
            ),
            ratio=float(1 + rank % 9),
        )
    return summary


class TestNodePhaseMemo:
    """The whole-phase fingerprint skip on ``run_optimization``."""

    def test_unchanged_inputs_skip_and_replay(self):
        node = build_node(memo_solve=True)
        remote = remote_summary()
        first = node.run_optimization(remote, n_nodes=64)
        solved = node.solver.work.problems_solved
        second = node.run_optimization(remote, n_nodes=64)
        assert second == first
        assert node.solver.work.problems_solved == solved
        assert node.solver.work.memo_hits >= 1
        # The controller still holds every target.
        for url, want in first.items():
            assert node.controller.desired[url] == want

    def test_matches_eager_node_bit_for_bit(self):
        memo = build_node(memo_solve=True)
        eager = build_node(memo_solve=False)
        remote = remote_summary()
        for _ in range(4):
            assert memo.run_optimization(remote, 64) == (
                eager.run_optimization(remote, 64)
            )
        assert eager.solver.work.memo_hits == 0

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda node, remote: setattr(
                node.managed["http://memo0.example/rss"].stats,
                "subscribers",
                999,
            ),
            lambda node, remote: (
                node.managed["http://memo0.example/rss"].stats.record_update(
                    500.0, 4096
                ),
                node.managed["http://memo0.example/rss"].stats.record_update(
                    560.0, 4096
                ),
            ),
            lambda node, remote: remote.add_channel(
                ChannelFactors(
                    subscribers=50.0,
                    size=100.0,
                    update_interval=60.0,
                ),
                ratio=3.0,
            ),
        ],
        ids=["own-subscribers", "own-estimators", "remote-summary"],
    )
    def test_any_moved_input_invalidates(self, mutate):
        node = build_node(memo_solve=True)
        remote = remote_summary()
        node.run_optimization(remote, 64)
        solved = node.solver.work.problems_solved
        mutate(node, remote)
        node.run_optimization(remote, 64)
        assert node.solver.work.problems_solved == solved + 1

    def test_population_change_invalidates(self):
        node = build_node(memo_solve=True)
        remote = remote_summary()
        node.run_optimization(remote, 64)
        solved = node.solver.work.problems_solved
        node.run_optimization(remote, 128)  # n_nodes moved
        assert node.solver.work.problems_solved == solved + 1

    def test_shared_cache_collides_identical_managers(self):
        """Two managers with identical contributions share one solve."""
        work = SolverWork()
        first = build_node(memo_solve=True, work=work)
        second = build_node(memo_solve=True, work=work)
        remote = remote_summary()
        cache: dict = {}
        a = first.run_optimization(remote, 64, solve_cache=cache)
        b = second.run_optimization(remote, 64, solve_cache=cache)
        assert a == b
        assert len(cache) == 1
        assert work.problems_solved == 1
        assert work.shared_hits == 1
        # Cache entries never alias a consumer's solution: poisoning a
        # handed-out copy must not leak to later colliding managers.
        third = build_node(memo_solve=True, work=work)
        entry = next(iter(cache.values()))
        handed_out = entry.copy()
        handed_out.levels.clear()
        assert entry.levels  # the cache entry is untouched
        c = third.run_optimization(remote, 64, solve_cache=cache)
        assert c == a


class TestSystemEquivalence:
    """memo_solve=True vs the eager reference on a full CoronaSystem,
    driven through the same seeded interleaving of churn, crowds,
    polls and maintenance rounds (the shape of
    test_churn_equivalence.TestDeltaEagerSystemEquivalence)."""

    def build(self, memo, seed, fast_config):
        farm = WebServerFarm(seed=seed)
        system = CoronaSystem(
            n_nodes=32,
            config=fast_config,
            fetcher=farm,
            seed=seed,
            memo_solve=memo,
        )
        for rank in range(8):
            url = f"http://solve{rank}.example/rss"
            farm.host(url, update_interval=90.0, target_bytes=400)
        return system, farm

    def drive(self, system, farm, seed, steps=18):
        rng = random.Random(seed)
        client = 0
        now = 0.0
        for url_rank in range(8):
            url = f"http://solve{url_rank}.example/rss"
            for _ in range(4):
                system.subscribe(url, f"c{client}", now=0.0)
                client += 1
        for step in range(steps):
            now += 60.0
            action = rng.random()
            if action < 0.2 and len(system.nodes) > 6:
                system.crash_nodes(
                    rng.randint(1, 2), now=now, rng=rng,
                    target=rng.choice(["any", "managers"]),
                )
            elif action < 0.4:
                system.join_nodes(rng.randint(1, 2), now=now)
            elif action < 0.6:
                url = f"http://solve{rng.randrange(8)}.example/rss"
                for _ in range(rng.randint(5, 15)):
                    system.subscribe(url, f"crowd-{client}", now=now)
                    client += 1
            elif action < 0.7:
                url = f"http://solve{rng.randrange(8)}.example/rss"
                system.unsubscribe(url, f"c{rng.randrange(max(client, 1))}")
            farm.advance_to(now)
            system.poll_due(now)
            if step % 2 == 1:
                system.run_maintenance_round(now)
        return system

    @pytest.mark.parametrize("seed", [51, 52, 53])
    def test_observables_bit_identical(self, seed, fast_config):
        memo_sys, memo_farm = self.build(True, seed, fast_config)
        eager_sys, eager_farm = self.build(False, seed, fast_config)
        self.drive(memo_sys, memo_farm, seed)
        self.drive(eager_sys, eager_farm, seed)
        assert memo_sys.counters == eager_sys.counters
        assert memo_sys.aggregator.states == eager_sys.aggregator.states
        assert (
            memo_sys.aggregator.work.as_dict()
            == eager_sys.aggregator.work.as_dict()
        )
        assert set(memo_sys.managers) == set(eager_sys.managers)
        for url in memo_sys.managers:
            assert memo_sys.channel_level(url) == eager_sys.channel_level(
                url
            ), url
        for node_id, node in memo_sys.nodes.items():
            assert node.controller.desired == (
                eager_sys.nodes[node_id].controller.desired
            )
        assert memo_farm.total_polls == eager_farm.total_polls
        assert memo_farm.total_updates == eager_farm.total_updates
        # The memoized run solved no more (virtually always fewer)
        # instances; the eager reference never reports a hit.
        assert (
            memo_sys.solver_work.problems_solved
            <= eager_sys.solver_work.problems_solved
        )
        assert eager_sys.solver_work.memo_hits == 0
        assert eager_sys.solver_work.shared_hits == 0

    def test_converged_cloud_stops_solving(self, fast_config):
        """Steady state: once levels settle and aggregation quiesces,
        maintenance rounds solve nothing — O(managers) hash checks."""
        system, farm = self.build(True, 77, fast_config)
        client = 0
        for rank in range(8):
            url = f"http://solve{rank}.example/rss"
            for _ in range(4):
                system.subscribe(url, f"c{client}", now=0.0)
                client += 1
        now = 0.0
        for _ in range(12):  # converge levels and horizons
            now += 120.0
            system.run_maintenance_round(now)
        solved = system.solver_work.problems_solved
        hits = system.solver_work.memo_hits
        for _ in range(5):
            now += 120.0
            system.run_maintenance_round(now)
        assert system.solver_work.problems_solved == solved
        assert system.solver_work.memo_hits > hits


class TestScenarioEquivalence:
    """Spec-level: memo_solve flips execution strategy only."""

    SOLVER_KEYS = (
        "solver_work_problems_solved",
        "solver_work_memo_hits",
        "solver_work_shared_hits",
        "solver_work_solve_hits",
    )

    def test_metrics_identical_modulo_solver_work(self):
        memo = ScenarioRunner(tiny_spec(), seed=5).run().to_dict()
        eager = ScenarioRunner(
            tiny_spec(memo_solve=False), seed=5
        ).run().to_dict()
        strip = lambda payload: {
            key: value
            for key, value in payload.items()
            if key not in self.SOLVER_KEYS
        }
        assert strip(memo) == strip(eager)
        assert eager["solver_work_memo_hits"] == 0
        assert eager["solver_work_shared_hits"] == 0
        assert (
            memo["solver_work_problems_solved"]
            <= eager["solver_work_problems_solved"]
        )
        assert (
            memo["solver_work_memo_hits"] + memo["solver_work_shared_hits"]
            > 0
        )
        # The gated aggregate is the conserved sum of the split.
        assert memo["solver_work_solve_hits"] == (
            memo["solver_work_memo_hits"] + memo["solver_work_shared_hits"]
        )

    def test_solver_counters_deterministic(self):
        first = ScenarioRunner(tiny_spec(), seed=9).run().to_dict()
        second = ScenarioRunner(tiny_spec(), seed=9).run().to_dict()
        for key in self.SOLVER_KEYS:
            assert first[key] == second[key]
