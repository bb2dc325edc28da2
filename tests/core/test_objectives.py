"""Table 1's optimization schemes encoded as tradeoff functions."""

import math

import pytest

from repro.core.config import CoronaConfig
from repro.core.objectives import (
    ProblemInputs,
    Scheme,
    binning_ratio,
    build_problem,
    constraint_target,
    detection_time,
    fairness_weight,
    scheme_by_name,
    wedge_size,
)
from repro.honeycomb.clusters import ChannelFactors


def factors(q=10.0, s=1000.0, u=3600.0) -> ChannelFactors:
    return ChannelFactors(subscribers=q, size=s, update_interval=u)


def build_tradeoff(scheme, key, factors, config, n_nodes, levels):
    """One channel's curves, as :func:`build_problem` poses them."""
    inputs = ProblemInputs(
        total_subscriptions=factors.subscribers,
        orphan_load=0.0,
        orphan_latency=0.0,
    )
    problem = build_problem(
        scheme, config, n_nodes, [(key, factors, tuple(levels), 1)], inputs
    )
    (tradeoff,) = problem.channels
    return tradeoff


class TestAnalyticEstimates:
    def test_detection_time_formula(self):
        """τ/2 · b^l / N — §3.1's estimate."""
        assert detection_time(0, 1800, 1024, 16) == pytest.approx(
            1800 / 2 / 1024
        )
        assert detection_time(1, 1800, 1024, 16) == pytest.approx(
            1800 / 2 / 64
        )
        assert detection_time(3, 1800, 1024, 16) == pytest.approx(900.0)

    def test_wedge_size_is_the_server_load(self):
        """N/b^l pollers, one poll each per τ."""
        assert wedge_size(1, 1024, 16) == 64.0

    def test_wedge_size_floors_at_one(self):
        assert wedge_size(10, 1024, 16) == 1.0

    def test_scheme_by_name(self):
        assert scheme_by_name("fair-sqrt") is Scheme.FAIR_SQRT
        with pytest.raises(ValueError):
            scheme_by_name("warp")


class TestFairnessWeights:
    def test_fair_is_linear_ratio(self):
        assert fairness_weight(Scheme.FAIR, 1800, 3600) == pytest.approx(0.5)

    def test_sqrt_dampens(self):
        linear = fairness_weight(Scheme.FAIR, 1800, 7 * 24 * 3600)
        damped = fairness_weight(Scheme.FAIR_SQRT, 1800, 7 * 24 * 3600)
        assert damped == pytest.approx(math.sqrt(linear))
        assert damped > linear  # ratios < 1 are lifted toward 1

    def test_log_weight(self):
        weight = fairness_weight(Scheme.FAIR_LOG, 1800, 3600 * 24)
        assert weight == pytest.approx(math.log(1800) / math.log(3600 * 24))

    def test_lite_weight_is_one(self):
        assert fairness_weight(Scheme.LITE, 1800, 12345) == 1.0

    def test_ordering_of_dampened_weights(self):
        """For slow channels (u >> τ): fair < sqrt < log-ish ≈ lite —
        the dampening hierarchy that fixes Fair's bias (§3.1)."""
        u = 7 * 24 * 3600
        fair = fairness_weight(Scheme.FAIR, 1800, u)
        sqrt = fairness_weight(Scheme.FAIR_SQRT, 1800, u)
        lite = fairness_weight(Scheme.LITE, 1800, u)
        assert fair < sqrt < lite


class TestTradeoffConstruction:
    def test_lite_f_increasing_g_decreasing(self):
        config = CoronaConfig(scheme="lite")
        tradeoff = build_tradeoff(
            Scheme.LITE, "c", factors(), config, 1024, range(4)
        )
        assert list(tradeoff.f) == sorted(tradeoff.f)
        assert list(tradeoff.g) == sorted(tradeoff.g, reverse=True)
        assert tradeoff.is_monotonic()

    def test_fast_swaps_roles(self):
        config = CoronaConfig(scheme="fast")
        tradeoff = build_tradeoff(
            Scheme.FAST, "c", factors(), config, 1024, range(4)
        )
        assert list(tradeoff.f) == sorted(tradeoff.f, reverse=True)
        assert list(tradeoff.g) == sorted(tradeoff.g)

    def test_fair_scales_f_by_ratio(self):
        config = CoronaConfig(scheme="fair")
        lite = build_tradeoff(
            Scheme.LITE, "c", factors(u=1800.0), config, 1024, range(4)
        )
        fair = build_tradeoff(
            Scheme.FAIR, "c", factors(u=1800.0), config, 1024, range(4)
        )
        # u == tau makes the fair weight exactly 1.
        assert fair.f == lite.f

    def test_subscriber_weighting(self):
        config = CoronaConfig(scheme="lite")
        one = build_tradeoff(
            Scheme.LITE, "c", factors(q=1), config, 1024, range(4)
        )
        ten = build_tradeoff(
            Scheme.LITE, "c", factors(q=10), config, 1024, range(4)
        )
        assert ten.f == tuple(10 * value for value in one.f)
        assert ten.g == one.g  # load independent of subscribers


class TestTargets:
    def test_lite_target_is_legacy_load(self):
        config = CoronaConfig(scheme="lite")
        inputs = ProblemInputs(
            total_subscriptions=1000.0,
            orphan_load=10.0,
            orphan_latency=0.0,
        )
        assert constraint_target(Scheme.LITE, config, inputs) == 990.0

    def test_fast_target_scales_with_latency(self):
        config = CoronaConfig(scheme="fast", latency_target=30.0)
        inputs = ProblemInputs(
            total_subscriptions=1000.0,
            orphan_load=0.0,
            orphan_latency=500.0,
        )
        assert constraint_target(Scheme.FAST, config, inputs) == (
            30.0 * 1000.0 - 500.0
        )

    def test_target_never_negative(self):
        config = CoronaConfig(scheme="lite")
        inputs = ProblemInputs(
            total_subscriptions=5.0,
            orphan_load=100.0,
            orphan_latency=0.0,
        )
        assert constraint_target(Scheme.LITE, config, inputs) == 0.0


class TestBuildProblem:
    def test_problem_solvable_and_feasible(self):
        config = CoronaConfig(scheme="lite")
        entries = [
            (f"c{i}", factors(q=float(100 - i)), range(4), 1)
            for i in range(20)
        ]
        inputs = ProblemInputs(
            total_subscriptions=sum(100.0 - i for i in range(20)),
            orphan_load=0.0,
            orphan_latency=0.0,
        )
        problem = build_problem(Scheme.LITE, config, 1024, entries, inputs)
        from repro.honeycomb.solver import HoneycombSolver

        assert all(channel.is_monotonic() for channel in problem.channels)
        solution = HoneycombSolver().solve(problem)
        assert solution.feasible
        # Popular channels must get levels at least as low (more
        # pollers) as unpopular ones.
        levels = [solution.levels[f"c{i}"] for i in range(20)]
        assert levels == sorted(levels)


class TestBinningRatio:
    def test_lite_ratio_is_popularity(self):
        config = CoronaConfig(scheme="lite")
        assert binning_ratio(Scheme.LITE, config, factors(q=42)) == 42.0

    def test_fair_includes_interval(self):
        config = CoronaConfig(scheme="fair")
        fast_channel = binning_ratio(
            Scheme.FAIR, config, factors(q=10, u=600)
        )
        slow_channel = binning_ratio(
            Scheme.FAIR, config, factors(q=10, u=604800)
        )
        assert fast_channel > slow_channel
