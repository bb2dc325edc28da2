"""Macro simulator: the §5.1 behaviours at reduced scale."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import SCHEME_NAMES, CoronaConfig
from repro.overlay.network import OverlayNetwork
from repro.simulation import macro
from repro.simulation.macro import MacroSimulator, draw_updates, run_legacy
from repro.workload.trace import generate_trace
from tests.core.test_golden_optimization_rounds import (
    GOLDEN_PATH,
    MACRO_SIZES,
    _digest,
    _round_digest,
)


@pytest.fixture(scope="module")
def small_trace():
    return generate_trace(n_channels=600, n_subscriptions=30_000, seed=15)


@pytest.fixture(scope="module")
def lite_result(small_trace):
    sim = MacroSimulator(
        small_trace,
        CoronaConfig(scheme="lite"),
        n_nodes=128,
        seed=8,
        horizon=6 * 3600.0,
        bucket_width=1800.0,
    )
    return sim.run()


@pytest.fixture(scope="module")
def legacy_result(small_trace):
    return run_legacy(
        small_trace, CoronaConfig(), horizon=6 * 3600.0, bucket_width=1800.0,
        seed=8,
    )


class TestLite:
    def test_load_converges_to_legacy_budget(self, lite_result, small_trace):
        """Figure 3's headline: Corona-Lite settles at the legacy load."""
        target_per_min = small_trace.subscribers.sum() / 1800.0 * 60.0
        steady = lite_result.polls_per_min[-3:].mean()
        assert steady == pytest.approx(target_per_min, rel=0.10)

    def test_detection_beats_legacy_by_an_order_of_magnitude(
        self, lite_result, legacy_result
    ):
        """Figure 4 / Table 2: ~15x at paper scale; at least 5x here."""
        assert lite_result.analytic_weighted_delay * 5 < (
            legacy_result.analytic_weighted_delay
        )

    def test_levels_respect_popularity_in_aggregate(self, lite_result):
        """Figure 5's shape: the popular half of channels polls at
        levels no higher (on average) than the unpopular half."""
        half = len(lite_result.final_levels) // 2
        popular = lite_result.final_levels[:half].mean()
        unpopular = lite_result.final_levels[half:].mean()
        assert popular <= unpopular + 0.1

    def test_orphans_stay_owner_only(self, lite_result, small_trace):
        sim_levels = lite_result.final_levels
        assert lite_result.orphan_count >= 0
        # All channels at the max level have exactly one poller.
        max_level = sim_levels.max()
        at_max = sim_levels == max_level
        if at_max.any():
            assert (lite_result.final_pollers[at_max] >= 1).all()

    def test_detection_series_decreases_from_start(self, lite_result):
        """Convergence transient: early buckets slower than steady state."""
        series = lite_result.analytic_series
        assert series[0] > series[-1]

    def test_measured_delays_positive_and_bounded(self, lite_result):
        delays = lite_result.per_channel_delay
        seen = delays[~np.isnan(delays)]
        assert (seen >= 0).all()
        assert (seen <= 1800.0).all()


class TestLegacyBaseline:
    def test_legacy_load_flat_at_subscriptions(self, legacy_result, small_trace):
        expected = small_trace.subscribers.sum() / 1800.0 * 60.0
        assert np.allclose(legacy_result.polls_per_min, expected)

    def test_legacy_detection_near_half_tau(self, legacy_result):
        assert legacy_result.mean_weighted_delay == pytest.approx(
            900.0, rel=0.1
        )

    def test_legacy_pollers_equal_subscribers(self, legacy_result, small_trace):
        assert (
            legacy_result.final_pollers == small_trace.subscribers
        ).all()

    @staticmethod
    def _update_counts(small_trace) -> np.ndarray:
        """Updates per channel: run_legacy draws its schedule first
        from ``default_rng(seed)``, so the same draw replays it."""
        _times, channels = draw_updates(
            small_trace.update_intervals, 6 * 3600.0,
            np.random.default_rng(8),
        )
        return np.bincount(channels, minlength=small_trace.n_channels)

    def test_legacy_channel_delays_within_one_interval(
        self, legacy_result, small_trace
    ):
        """Every measured per-channel delay lies in [0, τ]; a channel
        is unmeasured (NaN) exactly when it never updated."""
        delays = legacy_result.per_channel_delay
        updated = self._update_counts(small_trace) > 0
        assert (np.isnan(delays) == ~updated).all()
        assert (delays[updated] >= 0.0).all()
        assert (delays[updated] <= 1800.0).all()

    def test_legacy_rarely_updated_channels_scatter_around_half_tau(
        self, legacy_result, small_trace
    ):
        """Figures 6 and 7: a channel measured over one or two
        updates shows the raw U(0, τ) scatter around τ/2 (standard
        deviation τ/√12 for one update, τ/√24 for two), not τ/2
        itself."""
        counts = self._update_counts(small_trace)
        few = (counts >= 1) & (counts <= 2)
        assert few.sum() >= 30
        delays = legacy_result.per_channel_delay[few]
        assert delays.mean() == pytest.approx(900.0, rel=0.2)
        assert delays.std() > 1800.0 / 6


class TestFastScheme:
    def test_fast_meets_latency_target(self, small_trace):
        config = CoronaConfig(scheme="fast", latency_target=60.0)
        sim = MacroSimulator(
            small_trace, config, n_nodes=128, seed=8,
            horizon=4 * 3600.0, bucket_width=1800.0,
        )
        result = sim.run()
        assert result.analytic_weighted_delay == pytest.approx(
            60.0, rel=0.35
        )

    def test_fast_pays_more_load_than_lite(self, small_trace, lite_result):
        config = CoronaConfig(scheme="fast", latency_target=30.0)
        sim = MacroSimulator(
            small_trace, config, n_nodes=128, seed=8,
            horizon=4 * 3600.0, bucket_width=1800.0,
        )
        result = sim.run()
        assert result.analytic_weighted_delay < (
            lite_result.analytic_weighted_delay
        )
        assert result.polls_per_min[-1] > lite_result.polls_per_min[-1]


class TestFairFamily:
    def test_fair_orders_latency_by_update_interval(self, small_trace):
        """Figure 7: under Fair, rapidly-changing channels get faster
        detection; correlation between interval and latency holds."""
        from repro.analysis.stats import rank_correlation

        config = CoronaConfig(scheme="fair")
        sim = MacroSimulator(
            small_trace, config, n_nodes=128, seed=8,
            horizon=4 * 3600.0, bucket_width=1800.0,
        )
        result = sim.run()
        analytic_latency = 900.0 / result.final_pollers
        correlation = rank_correlation(
            small_trace.update_intervals, analytic_latency
        )
        assert correlation > 0.2


class TestSharedWorld:
    """Simulators of one ``(trace, n_nodes, seed, base, horizon)`` share
    a :class:`MacroWorld`; sharing must change no result."""

    @staticmethod
    def _fresh(monkeypatch) -> None:
        monkeypatch.setattr(macro, "_last_world", None)

    @staticmethod
    def _bits(result) -> dict:
        """Every field of a result as bytes: equal means bit-identical."""
        return {
            name: (
                value.tobytes() if isinstance(value, np.ndarray)
                else repr(value).encode()
            )
            for name, value in vars(result).items()
        }

    @staticmethod
    def _recording(rounds: list):
        class Recording(MacroSimulator):
            def _run_control_round(self) -> None:
                super()._run_control_round()
                rounds.append(_round_digest(self.nodes))

        return Recording

    def _five(self, trace, n_nodes, order, monkeypatch):
        """Per scheme: the recorded golden case and the result bytes.

        ``all-then-run`` builds every scheme before running any (the
        e2e child); ``per-scheme`` builds and runs one at a time
        (``repro table2``); ``fresh`` drops the world before each
        build.
        """
        recordings = {scheme: [] for scheme in SCHEME_NAMES}

        def build(scheme):
            if order == "fresh":
                self._fresh(monkeypatch)
            return self._recording(recordings[scheme])(
                trace,
                CoronaConfig(scheme=scheme, polling_interval=1800.0),
                n_nodes=n_nodes,
                seed=7,
                horizon=6 * 3600.0,
            )

        if order == "all-then-run":
            simulators = [build(scheme) for scheme in SCHEME_NAMES]
            results = [simulator.run() for simulator in simulators]
        else:
            results = [build(scheme).run() for scheme in SCHEME_NAMES]
        return {
            scheme: (
                {
                    "rounds": recordings[scheme],
                    "final_levels": _digest(
                        [int(level) for level in result.final_levels]
                    ),
                },
                self._bits(result),
            )
            for scheme, result in zip(SCHEME_NAMES, results)
        }

    @pytest.mark.parametrize("size", sorted(MACRO_SIZES))
    def test_shared_worlds_replay_the_golden_rounds_bit_for_bit(
        self, size, monkeypatch
    ):
        n_channels, n_subscriptions, n_nodes = MACRO_SIZES[size]
        trace = generate_trace(
            n_channels=n_channels, n_subscriptions=n_subscriptions, seed=7
        )
        golden = json.loads(GOLDEN_PATH.read_text())
        fresh = self._five(trace, n_nodes, "fresh", monkeypatch)
        for order in ("all-then-run", "per-scheme"):
            self._fresh(monkeypatch)
            shared = self._five(trace, n_nodes, order, monkeypatch)
            for scheme in SCHEME_NAMES:
                recorded, bits = shared[scheme]
                assert recorded == golden[f"macro-{size}-{scheme}"], order
                assert bits == fresh[scheme][1], (order, scheme)

    def test_one_overlay_build_per_world(self, small_trace, monkeypatch):
        builds = []
        build = OverlayNetwork.build

        def counting(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        self._fresh(monkeypatch)
        monkeypatch.setattr(OverlayNetwork, "build", counting)
        simulators = [
            MacroSimulator(
                small_trace, CoronaConfig(scheme=scheme), n_nodes=64, seed=8
            )
            for scheme in SCHEME_NAMES
        ]
        assert len(builds) == 1
        assert len({id(simulator.world) for simulator in simulators}) == 1
        MacroSimulator(
            small_trace, CoronaConfig(scheme="lite"), n_nodes=65, seed=8
        )
        assert len(builds) == 2

    def test_every_simulator_resumes_the_generator_after_the_updates(
        self, small_trace, monkeypatch
    ):
        """``run()`` draws its delays from ``default_rng(seed)`` right
        after the update schedule, whether the world is new or not."""
        rng = np.random.default_rng(8)
        times, channels = draw_updates(
            small_trace.update_intervals, 6 * 3600.0, rng
        )
        self._fresh(monkeypatch)
        for scheme in ("lite", "fair"):
            simulator = MacroSimulator(
                small_trace, CoronaConfig(scheme=scheme), n_nodes=64, seed=8
            )
            assert simulator.rng.bit_generator.state == rng.bit_generator.state
            assert np.array_equal(simulator.world.update_times, times)
            assert np.array_equal(simulator.world.update_channels, channels)

    def test_shared_arrays_are_read_only(self, small_trace):
        world = MacroSimulator(
            small_trace, CoronaConfig(), n_nodes=64, seed=8
        ).world
        for name in (
            "wedge_sizes", "anchor_prefix", "orphan",
            "update_times", "update_channels",
        ):
            array = getattr(world, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array[0] = 0

    @pytest.mark.parametrize("field", ["update_intervals", "urls"])
    def test_a_trace_mutated_in_place_gets_a_fresh_world(
        self, field, monkeypatch
    ):
        trace = generate_trace(n_channels=200, n_subscriptions=5000, seed=3)

        def build():
            return MacroSimulator(
                trace, CoronaConfig(), n_nodes=32, seed=1,
                horizon=2 * 3600.0,
            ).world

        before = build()
        assert build() is before
        if field == "update_intervals":
            trace.update_intervals[:] = trace.update_intervals.min()
        else:
            trace.urls[:] = [f"{url}#moved" for url in trace.urls]
        after = build()
        assert after is not before
        self._fresh(monkeypatch)
        rebuilt = build()
        for name in ("wedge_sizes", "anchor_prefix", "update_times",
                     "update_channels"):
            assert np.array_equal(getattr(after, name), getattr(rebuilt, name))
        assert after.managers == rebuilt.managers
        if field == "update_intervals":
            assert not np.array_equal(before.update_times, after.update_times)
        else:
            assert before.channel_ids != after.channel_ids


def test_table2_at_cli_defaults_replays_the_recorded_table(capsys):
    """``repro table2`` with no options prints the recorded table."""
    assert main(["table2"]) == 0
    golden = Path(__file__).parent / "golden" / "table2_default.txt"
    assert capsys.readouterr().out == golden.read_text()
