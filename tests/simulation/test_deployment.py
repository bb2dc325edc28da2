"""Deployment simulator: the full protocol under the event clock."""

import numpy as np
import pytest

from repro.core.config import CoronaConfig
from repro.core.system import CoronaSystem
from repro.simulation.deployment import DeploymentSimulator, ProtocolLoop
from repro.simulation.latency import LatencyModel
from repro.simulation.webserver import WebServerFarm
from repro.workload.trace import generate_trace


@pytest.fixture(scope="module")
def deployment_result():
    trace = generate_trace(
        n_channels=120,
        n_subscriptions=1200,
        seed=23,
        subscription_window=900.0,
    )
    config = CoronaConfig(
        polling_interval=900.0, maintenance_interval=900.0, base=4
    )
    sim = DeploymentSimulator(
        trace,
        config,
        n_nodes=24,
        seed=6,
        horizon=2 * 3600.0,
        bucket_width=900.0,
    )
    return sim.run(), trace, config


class TestDeployment:
    def test_detections_happen(self, deployment_result):
        result, _, _ = deployment_result
        assert result.detections > 0

    def test_corona_faster_than_legacy(self, deployment_result):
        """Figure 9's shape: Corona's detection time sits well below
        the legacy τ/2."""
        result, _, _ = deployment_result
        steady = np.nanmean(result.detection_times[len(result.detection_times) // 2 :])
        assert steady < result.legacy_detection_time * 0.7

    def test_load_bounded_near_legacy(self, deployment_result):
        """Figure 10's shape: total polls/min at or below the legacy
        level (generous tolerance for small-N level granularity)."""
        result, _, _ = deployment_result
        steady = result.corona_polls_per_min[-2:].mean()
        assert steady <= result.legacy_polls_per_min * 1.8

    def test_poll_accounting_consistent(self, deployment_result):
        result, _, _ = deployment_result
        assert result.total_polls > 0
        assert result.final_poll_tasks > 0

    def test_redundant_diffs_minority(self, deployment_result):
        result, _, _ = deployment_result
        assert result.redundant_diffs <= max(10, result.detections)

    def test_requires_timed_trace(self):
        trace = generate_trace(n_channels=10, n_subscriptions=20, seed=1)
        with pytest.raises(ValueError):
            DeploymentSimulator(trace, CoronaConfig(), n_nodes=4)


class TestSharedLoopHooks:
    """The timeline and latency seams of the loop every driver runs."""

    @staticmethod
    def _simulator():
        trace = generate_trace(
            n_channels=20,
            n_subscriptions=120,
            seed=3,
            subscription_window=600.0,
        )
        config = CoronaConfig(
            polling_interval=600.0, maintenance_interval=600.0, base=4
        )
        return DeploymentSimulator(
            trace,
            config,
            n_nodes=12,
            seed=2,
            horizon=3600.0,
            bucket_width=600.0,
        )

    def test_timeline_events_run_against_the_system(self):
        sim = self._simulator()
        observed = []

        def crash_two(now):
            observed.append((now, len(sim.system.nodes)))
            sim.system.crash_nodes(2, now=now)

        sim.loop.engine.schedule(1800.0, crash_two)
        sim.run()
        assert observed == [(1800.0, 12)]
        assert len(sim.system.nodes) == 10
        assert sim.system.counters.crashes == 2

    def test_loop_latency_model_is_used(self):
        fast_run = self._simulator().run()
        slow = self._simulator()
        slow.loop.latency.degrade(1000.0)
        slow_run = slow.run()
        # protocol behaviour is identical; measured end-to-end
        # freshness absorbs the injected dissemination latency
        assert slow_run.detections == fast_run.detections
        assert slow_run.mean_detection_time > fast_run.mean_detection_time


class TestProtocolLoop:
    def test_same_time_events_fire_in_loop_order(self, monkeypatch):
        """At one instant: subscription, then the caller's timeline,
        then the maintenance round, then the poll round."""
        trace = generate_trace(
            n_channels=4, n_subscriptions=8, seed=1, subscription_window=1.0
        )
        # One arrival exactly on the first maintenance round (half an
        # interval in), which is also a poll tick.
        trace.events = [(300.0, "client-0", 0)]
        farm = WebServerFarm(seed=1)
        for url in trace.urls:
            farm.host(url, update_interval=600.0, target_bytes=200)
        config = CoronaConfig(
            polling_interval=600.0, maintenance_interval=600.0, base=4
        )
        system = CoronaSystem(n_nodes=6, config=config, fetcher=farm, seed=1)
        fired = []

        def recording(name, method):
            # Every recorded call passes the sim time last.
            def record(*args):
                fired.append((args[-1], name))
                return method(*args)

            return record

        for name in ("subscribe", "run_maintenance_round", "poll_due"):
            monkeypatch.setattr(
                system, name, recording(name, getattr(system, name))
            )
        loop = ProtocolLoop(
            system, farm, trace, LatencyModel(seed=1), bucket_width=600.0
        )
        loop.engine.schedule(300.0, lambda now: fired.append((now, "timeline")))
        loop.run(horizon=300.0, poll_tick=30.0)
        assert [name for when, name in fired if when == 300.0] == [
            "subscribe",
            "timeline",
            "run_maintenance_round",
            "poll_due",
        ]
