"""CoronaSystem integration: the full cloud over simulated servers."""

import statistics

import pytest

from repro.core.system import CoronaSystem


def drive(system, farm, hours, step=30.0, maintenance_every=4):
    """Advance the system clock; returns the final time."""
    now = 0.0
    steps = int(hours * 3600 / step)
    for index in range(steps):
        now += step
        farm.advance_to(now)
        system.poll_due(now)
        if index % maintenance_every == maintenance_every - 1:
            system.run_maintenance_round(now)
    return now


class TestSubscriptionRouting:
    def test_subscription_reaches_anchor(self, small_system):
        url = "http://feed0.example/rss"
        manager = small_system.managers[url]
        assert small_system.nodes[manager].registry.count(url) > 0

    def test_unsubscribe(self, small_system):
        url = "http://feed9.example/rss"
        manager = small_system.managers[url]
        before = small_system.nodes[manager].registry.count(url)
        assert small_system.unsubscribe(url, "client-0") in (True, False)
        # Unknown channel is a no-op.
        assert not small_system.unsubscribe("http://nowhere/", "x")
        after = small_system.nodes[manager].registry.count(url)
        assert after <= before

    def test_channels_start_at_owner_level(self, small_system):
        for rank in range(10):
            url = f"http://feed{rank}.example/rss"
            level = small_system.channel_level(url)
            channel = small_system.channel(url)
            assert level == channel.max_level or channel.is_orphan()


class TestProtocolRounds:
    def test_levels_lower_after_maintenance(self, small_system, small_farm):
        drive(small_system, small_farm, hours=0.5)
        levels = [
            small_system.channel_level(f"http://feed{rank}.example/rss")
            for rank in range(10)
        ]
        assert min(levels) < max(
            small_system.channel(f"http://feed{rank}.example/rss").max_level
            for rank in range(10)
        )

    def test_popular_channels_get_lower_levels(self, small_system, small_farm):
        """Levels (the controlled quantity) must respect popularity;
        realized wedge sizes additionally scatter with the id draw."""
        drive(small_system, small_farm, hours=0.5)
        popular = small_system.channel("http://feed0.example/rss")
        unpopular = small_system.channel("http://feed9.example/rss")
        if popular.is_orphan() or unpopular.is_orphan():
            return  # frozen levels say nothing about popularity
        assert popular.level <= unpopular.level

    def test_detections_flow(self, small_system, small_farm):
        drive(small_system, small_farm, hours=1.0)
        assert small_system.counters.detections > 0
        delays = [
            event.detected_at - event.published_at
            for event in small_system.detections
            if event.published_at is not None
        ]
        assert delays
        # Cooperative polling beats a single poller's expectation τ/2.
        assert statistics.mean(delays) < 30.0 + 15.0

    def test_load_tracks_legacy_budget(self, small_system, small_farm):
        """Corona-Lite's defining property: polls per interval settle
        near (and not far above) the subscription count."""
        drive(small_system, small_farm, hours=1.0)
        total_subs = sum(
            node.registry.total_subscriptions()
            for node in small_system.nodes.values()
        )
        tasks = small_system.total_poll_tasks()
        assert tasks <= total_subs * 1.6
        assert tasks >= 10  # cooperation actually happened

    def test_redundant_diffs_bounded(self, small_system, small_farm):
        """Dedup works: redundant diffs stay a small fraction of
        accepted detections."""
        drive(small_system, small_farm, hours=1.0)
        redundant = sum(
            node.redundant_diffs for node in small_system.nodes.values()
        )
        assert redundant <= small_system.counters.detections


class TestNotifierIntegration:
    def test_im_gateway_receives_updates(self, fast_config, small_farm):
        from repro.diffengine.differ import Diff
        from repro.im.gateway import ImGateway
        from repro.im.messages import Notification
        from repro.im.service import SimIMService

        service = SimIMService()
        gateway = ImGateway(service=service)
        service.register("alice")
        service.connect("alice")

        def notifier(url, subscribers, diff: Diff, now: float) -> None:
            for client in subscribers:
                gateway.notify(
                    client,
                    Notification(
                        url=url,
                        version=diff.new_version,
                        summary=diff.render(),
                        detected_at=now,
                    ),
                    now,
                )

        system = CoronaSystem(
            n_nodes=16,
            config=fast_config,
            fetcher=small_farm,
            seed=77,
            notifier=notifier,
        )
        system.subscribe("http://feed0.example/rss", "alice", now=0.0)
        drive(system, small_farm, hours=0.5)
        assert service.inbox("alice")
        assert "[corona] update" in service.inbox("alice")[0].body


class TestValidation:
    def test_zero_nodes_rejected(self, fast_config, small_farm):
        with pytest.raises(ValueError):
            CoronaSystem(n_nodes=0, config=fast_config, fetcher=small_farm)
