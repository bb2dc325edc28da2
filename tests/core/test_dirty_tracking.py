"""Structural dirty-local tracking: no factor moves without a mark.

PR 3 left dirty marking as a facade convention — six call sites in
:class:`CoronaSystem` each had to remember ``mark_local_dirty`` — so a
new factor-mutating path could silently diverge delta rounds from the
eager reference.  :class:`ChannelStats` now notifies its owning node
*structurally*: assigning any factor attribute fires a bound listener
that lands the owner in the aggregator's dirty set.  These tests
mutate factors through **every** public path (and through raw
attribute assignment, the path no convention could have covered) and
assert the owning node was dirtied — including after ownership
transfers move the stats object between nodes.
"""

import pytest

from repro.core.channel import ChannelStats
from repro.core.config import CoronaConfig
from repro.core.system import CoronaSystem
from repro.simulation.macro import MacroSimulator
from repro.simulation.webserver import WebServerFarm


@pytest.fixture()
def farm():
    farm = WebServerFarm(seed=5)
    for rank in range(6):
        farm.host(
            f"http://dirty{rank}.example/rss",
            update_interval=60.0,
            target_bytes=600,
        )
    return farm


@pytest.fixture()
def system(fast_config, farm):
    system = CoronaSystem(
        n_nodes=24, config=fast_config, fetcher=farm, seed=17
    )
    for rank in range(6):
        system.subscribe(f"http://dirty{rank}.example/rss", f"c{rank}", 0.0)
    return system


def drain(system):
    """Empty the dirty set so the next assertion sees only new marks."""
    system.aggregator._dirty_local.clear()


def dirty(system):
    return set(system.aggregator._dirty_local)


class TestStatsNotifier:
    def test_factor_assignment_notifies(self):
        fired = []
        stats = ChannelStats()
        stats.bind(lambda: fired.append(True))
        stats.subscribers = 3
        stats.content_size = 2048
        stats.default_update_interval = 60.0
        assert len(fired) == 3

    def test_record_update_notifies(self):
        fired = []
        stats = ChannelStats()
        stats.bind(lambda: fired.append(True))
        stats.record_update(100.0, 512)
        assert fired

    def test_non_factor_fields_and_unbound_stats_are_silent(self):
        fired = []
        stats = ChannelStats()
        stats.updates_seen = 7  # not a factor input
        stats.bind(lambda: fired.append(True))
        stats.updates_seen = 8
        stats._last_update_time = 1.0
        assert not fired
        stats.bind(None)
        stats.subscribers = 9  # unbound again: no listener, no crash

    def test_construction_does_not_require_a_listener(self):
        ChannelStats(subscribers=4)  # __init__ assigns factor fields

    def test_value_unchanged_assignment_is_silent(self):
        """Idempotent re-assignment (a recount that recounts the same
        number) must not dirty the owner."""
        fired = []
        stats = ChannelStats(subscribers=5)
        stats.bind(lambda: fired.append(True))
        stats.subscribers = 5
        stats.content_size = stats.content_size
        assert not fired
        stats.subscribers = 6
        assert len(fired) == 1


class TestEveryPublicPath:
    def test_subscribe_dirties_the_manager(self, system):
        drain(system)
        manager = system.subscribe("http://dirty0.example/rss", "fresh", 1.0)
        assert manager in dirty(system)

    def test_unsubscribe_dirties_the_manager(self, system):
        url = "http://dirty1.example/rss"
        manager = system.managers[url]
        drain(system)
        assert system.unsubscribe(url, "c1")
        assert manager in dirty(system)

    def test_adoption_of_a_new_channel_dirties_the_anchor(
        self, system, farm
    ):
        farm.host("http://dirty-new.example/rss", update_interval=60.0)
        drain(system)
        manager = system.subscribe("http://dirty-new.example/rss", "x", 1.0)
        assert manager in dirty(system)

    def test_detection_dirties_the_manager(self, system, farm):
        system.poll_due(61.0)  # prime the poll caches (stagger ≤ 60s)
        farm.advance_to(460.0)  # the feeds update (interval 60s)
        drain(system)
        events = system.poll_due(460.0)
        assert events, "no update was detected"
        for event in events:
            assert system.managers[event.url] in dirty(system)

    def test_raw_attribute_assignment_dirties_the_manager(self, system):
        """The path no call-site convention could have covered."""
        url = "http://dirty3.example/rss"
        manager = system.managers[url]
        drain(system)
        system.channel(url).stats.subscribers = 77
        assert dirty(system) == {manager}

    def test_crash_rehome_dirties_the_adopter(self, system):
        url = "http://dirty4.example/rss"
        old_manager = system.managers[url]
        drain(system)
        system.fail_node(old_manager, now=2.0)
        new_manager = system.managers[url]
        assert new_manager in dirty(system)

    def test_join_transfer_dirties_both_ends_and_rebinds(self, system):
        """A transferred stats object must notify its *new* owner."""
        transferred = None
        for _ in range(40):
            before = dict(system.managers)
            drain(system)
            joined = system.join_nodes(1, now=3.0)[0]
            moved = [
                url
                for url, manager in system.managers.items()
                if manager != before[url]
            ]
            if moved:
                transferred = moved[0]
                assert before[transferred] in dirty(system)
                assert joined in dirty(system)
                break
        assert transferred is not None, "no join re-homed a channel"
        drain(system)
        system.channel(transferred).stats.content_size = 9999
        assert dirty(system) == {system.managers[transferred]}

    def test_stats_object_replacement_dirties_and_rebinds(self, system):
        """Swapping the whole stats object is itself a factor mutation:
        the owner is dirtied and the new object stays bound."""
        url = "http://dirty5.example/rss"
        manager = system.managers[url]
        channel = system.channel(url)
        drain(system)
        channel.stats = ChannelStats(subscribers=13)
        assert manager in dirty(system)
        drain(system)
        channel.stats.subscribers = 14  # the replacement is bound too
        assert manager in dirty(system)

    def test_delta_vs_eager_still_agree_through_raw_mutation(
        self, fast_config
    ):
        """End to end: a raw factor poke plus rounds keeps the delta
        aggregator bit-identical to the eager reference."""

        def build(delta):
            farm = WebServerFarm(seed=9)
            farm.host("http://raw.example/rss", update_interval=60.0)
            system = CoronaSystem(
                n_nodes=16,
                config=fast_config,
                fetcher=farm,
                seed=9,
                delta_rounds=delta,
            )
            system.subscribe("http://raw.example/rss", "c", 0.0)
            system.run_maintenance_round(10.0)
            system.channel("http://raw.example/rss").stats.subscribers = 41
            system.run_maintenance_round(130.0)
            system.run_maintenance_round(250.0)
            return system

        delta_sys, eager_sys = build(True), build(False)
        assert delta_sys.aggregator.states == eager_sys.aggregator.states
        assert (
            delta_sys.aggregator.work.as_dict()
            == eager_sys.aggregator.work.as_dict()
        )


class TestLevelStepsDirtyNothing:
    """A summary is its sums, and no sum reads a polling level: a round
    in which only levels move gives the aggregation phase nothing to do.
    """

    @staticmethod
    def retarget_every_channel(nodes) -> int:
        """One allowed step away from the current level, by hand."""
        retargeted = 0
        for node in nodes:
            for url, channel in node.managed.items():
                allowed = channel.allowed_levels()
                if len(allowed) < 2:
                    continue  # an orphan has nowhere to go
                step = -1 if channel.level > allowed[0] else 1
                node.controller.set_target(url, channel.level + step)
                retargeted += 1
        return retargeted

    def test_system_round_of_level_moves_only(self, system):
        now = 0.0
        for _ in range(12):  # converge: levels settled, nothing in flight
            now += 120.0
            system.run_maintenance_round(now)
        aggregator = system.aggregator
        assert aggregator._quiescent and not dirty(system)
        levels = {
            url: system.channel_level(url) for url in system.managers
        }
        work = aggregator.work.as_dict()

        assert self.retarget_every_channel(system.nodes.values())
        for _ in range(4):  # the move, then time to cross the overlay
            now += 120.0
            system.run_maintenance_round(now)
        moved = {
            url
            for url in system.managers
            if system.channel_level(url) != levels[url]
        }
        assert moved, "no polling level moved"
        assert aggregator.work.as_dict() == work
        assert aggregator._quiescent and not dirty(system)

    def test_macro_control_round_of_level_moves_only(self, tiny_trace):
        simulator = MacroSimulator(
            tiny_trace, CoronaConfig(scheme="lite"), n_nodes=32, seed=4
        )
        for _ in range(12):
            simulator._run_control_round()
        aggregator = simulator.aggregator
        assert aggregator._quiescent and not aggregator._dirty_local
        levels = simulator.levels.copy()
        work = aggregator.work.as_dict()

        assert self.retarget_every_channel(simulator.nodes.values())
        for _ in range(4):
            simulator._run_control_round()
        assert (simulator.levels != levels).any(), "no polling level moved"
        assert aggregator.work.as_dict() == work
        assert aggregator._quiescent and not aggregator._dirty_local
