"""Channel records and the owner-side factor estimators."""

import math

import pytest

from repro.core import channel as channel_module
from repro.core.channel import Channel, ChannelStats
from repro.core.config import (
    MAX_UPDATE_INTERVAL,
    MIN_UPDATE_INTERVAL,
    CoronaConfig,
)
from repro.core.objectives import binning_ratio, scheme_by_name
from repro.honeycomb.clusters import ratio_bin
from repro.overlay.hashing import channel_id


def stats_with(subscribers: int, content_size: int | None = None):
    """Stats a manager has counted ``subscribers`` on."""
    stats = ChannelStats()
    stats.subscribers = subscribers
    if content_size is not None:
        stats.content_size = content_size
    return stats


class TestChannelStats:
    def test_default_interval_before_observations(self):
        stats = ChannelStats()
        assert stats.update_interval == MAX_UPDATE_INTERVAL == 604800.0

    def test_interval_estimated_from_gaps(self):
        stats = ChannelStats()
        stats.record_update(0.0, 1000)
        stats.record_update(600.0, 1000)
        assert stats.update_interval == pytest.approx(600.0)

    def test_single_update_keeps_the_fallback_interval(self):
        stats = ChannelStats()
        stats.record_update(500.0, 1000)
        assert stats.update_interval == MAX_UPDATE_INTERVAL

    def test_non_positive_gap_ignored(self):
        stats = ChannelStats()
        stats.record_update(0.0, 1000)
        stats.record_update(600.0, 1000)
        stats.record_update(600.0, 1000)  # same instant: no gap
        stats.record_update(500.0, 1000)  # out of order: no gap
        assert stats.update_interval == pytest.approx(600.0)
        assert stats.updates_seen == 4

    def test_interval_floored_at_min_update_interval(self):
        """Back-to-back detections cannot drive τ/u past τ/60 s."""
        stats = ChannelStats()
        stats.record_update(0.0, 1000)
        stats.record_update(5.0, 1000)
        assert stats.update_interval == MIN_UPDATE_INTERVAL == 60.0

    def test_interval_capped_at_max_update_interval(self):
        stats = ChannelStats()
        stats.record_update(0.0, 1000)
        stats.record_update(2 * MAX_UPDATE_INTERVAL, 1000)
        assert stats.update_interval == MAX_UPDATE_INTERVAL

    def test_stats_are_run_state_not_configuration(self):
        stats = ChannelStats()
        assert stats.subscribers == 0
        assert stats.content_size == 1024
        assert stats.updates_seen == 0
        with pytest.raises(TypeError):
            ChannelStats(subscribers=5)

    def test_ewma_smooths(self, monkeypatch):
        monkeypatch.setattr(channel_module, "EWMA_ALPHA", 0.5)
        stats = ChannelStats()
        stats.record_update(0.0, 1000)
        stats.record_update(100.0, 1000)  # estimate 100
        stats.record_update(400.0, 1000)  # gap 300 -> 0.5*300+0.5*100
        assert stats.update_interval == pytest.approx(200.0)

    def test_content_size_tracked(self):
        stats = ChannelStats()
        stats.record_update(0.0, 4242)
        assert stats.content_size == 4242
        stats.record_update(10.0, 0)  # zero size ignored
        assert stats.content_size == 4242

    def test_factors_snapshot(self):
        stats = ChannelStats()
        stats.subscribers = 12
        factors = stats.factors()
        assert factors.subscribers == 12.0
        assert factors.update_interval == stats.update_interval

    def test_updates_seen_counter(self):
        stats = ChannelStats()
        for t in (0.0, 1.0, 2.0):
            stats.record_update(t, 100)
        assert stats.updates_seen == 3


class TestCachedRecord:
    """``record`` and its single invalidation point, ``__setattr__``."""

    CONFIG = CoronaConfig(scheme="fair")

    def fresh(self, stats, config):
        factors = stats.factors()
        ratio = binning_ratio(scheme_by_name(config.scheme), config, factors)
        return (
            config,
            math.log(stats.update_interval),
            ratio,
            ratio_bin(ratio, config.tradeoff_bins),
        )

    def test_record_is_the_fresh_derivation_and_is_kept(self):
        stats = stats_with(7, content_size=900)
        stats.record_update(0.0, 900)
        stats.record_update(450.0, 900)
        record = stats.record(self.CONFIG)
        assert record == self.fresh(stats, self.CONFIG)
        assert stats.record(self.CONFIG) is record

    def test_noop_reassignment_neither_notifies_nor_drops(self):
        fired = []
        stats = stats_with(5)
        stats.bind(lambda: fired.append(True))
        record = stats.record(self.CONFIG)
        stats.subscribers = 5
        stats.content_size = stats.content_size
        stats.updates_seen = 3  # not a factor field
        assert not fired
        assert stats.record(self.CONFIG) is record

    @pytest.mark.parametrize("bound", [False, True])
    def test_moved_factor_drops_the_record_listener_or_not(self, bound):
        fired = []
        stats = stats_with(5)
        if bound:
            stats.bind(lambda: fired.append(True))
        stale = stats.record(self.CONFIG)
        stats.subscribers = 6
        assert len(fired) == (1 if bound else 0)
        record = stats.record(self.CONFIG)
        assert record is not stale
        assert record == self.fresh(stats, self.CONFIG)

    def test_every_factor_field_invalidates(self):
        stats = stats_with(5)
        stats.record_update(0.0, 700)
        stats.record_update(30.0, 700)  # estimate 30 s: under the clamp
        for name, value in (
            ("subscribers", 9),
            ("content_size", 123),
            ("_interval_estimate", None),
        ):
            stale = stats.record(self.CONFIG)
            setattr(stats, name, value)
            assert stats.record(self.CONFIG) is not stale, name
            assert stats.record(self.CONFIG) == self.fresh(stats, self.CONFIG)

    def test_record_answers_only_for_the_config_it_was_derived_under(self):
        """Stats travel on ownership transfer: an equal config that is
        another object — let alone another scheme — re-derives."""
        stats = stats_with(5)
        record = stats.record(self.CONFIG)
        twin = CoronaConfig(scheme="fair")
        assert twin == self.CONFIG and twin is not self.CONFIG
        assert stats.record(twin) is not record
        assert stats.record(twin)[1:] == record[1:]
        lite = CoronaConfig(scheme="lite")
        assert stats.record(lite) == self.fresh(stats, lite)
        assert stats.record(lite)[2] != record[2]

    def test_record_stays_out_of_equality_and_repr(self):
        cold, warm = stats_with(5), stats_with(5)
        warm.record(self.CONFIG)
        assert cold == warm
        assert repr(cold) == repr(warm)

    def test_invalid_factors_fail_at_derivation(self):
        stats = stats_with(-1)
        with pytest.raises(ValueError):
            stats.record(self.CONFIG)


class TestChannel:
    def test_identifier_derived_from_url(self):
        a = Channel(url="http://a.example/f", max_level=3)
        b = Channel(url="http://a.example/f", max_level=3)
        assert a.cid == b.cid

    def test_identifier_is_the_ring_hash_of_the_url(self):
        """``_resolve_split`` draws on ``cid`` instead of re-hashing."""
        channel = Channel(url="http://a.example/f", max_level=3)
        assert channel.cid == channel_id(channel.url)

    def test_empty_url_rejected(self):
        with pytest.raises(ValueError):
            Channel(url="", max_level=3)

    def test_orphan_definition(self):
        orphan = Channel(url="http://o/", max_level=3, anchor_prefix=1)
        assert orphan.is_orphan()
        normal = Channel(url="http://n/", max_level=3, anchor_prefix=2)
        assert not normal.is_orphan()
        deep = Channel(url="http://d/", max_level=3, anchor_prefix=3)
        assert not deep.is_orphan()

    def test_allowed_levels(self):
        normal = Channel(url="http://n/", max_level=3, anchor_prefix=2)
        assert normal.allowed_levels() == (0, 1, 2, 3)
        orphan = Channel(url="http://o/", max_level=3, anchor_prefix=0)
        assert orphan.allowed_levels() == (3,)
        # one shared tuple per depth, not one per call
        other = Channel(url="http://m/", max_level=3, anchor_prefix=3)
        assert other.allowed_levels() is normal.allowed_levels()

    def test_clamp_level_orphan(self):
        orphan = Channel(
            url="http://o/", level=1, max_level=3, anchor_prefix=0
        )
        orphan.clamp_level()
        assert orphan.level == 3

    def test_clamp_level_noop_when_allowed(self):
        channel = Channel(
            url="http://n/", level=1, max_level=3, anchor_prefix=3
        )
        channel.clamp_level()
        assert channel.level == 1
