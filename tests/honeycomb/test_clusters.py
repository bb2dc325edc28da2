"""Tradeoff clusters: exact merging, binning, slack, state caps."""

import math

import pytest

from repro.honeycomb.clusters import (
    ChannelFactors,
    ClusterSummary,
    TradeoffCluster,
    default_ratio,
    ratio_bin,
)


def factors(q=10.0, s=1000.0, u=3600.0) -> ChannelFactors:
    return ChannelFactors(subscribers=q, size=s, update_interval=u)


class TestChannelFactors:
    def test_validation(self):
        with pytest.raises(ValueError):
            factors(q=-1)
        with pytest.raises(ValueError):
            factors(s=0)
        with pytest.raises(ValueError):
            factors(u=0)


class TestTradeoffCluster:
    def test_add_accumulates(self):
        cluster = TradeoffCluster()
        cluster.add(factors(q=10))
        cluster.add(factors(q=30))
        assert cluster.count == 2
        assert cluster.sum_subscribers == 40

    def test_merge_equals_adding_both(self):
        a, b, combined = TradeoffCluster(), TradeoffCluster(), TradeoffCluster()
        for q in (1.0, 2.0):
            a.add(factors(q=q))
            combined.add(factors(q=q))
        for q in (3.0, 4.0):
            b.add(factors(q=q))
            combined.add(factors(q=q))
        a.merge(b)
        assert a.count == combined.count
        assert a.sum_subscribers == combined.sum_subscribers
        assert a.sum_log_update_interval == pytest.approx(
            combined.sum_log_update_interval
        )

    def test_mean_factors_geometric_interval(self):
        cluster = TradeoffCluster()
        cluster.add(factors(u=100.0))
        cluster.add(factors(u=10000.0))
        mean = cluster.mean_factors()
        assert mean.update_interval == pytest.approx(1000.0)

    def test_empty_cluster_has_no_representative(self):
        with pytest.raises(ValueError):
            TradeoffCluster().mean_factors()

    def test_copy_is_independent(self):
        cluster = TradeoffCluster()
        cluster.add(factors())
        duplicate = cluster.copy()
        duplicate.add(factors())
        assert cluster.count == 1
        assert duplicate.count == 2


class TestBinning:
    def test_bins_monotone_in_ratio(self):
        previous = -1
        for exponent in range(-6, 7):
            bin_index = ratio_bin(10.0**exponent, 16)
            assert bin_index >= previous
            previous = bin_index

    def test_extremes_clamped(self):
        assert ratio_bin(1e-30, 16) == 0
        assert ratio_bin(1e30, 16) == 15

    def test_bin_count_validation(self):
        with pytest.raises(ValueError):
            ratio_bin(1.0, 0)

    def test_default_ratio_is_fair_metric(self):
        f = factors(q=10, s=1000, u=3600)
        assert default_ratio(f) == pytest.approx(10 / (3600 * 1000))


class TestClusterSummary:
    def test_cap_respected(self):
        summary = ClusterSummary(bins=4)
        for index in range(100):
            summary.add_channel(
                factors(q=float(index + 1)), ratio=10.0 ** (index % 13 - 6)
            )
        assert summary.cluster_count() <= 4
        assert summary.state_size() <= 4

    def test_orphans_go_to_slack(self):
        summary = ClusterSummary()
        summary.add_channel(factors(q=5), orphan=True)
        summary.add_channel(factors(q=7), orphan=False)
        assert summary.slack.count == 1
        assert summary.slack.sum_subscribers == 5
        assert summary.total_channels() == 1
        assert summary.total_subscribers() == 7

    def test_merge_totals_exact(self):
        a, b = ClusterSummary(), ClusterSummary()
        for q in range(1, 11):
            a.add_channel(factors(q=float(q)))
        for q in range(11, 31):
            b.add_channel(factors(q=float(q)))
        a.merge(b)
        assert a.total_channels() == 30
        assert a.total_subscribers() == sum(range(1, 31))

    def test_merge_requires_same_bins(self):
        with pytest.raises(ValueError):
            ClusterSummary(bins=8).merge(ClusterSummary(bins=16))

    def test_copy_independent(self):
        summary = ClusterSummary()
        summary.add_channel(factors())
        duplicate = summary.copy()
        duplicate.add_channel(factors())
        assert summary.total_channels() == 1
        assert duplicate.total_channels() == 2


class TestSharedEmpty:
    def test_one_object_per_bin_count(self):
        assert ClusterSummary.empty(8) is ClusterSummary.empty(8)
        assert ClusterSummary.empty(8) is not ClusterSummary.empty(16)
        assert ClusterSummary.empty(8).bins == 8

    def test_merging_into_it_raises(self):
        full = ClusterSummary(bins=8)
        full.add_channel(factors())
        shared = ClusterSummary.empty(8)
        with pytest.raises(ValueError):
            shared.merge(full)
        with pytest.raises(ValueError):
            shared.add_channel(factors())
        assert shared == ClusterSummary(bins=8)

    def test_equality_is_by_value(self):
        shared = ClusterSummary.empty(8)
        built_elsewhere = ClusterSummary(bins=8)
        assert built_elsewhere == shared and shared == built_elsewhere
        assert built_elsewhere is not shared
        built_elsewhere.add_channel(factors())
        assert built_elsewhere != shared

    def test_copies_and_batches_are_writable(self):
        shared = ClusterSummary.empty(8)
        duplicate = shared.copy()
        duplicate.add_channel(factors())
        assert duplicate.total_channels() == 1
        batch = shared.with_channels([(0, 1.0, 2.0, 3.0)])
        assert batch.total_channels() == 1
        assert shared == ClusterSummary(bins=8)
