"""The split-bin resolution rule: consistent fractions, rank ordering."""

import pytest

from repro.core.channel import Channel
from repro.core.node import CoronaNode
from repro.honeycomb.solver import ClusterSplit


def make_split(count_low, count_high, f_low=10.0, f_high=1.0):
    """level_low=2 is the demoted (worse-f) side by default."""
    return ClusterSplit(
        key=7,
        level_low=2,
        count_low=count_low,
        level_high=1,
        count_high=count_high,
        f_low=f_low,
        f_high=f_high,
    )


def members(n, prefix="http://s"):
    """(ratio, channel) pairs with ratio increasing in index."""
    return [
        (float(index + 1), Channel(url=f"{prefix}{index}/", max_level=3,
                                   anchor_prefix=3))
        for index in range(n)
    ]


class TestClusterSplitProperties:
    def test_demoted_side_is_worse_objective(self):
        split = make_split(3, 7)
        assert split.demoted_level == 2
        assert split.kept_level == 1
        assert split.demoted_count == 3

    def test_demoted_side_flips_with_objective(self):
        split = make_split(3, 7, f_low=1.0, f_high=10.0)
        assert split.demoted_level == 1
        assert split.demoted_count == 7


class TestResolveSplit:
    def test_whole_share_demotes_lowest_ratios(self):
        # Global fraction: 4/10 demoted; node holds 5 members -> 2 whole.
        split = make_split(4, 6)
        assignments = CoronaNode._resolve_split(split, members(5))
        demoted = [ch.url for ch, level in assignments if level == 2]
        # The two lowest-ratio members are demoted for certain.
        assert "http://s0/" in demoted
        assert "http://s1/" in demoted
        # The highest-ratio members are kept for certain.
        kept = [ch.url for ch, level in assignments if level == 1]
        assert "http://s4/" in kept

    def test_fraction_unbiased_over_population(self):
        """Across many nodes, the realized demoted fraction matches the
        split's global fraction — the consistency property that keeps
        the cloud's total load on budget."""
        split = make_split(30, 70)  # demote 30%
        demoted = total = 0
        for node_index in range(200):
            batch = members(3, prefix=f"http://n{node_index}-")
            for _channel, level in CoronaNode._resolve_split(split, batch):
                total += 1
                demoted += level == 2
        fraction = demoted / total
        assert fraction == pytest.approx(0.30, abs=0.05)

    def test_deterministic(self):
        split = make_split(1, 2)
        batch = members(4)
        first = CoronaNode._resolve_split(split, batch)
        second = CoronaNode._resolve_split(split, batch)
        assert [(c.url, l) for c, l in first] == [
            (c.url, l) for c, l in second
        ]

    def test_all_demoted_when_fraction_is_one(self):
        split = make_split(10, 0)
        assignments = CoronaNode._resolve_split(split, members(4))
        assert all(level == 2 for _ch, level in assignments)

    def test_none_demoted_when_fraction_is_zero(self):
        split = make_split(0, 10)
        assignments = CoronaNode._resolve_split(split, members(4))
        assert all(level == 1 for _ch, level in assignments)
