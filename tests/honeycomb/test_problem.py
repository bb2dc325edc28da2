"""Tradeoff-function abstraction: construction and validation."""

import pytest

from repro.honeycomb.problem import ChannelTradeoff


def simple_channel(key="c", weight=1):
    return ChannelTradeoff(
        key=key,
        levels=(0, 1, 2),
        f=(1.0, 4.0, 16.0),
        g=(100.0, 25.0, 6.0),
        weight=weight,
    )


class TestChannelTradeoff:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            ChannelTradeoff(key="x", levels=(0, 1), f=(1.0,), g=(2.0, 3.0))

    def test_empty_levels_rejected(self):
        with pytest.raises(ValueError):
            ChannelTradeoff(key="x", levels=(), f=(), g=())

    def test_levels_must_ascend(self):
        with pytest.raises(ValueError):
            ChannelTradeoff(
                key="x", levels=(1, 0), f=(1.0, 2.0), g=(2.0, 1.0)
            )

    def test_weight_positive(self):
        with pytest.raises(ValueError):
            simple_channel(weight=0)

    def test_monotonic_detection(self):
        assert simple_channel().is_monotonic()
        zigzag = ChannelTradeoff(
            key="z", levels=(0, 1, 2), f=(1.0, 5.0, 2.0), g=(3.0, 2.0, 1.0)
        )
        assert not zigzag.is_monotonic()
        g_zigzag = ChannelTradeoff(
            key="z", levels=(0, 1, 2), f=(1.0, 2.0, 3.0), g=(3.0, 1.0, 2.0)
        )
        assert not g_zigzag.is_monotonic()
