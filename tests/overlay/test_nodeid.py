"""Unit and property tests for the identifier space."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.nodeid import (
    ID_BITS,
    ID_SPACE,
    NodeId,
    bits_per_digit,
    digits_per_id,
)

ids = st.integers(min_value=0, max_value=ID_SPACE - 1)
bases = st.sampled_from([2, 4, 16, 32])


class TestConstruction:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            NodeId(-1)
        with pytest.raises(ValueError):
            NodeId(ID_SPACE)

    def test_extremes_allowed(self):
        assert NodeId(0).value == 0
        assert NodeId(ID_SPACE - 1).value == ID_SPACE - 1

    def test_hex_roundtrip(self):
        node = NodeId(0xDEADBEEF)
        assert NodeId(int(node.hex(), 16)) == node
        assert len(node.hex()) == 40

    def test_invalid_base_rejected(self):
        with pytest.raises(ValueError):
            bits_per_digit(3)
        with pytest.raises(ValueError):
            bits_per_digit(64)

    def test_hex_zero_padded(self):
        assert NodeId(0).hex() == "0" * 40
        assert NodeId(ID_SPACE - 1).hex() == "f" * 40

    def test_digits_per_id(self):
        assert digits_per_id(16) == 40
        assert digits_per_id(2) == 160
        assert digits_per_id(4) == 80


class TestDigits:
    def test_digit_extraction_base16(self):
        node = NodeId(0x1 << (ID_BITS - 4))  # top digit = 1
        assert node.digit(0, 16) == 1
        assert node.digit(1, 16) == 0

    def test_digit_index_bounds(self):
        node = NodeId(5)
        with pytest.raises(IndexError):
            node.digit(40, 16)
        with pytest.raises(IndexError):
            node.digit(-1, 16)

    @given(ids, bases)
    @settings(max_examples=100)
    def test_digits_reconstruct_value(self, value, base):
        node = NodeId(value)
        digits = node.digits(base)
        rebuilt = 0
        for digit in digits:
            rebuilt = rebuilt * base + digit
        assert rebuilt == value


class TestPrefix:
    def test_identical_ids_share_all_digits(self):
        node = NodeId(123456)
        assert node.shared_prefix_len(node, 16) == digits_per_id(16)

    def test_top_digit_differs(self):
        a = NodeId(0)
        b = NodeId(0x8 << (ID_BITS - 4))
        assert a.shared_prefix_len(b, 16) == 0

    def test_partial_match(self):
        a = NodeId(0xAB << (ID_BITS - 8))
        b = NodeId(0xAC << (ID_BITS - 8))
        assert a.shared_prefix_len(b, 16) == 1

    @given(ids, ids, bases)
    @settings(max_examples=150)
    def test_prefix_symmetric(self, x, y, base):
        a, b = NodeId(x), NodeId(y)
        assert a.shared_prefix_len(b, base) == b.shared_prefix_len(a, base)

    @given(ids, ids, bases)
    @settings(max_examples=150)
    def test_prefix_consistent_with_digits(self, x, y, base):
        a, b = NodeId(x), NodeId(y)
        shared = a.shared_prefix_len(b, base)
        for index in range(shared):
            assert a.digit(index, base) == b.digit(index, base)
        if shared < digits_per_id(base):
            assert a.digit(shared, base) != b.digit(shared, base)


class TestDistance:
    def test_clockwise_wraps(self):
        a = NodeId(ID_SPACE - 1)
        b = NodeId(0)
        assert a.distance_cw(b) == 1
        assert b.distance_cw(a) == ID_SPACE - 1

    def test_between_cw(self):
        low, mid, high = NodeId(10), NodeId(20), NodeId(30)
        assert mid.between_cw(low, high)
        assert not low.between_cw(low, high)  # exclusive at low end
        assert high.between_cw(low, high)  # inclusive at high end

    @given(ids, ids)
    @settings(max_examples=100)
    def test_clockwise_distances_close_the_ring(self, x, y):
        a, b = NodeId(x), NodeId(y)
        total = a.distance_cw(b) + b.distance_cw(a)
        assert total == (0 if x == y else ID_SPACE)

    @given(ids, ids, ids)
    @settings(max_examples=150)
    def test_two_arcs_partition_the_ring(self, x, lo, hi):
        """For distinct endpoints, every identifier lies in exactly one
        of the half-open arcs ``(lo, hi]`` and ``(hi, lo]``."""
        low, high, point = NodeId(lo), NodeId(hi), NodeId(x)
        if low == high:
            return
        assert point.between_cw(low, high) != point.between_cw(high, low)
