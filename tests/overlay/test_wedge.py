"""Wedge membership and sizes, baselevel, orphan detection."""

import math

import pytest

from repro.overlay.hashing import channel_id
from repro.overlay.nodeid import ID_SPACE, NodeId, digits_per_id
from repro.overlay.wedge import (
    base_level,
    is_orphan,
    wedge_members,
)


class TestWedgeMembers:
    def test_level_zero_is_everyone(self, small_overlay):
        cid = channel_id("http://w.example/feed")
        members = wedge_members(
            cid, 0, small_overlay.node_ids(), small_overlay.base
        )
        assert len(members) == len(small_overlay)

    def test_wedges_nest(self, small_overlay):
        cid = channel_id("http://w.example/feed")
        nodes = small_overlay.node_ids()
        previous = set(nodes)
        for level in range(1, small_overlay.base_level() + 1):
            current = set(
                wedge_members(cid, level, nodes, small_overlay.base)
            )
            assert current <= previous
            previous = current

    def test_members_share_prefix(self, small_overlay):
        cid = channel_id("http://w2.example/feed")
        for member in wedge_members(
            cid, 2, small_overlay.node_ids(), small_overlay.base
        ):
            assert member.shared_prefix_len(cid, small_overlay.base) >= 2

    def test_negative_level_rejected(self, small_overlay):
        with pytest.raises(ValueError):
            wedge_members(
                channel_id("http://x/"), -1, small_overlay.node_ids(), 4
            )


class TestSizes:
    def test_base_level(self):
        assert base_level(1024, 16) == math.ceil(math.log(1024, 16))
        assert base_level(1, 16) == 0
        assert base_level(17, 16) == 2
        assert base_level(16, 16) == 1

    def test_base_level_other_bases(self):
        assert base_level(64, 4) == 3
        assert base_level(65, 4) == 4
        assert base_level(2, 2) == 1

    def test_base_level_validation(self):
        with pytest.raises(ValueError):
            base_level(0, 16)

    def test_empirical_sizes_near_expectation(self, hexa_overlay):
        """Measured level-1 wedges should scatter around N/16."""
        sizes = []
        for index in range(50):
            cid = channel_id(f"http://size{index}.example/")
            sizes.append(len(hexa_overlay.wedge(cid, 1)))
        mean = sum(sizes) / len(sizes)
        expected = len(hexa_overlay) / 16
        assert expected * 0.5 < mean < expected * 1.7


class TestDeepestWedge:
    def test_full_length_wedge_holds_only_the_identifier_itself(
        self, small_overlay
    ):
        node = small_overlay.node_ids()[0]
        depth = digits_per_id(small_overlay.base)
        assert wedge_members(
            node, depth, small_overlay.node_ids(), small_overlay.base
        ) == [node]


class TestOrphans:
    def test_tiny_networks_have_no_orphans(self):
        """Below two levels the orphan wedge would be the whole ring."""
        nodes = [NodeId(0), NodeId(ID_SPACE // 2)]
        cid = channel_id("http://tiny.example/")
        assert not is_orphan(cid, nodes, 16, len(nodes))
        assert not is_orphan(cid, nodes[:1], 16, 1)

    def test_orphan_consistency_with_anchor(self, small_overlay):
        """is_orphan agrees with the anchor's shared-prefix length."""
        k = small_overlay.base_level()
        for index in range(40):
            cid = channel_id(f"http://orphan{index}.example/")
            anchor = small_overlay.anchor_of(cid)
            prefix = anchor.shared_prefix_len(cid, small_overlay.base)
            expected = prefix < k - 1
            assert (
                is_orphan(
                    cid, small_overlay.node_ids(), small_overlay.base,
                    len(small_overlay),
                )
                == expected
            )
