"""The central structural invariant: wedge floods cover wedges exactly."""

import pytest

from repro.overlay.dag import (
    dag_reach,
    dissemination_tree,
    fanout_visitor,
    walk_depths,
)
from repro.overlay.hashing import channel_id
from repro.overlay.network import OverlayNetwork


@pytest.mark.parametrize("base,n_nodes", [(4, 48), (16, 120), (2, 24)])
def test_flood_equals_wedge_at_every_level(base, n_nodes):
    """From the anchor, the row-restricted flood reaches exactly the
    wedge — the property both maintenance and diff dissemination
    depend on (paper §3.3, §3.4)."""
    net = OverlayNetwork.build(n_nodes, base=base)
    tables = net.routing_tables()
    for index in range(25):
        cid = channel_id(f"http://dag{index}.example/feed")
        anchor = net.anchor_of(cid)
        prefix = anchor.shared_prefix_len(cid, net.base)
        for level in range(net.base_level() + 1):
            reached = set(dag_reach(anchor, tables, cid, level, net.base))
            if level <= prefix:
                assert reached == set(net.wedge(cid, level))
            else:
                # Empty wedge: the flood degenerates to the anchor.
                assert reached == {anchor}


class TestTreeProperties:
    def test_no_duplicate_delivery(self, small_overlay):
        """Every reached node has exactly one parent: no duplicates."""
        tables = small_overlay.routing_tables()
        cid = channel_id("http://tree.example/feed")
        anchor = small_overlay.anchor_of(cid)
        parents = dissemination_tree(anchor, tables, cid, 0, small_overlay.base)
        assert anchor not in parents
        assert len(set(parents)) == len(parents)

    def test_depths_logarithmic(self, small_overlay):
        """Flood depth stays within log_b N + slack hops."""
        tables = small_overlay.routing_tables()
        cid = channel_id("http://depth.example/feed")
        anchor = small_overlay.anchor_of(cid)
        depths = walk_depths(anchor, tables, cid, 0, small_overlay.base)
        assert depths[anchor] == 0
        assert max(depths.values()) <= small_overlay.base_level() + 2

    def test_fanout_visitor_counts_messages(self, small_overlay):
        tables = small_overlay.routing_tables()
        cid = channel_id("http://fanout.example/feed")
        anchor = small_overlay.anchor_of(cid)
        hops: list[tuple] = []
        sent = fanout_visitor(
            anchor, tables, cid, 0, small_overlay.base,
            lambda src, dst: hops.append((src, dst)),
        )
        assert sent == len(hops)
        # One message per non-root wedge member.
        assert sent == len(small_overlay) - 1

    def test_flood_from_any_wedge_member(self, small_overlay):
        """Detecting nodes flood from themselves, not just the anchor;
        coverage must hold from any member of the wedge (§3.4)."""
        tables = small_overlay.routing_tables()
        cid = channel_id("http://anymember.example/feed")
        level = 1
        wedge = small_overlay.wedge(cid, level)
        if len(wedge) < 2:
            pytest.skip("wedge too small in this universe")
        for root in wedge[:4]:
            reached = set(
                dag_reach(root, tables, cid, level, small_overlay.base)
            )
            assert reached == set(wedge)
