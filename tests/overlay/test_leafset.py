"""Leaf-set membership, sides, removal, span and ownership distance.

Unit setup state is written with :meth:`LeafSet.reset`, as the
overlay's join and repair write it.  Which nodes a leaf set admits is
decided by the overlay's join, so the admission rules are checked on
live overlays grown node by node; exact state after churn is tested in
``test_incremental_churn.py`` and ``test_golden_join.py``.
"""

from itertools import count

import pytest

from repro.overlay.hashing import node_id_for_address
from repro.overlay.leafset import LeafSet
from repro.overlay.network import OverlayNetwork
from repro.overlay.nodeid import ID_SPACE, NodeId


def nid(value: int) -> NodeId:
    return NodeId(value % ID_SPACE)


def grown_overlay(n: int, leaf_size: int) -> OverlayNetwork:
    """An overlay whose leaf sets were filled by ``n`` successive joins."""
    net = OverlayNetwork(base=4, leaf_size=leaf_size)
    for index in range(n):
        net.add_node(f"leaf-{index}")
    return net


class TestMembership:
    def test_owner_never_admitted(self):
        net = OverlayNetwork(base=4, leaf_size=4)
        # Every ring size through the wrap-around range (n <= 2 * size),
        # where each neighbour walk comes back round to the owner.
        for index in range(12):
            net.add_node(f"leaf-{index}")
            for node_id, node in net.nodes.items():
                assert node_id not in node.leaves.members()
        only = OverlayNetwork(base=4, leaf_size=4)
        assert only.add_node("alone").leaves.members() == []
        net.remove_nodes(net.node_ids()[:9])
        for node_id, node in net.nodes.items():
            assert node_id not in node.leaves.members()

    def test_keeps_nearest_per_side(self):
        net = grown_overlay(24, leaf_size=2)
        for node_id, node in net.nodes.items():
            others = [other for other in net.nodes if other != node_id]
            nearest_cw = sorted(others, key=node_id.distance_cw)[:2]
            nearest_ccw = sorted(
                others, key=lambda other: other.distance_cw(node_id)
            )[:2]
            assert node.leaves.clockwise() == nearest_cw
            assert node.leaves.counter_clockwise() == nearest_ccw

    def test_duplicate_not_admitted_twice(self):
        net = OverlayNetwork(base=4, leaf_size=4)
        # Up to size + 1 nodes every peer is a leaf on both sides; each
        # side still lists it once, and members() once overall.
        for index in range(5):
            net.add_node(f"leaf-{index}")
            for node_id, node in net.nodes.items():
                for side in (
                    node.leaves.clockwise(),
                    node.leaves.counter_clockwise(),
                ):
                    assert len(side) == len(set(side)) == index
                assert sorted(node.leaves.members()) == sorted(
                    other for other in net.nodes if other != node_id
                )
        before = {
            node_id: (node.leaves.clockwise(), node.leaves.counter_clockwise())
            for node_id, node in net.nodes.items()
        }
        with pytest.raises(ValueError):
            net.add_node("leaf-0")  # the same id again
        assert before == {
            node_id: (node.leaves.clockwise(), node.leaves.counter_clockwise())
            for node_id, node in net.nodes.items()
        }

    def test_closer_node_evicts_farther(self):
        net = grown_overlay(4, leaf_size=1)
        owner = min(net.nodes, key=lambda node_id: node_id.value)
        farther = net.nodes[owner].leaves.clockwise()[0]
        address = next(
            candidate
            for candidate in (f"probe-{index}" for index in count())
            if node_id_for_address(candidate).between_cw(owner, farther)
            and node_id_for_address(candidate) != farther
        )
        closer = net.add_node(address).node_id
        assert net.nodes[owner].leaves.clockwise() == [closer]
        assert net.nodes[farther].leaves.counter_clockwise() == [closer]
        assert farther not in net.nodes[owner].leaves.members()

    def test_remove(self):
        leaves = LeafSet(owner=nid(0), size=2)
        leaves.reset([nid(10), nid(20)], [])
        leaves.remove(nid(10))
        assert nid(10) not in leaves.members()

    def test_size_validation(self):
        with pytest.raises(ValueError):
            LeafSet(owner=nid(0), size=0)

    def test_wraparound_sides(self):
        leaves = LeafSet(owner=nid(ID_SPACE - 5), size=2)
        # clockwise across zero, counter-clockwise below the owner
        leaves.reset([nid(3)], [nid(ID_SPACE - 100)])
        assert nid(3) in leaves.clockwise()
        assert nid(ID_SPACE - 100) in leaves.counter_clockwise()
        assert leaves.covers(nid(0))  # the span wraps through zero
        assert not leaves.covers(nid(50))
        assert leaves.closest(nid(1)) == nid(3)


class TestClosest:
    def test_owner_closest_when_alone(self):
        leaves = LeafSet(owner=nid(0), size=2)
        assert leaves.closest(nid(12345)) == nid(0)

    def test_picks_numerically_closest(self):
        leaves = LeafSet(owner=nid(0), size=4)
        leaves.reset([nid(100), nid(200)], [nid(ID_SPACE - 150)])
        assert leaves.closest(nid(90)) == nid(100)
        assert leaves.closest(nid(40)) == nid(0)
        assert leaves.closest(nid(ID_SPACE - 120)) == nid(ID_SPACE - 150)

    def test_ownership_distance_breaks_ties_uniquely(self):
        # Key exactly between two nodes: the preceding node wins.
        distance_a = LeafSet._ownership_distance(nid(0), nid(50))
        distance_b = LeafSet._ownership_distance(nid(100), nid(50))
        assert distance_a != distance_b  # never an ambiguous tie
        assert min(distance_a, distance_b) == distance_a  # 0 precedes 50

    def test_covers_degenerate(self):
        leaves = LeafSet(owner=nid(7), size=2)
        assert leaves.covers(nid(12345))  # empty leaf set covers all
