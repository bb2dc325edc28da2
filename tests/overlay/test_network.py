"""Overlay container: joins, routing convergence, ownership, churn."""

import pytest

from repro.overlay.hashing import channel_id, node_id_for_address
from repro.overlay.network import OverlayNetwork, RouteError


class TestMembership:
    def test_build_population(self, small_overlay):
        assert len(small_overlay) == 64

    def test_duplicate_address_rejected(self):
        net = OverlayNetwork.build(4, base=4)
        with pytest.raises(ValueError):
            net.add_node("node-0")

    def test_single_node_overlay(self):
        net = OverlayNetwork(base=16)
        node = net.add_node("only")
        assert net.owner_of(channel_id("http://x/")) == node.node_id
        assert net.route(node.node_id, channel_id("http://x/")) == [
            node.node_id
        ]


class TestRouting:
    def test_all_routes_reach_owner(self, small_overlay):
        for index in range(15):
            cid = channel_id(f"http://route{index}.example/")
            owner = small_overlay.owner_of(cid)
            for start in small_overlay.node_ids()[::7]:
                assert small_overlay.route(start, cid)[-1] == owner

    def test_route_length_logarithmic(self, small_overlay):
        lengths = []
        for index in range(20):
            cid = channel_id(f"http://len{index}.example/")
            start = small_overlay.node_ids()[index % 64]
            lengths.append(len(small_overlay.route(start, cid)))
        # log_4(64) = 3 hops plus the start plus slack.
        assert max(lengths) <= 3 + 3

    def test_route_unknown_start(self, small_overlay):
        with pytest.raises(KeyError):
            small_overlay.route(
                node_id_for_address("stranger"), channel_id("http://x/")
            )

    def test_owner_is_globally_closest(self, small_overlay):
        from repro.overlay.leafset import LeafSet

        cid = channel_id("http://closest.example/")
        owner = small_overlay.owner_of(cid)
        best = min(
            small_overlay.node_ids(),
            key=lambda node: LeafSet._ownership_distance(node, cid),
        )
        assert owner == best

    def test_anchor_has_longest_prefix(self, small_overlay):
        cid = channel_id("http://anchor.example/")
        anchor = small_overlay.anchor_of(cid)
        best = max(
            node.shared_prefix_len(cid, small_overlay.base)
            for node in small_overlay.node_ids()
        )
        assert anchor.shared_prefix_len(cid, small_overlay.base) == best

    def test_replica_owners(self, small_overlay):
        cid = channel_id("http://replicas.example/")
        replicas = small_overlay.replica_owners(cid, 4)
        assert len(replicas) == 4
        assert replicas[0] == small_overlay.owner_of(cid)
        assert len(set(replicas)) == 4

    def test_replica_validation(self, small_overlay):
        with pytest.raises(ValueError):
            small_overlay.replica_owners(channel_id("http://x/"), 0)


class TestChurn:
    def test_failure_repair_preserves_routing(self):
        net = OverlayNetwork.build(40, base=4)
        cid = channel_id("http://churn.example/")
        victims = net.node_ids()[:8]
        for victim in victims:
            net.remove_nodes([victim])
        assert len(net) == 32
        owner = net.owner_of(cid)
        for start in net.node_ids()[::5]:
            assert net.route(start, cid)[-1] == owner

    def test_batched_wave_preserves_routing_from_every_node(self):
        net = OverlayNetwork.build(24, base=4, leaf_size=3)
        cid = channel_id("http://wave.example/rss")
        owner = net.owner_of(cid)
        others = [node_id for node_id in net.node_ids() if node_id != owner]
        net.remove_nodes([owner, *others[:2]])  # one wave, one repair
        assert len(net) == 21
        new_owner = net.owner_of(cid)
        for start in net.node_ids():
            assert net.route(start, cid)[-1] == new_owner

    def test_ownership_moves_on_failure(self):
        net = OverlayNetwork.build(24, base=4)
        cid = channel_id("http://move.example/")
        owner = net.owner_of(cid)
        net.remove_nodes([owner])
        new_owner = net.owner_of(cid)
        assert new_owner != owner
        assert new_owner in net.nodes

    def test_remove_unknown_raises(self, small_overlay):
        net = OverlayNetwork.build(4, base=4)
        with pytest.raises(KeyError):
            net.remove_nodes([node_id_for_address("ghost")])

    def test_empty_overlay_owner_raises(self):
        net = OverlayNetwork(base=16)
        with pytest.raises(RouteError):
            net.owner_of(channel_id("http://x/"))

    def test_aggregation_rows_deeper_than_baselevel(self, small_overlay):
        assert small_overlay.aggregation_rows() >= small_overlay.base_level()
