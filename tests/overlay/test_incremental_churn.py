"""Invariants of the overlay's incremental churn paths.

The index-based join and the batched exact repair must leave the
overlay as complete as the population allows: slots empty only when
no live candidate exists, leaf sets equal to the true ring slices,
ownership queries identical to the brute-force definitions.
"""

import random

import pytest

from repro.overlay.hashing import channel_id, node_id_for_address
from repro.overlay.leafset import LeafSet
from repro.overlay.network import OverlayNetwork


def churned_overlay(seed=7, n=48, base=4):
    """An overlay that went through joins and batched crash waves."""
    rng = random.Random(seed)
    net = OverlayNetwork.build(n, base=base, leaf_size=4)
    for wave in range(4):
        victims = rng.sample(net.node_ids(), rng.randint(1, 4))
        net.remove_nodes(victims)
        for index in range(rng.randint(1, 4)):
            net.add_node(f"churn-{seed}-{wave}-{index}")
    return net


class TestOwnershipQueries:
    """Bisected owner/anchor == the brute-force scans they replaced."""

    def brute_owner(self, net, key):
        return min(
            net.nodes,
            key=lambda node_id: LeafSet._ownership_distance(node_id, key),
        )

    def brute_anchor(self, net, key):
        return max(
            net.nodes,
            key=lambda node_id: (
                node_id.shared_prefix_len(key, net.base),
                -LeafSet._ownership_distance(node_id, key),
            ),
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_owner_and_anchor_match_brute_force(self, seed):
        net = churned_overlay(seed=seed)
        for index in range(200):
            key = channel_id(f"http://probe{seed}-{index}.example/rss")
            assert net.owner_of(key) == self.brute_owner(net, key)
            assert net.anchor_of(key) == self.brute_anchor(net, key)

    def test_node_id_key_resolves_to_itself(self):
        net = churned_overlay(seed=5)
        for node_id in net.node_ids():
            assert net.anchor_of(node_id) == node_id
            assert net.owner_of(node_id) == node_id


class TestExactRepair:
    def test_leafsets_are_exact_ring_slices_after_churn(self):
        net = churned_overlay(seed=11)
        ordered = sorted(net.node_ids(), key=lambda node_id: node_id.value)
        n = len(ordered)
        position = {node_id: i for i, node_id in enumerate(ordered)}
        for node_id in ordered:
            node = net.nodes[node_id]
            p = position[node_id]
            span = min(net.leaf_size, n - 1)
            expected_cw = [ordered[(p + 1 + k) % n] for k in range(span)]
            expected_ccw = [ordered[(p - 1 - k) % n] for k in range(span)]
            assert node.leaves.clockwise() == expected_cw
            assert node.leaves.counter_clockwise() == expected_ccw

    def test_slots_empty_only_when_region_empty(self):
        """Routing completeness survives batched crash waves."""
        net = churned_overlay(seed=13)
        for node_id, node in net.nodes.items():
            for other in net.node_ids():
                if other == node_id:
                    continue
                row = node_id.shared_prefix_len(other, net.base)
                col = other.digit(row, net.base)
                entry = node.table.entry(row, col)
                assert entry is not None, (
                    f"{node_id} slot ({row},{col}) empty although "
                    f"{other} fits it"
                )
                # ...and whatever fills it genuinely belongs there.
                assert entry.shared_prefix_len(node_id, net.base) == row
                assert entry.digit(row, net.base) == col
                assert entry in net.nodes

    def test_remove_nodes_validates_input(self):
        net = OverlayNetwork.build(8, base=4, leaf_size=2)
        ghost = node_id_for_address("ghost")
        with pytest.raises(KeyError):
            net.remove_nodes([ghost])
        victim = net.node_ids()[0]
        with pytest.raises(ValueError):
            net.remove_nodes([victim, victim])
        assert len(net) == 8  # neither call removed anything

    def test_batch_wave_equals_population_change(self):
        net = OverlayNetwork.build(20, base=4, leaf_size=3)
        victims = net.node_ids()[:6]
        net.remove_nodes(victims)
        assert len(net) == 14
        assert not set(victims) & set(net.node_ids())

    def test_aggregation_rows_matches_table_scan(self):
        """The O(1) pair-depth answer equals the old table scan."""
        for seed in (17, 18):
            net = churned_overlay(seed=seed)
            deepest = 0
            for node in net.nodes.values():
                rows = node.table.occupied_rows()
                if rows:
                    deepest = max(deepest, rows[-1])
            assert net.aggregation_rows() == deepest + 1

    def test_single_survivor_and_regrowth(self):
        net = OverlayNetwork.build(6, base=4, leaf_size=2)
        survivors = net.node_ids()
        net.remove_nodes(survivors[1:])
        assert len(net) == 1
        assert net.aggregation_rows() == 1
        regrown = net.add_node("regrown")
        assert regrown.node_id in net.nodes
        assert len(net) == 2


class TestJoinWorkScaling:
    """Joins touch the deepest enclosing region, not the population.

    The per-region empty-slot argument makes a join O(log N) bisects
    plus one slot write per member of the newcomer's deepest non-empty
    enclosing prefix region (expected O(base) members under uniform
    identifiers).  The ``join_stats`` counters let the test pin that:
    per-join survivor updates must stay near the region size and must
    not scale with N, and the newcomer's own table fill stays at
    O(base · log N) probes.
    """

    @staticmethod
    def per_join(n, base=16):
        net = OverlayNetwork.build(n, base=base, leaf_size=4)
        stats = net.join_stats
        joins = stats["joins"]
        return {key: value / joins for key, value in stats.items()}, net

    def test_survivor_updates_stay_region_sized(self):
        small, _ = self.per_join(128)
        large, _ = self.per_join(512)
        # Expected deepest-region occupancy is O(base); allow slack for
        # hash clumping but stay far from a population scan.
        assert large["survivor_updates"] < 4 * 16
        # 4x the population must not translate into linear growth.
        assert (
            large["survivor_updates"]
            < 2 * small["survivor_updates"] + 16
        )

    def test_fill_probes_logarithmic(self):
        small, _ = self.per_join(128)
        large, _ = self.per_join(512)
        # Table fill bisects scale with occupied rows (log_b N), not N.
        assert large["fill_probes"] < 8 * 16
        assert large["fill_probes"] < small["fill_probes"] * 2

    def test_post_join_state_still_complete(self):
        """The targeted update reaches the same end state as the scan:
        every slot with a live candidate is filled (spot-checked here,
        exhaustively by TestExactRepair on churned overlays)."""
        _, net = self.per_join(96, base=4)
        newcomer = net.add_node("join-work-probe").node_id
        for node_id, node in net.nodes.items():
            if node_id == newcomer:
                continue
            row = node_id.shared_prefix_len(newcomer, net.base)
            col = newcomer.digit(row, net.base)
            entry = node.table.entry(row, col)
            assert entry is not None
            assert entry.shared_prefix_len(node_id, net.base) == row
            assert entry.digit(row, net.base) == col


class TestRoutingTablesView:
    def test_view_is_cached_and_live(self):
        net = OverlayNetwork.build(10, base=4, leaf_size=2)
        view = net.routing_tables()
        assert net.routing_tables() is view
        assert len(view) == 10
        newcomer = net.add_node("viewer")
        assert len(view) == 11
        assert view[newcomer.node_id] is newcomer.table
        net.remove_nodes([newcomer.node_id])
        assert len(view) == 10
        assert newcomer.node_id not in view

    def test_view_supports_mapping_protocol(self):
        net = OverlayNetwork.build(6, base=4, leaf_size=2)
        view = net.routing_tables()
        assert set(view) == set(net.node_ids())
        assert dict(view) == {
            node_id: net.nodes[node_id].table for node_id in net.node_ids()
        }
        assert view.get(node_id_for_address("ghost")) is None
