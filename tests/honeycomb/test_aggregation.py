"""Decentralized aggregation: exact totals, horizon growth, remote
summaries excluding own channels."""

import pytest

from repro.honeycomb.aggregation import DecentralizedAggregator
from repro.honeycomb.clusters import ChannelFactors
from repro.overlay.hashing import channel_id
from repro.overlay.network import OverlayNetwork
from tests.honeycomb.conftest import summary_of


def widest(agg, node_id):
    """The whole-system summary a converged node holds."""
    state = agg.states[node_id]
    assert state.horizon() == 0
    return state.summaries[0]


@pytest.fixture(scope="module")
def populated():
    """A 48-node overlay with 300 channels assigned to their anchors."""
    net = OverlayNetwork.build(48, base=4)
    assignments: dict = {node_id: [] for node_id in net.node_ids()}
    total_q = 0.0
    for index in range(300):
        cid = channel_id(f"http://agg{index}.example/feed")
        anchor = net.anchor_of(cid)
        q = float(1 + index % 23)
        total_q += q
        assignments[anchor].append(
            (
                ChannelFactors(
                    subscribers=q,
                    size=1000.0,
                    update_interval=3600.0 * (1 + index % 5),
                ),
                index % 29 == 0,  # sprinkle some orphans
                q,  # binning ratio
            )
        )
    return net, assignments, total_q


class TestAggregation:
    def test_totals_exact_after_convergence(self, populated):
        """Every channel counted exactly once in every node's global
        summary — the partition property of prefix-region aggregation."""
        net, assignments, total_q = populated
        agg = DecentralizedAggregator(
            tables=net.routing_tables(), rows=net.aggregation_rows(), bins=16
        )
        agg.load_local(lambda node_id: summary_of(assignments[node_id]))
        rounds = agg.run_to_convergence()
        assert rounds >= 1
        for node_id in net.node_ids():
            summary = widest(agg, node_id)
            counted = summary.total_channels() + summary.sums()[0][-1]
            assert counted == 300
            q_counted = (
                summary.total_subscribers() + summary.sums()[1][-1]
            )
            assert q_counted == pytest.approx(total_q)

    def test_horizon_widens_one_digit_per_round(self, populated):
        net, assignments, _ = populated
        rows = net.aggregation_rows()
        agg = DecentralizedAggregator(
            tables=net.routing_tables(), rows=rows, bins=16
        )
        agg.load_local(lambda node_id: summary_of(assignments[node_id]))
        node = net.node_ids()[0]
        assert agg.states[node].horizon() == rows
        previous = rows
        for _ in range(rows + 2):
            agg.run_round()
            horizon = agg.states[node].horizon()
            assert horizon >= previous - 1  # at most one digit per round
            previous = horizon
        assert agg.states[node].horizon() == 0

    def test_remote_excludes_own_channels(self, populated):
        net, assignments, total_q = populated
        agg = DecentralizedAggregator(
            tables=net.routing_tables(), rows=net.aggregation_rows(), bins=16
        )
        agg.load_local(lambda node_id: summary_of(assignments[node_id]))
        agg.run_to_convergence()
        for node_id in net.node_ids():
            own_q = sum(entry[0].subscribers for entry in assignments[node_id])
            remote = agg.states[node_id].best_remote()
            remote_q = remote.total_subscribers() + remote.sums()[1][-1]
            assert remote_q == pytest.approx(total_q - own_q)

    def test_slack_propagates(self, populated):
        net, assignments, _ = populated
        agg = DecentralizedAggregator(
            tables=net.routing_tables(), rows=net.aggregation_rows(), bins=16
        )
        agg.load_local(lambda node_id: summary_of(assignments[node_id]))
        agg.run_to_convergence()
        expected_orphans = sum(
            1
            for entries in assignments.values()
            for entry in entries
            if entry[1]
        )
        summary = widest(agg, net.node_ids()[3])
        assert summary.sums()[0][-1] == expected_orphans

    def test_reload_refreshes_factors(self, populated):
        """Factor changes (new subscribers) flow through on reload."""
        net, assignments, total_q = populated
        agg = DecentralizedAggregator(
            tables=net.routing_tables(), rows=net.aggregation_rows(), bins=16
        )
        agg.load_local(lambda node_id: summary_of(assignments[node_id]))
        agg.run_to_convergence()

        def doubled(node_id):
            return summary_of(
                (
                    ChannelFactors(
                        subscribers=entry[0].subscribers * 2,
                        size=entry[0].size,
                        update_interval=entry[0].update_interval,
                    ),
                    entry[1],
                    entry[2] * 2,
                )
                for entry in assignments[node_id]
            )

        agg.load_local(doubled)
        for _ in range(net.aggregation_rows() + 1):
            agg.run_round()
        summary = widest(agg, net.node_ids()[0])
        q_counted = summary.total_subscribers() + summary.sums()[1][-1]
        assert q_counted == pytest.approx(2 * total_q)
