"""Churn equivalence: incremental aggregation == from-scratch rebuild.

The incremental churn paths splice joins and failures into existing
aggregation state instead of reconstructing it.  The paper's
correctness argument (§3.3) is that aggregation is self-repairing:
every round recomputes each radius from the previous round's snapshot,
so any membership event is fully absorbed within ``rows`` rounds.
These tests assert the strong form of that claim: after *any* seeded
sequence of joins and crashes, loading locals and running ``rows``
rounds on the incrementally-maintained aggregator yields summaries
**bit-for-bit identical** to a from-scratch rebuild driven the same
way (dataclass equality compares every cluster sum exactly).  The
rebuild is a fresh :meth:`DecentralizedAggregator.for_overlay` over the
same overlay, so the system keeps one churn path and the oracle needs
no second one.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.config import CoronaConfig
from repro.core.system import CoronaSystem
from repro.honeycomb.aggregation import (
    DecentralizedAggregator,
    deepest_shared_prefix,
)
from repro.honeycomb.clusters import ChannelFactors
from repro.overlay.network import OverlayNetwork
from repro.overlay.nodeid import ID_BITS, ID_SPACE, NodeId, bits_per_digit
from repro.simulation.webserver import WebServerFarm
from tests.honeycomb.conftest import summary_of


def synthetic_channels(node_id):
    """Deterministic per-node local summary (some nodes own none)."""
    value = node_id.value
    if value % 3 == 0:
        return summary_of([], bins=8)
    return summary_of(
        [
            (
                ChannelFactors(
                    subscribers=1 + value % 13,
                    size=100.0 + value % 900,
                    update_interval=60.0 * (1 + value % 7),
                ),
                value % 5 == 0,  # orphan flag
                float(1 + value % 11),
            )
        ],
        bins=8,
    )


def converged_states(aggregator, local_channels):
    """Load locals and run ``rows`` rounds; return the states dict."""
    aggregator.load_local(local_channels)
    for _ in range(aggregator.rows):
        aggregator.run_round()
    return aggregator.states


def assert_equivalent(incremental, overlay, local_channels):
    """Incremental + rows rounds must equal rebuild + rows rounds."""
    rebuilt = DecentralizedAggregator.for_overlay(
        overlay, bins=incremental.bins
    )
    assert incremental.rows == rebuilt.rows
    assert set(incremental.states) == set(rebuilt.states)
    left = converged_states(incremental, local_channels)
    right = converged_states(rebuilt, local_channels)
    assert left == right  # dataclass equality: exact float sums


class TestAggregatorChurnEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_randomized_join_crash_sequences(self, seed):
        """Seeded random churn, checked against a rebuild at each step."""
        rng = random.Random(seed)
        overlay = OverlayNetwork.build(24, base=4, leaf_size=3)
        aggregator = DecentralizedAggregator.for_overlay(overlay, bins=8)
        minted = 0
        for step in range(12):
            if rng.random() < 0.5 and len(overlay) > 4:
                count = rng.randint(1, min(3, len(overlay) - 4))
                victims = rng.sample(overlay.node_ids(), count)
                overlay.remove_nodes(victims)
                aggregator.remove_nodes(
                    victims, rows=overlay.aggregation_rows()
                )
            else:
                count = rng.randint(1, 3)
                joined = []
                for _ in range(count):
                    minted += 1
                    joined.append(
                        overlay.add_node(f"eq-{seed}-{minted}").node_id
                    )
                aggregator.add_nodes(
                    joined, rows=overlay.aggregation_rows()
                )
            if step % 3 == 2:
                assert_equivalent(aggregator, overlay, synthetic_channels)
        assert_equivalent(aggregator, overlay, synthetic_channels)

    def test_equivalence_holds_with_interleaved_rounds(self):
        """Running rounds *between* churn events must not break it."""
        overlay = OverlayNetwork.build(20, base=4, leaf_size=3)
        aggregator = DecentralizedAggregator.for_overlay(overlay, bins=8)
        rng = random.Random(9)
        for index in range(6):
            aggregator.load_local(synthetic_channels)
            aggregator.run_round()
            victim = rng.choice(overlay.node_ids())
            overlay.remove_nodes([victim])
            aggregator.remove_nodes([victim], rows=overlay.aggregation_rows())
            joined = overlay.add_node(f"mid-{index}").node_id
            aggregator.add_nodes([joined], rows=overlay.aggregation_rows())
        assert_equivalent(aggregator, overlay, synthetic_channels)


@st.composite
def value_and_wave(draw):
    """An identifier and a wave clustered around it at random depths,
    so deep shared prefixes (and exact hits) actually occur."""
    value = draw(st.integers(0, ID_SPACE - 1))
    wave = draw(
        st.lists(
            st.builds(
                lambda shift, noise: value ^ (noise >> shift),
                st.integers(0, ID_BITS),
                st.integers(0, ID_SPACE - 1),
            ),
            min_size=1,
            max_size=24,
        )
    )
    return value, wave


class TestHorizonTrimming:
    """Survivors keep summaries of untouched prefix regions only."""

    @settings(max_examples=300, deadline=None)
    @given(
        drawn=value_and_wave(), base=st.sampled_from([2, 4, 16, 32, 256])
    )
    def test_deepest_prefix_by_bisect_matches_brute_force(self, drawn, base):
        value, wave = drawn
        expected = max(
            NodeId(value).shared_prefix_len(NodeId(other), base)
            for other in wave
        )
        digit_bits = bits_per_digit(base)
        got = deepest_shared_prefix(value, sorted(wave), digit_bits)
        assert got == expected

    def test_removal_trims_only_the_changed_region(self):
        overlay = OverlayNetwork.build(16, base=4, leaf_size=3)
        aggregator = DecentralizedAggregator.for_overlay(overlay, bins=8)
        states = converged_states(aggregator, synthetic_channels)
        victim = overlay.node_ids()[5]
        spl = {
            node_id: node_id.shared_prefix_len(victim, overlay.base)
            for node_id in overlay.node_ids()
            if node_id != victim
        }
        rows_before = aggregator.rows
        overlay.remove_nodes([victim])
        aggregator.remove_nodes([victim])
        assert victim not in aggregator.states
        for node_id, prefix in spl.items():
            state = states[node_id]
            for radius in range(rows_before + 1):
                present = radius in state.summaries
                if radius <= min(prefix, rows_before - 1):
                    assert not present, (
                        f"radius {radius} of {node_id} covered the victim "
                        "and must be dropped"
                    )
                elif radius >= rows_before or radius > prefix:
                    # untouched region (or the local summary): kept
                    assert present

    def test_join_trims_only_the_changed_region(self):
        overlay = OverlayNetwork.build(16, base=4, leaf_size=3)
        aggregator = DecentralizedAggregator.for_overlay(overlay, bins=8)
        converged_states(aggregator, synthetic_channels)
        rows_before = aggregator.rows
        joined = overlay.add_node("trim-joiner").node_id
        aggregator.add_nodes([joined])
        assert aggregator.states[joined].summaries == {}
        for node_id, state in aggregator.states.items():
            if node_id == joined:
                continue
            prefix = node_id.shared_prefix_len(joined, overlay.base)
            for radius in range(rows_before + 1):
                present = radius in state.summaries
                if radius <= min(prefix, rows_before - 1):
                    assert not present
                elif radius >= rows_before or radius > prefix:
                    assert present

    def test_add_existing_node_rejected(self):
        overlay = OverlayNetwork.build(4, base=4, leaf_size=2)
        aggregator = DecentralizedAggregator.for_overlay(overlay, bins=8)
        with pytest.raises(ValueError):
            aggregator.add_nodes([overlay.node_ids()[0]])

    def test_remove_unknown_node_rejected(self):
        overlay = OverlayNetwork.build(4, base=4, leaf_size=2)
        aggregator = DecentralizedAggregator.for_overlay(overlay, bins=8)
        ghost = overlay.add_node("ghost").node_id
        overlay.remove_nodes([ghost])
        aggregator_fresh = DecentralizedAggregator.for_overlay(overlay)
        with pytest.raises(KeyError):
            aggregator_fresh.remove_nodes([ghost])

    def test_set_rows_rekeys_local_summaries(self):
        overlay = OverlayNetwork.build(8, base=4, leaf_size=2)
        aggregator = DecentralizedAggregator.for_overlay(overlay, bins=8)
        aggregator.load_local(synthetic_channels)
        rows = aggregator.rows
        locals_before = {
            node_id: state.summaries[rows]
            for node_id, state in aggregator.states.items()
        }
        aggregator.set_rows(rows + 2)
        for node_id, state in aggregator.states.items():
            assert state.rows == rows + 2
            assert state.summaries == {rows + 2: locals_before[node_id]}


class TestSystemChurnEquivalence:
    """The full system's live aggregator stays rebuild-equivalent."""

    @pytest.mark.parametrize("seed", [11, 12])
    def test_system_aggregator_matches_rebuild_after_churn(
        self, seed, fast_config
    ):
        farm = WebServerFarm(seed=seed)
        system = CoronaSystem(
            n_nodes=32, config=fast_config, fetcher=farm, seed=seed
        )
        client = 0
        for rank in range(8):
            url = f"http://eq{rank}.example/rss"
            farm.host(url, update_interval=120.0, target_bytes=500)
            for _ in range(6):
                system.subscribe(url, f"client-{client}", now=0.0)
                client += 1
        rng = random.Random(seed)
        now = 0.0
        for step in range(6):
            now += 60.0
            system.crash_nodes(rng.randint(1, 2), now=now, rng=rng)
            system.join_nodes(rng.randint(1, 2), now=now)
            if step % 2 == 1:
                system.run_maintenance_round(now)
        def local_channels(node_id):
            return system.nodes[node_id].local_summary()

        assert_equivalent(system.aggregator, system.overlay, local_channels)

    def test_system_transfers_state_through_manager_crash_and_join(
        self, fast_config
    ):
        """A manager crash wave then a join wave lose no subscriber."""
        farm = WebServerFarm(seed=2)
        system = CoronaSystem(
            n_nodes=24, config=fast_config, fetcher=farm, seed=2
        )
        for rank in range(6):
            url = f"http://wave{rank}.example/rss"
            farm.host(url, update_interval=120.0, target_bytes=500)
            for client in range(5):
                system.subscribe(url, f"c{rank}-{client}", now=0.0)
        system.crash_nodes(4, now=10.0, target="managers")
        system.join_nodes(3, now=20.0)
        registered = sum(
            system.nodes[manager].registry.count(url)
            for url, manager in system.managers.items()
        )
        assert registered == 30
        assert set(system.aggregator.states) == set(system.nodes)

    def test_delta_system_matches_rebuild_after_churn(self, fast_config):
        """The delta-round system aggregator is also rebuild-equivalent."""
        farm = WebServerFarm(seed=21)
        system = CoronaSystem(
            n_nodes=24,
            config=fast_config,
            fetcher=farm,
            seed=21,
            delta_rounds=True,
        )
        for rank in range(5):
            url = f"http://deq{rank}.example/rss"
            farm.host(url, update_interval=120.0, target_bytes=500)
            for client in range(4):
                system.subscribe(url, f"d{rank}-{client}", now=0.0)
        rng = random.Random(21)
        now = 0.0
        for _ in range(4):
            now += 60.0
            system.crash_nodes(1, now=now, rng=rng)
            system.join_nodes(1, now=now)
            system.run_maintenance_round(now)

        def local_channels(node_id):
            return system.nodes[node_id].local_summary()

        assert_equivalent(system.aggregator, system.overlay, local_channels)


class TestDeltaEagerSystemEquivalence:
    """delta_rounds=True vs the eager reference: bit-identical metrics.

    Two complete systems — one with delta rounds, one eager — are
    driven through the same seeded interleaving of joins, crashes,
    flash-crowd subscription waves, unsubscribes, polls (real update
    detections moving the interval estimators) and maintenance rounds.
    Every observable — aggregation states, channel levels, protocol
    counters and the value-change work counters — must agree exactly;
    the work-counter match is also the proof that the dirty-local
    marking in :class:`CoronaSystem` is complete (a missed mark shows
    up as the eager side counting a change the delta side skipped).
    """

    def build(self, delta, seed, fast_config):
        farm = WebServerFarm(seed=seed)
        system = CoronaSystem(
            n_nodes=32,
            config=fast_config,
            fetcher=farm,
            seed=seed,
            delta_rounds=delta,
        )
        for rank in range(8):
            url = f"http://mix{rank}.example/rss"
            farm.host(url, update_interval=90.0, target_bytes=400)
        return system, farm

    def drive(self, system, farm, seed, horizon_steps=18):
        rng = random.Random(seed)
        client = 0
        now = 0.0
        for url_rank in range(8):
            url = f"http://mix{url_rank}.example/rss"
            for _ in range(4):
                system.subscribe(url, f"c{client}", now=0.0)
                client += 1
        for step in range(horizon_steps):
            now += 60.0
            action = rng.random()
            if action < 0.2 and len(system.nodes) > 6:
                system.crash_nodes(
                    rng.randint(1, 2), now=now, rng=rng,
                    target=rng.choice(["any", "managers"]),
                )
            elif action < 0.4:
                system.join_nodes(rng.randint(1, 2), now=now)
            elif action < 0.6:
                # Flash crowd: a burst of subscriptions on one channel.
                url = f"http://mix{rng.randrange(8)}.example/rss"
                for _ in range(rng.randint(5, 15)):
                    system.subscribe(url, f"crowd-{client}", now=now)
                    client += 1
            elif action < 0.7:
                url = f"http://mix{rng.randrange(8)}.example/rss"
                system.unsubscribe(url, f"c{rng.randrange(max(client, 1))}")
            farm.advance_to(now)
            system.poll_due(now)
            if step % 2 == 1:
                system.run_maintenance_round(now)
        return system

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_metrics_bit_identical(self, seed, fast_config):
        delta_sys, delta_farm = self.build(True, seed, fast_config)
        eager_sys, eager_farm = self.build(False, seed, fast_config)
        self.drive(delta_sys, delta_farm, seed)
        self.drive(eager_sys, eager_farm, seed)
        assert delta_sys.counters == eager_sys.counters
        assert delta_sys.aggregator.states == eager_sys.aggregator.states
        assert (
            delta_sys.aggregator.work.as_dict()
            == eager_sys.aggregator.work.as_dict()
        )
        assert set(delta_sys.managers) == set(eager_sys.managers)
        for url in delta_sys.managers:
            assert delta_sys.channel_level(url) == eager_sys.channel_level(
                url
            ), url
        assert delta_farm.total_polls == eager_farm.total_polls
        assert delta_farm.total_updates == eager_farm.total_updates
