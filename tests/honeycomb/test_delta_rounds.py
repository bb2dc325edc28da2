"""Delta-round property suite: mark-driven rounds == eager rounds.

Delta rounds replace the recompute-everything aggregation sweep with
rebuilds of only the radii a pending mark names (or that churn
dropped).
The paper's §3.3 one-interval-staleness semantics must survive **bit
for bit**: after every single round — not just at convergence — the
delta aggregator's states must equal what the eager reference
(``load_local`` + ``_run_round_eager``) computes from the same inputs,
under any interleaving of churn splices, local-factor changes and
rounds.  The work counters must agree too
(they count value changes, not recomputations), which doubles as the
proof that the dirty-local tracking misses nothing.
"""

import gc
import random
import weakref

import pytest

from benchmarks.test_round_delta import synthetic_channels
from repro.honeycomb.aggregation import DecentralizedAggregator
from repro.honeycomb.clusters import ChannelFactors, ClusterSummary
from repro.overlay.network import OverlayNetwork
from tests.honeycomb.conftest import summary_of


def factors_for(node_id, boost: int = 0):
    """Deterministic per-node local summary, scalable by ``boost``."""
    value = node_id.value
    if value % 3 == 0 and not boost:
        return summary_of([], bins=8)
    q = 1 + value % 13 + 10 * boost
    return summary_of(
        [
            (
                ChannelFactors(
                    subscribers=float(q),
                    size=100.0 + value % 900,
                    update_interval=60.0 * (1 + value % 7),
                ),
                value % 5 == 0,
                float(q % 11 + 1),
            )
        ],
        bins=8,
    )


def sparse_factors_for(node_id, boost: int = 0):
    """The ``overlay-4096`` locals: two thirds of the nodes own nothing
    and hand over the shared empty summary, as a channel-less
    :meth:`~repro.core.node.CoronaNode.local_summary` does."""
    if node_id.value % 3 and not boost:
        return ClusterSummary.empty(8)
    return factors_for(node_id, boost + (node_id.value % 3 == 0))


class MirroredPair:
    """A delta and an eager aggregator driven through identical events.

    The eager side is stepped through the reference methods directly;
    ``factors(node_id, boost)`` gives every node's local summary.
    """

    def __init__(self, overlay, bins=8, factors=factors_for):
        self.overlay = overlay
        self.delta = DecentralizedAggregator.for_overlay(overlay, bins=bins)
        self.eager = DecentralizedAggregator.for_overlay(overlay, bins=bins)
        self.factors = factors
        self.boosts: dict = {}

    def local_channels(self, node_id):
        return self.factors(node_id, self.boosts.get(node_id, 0))

    def load(self):
        # The system drives the delta aggregator through the dirty set
        # and the eager one through a full reload; value-identical
        # rebuilds mark nothing either way.
        self.delta.load_dirty_locals(self.local_channels)
        self.eager.load_local(self.local_channels)

    def bump_factors(self, node_id):
        self.boosts[node_id] = self.boosts.get(node_id, 0) + 1
        self.delta.mark_local_dirty(node_id)

    def round(self):
        self.delta.run_round()
        self.eager._run_round_eager()

    def join(self, *addresses):
        joined = [
            self.overlay.add_node(address).node_id for address in addresses
        ]
        rows = self.overlay.aggregation_rows()
        self.delta.add_nodes(joined, rows=rows)
        self.eager.add_nodes(joined, rows=rows)
        return joined

    def crash(self, victims):
        self.overlay.remove_nodes(victims)
        rows = self.overlay.aggregation_rows()
        self.delta.remove_nodes(victims, rows=rows)
        self.eager.remove_nodes(victims, rows=rows)

    def assert_identical(self):
        assert self.delta.states == self.eager.states
        assert self.delta.work.as_dict() == self.eager.work.as_dict()


class TestPerRoundEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_random_interleavings_bit_identical_every_round(self, seed):
        """Any mix of churn, factor changes and rounds: equal states
        and equal work counters after *every* round."""
        rng = random.Random(seed)
        overlay = OverlayNetwork.build(20, base=4, leaf_size=3)
        pair = MirroredPair(overlay)
        minted = 0
        for _step in range(40):
            action = rng.random()
            if action < 0.15 and len(overlay) > 5:
                count = rng.randint(1, 2)
                pair.crash(rng.sample(overlay.node_ids(), count))
            elif action < 0.3:
                minted += 1
                pair.join(f"delta-{seed}-{minted}")
            elif action < 0.55:
                # A factor wave: one or several owners change factors
                # (the flash-crowd shape: many managers dirty at once).
                for node_id in rng.sample(
                    overlay.node_ids(), rng.randint(1, 4)
                ):
                    pair.bump_factors(node_id)
            else:
                pair.load()
                pair.round()
                pair.assert_identical()
        # Drain to convergence and compare once more.
        for _ in range(pair.delta.rows + 2):
            pair.load()
            pair.round()
        pair.assert_identical()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_crash_and_join_waves_bit_identical_every_round(self, seed):
        """Whole waves — several joiners or several victims spliced in
        one call — between rounds of a converged cloud."""
        rng = random.Random(100 + seed)
        overlay = OverlayNetwork.build(40, base=4, leaf_size=3)
        pair = MirroredPair(overlay)
        pair.load()
        for _ in range(pair.delta.rows + 2):
            pair.round()
        minted = 0
        for wave in range(8):
            if wave % 2:
                pair.crash(rng.sample(overlay.node_ids(), rng.randint(2, 5)))
            else:
                addresses = []
                for _ in range(rng.randint(2, 5)):
                    minted += 1
                    addresses.append(f"wave-{seed}-{minted}")
                pair.join(*addresses)
            for node_id in rng.sample(overlay.node_ids(), 2):
                pair.bump_factors(node_id)
            for _ in range(rng.randint(1, 3)):
                pair.load()
                pair.round()
                pair.assert_identical()
        for _ in range(pair.delta.rows + 2):
            pair.load()
            pair.round()
        pair.assert_identical()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sparse_deep_cloud_bit_identical_every_round(self, seed):
        """The ``overlay-4096`` shape, scaled down: at base 4 the
        collision depth sits several rows past the occupied rows, so
        most builds read an empty row; two thirds of the nodes own
        nothing; one join wave and one crash wave land mid-growth."""
        rng = random.Random(200 + seed)
        overlay = OverlayNetwork.build(
            256, base=4, leaf_size=3, address_prefix=f"sparse-{seed}"
        )
        pair = MirroredPair(overlay, factors=sparse_factors_for)
        rows = pair.delta.rows
        shallow = sum(
            max(table.occupied_rows()) + 3 < rows
            for table in overlay.routing_tables().values()
        )
        assert shallow > 0.75 * len(overlay)
        owners = [
            node_id for node_id in overlay.node_ids() if node_id.value % 3 == 0
        ]
        assert len(owners) < len(overlay) / 2
        for _ in range(3):
            pair.load()
            pair.round()
            pair.assert_identical()
        pair.join(*(f"sparse-{seed}-joiner-{n}" for n in range(6)))
        for node_id in rng.sample(overlay.node_ids(), 3):
            pair.bump_factors(node_id)
        for _ in range(2):
            pair.load()
            pair.round()
            pair.assert_identical()
        pair.crash(rng.sample(overlay.node_ids(), 8))
        for _ in range(pair.delta.rows + 2):
            pair.load()
            pair.round()
            pair.assert_identical()
        assert all(
            state.horizon() == 0 for state in pair.delta.states.values()
        )

    def test_steady_state_rounds_do_no_summary_work(self):
        """Once converged with stable factors, delta rounds are free
        and commit nothing — yet stay equal to the eager sweep."""
        overlay = OverlayNetwork.build(32, base=4, leaf_size=3)
        pair = MirroredPair(overlay)
        pair.load()
        for _ in range(pair.delta.rows + 2):
            pair.round()
        pair.assert_identical()
        before = dict(pair.delta.work.as_dict())
        for _ in range(5):
            pair.load()
            pair.round()
        pair.assert_identical()
        assert pair.delta.work.as_dict() == before  # zero value changes

    def test_factor_change_propagates_one_digit_per_round(self):
        """A single dirty owner re-dirties exactly the §3.3 wave: its
        change reaches wider radii one digit per round, and the
        per-round dirtied counts match the eager reference."""
        overlay = OverlayNetwork.build(24, base=4, leaf_size=3)
        pair = MirroredPair(overlay)
        pair.load()
        for _ in range(pair.delta.rows + 2):
            pair.round()
        pair.assert_identical()
        victim = overlay.node_ids()[1]
        pair.bump_factors(victim)
        rounds_until_quiet = 0
        for _ in range(pair.delta.rows + 3):
            before = pair.delta.work.summaries_rebuilt
            pair.load()
            pair.round()
            pair.assert_identical()
            if pair.delta.work.summaries_rebuilt == before:
                break
            rounds_until_quiet += 1
        # The wave dies within rows+1 rounds (one digit per round).
        assert rounds_until_quiet <= pair.delta.rows + 1
        after = dict(pair.delta.work.as_dict())
        pair.load()
        pair.round()
        pair.assert_identical()
        assert pair.delta.work.as_dict() == after


class TestDirtyLocalBookkeeping:
    def test_unmarked_equal_rebuild_advances_no_epoch(self):
        """Reloading identical factors dirties nothing in either mode."""
        overlay = OverlayNetwork.build(12, base=4, leaf_size=2)
        agg = DecentralizedAggregator.for_overlay(overlay, bins=8)
        agg.load_local(factors_for)
        rebuilt = agg.work.summaries_rebuilt
        agg.load_local(factors_for)  # same values again
        assert agg.work.summaries_rebuilt == rebuilt

    def test_mark_local_dirty_scopes_the_reload(self):
        overlay = OverlayNetwork.build(12, base=4, leaf_size=2)
        agg = DecentralizedAggregator.for_overlay(overlay, bins=8)
        agg.load_dirty_locals(factors_for)  # everyone starts dirty
        boost = {}

        def channels(node_id):
            return factors_for(node_id, boost.get(node_id, 0))

        target = overlay.node_ids()[0]
        boost[target] = 1
        agg.mark_local_dirty(target)
        rebuilt = agg.work.summaries_rebuilt
        agg.load_dirty_locals(channels)
        assert agg.work.summaries_rebuilt == rebuilt + 1
        # The dirty set drained: a second pass rebuilds nothing.
        agg.load_dirty_locals(channels)
        assert agg.work.summaries_rebuilt == rebuilt + 1

    def test_mark_unknown_node_is_ignored(self):
        overlay = OverlayNetwork.build(6, base=4, leaf_size=2)
        agg = DecentralizedAggregator.for_overlay(overlay, bins=8)
        ghost = overlay.add_node("ghost").node_id
        overlay.remove_nodes([ghost])
        agg.mark_local_dirty(ghost)  # never aggregated: no-op
        agg.load_dirty_locals(factors_for)
        assert ghost not in agg.states


def converged(overlay, local_channels, bins):
    agg = DecentralizedAggregator.for_overlay(overlay, bins=bins)
    agg.load_local(local_channels)
    agg.run_to_convergence()
    return agg


class TestSharedEmptySummaries:
    def test_empty_radii_share_one_object(self):
        """Every empty radius is the shared empty, and the summaries
        held are at most one object per non-empty entry plus it."""
        overlay = OverlayNetwork.build(
            1024, base=16, leaf_size=4, address_prefix="delta"
        )
        agg = converged(overlay, synthetic_channels, bins=16)
        empty = ClusterSummary.empty(16)
        held = [
            summary
            for state in agg.states.values()
            for table in (state.summaries, state.remote)
            for summary in table.values()
        ]
        non_empty = 0
        for summary in held:
            if summary == empty:
                assert summary is empty
            else:
                non_empty += 1
        assert non_empty < len(held)
        assert len({id(summary) for summary in held}) <= non_empty + 1


class TestPendingMarks:
    def test_marks_reach_only_the_owner_and_its_readers(self):
        overlay = OverlayNetwork.build(64, base=4, leaf_size=3)
        agg = converged(overlay, factors_for, bins=8)
        assert not any(state.pending for state in agg.states.values())
        rows = agg.rows
        owner = overlay.node_ids()[7]
        # Readers of the owner's local summary are the nodes that hold
        # it as a contact in the row their radius rows-1 is built from.
        expected_readers = {
            node_id
            for node_id, table in overlay.routing_tables().items()
            if owner in table.row(rows - 1).values()
        }
        agg.mark_local_dirty(owner)
        agg.load_dirty_locals(lambda node_id: factors_for(node_id, 1))
        marked = {
            node_id
            for node_id, state in agg.states.items()
            if state.pending
        }
        assert marked == expected_readers | {owner}
        for node_id in marked:
            assert agg.states[node_id].pending == {rows - 1}
        # The wave drains: once values settle, nothing stays marked.
        for _ in range(rows + 2):
            agg.run_round()
        assert not any(state.pending for state in agg.states.values())

    def test_departed_states_are_unreachable(self):
        """Survivors name readers by identifier value, so a removed
        node's state is garbage as soon as the aggregator drops it."""
        overlay = OverlayNetwork.build(48, base=4, leaf_size=3)
        agg = converged(overlay, factors_for, bins=8)
        victims = overlay.node_ids()[5:11]
        refs = [weakref.ref(agg.states[node_id]) for node_id in victims]
        overlay.remove_nodes(victims)
        agg.remove_nodes(victims, rows=overlay.aggregation_rows())
        for _ in range(agg.rows + 2):
            agg.load_dirty_locals(factors_for)
            agg.run_round()
        gc.collect()
        assert all(ref() is None for ref in refs)
