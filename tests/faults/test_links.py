"""LinkTable unit semantics: shaping, adaptivity, conservation.

The per-link refinement of the FaultPlane (``repro.faults.links``):
token-bucket bandwidth caps with bounded queues whose overflow drops
are counted apart from loss drops, asymmetric per-link loss overrides
falling back to the plane's global rates, EWMA-RTT adaptive backoff
with window-bounded suppression, backpressure-driven poll shedding
with hysteresis, and the declarative multi-DC topology builder — all
under the same determinism contract as the plane itself.
"""

from __future__ import annotations

import pytest

from repro.faults import (
    FaultPlane,
    LinkSpec,
    LinkTable,
    assign_topology,
    build_link_table,
    validate_links_config,
)


def make(seed=0, loss=0.0, duplicates=0.0):
    """A plane with ``loss``/``duplicates`` raised and a link table."""
    plane = FaultPlane(seed=seed)
    plane.add_loss(loss, duplicate_rate=duplicates)
    table = LinkTable(seed=seed)
    plane.install_links(table)
    return plane, table


@pytest.fixture()
def budget(monkeypatch):
    """Set the per-hop retransmission budget for one test."""
    return lambda retries: monkeypatch.setattr(
        FaultPlane, "retry_budget", retries
    )


@pytest.fixture()
def one_token_buckets(monkeypatch):
    """Capped links admit one same-instant message, not two."""
    monkeypatch.setattr(LinkSpec, "burst", 1.0)


class TestInactiveTable:
    def test_empty_table_is_inactive(self):
        plane, table = make()
        assert not table.active
        assert not plane.active  # an empty table alone activates nothing

    def test_inactive_table_draws_no_randomness(self):
        plane, table = make()
        plane.partition("ghost", members=())  # activates the plane only
        state = table.rng.getstate()
        for _ in range(50):
            plane.transmit("a", "b")
            plane.observe_time(60.0)
        assert table.rng.getstate() == state
        assert not plane.ever_active

    def test_lifted_imposition_deactivates(self):
        plane, table = make()
        handle = table.impose(LinkSpec(loss=0.5), senders=["a"])
        assert table.active and plane.active
        table.lift(handle)
        assert not table.active
        table.lift(handle)  # idempotent

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkSpec(loss=1.5).validate()
        with pytest.raises(ValueError):
            LinkSpec(latency=-1.0).validate()
        with pytest.raises(ValueError):
            LinkSpec(bandwidth=0.0).validate()
        with pytest.raises(ValueError):
            LinkSpec(queue_limit=0).validate()


class TestSpecResolution:
    def test_asymmetric_override_is_directional(self, budget):
        budget(0)
        plane, table = make()
        table.set_link("a", "b", LinkSpec(loss=1.0))
        assert not plane.transmit("a", "b").delivered
        assert plane.transmit("b", "a").delivered  # reverse link clean

    def test_no_override_falls_back_to_global_rates(self):
        """A link the table does not spec uses the plane's uniform
        model bit-for-bit (same generator, same decisions)."""
        plane, table = make(seed=11, loss=0.3, duplicates=0.1)
        table.set_link("x", "y", LinkSpec(latency=1.0))  # activates table
        bare = FaultPlane(seed=11)
        bare.add_loss(0.3, duplicate_rate=0.1)
        routed = [plane.transmit("a", "b") for _ in range(200)]
        direct = [bare.transmit("a", "b") for _ in range(200)]
        assert [(o.deliveries, o.attempts) for o in routed] == [
            (o.deliveries, o.attempts) for o in direct
        ]
        assert all(o.delay == 0.0 for o in routed)

    def test_zero_loss_override_shields_a_lossy_plane(self, budget):
        budget(0)
        plane, table = make(loss=1.0)
        table.set_link("a", "b", LinkSpec(loss=0.0, latency=0.01))
        assert plane.transmit("a", "b").delivered
        assert not plane.transmit("c", "d").delivered  # global applies

    def test_overlapping_impositions_merge_additively(self, budget):
        budget(0)
        plane, table = make()
        table.impose(LinkSpec(loss=0.2, latency=1.0), senders=["a"])
        table.impose(LinkSpec(loss=0.3, latency=0.5), recipients=["b"])
        merged = table.spec_for("a", "b")
        assert merged.loss == pytest.approx(0.5)
        assert merged.latency == pytest.approx(1.5)
        assert table.spec_for("a", "c").loss == pytest.approx(0.2)
        assert table.spec_for("c", "b").loss == pytest.approx(0.3)
        assert table.spec_for("c", "d") is None

    def test_merge_takes_most_restrictive_cap(self):
        table = LinkTable()
        table.impose(
            LinkSpec(bandwidth=5.0, queue_limit=10),
            senders=["a"],
        )
        table.impose(
            LinkSpec(bandwidth=1.0, queue_limit=4),
            recipients=["b"],
        )
        merged = table.spec_for("a", "b")
        assert merged.bandwidth == 1.0
        assert merged.queue_limit == 4

    def test_lift_restores_the_clean_link(self, budget):
        budget(0)
        plane, table = make()
        handle = table.impose(LinkSpec(loss=1.0), senders=["a"])
        assert not plane.transmit("a", "b").delivered
        table.lift(handle)
        table.set_link("x", "y", LinkSpec(latency=1.0))  # keep active
        assert plane.transmit("a", "b").delivered


class TestTokenBucket:
    def test_burst_then_queue_then_overflow(self):
        plane, table = make()
        table.set_link(
            "a", "b", LinkSpec(bandwidth=0.5, queue_limit=3)
        )
        outcomes = [plane.transmit("a", "b") for _ in range(8)]
        # burst=2 ship instantly, 3 queue with increasing wait, the
        # remaining 3 overflow — dropped without retransmission.
        assert [o.delivered for o in outcomes] == [True] * 5 + [False] * 3
        assert [o.delay for o in outcomes[:5]] == [
            0.0, 0.0, 2.0, 4.0, 6.0
        ]
        assert all(o.attempts == 1 for o in outcomes[5:])
        assert plane.counters.queued_messages == 3
        assert plane.counters.queue_drops == 3
        assert plane.counters.messages_dropped == 0  # distinct ledgers
        assert plane.counters.retransmissions == 0

    def test_advance_refills_and_drains(self):
        plane, table = make()
        table.set_link(
            "a", "b", LinkSpec(bandwidth=1.0, queue_limit=8)
        )
        for _ in range(6):
            plane.transmit("a", "b")
        assert table.queue_totals()["backlog"] == 4
        plane.observe_time(3.0)  # refill capped at burst=2 -> 2 drain
        assert table.queue_totals() == {
            "enqueued": 4, "drained": 2, "backlog": 2, "overflowed": 0
        }
        plane.observe_time(100.0)
        totals = table.queue_totals()
        assert totals["backlog"] == 0
        assert totals["drained"] == totals["enqueued"]
        assert table.conservation_errors() == []

    def test_lift_flushes_backlog_on_next_advance(self, one_token_buckets):
        plane, table = make()
        handle = table.impose(
            LinkSpec(bandwidth=0.1, queue_limit=8),
            senders=["a"],
        )
        for _ in range(5):
            plane.transmit("a", "b")
        assert table.queue_totals()["backlog"] == 4
        table.lift(handle)
        plane.observe_time(1.0)  # cap gone: everything ships at once
        assert table.queue_totals()["backlog"] == 0
        assert table.conservation_errors() == []

    def test_conservation_errors_catch_corruption(self):
        plane, table = make()
        table.set_link("a", "b", LinkSpec(bandwidth=0.5, queue_limit=2))
        for _ in range(4):
            plane.transmit("a", "b")
        assert table.conservation_errors() == []
        state = table._states[("a", "b")]
        state.drained += 1  # books a drain that never happened
        assert any(
            "enqueued" in error for error in table.conservation_errors()
        )


class TestAdaptiveBackoff:
    def test_backoff_accrues_delay_on_lossy_links(self, budget):
        budget(3)
        plane, table = make(seed=3)
        table.set_link("a", "b", LinkSpec(loss=0.6, latency=0.5))
        outcomes = [plane.transmit("a", "b") for _ in range(300)]
        retried_ok = [
            o for o in outcomes if o.delivered and o.attempts > 1
        ]
        assert retried_ok  # retries genuinely recover messages
        # Every retried delivery paid at least one backed-off RTO wait
        # on top of the 0.5 s link latency.
        assert all(o.delay > 0.5 for o in retried_ok)
        first_try = [
            o for o in outcomes if o.delivered and o.attempts == 1
        ]
        assert all(0.5 <= o.delay <= 1.0 for o in first_try)  # + jitter=0

    def test_window_exhaustion_suppresses_retries(self, budget, monkeypatch):
        budget(4)
        monkeypatch.setattr(LinkTable, "retry_window", 0.5)
        # The second wait (>= 0.8 s) cannot fit the 0.5 s window.
        monkeypatch.setattr(LinkTable, "rto_min", 0.4)
        plane, table = make(seed=5)
        table.set_link("a", "b", LinkSpec(loss=1.0))
        outcome = plane.transmit("a", "b")
        assert not outcome.delivered
        assert outcome.attempts < 5  # budget not fully burned
        assert plane.counters.retries_suppressed > 0
        assert (
            outcome.attempts - 1 + plane.counters.retries_suppressed
            + plane.counters.messages_dropped - outcome.attempts
            >= 0
        )
        # Accounting: spent + suppressed covers the whole budget.
        assert (
            (outcome.attempts - 1) + plane.counters.retries_suppressed
            == 4
        )

    def test_rto_seeds_from_link_latency_and_adapts(self):
        plane, table = make()
        spec = LinkSpec(latency=2.0)
        table.set_link("a", "b", spec)
        state = table._state(("a", "b"))
        assert table._current_rto(state, spec) == 4.0  # 2x base latency
        plane.transmit("a", "b")  # observes ~2 RTTs of 4.0
        assert state.srtt is not None
        assert table._current_rto(state, spec) >= table.rto_min

    def test_rto_clamped_to_bounds(self, monkeypatch):
        monkeypatch.setattr(LinkTable, "rto_max", 5.0)
        table = LinkTable()
        spec = LinkSpec(latency=100.0)
        state = table._state(("a", "b"))
        assert table._current_rto(state, spec) == 5.0
        fast = LinkSpec(latency=0.001)
        assert table._current_rto(state, fast) == 0.2


@pytest.mark.usefixtures("one_token_buckets")
class TestLoadShedding:
    def fill(self, plane, n):
        for _ in range(n):
            plane.transmit("a", "b")

    def test_hysteresis_shed_and_recover(self):
        plane, table = make()
        table.set_link(
            "a", "b", LinkSpec(bandwidth=1.0, queue_limit=4)
        )
        assert not table.should_shed_poll("a")
        self.fill(plane, 4)  # backlog 3/4 = 0.75 -> shed
        assert table.should_shed_poll("a")
        plane.observe_time(1.0)  # backlog 2/4: above recover, still shed
        assert table.should_shed_poll("a")
        plane.observe_time(3.0)  # backlog 1/4: at the recover floor
        assert not table.should_shed_poll("a")
        assert not table.should_shed_poll("a")  # stays recovered

    def test_only_the_congested_sender_sheds(self):
        plane, table = make()
        table.set_link(
            "a", "b", LinkSpec(bandwidth=1.0, queue_limit=4)
        )
        self.fill(plane, 4)
        assert table.should_shed_poll("a")
        assert not table.should_shed_poll("b")
        assert not table.should_shed_poll("z")  # no outbound state at all

    def test_backpressure_is_max_over_outbound_links(self):
        plane, table = make()
        table.set_link(
            "a", "b", LinkSpec(bandwidth=1.0, queue_limit=4)
        )
        table.set_link(
            "a", "c", LinkSpec(bandwidth=1.0, queue_limit=8)
        )
        self.fill(plane, 4)  # a->b at 3/4
        for _ in range(2):
            plane.transmit("a", "c")  # a->c at 1/8
        assert table.backpressure("a") == pytest.approx(0.75)


class TestDeterminism:
    def decisions(self, seed):
        plane, table = make(seed=seed)
        table.set_link("a", "b", LinkSpec(loss=0.4, latency=0.2, jitter=0.3))
        return [
            (o.deliveries, o.attempts, o.delay)
            for o in (plane.transmit("a", "b") for _ in range(300))
        ]

    def test_same_seed_same_decisions(self):
        assert self.decisions(7) == self.decisions(7)
        assert self.decisions(7) != self.decisions(8)

    def test_table_rng_independent_of_plane_rng(self):
        plane, table = make(seed=1, loss=0.5)
        table.set_link("a", "b", LinkSpec(loss=0.5))
        plane_state = plane.rng.getstate()
        for _ in range(50):
            plane.transmit("a", "b")  # overridden: table's rng only
        assert plane.rng.getstate() == plane_state


class TestMultiDC:
    CONFIG = {
        "topology": "multi-dc",
        "dcs": 3,
        "intra_latency": 0.005,
        "inter_latency": 0.12,
        "jitter_fraction": 0.25,
        "inter_loss": 0.02,
    }

    def test_builder_resolves_intra_vs_inter(self):
        table = build_link_table(self.CONFIG, seed=0)
        assign_topology(table, [f"n{i}" for i in range(6)], dcs=3)
        intra = table.spec_for("n0", "n3")  # both dc-0
        inter = table.spec_for("n0", "n1")  # dc-0 -> dc-1
        assert intra.latency == pytest.approx(0.005)
        assert intra.loss is None  # intra-DC keeps the global rate
        assert inter.latency == pytest.approx(0.12)
        assert inter.loss == pytest.approx(0.02)
        assert inter.jitter == pytest.approx(0.12 * 0.25)

    def test_latency_matrix_overrides_the_uniform_split(self):
        config = {
            "topology": "multi-dc",
            "dcs": 2,
            "latency_matrix": [[0.0, 0.2], [0.05, 0.0]],
        }
        table = build_link_table(config, seed=0)
        assign_topology(table, ["a", "b"], dcs=2)
        assert table.spec_for("a", "b").latency == pytest.approx(0.2)
        assert table.spec_for("b", "a").latency == pytest.approx(0.05)

    def test_unassigned_nodes_get_clean_links(self):
        table = build_link_table(self.CONFIG, seed=0)
        assign_topology(table, ["n0", "n1"], dcs=3)
        assert table.spec_for("n0", "late-joiner") is None
        assert table.spec_for("late-joiner", "n0") is None

    def test_config_validation(self):
        validate_links_config(self.CONFIG)
        with pytest.raises(ValueError, match="topology"):
            validate_links_config({"topology": "star"})
        with pytest.raises(ValueError, match="unknown"):
            validate_links_config(
                {"topology": "multi-dc", "latncy": 1.0}
            )
        with pytest.raises(ValueError, match="dcs"):
            validate_links_config({"topology": "multi-dc", "dcs": 1})
        with pytest.raises(ValueError, match="latency_matrix"):
            validate_links_config(
                {
                    "topology": "multi-dc",
                    "dcs": 3,
                    "latency_matrix": [[0.0, 1.0], [1.0, 0.0]],
                }
            )
        with pytest.raises(ValueError, match="inter_loss"):
            validate_links_config(
                {"topology": "multi-dc", "inter_loss": 1.5}
            )
