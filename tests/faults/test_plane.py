"""FaultPlane unit semantics: determinism, loss, partitions, budget."""

import pytest

from repro.faults import FaultPlane, LinkSpec, LinkTable


def lossy(seed=0, loss=0.0, duplicates=0.0):
    """A plane with ``loss``/``duplicates`` raised as a timeline does."""
    plane = FaultPlane(seed=seed)
    plane.add_loss(loss, duplicate_rate=duplicates)
    return plane


@pytest.fixture()
def budget(monkeypatch):
    """Set the per-hop retransmission budget for one test."""
    return lambda retries: monkeypatch.setattr(
        FaultPlane, "retry_budget", retries
    )


class TestInactivePlane:
    def test_none_is_inactive(self):
        plane = FaultPlane()
        assert not plane.active
        assert not plane.ever_active

    def test_inactive_transmit_is_clean_and_shared(self):
        plane = FaultPlane()
        first = plane.transmit("a", "b")
        second = plane.transmit("b", "c")
        assert first is second  # the constant outcome: no allocation
        assert first.deliveries == 1
        assert first.attempts == 1

    def test_inactive_plane_draws_no_randomness(self):
        plane = FaultPlane(seed=3)
        state = plane.rng.getstate()
        for _ in range(50):
            plane.transmit("a", "b")
            plane.poll_attempt("a")
        assert plane.rng.getstate() == state

    def test_zero_rate_active_plane_draws_no_randomness(self):
        """A partition that separates nobody and zero rates: active,
        but still deterministic-clean (the equivalence contract)."""
        plane = FaultPlane(seed=3)
        plane.partition("ghost", members=())
        assert plane.active
        state = plane.rng.getstate()
        outcome = plane.transmit("a", "b")
        assert outcome.deliveries == 1
        assert plane.poll_attempt("a")
        assert plane.rng.getstate() == state
        assert not plane.ever_active

    def test_configured_but_harmless_plane_not_ever_active(self):
        plane = lossy(seed=1, loss=0.5)
        assert plane.active
        assert not plane.ever_active  # nothing dropped yet


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        def decisions(seed):
            plane = lossy(seed=seed, loss=0.3, duplicates=0.2)
            return [
                (plane.transmit("a", "b").deliveries,
                 plane.transmit("a", "b").attempts)
                for _ in range(200)
            ]

        assert decisions(7) == decisions(7)
        assert decisions(7) != decisions(8)


class TestLossAndRetry:
    def test_retry_budget_recovers_most_messages(self, budget):
        budget(3)
        plane = lossy(seed=5, loss=0.3)
        outcomes = [plane.transmit("a", "b") for _ in range(2000)]
        lost = sum(1 for o in outcomes if not o.delivered)
        # P(all 4 attempts drop) = 0.3^4 ≈ 0.8%.
        assert lost / len(outcomes) < 0.05
        assert plane.counters.retransmissions > 0
        assert plane.counters.messages_dropped > 0
        assert plane.ever_active

    def test_zero_budget_drops_at_loss_rate(self, budget):
        budget(0)
        plane = lossy(seed=5, loss=0.5)
        outcomes = [plane.transmit("a", "b") for _ in range(2000)]
        lost = sum(1 for o in outcomes if not o.delivered)
        assert 0.4 < lost / len(outcomes) < 0.6
        assert plane.counters.retransmissions == 0

    def test_duplicates_counted(self):
        plane = lossy(seed=5, duplicates=0.5)
        copies = [plane.transmit("a", "b").deliveries
                  for _ in range(400)]
        assert 2 in copies
        assert plane.counters.messages_duplicated == sum(
            1 for c in copies if c == 2
        )
        # Duplicates alone never require repair.
        assert not plane.ever_active

    def test_overlapping_events_past_full_loss_restore_exactly(self, budget):
        """Two 0.6-rate events overlap (sum past 1.0): while both are
        active everything drops; when one ends the survivor's exact
        0.6 remains — the accumulator must not clamp on add."""
        budget(0)
        plane = FaultPlane(seed=9)
        plane.add_loss(0.6)
        plane.add_loss(0.6)
        outcomes = [plane.transmit("a", "b") for _ in range(100)]
        assert not any(o.delivered for o in outcomes)  # saturated
        plane.remove_loss(0.6)
        assert plane.effective_loss_rate() == 0.6
        # budget 0: a poll lands with probability 1 - loss, at the
        # survivor's exact rate (band: 4 standard errors).
        draws = 4000
        landed = sum(plane.poll_attempt("a") for _ in range(draws))
        assert abs(landed / draws - 0.4) < 4 * (0.4 * 0.6 / draws) ** 0.5

    def test_add_remove_loss_composes(self):
        plane = FaultPlane(seed=1)
        plane.add_loss(0.05, duplicate_rate=0.01)
        plane.add_loss(0.10)
        assert plane.loss_rate == pytest.approx(0.15)
        plane.remove_loss(0.05, duplicate_rate=0.01)
        assert plane.loss_rate == pytest.approx(0.10)
        assert plane.duplicate_rate == 0.0
        plane.remove_loss(0.10)
        assert not plane.active

    def test_over_removal_clamps_at_zero(self):
        plane = lossy(seed=3, loss=0.2, duplicates=0.1)
        plane.remove_loss(0.5, duplicate_rate=0.3)
        assert plane.loss_rate == 0.0
        assert plane.duplicate_rate == 0.0
        assert not plane.active


class TestPartitions:
    def test_partition_kills_crossing_links_only(self, budget):
        budget(1)
        plane = FaultPlane(seed=2)
        plane.partition("island", members=["a", "b"])
        assert not plane.transmit("a", "c").delivered
        assert not plane.transmit("c", "a").delivered
        assert plane.transmit("a", "b").delivered  # both inside
        assert plane.transmit("c", "d").delivered  # both outside
        assert plane.ever_active
        # Every attempt across the cut is charged.
        assert plane.counters.messages_dropped == 4
        assert plane.counters.retransmissions == 2

    def test_heal_restores_links(self):
        plane = FaultPlane(seed=2)
        plane.partition("island", members=["a"])
        assert not plane.transmit("a", "b").delivered
        plane.heal("island")
        assert plane.transmit("a", "b").delivered
        assert not plane.active

    def test_duplicate_partition_name_rejected(self):
        plane = FaultPlane(seed=2)
        plane.partition("island", members=["a"])
        with pytest.raises(ValueError):
            plane.partition("island", members=["b"])
        with pytest.raises(ValueError):
            plane.heal("no-such-island")

    def test_server_isolation_fails_polls_deterministically(self):
        plane = FaultPlane(seed=2)
        plane.partition(
            "island", members=["a"], isolates_servers=True
        )
        assert not plane.poll_attempt("a")
        assert plane.poll_attempt("b")
        assert plane.counters.failed_polls == 1

    def test_only_server_isolating_islands_fail_polls(self):
        plane = FaultPlane(seed=2)
        plane.partition("p1", members=["a"])
        plane.partition("p2", members=["b"], isolates_servers=True)
        # A peers-only island cuts overlay links, not the servers.
        assert plane.poll_attempt("a")
        assert not plane.poll_attempt("b")
        plane.heal("p2")
        assert plane.poll_attempt("b")
        assert plane.counters.failed_polls == 1


class TestTransmitEdgeCases:
    def test_partition_preempts_duplication(self):
        """A partitioned link is deterministically dead: no loss roll,
        no duplicate roll, no randomness — even with both rates hot."""
        plane = lossy(seed=8, loss=0.5, duplicates=1.0)
        plane.partition("cut", members=["a"])
        state = plane.rng.getstate()
        outcome = plane.transmit("a", "b")
        assert outcome.deliveries == 0
        assert plane.rng.getstate() == state
        assert plane.counters.messages_duplicated == 0
        # The same endpoints inside the island still duplicate.
        assert plane.transmit("a", "a").deliveries == 2

    def test_exhausted_budget_accounting(self, budget):
        """Full-budget failure: every attempt is charged as a drop,
        every re-send as a retransmission, and attempts == budget+1."""
        budget(3)
        plane = lossy(seed=8, loss=1.0)
        outcome = plane.transmit("a", "b")
        assert outcome.deliveries == 0
        assert outcome.attempts == 4
        assert plane.counters.messages_dropped == 4
        assert plane.counters.retransmissions == 3
        # Across many partial recoveries the ledgers stay conserved:
        # drops == failed attempts, retransmissions == attempts - 1.
        half = lossy(seed=8, loss=0.5)
        outcomes = [half.transmit("a", "b") for _ in range(500)]
        attempts = sum(o.attempts for o in outcomes)
        delivered = sum(1 for o in outcomes if o.delivered)
        assert half.counters.messages_dropped == attempts - delivered
        assert half.counters.retransmissions == attempts - len(outcomes)

    def test_link_override_dispatch_and_fallback(self, budget):
        """The transmit dispatcher: an active table owns spec'd links,
        unspec'd links fall back to the global uniform model, and an
        inactive table never reaches the table path at all."""
        budget(0)
        plane = lossy(seed=12, loss=1.0)
        table = LinkTable(seed=12)
        plane.install_links(table)
        # Inactive table: uniform path (global loss kills everything).
        assert not plane.transmit("a", "b").delivered
        table.set_link("a", "b", LinkSpec(loss=0.0, latency=0.5))
        # Spec'd link: override shields it from the global rate.
        shielded = plane.transmit("a", "b")
        assert shielded.delivered
        assert shielded.delay == pytest.approx(0.5)
        # Unspec'd link through an *active* table: global rate applies,
        # and the uniform path reports no per-link delay.
        fallback = plane.transmit("c", "d")
        assert not fallback.delivered
        assert fallback.delay == 0.0


class TestPolls:
    def test_poll_success_probability(self, budget):
        """Loss is re-rolled per attempt, so a poll fails only when
        all ``budget + 1`` attempts drop: frequency ``loss^(budget+1)``
        within 4 standard errors over the seeded draws."""
        draws = 4000
        for loss, retries in ((0.5, 2), (0.3, 1), (0.7, 0), (0.8, 3)):
            budget(retries)
            plane = lossy(seed=1, loss=loss)
            failed = sum(
                not plane.poll_attempt("n") for _ in range(draws)
            )
            expected = loss ** (retries + 1)
            band = 4 * (expected * (1.0 - expected) / draws) ** 0.5
            assert abs(failed / draws - expected) < band, (loss, retries)
            assert plane.counters.failed_polls == failed

    def test_lossy_polls_sometimes_fail(self, budget):
        budget(0)
        plane = lossy(seed=4, loss=0.7)
        results = [plane.poll_attempt("n") for _ in range(500)]
        assert any(results) and not all(results)
        assert plane.counters.failed_polls == results.count(False)

