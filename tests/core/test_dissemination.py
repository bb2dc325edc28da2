"""Dissemination planning: message counts and wedge coverage."""

from types import SimpleNamespace

from repro.core.dissemination import deliver_plan, wedge_recipients
from repro.overlay.hashing import channel_id
from repro.overlay.nodeid import NodeId

ROOT, A, B, C, D = (NodeId(n) for n in range(5))
# ROOT -> A -> C, ROOT -> B -> D: two relay chains of depth two.
PLAN = [(ROOT, A, 1), (ROOT, B, 1), (A, C, 2), (B, D, 2)]


def transmit_with(outcomes):
    """A transmit decision that looks each hop up in ``outcomes``."""

    def transmit(sender, recipient):
        copies, delay = outcomes.get((sender, recipient), (1, 0.0))
        return SimpleNamespace(deliveries=copies, delay=delay)

    return transmit


class TestWedgeRecipients:
    def test_plan_covers_wedge(self, small_overlay):
        cid = channel_id("http://plan.example/feed")
        anchor = small_overlay.anchor_of(cid)
        plan = wedge_recipients(
            anchor, small_overlay.routing_tables(), cid, 1,
            small_overlay.base,
        )
        recipients = {recipient for _s, recipient, _d in plan}
        wedge = set(small_overlay.wedge(cid, 1))
        wedge.discard(anchor)
        assert recipients == wedge

    def test_one_message_per_recipient(self, small_overlay):
        cid = channel_id("http://once.example/feed")
        anchor = small_overlay.anchor_of(cid)
        plan = wedge_recipients(
            anchor, small_overlay.routing_tables(), cid, 0,
            small_overlay.base,
        )
        recipients = [recipient for _s, recipient, _d in plan]
        assert len(recipients) == len(set(recipients))
        assert len(recipients) == len(small_overlay) - 1

    def test_depths_increase_from_root(self, small_overlay):
        cid = channel_id("http://depth2.example/feed")
        anchor = small_overlay.anchor_of(cid)
        plan = wedge_recipients(
            anchor, small_overlay.routing_tables(), cid, 0,
            small_overlay.base,
        )
        senders = {anchor}
        for _sender, recipient, depth in sorted(plan, key=lambda p: p[2]):
            assert depth >= 1
            senders.add(recipient)
        # Every sender in the plan must have been reached first.
        for sender, _recipient, _depth in plan:
            assert sender in senders


class TestCost:
    def test_level_zero_costs_one_message_per_member(self, small_overlay):
        cid = channel_id("http://cost.example/feed")
        anchor = small_overlay.anchor_of(cid)
        plan = wedge_recipients(
            anchor, small_overlay.routing_tables(), cid, 0, small_overlay.base
        )
        assert len(plan) == len(small_overlay) - 1

    def test_deeper_level_cheaper(self, small_overlay):
        cid = channel_id("http://cheap.example/feed")
        anchor = small_overlay.anchor_of(cid)
        tables = small_overlay.routing_tables()
        m0, m1 = (
            len(wedge_recipients(anchor, tables, cid, level, small_overlay.base))
            for level in (0, 1)
        )
        assert m1 <= m0


class TestDeliverPlan:
    def test_perfect_path_delivers_every_hop_once(self):
        deliveries, attempted, unreached, delay_to = deliver_plan(PLAN)
        assert deliveries == [(A, 1), (B, 1), (C, 1), (D, 1)]
        assert attempted == len(PLAN)
        assert unreached == set()
        assert delay_to == {}

    def test_lost_hop_darkens_the_relay_subtree(self):
        lossy = transmit_with({(ROOT, A): (0, 0.0)})
        deliveries, attempted, unreached, _ = deliver_plan(PLAN, lossy)
        assert [recipient for recipient, _ in deliveries] == [B, D]
        assert unreached == {A, C}
        assert attempted == 3  # A's hop to C is never sent

    def test_duplicates_are_reported_as_copies(self):
        dup = transmit_with({(ROOT, B): (2, 0.0)})
        deliveries, _, unreached, _ = deliver_plan(PLAN, dup)
        assert dict(deliveries)[B] == 2
        assert unreached == set()

    def test_delay_accumulates_down_the_relay_chain(self):
        slow = transmit_with({(ROOT, A): (1, 0.5), (A, C): (1, 0.25)})
        _, _, _, delay_to = deliver_plan(PLAN, slow)
        assert delay_to == {A: 0.5, C: 0.75}
