"""Routing-table slot assignment and prefix next-hop selection.

Setup state is installed with :meth:`RoutingTable.replace`.  Which
contact the overlay's join files into a slot is checked on a live
overlay here (a filled slot keeps its first entry) and, through churn,
in ``test_incremental_churn.py`` and ``test_golden_join.py``.
"""

from itertools import count

import pytest

from repro.overlay.hashing import node_id_for_address
from repro.overlay.network import OverlayNetwork
from repro.overlay.nodeid import ID_BITS, NodeId
from repro.overlay.routing import RoutingTable


def make_id(*digits16: int) -> NodeId:
    """Build an id from leading base-16 digits (rest zero)."""
    value = 0
    for index, digit in enumerate(digits16):
        value |= digit << (ID_BITS - 4 * (index + 1))
    return NodeId(value)


@pytest.fixture()
def table() -> RoutingTable:
    return RoutingTable(owner=make_id(0xA, 0xB, 0xC), base=16)


class TestSlots:
    def test_slot_for_owner_is_none(self, table):
        assert table.slot_for(table.owner) is None

    def test_slot_row_is_shared_prefix(self, table):
        other = make_id(0xA, 0xB, 0x1)
        assert table.slot_for(other) == (2, 0x1)
        far = make_id(0x3)
        assert table.slot_for(far) == (0, 0x3)

    def test_join_keeps_first_entry_per_slot(self):
        """A newcomer's slot keeps the first contact the join files.

        The join walks ring neighbours nearest first, successor before
        predecessor, then fills what is left from the sorted index
        (the lowest identifier in the slot's region); a filled slot is
        never overwritten by a later candidate.
        """
        net = OverlayNetwork(base=4, leaf_size=4)
        for index in range(24):
            net.add_node(f"slot-{index}")
        ordered = sorted(net.nodes, key=lambda node_id: node_id.value)

        def first_filed(newcomer, candidates):
            table = RoutingTable(owner=newcomer, base=4)
            filed = {}
            for candidate in candidates:
                filed.setdefault(table.slot_for(candidate), candidate)
            return filed

        # A newcomer whose walked neighbours are not what the index
        # fill alone would choose, so the order of filing matters.
        for address in (f"probe-{index}" for index in count()):
            newcomer = node_id_for_address(address)
            walk = [
                neighbour
                for cw, ccw in zip(
                    sorted(ordered, key=newcomer.distance_cw)[:4],
                    sorted(ordered, key=lambda n: n.distance_cw(newcomer))[:4],
                )
                for neighbour in (cw, ccw)
            ]
            expected = first_filed(newcomer, walk + ordered)
            if expected != first_filed(newcomer, ordered):
                break
        table = net.add_node(address).table
        assert {slot: table.entry(*slot) for slot in expected} == expected
        assert len(table) == len(expected)

    def test_replace_overwrites(self, table):
        first = make_id(0x3, 0x1)
        second = make_id(0x3, 0x2)  # same slot (row 0, col 3)
        table.replace(first)
        assert table.replace(second)
        assert table.entry(0, 0x3) == second

    def test_remove_only_exact_match(self, table):
        first = make_id(0x3, 0x1)
        table.replace(first)
        table.remove(make_id(0x3, 0x2))  # same slot, different node
        assert table.entry(0, 0x3) == first
        table.remove(first)
        assert table.entry(0, 0x3) is None

    def test_len_counts_entries(self, table):
        table.replace(make_id(0x1))
        table.replace(make_id(0x2))
        table.replace(make_id(0xA, 0x1))
        assert len(table) == 3

    def test_occupied_rows(self, table):
        table.replace(make_id(0x1))
        table.replace(make_id(0xA, 0xB, 0x1))
        assert table.occupied_rows() == [0, 2]


class TestNextHop:
    def test_next_hop_extends_prefix(self, table):
        contact = make_id(0x7, 0x5)
        table.replace(contact)
        key = make_id(0x7, 0x9)
        hop = table.next_hop(key)
        assert hop == contact
        assert hop.shared_prefix_len(key, 16) > table.owner.shared_prefix_len(
            key, 16
        )

    def test_next_hop_missing_slot(self, table):
        assert table.next_hop(make_id(0x7)) is None

    def test_next_hop_for_own_id(self, table):
        assert table.next_hop(table.owner) is None

    def test_contacts_deduplicated(self, table):
        contact = make_id(0x7)
        table.replace(contact)
        assert table.contacts() == [contact]
