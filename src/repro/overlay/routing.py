"""Prefix routing tables.

The entry in row ``i``, column ``j`` of a node's routing table points
to a node whose identifier shares the first ``i`` digits with this
node's identifier and has ``j`` as digit ``i`` (the paper's §3,
"Analytical Modeling").  The table therefore defines, from each node, a
directed acyclic graph that reaches any other node in ``log_b N`` hops
— the structure Corona reuses both to spread polling-level changes
down a channel's wedge and to disseminate diffs.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.overlay.nodeid import NodeId, digits_per_id


@dataclass
class RoutingTable:
    """A Pastry routing table for ``owner`` with digit base ``base``.

    Rows are indexed by shared-prefix length, columns by the next
    digit.  The owner's own column in each row is conceptually the
    owner itself and is kept empty.
    """

    owner: NodeId
    base: int
    _rows: dict[int, dict[int, NodeId]] = field(
        default_factory=dict, init=False
    )

    @property
    def nrows(self) -> int:
        """Number of rows (one per identifier digit)."""
        return digits_per_id(self.base)

    # ------------------------------------------------------------------
    def slot_for(self, other: NodeId) -> tuple[int, int] | None:
        """Return the (row, column) where ``other`` belongs, or None.

        ``None`` means ``other`` is the owner itself (infinite prefix).
        """
        if other == self.owner:
            return None
        row = self.owner.shared_prefix_len(other, self.base)
        col = other.digit(row, self.base)
        return row, col

    def remove(self, failed: NodeId) -> bool:
        """Erase a failed node from its slot; True if it was present."""
        slot = self.slot_for(failed)
        if slot is None:
            return False
        row, col = slot
        bucket = self._rows.get(row)
        if bucket and bucket.get(col) == failed:
            del bucket[col]
            return True
        return False

    # ------------------------------------------------------------------
    def entry(self, row: int, col: int) -> NodeId | None:
        """Return the contact at (row, col), if any."""
        return self._rows.get(row, {}).get(col)

    def row(self, row: int) -> Mapping[int, NodeId]:
        """One routing-table row (column -> contact): live, not a copy."""
        return self._rows.get(row, {})

    def occupied_rows(self) -> list[int]:
        """Rows holding at least one contact, ascending."""
        return sorted(row for row, bucket in self._rows.items() if bucket)

    def contacts(self) -> list[NodeId]:
        """All distinct contacts in the table."""
        seen: dict[NodeId, None] = {}
        for bucket in self._rows.values():
            for contact in bucket.values():
                seen[contact] = None
        return list(seen)

    def next_hop(self, key: NodeId) -> NodeId | None:
        """Return the prefix-routing next hop for ``key``.

        The standard Pastry rule: forward to the entry whose prefix
        match with ``key`` is at least one digit longer than the
        owner's.  Returns None when no such entry exists (the leaf set
        then takes over).
        """
        row = self.owner.shared_prefix_len(key, self.base)
        if row >= self.nrows:
            return None  # key == owner id
        return self.entry(row, key.digit(row, self.base))
