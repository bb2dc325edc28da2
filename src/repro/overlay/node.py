"""Pastry nodes: routing state plus the route/join/repair operations.

A :class:`PastryNode` owns a routing table and a leaf set and knows how
to make one routing decision.  Multi-hop routing, joining, and failure
repair are orchestrated by :class:`repro.overlay.network.OverlayNetwork`,
which plays the role of the (simulated) wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.overlay.leafset import LeafSet
from repro.overlay.nodeid import NodeId
from repro.overlay.routing import RoutingTable


@dataclass
class PastryNode:
    """One overlay node: identifier, routing table, leaf set.

    ``address`` is the stable name the identifier was hashed from (an
    IP in the paper; a label in the simulators).
    """

    node_id: NodeId
    base: int
    address: str = ""
    leaf_size: int = 8
    table: RoutingTable = field(init=False)
    leaves: LeafSet = field(init=False)

    def __post_init__(self) -> None:
        self.table = RoutingTable(owner=self.node_id, base=self.base)
        self.leaves = LeafSet(owner=self.node_id, size=self.leaf_size)

    # ------------------------------------------------------------------
    def forget(self, failed: NodeId) -> bool:
        """Erase a failed node from all routing state.

        Returns True if any state actually changed (callers today use
        the removal for its side effect; the bool keeps the API honest
        about whether the node was known at all).
        """
        lost_contact = self.table.remove(failed)
        lost_leaf = self.leaves.remove(failed)
        return lost_contact or lost_leaf

    # ------------------------------------------------------------------
    def route_step(self, key: NodeId) -> NodeId | None:
        """Return the next hop toward ``key``, or None if we are it.

        Standard Pastry: if the key falls within the leaf-set span,
        jump straight to the numerically closest leaf (None when that
        is us).  Otherwise forward along the routing table; if the
        required slot is empty, fall back to the numerically closest
        known contact that is strictly closer to the key than we are.
        """
        if key == self.node_id:
            return None
        if self.leaves.covers(key):
            closest = self.leaves.closest(key)
            return None if closest == self.node_id else closest
        hop = self.table.next_hop(key)
        if hop is not None:
            return hop
        return self._rare_case_hop(key)

    def _rare_case_hop(self, key: NodeId) -> NodeId | None:
        """Pastry's "rare case": no table entry, key outside leaf span.

        Forward to any known node whose prefix match is at least as
        long as ours and which is numerically closer to the key;
        guarantees progress and hence termination.
        """
        own_prefix = self.node_id.shared_prefix_len(key, self.base)
        own_distance = LeafSet._ownership_distance(self.node_id, key)
        best: NodeId | None = None
        best_distance = own_distance
        for candidate in self.known_nodes():
            if candidate.shared_prefix_len(key, self.base) < own_prefix:
                continue
            distance = LeafSet._ownership_distance(candidate, key)
            if distance < best_distance:
                best, best_distance = candidate, distance
        return best

    def closest_known(
        self, key: NodeId, exclude: set[NodeId] | None = None
    ) -> NodeId | None:
        """A known node strictly closer to ``key`` than we are, if any.

        Pure greedy distance descent — the loop-free fallback used when
        prefix routing stalls on inconsistent state (mid-join): ring
        distance strictly decreases on every such hop, so routing
        always terminates.  ``exclude`` filters out already-visited
        nodes.
        """
        own_distance = LeafSet._ownership_distance(self.node_id, key)
        best: NodeId | None = None
        best_distance = own_distance
        for candidate in self.known_nodes():
            if exclude and candidate in exclude:
                continue
            distance = LeafSet._ownership_distance(candidate, key)
            if distance < best_distance:
                best, best_distance = candidate, distance
        return best

    # ------------------------------------------------------------------
    def known_nodes(self) -> list[NodeId]:
        """Every distinct contact across routing table and leaf set."""
        seen: dict[NodeId, None] = {}
        for contact in self.table.contacts():
            seen[contact] = None
        for leaf in self.leaves.members():
            seen[leaf] = None
        return list(seen)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PastryNode({self.node_id.hex()[:8]}…, b={self.base})"
