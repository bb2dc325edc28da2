"""Leaf sets: each node's nearest ring neighbours.

Pastry nodes track the ``f`` closest nodes on either side along the
ring.  Corona uses the leaf set for two things: delivering a message to
the *numerically closest* node (the final routing hop, which defines
channel ownership) and replicating subscription state on the
``f``-closest neighbours of the primary owner so that an owner failure
promotes a neighbour without losing subscriptions (§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.overlay.nodeid import ID_SPACE, NodeId


@dataclass
class LeafSet:
    """The ``size`` clockwise and counter-clockwise ring neighbours.

    The structure is deliberately simple: two sorted-by-ring-distance
    lists, written by the overlay's join and repair as the ring changes.
    """

    owner: NodeId
    size: int = 8
    _cw: list[NodeId] = field(default_factory=list, init=False)
    _ccw: list[NodeId] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("leaf set size must be >= 1")

    # ------------------------------------------------------------------
    def remove(self, failed: NodeId) -> bool:
        """Drop a failed node from both sides; True if it was a member."""
        removed = False
        if failed in self._cw:
            self._cw.remove(failed)
            removed = True
        if failed in self._ccw:
            self._ccw.remove(failed)
            removed = True
        return removed

    def reset(self, clockwise: list[NodeId], counter_clockwise: list[NodeId]) -> None:
        """Replace both sides with exact neighbour lists, nearest first.

        Used by the overlay's churn repair, which computes the true
        ring slices from its sorted membership index.
        """
        self._cw[:] = clockwise[: self.size]
        self._ccw[:] = counter_clockwise[: self.size]

    def members(self) -> list[NodeId]:
        """All distinct leaf-set members, unordered."""
        return list(dict.fromkeys(self._cw + self._ccw))

    def clockwise(self) -> list[NodeId]:
        """Clockwise neighbours, nearest first."""
        return list(self._cw)

    def counter_clockwise(self) -> list[NodeId]:
        """Counter-clockwise neighbours, nearest first."""
        return list(self._ccw)

    # ------------------------------------------------------------------
    def covers(self, key: NodeId) -> bool:
        """Return True if ``key`` falls inside the leaf-set span.

        When a routed key lands inside the span, the numerically
        closest leaf (or the owner itself) is the destination.
        """
        if not self._cw or not self._ccw:
            return True  # degenerate ring: the owner covers everything
        lo = self._ccw[-1]
        hi = self._cw[-1]
        return key.between_cw(lo, hi) or key == lo or key == self.owner

    def closest(self, key: NodeId) -> NodeId:
        """Numerically closest node to ``key`` among owner + leaves."""
        best = self.owner
        best_dist = self._ownership_distance(self.owner, key)
        for member in self.members():
            dist = self._ownership_distance(member, key)
            if dist < best_dist:
                best, best_dist = member, dist
        return best

    @staticmethod
    def _ownership_distance(node: NodeId, key: NodeId) -> int:
        """Distance metric defining ownership (ties broken uniquely).

        Shortest circular distance, with the node *preceding* the key
        (key clockwise of node) preferred on exact midpoint ties, so
        ownership is always unique.
        """
        cw = node.distance_cw(key)
        ccw = ID_SPACE - cw
        # Bias: treat the counter-clockwise side as infinitesimally
        # larger so exact midpoint ties resolve deterministically.
        return min(cw * 2, ccw * 2 + 1)
