"""The maintenance protocol: level changes along the wedge DAG.

Corona manages cooperative polling with a periodic protocol of three
concurrent phases (§3.3): *optimization* (nodes run Honeycomb on local
fine-grained data plus aggregated clusters), *maintenance* (level
changes propagate to routing-table contacts), and *aggregation*
(cluster summaries piggy-back on maintenance messages).

Level changes are gradual by construction: when a node at level ``i``
decides a channel should be polled more widely it instructs its
row-``i−1`` contacts to start polling — one wedge refinement per
maintenance interval — and symmetrically asks them to stop when the
level should rise.  :class:`LevelController` encapsulates that
one-step-at-a-time rule; the message dataclasses here are the wire
format shared by the deployment simulator and the system facade.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.honeycomb.clusters import ChannelFactors


@dataclass(frozen=True)
class MaintenanceMsg:
    """Start/stop-polling instruction flowing down the wedge DAG.

    ``level`` is the channel's (new) polling level; receivers compare
    their own identifier prefix against the channel to know whether
    they are inside the level-``level`` wedge and should poll.
    ``factors`` carries the owner's fresh estimates of q_i, s_i, u_i so
    every wedge member optimizes against current data.
    """

    url: str
    level: int
    factors: ChannelFactors
    row: int  # routing-table row the message was sent along


@dataclass(frozen=True)
class DiffMsg:
    """A delta-encoded update disseminated inside a wedge (§3.4).

    ``diff`` is the actual line delta (POSIX-style hunks) — nodes share
    updates "only as diffs ... rather than the entire content".
    ``needs_version`` marks channels without reliable modification
    timestamps, whose diffs route to the primary owner for version
    assignment.
    """

    url: str
    version: int
    base_version: int
    diff: "object"  # repro.diffengine.differ.Diff (kept loose for msg layer)
    content_size: int
    detected_at: float
    needs_version: bool = False
    #: Hash of the *resulting* core content.  The primary owner dedups
    #: concurrent detections by comparing against the latest content it
    #: has accepted ("checks the current diff with the latest updated
    #: version of the content", §3.4) — version counters alone cannot
    #: distinguish a fresh detection by a lagging node from a replay.
    content_hash: int = 0


@dataclass(frozen=True)
class SubscribeMsg:
    """Client subscription routed to the channel's owners."""

    url: str
    client: str
    subscribe: bool  # False = unsubscribe


@dataclass
class LevelController:
    """One-step-per-round level adjustment for a set of channels.

    The optimizer produces *desired* levels; the protocol only ever
    moves one step per maintenance interval, because each step is a
    physical act (a message wave recruiting or dismissing a wedge
    ring).  The controller records the pending target and emits the
    next step on each round.
    """

    desired: dict[str, int] = field(default_factory=dict, init=False)

    def set_target(self, url: str, level: int) -> None:
        """Record the optimizer's desired level for ``url``."""
        if level < 0:
            raise ValueError("polling level cannot be negative")
        self.desired[url] = level

    def step(self, url: str, current: int) -> int:
        """The level to adopt this round: one step toward the target."""
        target = self.desired.get(url, current)
        if target > current:
            return current + 1
        if target < current:
            return current - 1
        return current

    def settled(self, url: str, current: int) -> bool:
        """True when ``url`` already sits at its desired level."""
        return self.desired.get(url, current) == current
