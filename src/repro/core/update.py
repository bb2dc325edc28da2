"""Content versions and cached content.

Corona identifies content versions with monotonically increasing
numbers (§3.4): when the content carries a modification timestamp that
timestamp *is* the version; otherwise the primary owner assigns
sequence numbers in the order it first sees updates.  Updates travel as
deltas — :class:`repro.diffengine.differ.Diff` objects — never as full
content.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VersionClock:
    """Per-channel version bookkeeping at the primary owner.

    ``observe_timestamp`` implements the owner's dedup rule (§3.4): a
    timestamp that does not advance the clock is redundant — some peer
    already reported that change — and is dropped.
    """

    current: int = field(default=0, init=False)
    assigned: int = field(default=0, init=False)

    def observe_timestamp(self, timestamp: int) -> bool:
        """Adopt a server-supplied modification timestamp as version.

        Returns True if the timestamp is fresh (a real update), False
        when it does not advance the clock (redundant detection).
        """
        if timestamp <= self.current:
            return False
        self.current = timestamp
        return True

    def assign_next(self) -> int:
        """Owner-assigned version for channels without timestamps."""
        self.assigned = max(self.assigned, self.current) + 1
        self.current = self.assigned
        return self.current


@dataclass
class ContentState:
    """A polling node's cached copy of channel content.

    Any old version suffices to *detect* change (the paper notes
    detection time is unaffected by late diff arrival for this
    reason); the cached lines are what the difference engine compares
    against.
    """

    version: int = field(default=0, init=False)
    lines: tuple[str, ...] = field(default=(), init=False)

    def replace(self, version: int, lines: tuple[str, ...]) -> None:
        """Install a newer full copy."""
        self.version = version
        self.lines = lines
