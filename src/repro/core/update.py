"""Content versions and update records.

Corona identifies content versions with monotonically increasing
numbers (§3.4): when the content carries a modification timestamp that
timestamp *is* the version; otherwise the primary owner assigns
sequence numbers in the order it first sees updates.  Updates travel as
deltas — :class:`repro.diffengine.differ.Diff` objects — never as full
content.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class UpdateRecord:
    """One disseminated update for a channel.

    ``base_version`` names the version the diff applies to, so a
    receiver holding older content knows it must resynchronize rather
    than patch.
    """

    url: str
    version: int
    base_version: int
    diff_lines: int
    diff_bytes: int
    detected_at: float
    published_at: float | None = None

    @property
    def detection_delay(self) -> float | None:
        """Seconds from publication to Corona's detection, if known."""
        if self.published_at is None:
            return None
        return max(0.0, self.detected_at - self.published_at)


@dataclass
class VersionClock:
    """Per-channel version bookkeeping at the primary owner.

    ``advance`` implements the owner's dedup rule (§3.4): a diff
    claiming a base version older than the current version is
    redundant — some peer already reported that change — and is
    dropped.
    """

    current: int = 0
    assigned: int = 0

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

    def advance_from(self, base_version: int) -> int | None:
        """Accept a diff claiming to update ``base_version``.

        Returns the assigned version (``base + 1``), or None when the
        diff is redundant — the owner has already accepted an update
        past that base, so some peer reported the same change first.
        """
        if base_version < self.current:
            return None
        self.current = base_version + 1
        self.assigned = max(self.assigned, self.current)
        return self.current

    def is_redundant(self, base_version: int) -> bool:
        """True when a diff against ``base_version`` is already stale."""
        return base_version < self.current


@dataclass
class ContentState:
    """A polling node's cached copy of channel content.

    Any old version suffices to *detect* change (the paper notes
    detection time is unaffected by late diff arrival for this
    reason); the cached lines are what the difference engine compares
    against.
    """

    version: int = 0
    lines: tuple[str, ...] = field(default_factory=tuple)

    def replace(self, version: int, lines: tuple[str, ...]) -> None:
        """Install a newer full copy."""
        self.version = version
        self.lines = lines
