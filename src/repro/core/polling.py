"""Cooperative polling schedules.

Every node polls each of its assigned channels once per polling
interval τ.  When a node *starts* polling a channel it waits a random
fraction of τ first (§3.3), so the polls of a wedge's members spread
uniformly over the interval — this stagger is what makes ``n``
cooperating pollers detect updates ``n`` times faster than one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.update import ContentState


@dataclass
class PollTask:
    """One node's polling duty for one channel."""

    url: str
    level: int
    next_poll: float
    interval: float
    content: ContentState = field(default_factory=ContentState)
    #: Poll waves in a row that never reached the server (timeout
    #: after the fault plane's retry budget).  Reset on any poll that
    #: gets through; purely observational — the schedule itself keeps
    #: its τ cadence so a healed server is re-polled within one
    #: interval, which is all the staleness bound needs.
    consecutive_failures: int = 0

    def advance(self) -> None:
        """Schedule the next poll one interval later."""
        self.next_poll += self.interval

    def record_failure(self) -> None:
        """A poll wave timed out; skip to the next interval."""
        self.consecutive_failures += 1
        self.advance()

    def record_success(self) -> None:
        """A poll reached the server; clear the failure streak."""
        self.consecutive_failures = 0

    def record_shed(self) -> None:
        """The poll was shed under queue backpressure.

        The node keeps serving its cached (stale) snapshot and
        stretches the duty to the next interval — τ cadence is kept,
        so the staleness penalty is bounded at one extra interval per
        shed and the channel recovers as soon as the link drains.
        Not a failure: the server was never contacted, so the failure
        streak (which feeds manager-health accounting) is untouched.
        """
        self.advance()


@dataclass
class PollScheduler:
    """The set of channels a node currently polls, ordered by due time.

    A simple dict keyed by URL plus linear min-scan; nodes poll at most
    a few thousand channels, and the discrete-event simulator keeps its
    own global heap, so this structure only needs to be correct and
    easily inspectable.
    """

    interval: float
    seed: int = 0
    tasks: dict[str, PollTask] = field(default_factory=dict)
    #: Stagger generator, ``random.Random(seed)``, built by the first
    #: ``start`` that draws: most nodes of a large cloud never poll,
    #: and a Mersenne Twister is 2.5 KB of state each.
    _rng: random.Random | None = field(default=None, init=False, repr=False)

    def start(self, url: str, level: int, now: float) -> PollTask:
        """Begin polling ``url``; first poll after a random stagger.

        Restarting an already-polled channel only updates its level —
        the established stagger is kept so the wedge stays spread out.
        """
        task = self.tasks.get(url)
        if task is not None:
            task.level = level
            return task
        if self._rng is None:
            self._rng = random.Random(self.seed)
        task = PollTask(
            url=url,
            level=level,
            next_poll=now + self._rng.uniform(0.0, self.interval),
            interval=self.interval,
        )
        self.tasks[url] = task
        return task

    def stop(self, url: str) -> bool:
        """Stop polling ``url``; True if we were polling it."""
        return self.tasks.pop(url, None) is not None

    # ------------------------------------------------------------------
    def due(self, now: float) -> list[PollTask]:
        """Tasks whose next poll time has arrived."""
        return [task for task in self.tasks.values() if task.next_poll <= now]

    def next_due_time(self) -> float | None:
        """Earliest next poll across all tasks (None when idle)."""
        if not self.tasks:
            return None
        return min(task.next_poll for task in self.tasks.values())

    def polls_per_interval(self) -> int:
        """How many polls this node issues per τ (= channels polled)."""
        return len(self.tasks)

    def is_polling(self, url: str) -> bool:
        """True when ``url`` is in this node's polling set."""
        return url in self.tasks
