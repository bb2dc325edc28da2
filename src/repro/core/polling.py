"""Cooperative polling schedules.

Every node polls each of its assigned channels once per polling
interval τ.  When a node *starts* polling a channel it waits a random
fraction of τ first (§3.3), so the polls of a wedge's members spread
uniformly over the interval — this stagger is what makes ``n``
cooperating pollers detect updates ``n`` times faster than one.
"""

from __future__ import annotations

import heapq
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
    content: ContentState = field(default_factory=ContentState, init=False)
    #: Poll waves in a row that never reached the server (timeout
    #: after the fault plane's retry budget).  Reset on any poll that
    #: gets through; purely observational — the schedule itself keeps
    #: its τ cadence so a healed server is re-polled within one
    #: interval, which is all the staleness bound needs.
    consecutive_failures: int = field(default=0, init=False)

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
    """The set of channels a node currently polls, and their calendar.

    ``tasks`` maps URL to task in start order.  Every task that enters
    it is also booked on ``calendar``, a :mod:`heapq` of ``(next_poll,
    rank, seq, owner, task)`` entries: ``rank`` orders the owners,
    ``seq`` numbers this scheduler's tasks in the order they entered
    ``tasks`` (a restart keeps its task and so its seq; stop then start
    is a new task with a new seq).  A :class:`~repro.core.system.
    CoronaSystem` hands one calendar to every node it builds, so a poll
    batch pops exactly the polls that came due and never visits an
    idle node; a scheduler built on its own keeps a private one.

    Removal is lazy: ``stop`` leaves the entry where it is, and whoever
    pops the calendar drops an entry whose task is no longer the one
    ``tasks`` holds for its URL.  The popper re-books each executed
    task at its advanced ``next_poll``, so every live task has exactly
    one live entry.
    """

    interval: float
    seed: int = 0
    tasks: dict[str, PollTask] = field(default_factory=dict, init=False)
    calendar: list[tuple] = field(default_factory=list, repr=False)
    #: This scheduler's position among the calendar's owners.
    rank: int = 0
    #: What calendar entries name as the task's owner (the node).
    owner: object = field(default=None, repr=False)
    #: Stagger generator, ``random.Random(seed)``, built by the first
    #: ``start`` that draws: most nodes of a large cloud never poll,
    #: and a Mersenne Twister is 2.5 KB of state each.
    _rng: random.Random | None = field(default=None, init=False, repr=False)
    _seq: int = field(default=0, init=False, repr=False)

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
        heapq.heappush(
            self.calendar,
            (task.next_poll, self.rank, self._seq, self.owner, task),
        )
        self._seq += 1
        return task

    def stop(self, url: str) -> bool:
        """Stop polling ``url``; True if we were polling it."""
        return self.tasks.pop(url, None) is not None

    # ------------------------------------------------------------------
    def polls_per_interval(self) -> int:
        """How many polls this node issues per τ (= channels polled)."""
        return len(self.tasks)

    def is_polling(self, url: str) -> bool:
        """True when ``url`` is in this node's polling set."""
        return url in self.tasks
