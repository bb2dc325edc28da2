"""Simulated content servers: the exogenous side of the Web.

Corona's publishers "are exogenous entities that serve content only
when polled" (§1).  :class:`WebServerFarm` hosts one synthetic feed per
channel URL and gives each the observable surface a real server has:

* an autonomous update process — content changes at the channel's
  survey-drawn update interval, jittered, regardless of who polls;
* conditional-GET semantics — a ``Last-Modified``-style version token
  when the feed carries timestamps, or none (forcing owner-assigned
  versions, §3.4).  A poller names the version it holds
  (``have_version``, the ``If-Modified-Since`` of the request); when
  the version about to be served is no newer the reply is *not
  modified*: version and ``published_at`` only, ``document=None``,
  ``size=0``, no document built.  The request is still counted, still
  rate-limited, and still rotates the feed's ad and hit counter;
* per-source rate limiting — the "hard rate-limits based on IP
  addresses" the paper describes content providers imposing (§1);
* poll accounting — the per-channel and aggregate load series that
  Figures 3 and 10 plot.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import itemgetter

from repro.core.node import FetchResult
from repro.feeds.generator import FeedGenerator, PendingDocument


@dataclass
class HostedChannel:
    """One channel's server-side state."""

    url: str
    update_interval: float
    generator: FeedGenerator
    has_timestamps: bool = True
    next_update: float = 0.0
    last_published: float = 0.0
    polls_served: int = 0
    rate_limited: int = 0
    not_modified: int = 0  # polls answered without a body
    #: The (document, version, published_at) snapshot of the last
    #: successfully served poll — what a rate-limited source is handed
    #: instead of fresh content (the server refuses to do work; the
    #: refusal surfaces to the poller as staleness, not an error).
    #: The document is kept unbuilt: that poll may have sent no body.
    last_served: tuple[PendingDocument, int, float | None] | None = None

    def version_token(self) -> int:
        """The Last-Modified-derived version, or 0 when unsupported."""
        return self.generator.version if self.has_timestamps else 0


@dataclass
class RateLimiter:
    """Per-(source, channel) minimum poll spacing — the per-IP cap."""

    min_spacing: float = 0.0  # 0 disables limiting
    _last_poll: dict[tuple[str, str], float] = field(default_factory=dict)

    def allow(self, source: str, url: str, now: float) -> bool:
        if self.min_spacing <= 0:
            return True
        key = (source, url)
        last = self._last_poll.get(key)
        if last is not None and now - last < self.min_spacing:
            return False
        self._last_poll[key] = now
        return True


#: Update-calendar entries ``(next_update, rank, channel)`` sort into
#: hosting order by rank.
_HOSTING_ORDER = itemgetter(1)


class WebServerFarm:
    """All content servers of one experiment, driven by one clock.

    ``advance_to(now)`` publishes every update that fell due — call it
    before fetching so content is current (``fetch`` does).  Update
    processes are periodic with ±30 % jitter (real feeds are roughly
    periodic: editorial workflows, cron-driven generators), which also
    matches how the survey measured intervals.

    The due updates come off an update calendar: a heap of
    ``(next_update, hosting rank, channel)`` with one live entry per
    channel, so an advance costs the channels that fire, and one with
    nothing due costs O(1).  The channels that fire are published in
    hosting order, which keeps the jitter draws in the order a scan
    over every channel would make them.  ``flash_crowd`` books a new
    entry only when it brings an update forward; the one it replaces
    stays in the heap, dead, until it is popped.
    """

    def __init__(
        self,
        seed: int = 0,
        timestamp_fraction: float = 0.8,
        rate_limit_spacing: float = 0.0,
        noise: bool = True,
    ) -> None:
        self.rng = random.Random(seed)
        self.channels: dict[str, HostedChannel] = {}
        self.timestamp_fraction = timestamp_fraction
        self.limiter = RateLimiter(min_spacing=rate_limit_spacing)
        self.noise = noise
        self.total_polls = 0
        self.total_not_modified = 0
        self.total_updates = 0
        self._now = 0.0
        #: The update calendar, and each channel's live entry on it.
        self._calendar: list[tuple[float, int, HostedChannel]] = []
        self._booked: dict[str, tuple[float, int, HostedChannel]] = {}

    # ------------------------------------------------------------------
    def host(
        self, url: str, update_interval: float, target_bytes: int = 8192
    ) -> HostedChannel:
        """Start hosting ``url`` with the given update interval."""
        if url in self.channels:
            return self.channels[url]
        if update_interval <= 0:
            raise ValueError("update interval must be positive")
        items = max(3, int(target_bytes // 400))
        generator = FeedGenerator(
            url=url,
            seed=self.rng.randrange(1 << 30),
            target_items=items,
            include_noise=self.noise,
        )
        hosted = HostedChannel(
            url=url,
            update_interval=update_interval,
            generator=generator,
            has_timestamps=self.rng.random() < self.timestamp_fraction,
            next_update=self._first_update_time(update_interval),
        )
        self._book(hosted.next_update, len(self.channels), hosted)
        self.channels[url] = hosted
        return hosted

    def _book(self, when: float, rank: int, hosted: HostedChannel) -> None:
        """Make ``(when, rank, hosted)`` the channel's live entry."""
        entry = (when, rank, hosted)
        self._booked[hosted.url] = entry
        heappush(self._calendar, entry)

    def _first_update_time(self, interval: float) -> float:
        # Uniform residual: the observer arrives at a random phase of
        # the channel's update cycle.
        return self._now + self.rng.uniform(0.0, interval)

    def _jittered(self, interval: float) -> float:
        return interval * self.rng.uniform(0.7, 1.3)

    # ------------------------------------------------------------------
    def advance_to(self, now: float) -> int:
        """Publish all updates due by ``now``; returns how many fired."""
        if now < self._now:
            raise ValueError("time cannot move backwards")
        calendar = self._calendar
        booked = self._booked
        due: list[tuple[float, int, HostedChannel]] = []
        while calendar and calendar[0][0] <= now:
            entry = heappop(calendar)
            if booked[entry[2].url] is entry:
                due.append(entry)
        due.sort(key=_HOSTING_ORDER)
        fired = 0
        for _, rank, hosted in due:
            while hosted.next_update <= now:
                publish_time = hosted.next_update
                hosted.generator.publish_update(publish_time)
                hosted.last_published = publish_time
                hosted.next_update = publish_time + self._jittered(
                    hosted.update_interval
                )
                fired += 1
            self._book(hosted.next_update, rank, hosted)
        self._now = now
        self.total_updates += fired
        return fired

    # ------------------------------------------------------------------
    def fetch(
        self, url: str, now: float, source: str = "corona",
        have_version: int = 0,
    ) -> FetchResult:
        """Serve one poll (the ``Fetcher`` interface of the core)."""
        hosted = self.channels.get(url)
        if hosted is None:
            raise KeyError(f"not hosting {url!r}")
        self.advance_to(max(now, self._now))
        hosted.polls_served += 1
        self.total_polls += 1
        allowed = self.limiter.allow(source, url, now)
        if not allowed:
            hosted.rate_limited += 1
        # A banned poll is answered with the previously served
        # snapshot — the server refuses to do work, it does not error,
        # so over-cap polling surfaces purely as staleness on the
        # poller's side.
        if allowed or hosted.last_served is None:
            hosted.last_served = (
                hosted.generator.request(now),
                hosted.version_token(),
                hosted.last_published or None,
            )
        pending, version, published_at = hosted.last_served
        if 0 < version <= have_version:
            hosted.not_modified += 1
            self.total_not_modified += 1
            document, size = None, 0
        else:
            document = pending.materialise()
            size = len(document.encode("utf-8"))
        return FetchResult(
            url=url,
            document=document,
            size=size,
            server_version=version,
            published_at=published_at,
        )

    def published_at(self, url: str) -> float | None:
        """Ground-truth time of the current version (metrics only)."""
        hosted = self.channels.get(url)
        if hosted is None or hosted.last_published == 0.0:
            return None
        return hosted.last_published

    # ------------------------------------------------------------------
    def flash_crowd(self, url: str, factor: float, now: float) -> None:
        """Accelerate a channel's update process (breaking-news burst).

        The channel's interval shrinks by ``factor`` from ``now`` on.
        Factors compound, and a factor below 1 decelerates — the
        scenario subsystem undoes a timed burst by applying the
        inverse factor, so overlapping rate events compose in any
        order.
        """
        hosted = self.channels.get(url)
        if hosted is None:
            raise KeyError(f"not hosting {url!r}")
        if factor <= 0:
            raise ValueError("factor must be positive")
        hosted.update_interval /= factor
        sooner = now + self._jittered(hosted.update_interval)
        if sooner < hosted.next_update:
            hosted.next_update = sooner
            self._book(sooner, self._booked[url][1], hosted)

    def poll_counts(self) -> dict[str, int]:
        """Polls served per channel so far."""
        return {url: hosted.polls_served for url, hosted in self.channels.items()}
