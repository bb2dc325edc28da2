"""The Corona↔IM intermediary with rate limiting.

The paper's prototype (§4) cannot log every Corona node into Yahoo
simultaneously, so a centralized server relays all subscription
messages and update diffs — and, because Yahoo "rate limits instant
messages sent by unprivileged clients", Corona "limits the rate of
updates sent to clients and avoids sending updates in bursts".

:class:`ImGateway` reproduces both: it owns the single Corona handle on
the simulated IM service, parses inbound commands into subscription
requests for the cloud, and pushes notifications through a per-client
token bucket that smooths bursts into a queue drained at the permitted
rate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import ClassVar

from repro.im.messages import (
    HELP_TEXT,
    CommandError,
    Notification,
    ParsedCommand,
    parse_command,
)
from repro.im.service import SimIMService


@dataclass
class _TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, burst up to ``capacity``."""

    rate: float
    capacity: float
    tokens: float = 0.0
    updated_at: float = field(default=0.0, init=False)

    def try_take(self, now: float) -> bool:
        elapsed = max(0.0, now - self.updated_at)
        self.tokens = min(self.capacity, self.tokens + elapsed * self.rate)
        self.updated_at = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass
class ImGateway:
    """The centralized Corona IM endpoint.

    Inbound: chat text → :class:`ParsedCommand` (with help replies on
    junk).  Outbound: notifications → rate-limited sends, excess queued
    in arrival order per client and drained by :meth:`pump`.
    """

    handle: ClassVar[str] = "corona"
    #: Notifications per second per client (§4's IM rate limit).
    rate_limit: ClassVar[float] = 5.0
    burst: ClassVar[float] = 3.0

    service: SimIMService
    _buckets: dict[str, _TokenBucket] = field(
        default_factory=dict, init=False
    )
    _queues: dict[str, deque[Notification]] = field(
        default_factory=dict, init=False
    )

    def __post_init__(self) -> None:
        self.service.register(self.handle)
        self.service.connect(self.handle)

    # ------------------------------------------------------------------
    # inbound: user commands
    # ------------------------------------------------------------------
    def receive_chat(self, sender: str, text: str) -> ParsedCommand | None:
        """Parse one user message; replies with help text on junk.

        Returns the parsed command for the Corona cloud to act on, or
        None if the message was not a valid command.
        """
        try:
            command = parse_command(text)
        except CommandError as exc:
            self.service.send(self.handle, sender, f"{exc} — {HELP_TEXT}")
            return None
        if command.action == "help":
            self.service.send(self.handle, sender, HELP_TEXT)
            return None
        return command

    # ------------------------------------------------------------------
    # outbound: notifications
    # ------------------------------------------------------------------
    def _bucket(self, client: str) -> _TokenBucket:
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = _TokenBucket(
                rate=self.rate_limit, capacity=self.burst, tokens=self.burst
            )
            self._buckets[client] = bucket
        return bucket

    def notify(self, client: str, notification: Notification, now: float) -> bool:
        """Push one notification; queues it when over the rate limit.

        Returns True if sent immediately, False if queued.
        """
        queue = self._queues.get(client)
        if queue:  # preserve ordering behind already-queued messages
            queue.append(notification)
            return False
        if self._bucket(client).try_take(now):
            self.service.send(
                self.handle, client, notification.render(), now=now
            )
            return True
        self._queues.setdefault(client, deque()).append(notification)
        return False

    def pump(self, now: float) -> int:
        """Drain queued notifications permitted by the buckets.

        Called periodically by the simulator/driver; returns how many
        messages were released.
        """
        released = 0
        for client in list(self._queues):
            queue = self._queues[client]
            bucket = self._bucket(client)
            while queue and bucket.try_take(now):
                notification = queue.popleft()
                self.service.send(
                    self.handle, client, notification.render(), now=now
                )
                released += 1
            if not queue:
                del self._queues[client]
        return released
