"""A simulated instant-messaging service.

Models the observable behaviour Corona depends on (§3.5): named users
("handles") exchange asynchronous messages; offline users have their
messages buffered by the service and delivered on reconnect; delivery
adds a modest latency.  The identity of the transport (Yahoo, AIM,
Jabber…) is irrelevant to the protocol, which is exactly why the
substitution preserves behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar


@dataclass(frozen=True)
class ImMessage:
    """One chat message in flight or delivered."""

    sender: str
    recipient: str
    body: str
    sent_at: float
    delivered_at: float | None = None


@dataclass
class SimIMService:
    """Buddy registry, presence, buffering and a delivery log.

    ``delivery_latency`` models the service round-trip the paper calls
    "typically modest".  Delivered messages land in per-user inboxes;
    the full log supports assertions in tests and metrics in the
    simulators.
    """

    delivery_latency: ClassVar[float] = 0.5

    _online: set[str] = field(default_factory=set, init=False)
    _registered: set[str] = field(default_factory=set, init=False)
    _buffers: dict[str, list[ImMessage]] = field(
        default_factory=dict, init=False
    )
    inboxes: dict[str, list[ImMessage]] = field(
        default_factory=dict, init=False
    )
    log: list[ImMessage] = field(default_factory=list, init=False)

    # ------------------------------------------------------------------
    # presence
    # ------------------------------------------------------------------
    def register(self, handle: str) -> None:
        """Create an account (users and the Corona handle alike)."""
        if not handle:
            raise ValueError("handle must be non-empty")
        self._registered.add(handle)

    def connect(self, handle: str, now: float = 0.0) -> list[ImMessage]:
        """Bring a user online; flush and return their buffered messages."""
        self._require(handle)
        self._online.add(handle)
        buffered = self._buffers.pop(handle, [])
        delivered = [
            ImMessage(
                sender=message.sender,
                recipient=message.recipient,
                body=message.body,
                sent_at=message.sent_at,
                delivered_at=now,
            )
            for message in buffered
        ]
        self.inboxes.setdefault(handle, []).extend(delivered)
        self.log.extend(delivered)
        return delivered

    def _require(self, handle: str) -> None:
        if handle not in self._registered:
            raise KeyError(f"unknown IM handle {handle!r}")

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def send(
        self, sender: str, recipient: str, body: str, now: float = 0.0
    ) -> ImMessage | None:
        """Send one message; returns it if delivered, None if buffered.

        Offline recipients get the message buffered ("the IM system
        buffers the update and delivers it when the subscriber
        subsequently joins", §3.5).
        """
        self._require(sender)
        self._require(recipient)
        if recipient not in self._online:
            pending = ImMessage(
                sender=sender, recipient=recipient, body=body, sent_at=now
            )
            self._buffers.setdefault(recipient, []).append(pending)
            return None
        message = ImMessage(
            sender=sender,
            recipient=recipient,
            body=body,
            sent_at=now,
            delivered_at=now + self.delivery_latency,
        )
        self.inboxes.setdefault(recipient, []).append(message)
        self.log.append(message)
        return message

    def inbox(self, handle: str) -> list[ImMessage]:
        """Messages delivered to ``handle`` so far."""
        return list(self.inboxes.get(handle, []))
