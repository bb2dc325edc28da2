"""Subscription state at channel owners.

Owners keep the subscriber set for each channel they manage and send
notifications on fresh updates (§3.3).  State is replicated on the
``f``-closest ring neighbours of the primary owner; when ownership
moves (joins, failures), the registry supports explicit state
transfer: a node that stops being an owner erases its copy, a new
owner receives it from the surviving replicas.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SubscriptionRegistry:
    """Subscriber sets for the channels one node (co-)owns."""

    _subscribers: dict[str, set[str]] = field(
        default_factory=dict, init=False
    )

    # ------------------------------------------------------------------
    def subscribe(self, url: str, client: str) -> bool:
        """Register ``client`` for ``url``; True if newly added."""
        if not client:
            raise ValueError("client handle must be non-empty")
        channel = self._subscribers.setdefault(url, set())
        if client in channel:
            return False
        channel.add(client)
        return True

    def unsubscribe(self, url: str, client: str) -> bool:
        """Remove ``client`` from ``url``; True if it was subscribed."""
        channel = self._subscribers.get(url)
        if channel is None or client not in channel:
            return False
        channel.discard(client)
        if not channel:
            del self._subscribers[url]
        return True

    # ------------------------------------------------------------------
    def subscribers(self, url: str) -> frozenset[str]:
        """Current subscriber set for ``url`` (empty if none)."""
        return frozenset(self._subscribers.get(url, frozenset()))

    def count(self, url: str) -> int:
        """Number of subscribers for ``url`` — the factor q_i."""
        return len(self._subscribers.get(url, ()))

    def total_subscriptions(self) -> int:
        """Subscriptions across all channels this node owns."""
        return sum(len(clients) for clients in self._subscribers.values())

    # ------------------------------------------------------------------
    # replication / ownership transfer (§3.3)
    # ------------------------------------------------------------------
    def export_state(self, urls: list[str] | None = None) -> dict[str, set[str]]:
        """Snapshot subscription state for transfer to a new owner."""
        source = (
            self._subscribers
            if urls is None
            else {url: self._subscribers[url] for url in urls if url in self._subscribers}
        )
        return {url: set(clients) for url, clients in source.items()}

    def import_state(self, state: dict[str, set[str]]) -> None:
        """Merge state received from other owners of the channels."""
        for url, clients in state.items():
            self._subscribers.setdefault(url, set()).update(clients)

    def erase(self, url: str) -> None:
        """Drop state for a channel this node no longer owns."""
        self._subscribers.pop(url, None)
