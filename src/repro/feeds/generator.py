"""Synthetic evolving feeds.

Stands in for the live syndic8.com feeds the paper polls: each
generator owns one feed document and mutates it on demand.  Update
shapes follow the Cornell measurement study the paper is driven by
(§3.4, §5.1): the typical update prepends a new item and occasionally
retires old ones, touching ≈17 lines of XML, ≈6.8 % of the content.
Generators also emit the volatile noise (lastBuildDate churn, rotating
ad markup) that makes the core-content extractor necessary.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.feeds.rss import RssChannel, RssItem, rfc822_date

_LOREM = (
    "ithaca gorges weather cornell systems overlay pastry beehive corona "
    "micronews weblog wiki syndication update latency bandwidth polling "
    "cooperative wedge honeycomb optimization channel subscriber notify"
).split()


class PendingDocument(NamedTuple):
    """One request's document, drawn but not yet built.

    Holds what the request fixed — the serialized items (an immutable
    string, shared with the generator's cache), the fetch time and the
    drawn ad copy and hit counter — so the same bytes can be built
    now, later, or never (a *not modified* reply sends no body).
    """

    base: str
    now: float
    noise: tuple[str, int] | None

    def materialise(self) -> str:
        if self.noise is None:
            return self.base
        ad_copy, hits = self.noise
        noise = (
            f"<lastBuildDate>{rfc822_date(self.now)}</lastBuildDate>"
            f'<div class="ad-banner">{ad_copy}</div>'
            f"<p>Views: {hits:,}</p>"
        )
        return self.base.replace("</channel>", noise + "</channel>")


@dataclass
class FeedGenerator:
    """One synthetic RSS feed with controllable update behaviour.

    Parameters
    ----------
    url:
        The feed's channel URL (its Corona identity).
    target_items:
        Steady-state item count; sized so the document is roughly
        ``target_bytes`` long.
    include_noise:
        Emit volatile elements (timestamps, ads) so polls exercise the
        difference engine's filtering rather than byte comparison.
    """

    url: str
    seed: int = 0
    target_items: int = 15
    include_noise: bool = True
    rng: random.Random = field(init=False)
    version: int = field(default=0, init=False)
    _items: list[RssItem] = field(default_factory=list, init=False)
    _serial: int = field(default=0, init=False)
    _base_cache_version: int = field(default=-1, init=False)
    _base_cache: str = field(default="", init=False)

    def __post_init__(self) -> None:
        # crc32, not hash(): str hashes are randomized per process
        # (PYTHONHASHSEED), and this seed must not be — a feed's
        # content stream is part of the byte-identity contract, which
        # spans processes (the sweep farm's spawn workers).
        self.rng = random.Random(
            (zlib.crc32(self.url.encode("utf-8")) ^ self.seed)
            & 0xFFFFFFFF
        )
        for _ in range(self.target_items):
            self._items.append(self._make_item(published_at=0.0))
        self.version = 1

    # ------------------------------------------------------------------
    def _sentence(self, words: int) -> str:
        return " ".join(self.rng.choice(_LOREM) for _ in range(words))

    def _make_item(self, published_at: float) -> RssItem:
        self._serial += 1
        return RssItem(
            title=f"{self._sentence(4)} #{self._serial}",
            link=f"{self.url}/story/{self._serial}",
            description=self._sentence(self.rng.randint(10, 30)),
            guid=f"{self.url}#item{self._serial}",
            pub_date=rfc822_date(published_at),
        )

    # ------------------------------------------------------------------
    def publish_update(self, now: float) -> int:
        """Mutate the feed (a real content update); returns new version.

        The typical shape: one new story on top, retire the oldest if
        over target; occasionally edit an existing description.
        """
        roll = self.rng.random()
        if roll < 0.8 or not self._items:
            self._items.insert(0, self._make_item(published_at=now))
            while len(self._items) > self.target_items:
                self._items.pop()
        elif roll < 0.9 and self._items:
            victim = self.rng.randrange(len(self._items))
            self._items[victim].description = self._sentence(
                self.rng.randint(10, 30)
            )
        else:
            self._items.insert(0, self._make_item(published_at=now))
            self._items.insert(0, self._make_item(published_at=now))
            while len(self._items) > self.target_items:
                self._items.pop()
        self.version += 1
        return self.version

    def request(self, now: float) -> PendingDocument:
        """Advance the per-request volatile state; build no string.

        The expensive item serialization is cached per content version;
        only the volatile noise (lastBuildDate, rotating ad, counter)
        is stamped per fetch — which is also exactly how real servers
        behave: static content, dynamic decorations.  The ad rotates
        and the counter ticks on every request, sent a body or not (a
        hit counter counts 304s too): the draws come from the generator
        that writes item text, so skipping them changes every later item.
        """
        if self._base_cache_version != self.version:
            channel = RssChannel(
                title=f"Feed {self.url}",
                link=self.url,
                description="synthetic micronews feed",
                ttl_minutes=30,
                items=list(self._items),
            )
            self._base_cache = channel.render()
            self._base_cache_version = self.version
        noise = None
        if self.include_noise:
            noise = (self._sentence(3), self.rng.randint(1000, 999999))
        return PendingDocument(self._base_cache, now, noise)

    def render(self, now: float) -> str:
        """Current document, with fetch-time volatile noise if enabled."""
        return self.request(now).materialise()
