"""RSS 2.0 rendering.

Implements the slice of the RSS 2.0 specification Corona interacts
with: channel metadata, items, and the ``ttl`` update hint the paper
discusses (§2).  Corona never parses a feed: the difference engine
reads documents through its own tolerant lexer
(:mod:`repro.diffengine.tokenizer`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from email.utils import formatdate


@dataclass
class RssItem:
    """One micronews story."""

    title: str
    link: str = ""
    description: str = ""
    guid: str = ""
    pub_date: str = ""

    def render(self) -> str:
        parts = ["<item>", f"<title>{_escape(self.title)}</title>"]
        if self.link:
            parts.append(f"<link>{_escape(self.link)}</link>")
        if self.description:
            parts.append(
                f"<description>{_escape(self.description)}</description>"
            )
        if self.guid:
            parts.append(f'<guid isPermaLink="false">{_escape(self.guid)}</guid>')
        if self.pub_date:
            parts.append(f"<pubDate>{self.pub_date}</pubDate>")
        parts.append("</item>")
        return "\n".join(parts)


@dataclass
class RssChannel:
    """An RSS 2.0 channel document."""

    title: str
    link: str = ""
    description: str = ""
    ttl_minutes: int | None = None
    items: list[RssItem] = field(default_factory=list)

    def render(self) -> str:
        """Serialize to RSS 2.0 XML."""
        parts = [
            '<?xml version="1.0" encoding="utf-8"?>',
            '<rss version="2.0">',
            "<channel>",
            f"<title>{_escape(self.title)}</title>",
        ]
        if self.link:
            parts.append(f"<link>{_escape(self.link)}</link>")
        if self.description:
            parts.append(
                f"<description>{_escape(self.description)}</description>"
            )
        if self.ttl_minutes is not None:
            parts.append(f"<ttl>{self.ttl_minutes}</ttl>")
        for item in self.items:
            parts.append(item.render())
        parts.extend(["</channel>", "</rss>"])
        return "\n".join(parts)


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def rfc822_date(epoch_seconds: float) -> str:
    """RFC 822 date string, the format RSS uses throughout."""
    return formatdate(epoch_seconds, usegmt=True)
