"""RSS 2.0 rendering.

Implements the slice of the RSS 2.0 specification Corona interacts
with: channel metadata, items, and the update-hinting tags the paper
discusses (§2) — ``ttl``, ``skipHours``, ``skipDays`` and ``cloud``,
the standard's own (rarely used) gesture toward publish-subscribe.
Corona never parses a feed: the difference engine reads documents
through its own tolerant lexer (:mod:`repro.diffengine.tokenizer`).
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
    skip_hours: tuple[int, ...] = ()
    skip_days: tuple[str, ...] = ()
    cloud_domain: str = ""  # the pub-sub "cloud" tag, §2
    last_build_date: str = ""
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
        if self.last_build_date:
            parts.append(
                f"<lastBuildDate>{self.last_build_date}</lastBuildDate>"
            )
        if self.ttl_minutes is not None:
            parts.append(f"<ttl>{self.ttl_minutes}</ttl>")
        if self.skip_hours:
            hours = "".join(f"<hour>{hour}</hour>" for hour in self.skip_hours)
            parts.append(f"<skipHours>{hours}</skipHours>")
        if self.skip_days:
            days = "".join(f"<day>{day}</day>" for day in self.skip_days)
            parts.append(f"<skipDays>{days}</skipDays>")
        if self.cloud_domain:
            parts.append(
                f'<cloud domain="{_escape(self.cloud_domain)}" port="80" '
                'path="/notify" registerProcedure="" protocol="http-post"/>'
            )
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
