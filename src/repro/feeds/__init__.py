"""Micronews feed rendering and synthetic feed generation.

Micronews feeds are "short descriptions of frequently updated
information ... in XML based formats such as RSS and Atom" (§2).
Corona polls them over HTTP and diffs their contents; this package
provides

* :mod:`repro.feeds.rss` — RSS 2.0 rendering, including the ``ttl``
  update hint the standard defines, and
* :mod:`repro.feeds.generator` — synthetic evolving feeds whose
  update sizes follow the Cornell survey (≈17 changed lines, ≈6.8 % of
  content per update), standing in for the live syndic8.com feeds the
  paper polls.
"""

from repro.feeds.generator import FeedGenerator
from repro.feeds.rss import RssChannel, RssItem

__all__ = [
    "FeedGenerator",
    "RssChannel",
    "RssItem",
]
