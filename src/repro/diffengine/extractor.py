"""Core-content isolation: drop volatile page elements before diffing.

The difference engine "parses the HTML or XML content to discover the
core content in the channel, ignoring frequently changing elements
such as timestamps, counters, and advertisements" (§3.4).  Without
this filter almost every poll would look like an update and Corona
would flood its clients with noise.

Three families of volatility are filtered:

* **structural** — elements whose tag or attributes mark them as ads,
  scripts or boilerplate (``<script>``, ``<iframe>``, ids/classes
  containing ``ad``/``banner``/``sponsor``…);
* **feed metadata** — RSS/Atom bookkeeping tags whose churn is not
  content (``lastBuildDate``, ``ttl``, ``updated`` outside entries…);
* **textual** — free-text fragments that scan as pure timestamps or
  counters.

Most polls find nothing new, so extraction memoises per feed item.
A document is cut before every ``<item``/``<entry`` tag and after the
last item's close tag: a head, one chunk per item, and a tail that
carries the per-request noise (``lastBuildDate``, the rotating ad, the
hit counter) and is scanned every time.  The scan is a pure
left-to-right transducer whose only carried state is ``(suppressed,
nesting, item_depth)``, so a chunk's lines and exit state are a
function of its entry state and its text, and the chunk memo stores
exactly that.  The cuts are exact because of one rule: a chunk is
used only if it is *closed* — its last markup piece ends at its own
terminator (``>``, or ``-->`` for a comment), never at the end of the
chunk.  Then :func:`split_markup` of the document is the concatenation
of its chunks' pieces: each cut falls on a ``<`` that starts a piece
of the whole document too.  A cut inside a comment, CDATA, an
attribute value or after a stray ``<`` leaves an unclosed chunk, and
the whole document takes the one-pass scan instead, as does a document
without items.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.diffengine.tokenizer import (
    TokenKind,
    classify_tag,
    parse_attrs,
    split_markup,
    tokenize,  # noqa: F401 -- wrap target of benchmarks/e2e/layers.py
)

#: Elements whose entire subtree is noise for update detection.
_NOISE_ELEMENTS = frozenset(
    {"script", "style", "iframe", "noscript", "object", "embed"}
)

#: Feed-level bookkeeping tags: churn here is not a content update.
_FEED_METADATA = frozenset(
    {"lastbuilddate", "ttl", "skiphours", "skipdays", "cloud", "generator",
     "docs"}
)
#: Volatile at channel/feed level, real content inside an item/entry.
_FEED_METADATA_OUTSIDE_ITEMS = frozenset(
    {"pubdate", "updated", "lastmodified"}
)
_ITEM_ELEMENTS = frozenset({"item", "entry"})

#: Attribute substrings marking advertisement containers.
_AD_MARKERS = ("advert", "banner", "sponsor", "promo", "doubleclick", "adsense")
#: ...and "ad"/"ads" as a whole -/_-separated part of one id/class word.
_AD_EXACT = re.compile(r"(^|[-_])ads?([-_]|$)")

#: Session noise that tag normalization drops.
_VOLATILE_ATTRS = frozenset({"onclick", "style", "nonce"})

#: Verdict drop rules.
_KEEP, _DROP, _DROP_OUTSIDE_ITEMS = 0, 1, 2
#: The kinds the scan loop compares against, as plain globals: an
#: ``Enum`` member lookup costs ~0.1 µs, several per markup piece.
_OPEN, _CLOSE, _TEXT = TokenKind.OPEN, TokenKind.CLOSE, TokenKind.TEXT
#: Distinct raw tags a verdict table holds before it is cleared.
_VERDICT_CAP = 4096
#: Chunks a chunk memo holds; the oldest goes first.  Paper-scale
#: §5.2 (3 000 channels, one hour) stores 53 828 and never evicts; a
#: 16 384 cap thrashed there (2.3x the misses, no wall gain).
_CHUNK_CAP = 65536

#: Scan state at the start of a document: nothing suppressed, no item.
_START = ("", 0, 0)
#: Cuts a document's body at every item/entry tag, in C, eating the
#: tag's ``<`` (a pattern that starts with a literal splits ~4x faster
#: than a bare lookahead): ``[head, "item>…", "entry …>…", …]``.
_split_items = re.compile(r"<(?=(?:item|entry)\b)", re.IGNORECASE).split

#: Free text that is nothing but a clock or a counter.
_TIMESTAMP_TEXT = re.compile(
    r"""^\s*(
        \d{1,2}:\d{2}(:\d{2})?(\s*(am|pm|AM|PM))?      # 12:34:56 pm
      | \d{4}-\d{2}-\d{2}([T ]\d{2}:\d{2}(:\d{2})?(\.\d+)?(Z|[+-]\d{2}:?\d{2})?)?
      | (Mon|Tue|Wed|Thu|Fri|Sat|Sun)[a-z]*,?\s+\d{1,2}\s+\w{3,9}\s+\d{2,4}.*
      | \d{1,3}(,\d{3})*\s*(hits?|views?|visitors?|readers?|comments?)
      | (page\s*)?(views?|hits?|visitors?)\s*:?\s*\d[\d,]*
    )\s*$""",
    re.VERBOSE | re.IGNORECASE,
)


def _looks_like_ad(attrs: tuple[tuple[str, str], ...]) -> bool:
    haystack = " ".join(
        value for key, value in attrs if key in ("id", "class", "name")
    ).lower()
    if any(marker in haystack for marker in _AD_MARKERS):
        return True
    return any(_AD_EXACT.search(word) for word in haystack.split())


def _normalize_tag(
    kind: TokenKind, name: str, attrs: tuple[tuple[str, str], ...]
) -> str:
    """Render a tag with sorted attributes, dropping session noise."""
    rendered = " ".join(
        f'{key}="{value}"'
        for key, value in sorted(attrs)
        if key not in _VOLATILE_ATTRS
    )
    closing = "/" if kind is TokenKind.SELFCLOSE else ""
    if rendered:
        return f"<{name} {rendered}{closing}>"
    return f"<{name}{closing}>"


@dataclass(frozen=True)
class CoreContentExtractor:
    """Configurable volatile-element filter.

    The defaults implement the paper's examples (timestamps, counters,
    advertisements); deployments can extend the stop lists per feed.
    Frozen, so the verdict table can never describe another
    configuration than the one that filled it.
    """

    noise_elements: frozenset[str] = _NOISE_ELEMENTS
    extra_noise_elements: frozenset[str] = frozenset()
    strip_comments: bool = True
    strip_feed_metadata: bool = True
    strip_timestamp_text: bool = True
    #: raw tag slice → (kind, name, drop rule, normalized line).  Feeds
    #: repeat a few dozen distinct tag strings thousands of times; text
    #: is never memoised, so the table stays that small.
    _verdicts: dict[str, tuple[TokenKind, str, int, str]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: (entry state, item text after its "<") → (its lines, exit
    #: state), for every closed item chunk, and head text → the same
    #: for the head: an unchanged item is one lookup.
    _chunks: dict[
        str | tuple[tuple[str, int, int], str],
        tuple[tuple[str, ...], tuple[str, int, int]],
    ] = field(default_factory=dict, init=False, repr=False, compare=False)

    def _verdict(self, raw: str) -> tuple[TokenKind, str, int, str]:
        """Classify one raw tag; everything here runs once per distinct
        tag string, not once per occurrence."""
        kind, name, attr_source = classify_tag(raw)
        if kind is TokenKind.TEXT:
            return kind, "", _KEEP, ""  # malformed: never cached
        if kind is TokenKind.CLOSE:
            drop, line = _KEEP, f"</{name}>"
        else:
            attrs = parse_attrs(attr_source)
            line = _normalize_tag(kind, name, attrs)
            if (
                name in self.noise_elements
                or name in self.extra_noise_elements
                or _looks_like_ad(attrs)
                or (self.strip_feed_metadata and name in _FEED_METADATA)
            ):
                drop = _DROP
            elif (
                self.strip_feed_metadata
                and name in _FEED_METADATA_OUTSIDE_ITEMS
            ):
                drop = _DROP_OUTSIDE_ITEMS
            else:
                drop = _KEEP
        if len(self._verdicts) >= _VERDICT_CAP:
            self._verdicts.clear()
        verdict = self._verdicts[raw] = (kind, name, drop, line)
        return verdict

    # ------------------------------------------------------------------
    def core_lines(self, document: str) -> list[str]:
        """The document's core content as comparable lines.

        Each retained text fragment and structural tag becomes one
        line, so the differ's line numbers map to document elements and
        the "17 lines of XML per update" granularity of the survey.
        Feeds are cut into a head, one chunk per item and the tail
        after the last item; every chunk but the tail is looked up in
        the chunk memo by its entry state and text, so a poll that
        finds nothing scans only its noise (see the module docstring
        for why this is exact).  A document without an item tag, or
        with a chunk that is not closed, is scanned in one pass.
        """
        head, *items = _split_items(document)
        if not items:
            return self._scan(document, _START)[0]
        # The last item ends at its close tag; the tail after it is
        # scanned every time.  Without a close tag it is all tail.
        tail = items.pop()
        end = max(tail.rfind("</item>") + 7, tail.rfind("</entry>") + 8)
        if end > 7:  # found: the piece starts "item"/"entry", not "</"
            items.append(tail[:end])
            tail = tail[end:]
        else:
            tail = "<" + tail
        memo = self._chunks
        # The head always starts in the start state: its text is its key.
        hit = memo.get(head) or self._memoise(head, head, _START)
        if hit is None:
            return self._scan(document, _START)[0]
        lines = list(hit[0])
        state = hit[1]
        for item in items:
            key = (state, item)
            hit = memo.get(key) or self._memoise(key, "<" + item, state)
            if hit is None:
                return self._scan(document, _START)[0]
            lines.extend(hit[0])
            state = hit[1]
        lines.extend(self._scan(tail, state)[0])
        return lines

    def _memoise(
        self, key: str | tuple[tuple[str, int, int], str], chunk: str,
        state: tuple[str, int, int],
    ) -> tuple[tuple[str, ...], tuple[str, int, int]] | None:
        """Scan a chunk the memo lacks and store it, if it is closed."""
        lines, exit_state, closed = self._scan(chunk, state)
        if not closed:
            return None
        memo = self._chunks
        if len(memo) >= _CHUNK_CAP:
            del memo[next(iter(memo))]
        hit = memo[key] = (tuple(lines), exit_state)
        return hit

    def _scan(
        self, text: str, state: tuple[str, int, int]
    ) -> tuple[list[str], tuple[str, int, int], bool]:
        """One left-to-right pass over ``text`` from ``state``.

        Returns ``(lines, exit state, closed)``.  The state is
        ``(suppressed, nesting, item_depth)``: the name of the dropped
        element we are inside, the same-name OPENs seen since (itself
        included), and the open items.  Walks the pieces of
        :func:`split_markup` directly: the even pieces are text, each
        odd one is markup — a comment, a declaration, a tag (looked up
        in the verdict table) or, with no ``>`` after its ``<``, the
        rest of the text.  ``closed`` says the last markup piece ended
        at its own terminator, so the same piece starts and ends at the
        same place in any longer text that continues with ``<``.
        """
        lines: list[str] = []
        append = lines.append
        verdicts = self._verdicts
        timestamp = (
            _TIMESTAMP_TEXT.match if self.strip_timestamp_text else None
        )
        suppressed, nesting, item_depth = state
        pieces = split_markup(text)
        # [text, markup, …, text]: strip every text piece in one C
        # loop, pair the texts with the markup that follows them.
        texts = list(map(str.strip, pieces[::2]))
        last = texts.pop()
        for text, raw in zip(texts, pieces[1::2]):
            if text and not suppressed:
                if not (timestamp and timestamp(text)):
                    append(text)
            verdict = verdicts.get(raw)
            if verdict is None:
                if raw.startswith("<!--"):
                    if not (suppressed or self.strip_comments):
                        append(raw.strip())
                    continue
                if raw.startswith(("<!", "<?")):
                    continue  # a declaration
                if raw[-1] == ">":
                    verdict = self._verdict(raw)
                else:  # no ">" after this "<": the rest is text
                    last = raw.strip()
                    break
            kind, name, drop, line = verdict
            if suppressed:
                if name == suppressed:
                    if kind is _OPEN:
                        nesting += 1
                    elif kind is _CLOSE:
                        nesting -= 1
                        if not nesting:
                            suppressed = ""
                continue
            if kind is _CLOSE:
                if item_depth and name in _ITEM_ELEMENTS:
                    item_depth -= 1
                append(line)
            elif kind is _TEXT:  # a nameless "<...>" is text
                text = raw.strip()
                if not (timestamp and timestamp(text)):
                    append(text)
            else:
                if kind is _OPEN and name in _ITEM_ELEMENTS:
                    item_depth += 1
                if drop == _KEEP or (
                    drop == _DROP_OUTSIDE_ITEMS and item_depth
                ):
                    append(line)
                elif kind is _OPEN:
                    suppressed, nesting = name, 1
        if last and not suppressed:
            if not (timestamp and timestamp(last)):
                append(last)
        closed = len(pieces) == 1 or _terminated(pieces[-2])
        return lines, (suppressed, nesting, item_depth), closed


def _terminated(raw: str) -> bool:
    """Whether a markup piece ends at its own terminator rather than at
    the end of the text (a comment needs a ``-->`` past its ``<!--``)."""
    if raw.startswith("<!--"):
        return len(raw) >= len("<!---->") and raw.endswith("-->")
    return raw[-1] == ">"


#: The paper's defaults; every ``CoronaNode`` shares this one (and so
#: one verdict table) rather than carrying a private copy.
DEFAULT_EXTRACTOR = CoreContentExtractor()


def extract_core_lines(document: str) -> list[str]:
    """Module-level convenience using the default extractor."""
    return DEFAULT_EXTRACTOR.core_lines(document)
