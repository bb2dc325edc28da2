"""A tolerant HTML/XML tokenizer.

Real-world feeds and web pages are rarely well formed, so the
difference engine cannot rely on a strict parser.  This tokenizer
never raises on malformed markup: anything that does not scan as a tag
is treated as text, unterminated constructs run to end of input, and
entities are left untouched (the differ compares text verbatim).

The one lexer is :func:`split_markup`, a single compiled ``re.split``
that cuts a document into alternating text and markup pieces in C
(``[text, markup, text, …, text]``, empty text pieces included).  A
markup piece is a comment (``<!--`` up to ``-->``), a declaration
(``<!`` or ``<?`` up to ``>``), a tag (``<`` up to ``>``), or — when
no ``>`` follows a ``<`` at all — the rest of the document, which is
text.  Unterminated comments and declarations run to end of input.
The split deliberately leaves whitespace inside the text pieces:
absorbing it into the pattern makes the split several times slower on
feeds, and callers strip text pieces themselves.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum


class TokenKind(Enum):
    """Lexical classes the extractor dispatches on."""

    OPEN = "open"  # <tag attr="...">
    CLOSE = "close"  # </tag>
    SELFCLOSE = "selfclose"  # <tag/>
    TEXT = "text"
    COMMENT = "comment"  # <!-- ... -->
    DECLARATION = "declaration"  # <!DOCTYPE ...>, <?xml ...?>


@dataclass(frozen=True)
class Token:
    """One lexical unit of the document."""

    kind: TokenKind
    text: str  # raw source slice
    name: str = ""  # lowercased tag name for tag tokens
    attrs: tuple[tuple[str, str], ...] = ()


_TAG_NAME = re.compile(r"[A-Za-z][-A-Za-z0-9:_.]*")
_ATTR = re.compile(
    r"""([A-Za-z][-A-Za-z0-9:_.]*)\s*(?:=\s*("[^"]*"|'[^']*'|[^\s>]+))?"""
)


def parse_attrs(source: str) -> tuple[tuple[str, str], ...]:
    """``(lowercased name, unquoted value)`` pairs, in source order."""
    attrs = []
    for match in _ATTR.finditer(source):
        name = match.group(1).lower()
        raw = match.group(2) or ""
        if raw[:1] in ("'", '"'):
            raw = raw[1:-1]
        attrs.append((name, raw))
    return tuple(attrs)


#: ``split_markup(document)`` → alternating text and markup pieces.
split_markup = re.compile(
    r"(<(?:!--.*?(?:-->|\Z)|[!?][^>]*(?:>|\Z)|[^>]*>|.*\Z))", re.S
).split


def scan(document: str) -> Iterator[tuple[TokenKind | None, str]]:
    """Token boundaries from :func:`split_markup`, never raising.

    Yields ``(kind, raw)``; a ``None`` kind marks a ``<...>`` slice that
    :func:`classify_tag` has yet to look at.  Comments and declarations
    without terminators run to end of input; an unterminated tag is
    text.  The raw slices concatenate back to ``document``.
    """
    for raw in split_markup(document):
        if not raw:
            continue
        if raw[0] != "<":
            yield TokenKind.TEXT, raw
        elif raw.startswith("<!--"):
            yield TokenKind.COMMENT, raw
        elif raw.startswith(("<!", "<?")):
            yield TokenKind.DECLARATION, raw
        elif raw[-1] != ">":
            yield TokenKind.TEXT, raw
        else:
            yield None, raw


def classify_tag(raw: str) -> tuple[TokenKind, str, str]:
    """``(kind, lowercased name, attribute source)`` of a ``<...>`` slice.

    A slice with no tag name after ``<`` (stray ``<`` in text, ``<>``)
    degrades to ``(TEXT, "", "")``.
    """
    inner = raw[1:-1].strip()
    closing = inner.startswith("/")
    body = inner.strip("/").strip()
    name_match = _TAG_NAME.match(body)
    if name_match is None:
        return TokenKind.TEXT, "", ""
    name = name_match.group(0).lower()
    if closing:
        return TokenKind.CLOSE, name, ""
    kind = TokenKind.SELFCLOSE if inner.endswith("/") else TokenKind.OPEN
    return kind, name, body[name_match.end() :]


def tokenize(document: str) -> list[Token]:
    """Scan ``document`` into a token stream, never raising."""
    tokens: list[Token] = []
    for kind, raw in scan(document):
        if kind is None:
            kind, name, attr_source = classify_tag(raw)
            tokens.append(Token(kind, raw, name, parse_attrs(attr_source)))
        else:
            tokens.append(Token(kind, raw))
    return tokens
