"""Golden vectors for ``CoreContentExtractor.core_lines``.

``golden/core_lines.json`` holds, per corpus entry and extractor
configuration, the sha256 of ``"\\n".join(core_lines(document))`` as the
extractor of PR 12 (before the one-pass scanner) produced it.  The
corpus is rebuilt here from seeds, so the oracle is data, not a second
implementation.  Regenerate (only when extraction is *meant* to
change) with ``PYTHONPATH=src python tests/diffengine/test_golden_core_lines.py``.

Two shapes are deliberately absent from the corpus, because PR 13
changed them on purpose and ``test_extractor.py`` pins them instead:
whitespace-separated ad class lists, and a same-name element nested
inside a suppressed subtree.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffengine import extractor as extractor_module
from repro.diffengine.extractor import CoreContentExtractor
from repro.feeds.generator import FeedGenerator

GOLDEN = Path(__file__).parent / "golden" / "core_lines.json"

CONFIGS = {
    "default": CoreContentExtractor(),
    "keep-all": CoreContentExtractor(
        strip_comments=False,
        strip_feed_metadata=False,
        strip_timestamp_text=False,
    ),
    "extra-noise": CoreContentExtractor(
        noise_elements=frozenset({"script", "p"}),
        extra_noise_elements=frozenset({"guid", "aside"}),
    ),
}

#: Well-formed and malformed fragments (those of ``test_tokenizer.py``
#: plus the shapes the extractor branches on).
FRAGMENTS = (
    "",
    "<p>hello</p>",
    '<a href="http://x" class=link disabled>',
    '<a HREF="x">',
    "<br/>",
    "<!-- note --><!DOCTYPE html><?xml version='1'?>",
    "<DIV>",
    "a < b",
    "before <unclosed",
    "<!-- never closed",
    "<>",
    "< >",
    "</>",
    "<//p//>",
    "<p / >x</ p >",
    '<?xml version="1.0"?><rss version="2.0"><channel>'
    "<title>T &amp; U</title><item><title>x<b>y</title></item>"
    "</channel></rss>",
    '<a b="2" a="1" onclick="f()" STYLE=\'x\' nonce=q>x</a>',
    '<img src=a.png alt="a > b"/>',
    '<div id="ad-slot">junk</div><div id="radar">weather</div>',
    '<iframe src="x"/><p>after selfclosing noise</p>',
    "<script>if (a < b) { x(); }</script><p>12:45</p><p>3 comments</p>",
    "<script>never closed <p>swallowed</p>",
    "<channel><pubDate>Fri, 13 Jun 2026</pubDate><updated/>"
    "<item><pubDate>Thu, 12 Jun 2026</pubDate></item></item>"
    "<lastModified>2026-06-13T10:00:00Z</lastModified></channel>",
    "<entry><entry><updated>2026-06-13</updated></entry></entry>"
    "<updated>2026-06-14</updated><generator uri='x'>g</generator>",
    "<ttl>60</ttl><TTL>5</ttl><cloud domain='x'/><docs>d</docs>",
    "<p>  padded \n text </p>\n\n<p>Views: 1,234</p><!--c--><p>1,234 hits</p>",
    "<é>not a tag</é><a\tb='1'\nc=2>x</a>",
)


def _atom_document(rng: random.Random, entries: int) -> str:
    """An Atom 1.0 feed (RFC 3339 dates); its words need no escaping."""
    words = "corona beehive wedge honeycomb pastry overlay feed".split()

    def sentence(n: int) -> str:
        return " ".join(rng.choice(words) for _ in range(n))

    def date() -> str:
        return time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime(rng.randrange(10**6))
        )

    parts = [
        '<?xml version="1.0" encoding="utf-8"?>',
        '<feed xmlns="http://www.w3.org/2005/Atom">',
        f"<title>atom {sentence(2)}</title>",
        '<link href="http://atom.example/feed"/>',
        f"<updated>{date()}</updated>",
    ]
    for index in range(entries):
        title = sentence(4)
        summary = sentence(rng.randint(5, 20))
        parts.append(
            "\n".join([
                "<entry>",
                f"<title>{title}</title>",
                f"<id>urn:entry:{index}</id>",
                f'<link href="http://atom.example/{index}"/>',
                f"<summary>{summary}</summary>",
                f"<updated>{date()}</updated>",
                "</entry>",
            ])
        )
    parts.append("</feed>")
    return "\n".join(parts)


def _mutate(rng: random.Random, document: str) -> str:
    """Truncate, splice or scribble markup characters over a document."""
    alphabet = "<>/=\"'!-? \n"
    roll = rng.random()
    if roll < 0.3:
        return document[: rng.randrange(len(document) + 1)]
    chars = list(document)
    for _ in range(rng.randint(1, 12)):
        at = rng.randrange(len(chars) + 1)
        op = rng.random()
        if op < 0.4:
            chars.insert(at, rng.choice(alphabet))
        elif op < 0.7 and chars:
            del chars[min(at, len(chars) - 1)]
        elif chars:
            chars[min(at, len(chars) - 1)] = rng.choice(alphabet)
    if roll < 0.5:
        cut = rng.randrange(len(chars) + 1)
        return "".join(chars[cut:] + chars[:cut])
    return "".join(chars)


#: Mutants in which a damaged close tag leaves a dropped element open
#: across the next same-name OPEN (``<pubDate>..</pu<bD?te>..<pubDate>``).
#: Depth counting changed these on purpose; with it switched off the
#: new extractor reproduced the old one on all 240 (and on 20 000 more).
_NESTED_SHAPE = frozenset(
    {2, 26, 27, 31, 97, 101, 114, 139, 150, 156, 163, 178, 196, 200, 217, 218}
)


def build_corpus() -> dict[str, str]:
    """Entry name → document; every draw comes from a fixed seed."""
    corpus = {f"fragment-{i:02d}": doc for i, doc in enumerate(FRAGMENTS)}
    feeds: list[str] = []
    for feed in range(4):
        for noise in (True, False):
            generator = FeedGenerator(
                url=f"http://golden.example/feed{feed}",
                seed=feed,
                target_items=5 + 4 * feed,
                include_noise=noise,
            )
            for step in range(4):
                now = 600.0 * step
                if step:
                    generator.publish_update(now)
                name = f"rss-{feed}-{'noise' if noise else 'plain'}-v{step + 1}"
                corpus[name] = generator.render(now)
                feeds.append(corpus[name])
    rng = random.Random("golden-core-lines")
    for index in range(3):
        corpus[f"atom-{index}"] = _atom_document(rng, 3 + 2 * index)
        feeds.append(corpus[f"atom-{index}"])
    for index in range(240):
        document = _mutate(rng, rng.choice(feeds))
        if index not in _NESTED_SHAPE:
            corpus[f"mutant-{index:03d}"] = document
    return corpus


def digests(extractor: CoreContentExtractor) -> dict[str, str]:
    """Entry name → sha256 of the extractor's joined core lines."""
    return {
        name: hashlib.sha256(
            "\n".join(extractor.core_lines(document)).encode("utf-8")
        ).hexdigest()
        for name, document in build_corpus().items()
    }


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_core_lines_match_golden(config):
    golden = json.loads(GOLDEN.read_text())[config]
    actual = digests(CONFIGS[config])
    assert sorted(actual) == sorted(golden)
    assert [n for n in golden if actual[n] != golden[n]] == []


# ----------------------------------------------------------------------
# verdict-table independence
# ----------------------------------------------------------------------
_MARKUP = st.text(
    alphabet=st.characters(
        whitelist_categories=("L", "N", "P", "Z"),
        whitelist_characters="<>/=\"'!-?\n",
    ),
    max_size=200,
)
_TAGGY = st.lists(
    st.sampled_from(
        [
            "<div>", "</div>", '<div class="ad">', "<aside>", "</aside>",
            "<script>", "</script>", "<item>", "</item>", "<pubDate>",
            "</pubDate>", "<ttl>", "</ttl>", "<br/>", "<!--c-->", "text",
            " 12:45 ", '<p id="x" style="y">', "</p>", "<", ">",
        ]
    ),
    max_size=30,
).map("".join)


@given(st.one_of(_MARKUP, _TAGGY), st.one_of(_MARKUP, _TAGGY))
@settings(max_examples=200, deadline=None)
def test_core_lines_independent_of_verdict_table_state(document, other):
    """Never raises; cold, warm and just-cleared tables agree; two
    configurations never see each other's verdicts."""
    cold = CoreContentExtractor().core_lines(document)
    warm = CoreContentExtractor()
    warm.core_lines(other)
    assert warm.core_lines(document) == cold
    assert warm.core_lines(document) == cold
    warm._verdicts.clear()
    assert warm.core_lines(document) == cold
    aside = CoreContentExtractor(extra_noise_elements=frozenset({"aside"}))
    assert "<aside>" not in aside.core_lines(document)
    assert CoreContentExtractor().core_lines(document) == cold


def test_verdict_table_is_cleared_at_its_cap(monkeypatch):
    document = "".join(f'<p id="n{i}">x</p>' for i in range(7))
    cold = CoreContentExtractor().core_lines(document)
    monkeypatch.setattr(extractor_module, "_VERDICT_CAP", 4)
    extractor = CoreContentExtractor()
    assert extractor.core_lines(document) == cold  # clears mid-document
    assert extractor.core_lines(document) == cold  # and again, warm
    assert len(extractor._verdicts) <= 4


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    vectors = {config: digests(CONFIGS[config]) for config in CONFIGS}
    GOLDEN.write_text(json.dumps(vectors, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
