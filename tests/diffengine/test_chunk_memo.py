"""The chunk memo of ``CoreContentExtractor.core_lines``.

The oracle is the one-pass scan: ``_scan(document, _START)``, the
same function every chunk and every fallback runs, applied to the
whole document.  Memoised extraction must equal it with a cold memo,
a warm one and one that evicts, on the golden corpus, on generated
feeds and their mutants, and on the shapes that put an item tag
where the lexer does not see a tag start.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffengine import extractor as extractor_module
from repro.diffengine.extractor import CoreContentExtractor
from repro.feeds.generator import FeedGenerator
from tests.diffengine.test_golden_core_lines import (
    _MARKUP,
    _TAGGY,
    CONFIGS,
    _atom_document,
    _mutate,
    build_corpus,
)

_START = extractor_module._START

_ITEM = "<item><title>{0}</title><description>body {0}</description></item>\n"
_HEAD = '<?xml version="1.0"?><rss version="2.0"><channel><title>t</title>\n'
_NOISE = (
    "<lastBuildDate>Fri, 13 Jun 2026 10:00:00 GMT</lastBuildDate>"
    '<div class="ad-banner">buy</div><p>Views: 1,234</p>'
)


def _feed(*middles: str) -> str:
    """An RSS document: head, the given text between items, noise."""
    items = "".join(_ITEM.format(i) + m for i, m in enumerate(middles))
    return _HEAD + items + _ITEM.format("last") + _NOISE + "</channel></rss>"


#: Shape → (document, the path its second extraction takes): "memo"
#: (every chunk but the tail from the memo), "fallback" (a chunk is not
#: closed: the one-pass scan of the whole document) or "one-pass" (no
#: item tag).
BOUNDARY_SHAPES = {
    "item-in-comment": (_feed("<!-- <item>x</item> -->"), "fallback"),
    "item-in-unclosed-comment": (_feed("<!-- <item>x</item>"), "fallback"),
    "item-in-cdata": (_feed("<![CDATA[ <item>x</item> ]]>"), "fallback"),
    # "<!-->" and "<!--->" end in "-->" but open a comment all the same
    "item-after-short-comment": (_feed("<!-->", "-->"), "fallback"),
    "item-after-short-comment-2": (_feed("<!--->"), "fallback"),
    "item-in-attribute": (
        _feed('<a title="<item>x</item>">y</a>'), "fallback"
    ),
    "close-in-attribute": (_feed('<a title="</item>">y</a>'), "memo"),
    "script-spanning-items": (
        _feed("<script>var a = 1;", "x();</script>"), "memo"
    ),
    "stray-lt-before-item": (_feed("a < b "), "fallback"),
    "stray-lt-in-head": (_HEAD + "1 < 2 " + _ITEM.format(0), "fallback"),
    "upper-case-item": (
        _HEAD + "<ITEM><title>x</title></ITEM>\n<Item>y</Item>"
        + _ITEM.format(0) + _NOISE, "memo"
    ),
    "rdf-about": (
        _HEAD + '<items><rdf:Seq><rdf:li resource="a"/></rdf:Seq></items>'
        + '<item rdf:about="http://x/1"><title>one</title></item>\n'
        + '<item rdf:about="http://x/2"><title>two</title></item>'
        + _NOISE, "memo"
    ),
    "atom-entry": (_atom_document(random.Random(3), 4), "memo"),
    "unclosed-last-item": (
        _HEAD + _ITEM.format(0) + "<item><title>x", "memo"
    ),
    "item-name-prefix": (
        _HEAD + "<itemx>a</itemx><entryway/>" + _ITEM.format(0), "memo"
    ),
    "nested-items": (
        _HEAD + "<item><item>in</item></item><pubDate>d</pubDate>"
        + _ITEM.format(0) + "<pubDate>e</pubDate>", "memo"
    ),
    "unbalanced-item": (
        _HEAD + "<item>a" + _ITEM.format(0) + "<updated>u</updated>", "memo"
    ),
    "item-in-script": (
        "<html><script>" + _ITEM.format(0) + "</script></html>", "memo"
    ),
    "no-items": ("<html><body><p>hello</p></body></html>", "one-pass"),
}


def _one_pass(extractor: CoreContentExtractor, document: str) -> list[str]:
    return extractor._scan(document, _START)[0]


def _fresh(config: str) -> CoreContentExtractor:
    """A new extractor of one golden configuration, memos empty."""
    return dataclasses.replace(CONFIGS[config])


def _generated_feeds() -> list[str]:
    """Versions of generated feeds, each followed by a few mutants."""
    rng = random.Random("chunk-memo")
    documents = []
    for feed in range(3):
        generator = FeedGenerator(
            url=f"http://memo.example/feed{feed}",
            seed=feed,
            target_items=4 + 3 * feed,
            include_noise=feed != 1,
        )
        for step in range(5):
            now = 300.0 * step
            if step:
                generator.publish_update(now)
            document = generator.request(now).materialise()
            documents.append(document)
            documents.extend(_mutate(rng, document) for _ in range(6))
    return documents


_CORPUS = [
    *build_corpus().values(),
    *_generated_feeds(),
    *(document for document, _ in BOUNDARY_SHAPES.values()),
]


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_memoised_core_lines_equal_the_one_pass_scan(config):
    oracle = _fresh(config)
    expected = [_one_pass(oracle, document) for document in _CORPUS]
    warm = _fresh(config)
    for _ in range(2):  # the second round is served by the memo
        for document, lines in zip(_CORPUS, expected):
            assert warm.core_lines(document) == lines
            assert _fresh(config).core_lines(document) == lines
    assert warm._chunks  # the feeds did go through the memo


@pytest.mark.parametrize("shape", sorted(BOUNDARY_SHAPES))
def test_boundary_shapes(shape, monkeypatch):
    document, path = BOUNDARY_SHAPES[shape]
    extractor = CoreContentExtractor()
    expected = _one_pass(CoreContentExtractor(), document)
    assert extractor.core_lines(document) == expected
    scans = []
    scan = CoreContentExtractor._scan

    def recording_scan(self, text, state):
        scans.append((text, state))
        return scan(self, text, state)

    monkeypatch.setattr(CoreContentExtractor, "_scan", recording_scan)
    assert extractor.core_lines(document) == expected
    monkeypatch.undo()
    if path == "memo":  # only the tail is scanned again
        assert len(scans) == 1 and scans[0][0] != document
    else:
        assert scans[-1] == (document, _START)
        assert path == "fallback" or len(scans) == 1
    # Every stored chunk is closed and is what a fresh scan returns.
    for key, (lines, exit_state) in extractor._chunks.items():
        state, text = (_START, key) if isinstance(key, str) else (
            key[0], "<" + key[1]
        )
        assert extractor._scan(text, state) == (
            list(lines), exit_state, True
        )


def test_memo_never_exceeds_its_cap_and_evicts_the_oldest(monkeypatch):
    monkeypatch.setattr(extractor_module, "_CHUNK_CAP", 5)
    extractor = CoreContentExtractor()
    oracle = CoreContentExtractor()
    for document in _generated_feeds():
        assert extractor.core_lines(document) == _one_pass(oracle, document)
        assert len(extractor._chunks) <= 5
    document = _feed("", "")  # head + four items, all new
    extractor.core_lines(document)
    newest = list(extractor._chunks)
    extractor.core_lines(_feed("<p>moved</p>"))
    assert newest[0] not in extractor._chunks  # oldest out first
    assert newest[-1] in extractor._chunks
    assert extractor.core_lines(document) == _one_pass(oracle, document)


def test_returned_lists_are_fresh():
    extractor = CoreContentExtractor()
    document = _feed("")
    expected = _one_pass(CoreContentExtractor(), document)
    first = extractor.core_lines(document)
    first.append("scribble")
    first[0] = "overwritten"
    del first[1:3]
    assert extractor.core_lines(document) == expected
    assert extractor.core_lines(document) is not extractor.core_lines(document)


def test_repeated_items_share_their_line_strings():
    """Two polls of one feed version hand out the same line objects:
    pollers share the item lines instead of holding copies."""
    extractor = CoreContentExtractor()
    generator = FeedGenerator(url="http://memo.example/share", seed=1)
    first = extractor.core_lines(generator.request(0.0).materialise())
    second = extractor.core_lines(generator.request(60.0).materialise())
    assert first == second
    shared = sum(a is b for a, b in zip(first, second))
    assert shared >= len(first) - 4  # all but the tail's lines


@given(st.lists(st.one_of(_MARKUP, _TAGGY), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_random_markup_equals_the_one_pass_scan(documents):
    """Random documents (item tags included) through one warm memo."""
    extractor = CoreContentExtractor()
    for document in documents + documents:
        assert extractor.core_lines(document) == _one_pass(
            extractor, document
        )
