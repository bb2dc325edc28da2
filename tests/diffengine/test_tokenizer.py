"""Tolerant tokenizer: well-formed and malformed markup."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffengine.tokenizer import (
    Token,
    TokenKind,
    classify_tag,
    parse_attrs,
    scan,
    tokenize,
)
from repro.feeds.generator import FeedGenerator
from tests.diffengine.test_golden_core_lines import _MARKUP, _TAGGY, _mutate


class TestWellFormed:
    def test_simple_element(self):
        tokens = tokenize("<p>hello</p>")
        assert [t.kind for t in tokens] == [
            TokenKind.OPEN,
            TokenKind.TEXT,
            TokenKind.CLOSE,
        ]
        assert tokens[0].name == "p"
        assert tokens[1].text == "hello"

    def test_attributes_parsed(self):
        (token,) = tokenize('<a href="http://x" class=link disabled>')
        assert token.attrs == (
            ("href", "http://x"), ("class", "link"), ("disabled", "")
        )

    def test_attr_case_insensitive(self):
        (token,) = tokenize('<a HREF="x">')
        assert token.attrs == (("href", "x"),)

    def test_selfclosing(self):
        (token,) = tokenize("<br/>")
        assert token.kind is TokenKind.SELFCLOSE
        assert token.name == "br"

    def test_comment_and_declaration(self):
        tokens = tokenize("<!-- note --><!DOCTYPE html><?xml version='1'?>")
        assert [t.kind for t in tokens] == [
            TokenKind.COMMENT,
            TokenKind.DECLARATION,
            TokenKind.DECLARATION,
        ]

    def test_tag_names_lowercased(self):
        (token,) = tokenize("<DIV>")
        assert token.name == "div"


class TestMalformed:
    def test_stray_lt_is_text(self):
        tokens = tokenize("a < b")
        assert all(t.kind is TokenKind.TEXT for t in tokens)

    def test_unterminated_tag_degrades_to_text(self):
        tokens = tokenize("before <unclosed")
        assert tokens[-1].kind is TokenKind.TEXT

    def test_unterminated_comment_runs_to_end(self):
        tokens = tokenize("<!-- never closed")
        assert tokens == [Token(TokenKind.COMMENT, "<!-- never closed")]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_tag_without_name(self):
        tokens = tokenize("<>")
        assert tokens[0].kind is TokenKind.TEXT


class TestRoundTrip:
    @given(
        st.text(
            alphabet=st.characters(
                whitelist_categories=("L", "N", "P", "Z"),
                whitelist_characters="<>/=\"'!-",
            ),
            max_size=200,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_render_inverts_tokenize(self, document):
        """Property: tokenization never loses a byte — rendering the
        token stream reproduces the input exactly, malformed or not."""
        assert "".join(t.text for t in tokenize(document)) == document

    def test_render_inverts_real_feed(self):
        document = (
            '<?xml version="1.0"?><rss version="2.0"><channel>'
            "<title>T &amp; U</title><item><title>x<b>y</title></item>"
            "</channel></rss>"
        )
        assert "".join(t.text for t in tokenize(document)) == document


class TestScanner:
    def test_tags_come_out_raw_and_unclassified(self):
        assert list(scan("a<P x=1>b</p><!--c--><?d?><")) == [
            (TokenKind.TEXT, "a"),
            (None, "<P x=1>"),
            (TokenKind.TEXT, "b"),
            (None, "</p>"),
            (TokenKind.COMMENT, "<!--c-->"),
            (TokenKind.DECLARATION, "<?d?>"),
            (TokenKind.TEXT, "<"),
        ]

    def test_classify_tag(self):
        assert classify_tag('<A Href="x">') == (TokenKind.OPEN, "a", ' Href="x"')
        assert classify_tag("</ P >") == (TokenKind.CLOSE, "p", "")
        assert classify_tag("<br />") == (TokenKind.SELFCLOSE, "br", "")
        assert classify_tag("< 3 >") == (TokenKind.TEXT, "", "")


# ----------------------------------------------------------------------
# the regex split against the str.find scanner it replaced
# ----------------------------------------------------------------------
def _find_scan(document):
    """The ``str.find`` scanner ``scan`` replaced, kept as the oracle."""
    position = 0
    length = len(document)
    find = document.find
    while position < length:
        lt = find("<", position)
        if lt == -1:
            yield TokenKind.TEXT, document[position:]
            return
        if lt > position:
            yield TokenKind.TEXT, document[position:lt]
        if document.startswith("<!--", lt):
            end = find("-->", lt + 4)
            stop = length if end == -1 else end + 3
            yield TokenKind.COMMENT, document[lt:stop]
        elif document.startswith(("<!", "<?"), lt):
            end = find(">", lt + 2)
            stop = length if end == -1 else end + 1
            yield TokenKind.DECLARATION, document[lt:stop]
        else:
            end = find(">", lt + 1)
            if end == -1:
                yield TokenKind.TEXT, document[lt:]
                return
            stop = end + 1
            yield None, document[lt:stop]
        position = stop


def _find_tokenize(document):
    tokens = []
    for kind, raw in _find_scan(document):
        if kind is None:
            kind, name, attr_source = classify_tag(raw)
            tokens.append(Token(kind, raw, name, parse_attrs(attr_source)))
        else:
            tokens.append(Token(kind, raw))
    return tokens


_FEEDS = [
    FeedGenerator(
        url=f"http://lexer.example/{index}",
        seed=index,
        target_items=3 + 2 * index,
        include_noise=index % 2 == 0,
    ).render(0.0)
    for index in range(4)
]
_DAMAGED_FEEDS = st.builds(
    lambda feed, seed: _mutate(random.Random(seed), feed),
    st.sampled_from(_FEEDS),
    st.integers(0, 2**32 - 1),
)
#: Bare openers and terminators, so unterminated constructs meet a
#: later ``>`` or ``-->`` often.
_FRAGMENTED = st.lists(
    st.sampled_from(
        ["<!--", "-->", "--", "<!", "<?", "<", ">", "/>", "<a", "</a",
         "x", " ", "\n"]
    ),
    max_size=20,
).map("".join)
_TRUNCATED_FEEDS = st.builds(
    lambda feed, cut: feed[:cut],
    st.sampled_from(_FEEDS),
    st.integers(0, max(map(len, _FEEDS))),
)


class TestLexerEquivalence:
    @given(
        st.one_of(
            _MARKUP, _TAGGY, _FRAGMENTED, _DAMAGED_FEEDS, _TRUNCATED_FEEDS
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_split_lexer_matches_the_find_scanner(self, document):
        expected = list(_find_scan(document))
        actual = list(scan(document))
        assert actual == expected
        assert "".join(raw for _, raw in actual) == document
        assert tokenize(document) == _find_tokenize(document)

    def test_edge_shapes(self):
        for document in (
            "<", "a<", "<!", "<?", "<!-", "<!--", "<!-->", "<!---->",
            "x<!-- a -- b", "<?pi", "<!DOCTYPE", "<a", "<a<b>", "<<>>",
            "<!--a-->b<c", "a<b>c<!d>e<?f?>g<!--h-->i", "<!-- a > b",
            "<!--->", "<?a<b>", "<!a<!--b-->", "<>x", "a<>b<c>",
        ):
            assert list(scan(document)) == list(_find_scan(document))
