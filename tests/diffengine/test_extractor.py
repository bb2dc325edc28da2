"""Core-content isolation: volatile elements must not look like updates."""

import pytest

from repro.diffengine.extractor import CoreContentExtractor, extract_core_lines


BASE_DOC = """<rss><channel><title>News</title>
<lastBuildDate>Fri, 13 Jun 2026 10:00:00 GMT</lastBuildDate>
<ttl>60</ttl>
<item><title>Story A</title><description>body text</description></item>
<div class="ad-banner">BUY NOW</div>
<script>var t = Date.now();</script>
<p>12:45:10 PM</p>
<p>Views: 1,234</p>
<p>Real content here</p>
</channel></rss>"""


class TestVolatileInvariance:
    def test_timestamp_churn_invisible(self):
        changed = BASE_DOC.replace("10:00:00", "11:23:45")
        assert extract_core_lines(BASE_DOC) == extract_core_lines(changed)

    def test_counter_churn_invisible(self):
        changed = BASE_DOC.replace("1,234", "999,999")
        assert extract_core_lines(BASE_DOC) == extract_core_lines(changed)

    def test_script_churn_invisible(self):
        changed = BASE_DOC.replace("Date.now()", "12345")
        assert extract_core_lines(BASE_DOC) == extract_core_lines(changed)

    def test_ad_rotation_invisible(self):
        changed = BASE_DOC.replace("BUY NOW", "50% OFF TODAY")
        assert extract_core_lines(BASE_DOC) == extract_core_lines(changed)

    def test_ttl_change_invisible(self):
        changed = BASE_DOC.replace("<ttl>60</ttl>", "<ttl>5</ttl>")
        assert extract_core_lines(BASE_DOC) == extract_core_lines(changed)


class TestRealChanges:
    def test_new_story_visible(self):
        changed = BASE_DOC.replace("Story A", "Story B")
        assert extract_core_lines(BASE_DOC) != extract_core_lines(changed)

    def test_body_edit_visible(self):
        changed = BASE_DOC.replace("body text", "rewritten body")
        assert extract_core_lines(BASE_DOC) != extract_core_lines(changed)

    def test_real_text_retained(self):
        assert "Real content here" in extract_core_lines(BASE_DOC)


class TestConfiguration:
    def test_pubdate_kept_inside_items_dropped_at_channel_level(self):
        doc = (
            "<rss><channel><pubDate>Fri, 13 Jun 2026</pubDate>"
            "<item><pubDate>Thu, 12 Jun 2026</pubDate></item>"
            "</channel></rss>"
        )
        lines = extract_core_lines(doc)
        # Channel-level pubDate dropped entirely; item-level pubDate
        # element survives (its timestamp text is filtered separately).
        assert "<pubdate>" in lines
        assert lines.count("<pubdate>") == 1

    def test_extra_noise_elements(self):
        extractor = CoreContentExtractor(
            extra_noise_elements=frozenset({"aside"})
        )
        doc = "<div><aside>sidebar junk</aside><p>real</p></div>"
        lines = extractor.core_lines(doc)
        assert "sidebar junk" not in lines
        assert "real" in lines

    def test_timestamp_filter_can_be_disabled(self):
        extractor = CoreContentExtractor(strip_timestamp_text=False)
        lines = extractor.core_lines("<p>12:45:10 PM</p>")
        assert "12:45:10 PM" in lines

    def test_attribute_normalization_sorts(self):
        a = extract_core_lines('<a b="2" a="1">x</a>')
        b = extract_core_lines('<a a="1" b="2">x</a>')
        assert a == b

    def test_volatile_attrs_dropped(self):
        a = extract_core_lines('<p style="color:red">x</p>')
        b = extract_core_lines('<p style="color:blue">x</p>')
        assert a == b

    def test_id_with_ad_substring_not_filtered(self):
        """'radar' contains 'ad' but is not an advertisement."""
        lines = extract_core_lines('<div id="radar">weather</div>')
        assert "weather" in lines

    def test_explicit_ad_ids_filtered(self):
        for marker in ("ad-slot", "ads", "banner_top", "sponsor-box"):
            lines = extract_core_lines(
                f'<div id="{marker}">junk</div><p>keep</p>'
            )
            assert "junk" not in lines, marker
            assert "keep" in lines


class TestAdClassLists:
    """"ad"/"ads" is matched per whitespace-separated id/class word."""

    @pytest.mark.parametrize(
        "attrs",
        [
            'class="sidebar ad"',
            'class="ads top"',
            'class="top ad-slot"',
            'class="box text_ad wide"',
            'id="x" class="ad"',
        ],
    )
    def test_ad_word_in_a_list_is_filtered(self, attrs):
        lines = extract_core_lines(f"<div {attrs}>junk</div><p>keep</p>")
        assert lines == ["<p>", "keep", "</p>"]

    @pytest.mark.parametrize(
        "attrs",
        [
            'id="radar"',
            'class="header"',
            'class="download"',
            'class="lead story"',
            'class="x" data-kind="ad"',
        ],
    )
    def test_content_words_containing_ad_are_kept(self, attrs):
        lines = extract_core_lines(f"<div {attrs}>story</div>")
        assert "story" in lines


class TestNestedSuppression:
    """A dropped subtree ends at *its* close tag, not the first
    same-name one inside it."""

    def test_nested_div_inside_ad(self):
        doc = '<div class="ad-banner"><div>x</div>rotating copy</div><p>keep</p>'
        assert extract_core_lines(doc) == ["<p>", "keep", "</p>"]
        rotated = doc.replace("rotating copy", "other copy")
        assert extract_core_lines(rotated) == extract_core_lines(doc)

    def test_nested_noise_element(self):
        doc = "<object><object>inner</object>fallback</object><p>keep</p>"
        assert extract_core_lines(doc) == ["<p>", "keep", "</p>"]

    def test_nested_feed_metadata(self):
        doc = "<generator><generator>g</generator>v2</generator><title>t</title>"
        assert extract_core_lines(doc) == ["<title>", "t", "</title>"]

    def test_selfclosing_and_other_names_do_not_count(self):
        doc = '<div id="ads"><div/><span>x</span></div><p>keep</p>'
        assert extract_core_lines(doc) == ["<p>", "keep", "</p>"]


class TestFrozen:
    def test_configuration_cannot_change_under_the_verdict_table(self):
        extractor = CoreContentExtractor()
        with pytest.raises(AttributeError):
            extractor.strip_feed_metadata = False
