"""RSS 2.0 rendering, read back with a strict XML parser."""

import xml.etree.ElementTree as ET

from repro.feeds.rss import RssChannel, RssItem, rfc822_date


def sample_channel() -> RssChannel:
    return RssChannel(
        title="Tech News & Views",
        link="http://news.example",
        description="all the <news>",
        ttl_minutes=30,
        items=[
            RssItem(
                title="First story",
                link="http://news.example/1",
                description="body one",
                guid="guid-1",
                pub_date=rfc822_date(100),
            ),
            RssItem(title="Second <story>", description="body & two"),
        ],
    )


class TestRoundTrip:
    def test_render_reads_back_as_xml(self):
        original = sample_channel()
        channel = ET.fromstring(original.render()).find("channel")
        assert channel.findtext("title") == original.title
        assert channel.findtext("link") == original.link
        assert channel.findtext("description") == original.description
        assert channel.findtext("ttl") == "30"
        items = channel.findall("item")
        assert len(items) == 2
        assert items[0].findtext("title") == "First story"
        assert items[0].findtext("guid") == "guid-1"
        assert items[1].findtext("title") == "Second <story>"
        assert items[1].findtext("description") == "body & two"

    def test_escaping(self):
        rendered = sample_channel().render()
        assert "Tech News &amp; Views" in rendered
        assert "<news>" not in rendered.split("<description>")[1].split(
            "</description>"
        )[0]


class TestOptionalFields:
    def test_bare_channel_has_only_a_title(self):
        channel = ET.fromstring(RssChannel(title="T").render()).find("channel")
        assert [child.tag for child in channel] == ["title"]

    def test_bare_item_has_only_a_title(self):
        item = ET.fromstring(RssItem(title="i").render())
        assert [child.tag for child in item] == ["title"]

    def test_ttl_zero_is_rendered(self):
        channel = ET.fromstring(
            RssChannel(title="T", ttl_minutes=0).render()
        ).find("channel")
        assert channel.findtext("ttl") == "0"

    def test_guid_is_not_a_permalink(self):
        item = ET.fromstring(RssItem(title="i", guid="g").render())
        assert item.find("guid").get("isPermaLink") == "false"

    def test_items_keep_their_order(self):
        titles = [f"story {n}" for n in range(5)]
        channel = RssChannel(
            title="T", items=[RssItem(title=t) for t in titles]
        )
        root = ET.fromstring(channel.render())
        assert [i.findtext("title") for i in root.iter("item")] == titles

    def test_markup_in_link_escaped(self):
        channel = RssChannel(title="T", link="http://x.example/?a=1&b=2")
        parsed = ET.fromstring(channel.render()).find("channel")
        assert parsed.findtext("link") == "http://x.example/?a=1&b=2"


class TestDates:
    def test_rfc822_format(self):
        assert rfc822_date(0) == "Thu, 01 Jan 1970 00:00:00 GMT"
