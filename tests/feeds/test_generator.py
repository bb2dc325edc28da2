"""Synthetic feed generator: update shapes and noise behaviour."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.diffengine.extractor import extract_core_lines
from repro.feeds.generator import FeedGenerator
from repro.feeds.rss import parse_rss


class TestGenerator:
    def test_initial_document_parses(self):
        generator = FeedGenerator(url="http://g.example/f", seed=1)
        parsed = parse_rss(generator.render(0.0))
        assert len(parsed.items) == generator.target_items

    def test_deterministic_for_same_seed(self):
        a = FeedGenerator(url="http://g.example/f", seed=5, include_noise=False)
        b = FeedGenerator(url="http://g.example/f", seed=5, include_noise=False)
        assert a.render(0.0) == b.render(0.0)

    def test_update_changes_core_content(self):
        generator = FeedGenerator(url="http://g.example/f", seed=2)
        before = extract_core_lines(generator.render(0.0))
        generator.publish_update(now=100.0)
        after = extract_core_lines(generator.render(100.0))
        assert before != after

    def test_noise_does_not_change_core_content(self):
        generator = FeedGenerator(url="http://g.example/f", seed=3)
        first = extract_core_lines(generator.render(0.0))
        second = extract_core_lines(generator.render(999.0))
        assert first == second

    def test_noise_changes_raw_document(self):
        generator = FeedGenerator(url="http://g.example/f", seed=3)
        assert generator.render(0.0) != generator.render(999.0)

    def test_versions_increase(self):
        generator = FeedGenerator(url="http://g.example/f", seed=4)
        versions = [generator.publish_update(float(i)) for i in range(5)]
        assert versions == sorted(versions)
        assert len(set(versions)) == 5

    def test_item_count_bounded(self):
        generator = FeedGenerator(
            url="http://g.example/f", seed=6, target_items=8
        )
        for step in range(50):
            generator.publish_update(float(step))
        parsed = parse_rss(generator.render(50.0))
        assert len(parsed.items) <= 8 + 2  # double-insert burst allowance

    def test_update_diff_is_small_fraction(self):
        """The survey's shape: one update touches a small fraction of
        the document's core lines."""
        from repro.diffengine.differ import diff_lines

        generator = FeedGenerator(
            url="http://g.example/f", seed=7, target_items=20,
            include_noise=False,
        )
        old = extract_core_lines(generator.render(0.0))
        generator.publish_update(10.0)
        new = extract_core_lines(generator.render(10.0))
        diff = diff_lines(old, new)
        assert 0 < diff.changed_lines() < len(old) * 0.5


class TestRequestWithoutBody:
    """``request`` makes a fetch's draws and builds no string;
    ``render`` is ``request`` + ``materialise``."""

    def test_request_materialises_to_the_rendered_document(self):
        a = FeedGenerator(url="http://g.example/f", seed=8)
        b = FeedGenerator(url="http://g.example/f", seed=8)
        assert b.request(5.0).materialise() == a.render(5.0)

    def test_noise_free_request_is_the_serialized_items(self):
        generator = FeedGenerator(
            url="http://g.example/f", seed=8, include_noise=False
        )
        state = generator.rng.getstate()
        pending = generator.request(5.0)
        assert pending.noise is None
        assert pending.materialise() is pending.base
        assert generator.rng.getstate() == state

    @given(
        st.lists(
            st.one_of(st.just("publish"), st.just("fetch")), max_size=40
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_draw_parity_whether_or_not_bodies_are_built(self, ops):
        """One generator is asked for a body on every request, its twin
        never: every document either would have sent is the same, also
        when built after the feed has long moved on."""
        eager = FeedGenerator(url="http://g.example/f", seed=9, target_items=5)
        lazy = FeedGenerator(url="http://g.example/f", seed=9, target_items=5)
        sent, unsent = [], []
        for step, op in enumerate(ops):
            now = 10.0 * step
            if op == "publish":
                assert eager.publish_update(now) == lazy.publish_update(now)
            else:
                sent.append(eager.render(now))
                unsent.append(lazy.request(now))
        assert [pending.materialise() for pending in unsent] == sent
        assert lazy.render(999.0) == eager.render(999.0)
        assert lazy.rng.getstate() == eager.rng.getstate()


class TestCrossProcessDeterminism:
    def test_content_independent_of_hash_randomization(self):
        """The generator's RNG seed must not involve ``hash(url)``.

        Str hashes are randomized per process, and the seed used to
        derive a feed's content stream spans processes: the sweep
        farm's spawn workers must render byte-identical feeds to the
        serial path or per-variant metrics drift (this regressed as
        rare ``work_*`` counter flips between otherwise identical
        runs).  Render a document under two forced hash seeds in
        subprocesses and compare bytes.
        """
        import hashlib
        import os
        import subprocess
        import sys

        program = (
            "from repro.feeds.generator import FeedGenerator\n"
            "import hashlib\n"
            "g = FeedGenerator(url='http://d.example/rss', seed=7,\n"
            "                  target_items=5)\n"
            "g.publish_update(now=100.0)\n"
            "print(hashlib.sha256(g.render(now=150.0).encode())"
            ".hexdigest())\n"
        )
        digests = set()
        for hash_seed in ("0", "42"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            out = subprocess.run(
                [sys.executable, "-c", program],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            digests.add(out.stdout.strip())
        generator = FeedGenerator(
            url="http://d.example/rss", seed=7, target_items=5
        )
        generator.publish_update(now=100.0)
        digests.add(
            hashlib.sha256(generator.render(now=150.0).encode()).hexdigest()
        )
        assert len(digests) == 1
