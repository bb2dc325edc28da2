"""Golden vectors for ``diff_lines``.

``golden/diff_hunks.json`` holds, per corpus pair, the sha256 of the
diff's hunks (kind, both starts, both line tuples) as the dict-backed
Myers differ produced them.  The pairs are rebuilt here from seeds, so
the oracle is data, not a second implementation.  Regenerate (only when
diffing is *meant* to change) with
``PYTHONPATH=src:. python tests/diffengine/test_golden_diff_hunks.py``.

The corpus covers the three shapes the system actually diffs — feed
updates (one prepended story, an edited description, two prepended
stories), as core lines and as raw document lines, and the Atom corpus
of ``test_golden_core_lines.py`` — plus seeded random line lists over
1–5-symbol alphabets, where many equal-length edit scripts exist and
Myers' tie-breaking decides which one comes out.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from repro.diffengine.differ import Diff, diff_lines
from repro.diffengine.extractor import DEFAULT_EXTRACTOR
from repro.feeds.generator import FeedGenerator
from tests.diffengine.test_golden_core_lines import _atom_document, _mutate

GOLDEN = Path(__file__).parent / "golden" / "diff_hunks.json"


def _feed_pairs() -> dict[str, tuple[list[str], list[str]]]:
    """Consecutive versions of seeded feeds; every update shape shows."""
    pairs = {}
    for feed in range(4):
        generator = FeedGenerator(
            url=f"http://golden.example/diff{feed}",
            seed=feed,
            target_items=5 + 4 * feed,
            include_noise=feed % 2 == 0,
        )
        before = generator.render(0.0)
        for step in range(1, 13):
            generator.publish_update(600.0 * step)
            after = generator.render(600.0 * step)
            name = f"feed-{feed}-v{step}"
            pairs[f"{name}-core"] = (
                DEFAULT_EXTRACTOR.core_lines(before),
                DEFAULT_EXTRACTOR.core_lines(after),
            )
            pairs[f"{name}-raw"] = (before.split("\n"), after.split("\n"))
            before = after
    return pairs


def _atom_pairs() -> dict[str, tuple[list[str], list[str]]]:
    """The Atom corpus, pairwise and against mutants of itself."""
    rng = random.Random("golden-core-lines")
    documents = [_atom_document(rng, 3 + 2 * index) for index in range(3)]
    pairs = {}
    for i, old in enumerate(documents):
        for j, new in enumerate(documents):
            pairs[f"atom-{i}-{j}"] = (
                DEFAULT_EXTRACTOR.core_lines(old),
                DEFAULT_EXTRACTOR.core_lines(new),
            )
    rng = random.Random("golden-diff-hunks-atom")
    for index in range(30):
        old = rng.choice(documents)
        pairs[f"atom-mutant-{index:02d}"] = (
            DEFAULT_EXTRACTOR.core_lines(old),
            DEFAULT_EXTRACTOR.core_lines(_mutate(rng, old)),
        )
    return pairs


def _random_pairs() -> dict[str, tuple[list[str], list[str]]]:
    """Short lists over tiny alphabets: ties everywhere."""
    rng = random.Random("golden-diff-hunks-random")
    pairs = {}
    for symbols in range(1, 6):
        alphabet = "abcde"[:symbols]
        for index in range(120):
            old = [rng.choice(alphabet) for _ in range(rng.randint(0, 24))]
            if index % 2:
                new = [rng.choice(alphabet) for _ in range(rng.randint(0, 24))]
            else:  # a few edits of ``old``: the small-diff shape
                new = list(old)
                for _ in range(rng.randint(1, 4)):
                    at = rng.randint(0, len(new))
                    if new and rng.random() < 0.5:
                        del new[min(at, len(new) - 1)]
                    else:
                        new.insert(at, rng.choice(alphabet))
            pairs[f"random-{symbols}-{index:03d}"] = (old, new)
    return pairs


def build_pairs() -> dict[str, tuple[list[str], list[str]]]:
    """Pair name → (old lines, new lines); every draw is seeded."""
    return {**_feed_pairs(), **_atom_pairs(), **_random_pairs()}


def hunk_digest(diff: Diff) -> str:
    """sha256 of the hunks' kinds, starts and lines."""
    payload = [
        [
            hunk.kind.value,
            hunk.old_start,
            list(hunk.old_lines),
            hunk.new_start,
            list(hunk.new_lines),
        ]
        for hunk in diff.hunks
    ]
    return hashlib.sha256(
        json.dumps(payload, ensure_ascii=False).encode("utf-8")
    ).hexdigest()


def digests() -> dict[str, str]:
    """Pair name → digest of ``diff_lines(old, new)``."""
    return {
        name: hunk_digest(diff_lines(old, new))
        for name, (old, new) in build_pairs().items()
    }


def test_diff_hunks_match_golden():
    golden = json.loads(GOLDEN.read_text())
    actual = digests()
    assert sorted(actual) == sorted(golden)
    assert [n for n in golden if actual[n] != golden[n]] == []


def test_corpus_covers_every_feed_update_shape():
    """One prepended story (16 core lines in, 16 retired), two of them,
    and one edited description all occur; the random pairs include
    empty sides and identical sides."""
    shapes = set()
    for name, (old, new) in _feed_pairs().items():
        if name.endswith("-core"):
            shapes.add(
                tuple(
                    (h.kind.value, len(h.old_lines), len(h.new_lines))
                    for h in diff_lines(old, new).hunks
                )
            )
    assert (("a", 0, 16), ("d", 16, 0)) in shapes
    assert (("a", 0, 32), ("d", 32, 0)) in shapes
    assert (("c", 1, 1),) in shapes
    pairs = _random_pairs().values()
    assert any(not old or not new for old, new in pairs)
    assert any(old == new for old, new in pairs)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
