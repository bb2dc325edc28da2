"""Delta application: validation, failure modes, wire size."""

import pytest

from repro.diffengine.delta import DeltaError, apply_diff, apply_once
from repro.diffengine.differ import Diff, Hunk, HunkKind, diff_lines


class TestApplyValidation:
    def test_base_mismatch_raises(self):
        diff = diff_lines(["a", "b"], ["a", "X"], 1, 2)
        with pytest.raises(DeltaError):
            apply_diff(["a", "DIFFERENT"], diff)

    def test_hunk_beyond_end_raises(self):
        hunk = Hunk(
            kind=HunkKind.CHANGE,
            old_start=99,
            old_lines=("x",),
            new_start=99,
            new_lines=("y",),
        )
        diff = Diff(base_version=1, new_version=2, hunks=(hunk,))
        with pytest.raises(DeltaError):
            apply_diff(["a"], diff)

    def test_overlapping_hunks_raise(self):
        hunks = (
            Hunk(HunkKind.CHANGE, 1, ("a", "b"), 1, ("x",)),
            Hunk(HunkKind.CHANGE, 2, ("b",), 2, ("y",)),
        )
        diff = Diff(base_version=1, new_version=2, hunks=hunks)
        with pytest.raises(DeltaError):
            apply_diff(["a", "b", "c"], diff)

    def test_empty_diff_is_identity(self):
        diff = Diff(base_version=1, new_version=1, hunks=())
        assert apply_diff(["a", "b"], diff) == ["a", "b"]


class TestApplyKinds:
    def test_insert_before_first_line(self):
        diff = Diff(1, 2, (Hunk(HunkKind.ADD, 0, (), 1, ("new",)),))
        assert apply_diff(["a", "b"], diff) == ["new", "a", "b"]

    def test_append_after_last_line(self):
        diff = Diff(1, 2, (Hunk(HunkKind.ADD, 2, (), 3, ("tail",)),))
        assert apply_diff(["a", "b"], diff) == ["a", "b", "tail"]

    def test_delete_removes_the_named_lines(self):
        diff = Diff(1, 2, (Hunk(HunkKind.DELETE, 2, ("b", "c"), 1, ()),))
        assert apply_diff(["a", "b", "c", "d"], diff) == ["a", "d"]

    def test_hunks_apply_in_position_order(self):
        """Hunks listed out of order still land at their own lines."""
        hunks = (
            Hunk(HunkKind.CHANGE, 3, ("c",), 3, ("C",)),
            Hunk(HunkKind.CHANGE, 1, ("a",), 1, ("A",)),
        )
        assert apply_diff(["a", "b", "c"], Diff(1, 2, hunks)) == [
            "A", "b", "C",
        ]


class TestChains:
    def test_chain_applies_in_order(self):
        """A receiver that missed nothing patches version by version."""
        versions = [
            ["header", "story one"],
            ["header", "story two", "story one"],
            ["header", "story three", "story two"],
        ]
        content = versions[0]
        for number in range(1, len(versions)):
            old, new = versions[number - 1], versions[number]
            diff = diff_lines(old, new, number, number + 1)
            content = apply_diff(content, diff)
        assert content == versions[-1]

    def test_skipped_version_is_rejected(self):
        """Applying the second delta of a chain to the first version is a
        base mismatch, which the protocol turns into a full re-fetch."""
        v1, v2, v3 = ["a", "b"], ["a", "B"], ["a", "BB"]
        with pytest.raises(DeltaError):
            apply_diff(v1, diff_lines(v2, v3, 2, 3))


class TestApplyOnce:
    def test_equal_bases_share_one_patched_tuple(self):
        diff = diff_lines(["a", "b"], ["a", "X"], 1, 2)
        first = apply_once(("a", "b"), diff)
        second = apply_once(tuple(["a", "b"]), diff)
        assert first == ("a", "X")
        assert first is second

    def test_mismatched_base_yields_none(self):
        diff = diff_lines(["a", "b"], ["a", "X"], 1, 2)
        assert apply_once(("a", "other"), diff) is None
        assert apply_once(("a", "other"), diff) is None


class TestSizeAccounting:
    """The wire size of a delta is its rendered text."""

    def test_diff_size_positive_for_changes(self):
        diff = diff_lines(["a"], ["b"], 1, 2)
        assert len(diff.render().encode("utf-8")) > 0

    def test_diff_much_smaller_than_content(self):
        """Delta encoding wins: the wire size of a one-line change in a
        large document is a small fraction of the document (§3.4)."""
        old = [f"content line number {i} with some padding" for i in range(200)]
        new = list(old)
        new[100] = "the single changed line"
        diff = diff_lines(old, new, 1, 2)
        content_bytes = sum(len(line) + 1 for line in new)
        assert len(diff.render().encode("utf-8")) < content_bytes * 0.05
