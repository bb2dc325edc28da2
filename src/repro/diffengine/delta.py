"""Delta application.

Corona nodes share updates only as diffs (§3.4); a receiver holding
the base version applies the delta to reconstruct the new content.
``apply_diff`` is the exact inverse of ``diff_lines`` — the round-trip
property ``apply_diff(old, diff_lines(old, new)) == new`` is enforced
by the property-based tests.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.diffengine.differ import Diff, Hunk, HunkKind


class DeltaError(ValueError):
    """Raised when a diff does not fit the content it is applied to."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise DeltaError(message)


def apply_diff(old: Sequence[str], diff: Diff) -> list[str]:
    """Apply ``diff`` to ``old`` content, returning the new content.

    Hunk context lines are verified against the base content; a
    mismatch raises :class:`DeltaError`, which in the protocol layer
    triggers a full re-fetch instead of silent corruption.
    """
    result: list[str] = []
    cursor = 0  # index into old (0-based)
    for hunk in sorted(diff.hunks, key=_hunk_old_position):
        anchor = _hunk_old_position(hunk)
        _check(anchor >= cursor, f"overlapping hunks at old line {anchor + 1}")
        _check(anchor <= len(old), f"hunk beyond end of content ({anchor + 1})")
        result.extend(old[cursor:anchor])
        cursor = anchor
        if hunk.kind in (HunkKind.DELETE, HunkKind.CHANGE):
            stale = list(old[cursor : cursor + len(hunk.old_lines)])
            _check(
                stale == list(hunk.old_lines),
                f"base mismatch at old line {cursor + 1}",
            )
            cursor += len(hunk.old_lines)
        result.extend(hunk.new_lines)
    result.extend(old[cursor:])
    return result


_UNSEEN = object()


def apply_once(old: tuple[str, ...], diff: Diff) -> tuple[str, ...] | None:
    """``tuple(apply_diff(old, diff))``, or None where that raises
    :class:`DeltaError` — computed once per distinct base.

    The result is memoised on ``diff`` (see
    :class:`~repro.diffengine.differ.Diff`): every wedge member patches
    the same flooded object, and members holding equal lines share the
    one patched tuple.
    """
    memo = diff._applied
    patched = memo.get(old, _UNSEEN)
    if patched is _UNSEEN:
        try:
            patched = tuple(apply_diff(old, diff))
        except DeltaError:
            patched = None
        memo[old] = patched
    return patched


def _hunk_old_position(hunk: Hunk) -> int:
    """0-based index in the old content where the hunk operates."""
    if hunk.kind is HunkKind.ADD:
        return hunk.old_start  # insert AFTER this 1-based line == index
    return hunk.old_start - 1
