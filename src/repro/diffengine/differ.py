"""Myers O(ND) line diff with POSIX-style hunks.

The paper (§3.4): "The data in a diff resembles the typical output of
the POSIX 'diff' command; it carries the line numbers where the change
occurs, the changed content, an indication whether it is an addition,
omission or replacement, and a version number of the old content to
compare against."

The implementation is the classic greedy shortest-edit-script algorithm
(Myers 1986) on lines, with the common-prefix/suffix trim that makes
typical feed updates (a few new items at the top) near-linear.  The V
array (furthest x reached per diagonal) is one preallocated list at
offset ``max_d + 1``, and the backtracking trace stores one list slice
per edit distance — no dict copies and no ``.get`` calls on the hot
path.  Every comparison happens in the same order as in the textbook
dict-backed form, so the edit scripts, and the hunks, are the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class HunkKind(Enum):
    """POSIX diff change classes."""

    ADD = "a"
    DELETE = "d"
    CHANGE = "c"


@dataclass(frozen=True)
class Hunk:
    """One contiguous change region.

    Line numbers are 1-based like POSIX diff.  For ADD, ``old_start``
    is the line *after which* insertion happens (0 allowed); for
    DELETE, ``new_start`` is the line after which the deletion sits in
    the new file.
    """

    kind: HunkKind
    old_start: int
    old_lines: tuple[str, ...]
    new_start: int
    new_lines: tuple[str, ...]

    def header(self) -> str:
        """POSIX-style hunk header, e.g. ``3,5c3,4``."""

        def span(start: int, count: int) -> str:
            if count <= 1:
                return str(start)
            return f"{start},{start + count - 1}"

        left = span(self.old_start, len(self.old_lines)) if self.old_lines else str(self.old_start)
        right = span(self.new_start, len(self.new_lines)) if self.new_lines else str(self.new_start)
        return f"{left}{self.kind.value}{right}"


@dataclass(frozen=True)
class Diff:
    """A complete delta between two content versions.

    One ``Diff`` is flooded to every member of a wedge, and the members
    mostly hold the same base lines, so
    :func:`repro.diffengine.delta.apply_once` memoises its result here,
    per distinct base: base lines → patched tuple, or ``None`` when the
    diff did not fit that base.  A member whose cached lines equal a
    memoised base takes the patched tuple instead of patching again, so
    equal bases end up sharing one immutable tuple.  This is exact
    because applying a diff is a pure function of (base lines, diff).
    The memo is excluded from equality, hashing and ``repr``, and dies
    with the flooded message.
    """

    base_version: int
    new_version: int
    hunks: tuple[Hunk, ...]
    _applied: dict[tuple[str, ...], tuple[str, ...] | None] = field(
        default_factory=dict,
        init=False,
        repr=False,
        compare=False,
        hash=False,
    )

    @property
    def is_empty(self) -> bool:
        """True when the contents are identical."""
        return not self.hunks

    def changed_lines(self) -> int:
        """Total lines added plus removed (the survey's '17 lines')."""
        return sum(
            len(hunk.old_lines) + len(hunk.new_lines) for hunk in self.hunks
        )

    def render(self) -> str:
        """POSIX-diff-like text rendering."""
        parts: list[str] = []
        for hunk in self.hunks:
            parts.append(hunk.header())
            for line in hunk.old_lines:
                parts.append(f"< {line}")
            if hunk.kind is HunkKind.CHANGE:
                parts.append("---")
            for line in hunk.new_lines:
                parts.append(f"> {line}")
        return "\n".join(parts)


def _myers_backtrack(
    old: list[str], new: list[str]
) -> list[tuple[str, int, int]]:
    """Shortest edit script as (op, old_index, new_index) steps.

    Ops are ``"="`` (match), ``"-"`` (delete old line), ``"+"``
    (insert new line).  Classic forward Myers: V is one preallocated
    list holding diagonal ``k`` at index ``offset + k``, and the trace
    keeps, per edit distance ``d``, the slice of V covering diagonals
    ``-d-1 … d+1`` as it stood before step ``d``.
    """
    n, m = len(old), len(new)
    max_d = n + m
    if max_d == 0:
        return []
    offset = max_d + 1
    v = [0] * (2 * offset + 1)
    trace: list[list[int]] = []
    for d in range(max_d + 1):
        low, high = offset - d, offset + d
        trace.append(v[low - 1 : high + 2])
        for i in range(low, high + 1, 2):
            if i == low or (i != high and v[i - 1] < v[i + 1]):
                x = v[i + 1]
            else:
                x = v[i - 1] + 1
            y = x - i + offset
            while x < n and y < m and old[x] == new[y]:
                x += 1
                y += 1
            v[i] = x
            if x >= n and y >= m:
                return _backtrack_steps(trace, old, new, d)
    raise AssertionError("Myers diff failed to terminate")  # pragma: no cover


def _backtrack_steps(
    trace: list[list[int]], old: list[str], new: list[str], final_d: int
) -> list[tuple[str, int, int]]:
    steps: list[tuple[str, int, int]] = []
    x, y = len(old), len(new)
    for d in range(final_d, 0, -1):
        v = trace[d]  # diagonal k at index k + d + 1
        k = x - y
        i = k + d + 1
        if k == -d or (k != d and v[i - 1] < v[i + 1]):
            prev_k, prev_x = k + 1, v[i + 1]
        else:
            prev_k, prev_x = k - 1, v[i - 1]
        prev_y = prev_x - prev_k
        while x > prev_x and y > prev_y:
            x -= 1
            y -= 1
            steps.append(("=", x, y))
        if x > prev_x:
            x -= 1
            steps.append(("-", x, y))
        else:
            y -= 1
            steps.append(("+", x, y))
    while x > 0 and y > 0:
        x -= 1
        y -= 1
        steps.append(("=", x, y))
    while x > 0:
        x -= 1
        steps.append(("-", x, y))
    while y > 0:
        y -= 1
        steps.append(("+", x, y))
    steps.reverse()
    return steps


def diff_lines(
    old: list[str],
    new: list[str],
    base_version: int = 0,
    new_version: int = 0,
) -> Diff:
    """Compute the line diff between two contents.

    Trims the common prefix and suffix first — feed updates touch a
    handful of lines, so the quadratic-in-changes Myers core usually
    sees only those.
    """
    prefix = 0
    limit = min(len(old), len(new))
    while prefix < limit and old[prefix] == new[prefix]:
        prefix += 1
    suffix = 0
    while (
        suffix < limit - prefix
        and old[len(old) - 1 - suffix] == new[len(new) - 1 - suffix]
    ):
        suffix += 1
    core_old = old[prefix : len(old) - suffix]
    core_new = new[prefix : len(new) - suffix]

    steps = _myers_backtrack(core_old, core_new)
    hunks: list[Hunk] = []
    pending_del: list[str] = []
    pending_add: list[str] = []
    del_start = add_start = 0  # 0-based positions where the run began

    def flush(old_pos: int, new_pos: int) -> None:
        if not pending_del and not pending_add:
            return
        if pending_del and pending_add:
            kind = HunkKind.CHANGE
            old_start = prefix + del_start + 1
            new_start = prefix + add_start + 1
        elif pending_del:
            kind = HunkKind.DELETE
            old_start = prefix + del_start + 1
            new_start = prefix + new_pos  # line after which deletion sits
        else:
            kind = HunkKind.ADD
            old_start = prefix + old_pos  # line after which insertion goes
            new_start = prefix + add_start + 1
        hunks.append(
            Hunk(
                kind=kind,
                old_start=old_start,
                old_lines=tuple(pending_del),
                new_start=new_start,
                new_lines=tuple(pending_add),
            )
        )
        pending_del.clear()
        pending_add.clear()

    old_pos = new_pos = 0
    for op, old_index, new_index in steps:
        if op == "=":
            if pending_del or pending_add:
                flush(old_pos, new_pos)
            old_pos = old_index + 1
            new_pos = new_index + 1
            continue
        if op == "-":
            if not pending_del:
                del_start = old_index
            pending_del.append(core_old[old_index])
            old_pos = old_index + 1
        else:
            if not pending_add:
                add_start = new_index
            pending_add.append(core_new[new_index])
            new_pos = new_index + 1
    flush(old_pos, new_pos)
    return Diff(
        base_version=base_version,
        new_version=new_version,
        hunks=tuple(hunks),
    )
