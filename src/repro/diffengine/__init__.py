"""The feed-specific difference engine (paper §3.4).

Corona must decide whether a freshly polled copy of a channel carries
*germane* new information.  Raw byte comparison is useless on the Web:
pages embed clocks, hit counters, rotating advertisements and session
tokens that change on every fetch.  The difference engine therefore

1. tokenizes the HTML/XML tolerantly (:mod:`repro.diffengine.tokenizer`),
2. isolates the *core content*, dropping volatile elements such as
   timestamps, counters and ads (:mod:`repro.diffengine.extractor`),
3. diffs the old and new core content line-wise with a Myers O(ND)
   algorithm, producing POSIX-``diff``-style hunks
   (:mod:`repro.diffengine.differ`), and
4. delta-encodes updates for dissemination and applies them at
   receivers (:mod:`repro.diffengine.delta`).

The Cornell measurement study the paper cites found the average
micronews update is 17 lines of XML and 6.8 % of the content — diffs,
not full contents, are what Corona ships between nodes.
"""

from repro.diffengine.delta import apply_diff
from repro.diffengine.differ import Diff, Hunk, diff_lines
from repro.diffengine.extractor import CoreContentExtractor, extract_core_lines
from repro.diffengine.tokenizer import Token, TokenKind, tokenize

__all__ = [
    "CoreContentExtractor",
    "Diff",
    "Hunk",
    "Token",
    "TokenKind",
    "apply_diff",
    "diff_lines",
    "extract_core_lines",
    "tokenize",
]
