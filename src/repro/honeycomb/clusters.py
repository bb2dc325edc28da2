"""Tradeoff clusters: coarse-grained summaries of many channels.

Running the global optimization requires the tradeoff functions of
*all* channels, but shipping per-channel data to every node is
impractical.  Honeycomb instead aggregates channels with similar
tradeoff factors into *tradeoff clusters* (paper §3.2): each cluster
records how many channels it stands for and their average factors, and
the number of clusters per polling level is capped at a constant
(``tradeoff_bins``; 16 in the paper's implementation, §4).

Channels are assigned to bins by the ratio of their performance and
cost factors ``f_i/g_i`` — e.g. channels with comparable ``q_i/(u_i
s_i)`` cluster together in Corona-Fair — on a logarithmic scale, since
web workload factors span orders of magnitude.

A special *slack cluster* absorbs orphan channels (paper §4): channels
whose wedge cannot grow keep polling at the baselevel no matter what,
so their fixed cost is used to correct the optimization target rather
than entering the optimization itself.

Representation
--------------
:class:`ClusterSummary` — the unit merged thousands of times per
aggregation round — *is* its sums: one ``(4, bins + 1)`` float array
of channel count, Σq, Σs and Σlog u per ratio bin (slot ``bins`` is
the slack cluster), and nothing else.  ``merge`` is one array add,
``copy`` one array copy, equality a comparison of the sums; a summary
of no channels is one shared object (:meth:`ClusterSummary.empty`).  The
optimizer reads them as plain lists (:meth:`ClusterSummary.sums`) and
nodes fold their channels in as flat records (:meth:`ClusterSummary.
with_channels`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelFactors:
    """The per-channel quantities the optimization consumes (Table 1).

    ``subscribers`` is q_i, ``size`` is s_i (content size in bytes) and
    ``update_interval`` is u_i (seconds between content changes).
    """

    subscribers: float
    size: float
    update_interval: float

    def __post_init__(self) -> None:
        if self.subscribers < 0:
            raise ValueError("subscriber count cannot be negative")
        if self.size <= 0:
            raise ValueError("content size must be positive")
        if self.update_interval <= 0:
            raise ValueError("update interval must be positive")


def ratio_bin(ratio: float, bins: int) -> int:
    """Assign a performance/cost ratio to one of ``bins`` log buckets.

    Web workload factors are heavy-tailed, so bins are spaced on log10
    of the ratio; twelve decades centred on 1 cover every metric the
    Corona schemes use, and out-of-range ratios clamp to the edge bins.
    """
    if bins < 1:
        raise ValueError("need at least one bin")
    log_ratio = math.log10(max(ratio, 1e-30))
    low, high = -6.0, 6.0
    position = (log_ratio - low) / (high - low)
    return min(bins - 1, max(0, int(position * bins)))


#: bins -> the one read-only empty summary (:meth:`ClusterSummary.empty`).
_SHARED_EMPTY: dict[int, "ClusterSummary"] = {}


class ClusterSummary:
    """Capped set of tradeoff clusters, plus the slack cluster.

    This is the unit exchanged between nodes during the aggregation
    phase.  Channels land in a ratio bin whatever level they are
    polled at: channels at different levels with the same ratio have
    identical tradeoff *curves*, so binning by ratio alone loses
    nothing for the solver while keeping the summary within the
    paper's per-level state cap.  The slack slot aggregates orphan
    channels whose levels are frozen (§4).

    The whole state is one ``(4, bins + 1)`` float array — rows are
    channel count, Σq, Σs, Σlog u; columns are ratio bins with the
    slack cluster at column ``bins`` — so ``merge`` is a single
    vectorized in-place add and ``copy`` one C-level array copy.  A
    summary carries no polling levels: a level step changes no sum, so
    it dirties nothing and nothing about it crosses the overlay.
    """

    __slots__ = ("bins", "_sums")

    #: Row indices of the packed sums array.
    _COUNT, _SUBS, _SIZE, _LOGU = 0, 1, 2, 3

    def __init__(self, bins: int = 16) -> None:
        self.bins = bins
        self._sums = np.zeros((4, bins + 1), dtype=np.float64)

    @classmethod
    def empty(cls, bins: int = 16) -> "ClusterSummary":
        """The one shared, read-only summary of no channels (by value:
        any empty summary equals it; merging into it raises)."""
        shared = _SHARED_EMPTY.get(bins)
        if shared is None:
            shared = _SHARED_EMPTY[bins] = cls(bins)
            shared._sums.flags.writeable = False
        return shared

    def add_channel(
        self,
        factors: ChannelFactors,
        *,
        ratio: float,
        orphan: bool = False,
    ) -> None:
        """Fold one channel into the summary (slack if it is an orphan).

        ``ratio`` is the scheme's f/g binning metric (unused for an
        orphan).
        """
        if orphan:
            slot = self.bins
        else:
            slot = ratio_bin(ratio, self.bins)
        column = self._sums[:, slot]
        column[0] += 1.0
        column[1] += factors.subscribers
        column[2] += factors.size
        column[3] += math.log(factors.update_interval)

    def with_channels(self, records) -> "ClusterSummary":
        """A new summary: this one plus a batch of channels.

        ``records`` yields one flat ``(slot, q, s, log u)`` per
        channel — ``slot`` its ratio bin, or ``bins`` for an orphan.
        The sums accumulate as Python floats and are packed once; each
        addition is the one :meth:`add_channel` would perform, in the
        same order, so the result is bit-identical to ``copy()``
        followed by an ``add_channel`` per record.
        """
        combined = self.copy()
        counts, subscribers, sizes, log_intervals = rows = self.sums()
        for slot, q, s, log_u in records:
            counts[slot] += 1.0
            subscribers[slot] += q
            sizes[slot] += s
            log_intervals[slot] += log_u
        combined._sums[:] = rows
        return combined

    def sums(self) -> list[list[float]]:
        """A copy of the sums as lists: counts, Σq, Σs, Σlog u per slot.

        Slot ``bins`` (last) is the slack cluster.  This is all there
        is to a summary.
        """
        return self._sums.tolist()

    def sums_key(self) -> bytes:
        """:meth:`sums` byte for byte: the hashable value key.

        Equal keys ⇔ equal summaries of one bin count; both the
        whole-phase memo and the round-scoped shared-solution cache of
        :meth:`~repro.core.node.CoronaNode.run_optimization` key on it.
        """
        return self._sums.tobytes()

    def merge(self, other: "ClusterSummary") -> None:
        """Fold another summary into this one, preserving the bin cap."""
        if other.bins != self.bins:
            raise ValueError("summaries must use the same bin count")
        self._sums += other._sums

    def copy(self) -> "ClusterSummary":
        """Deep-enough copy for exchange without aliasing."""
        duplicate = ClusterSummary.__new__(ClusterSummary)
        duplicate.bins = self.bins
        duplicate._sums = self._sums.copy()
        return duplicate

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, ClusterSummary):
            return NotImplemented
        return self.bins == other.bins and (  # equal bytes: a fast path
            self._sums.tobytes() == other._sums.tobytes()
            or bool(np.array_equal(self._sums, other._sums))
        )

    __hash__ = None  # mutable, like the dataclass it replaced

    # ------------------------------------------------------------------
    def total_channels(self) -> int:
        """Channels summarized, excluding the slack cluster."""
        return int(self._sums[0, : self.bins].sum())

    def total_subscribers(self) -> float:
        """Sum of q_i over summarized channels (excluding slack)."""
        return float(self._sums[1, : self.bins].sum())
