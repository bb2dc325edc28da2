"""Shared helper: local summaries for hand-driven aggregators."""

import math

from repro.honeycomb.clusters import ClusterSummary, ratio_bin


def summary_of(entries, bins: int = 16) -> ClusterSummary:
    """A node's local summary from ``(factors, is_orphan, ratio)`` tuples.

    What ``load_local``'s callable must return, built through the same
    batch constructor the protocol nodes use.
    """
    return ClusterSummary(bins=bins).with_channels(
        (
            bins if orphan else ratio_bin(ratio, bins),
            factors.subscribers,
            factors.size,
            math.log(factors.update_interval),
        )
        for factors, orphan, ratio in entries
    )
