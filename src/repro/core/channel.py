"""Channels and the per-channel statistics owners maintain.

A channel is any web object identifiable by a URL (paper §3).  Its
owner nodes track the three factors the optimization consumes
(§3.3): the number of subscribers ``q_i``, the content size ``s_i``,
and the update interval ``u_i`` — the last *estimated* from the time
between updates Corona itself detects, since publishers are exogenous
and announce nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

from repro.core.config import (
    MAX_UPDATE_INTERVAL,
    MIN_UPDATE_INTERVAL,
    CoronaConfig,
)
from repro.core.objectives import binning_ratio, scheme_by_name
from repro.honeycomb.clusters import ChannelFactors, ratio_bin
from repro.overlay.hashing import channel_id
from repro.overlay.nodeid import NodeId


#: Weight of the newest gap in the update-interval EWMA.
EWMA_ALPHA = 0.3

#: ChannelStats attributes whose value feeds :meth:`ChannelStats.
#: factors` (directly or through the ``update_interval`` clamp).
#: Assigning any of them a new value drops the cached
#: :meth:`ChannelStats.record` and notifies the bound listener — see
#: :meth:`ChannelStats.bind`.
_FACTOR_FIELDS = frozenset(
    {"subscribers", "content_size", "_interval_estimate"}
)

#: Sentinel for "attribute not set yet" in the change check below.
_UNSET = object()


@dataclass
class ChannelStats:
    """Owner-side estimators for one channel's tradeoff factors.

    ``update_interval`` uses an exponentially weighted mean of
    observed inter-update gaps; until two updates have been seen it
    falls back to ``MAX_UPDATE_INTERVAL`` (the survey's one-week cap
    for feeds never observed to change, §5.1).  Every field is run
    state: a channel's stats start empty and fill as it is used.

    Stats are *structurally* change-notifying: assigning any factor
    attribute (see :data:`_FACTOR_FIELDS`) calls the listener bound
    via :meth:`bind`.  The owning node routes that to the
    aggregator's dirty-local set, so no mutation path — present or
    future — can move a factor without the delta machinery hearing
    about it (closing the convention hole where each facade call site
    had to remember ``mark_local_dirty``).

    The same hook is the single invalidation point of :meth:`record`,
    the cached derived values the optimization and aggregation phases
    read every round: ``__setattr__`` drops it exactly where it detects
    that a factor field actually moved, listener or not.
    """

    subscribers: int = field(default=0, init=False)
    content_size: int = field(default=1024, init=False)
    _last_update_time: float | None = field(default=None, init=False)
    _interval_estimate: float | None = field(default=None, init=False)
    updates_seen: int = field(default=0, init=False)
    #: ``(config, log u, binning ratio, ratio bin)`` — see
    #: :meth:`record`.  A declared field so every instance keeps the
    #: class's shared attribute layout; holds derived values only.
    _record: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __setattr__(self, name: str, value) -> None:
        if name not in _FACTOR_FIELDS:
            object.__setattr__(self, name, value)
            return
        # Act only when a factor value actually moved: a no-op
        # re-assignment (idempotent subscriber recounts, an unchanged
        # content size on detection) must not dirty the owner.
        moved = getattr(self, name, _UNSET) != value
        object.__setattr__(self, name, value)
        if moved:
            object.__setattr__(self, "_record", None)
            listener = getattr(self, "_listener", None)
            if listener is not None:
                listener()

    def bind(self, listener) -> None:
        """Route factor-attribute changes to ``listener`` (no args).

        ``None`` unbinds.  The listener is deliberately not a
        dataclass field: it never participates in equality, repr or
        ``asdict``, and it follows the stats object when ownership
        transfers move it between nodes (the adopting node rebinds).
        """
        # Plain attribute set; "_listener" is not a factor field, so
        # this cannot recurse into the notification itself.
        self._listener = listener

    def record_update(self, timestamp: float, content_size: int) -> None:
        """Fold one detected update into the estimators."""
        if content_size > 0:
            self.content_size = content_size
        if self._last_update_time is not None:
            gap = timestamp - self._last_update_time
            if gap > 0:
                if self._interval_estimate is None:
                    self._interval_estimate = gap
                else:
                    self._interval_estimate = (
                        EWMA_ALPHA * gap
                        + (1 - EWMA_ALPHA) * self._interval_estimate
                    )
        self._last_update_time = timestamp
        self.updates_seen += 1

    @property
    def update_interval(self) -> float:
        """Current estimate of u_i, clamped to the configured range.

        The clamps guard the Fair weights against degenerate inputs: a
        burst of back-to-back detections would otherwise drive the
        ratio τ/uᵢ arbitrarily high.
        """
        if self._interval_estimate is None:
            return MAX_UPDATE_INTERVAL
        return min(
            MAX_UPDATE_INTERVAL,
            max(MIN_UPDATE_INTERVAL, self._interval_estimate),
        )

    def factors(self) -> ChannelFactors:
        """Snapshot as the optimization's input record."""
        return ChannelFactors(
            subscribers=float(self.subscribers),
            size=float(self.content_size),
            update_interval=self.update_interval,
        )

    def record(self, config: CoronaConfig) -> tuple:
        """``(config, log u, binning ratio, ratio bin)`` under ``config``.

        What a round needs of this channel beyond the factors
        themselves, and what is costly to derive: the logarithm of the
        clamped interval (clusters average intervals geometrically),
        the scheme's cluster-binning ratio (§3.2) and the bin it lands
        in.  Derived through a validated
        :meth:`factors` snapshot and kept until a factor field moves;
        stats travel between nodes on ownership transfer, so a record
        answers only for the frozen config *object* it was derived
        under.
        """
        cached = self._record
        if cached is None or cached[0] is not config:
            factors = self.factors()
            ratio = binning_ratio(
                scheme_by_name(config.scheme), config, factors
            )
            cached = (
                config,
                math.log(factors.update_interval),
                ratio,
                ratio_bin(ratio, config.tradeoff_bins),
            )
            self._record = cached
        return cached


@dataclass
class Channel:
    """One topic: a URL, its ring identifier, stats and polling level.

    ``level`` is the channel's current polling level; ``max_level`` the
    deepest meaningful level (owner-only).  ``anchor_prefix`` records
    how many digits the wedge anchor shares with the channel id —
    levels in ``(anchor_prefix, max_level)`` correspond to empty wedges
    and are skipped (the orphan situation of §4 is ``anchor_prefix <
    max_level - 1``: lowering from the owner level recruits nobody).
    """

    url: str
    stats: ChannelStats = field(default_factory=ChannelStats, init=False)
    level: int = 0
    max_level: int = 0
    anchor_prefix: int = 0

    def __post_init__(self) -> None:
        if not self.url:
            raise ValueError("channel URL must be non-empty")

    @cached_property
    def cid(self) -> NodeId:
        """The channel's ring identifier, hashed on first read.

        Adoption never reads it (the adopter resolved the anchor from
        the identifier already), so adopting a channel hashes nothing.
        """
        return channel_id(self.url)

    def __setattr__(self, name: str, value) -> None:
        # Replacing the stats object wholesale (ownership transfers do
        # this, future code might too) is itself a factor mutation: the
        # incoming object inherits the outgoing one's listener binding
        # and the listener fires, so swapping estimators can never
        # bypass the structural dirty notification.
        if name == "stats":
            previous = getattr(self, "stats", None)
            listener = getattr(previous, "_listener", None)
            super().__setattr__(name, value)
            if listener is not None:
                value.bind(listener)
                listener()
            return
        super().__setattr__(name, value)

    # ------------------------------------------------------------------
    def is_orphan(self) -> bool:
        """True when the first lowering step recruits nobody (§4).

        The maintenance protocol lowers levels one step at a time; the
        step from the owner level ``K`` targets the wedge at ``K−1``,
        which is empty whenever no node shares ``K−1`` prefix digits
        with the channel.  Such channels stay at the owner level and
        their tradeoff mass is folded into the slack cluster.
        """
        return self.anchor_prefix < self.max_level - 1

    def allowed_levels(self) -> tuple[int, ...]:
        """Selectable polling levels for the optimization.

        Non-orphans can occupy every level from 0 (the whole ring) to
        ``max_level`` (owner only); orphans are frozen at the owner
        level.
        """
        if self.is_orphan():
            return (self.max_level,)
        return _levels_through(self.max_level)

    def clamp_level(self) -> None:
        """Snap ``level`` onto the nearest allowed level (from above)."""
        allowed = self.allowed_levels()
        if self.level in allowed:
            return
        deeper = [lvl for lvl in allowed if lvl >= self.level]
        self.level = min(deeper) if deeper else max(allowed)


@cache
def _levels_through(max_level: int) -> tuple[int, ...]:
    """``(0, ..., max_level)``, one shared tuple per depth."""
    return tuple(range(max_level + 1))
