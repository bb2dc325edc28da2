"""The tradeoff-function abstraction Honeycomb optimizes over.

Each channel contributes a performance function ``f(l)`` and a cost
function ``g(l)`` over the discrete polling levels ``l``.  Honeycomb
requires both to be monotonic in ``l`` (paper §3.2); for Corona, ``f``
(subscriber-weighted latency) increases with the level while ``g``
(server load) decreases — fewer pollers mean slower detection and a
lighter server load.

A :class:`ChannelTradeoff` may carry an integer ``weight``: a weight-w
entry behaves exactly like w identical channels.  This is how
coarse-grained *tradeoff clusters* (summaries of remote channels) enter
a node's local optimization without being enumerated individually.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ChannelTradeoff:
    """One channel's (or cluster's) tradeoff curves over allowed levels.

    Parameters
    ----------
    key:
        Caller-chosen identity (channel id, URL, or cluster tag).
    levels:
        The allowed polling levels, ascending.  Usually ``0..K``;
        orphan channels (paper §4) are restricted to the baselevel.
    f:
        Performance values ``f(l)`` aligned with ``levels``.
    g:
        Cost values ``g(l)`` aligned with ``levels``.
    weight:
        Channel multiplicity; ``weight > 1`` represents a cluster of
        identical channels.
    """

    key: Hashable
    levels: tuple[int, ...]
    f: tuple[float, ...]
    g: tuple[float, ...]
    weight: int = 1

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("a tradeoff needs at least one allowed level")
        if not (len(self.levels) == len(self.f) == len(self.g)):
            raise ValueError("levels, f and g must align")
        if self.weight < 1:
            raise ValueError("weight must be a positive integer")
        if list(self.levels) != sorted(set(self.levels)):
            raise ValueError("levels must be strictly ascending")

    def is_monotonic(self) -> bool:
        """Check Honeycomb's precondition: f and g each monotonic in l."""

        def monotone(values: tuple[float, ...]) -> bool:
            rising = all(a <= b for a, b in zip(values, values[1:]))
            falling = all(a >= b for a, b in zip(values, values[1:]))
            return rising or falling

        return monotone(self.f) and monotone(self.g)


@dataclass
class TradeoffProblem:
    """A full Honeycomb instance: channels plus the constraint target.

    minimize ``sum_i weight_i * f_i(l_i)`` subject to
    ``sum_i weight_i * g_i(l_i) <= target``.
    """

    channels: list[ChannelTradeoff] = field(default_factory=list)
    target: float = 0.0

    def add(self, tradeoff: ChannelTradeoff) -> None:
        """Append one channel/cluster to the instance."""
        self.channels.append(tradeoff)

    def fingerprint(self) -> tuple:
        """Canonical, hashable identity of this instance.

        Two problems with equal fingerprints have identical solutions
        (every solver input — the budget and each channel's key,
        levels, curves and weight — is covered), so the fingerprint is
        the memo key of :class:`~repro.honeycomb.solver.
        HoneycombSolver`'s input-hash cache.  Channel order is part of
        the identity: the bracketing tie-break uses channel indices.
        """
        return (
            self.target,
            tuple(
                (ch.key, ch.levels, ch.f, ch.g, ch.weight)
                for ch in self.channels
            ),
        )
