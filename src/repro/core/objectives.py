"""The five optimization schemes of Table 1, as Honeycomb tradeoffs.

Every scheme is built from the same two analytic estimates (§3.1):

* **detection time** at level ``l``: ``τ/2 · 1/n(l)`` where ``n(l)``
  is the wedge population (``N/b^l`` in expectation) — ``n`` staggered
  pollers sharing updates detect them ``n`` times faster;
* **server load** at level ``l``: ``n(l)`` polls per polling interval.

The schemes then choose what to minimize and what to bound:

=============  ===========================================  =========================
scheme         minimize                                     subject to
=============  ===========================================  =========================
Corona-Lite    Σ qᵢ · lat(lᵢ)                               load ≤ legacy-RSS load
Corona-Fast    Σ loadᵢ(lᵢ)                                  Σ qᵢ·lat(lᵢ) ≤ T·Σ qᵢ
Corona-Fair    Σ qᵢ · lat(lᵢ)·(τ/uᵢ)                        load ≤ legacy-RSS load
Corona-Fair-√  Σ qᵢ · lat(lᵢ)·√(τ/uᵢ)                       load ≤ legacy-RSS load
Corona-Fair-ln Σ qᵢ · lat(lᵢ)·(ln τ/ln uᵢ)                  load ≤ legacy-RSS load
=============  ===========================================  =========================

The legacy-RSS load target is exactly what the subscribers would impose
polling directly: ``qᵢ`` polls per τ per channel (§3.1: "the target
network load ... is simply the total number of subscriptions seen by
the system").
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from repro.core.config import CoronaConfig
from repro.honeycomb.clusters import ChannelFactors
from repro.honeycomb.problem import ChannelTradeoff, TradeoffProblem


class Scheme(Enum):
    """The optimization schemes of Table 1."""

    LITE = "lite"
    FAST = "fast"
    FAIR = "fair"
    FAIR_SQRT = "fair-sqrt"
    FAIR_LOG = "fair-log"


def scheme_by_name(name: str) -> Scheme:
    """Resolve a configuration string to a :class:`Scheme`."""
    try:
        return Scheme(name)
    except ValueError:
        raise ValueError(
            f"unknown scheme {name!r}; expected one of "
            f"{[scheme.value for scheme in Scheme]}"
        ) from None


# ----------------------------------------------------------------------
# analytic estimates (§3.1)
# ----------------------------------------------------------------------
def wedge_size(level: int, n_nodes: int, base: int) -> float:
    """Expected pollers at ``level``: ``N/b^l``, floored at one node."""
    return max(1.0, n_nodes / base**level)


def detection_time(level: int, tau: float, n_nodes: int, base: int) -> float:
    """Expected update-detection time ``τ/2 · b^l/N`` at ``level``."""
    return tau / 2.0 / wedge_size(level, n_nodes, base)


def fairness_weight(scheme: Scheme, tau: float, update_interval: float) -> float:
    """The latency-ratio weight the Fair variants multiply into f_i.

    Corona-Fair divides detection time by the channel's update interval
    (``τ/uᵢ`` up to the constant τ); Fair-Sqrt and Fair-Log dampen the
    ratio sub-linearly so rarely-changing yet popular channels are not
    punished (§3.1).  Inputs are clamped away from the singular points
    of the sub-linear transforms.
    """
    interval = max(update_interval, 1.0)
    if scheme is Scheme.FAIR:
        return tau / interval
    if scheme is Scheme.FAIR_SQRT:
        return math.sqrt(tau / interval)
    if scheme is Scheme.FAIR_LOG:
        return math.log(max(tau, math.e)) / math.log(max(interval, math.e**2))
    return 1.0


def binning_ratio(
    scheme: Scheme, config: CoronaConfig, factors: ChannelFactors
) -> float:
    """The cluster-binning metric for ``scheme`` (paper §3.2).

    Channels with equal values of this metric have identical tradeoff
    curves up to global constants, so averaging them inside one
    cluster loses nothing.  Load counts polls, so the content size
    drops out: for the Fair family it is popularity over the update
    interval, for Lite/Fast popularity alone.
    """
    q = max(factors.subscribers, 1e-9)
    fair = fairness_weight(scheme, config.polling_interval, factors.update_interval)
    return q * fair


# ----------------------------------------------------------------------
# tradeoff construction
# ----------------------------------------------------------------------
def _level_tables(
    config: CoronaConfig, n_nodes: int, levels: Sequence[int]
) -> tuple:
    """``(levels, detection times, pollers)`` of one instance's levels.

    Neither depends on the channel, so a problem tabulates them once
    and every curve scales them by its own factors.  Pollers per τ are
    the server load at a level.
    """
    levels = tuple(levels)
    tau, base = config.polling_interval, config.base
    return (
        levels,
        tuple(detection_time(level, tau, n_nodes, base) for level in levels),
        tuple(wedge_size(level, n_nodes, base) for level in levels),
    )


def _tradeoff(
    scheme: Scheme,
    key,
    factors: ChannelFactors,
    config: CoronaConfig,
    weight: int,
    tables: tuple,
) -> ChannelTradeoff:
    """One channel's curves, scaled from the per-level ``tables``."""
    levels, latency, load = tables
    q = factors.subscribers
    if scheme is Scheme.FAST:
        f, g = load, tuple(q * delay for delay in latency)
    else:
        fair = fairness_weight(
            scheme, config.polling_interval, factors.update_interval
        )
        f, g = tuple(q * delay * fair for delay in latency), load
    return ChannelTradeoff(key=key, levels=levels, f=f, g=g, weight=weight)


@dataclass(frozen=True)
class ProblemInputs:
    """Everything needed to pose one global optimization instance."""

    total_subscriptions: float
    orphan_load: float  # fixed cost of slack-cluster channels
    orphan_latency: float  # fixed latency mass of slack-cluster channels


def constraint_target(
    scheme: Scheme, config: CoronaConfig, inputs: ProblemInputs
) -> float:
    """The right-hand side ``T`` of the scheme's constraint.

    Lite/Fair bound server load by the legacy-RSS equivalent; Fast
    bounds subscriber-weighted latency by ``T·Σq``.  Orphan channels
    poll at a frozen level regardless, so their fixed contribution is
    subtracted from the budget — the slack-cluster target correction
    of §4.
    """
    if scheme is Scheme.FAST:
        budget = config.latency_target * inputs.total_subscriptions
        if config.orphan_target_correction:
            budget -= inputs.orphan_latency
        return max(0.0, budget)
    budget = inputs.total_subscriptions
    if config.orphan_target_correction:
        budget -= inputs.orphan_load
    return max(0.0, budget)


def build_problem(
    scheme: Scheme,
    config: CoronaConfig,
    n_nodes: int,
    entries: Sequence[tuple[object, ChannelFactors, Sequence[int], int]],
    inputs: ProblemInputs,
) -> TradeoffProblem:
    """Assemble a full :class:`TradeoffProblem` for ``scheme``.

    ``entries`` lists ``(key, factors, allowed_levels, weight)`` per
    channel or cluster.  Orphans should *not* be included — their
    effect enters through ``inputs`` (slack correction).
    """
    problem = TradeoffProblem(target=constraint_target(scheme, config, inputs))
    tabulated = tables = None
    for key, factors, levels, weight in entries:
        if tables is None or levels != tabulated:
            tabulated, tables = levels, _level_tables(config, n_nodes, levels)
        problem.add(_tradeoff(scheme, key, factors, config, weight, tables))
    return problem
