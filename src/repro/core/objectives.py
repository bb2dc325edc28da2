"""The five optimization schemes of Table 1, as Honeycomb tradeoffs.

Every scheme is built from the same two analytic estimates (§3.1):

* **detection time** at level ``l``: ``τ/2 · 1/n(l)`` where ``n(l)``
  is the wedge population (``N/b^l`` in expectation) — ``n`` staggered
  pollers sharing updates detect them ``n`` times faster;
* **server load** at level ``l``: ``n(l)`` polls per polling interval
  (optionally weighed by content size for the bandwidth view).

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


def detection_time(
    level: int,
    tau: float,
    n_nodes: int,
    base: int,
    sizes: Sequence[float] | None = None,
) -> float:
    """Expected update-detection time ``τ/2 · b^l/N`` at ``level``.

    ``sizes`` optionally supplies *actual* wedge populations indexed by
    level (the simulators measure them), overriding the expectation.
    """
    pollers = (
        max(1.0, float(sizes[level]))
        if sizes is not None
        else wedge_size(level, n_nodes, base)
    )
    return tau / 2.0 / pollers


def server_load(
    level: int,
    n_nodes: int,
    base: int,
    size: float = 1.0,
    metric: str = "polls",
    sizes: Sequence[float] | None = None,
) -> float:
    """Load on the channel's content server at ``level``, per τ.

    ``metric="polls"`` counts requests; ``"bandwidth"`` weighs each
    request by the content size ``s_i`` (every poll may transfer the
    content).
    """
    pollers = (
        max(1.0, float(sizes[level]))
        if sizes is not None
        else wedge_size(level, n_nodes, base)
    )
    if metric == "polls":
        return pollers
    if metric == "bandwidth":
        return pollers * size
    raise ValueError(f"unknown load metric {metric!r}")


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
    cluster loses nothing.  For the Fair family it reduces to the
    paper's example ``q/(u·s)`` shape; for Lite/Fast under the polls
    metric the content size drops out and popularity alone decides.
    """
    q = max(factors.subscribers, 1e-9)
    fair = fairness_weight(scheme, config.polling_interval, factors.update_interval)
    if config.load_metric == "bandwidth":
        return q * fair / factors.size
    return q * fair


# ----------------------------------------------------------------------
# tradeoff construction
# ----------------------------------------------------------------------
def _level_tables(
    config: CoronaConfig,
    n_nodes: int,
    levels: Sequence[int],
    sizes: Sequence[float] | None = None,
) -> tuple:
    """``(levels, detection times, pollers)`` of one instance's levels.

    Neither depends on the channel, so a problem tabulates them once
    and every curve scales them by its own factors.
    """
    levels = tuple(levels)
    tau, base = config.polling_interval, config.base
    return (
        levels,
        tuple(
            detection_time(level, tau, n_nodes, base, sizes=sizes)
            for level in levels
        ),
        tuple(
            server_load(level, n_nodes, base, sizes=sizes) for level in levels
        ),
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
    levels, latency, pollers = tables
    q = factors.subscribers
    if config.load_metric == "bandwidth":
        size = factors.size
        load = tuple(count * size for count in pollers)
    else:
        load = pollers
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
    total_bandwidth_demand: float  # Σ qᵢ·sᵢ, the bandwidth-metric target
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
    if config.load_metric == "bandwidth":
        budget = inputs.total_bandwidth_demand
    else:
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
