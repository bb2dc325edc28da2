"""Honeycomb: optimal performance-overhead tradeoffs on structured overlays.

The paper (§3.2) describes Honeycomb as "a light-weight toolkit for
computing optimal performance-overhead tradeoffs in structured
distributed systems".  It solves problems of the form

    minimize   sum_i f_i(l_i)
    subject to sum_i g_i(l_i) <= T,        l_i in {0, ..., K}

where ``f_i`` and ``g_i`` are monotonic in the discrete level ``l``.
The integral problem is NP-hard; Honeycomb instead computes the
Lagrangian relaxation exactly, yielding a bracketing pair of solutions
``L*_d`` (feasible) and ``L*_u`` (infeasible) that differ in at most
one channel, and returns ``L*_d``.

This package provides:

* :mod:`repro.honeycomb.problem` — the tradeoff-function abstraction;
* :mod:`repro.honeycomb.solver` — the numerical solver: per-channel
  convex hulls, the global exchange greedy, and the paper's
  λ-bracketing iteration in ``O(M log M log N)``;
* :mod:`repro.honeycomb.clusters` — cluster summaries: per ratio bin,
  the channel count and factor sums of many channels, binned by the
  ``f_i/g_i`` ratio, capped at a constant number of bins;
* :mod:`repro.honeycomb.aggregation` — the decentralized exchange of
  cluster summaries along routing-table contacts, partitioning the
  identifier space so each channel is counted exactly once.
"""

from repro.honeycomb.aggregation import AggregationState, DecentralizedAggregator
from repro.honeycomb.clusters import ClusterSummary
from repro.honeycomb.problem import ChannelTradeoff, TradeoffProblem
from repro.honeycomb.solver import (
    BracketingSolution,
    HoneycombSolver,
    Solution,
    SolverWork,
)

__all__ = [
    "AggregationState",
    "BracketingSolution",
    "ChannelTradeoff",
    "ClusterSummary",
    "DecentralizedAggregator",
    "HoneycombSolver",
    "Solution",
    "SolverWork",
    "TradeoffProblem",
]
