"""The eager references the delta and memo paths are checked against.

Production code runs one aggregation round (delta-driven) and one
optimization phase (memoized, sharing solutions per round).  Each
eager reference stays a named method:

* ``DecentralizedAggregator.load_local`` reloads every node's local
  summary and ``_run_round_eager`` recomputes every radius;
* ``CoronaNode.solve_levels`` called with no shared cache is the phase
  without its whole-phase fingerprint skip;
* ``HoneycombSolver.bracket`` is the kernel without the input-hash memo.

Lockstep unit tests call those methods directly.  Whole-run tests and
benchmarks build and drive the reference side inside
:func:`eager_reference`, which swaps the front methods for the
references on their classes — so it also covers nodes, solvers and
aggregators built mid-run (joins, rebuilt simulators).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.core.node import CoronaNode
from repro.honeycomb.aggregation import DecentralizedAggregator
from repro.honeycomb.solver import HoneycombSolver


def _unmemoized_optimization(self, remote, n_nodes, solve_cache=None):
    """``run_optimization``'s reference: re-solve, share nothing."""
    return self.solve_levels(remote, n_nodes)


#: (class, front method, reference) per phase.
ROUND_SWAPS = (
    (
        DecentralizedAggregator,
        "refresh_locals",
        DecentralizedAggregator.load_local,
    ),
    (
        DecentralizedAggregator,
        "run_round",
        DecentralizedAggregator._run_round_eager,
    ),
)
SOLVE_SWAPS = (
    (CoronaNode, "run_optimization", _unmemoized_optimization),
    (HoneycombSolver, "solve_bracketing", HoneycombSolver.bracket),
)


@contextmanager
def _swapped(swaps):
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in swaps]
    try:
        for owner, name, reference in swaps:
            setattr(owner, name, reference)
        yield
    finally:
        for owner, name, front in saved:
            setattr(owner, name, front)


def eager_rounds():
    """Aggregation only: full local reloads and the eager sweep."""
    return _swapped(ROUND_SWAPS)


def eager_solves():
    """Optimization only: no phase memo, no shared cache, no LRU."""
    return _swapped(SOLVE_SWAPS)


def eager_reference():
    """Both phases on their eager references."""
    return _swapped(ROUND_SWAPS + SOLVE_SWAPS)
