"""Honeycomb's numerical optimization algorithm.

The problem — minimize ``Σ f_i(l_i)`` subject to ``Σ g_i(l_i) ≤ T``
with integral levels — is NP-hard, so Honeycomb computes the Lagrangian
relaxation exactly (paper §3.2):

    L* = argmin  Σ f_i(l_i) − λ [Σ g_i(l_i) − T]

For a fixed multiplier the minimization decomposes per channel, and for
each channel only the vertices of the lower convex hull of the
``(g(l), f(l))`` point set can ever be selected.  Sweeping λ from 0
upward applies per-channel *exchange moves* (hull edges) in order of
their marginal rate ``Δf/Δg``; the solver sorts all moves globally and
binary-searches the prefix whose cumulative cost reduction reaches the
constraint — the paper's "bracketing" over a pre-computed discrete
iteration space of ``M·log N`` multiplier values, ``O(M log M log N)``
overall.

The result is a bracketing pair: ``L*_d`` (feasible, returned) and
``L*_u`` (one exchange move earlier, infeasible), which differ in the
level of at most one channel — Honeycomb's accuracy guarantee.

Weighted entries (tradeoff clusters standing for ``w`` identical remote
channels) participate natively: a cluster's move can be applied to only
part of its population, which is exactly how the solution stays
accurate "within the granularity of one channel" even when most
channels are only known in aggregate.

Delta-driven solving
--------------------
Because every manager poses its instance over the *same* discrete
ratio-bin space, successive and concurrent instances are overwhelmingly
identical.  :class:`HoneycombSolver` therefore puts an **input-hash
memo** (``memo_solve=True``, the default) in front of the algorithm: a
canonical fingerprint of the :class:`~repro.honeycomb.problem.
TradeoffProblem` — the budget plus every channel's ``(key, levels, f,
g, weight)`` tuple — keys an LRU of full :class:`BracketingSolution`\\ s,
so re-solving an unchanged instance is one hash lookup.

The kernel behind the memo is one pure-Python implementation over
small hull-vertex and move records.  The instances the simulators pose
have at most six entries, and at that size plain loops beat any array
set-up; the measurements are in README's solver bullet, and
``tests/honeycomb/golden/solver_brackets.json`` holds recorded answers
any other kernel must reproduce.

The solver reports :class:`SolverWork` counters (problems actually
solved, memo hits, shared-solution hits); the drivers aggregate them
into the scenario metrics the CI baselines gate on.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from collections.abc import Hashable
from dataclasses import dataclass, field

from repro.honeycomb.problem import ChannelTradeoff, TradeoffProblem
from repro.obs.metrics import CounterStruct


class SolverWork(CounterStruct):
    """Deterministic counters for the optimization phase.

    ``problems_solved`` counts bracketing solves actually executed;
    ``memo_hits`` counts solves avoided by input-hash memoization —
    both the solver's own LRU hits and the managers' whole-phase
    short-circuits (an unchanged remote summary + own contribution
    skips the solve outright); ``shared_hits`` counts solves avoided
    by the round-scoped shared-solution cache (managers whose combined
    problem fingerprints collide reuse one solution per round).  With
    ``memo_solve=False`` the hit counters stay zero and
    ``problems_solved`` counts every posed instance — the eager
    reference the equivalence suite compares against.
    """

    SERIES = (
        (
            "problems_solved",
            "solver_work_problems_solved",
            "bracketing solves actually executed",
        ),
        (
            "memo_hits",
            "solver_work_memo_hits",
            "solves avoided by input-hash memoization",
        ),
        (
            "shared_hits",
            "solver_work_shared_hits",
            "solves avoided by the round-scoped shared-solution cache",
        ),
    )


@dataclass(frozen=True)
class _HullVertex:
    """One selectable point on a channel's tradeoff hull."""

    level: int
    f: float
    g: float


@dataclass(frozen=True)
class _Move:
    """An exchange step from hull vertex ``src`` to vertex ``dst``.

    Applying the move trades an objective increase ``df`` for a cost
    reduction ``dg`` at marginal rate ``rate = df/dg``.
    """

    rate: float
    channel_index: int
    vertex_index: int  # destination vertex (one step toward lower g)
    df: float
    dg: float
    weight: int


@dataclass
class ClusterSplit:
    """A cluster whose population straddles two adjacent levels.

    ``count_low`` members sit at ``level_low`` (the cheaper-cost,
    higher-objective level — the "demoted" side) and the remaining
    ``count_high`` at ``level_high``.  The objective values at both
    levels are included so consumers can tell the demoted side apart
    without re-deriving the curves.
    """

    key: Hashable
    level_low: int
    count_low: int
    level_high: int
    count_high: int
    f_low: float = 0.0
    f_high: float = 0.0

    @property
    def demoted_level(self) -> int:
        """The level with the worse (larger) objective value."""
        return self.level_low if self.f_low >= self.f_high else self.level_high

    @property
    def kept_level(self) -> int:
        """The level with the better (smaller) objective value."""
        return self.level_high if self.f_low >= self.f_high else self.level_low

    @property
    def demoted_count(self) -> int:
        """Members assigned to the demoted level."""
        return (
            self.count_low
            if self.demoted_level == self.level_low
            else self.count_high
        )


@dataclass
class Solution:
    """A complete level assignment with its objective and cost."""

    levels: dict[Hashable, int]
    objective: float
    cost: float
    feasible: bool
    splits: dict[Hashable, ClusterSplit] = field(default_factory=dict)

    def copy(self) -> "Solution":
        """A consumer-safe copy (fresh dicts; split records shared).

        The memo and shared-solution caches store and hand out copies
        so no two consumers — or a consumer and the cache — ever alias
        the same mutable assignment dicts.
        """
        return Solution(
            levels=dict(self.levels),
            objective=self.objective,
            cost=self.cost,
            feasible=self.feasible,
            splits=dict(self.splits),
        )


@dataclass
class BracketingSolution:
    """The L*_d / L*_u pair bracketing the true optimum (paper §3.2)."""

    lower: Solution  # L*_d — satisfies the constraint strictly; returned
    upper: Solution  # L*_u — one move earlier; infeasible unless equal
    lambda_star: float  # multiplier at the bracket
    iterations: int  # bracketing iterations performed


def _copy_bracket(bracket: BracketingSolution) -> BracketingSolution:
    lower = bracket.lower.copy()
    upper = (
        lower if bracket.upper is bracket.lower else bracket.upper.copy()
    )
    return BracketingSolution(
        lower, upper, bracket.lambda_star, bracket.iterations
    )


class HoneycombSolver:
    """The bracketing solver behind an input-hash memo.

    ``memo_solve=False`` disables the memo (every call executes the
    kernel) — the eager reference the equivalence suite and the
    solve-memo benchmark drive.  The kernel is deterministic, so a
    cached solution *is* the solution it would recompute.  Inputs are
    not checked for monotonicity here; callers that want the check call
    :meth:`TradeoffProblem.validate` themselves.
    """

    def __init__(
        self,
        memo_solve: bool = True,
        work: SolverWork | None = None,
        memo_capacity: int = 512,
    ) -> None:
        self.work = work if work is not None else SolverWork()
        self.memo_solve = memo_solve
        self._memo: OrderedDict[object, BracketingSolution] = OrderedDict()
        self._memo_capacity = memo_capacity

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def solve(self, problem: TradeoffProblem) -> Solution:
        """Return the feasible bracket solution ``L*_d``."""
        return self.solve_bracketing(problem).lower

    def solve_bracketing(self, problem: TradeoffProblem) -> BracketingSolution:
        """Full bracketing solve returning both ``L*_d`` and ``L*_u``."""
        key = None
        if self.memo_solve:
            key = problem.fingerprint()
            hit = self._memo.get(key)
            if hit is not None:
                self._memo.move_to_end(key)
                self.work.memo_hits += 1
                return _copy_bracket(hit)
        result = self._bracket(problem)
        self.work.problems_solved += 1
        if key is not None:
            # Store a private copy: callers may mutate what we return.
            self._memo[key] = _copy_bracket(result)
            while len(self._memo) > self._memo_capacity:
                self._memo.popitem(last=False)
        return result

    def solve_scan(self, problem: TradeoffProblem) -> Solution:
        """Naive baseline: apply exchange moves one at a time.

        Semantically identical to :meth:`solve` but re-evaluates the
        constraint after every single move instead of binary-searching
        pre-computed prefix sums.  Kept for the ablation benchmark
        contrasting the paper's bracketing strategy with a linear scan.
        """
        if not problem.channels:
            return Solution(levels={}, objective=0.0, cost=0.0, feasible=True)
        hulls = [_lower_hull(channel) for channel in problem.channels]
        positions = [len(hull) - 1 for hull in hulls]
        total_f = sum(
            ch.weight * hull[pos].f
            for ch, hull, pos in zip(problem.channels, hulls, positions)
        )
        total_g = sum(
            ch.weight * hull[pos].g
            for ch, hull, pos in zip(problem.channels, hulls, positions)
        )
        moves = self._collect_moves(problem, hulls)
        moves.sort(key=lambda move: (move.rate, move.channel_index))
        applied = 0
        while total_g > problem.target and applied < len(moves):
            move = moves[applied]
            positions[move.channel_index] = move.vertex_index
            total_f += move.df * move.weight
            total_g -= move.dg * move.weight
            applied += 1
        return self._materialize(
            problem, hulls, positions, total_f, total_g,
            feasible=total_g <= problem.target,
        )

    # ------------------------------------------------------------------
    # the kernel
    # ------------------------------------------------------------------
    def _bracket(self, problem: TradeoffProblem) -> BracketingSolution:
        if not problem.channels:
            empty = Solution(levels={}, objective=0.0, cost=0.0, feasible=True)
            return BracketingSolution(empty, empty, lambda_star=0.0, iterations=0)

        hulls = [_lower_hull(channel) for channel in problem.channels]

        # Start every channel at its unconstrained optimum: the hull
        # vertex with minimum f (largest-g end of the hull).
        positions = [len(hull) - 1 for hull in hulls]
        total_f = 0.0
        total_g = 0.0
        for channel, hull, pos in zip(problem.channels, hulls, positions):
            total_f += channel.weight * hull[pos].f
            total_g += channel.weight * hull[pos].g

        if total_g <= problem.target:
            solution = self._materialize(
                problem, hulls, positions, total_f, total_g, feasible=True
            )
            return BracketingSolution(solution, solution, 0.0, iterations=0)

        moves = self._collect_moves(problem, hulls)
        moves.sort(key=lambda move: (move.rate, move.channel_index))

        # Bracketing: binary-search the shortest prefix of moves whose
        # cumulative weighted cost reduction makes the assignment
        # feasible.  Prefix sums make each probe O(1); the search is
        # O(log(M log N)) probes — the paper's O(log M) iterations.
        reductions = [0.0]
        for move in moves:
            reductions.append(reductions[-1] + move.dg * move.weight)
        needed = total_g - problem.target
        cut = bisect_left(reductions, needed)
        iterations = max(1, len(reductions).bit_length())

        if cut > len(moves):
            # Constraint unsatisfiable even at the cheapest-cost corner.
            positions, total_f, total_g = self._apply_moves(
                hulls, moves, len(moves), total_f, total_g
            )
            solution = self._materialize(
                problem, hulls, positions, total_f, total_g, feasible=False
            )
            return BracketingSolution(
                solution, solution, moves[-1].rate if moves else 0.0, iterations
            )

        # L*_u: apply cut-1 full moves (still infeasible).
        upper_positions, upper_f, upper_g = self._apply_moves(
            hulls, moves, cut - 1, total_f, total_g
        )
        upper = self._materialize(
            problem, hulls, upper_positions, upper_f, upper_g,
            feasible=upper_g <= problem.target,
        )

        # L*_d: additionally apply the cut-th move — possibly to only
        # part of a cluster, the "one channel" accuracy granularity.
        lower = self._apply_final_move(
            problem, hulls, moves, cut, upper_positions, upper_f, upper_g
        )
        lambda_star = moves[cut - 1].rate if cut >= 1 else 0.0
        return BracketingSolution(lower, upper, lambda_star, iterations)

    @staticmethod
    def _collect_moves(
        problem: TradeoffProblem, hulls: list[list[_HullVertex]]
    ) -> list[_Move]:
        moves: list[_Move] = []
        for index, (channel, hull) in enumerate(zip(problem.channels, hulls)):
            # Walk from the min-f end toward lower cost; each edge is a move.
            for vertex_index in range(len(hull) - 2, -1, -1):
                src = hull[vertex_index + 1]
                dst = hull[vertex_index]
                df = dst.f - src.f
                dg = src.g - dst.g
                if dg <= 0.0:
                    continue  # degenerate edge: no cost reduction
                moves.append(
                    _Move(
                        rate=df / dg,
                        channel_index=index,
                        vertex_index=vertex_index,
                        df=df,
                        dg=dg,
                        weight=channel.weight,
                    )
                )
        return moves

    @staticmethod
    def _apply_moves(
        hulls: list[list[_HullVertex]],
        moves: list[_Move],
        count: int,
        total_f: float,
        total_g: float,
    ) -> tuple[list[int], float, float]:
        positions = [len(hull) - 1 for hull in hulls]
        for move in moves[:count]:
            positions[move.channel_index] = move.vertex_index
            total_f += move.df * move.weight
            total_g -= move.dg * move.weight
        return positions, total_f, total_g

    def _apply_final_move(
        self,
        problem: TradeoffProblem,
        hulls: list[list[_HullVertex]],
        moves: list[_Move],
        cut: int,
        upper_positions: list[int],
        upper_f: float,
        upper_g: float,
    ) -> Solution:
        move = moves[cut - 1]
        channel = problem.channels[move.channel_index]
        excess = upper_g - problem.target
        # How many of the cluster's members must take the move for
        # feasibility?  Weight-1 channels always move entirely.
        count_moved = min(
            channel.weight, max(1, -(-excess // move.dg) if move.dg else 1)
        )
        count_moved = int(count_moved)
        positions = list(upper_positions)
        positions[move.channel_index] = move.vertex_index
        total_f = upper_f + move.df * count_moved
        total_g = upper_g - move.dg * count_moved
        solution = self._materialize(
            problem,
            hulls,
            positions,
            total_f,
            total_g,
            feasible=total_g <= problem.target,
        )
        if 0 < count_moved < channel.weight:
            hull = hulls[move.channel_index]
            low = hull[move.vertex_index]
            high = hull[move.vertex_index + 1]
            solution.splits[channel.key] = ClusterSplit(
                key=channel.key,
                level_low=low.level,
                count_low=count_moved,
                level_high=high.level,
                count_high=channel.weight - count_moved,
                f_low=low.f,
                f_high=high.f,
            )
            # Majority level for the scalar assignment.
            majority = (
                low.level
                if count_moved * 2 >= channel.weight
                else high.level
            )
            solution.levels[channel.key] = majority
        return solution

    @staticmethod
    def _materialize(
        problem: TradeoffProblem,
        hulls: list[list[_HullVertex]],
        positions: list[int],
        total_f: float,
        total_g: float,
        feasible: bool,
    ) -> Solution:
        levels = {
            channel.key: hull[pos].level
            for channel, hull, pos in zip(problem.channels, hulls, positions)
        }
        return Solution(
            levels=levels,
            objective=total_f,
            cost=total_g,
            feasible=feasible,
        )


def _pareto_frontier(channel: ChannelTradeoff) -> list[_HullVertex]:
    """Non-dominated (g, f) points, ordered by ascending cost g."""
    points = sorted(
        (
            _HullVertex(level=level, f=f, g=g)
            for level, f, g in zip(channel.levels, channel.f, channel.g)
        ),
        key=lambda vertex: (vertex.g, vertex.f),
    )
    frontier: list[_HullVertex] = []
    best_f = float("inf")
    for vertex in points:
        if vertex.f < best_f:
            frontier.append(vertex)
            best_f = vertex.f
    return frontier


def _lower_hull(channel: ChannelTradeoff) -> list[_HullVertex]:
    """Lower convex hull of the Pareto frontier in the (g, f) plane.

    Only hull vertices can be selected by any Lagrangian multiplier;
    interior frontier points are never optimal for any λ.  Vertices are
    returned by ascending g (descending f), so index ``len-1`` is the
    unconstrained (min-f) optimum.
    """
    frontier = _pareto_frontier(channel)
    if len(frontier) <= 2:
        return frontier
    hull: list[_HullVertex] = []
    for vertex in frontier:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # Keep the chain convex: slope(a→b) must be ≤ slope(b→vertex).
            cross = (b.g - a.g) * (vertex.f - a.f) - (vertex.g - a.g) * (
                b.f - a.f
            )
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(vertex)
    return hull
