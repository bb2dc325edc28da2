"""Decentralized aggregation of tradeoff clusters over the overlay.

Honeycomb nodes periodically exchange cluster summaries with the
contacts in their routing tables (paper §3.2).  The exchange exploits
the same prefix structure Corona's wedges are built on: the channels
*owned* by nodes sharing ``r`` prefix digits with node X form a
shrinking family of sets

    S_X(K) ⊆ S_X(K-1) ⊆ ... ⊆ S_X(0) = all channels,

and each can be computed recursively:

    S_X(r) = S_X(r+1)  ∪  ⋃_j  S_{contact(r, j)}(r+1)

where ``contact(r, j)`` is X's routing-table entry at row ``r`` column
``j``.  Because routing-row contacts cover *disjoint* identifier
regions, every channel is counted exactly once — the aggregation is a
partition, not a gossip average.  One exchange round extends each
node's horizon by one prefix digit; after ``K = log_b N`` rounds every
node holds a summary of all channels in the system, with memory and
bandwidth bounded by ``bins × levels × routing-table size``.

The simulators drive this with explicit rounds so that the propagation
delay of global knowledge — and the transient mis-allocation it causes
(paper Figure 3's brief overshoot) — is reproduced rather than assumed
away.

Delta-driven rounds
-------------------
The recursion above makes each radius a pure function of the previous
round's radius-``r+1`` summaries, so a converged system recomputes the
same values forever.  Rounds are therefore delta-driven: they push
change to where it is read: building radius ``r``, a node
registers as a *reader* of radius ``r+1`` at its row-``r`` contacts,
and a value change of radius ``k`` at node X marks radius ``k-1``
*pending* at X and at X's readers of ``k``.  A round rebuilds only
pending or missing radii (churn drops every radius built from a row it
changed), reading the previous round's values and committing after
the sweep (a double buffer), which preserves the one-maintenance-
interval staleness of piggy-backed aggregation data bit for bit.  An
empty radius holds the shared :meth:`ClusterSummary.empty`, and a
rebuild adding nothing returns its inner summary itself; committed
summaries are never mutated, so they may be aliased.  A converged
round does no summary work at all.

Two facts keep a round's cost to its rebuilds:

* a node's :class:`~repro.overlay.routing.RoutingTable` object lives
  as long as its membership, and its rows change in place — so each
  state resolves its table once, when the node joins, and every
  later round reads the current rows through it;
* an empty routing-table row contributes nothing, so the radius built
  from it *is* its inner summary (and inner remote) — committed as
  they are, with no copy and no merge.

The original recompute-everything sweep stays as
:meth:`DecentralizedAggregator._run_round_eager` (with
:meth:`~DecentralizedAggregator.load_local` reloading the population),
the reference the equivalence suites and
``benchmarks/test_round_delta.py`` run against.

Both paths maintain the same :class:`AggregationWork` counters, which
deliberately count *value changes* rather than raw recomputation —
the two must report identical numbers on identical runs (the
delta-round equivalence suite asserts this), which makes the counters
a deterministic CI gate for "work the protocol caused" that is
independent of how cleverly the round is executed.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field

from repro.honeycomb.clusters import ClusterSummary
from repro.obs.metrics import CounterStruct
from repro.overlay.nodeid import ID_BITS, NodeId, bits_per_digit
from repro.overlay.routing import RoutingTable


def deepest_shared_prefix(value: int, wave: list[int], digit_bits: int) -> int:
    """Longest digit prefix ``value`` shares with a member of ``wave``.

    ``wave`` is sorted and non-empty.  The longest shared bit prefix is
    with one of ``value``'s two neighbours in it, and digit prefixes
    grow with bit prefixes: two XORs, not one per member.
    """
    index = bisect_left(wave, value)
    nearest = value ^ wave[min(index, len(wave) - 1)]
    if index:
        nearest = min(nearest, value ^ wave[index - 1])
    return (ID_BITS - nearest.bit_length()) // digit_bits


class AggregationWork(CounterStruct):
    """Deterministic value-change counters for aggregation rounds.

    ``summaries_rebuilt`` counts per-radius (and local) summaries whose
    committed value actually changed; ``cluster_merges`` counts the
    contact contributions folded into those changed builds;
    ``nodes_dirtied`` accumulates, per round (and per local-load pass),
    the number of nodes with at least one changed summary.  All three
    are identical between delta rounds and the eager reference on
    the same run — they measure change flowing through the system, not
    instructions executed — so scenario baselines can gate on them
    exactly while wall-clock timings stay report-only.

    Backed by ``repro.obs`` counter cells; an aggregator built on a
    registry that already holds these series replaces them, so the
    registry always reports the live aggregator's work.
    """

    SERIES = (
        (
            "summaries_rebuilt",
            "work_summaries_rebuilt",
            "per-radius summaries whose committed value changed",
        ),
        (
            "cluster_merges",
            "work_cluster_merges",
            "contact contributions folded into changed summary builds",
        ),
        (
            "nodes_dirtied",
            "work_nodes_dirtied",
            "nodes with at least one changed summary, per round",
        ),
    )


@dataclass
class AggregationState:
    """Per-node aggregation memory: one summary per prefix radius.

    ``summaries[r]`` approximates the channels owned by nodes sharing
    ``r`` prefix digits with this node; radius ``rows`` (= digits) is
    the node's own channels, radius 0 is the whole system.

    The trailing fields are delta-round bookkeeping (excluded from
    equality, which compares protocol state only): ``pending`` holds
    the radii whose inputs changed since this node last built them,
    ``readers[k]`` the ``NodeId.value`` of every node that built its
    radius ``k-1`` from this node's radius ``k``, ``incomplete`` the
    radii whose last rebuild lacked a contribution from some contact
    of their row, and ``table`` this node's routing table.
    """

    node_id: NodeId
    rows: int
    bins: int = 16
    summaries: dict[int, ClusterSummary] = field(
        default_factory=dict, init=False
    )
    #: Like ``summaries`` but excluding this node's own channels; the
    #: local optimizer combines fine-grained own-channel data with
    #: ``remote[0]`` so nothing is counted twice.
    remote: dict[int, ClusterSummary] = field(
        default_factory=dict, init=False
    )
    pending: set[int] = field(default_factory=set, init=False, compare=False)
    readers: defaultdict[int, set[int]] = field(
        default_factory=lambda: defaultdict(set), init=False, compare=False
    )
    incomplete: set[int] = field(
        default_factory=set, init=False, compare=False
    )
    #: This node's routing table, resolved once: delta rounds read its
    #: rows through it instead of looking the table up per visit.
    table: RoutingTable = field(kw_only=True, compare=False, repr=False)

    def best_remote(self) -> ClusterSummary:
        """Widest remote-channel summary (own channels excluded)."""
        for radius in sorted(self.remote):
            return self.remote[radius]
        return ClusterSummary.empty(self.bins)

    def horizon(self) -> int:
        """Smallest radius (widest coverage) currently known."""
        return min(self.summaries, default=self.rows)


def _plus(base: ClusterSummary, added: list[ClusterSummary]) -> ClusterSummary:
    """``base`` with ``added`` merged in order; ``base`` itself if none.

    Empties are left out: adding +0.0 changes no bit (no sum is −0.0)."""
    if not added:
        return base
    combined = base.copy()
    for contribution in added:
        combined.merge(contribution)
    return combined


class DecentralizedAggregator:
    """Runs aggregation rounds across a population of nodes.

    ``local_summary`` supplies, per node, the summary of the channels
    that node currently owns; :meth:`load_local` installs it as the
    radius-``rows`` summary of every node, :meth:`load_dirty_locals`
    of just the ones marked dirty via :meth:`mark_local_dirty`, and
    :meth:`run_round` extends horizons one digit.

    Churn is handled **incrementally** (paper §3.3): a joining or
    failing node is spliced into/out of ``states`` in place via
    :meth:`add_nodes`/:meth:`remove_nodes`, and survivors keep every
    summary whose prefix region the event did not touch.  Their
    horizons shrink only where membership actually changed — matching
    the protocol's one-interval staleness — and because every round
    recomputes each stale radius from the previous round's values, the
    spliced state reconverges to exactly what a from-scratch rebuild
    would compute within ``rows`` rounds (the churn-equivalence test
    suite asserts this bit for bit).  ``tables`` should be a live view
    (see :meth:`repro.overlay.network.OverlayNetwork.routing_tables`)
    so membership changes never require re-materializing it: a node's
    table is looked up in it once, when the node's state is made.  The
    tables must only change through
    :meth:`add_nodes`/:meth:`remove_nodes` events (pending marks learn
    about contact changes from the horizon trimming those perform).
    """

    def __init__(
        self,
        tables: Mapping[NodeId, RoutingTable],
        rows: int,
        bins: int = 16,
        base: int | None = None,
        registry=None,
    ) -> None:
        self.tables = tables
        self.rows = rows
        self.bins = bins
        if base is None:
            base = next(
                (table.base for table in tables.values()), 16
            )
        self.base = base
        self.states: dict[NodeId, AggregationState] = {
            node_id: AggregationState(
                node_id=node_id, rows=rows, bins=bins, table=table
            )
            for node_id, table in tables.items()
        }
        #: ``states`` by ``NodeId.value``: an int hashes in C, a NodeId not.
        self._by_value: dict[int, AggregationState] = {
            node_id.value: state for node_id, state in self.states.items()
        }
        self.work = AggregationWork(registry)
        #: Nodes whose owned-channel factors changed since their local
        #: summary was last rebuilt.  Everyone starts dirty so the
        #: first load covers the whole population.
        self._dirty_local: set[NodeId] = set(self.states)
        #: True when the previous round committed nothing and rebuilt
        #: nothing — the next delta round is then a guaranteed no-op.
        self._quiescent = False

    @classmethod
    def for_overlay(
        cls,
        overlay,
        bins: int = 16,
        registry=None,
    ) -> "DecentralizedAggregator":
        """Build over an overlay's live routing-table view."""
        return cls(
            tables=overlay.routing_tables(),
            rows=overlay.aggregation_rows(),
            bins=bins,
            base=overlay.base,
            registry=registry,
        )

    # ------------------------------------------------------------------
    # incremental churn (§3.3)
    # ------------------------------------------------------------------
    def add_nodes(
        self, node_ids: Iterable[NodeId], rows: int | None = None
    ) -> None:
        """Splice a wave of joined nodes into the aggregation state.

        Each newcomer starts with empty summaries (its horizon grows
        one digit per round, like any node's); each survivor drops only
        the summaries whose prefix region now contains a newcomer —
        those undercount until the next rounds repair them, and serving
        them would misreport the region.  ``rows`` re-keys the state
        when the join deepened the overlay's collision depth (pass the
        overlay's current ``aggregation_rows()``).
        """
        joined = list(node_ids)
        for node_id in joined:
            if node_id in self.states:
                raise ValueError(f"node {node_id!r} already aggregated")
            state = AggregationState(
                node_id=node_id,
                rows=self.rows,
                bins=self.bins,
                table=self.tables[node_id],
            )
            self.states[node_id] = self._by_value[node_id.value] = state
            self._dirty_local.add(node_id)
        self._quiescent = False
        self._trim_changed_regions(joined)
        if rows is not None:
            self.set_rows(rows)

    def remove_nodes(
        self, node_ids: Iterable[NodeId], rows: int | None = None
    ) -> None:
        """Splice a wave of failed nodes out of the aggregation state.

        Survivors keep every summary of an untouched prefix region;
        radii whose region contained a victim are dropped (they count
        channels the victims' successors now re-announce).  One wave ⇒
        one repair pass, however many nodes failed.
        """
        victims = list(node_ids)
        for node_id in victims:
            if node_id not in self.states:
                raise KeyError(f"node {node_id!r} not aggregated")
        for node_id in victims:
            del self.states[node_id]
            del self._by_value[node_id.value]
            self._dirty_local.discard(node_id)
        self._quiescent = False
        self._trim_changed_regions(victims)
        if rows is not None:
            self.set_rows(rows)

    def _trim_changed_regions(self, changed: list[NodeId]) -> None:
        """Shrink survivors' horizons only where membership changed.

        A survivor's radius-``r`` summary covers the nodes sharing
        ``r`` prefix digits with it; a membership event at shared
        prefix ``p`` therefore staled exactly the radii ``r <= p`` —
        which include every radius built from a row the event changed.
        The local (radius-``rows``) summary is never dropped — it is
        rebuilt from owned channels when the owner's factors change.
        Every dropped radius marks its readers so delta rounds rebuild
        them from the trimmed state.  Joiners hold no summary yet.
        """
        if not changed:
            return
        wave = sorted(node_id.value for node_id in changed)
        digit_bits = bits_per_digit(self.base)
        for state in self.states.values():
            horizon = min(state.summaries, default=state.rows)
            if horizon >= state.rows:
                continue  # only the local summary left — nothing stale
            deepest = deepest_shared_prefix(
                state.node_id.value, wave, digit_bits
            )
            for radius in range(horizon, min(deepest, state.rows - 1) + 1):
                dropped = state.summaries.pop(radius, None)
                state.remote.pop(radius, None)
                state.incomplete.discard(radius)
                if dropped is not None:
                    self._touch(state, radius)

    def set_rows(self, rows: int) -> None:
        """Adjust the aggregation depth after a collision-depth change.

        Rare: only when churn changes the deepest shared prefix in the
        overlay.  Local summaries move to the new local radius; wider
        radii are dropped (their meaning shifted) and regrow one digit
        per round.
        """
        if rows == self.rows:
            return
        self._quiescent = False
        for state in self.states.values():
            local = state.summaries.get(state.rows)
            local_remote = state.remote.get(state.rows)
            state.summaries = {} if local is None else {rows: local}
            state.remote = {} if local_remote is None else {rows: local_remote}
            state.rows = rows
            # Every other radius is gone; rebuilds register afresh.
            state.pending.clear()
            state.readers.clear()
            state.incomplete.clear()
        self.rows = rows

    def _touch(self, state: AggregationState, radius: int) -> None:
        """Mark what reads ``radius`` of ``state``, whose value changed."""
        self._quiescent = False
        if radius:  # radius 0 is read by nothing
            state.pending.add(radius - 1)
            for value in state.readers.get(radius, ()):
                reader = self._by_value.get(value)
                if reader is not None:
                    reader.pending.add(radius - 1)

    # ------------------------------------------------------------------
    # local summaries
    # ------------------------------------------------------------------
    def mark_local_dirty(self, node_id: NodeId) -> None:
        """Flag a node whose owned-channel factors changed.

        The drivers call this on every event that can move a factor a
        local summary is built from — subscribe/unsubscribe, channel
        re-homes, detected updates (interval/size estimators) — so
        :meth:`load_dirty_locals` touches only those nodes.  A polling
        level step is not one: a summary is its sums, and no sum reads
        a level.
        """
        if node_id in self.states:
            self._dirty_local.add(node_id)

    def load_local(
        self, local_summary: Callable[[NodeId], ClusterSummary]
    ) -> None:
        """Rebuild every node's own-channel summary.

        ``local_summary(node)`` returns the :class:`ClusterSummary` of
        the channels the node owns (orphans in the slack slot; the
        shared :meth:`ClusterSummary.empty` for none), which the
        aggregator keeps.  A rebuilt summary equal in value to the
        stored one is discarded (nothing is marked), which is what
        lets delta rounds quiesce even though the eager driver reloads
        every node every round.
        """
        self._dirty_local.clear()
        self._install_locals(local_summary, list(self.states.values()))

    def load_dirty_locals(
        self, local_summary: Callable[[NodeId], ClusterSummary]
    ) -> None:
        """Rebuild locals only for nodes marked dirty since last load.

        Every marked node is aggregated (marking checks, removal
        unmarks), so the states are found by value, in value order.
        """
        if not self._dirty_local:
            return
        by_value = self._by_value
        targets = [
            by_value[value]
            for value in sorted(nid.value for nid in self._dirty_local)
        ]
        self._dirty_local.clear()
        self._install_locals(local_summary, targets)

    def refresh_locals(
        self, local_summary: Callable[[NodeId], ClusterSummary]
    ) -> None:
        """Reload the local summaries a round needs: the dirty set.

        The one entry point every driver calls; the eager reference
        reloads the population through :meth:`load_local` instead.
        """
        self.load_dirty_locals(local_summary)

    def run_phase(
        self, local_summary: Callable[[NodeId], ClusterSummary]
    ) -> None:
        """One maintenance phase: refresh dirty locals, then two hops.

        Summaries travel two hops per phase: once on the maintenance
        messages themselves and once on their responses ("Tradeoff
        clusters are also sent by contacts in the routing table in
        response to maintenance messages", §3.3), which is what lets
        global knowledge converge within the couple of phases Figure 3
        shows.  Both steps are looked up by attribute, so a reference
        swapped in on the class drives the phase too.
        """
        self.refresh_locals(local_summary)
        self.run_round()
        self.run_round()

    def _install_locals(
        self,
        local_summary: Callable[[NodeId], ClusterSummary],
        targets: list[AggregationState],
    ) -> None:
        """Commit each target's rebuilt local summary, marking changes.

        An unchanged local keeps the stored object; "nothing stored"
        and "the same object" are decided before any value comparison.
        """
        empty = ClusterSummary.empty(self.bins)
        rebuilt = 0
        for state in targets:
            summary = local_summary(state.node_id)
            rows = state.rows
            stored = state.summaries.get(rows)
            if stored is not None and (stored is summary or stored == summary):
                if rows not in state.remote:
                    state.remote[rows] = empty
                continue
            if summary is not empty and summary == empty:
                summary = empty
            state.summaries[rows] = summary
            state.remote[rows] = empty
            rebuilt += 1
            self._touch(state, rows)
        work = self.work
        work.summaries_rebuilt += rebuilt
        work.nodes_dirtied += rebuilt

    # ------------------------------------------------------------------
    # rounds
    # ------------------------------------------------------------------
    def run_round(self) -> None:
        """One aggregation round: every node widens its horizon by one.

        For radius ``r`` (from ``rows - 1`` down to 0) a node needs its
        own radius-``r+1`` summary plus the radius-``r+1`` summaries of
        its row-``r`` contacts.  We compute one new radius per round
        from the *previous* round's state, which models the one
        maintenance-interval staleness of piggy-backed aggregation
        data.  The round skips every radius whose inputs did not change
        since the node last built it (see module docstring);
        :meth:`_run_round_eager`, the reference, recomputes everything.
        """
        self._run_round_delta()

    def _run_round_eager(self) -> None:
        """The original recompute-everything sweep (reference path)."""
        snapshot: dict[NodeId, dict[int, ClusterSummary]] = {
            node_id: dict(state.summaries)
            for node_id, state in self.states.items()
        }
        remote_snapshot: dict[NodeId, dict[int, ClusterSummary]] = {
            node_id: dict(state.remote)
            for node_id, state in self.states.items()
        }
        work = self.work
        dirtied = 0
        for node_id, state in self.states.items():
            table = self.tables[node_id]
            known = snapshot[node_id]
            node_changed = False
            for radius in range(self.rows - 1, -1, -1):
                inner = known.get(radius + 1)
                if inner is None:
                    break  # cannot widen past a missing inner radius
                inner_remote = remote_snapshot[node_id].get(
                    radius + 1, ClusterSummary(bins=self.bins)
                )
                combined = inner.copy()
                combined_remote = inner_remote.copy()
                complete = True
                merges = 0
                for contact in table.row(radius).values():
                    contribution = snapshot.get(contact, {}).get(radius + 1)
                    if contribution is None:
                        complete = False
                        continue
                    combined.merge(contribution)
                    combined_remote.merge(contribution)
                    merges += 1
                if (
                    state.summaries.get(radius) != combined
                    or state.remote.get(radius) != combined_remote
                ):
                    work.summaries_rebuilt += 1
                    work.cluster_merges += merges
                    node_changed = True
                state.summaries[radius] = combined
                state.remote[radius] = combined_remote
                if not complete:
                    # Partial coverage still improves the estimate, but
                    # do not build wider radii on incomplete data this
                    # round; they would systematically undercount.
                    break
            if node_changed:
                dirtied += 1
        work.nodes_dirtied += dirtied

    def _run_round_delta(self) -> None:
        """Mark-driven sweep: rebuild only radii whose inputs moved.

        Walks the nodes with a pending or missing radius, in ``states``
        order, like the eager sweep (same break conditions, same
        contribution order, reading only pre-round values), rebuilding
        only pending or missing radii; commits follow the sweep so
        within-round reads stay double-buffered.  A value-identical
        rebuild keeps the stored objects and marks nothing, so change
        waves die out exactly as fast as the values converge.
        """
        if self._quiescent:
            return
        by_value = self._by_value
        empty = ClusterSummary.empty(self.bins)
        local = self.rows
        widening = range(local - 1, -1, -1)  # the radii, innermost first
        # (state, radius, stored before, built, built remote, merges)
        commits: list[
            tuple[
                AggregationState, int, ClusterSummary | None,
                ClusterSummary, ClusterSummary, int,
            ]
        ] = []
        for state in self.states.values():
            summaries = state.summaries
            pending = state.pending
            if not pending and 0 in summaries:
                continue  # converged and untouched since its last build
            inner = summaries.get(local)
            if inner is None:
                continue  # no local yet: nothing to widen
            incomplete = state.incomplete
            row = state.table.row
            for radius in widening:
                current = summaries.get(radius)
                if current is not None and radius not in pending:
                    if radius in incomplete:
                        break  # the eager sweep would stop here too
                    inner = current
                    continue
                pending.discard(radius)
                inner_remote = state.remote.get(radius + 1, empty)
                contacts = row(radius)
                if contacts:
                    me = state.node_id.value
                    complete = True
                    merges = 0
                    added: list[ClusterSummary] = []
                    for contact in contacts.values():
                        contact_state = by_value.get(contact.value)
                        if contact_state is None:
                            complete = False
                            continue
                        contact_state.readers[radius + 1].add(me)
                        contribution = contact_state.summaries.get(radius + 1)
                        if contribution is None:
                            complete = False
                            continue
                        merges += 1
                        if contribution is not empty:
                            added.append(contribution)
                    commits.append((
                        state, radius, current, _plus(inner, added),
                        _plus(inner_remote, added), merges,
                    ))
                    if not complete:
                        incomplete.add(radius)
                        break
                else:  # an empty row: the radius is its inner itself
                    commits.append(
                        (state, radius, current, inner, inner_remote, 0)
                    )
                if current is None:
                    break  # the next radius has no inner until this commits
                incomplete.discard(radius)
                inner = current
        if not commits:
            # Nothing to build and nothing marked: the next round idles.
            self._quiescent = True
            return
        rebuilt = merged = dirtied = 0
        last = None
        for commit in commits:
            state, radius, stored, combined, combined_remote, merges = commit
            remote = state.remote
            if stored is not None and (
                stored is combined or stored == combined
            ):
                stored_remote = remote.get(radius)
                if stored_remote is combined_remote or (
                    stored_remote is not None
                    and stored_remote == combined_remote
                ):
                    continue  # value-identical rebuild: keep, mark nothing
            state.summaries[radius] = combined
            remote[radius] = combined_remote
            if radius:  # mark what reads it; radius 0 is read by nothing
                below = radius - 1
                state.pending.add(below)
                readers = state.readers
                if readers:
                    for value in readers.get(radius, ()):
                        reader = by_value.get(value)
                        if reader is not None:
                            reader.pending.add(below)
            rebuilt += 1
            merged += merges
            if state is not last:  # a node's commits are adjacent
                dirtied += 1
                last = state
        work = self.work
        work.summaries_rebuilt += rebuilt
        work.cluster_merges += merged
        work.nodes_dirtied += dirtied

    def run_to_convergence(self) -> int:
        """Run rounds until every node covers radius 0; return rounds."""
        rounds = 0
        while any(state.horizon() > 0 for state in self.states.values()):
            self.run_round()
            rounds += 1
            if rounds > self.rows * 4 + 8:
                break  # safety: sparse tables may never cover some region
        return rounds
