"""A full Corona protocol node.

One :class:`CoronaNode` plays every role the paper describes (§3.3):

* **channel manager** (the wedge anchor, normally the primary owner):
  keeps subscription state and the per-channel factor estimators, runs
  the optimization over fine-grained local data plus aggregated remote
  clusters, drives the one-step-per-round level changes, assigns
  versions and dedups concurrent diffs;
* **wedge member**: polls assigned channels at staggered times, runs
  the difference engine on fetched content, floods fresh diffs through
  the wedge DAG, and applies diffs received from peers;
* **subscription replica**: absorbs and surrenders subscription state
  as ownership moves.

Nodes are driven by a simulator or the :class:`~repro.core.system.
CoronaSystem` facade; all methods take explicit ``now`` timestamps and
return the messages to deliver, so the same code runs under the
synchronous facade and the discrete-event deployment simulator.
"""

from __future__ import annotations

import math
import zlib
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache

from repro.core.channel import Channel
from repro.core.config import CoronaConfig
from repro.core.maintenance import DiffMsg, LevelController, MaintenanceMsg
from repro.core.objectives import (
    ProblemInputs,
    Scheme,
    build_problem,
    scheme_by_name,
)
from repro.core.polling import PollScheduler, PollTask
from repro.core.subscription import SubscriptionRegistry
from repro.core.update import VersionClock
from repro.diffengine.delta import apply_once
from repro.diffengine.differ import Diff, Hunk, diff_lines
from repro.diffengine.extractor import DEFAULT_EXTRACTOR
from repro.honeycomb.clusters import ChannelFactors, ClusterSummary
from repro.honeycomb.solver import HoneycombSolver, SolverWork
from repro.overlay.nodeid import NodeId


def _content_hash(lines: tuple[str, ...]) -> int:
    """Stable hash of core content (dedup key at primary owners)."""
    return zlib.crc32("\n".join(lines).encode("utf-8"))


@lru_cache(maxsize=64)
def _hunks(old: tuple[str, ...], new: tuple[str, ...]) -> tuple[Hunk, ...]:
    """The hunks :func:`diff_lines` makes of two line tuples, memoised.

    One poll batch can hand several wedge members the same pair (on a
    channel without timestamps their versions differ, their lines not);
    the hunks are a pure function of the pair — the versions only label
    the :class:`Diff` — so each distinct pair is diffed once.  A repeat
    follows its first diff within its poll batch: on the e2e workloads
    (seeds 0-2) at most 29 other pairs came between them, well inside
    the bound.  Each held pair keeps its old lines alive.
    """
    return diff_lines(list(old), list(new)).hunks


@dataclass(frozen=True)
class FetchResult:
    """What one HTTP poll of a channel returned.

    ``server_version`` is a monotone token derived from the content's
    modification timestamp when the server provides one, else 0 (the
    manager then assigns version numbers, §3.4).  ``published_at`` is
    simulation ground truth carried through for metrics only — the
    protocol never reads it.  A *not modified* reply — the poller
    already holds ``server_version`` — carries the version and
    ``published_at`` with ``document=None`` and ``size=0``.
    """

    url: str
    document: str | None
    size: int
    server_version: int = 0
    published_at: float | None = None


@dataclass(frozen=True)
class DetectionEvent:
    """Metrics record: one fresh update accepted by a manager.

    ``path_delay`` is the extra latency the per-link network model
    charged the dissemination path from detector to manager (queueing,
    backoff and link latency summed along the relay chain) — 0.0 with
    no link table, so fault-free metrics are byte-identical.

    ``detector``/``fanout`` identify the poller whose diff reached the
    manager and the wedge dissemination plan's size — provenance
    annotations for :mod:`repro.obs.provenance`, never consulted by
    the protocol itself.
    """

    url: str
    version: int
    detected_at: float
    published_at: float | None
    subscribers: int
    diff_lines: int
    path_delay: float = 0.0
    detector: "NodeId | None" = None
    fanout: int = 0


class CoronaNode:
    """Protocol state and behaviour of one node in the Corona cloud."""

    def __init__(
        self,
        node_id: NodeId,
        config: CoronaConfig,
        *,
        rng_seed: int = 0,
        notifier: Callable[[str, Iterable[str], Diff, float], None] | None = None,
        solver_work: SolverWork | None = None,
        on_factors_changed: Callable[[NodeId], None] | None = None,
        poll_calendar: list[tuple] | None = None,
        poll_rank: int = 0,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.scheme: Scheme = scheme_by_name(config.scheme)
        #: Books every task on ``poll_calendar`` (the system's shared
        #: heap, see :class:`PollScheduler`) under this node and its
        #: ``poll_rank``; a node built alone gets a private calendar.
        self.scheduler = PollScheduler(
            interval=config.polling_interval,
            seed=rng_seed ^ (node_id.value & 0xFFFFFFFF),
            calendar=[] if poll_calendar is None else poll_calendar,
            rank=poll_rank,
            owner=self,
        )
        self.registry = SubscriptionRegistry()
        self.managed: dict[str, Channel] = {}
        self.clocks: dict[str, VersionClock] = {}
        #: Latest accepted content hash per managed channel (§3.4 dedup).
        self.latest_hash: dict[str, int] = {}
        self.controller = LevelController()
        self.extractor = DEFAULT_EXTRACTOR
        self.solver = HoneycombSolver(work=solver_work)
        #: Structural dirty notification: called with this node's id
        #: whenever a managed channel's factor attribute is assigned
        #: (the system routes it to ``aggregator.mark_local_dirty``).
        self.on_factors_changed = on_factors_changed
        #: Whole-phase memo: fingerprint of the last solved
        #: optimization inputs and the desired levels it produced.
        self._opt_fingerprint: tuple | None = None
        self._opt_desired: dict[str, int] = {}
        self.notifier = notifier
        # Counters exposed to the simulators.
        self.polls_issued = 0
        self.diffs_sent = 0
        self.diffs_received = 0
        self.redundant_diffs = 0

    # ------------------------------------------------------------------
    # channel management (manager role)
    # ------------------------------------------------------------------
    def adopt_channel(
        self, url: str, max_level: int, anchor_prefix: int, now: float
    ) -> Channel:
        """Become the manager of ``url`` (first subscription arrived).

        The channel starts at the owner-only level; optimization lowers
        it from there ("initially, only the owner nodes at level
        K = ⌈log N⌉ poll for the channels", §3.3).
        """
        channel = self.managed.get(url)
        if channel is not None:
            return channel
        channel = Channel(
            url=url,
            level=max_level,
            max_level=max_level,
            anchor_prefix=anchor_prefix,
        )
        channel.clamp_level()
        self.managed[url] = channel
        self.clocks[url] = VersionClock()
        self.scheduler.start(url, channel.level, now)
        self.bind_channel_stats(channel)
        self._factors_touched()
        return channel

    def bind_channel_stats(self, channel: Channel) -> None:
        """Route ``channel.stats`` factor changes to this node.

        Called on adoption; thereafter :class:`Channel`'s ``stats``
        assignment hook carries the binding onto any replacement
        object (ownership transfers swap the estimators in wholesale),
        so no further explicit rebinds exist or are needed.
        """
        channel.stats.bind(self._factors_touched)

    def _factors_touched(self) -> None:
        if self.on_factors_changed is not None:
            self.on_factors_changed(self.node_id)

    def subscribe(self, url: str, client: str, now: float) -> bool:
        """Register a subscription on this (manager) node."""
        added = self.registry.subscribe(url, client)
        channel = self.managed.get(url)
        if channel is not None:
            channel.stats.subscribers = self.registry.count(url)
        return added

    def unsubscribe(self, url: str, client: str) -> bool:
        """Remove a subscription on this (manager) node."""
        removed = self.registry.unsubscribe(url, client)
        channel = self.managed.get(url)
        if channel is not None:
            channel.stats.subscribers = self.registry.count(url)
        return removed

    def _channel_records(self):
        """Per managed channel, in order: ``(channel, ratio, record)``.

        ``record`` is the flat ``(slot, q, s, log u)`` row a summary
        folds: the channel sits in its scheme's ratio bin so that
        remote nodes cluster it with curve-alikes (§3.2) — an orphan in
        the slack slot.
        """
        config = self.config
        slack = config.tradeoff_bins
        for channel in self.managed.values():
            stats = channel.stats
            _, log_u, ratio, slot = stats.record(config)
            yield channel, ratio, (
                slack if channel.is_orphan() else slot,
                float(stats.subscribers),
                float(stats.content_size),
                log_u,
            )

    def local_summary(self) -> ClusterSummary:
        """Own channels as the summary the aggregation phase loads
        (the shared read-only empty one when this node manages none)."""
        bins = self.config.tradeoff_bins
        if not self.managed:
            return ClusterSummary.empty(bins)
        return ClusterSummary(bins=bins).with_channels(
            record for _, _, record in self._channel_records()
        )

    # ------------------------------------------------------------------
    # optimization phase (§3.3)
    # ------------------------------------------------------------------
    def run_optimization(
        self,
        remote: ClusterSummary,
        n_nodes: int,
        solve_cache: dict | None = None,
    ) -> dict[str, int]:
        """Compute desired levels for managed channels, delta-driven.

        The answer (see :meth:`solve_levels`) is a pure function of
        ``n_nodes``, the remote summary and this node's own channels in
        order (identity, ``q``, ``s``, ``u``, ``anchor_prefix``,
        ``max_level``) — scheme and config are fixed per node — so if
        none of those moved since the last call the whole phase
        short-circuits to one comparison and replays the previous
        desired levels (the controller already holds the targets).
        Own polling levels are *not* in that key: no curve, budget or
        snap to an allowed level reads them.  Otherwise the phase
        solves with the driver's round-scoped ``solve_cache``.
        """
        fingerprint = (
            n_nodes,
            remote.sums_key(),
            self._own_contribution_fingerprint(),
        )
        if fingerprint == self._opt_fingerprint:
            self.solver.work.memo_hits += 1
            return dict(self._opt_desired)
        desired = self.solve_levels(remote, n_nodes, solve_cache)
        self._opt_fingerprint = fingerprint
        self._opt_desired = dict(desired)
        return desired

    def solve_levels(
        self,
        remote: ClusterSummary,
        n_nodes: int,
        solve_cache: dict | None = None,
    ) -> dict[str, int]:
        """Pose and solve this node's instance; no whole-phase memo.

        The instance is posed entirely over ratio-bin clusters: the
        remote summary plus this node's own channels folded into the
        *same* bins.  Every manager therefore solves (nearly) the same
        problem and obtains (nearly) the same per-bin level assignment,
        which makes the decentralized allocation globally consistent —
        solving each node's fine-grained channels against cluster
        *means* instead systematically over-admits channels near the
        marginal cluster, and the realized global load drifts off
        target.

        Whole bins land on one level; the single split bin (Honeycomb's
        one-channel accuracy granularity) is resolved locally: each
        manager demotes its own share of the bin — the split's global
        fraction applied to its member count, lowest-ratio members
        first, with the fractional boundary member resolved by a
        uniform hash of its identifier.  Every node demoting the same
        *fraction* keeps the realized global cost on budget without
        coordination, while the rank ordering spends the node's
        fine-grained knowledge where it is actually useful.  Returns
        the desired level per managed URL.

        When the driver supplies a round-scoped ``solve_cache``,
        managers whose *combined* sums
        (:meth:`~repro.honeycomb.clusters.ClusterSummary.sums_key`)
        collide reuse one solution per round — only the local
        split-bin resolution below stays per-node — so a round solves
        O(distinct problems) instead of O(managers).  Called with no
        cache, over the solver's memo-less
        :meth:`~repro.honeycomb.solver.HoneycombSolver.bracket`, this is
        the eager reference the solve-memo suites compare against.

        A missed instance folds each channel's cached
        :meth:`~repro.core.channel.ChannelStats.record` onto the remote
        sums in channel order: the float additions ``add_channel``
        would make, in the same order.
        """
        bins = self.config.tradeoff_bins
        if remote.bins != bins:
            raise ValueError("summaries must use the same bin count")

        local: list[Channel] = []
        orphans: list[Channel] = []
        records = []
        own_bins: dict[int, list[tuple[float, Channel]]] = {}
        for channel, ratio, record in self._channel_records():
            if channel.is_orphan():
                orphans.append(channel)
                continue
            local.append(channel)
            records.append(record)
            own_bins.setdefault(record[0], []).append((ratio, channel))
        inputs = self._problem_inputs(local, orphans, remote)
        combined = remote.with_channels(records)

        desired: dict[str, int] = {}
        for channel in orphans:
            self.controller.set_target(channel.url, channel.max_level)
            desired[channel.url] = channel.max_level

        max_level = max(
            (channel.max_level for channel in self.managed.values()),
            default=0,
        )
        levels = tuple(range(max_level + 1))
        counts, subscribers, sizes, log_intervals = combined.sums()
        # One entry per non-empty bin: the cluster's mean channel
        # (intervals averaged geometrically), weighted by its count.
        entries: list[tuple[object, ChannelFactors, Sequence[int], int]] = [
            (
                slot,
                ChannelFactors(
                    subscribers=subscribers[slot] / count,
                    size=sizes[slot] / count,
                    update_interval=math.exp(log_intervals[slot] / count),
                ),
                levels,
                int(count),
            )
            for slot, count in enumerate(counts[:bins])
            if count > 0
        ]
        if not entries:
            return desired
        solution = None
        problem_key = None
        if solve_cache is not None:
            # The shared per-cloud cache: the combined instance is a
            # pure function of these values (scheme and config are
            # cloud-wide constants), so a colliding manager's solution
            # is *the* solution, bit for bit.
            problem_key = (
                n_nodes,
                max_level,
                inputs,
                combined.sums_key(),
            )
            cached = solve_cache.get(problem_key)
            if cached is not None:
                # Hand each manager its own copy: cache entries must
                # never alias a consumer's mutable assignment dicts.
                solution = cached.copy()
                self.solver.work.shared_hits += 1
        if solution is None:
            problem = build_problem(
                self.scheme, self.config, n_nodes, entries, inputs
            )
            solution = self.solver.solve(problem)
            if problem_key is not None:
                solve_cache[problem_key] = solution.copy()

        for bin_key, members in own_bins.items():
            level = solution.levels.get(bin_key)
            if level is None:
                continue
            split = solution.splits.get(bin_key)
            if split is None:
                wants = [(channel, level) for _ratio, channel in members]
            else:
                wants = self._resolve_split(split, members)
            for channel, want in wants:
                want = self._nearest_allowed(channel, want)
                self.controller.set_target(channel.url, want)
                desired[channel.url] = want
        return desired

    def _own_contribution_fingerprint(self) -> tuple:
        """Hashable identity of this node's optimization inputs.

        Covers everything :meth:`run_optimization`'s answer depends on
        in the managed channels, in iteration order (split-bin
        tie-breaks are order-sensitive): identity, the clamped factors
        and the orphan/allowed-level structure — not the current level,
        which decides nothing.  Together with the remote sums and
        ``n_nodes`` this is a complete input hash — scheme and config
        are fixed per node.
        """
        return tuple(
            (
                url,
                channel.stats.subscribers,
                channel.stats.content_size,
                channel.stats.update_interval,
                channel.anchor_prefix,
                channel.max_level,
            )
            for url, channel in self.managed.items()
        )

    @staticmethod
    def _resolve_split(
        split, members: list[tuple[float, Channel]]
    ) -> list[tuple[Channel, int]]:
        """Assign this node's members of a split bin to the two levels.

        Demotes the node's share of the bin (the split's global
        fraction times its member count), lowest binning ratio first;
        the fractional boundary member is demoted with probability
        equal to the remainder, decided by its ring identifier (a
        uniform hash of its URL) so the choice is deterministic yet
        uncorrelated across nodes.
        """
        total = max(1, split.count_low + split.count_high)
        demote_share = split.demoted_count / total * len(members)
        whole = int(demote_share)
        remainder = demote_share - whole
        ordered = sorted(members, key=lambda pair: pair[0])
        assignments: list[tuple[Channel, int]] = []
        for index, (_ratio, channel) in enumerate(ordered):
            if index < whole:
                level = split.demoted_level
            elif index == whole and remainder > 0:
                draw = (channel.cid.value & 0xFFFFFFFF) / 2**32
                level = (
                    split.demoted_level
                    if draw < remainder
                    else split.kept_level
                )
            else:
                level = split.kept_level
            assignments.append((channel, level))
        return assignments

    @staticmethod
    def _nearest_allowed(channel: Channel, level: int) -> int:
        """Snap a desired level onto the channel's allowed set."""
        allowed = channel.allowed_levels()  # one level, or all of 0..K
        if allowed[0] <= level <= allowed[-1]:
            return level
        return min(allowed, key=lambda candidate: abs(candidate - level))

    def _problem_inputs(
        self,
        local: list[Channel],
        orphans: list[Channel],
        remote: ClusterSummary,
    ) -> ProblemInputs:
        tau = self.config.polling_interval
        local_subs = sum(channel.stats.subscribers for channel in local)
        orphan_subs = sum(channel.stats.subscribers for channel in orphans)
        counts, subscribers, _, _ = remote.sums()
        slack_count, slack_subs = counts[-1], subscribers[-1]
        total_subs = (
            local_subs
            + orphan_subs
            + remote.total_subscribers()
            + slack_subs
        )
        # Orphans poll owner-only: one poll per tau each, latency tau/2.
        orphan_load = len(orphans) + slack_count
        orphan_latency = (orphan_subs + slack_subs) * tau / 2.0
        return ProblemInputs(
            total_subscriptions=float(total_subs),
            orphan_load=float(orphan_load),
            orphan_latency=float(orphan_latency),
        )

    # ------------------------------------------------------------------
    # maintenance phase (§3.3)
    # ------------------------------------------------------------------
    def run_maintenance(self, now: float) -> list[MaintenanceMsg]:
        """Advance each managed channel one step toward its target.

        Returns the maintenance messages to flood through each
        channel's wedge (the caller routes them along the DAG).  The
        manager's own polling task follows the new level immediately.
        """
        outgoing: list[MaintenanceMsg] = []
        for channel in self.managed.values():
            new_level = self.controller.step(channel.url, channel.level)
            if new_level == channel.level and channel.level == channel.max_level:
                # Nothing to announce: owner-only polling, no wedge.
                self.scheduler.start(channel.url, channel.level, now)
                continue
            channel.level = new_level
            channel.clamp_level()
            self.scheduler.start(channel.url, channel.level, now)
            outgoing.append(
                MaintenanceMsg(
                    url=channel.url,
                    level=channel.level,
                    factors=channel.stats.factors(),
                    row=channel.level,
                )
            )
        return outgoing

    def handle_maintenance(self, msg: MaintenanceMsg, cid: NodeId, now: float) -> None:
        """Apply a level announcement received through the wedge DAG."""
        my_prefix = self.node_id.shared_prefix_len(cid, self.config.base)
        if my_prefix >= msg.level:
            self.scheduler.start(msg.url, msg.level, now)
        else:
            self.scheduler.stop(msg.url)

    # ------------------------------------------------------------------
    # polling & update detection (§3.4)
    # ------------------------------------------------------------------
    def execute_poll(
        self, task: PollTask, fetched: FetchResult, now: float
    ) -> DiffMsg | None:
        """Process one poll result; return a diff message if fresh.

        The difference engine isolates core content first, so volatile
        churn (timestamps, ads) produces no diff.  The caller floods a
        returned :class:`DiffMsg` through the wedge and to the manager.
        """
        self.polls_issued += 1
        task.advance()
        task.record_success()
        if 0 < fetched.server_version <= task.content.version:
            # Conditional GET: parsed, this could only come out as the
            # cached core lines or as a stale copy of older ones (a
            # lagging server cache) — nothing to report either way.
            return None
        new_lines = tuple(self.extractor.core_lines(fetched.document))
        if not task.content.lines and task.content.version == 0:
            # First fetch: prime the cache silently; there is nothing
            # to compare against, hence no update to report.
            task.content.replace(fetched.server_version or 1, new_lines)
            return None
        if new_lines == task.content.lines:
            return None
        base_version = task.content.version
        new_version = fetched.server_version or base_version + 1
        # A fresh Diff per call: its patch memo belongs to one message.
        delta = Diff(
            base_version=base_version,
            new_version=new_version,
            hunks=_hunks(task.content.lines, new_lines),
        )
        task.content.replace(new_version, new_lines)
        if delta.is_empty:
            return None
        self.diffs_sent += 1
        return DiffMsg(
            url=fetched.url,
            version=fetched.server_version,
            base_version=base_version,
            diff=delta,
            content_size=fetched.size,
            detected_at=now,
            needs_version=fetched.server_version == 0,
            content_hash=_content_hash(new_lines),
        )

    def handle_diff(self, msg: DiffMsg, now: float) -> DetectionEvent | None:
        """Apply a diff received from a wedge peer (or self-detected).

        On the manager this assigns/validates the version, dedups
        concurrent detections, updates the factor estimators and
        notifies subscribers; it returns a :class:`DetectionEvent` for
        fresh updates.  On plain wedge members it patches the local
        cache so the same update is not re-reported.
        """
        self.diffs_received += 1
        delta: Diff = msg.diff  # type: ignore[assignment]
        channel = self.managed.get(msg.url)
        if channel is None:
            self._apply_peer_diff(msg, delta)
            return None
        clock = self.clocks[msg.url]
        if msg.needs_version:
            # No server timestamps: the owner assigns versions, and
            # dedups by comparing the diff's *resulting content* with
            # the latest version it accepted — a lagging wedge member
            # re-detecting the same change hashes identically, while a
            # genuinely fresh change always differs (§3.4).
            if self.latest_hash.get(msg.url) == msg.content_hash:
                self.redundant_diffs += 1
                return None
            version = clock.assign_next()
        else:
            if not clock.observe_timestamp(msg.version):
                self.redundant_diffs += 1
                return None
            version = msg.version
        self.latest_hash[msg.url] = msg.content_hash
        channel.stats.record_update(now, msg.content_size)
        subscribers = self.registry.subscribers(msg.url)
        if self.notifier is not None and subscribers:
            self.notifier(msg.url, subscribers, delta, now)
        self._apply_peer_diff(msg, delta, force_version=version)
        return DetectionEvent(
            url=msg.url,
            version=version,
            detected_at=msg.detected_at,
            published_at=None,
            subscribers=len(subscribers),
            diff_lines=delta.changed_lines(),
        )

    def _apply_peer_diff(
        self, msg: DiffMsg, delta: Diff, force_version: int | None = None
    ) -> None:
        """Patch the local poll cache with a peer's diff if it fits.

        A base-version mismatch (we lag more than one update behind)
        leaves the cache untouched: the next poll repairs it with a
        full fetch, and the manager's dedup absorbs the redundant diff
        we may emit meanwhile — exactly the paper's failure handling.
        The patch itself is computed once per distinct base across the
        wedge (:func:`~repro.diffengine.delta.apply_once`).
        """
        task = self.scheduler.tasks.get(msg.url)
        if task is None:
            return
        incoming = force_version or msg.version or task.content.version + 1
        if task.content.version == msg.base_version and (
            incoming > task.content.version or msg.needs_version
        ):
            patched = apply_once(task.content.lines, delta)
            if patched is not None:
                task.content.replace(
                    max(incoming, task.content.version + 1), patched
                )

    # ------------------------------------------------------------------
    def polling_level(self, url: str) -> int | None:
        """The level this node polls ``url`` at (None if not polling)."""
        task = self.scheduler.tasks.get(url)
        return task.level if task is not None else None
