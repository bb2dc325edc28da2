"""The Corona cloud, assembled end to end.

:class:`CoronaSystem` glues the overlay, the protocol nodes, the
decentralized aggregator and a content fetcher into one synchronously
driven system — the facade used by the examples, the integration tests
and the deployment simulator's inner loop.

Time is explicit: callers invoke :meth:`poll_due` and
:meth:`run_maintenance_round` with monotonically increasing ``now``
values (the discrete-event simulator does this with fine granularity;
the examples use coarse steps).
"""

from __future__ import annotations

import dataclasses
import logging
import random
from collections.abc import Callable, Iterable
from heapq import heappop, heappush
from operator import itemgetter

from repro.core.channel import Channel
from repro.core.config import REPLICAS, CoronaConfig
from repro.core.dissemination import deliver_plan, wedge_recipients
from repro.core.maintenance import DiffMsg, MaintenanceMsg
from repro.core.node import CoronaNode, DetectionEvent, FetchResult
from repro.diffengine.differ import Diff
from repro.faults import FaultPlane
from repro.honeycomb.aggregation import DecentralizedAggregator
from repro.honeycomb.solver import SolverWork
from repro.obs import NULL_SPAN, Observability, get_logger
from repro.obs.log import RateLimited
from repro.obs.metrics import CounterStruct
from repro.overlay.hashing import channel_id
from repro.overlay.network import OverlayNetwork
from repro.overlay.nodeid import NodeId


_log = get_logger(__name__)

#: Poll-calendar entries ``(next_poll, rank, seq, node, task)`` sort
#: into a batch's visiting order by owner rank, then task seq.
_VISIT_ORDER = itemgetter(1, 2)


class Fetcher:
    """Interface the content substrate implements.

    ``fetch`` performs one HTTP poll — conditional on ``have_version``,
    the version the poller holds: a server about to serve that version
    or an older one may answer without a document; ``published_at``
    exposes the ground-truth publication time of the current version
    for metrics (simulation only — the protocol never reads it).
    """

    def fetch(
        self, url: str, now: float, source: str = "corona",
        have_version: int = 0,
    ) -> FetchResult:  # pragma: no cover
        raise NotImplementedError

    def published_at(self, url: str) -> float | None:  # pragma: no cover
        return None


class SystemCounters(CounterStruct):
    """Aggregate counters across the cloud, for tests and benches.

    ``detections``/``redundant_diffs`` register under prefixed names:
    the scenario runner owns the unqualified ``detections`` semantics
    (fresh-content detections with ground-truth timing), which differ
    from this struct's raw dissemination count.
    """

    SERIES = (
        ("polls", "polls", "cooperative polls issued by the cloud"),
        ("diff_messages", "diff_messages", "diff messages disseminated"),
        (
            "maintenance_messages",
            "maintenance_messages",
            "maintenance flood messages sent",
        ),
        (
            "detections",
            "system_detections",
            "update detections disseminated by the cloud",
        ),
        (
            "redundant_diffs",
            "system_redundant_diffs",
            "duplicate diff deliveries suppressed by managers",
        ),
        ("joins", "joins", "nodes spliced into the overlay"),
        ("crashes", "crashes", "node crashes processed"),
        (
            "recoveries",
            "recoveries",
            "crashed nodes re-admitted through the join path",
        ),
        (
            "rehomed_channels",
            "rehomed_channels",
            "channels re-homed after joins and crashes",
        ),
    )


class CoronaSystem:
    """A complete Corona deployment driven in synchronous steps."""

    def __init__(
        self,
        n_nodes: int,
        config: CoronaConfig,
        fetcher: Fetcher,
        seed: int = 0,
        notifier: Callable[[str, Iterable[str], Diff, float], None] | None = None,
        faults: FaultPlane | None = None,
        obs: Observability | None = None,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.config = config
        self.fetcher = fetcher
        #: Subscriber-notification callback handed to every node, the
        #: initial population and later joiners alike.
        self.notifier = notifier
        #: Observability plane: the metrics registry backing every
        #: counter below plus the (default-disabled) phase tracer.
        #: Never consulted for protocol decisions — enabling or
        #: disabling it leaves runs byte-identical.
        self.obs = obs if obs is not None else Observability.off()
        #: Message-delivery fault model every dissemination hop, wedge
        #: flood and server poll is routed through.  ``None`` (and an
        #: inactive plane) is bit-identical to perfect delivery — the
        #: fault paths below are all gated on the plane being active.
        self.faults = faults
        #: Consecutive maintenance rounds in which a manager's floods
        #: all died (unresponsiveness evidence, fault runs only).
        self._manager_silent_rounds: dict[NodeId, int] = {}
        #: Crashed nodes eligible for recovery, in crash order: the
        #: (id, address) pairs :meth:`recover_nodes` re-admits.  The
        #: address is the identity — rejoining under it reproduces the
        #: original node id, so re-homed channels move back.
        self._crashed_pool: list[tuple[NodeId, str]] = []
        #: Managers declared dead only because a partition silenced
        #: them, keyed by partition name: :meth:`heal_partition`
        #: re-admits them so partition scenarios conserve population.
        self._partition_suspended: dict[str, list[tuple[NodeId, str]]] = {}
        #: Channels whose digest may have moved past a wedge member
        #: since the last clean repair pass: marked on every content
        #: change and manager move (fault runs only), cleared per url
        #: by a pass that shipped every needed repair.  The repair
        #: scan walks only these, making anti-entropy O(change) —
        #: a url outside the set provably has no lagging member, so
        #: skipping it performs zero transmit draws, exactly like the
        #: full scan that found nothing.
        self._repair_dirty_urls: set[str] = set()
        #: Cloud-wide solver counters, shared by every node's solver.
        self.solver_work = SolverWork(self.obs.registry)
        #: The poll calendar: one heap booking every node's poll tasks
        #: (see :class:`~repro.core.polling.PollScheduler`), and the
        #: rank :meth:`_new_node` gives the next node it builds — ranks
        #: follow ``self.nodes`` insertion order, rejoins included.
        self._poll_calendar: list[tuple] = []
        self._node_ranks = 0
        self.overlay = OverlayNetwork.build(
            n_nodes,
            base=config.base,
            leaf_size=REPLICAS + 1,
        )
        self.nodes: dict[NodeId, CoronaNode] = {
            node_id: self._new_node(node_id, rng_seed=seed)
            for node_id in self.overlay.node_ids()
        }
        self.aggregator = DecentralizedAggregator.for_overlay(
            self.overlay,
            bins=config.tradeoff_bins,
            registry=self.obs.registry,
        )
        self.managers: dict[str, NodeId] = {}
        self.counters = SystemCounters(self.obs.registry)
        #: Debug-noise throttle: per-event-key budget so fault storms
        #: (thousands of drops) cannot drown a ``-vv`` run.
        self._limited_log = RateLimited(_log, budget=8)
        self.detections: list[DetectionEvent] = []
        self._join_counter = 0
        #: Anchor index: per managed channel, the cached channel id and
        #: the current manager's ``(prefix, -ring distance)`` anchor
        #: key.  A join then re-homes exactly the channels a newcomer's
        #: key beats — one O(1) comparison per channel — instead of
        #: recomputing every channel's anchor over the population.
        self._channel_cids: dict[str, NodeId] = {}
        self._anchor_index: dict[str, tuple[int, int]] = {}
        # Victim selection for crash_nodes when no rng is supplied:
        # seeded from the system seed (string seeding hashes via
        # SHA-512, so it is stable across processes) and advancing
        # across calls, so successive crash waves draw independently.
        self._churn_rng = random.Random(f"corona-churn-{seed}")

    def _new_node(self, node_id: NodeId, rng_seed: int) -> CoronaNode:
        """The one place a cloud member is built, whenever it joins."""
        rank = self._node_ranks
        self._node_ranks += 1
        return CoronaNode(
            node_id,
            self.config,
            rng_seed=rng_seed,
            notifier=self.notifier,
            solver_work=self.solver_work,
            on_factors_changed=self._mark_owner_dirty,
            poll_calendar=self._poll_calendar,
            poll_rank=rank,
        )

    def _mark_owner_dirty(self, node_id: NodeId) -> None:
        """Structural dirty hook: a node's channel factors moved.

        Wired into every :class:`CoronaNode` as ``on_factors_changed``
        and fired by the stats objects themselves, so any mutation
        path — including ones added after this facade — lands in the
        aggregator's dirty-local set without a per-call-site
        convention.  Guarded because adoption during construction can
        fire before the aggregator exists (everyone starts dirty
        anyway).
        """
        aggregator = getattr(self, "aggregator", None)
        if aggregator is not None:
            aggregator.mark_local_dirty(node_id)

    # ------------------------------------------------------------------
    # subscriptions
    # ------------------------------------------------------------------
    def subscribe(self, url: str, client: str, now: float = 0.0) -> NodeId:
        """Route a subscription to the channel's manager; returns it.

        The manager's subscriber-count update dirties it structurally
        (see :meth:`_mark_owner_dirty`) — no explicit mark needed.
        """
        manager_id = self._manager_for(url, now)
        self.nodes[manager_id].subscribe(url, client, now)
        return manager_id

    def unsubscribe(self, url: str, client: str) -> bool:
        """Remove one subscription (no-op on unknown channels)."""
        manager_id = self.managers.get(url)
        if manager_id is None:
            return False
        return self.nodes[manager_id].unsubscribe(url, client)

    def _cid(self, url: str) -> NodeId:
        cid = self._channel_cids.get(url)
        if cid is None:
            cid = channel_id(url)
            self._channel_cids[url] = cid
        return cid

    def _anchor_key(self, node_id: NodeId, cid: NodeId) -> tuple[int, int]:
        """The ordering :meth:`OverlayNetwork.anchor_of` maximizes."""
        return self.overlay.anchor_key(node_id, cid)

    def _manager_for(self, url: str, now: float) -> NodeId:
        manager_id = self.managers.get(url)
        if manager_id is not None:
            return manager_id
        cid = self._cid(url)
        anchor = self.overlay.anchor_of(cid)
        prefix = anchor.shared_prefix_len(cid, self.config.base)
        self.nodes[anchor].adopt_channel(
            url,
            max_level=self.overlay.base_level(),
            anchor_prefix=prefix,
            now=now,
        )
        self.managers[url] = anchor
        self._anchor_index[url] = self._anchor_key(anchor, cid)
        return anchor

    # ------------------------------------------------------------------
    # churn (§3.3)
    # ------------------------------------------------------------------
    def add_node(self, address: str, now: float = 0.0) -> NodeId:
        """Join a new node; channels it now anchors move to it.

        The join protocol gives the newcomer routing state; channels
        whose identifier it matches best become its responsibility,
        with subscription state transferred from the previous manager
        ("a node that becomes a new owner receives the state from
        other owners of the channel", §3.3).  Returns the new node id.

        A single join is a wave of one; see :meth:`join_nodes` for the
        batch entry point churn timelines use.
        """
        return self._join_wave([address], now=now)[0]

    def _join_wave(self, addresses: list[str], now: float) -> list[NodeId]:
        """Join a wave of nodes with one aggregation repair.

        The newcomers are spliced into the aggregator (survivors keep
        every summary of an unchanged prefix region), and the anchor
        index re-homes exactly the channels some newcomer now anchors.
        """
        joined: list[NodeId] = []
        for address in addresses:
            pastry_node = self.overlay.add_node(address)
            self.nodes[pastry_node.node_id] = self._new_node(
                pastry_node.node_id, rng_seed=len(self.nodes)
            )
            joined.append(pastry_node.node_id)
        self.aggregator.add_nodes(joined, rows=self.overlay.aggregation_rows())
        self._rehome_after_join(joined, now)
        self.counters.joins += len(joined)
        return joined

    def _rehome_after_join(self, joined: list[NodeId], now: float) -> None:
        """Move channels whose anchor became one of ``joined``.

        The current manager's cached anchor key is compared against
        each newcomer's — O(joined) per channel, no population scan.
        """
        for url in list(self.managers):
            cid = self._cid(url)
            best_key = self._anchor_index[url]
            winner: NodeId | None = None
            for node_id in joined:
                key = self._anchor_key(node_id, cid)
                if key > best_key:
                    best_key, winner = key, node_id
            if winner is None:
                continue
            self._transfer_channel(url, cid, winner, now)
            self.counters.rehomed_channels += 1

    def _transfer_channel(
        self, url: str, cid: NodeId, new_manager: NodeId, now: float
    ) -> None:
        """Hand ``url`` from its current manager to ``new_manager``.

        Subscription state moves exactly once: the previous manager
        exports and erases its registry entry, the new one imports it.
        The channel record (level, factor estimators) moves with it.
        """
        previous_id = self.managers[url]
        previous = self.nodes[previous_id]
        state = previous.registry.export_state([url])
        channel = previous.managed.pop(url)
        previous.clocks.pop(url, None)
        previous.registry.erase(url)
        node = self.nodes[new_manager]
        prefix = new_manager.shared_prefix_len(cid, self.config.base)
        adopted = node.adopt_channel(
            url,
            max_level=self.overlay.base_level(),
            anchor_prefix=prefix,
            now=now,
        )
        adopted.level = channel.level
        adopted.clamp_level()
        # The estimators travel with the channel; Channel's stats hook
        # rebinds their change notifications to the new manager.
        adopted.stats = channel.stats
        node.registry.import_state(state)
        adopted.stats.subscribers = node.registry.count(url)
        self.managers[url] = new_manager
        self._anchor_index[url] = self._anchor_key(new_manager, cid)
        # Both ends of the transfer now own a different channel set
        # (a pure membership change no stats mutation announces).
        self.aggregator.mark_local_dirty(previous_id)
        self.aggregator.mark_local_dirty(new_manager)
        if self.faults is not None:
            # The digest source moved: members may lag the *new*
            # manager's cache even though no content changed.
            self._repair_dirty_urls.add(url)

    def fail_node(self, node_id: NodeId, now: float = 0.0) -> int:
        """Fail one node; re-home its channels with their subscriptions.

        Models the paper's ownership transfer: "a node that becomes a
        new owner receives the state from other owners of the channel".
        The synchronous container sources the state from the failing
        node's registry, which stands in for the surviving replicas —
        a replica set's copies are identical by construction here, so
        reading the dying node's registry is observationally equivalent
        to fetching the same state from its ``f`` ring neighbours, and
        subscriber counts survive manager crashes intact (tested).
        Returns the number of channels re-homed.
        """
        return self._fail_wave([node_id], now=now)

    def _fail_wave(self, victims: list[NodeId], now: float) -> int:
        """Fail a wave of nodes with one overlay/aggregation repair.

        Subscription state is exported before the wave dies; orphaned
        channels are re-homed to their post-wave anchors, so a channel
        whose successive anchors both die in the same wave transfers
        once, not twice.  Returns the number of channels re-homed.
        """
        for node_id in victims:
            if node_id not in self.nodes:
                raise KeyError(f"unknown node {node_id!r}")
        orphaned: list[tuple[str, set[str]]] = []
        for node_id in victims:
            dying = self.nodes[node_id]
            state = dying.registry.export_state()
            orphaned.extend(
                (url, state.get(url, set())) for url in dying.managed
            )
            self._crashed_pool.append(
                (node_id, self.overlay.nodes[node_id].address)
            )
        self.overlay.remove_nodes(victims)
        for node_id in victims:
            del self.nodes[node_id]
        self.aggregator.remove_nodes(
            victims, rows=self.overlay.aggregation_rows()
        )
        rehomed = 0
        for url, subscribers in orphaned:
            self._adopt_orphan(url, subscribers, now)
            rehomed += 1
        self.counters.crashes += len(victims)
        self.counters.rehomed_channels += rehomed
        return rehomed

    def _adopt_orphan(self, url: str, subscribers: set[str], now: float) -> None:
        """Re-home one orphaned channel onto its current anchor."""
        cid = self._cid(url)
        anchor = self.overlay.anchor_of(cid)
        prefix = anchor.shared_prefix_len(cid, self.config.base)
        node = self.nodes[anchor]
        channel = node.adopt_channel(
            url,
            max_level=self.overlay.base_level(),
            anchor_prefix=prefix,
            now=now,
        )
        node.registry.import_state({url: set(subscribers)})
        channel.stats.subscribers = node.registry.count(url)
        self.managers[url] = anchor
        self._anchor_index[url] = self._anchor_key(anchor, cid)
        self.aggregator.mark_local_dirty(anchor)
        if self.faults is not None:
            # Re-homed digest source (see _transfer_channel).
            self._repair_dirty_urls.add(url)

    def manager_nodes(self) -> set[NodeId]:
        """Nodes currently managing at least one channel."""
        return set(self.managers.values())

    def join_nodes(self, count: int, now: float = 0.0) -> list[NodeId]:
        """Join ``count`` fresh nodes; returns their ids in join order.

        Addresses are minted from a monotonic counter so repeated waves
        (scenario churn timelines) never collide.  The whole wave is
        spliced into the aggregator with a single repair pass.
        """
        if count < 0:
            raise ValueError("join count cannot be negative")
        addresses: list[str] = []
        for _ in range(count):
            self._join_counter += 1
            addresses.append(f"joiner-{self._join_counter}")
        if not addresses:
            return []
        with self.obs.tracer.span(
            "churn.join", sim_time=now, category="churn"
        ) as span:
            joined = self._join_wave(addresses, now=now)
            if span is not NULL_SPAN:
                span.set(joined=len(joined), n_nodes=len(self.nodes))
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug(
                "join wave: +%d nodes (population %d) at t=%.0f",
                len(joined),
                len(self.nodes),
                now,
            )
        return joined

    def crash_nodes(
        self,
        count: int,
        now: float = 0.0,
        rng: random.Random | None = None,
        target: str = "any",
    ) -> list[NodeId]:
        """Fail ``count`` nodes picked uniformly from a target pool.

        ``target`` selects the pool: ``"any"`` (whole population),
        ``"managers"`` (nodes owning channels — the worst-case churn
        the paper's §3.3 state transfer must absorb) or
        ``"bystanders"`` (nodes owning nothing — pure overlay churn).
        The selection is drawn from ``rng`` when given (deterministic
        under a seeded generator — scenario replays depend on it),
        otherwise from a per-system generator seeded at construction,
        so repeated waves draw independent victims yet the whole run
        stays reproducible.  At least one node always survives.
        Returns the victims in failure order.
        """
        if count < 0:
            raise ValueError("crash count cannot be negative")
        if target not in ("any", "managers", "bystanders"):
            raise ValueError(
                "target must be 'any', 'managers' or 'bystanders'"
            )
        generator = rng if rng is not None else self._churn_rng
        managers = self.manager_nodes()
        pool = list(self.nodes)
        if target == "managers":
            pool = [node_id for node_id in pool if node_id in managers]
        elif target == "bystanders":
            pool = [node_id for node_id in pool if node_id not in managers]
        count = min(count, len(pool), len(self.nodes) - 1)
        victims = generator.sample(pool, count) if count else []
        if victims:
            # One wave ⇒ one overlay repair and one aggregation splice,
            # however many victims.
            with self.obs.tracer.span(
                "churn.crash", sim_time=now, category="churn"
            ) as span:
                rehomed = self._fail_wave(victims, now=now)
                if span is not NULL_SPAN:
                    span.set(
                        crashed=len(victims),
                        rehomed=rehomed,
                        n_nodes=len(self.nodes),
                    )
            if _log.isEnabledFor(logging.DEBUG):
                _log.debug(
                    "crash wave: -%d nodes, %d channels re-homed "
                    "(population %d) at t=%.0f",
                    len(victims),
                    rehomed,
                    len(self.nodes),
                    now,
                )
        return victims

    # ------------------------------------------------------------------
    # recovery (rejoin & resync)
    # ------------------------------------------------------------------
    def recover_nodes(self, count: int, now: float = 0.0) -> list[NodeId]:
        """Re-admit up to ``count`` crashed nodes, oldest crash first.

        Each node recovers under its original address — hence its
        original identifier — through the incremental join path, so
        the channels it anchors re-home back to it with subscription
        state transferred from the interim managers
        (:meth:`_rehome_after_join`).  Its poll caches restart empty
        and prime on first poll (bootstrap, not staleness); anything
        its wedge memberships missed converges through the
        anti-entropy repair pass within a bounded number of
        maintenance rounds.  Nodes suspended behind a still-open
        partition are not eligible — :meth:`heal_partition` re-admits
        those.  Returns the recovered ids in rejoin order (fewer than
        ``count`` when the crash pool is smaller).
        """
        if count < 0:
            raise ValueError("recover count cannot be negative")
        entries = self._crashed_pool[:count]
        del self._crashed_pool[: len(entries)]
        return self._recover_wave(entries, now=now)

    def _recover_wave(
        self, entries: list[tuple[NodeId, str]], now: float
    ) -> list[NodeId]:
        """Rejoin a wave of previously crashed nodes (one splice)."""
        if not entries:
            return []
        with self.obs.tracer.span(
            "churn.recover", sim_time=now, category="churn"
        ) as span:
            rejoined = self._join_wave(
                [address for _, address in entries], now=now
            )
            self.counters.recoveries += len(rejoined)
            if span is not NULL_SPAN:
                span.set(recovered=len(rejoined), n_nodes=len(self.nodes))
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug(
                "recovery wave: +%d nodes rejoined (population %d) "
                "at t=%.0f",
                len(rejoined),
                len(self.nodes),
                now,
            )
        return rejoined

    def heal_partition(self, name: str, now: float = 0.0) -> list[NodeId]:
        """Close partition ``name`` and restore its suspended managers.

        Managers the failover detector declared dead *because the
        partition silenced them* were not crashes — the nodes kept
        running on the island side.  Healing re-admits them through
        the recovery path, so partition scenarios conserve population.
        Unknown or already-healed names only drain any leftover
        suspensions.
        Returns the re-admitted node ids.
        """
        plane = self.faults
        if plane is not None and name in plane.partitions:
            plane.heal(name)
        suspended = self._partition_suspended.pop(name, [])
        return self._recover_wave(suspended, now=now)

    # ------------------------------------------------------------------
    # protocol rounds
    # ------------------------------------------------------------------
    def _transmit_hook(self):
        """The per-hop delivery decision, or None for perfect links."""
        plane = self.faults
        if plane is None or not plane.active:
            return None
        return plane.transmit

    def run_maintenance_round(self, now: float) -> int:
        """One full optimization + maintenance + aggregation round.

        Returns the number of maintenance messages sent.  Aggregation
        runs first on the *previous* round's summaries (one-interval
        staleness, §3.3's piggy-backing), then every manager optimizes
        and steps levels, and the resulting announcements are flooded
        through the wedges.

        On fault runs the round additionally (a) tallies per-manager
        delivery failures and declares managers whose floods died for
        ``faults.manager_failure_rounds`` consecutive rounds dead
        (existing crash-repair path), and (b) runs the anti-entropy
        repair pass piggy-backed on the round, so wedge members that
        missed a diff converge within one maintenance interval.
        """
        tracer = self.obs.tracer
        if self.faults is not None:
            # Link-table clock: refill token buckets and drain bounded
            # queues up to this round's sim time (no-op without one).
            self.faults.observe_time(now)
        with tracer.span(
            "aggregation", sim_time=now, category="phase"
        ) as span:
            # Only nodes whose channel factors moved since the last
            # phase (the facade marks them dirty) rebuild their local.
            self.aggregator.run_phase(
                lambda node_id: self.nodes[node_id].local_summary()
            )
            if span is not NULL_SPAN:
                work = self.aggregator.work
                span.set(
                    summaries_rebuilt=work.summaries_rebuilt,
                    nodes_dirtied=work.nodes_dirtied,
                )
        sent = 0
        n_nodes = len(self.overlay)
        plane = self.faults
        # Delivery stats are collected whenever a plane is installed
        # (cheap: a few dict entries per announcing manager) so the
        # round in which the *first* drop happens already records its
        # own silence evidence — gating collection on the latch would
        # discard that round and delay failover by one.
        track_faults = plane is not None
        flood_stats: dict[NodeId, list[int]] = {}
        # Round-scoped shared-solution cache: managers whose combined
        # instances collide this round solve once.
        solve_cache: dict = {}
        with tracer.span(
            "optimize", sim_time=now, category="phase"
        ) as span:
            solved_before = self.solver_work.problems_solved
            for node_id, node in self.nodes.items():
                if not node.managed:
                    continue
                remote = self.aggregator.states[node_id].best_remote()
                node.run_optimization(
                    remote, n_nodes, solve_cache=solve_cache
                )
                for msg in node.run_maintenance(now):
                    attempted, reached = self._flood_maintenance(
                        node_id, msg, now
                    )
                    sent += attempted
                    if track_faults:
                        stats = flood_stats.setdefault(node_id, [0, 0])
                        stats[0] += attempted
                        stats[1] += reached
            if span is not NULL_SPAN:
                span.set(
                    maintenance_messages=sent,
                    problems_solved=(
                        self.solver_work.problems_solved - solved_before
                    ),
                )
        self.counters.maintenance_messages += sent
        # Re-read the latch: the very first drop may have happened in
        # this round's floods, and its victims should not wait a full
        # extra round for repair.
        if plane is not None and plane.ever_active:
            with tracer.span(
                "repair", sim_time=now, category="phase"
            ) as span:
                self._detect_unresponsive_managers(flood_stats, now)
                repaired = self._run_repair_pass(now)
                if span is not NULL_SPAN:
                    span.set(
                        repaired=repaired,
                        dirty_urls=len(self._repair_dirty_urls),
                    )
        return sent

    def _flood_maintenance(
        self, manager_id: NodeId, msg: MaintenanceMsg, now: float
    ) -> tuple[int, int]:
        """Flood one announcement; returns (hops sent, hops reached)."""
        cid = channel_id(msg.url)
        plan = wedge_recipients(
            manager_id,
            self.overlay.routing_tables(),
            cid,
            msg.level,
            self.config.base,
        )
        deliveries, attempted, _unreached, _delay_to = deliver_plan(
            plan, self._transmit_hook()
        )
        for recipient, copies in deliveries:
            for _ in range(copies):
                self.nodes[recipient].handle_maintenance(msg, cid, now)
        # Nodes polling at a *deeper* (now abandoned) level must also
        # hear about raises; the wedge at the lower level is a superset
        # of the old one, so the plan above already covers lowers, and
        # raises reach the shrinking wedge because it is a subset.
        return attempted, len(deliveries)

    def _detect_unresponsive_managers(
        self, flood_stats: dict[NodeId, list[int]], now: float
    ) -> None:
        """Declare managers whose floods keep dying dead (fault runs).

        A manager that attempted deliveries this round and reached
        nobody is unresponsive evidence (a partitioned or silently
        dead node looks exactly like this from the cloud's side);
        after ``manager_failure_rounds`` consecutive silent rounds the
        cloud gives up on it and triggers the *existing* crash-repair
        path — §3.3 ownership transfer re-homes its channels with
        subscription state onto the surviving anchors.
        """
        plane = self.faults
        assert plane is not None
        victims: list[NodeId] = []
        for manager_id in self.manager_nodes():
            attempted, reached = flood_stats.get(manager_id, (0, 0))
            if attempted == 0:
                continue  # nothing flooded: no evidence either way
            if reached == 0:
                count = self._manager_silent_rounds.get(manager_id, 0) + 1
                self._manager_silent_rounds[manager_id] = count
                if count >= plane.manager_failure_rounds:
                    victims.append(manager_id)
            else:
                self._manager_silent_rounds.pop(manager_id, None)
        victims = victims[: max(0, len(self.nodes) - 1)]
        if not victims:
            return
        for manager_id in victims:
            self._manager_silent_rounds.pop(manager_id, None)
            self._limited_log.info(
                "failover",
                "manager %s unresponsive for %d rounds, re-homing "
                "its channels (t=%.0f)",
                manager_id.hex()[:8],
                plane.manager_failure_rounds,
                now,
            )
        # A victim silenced by an open partition is suspended, not
        # crashed: the node keeps running on the island side, so the
        # matching heal re-admits it (population conservation).
        island_of: dict[NodeId, str] = {}
        for name, island in plane.partitions.items():
            for manager_id in victims:
                if manager_id in island.members:
                    island_of.setdefault(manager_id, name)
        pool_mark = len(self._crashed_pool)
        self._fail_wave(victims, now=now)
        if island_of:
            kept: list[tuple[NodeId, str]] = []
            for entry in self._crashed_pool[pool_mark:]:
                name = island_of.get(entry[0])
                if name is None:
                    kept.append(entry)
                else:
                    self._partition_suspended.setdefault(
                        name, []
                    ).append(entry)
            self._crashed_pool[pool_mark:] = kept
        plane.counters.manager_failovers += len(victims)

    def _run_repair_pass(self, now: float) -> int:
        """Digest-based anti-entropy repair, piggy-backed on the round.

        Each manager compares its latest accepted content against its
        wedge members' poll caches and re-ships the channel state to
        any member that lags — so a node whose diff was lost (even
        after the retransmit budget) converges one maintenance
        interval after the last loss, preserving the §3.3 one-interval
        staleness bound under message loss.  Repair messages cross the
        same fault plane; one lost tonight is retried next round.
        Returns the number of members repaired.
        """
        plane = self.faults
        if plane is None or not plane.ever_active:
            return 0
        dirty = self._repair_dirty_urls
        if not dirty:
            # Converged and nothing has moved since: every channel's
            # digest is where the last clean pass left it, so the scan
            # would be pure wasted work until new change arrives.
            plane.counters.repair_urls_skipped += len(self.managers)
            return 0
        transmit = plane.transmit
        # One pass over the cloud: who polls the dirty channels
        # (plan-order stable — ``self.nodes`` iteration order, exactly
        # the order the full scan visited members in).
        polling: dict[str, list[tuple[NodeId, object]]] = {}
        for node_id, node in self.nodes.items():
            for url, task in node.scheduler.tasks.items():
                if url in dirty:
                    polling.setdefault(url, []).append((node_id, task))
        repaired = 0
        skipped = 0
        for url, manager_id in self.managers.items():
            if url not in dirty:
                # No content change or manager move since this url's
                # last clean pass ⇒ no member can be behind; the full
                # scan would draw no randomness here either.
                skipped += 1
                continue
            manager = self.nodes[manager_id]
            source = manager.scheduler.tasks.get(url)
            if source is None or not source.content.lines:
                continue  # the manager holds nothing to repair from
            digest_version = source.content.version
            digest_lines = source.content.lines
            lost = 0
            for member_id, task in polling.get(url, ()):
                if member_id == manager_id:
                    continue
                if not task.content.lines and task.content.version == 0:
                    # Freshly recruited, cache never primed: its first
                    # poll primes it silently — that is bootstrap, not
                    # staleness, and needs no repair traffic.
                    continue
                # Behind = the member's cache *content* diverges and
                # the manager's version is not older.  Pure version
                # skew over identical content (a member recruited
                # late) is not staleness and is left alone; a member
                # strictly ahead (it out-polled a lagging manager) is
                # never dragged backwards — the manager's own poll
                # repairs the manager instead.
                behind = (
                    task.content.lines != digest_lines
                    and task.content.version <= digest_version
                )
                if not behind:
                    continue
                if not transmit(manager_id, member_id).delivered:
                    lost += 1
                    continue  # lost repair: next round retries
                task.content.replace(digest_version, digest_lines)
                plane.counters.repair_diffs += 1
                repaired += 1
            if lost == 0:
                # Every lagging member converged (or none was behind):
                # the url is clean until its digest moves again.
                dirty.discard(url)
        plane.counters.repair_urls_skipped += skipped
        if repaired:
            self._limited_log.debug(
                "repair",
                "anti-entropy repaired %d members "
                "(%d channels still dirty, %d clean skipped, t=%.0f)",
                repaired,
                len(dirty),
                skipped,
                now,
            )
        return repaired

    def poll_due(self, now: float) -> list[DetectionEvent]:
        """Execute every poll that has come due across the cloud.

        Diffs produced by detections are flooded to the wedge and the
        manager synchronously (the deployment simulator adds latency).
        Returns the fresh-detection events for metrics.
        """
        fresh: list[DetectionEvent] = []
        plane = self.faults
        if plane is not None:
            plane.observe_time(now)
        faulty = plane is not None and plane.active
        # Load shedding only engages when the per-link table is live
        # *and* some link has queue state (``backpressure`` is pure
        # queue inspection — no randomness, so fault-free byte
        # identity holds trivially).
        links = plane.links if plane is not None else None
        shedding = links is not None and links.active
        polls_before = self.counters.polls
        # Repair bookkeeping runs whenever a plane is installed (even
        # while inactive): a drop in round k lags members behind diffs
        # whose content changes happened in any earlier round, so the
        # dirty set must already know about them.
        track_repair = plane is not None
        # The batch is what the calendar holds due: pop it, dropping
        # the entries of stopped tasks and departed nodes (a rejoined
        # address is a new node object), then visit it in node order
        # and each node's tasks in start order — fetch draws, fault
        # draws and detection order are those of a scan over every
        # node.  Executed tasks are re-booked after the batch, so none
        # runs twice in one batch however far behind it is.
        calendar = self._poll_calendar
        nodes = self.nodes
        due: list[tuple] = []
        while calendar and calendar[0][0] <= now:
            entry = heappop(calendar)
            node = entry[3]
            task = entry[4]
            if (
                nodes.get(node.node_id) is node
                and node.scheduler.tasks.get(task.url) is task
            ):
                due.append(entry)
        due.sort(key=_VISIT_ORDER)
        with self.obs.tracer.span(
            "poll_batch", sim_time=now, category="phase"
        ) as span:
            visiting = None
            shed_node = False
            for _, _, _, node, task in due:
                if node is not visiting:
                    visiting = node
                    node_id = node.node_id
                    # Sampled once per batch per node with a due poll,
                    # just before its first one; a node with nothing
                    # due is not sampled at all (its links' refill and
                    # its hysteresis state wait for its next due poll).
                    shed_node = shedding and links.should_shed_poll(node_id)
                if shed_node:
                    # Sustained outbound queue backpressure: do not
                    # add poll (and consequent diff-flood) load to
                    # a congested link.  The node serves its cached
                    # snapshot — stale by at most the extra τ — and
                    # re-examines the backlog next interval.
                    plane.counters.polls_shed += 1
                    task.record_shed()
                    continue
                if faulty and not plane.poll_attempt(node_id):
                    # Request/response lost (or the server side of
                    # a partition): the poll times out after its
                    # retry budget and the task skips to the next
                    # interval — the channel simply stays stale one
                    # τ longer.
                    task.record_failure()
                    continue
                fetched = self.fetcher.fetch(
                    task.url, now, source=node_id.hex(),
                    have_version=task.content.version,
                )
                self.counters.polls += 1
                version_before = task.content.version
                diff_msg = node.execute_poll(task, fetched, now)
                if (
                    track_repair
                    and task.content.version != version_before
                ):
                    # The poller's cache advanced (prime or fresh
                    # content): this channel's digest/member
                    # relation may have shifted — repair must look
                    # at it again.
                    self._repair_dirty_urls.add(task.url)
                if diff_msg is None:
                    continue
                event = self._disseminate(node_id, diff_msg, now)
                if event is not None:
                    published = self.fetcher.published_at(diff_msg.url)
                    event = dataclasses.replace(
                        event, published_at=published
                    )
                    fresh.append(event)
            if span is not NULL_SPAN:
                span.set(
                    polls=self.counters.polls - polls_before,
                    detections=len(fresh),
                )
        for _, rank, seq, node, task in due:
            heappush(calendar, (task.next_poll, rank, seq, node, task))
        self.detections.extend(fresh)
        self.counters.detections += len(fresh)
        return fresh

    def _disseminate(
        self, detector_id: NodeId, msg: DiffMsg, now: float
    ) -> DetectionEvent | None:
        """Flood a diff through the wedge; deliver to the manager.

        Every hop rides the fault plane: per-hop retransmits within
        the budget, subtree cut-off on relays that never got the
        message, duplicate deliveries exercising the §3.4 dedup.  A
        diff that never reaches the manager produces no detection
        event this time — the manager catches up through its own poll
        or the anti-entropy repair pass.
        """
        messages_before = self.counters.diff_messages
        with self.obs.tracer.span(
            "dissemination", sim_time=now, category="phase"
        ) as span:
            cid = channel_id(msg.url)
            manager_id = self.managers.get(msg.url)
            level = self.nodes[detector_id].polling_level(msg.url)
            plan: list[tuple[NodeId, NodeId, int]] = []
            if level is not None:
                plan = wedge_recipients(
                    detector_id,
                    self.overlay.routing_tables(),
                    cid,
                    level,
                    self.config.base,
                )
            deliveries, attempted, _unreached, delay_to = deliver_plan(
                plan, self._transmit_hook()
            )
            self.counters.diff_messages += attempted
            plan_children = {child for _parent, child, _depth in plan}
            event: DetectionEvent | None = None
            # Cumulative link delay on the path the diff took to the
            # manager (0.0 without a link table — metrics unchanged).
            path_delay = 0.0
            if manager_id is not None:
                path_delay = delay_to.get(manager_id, 0.0)
            for recipient, copies in deliveries:
                if recipient == detector_id:
                    continue
                result: DetectionEvent | None = None
                for _ in range(copies):
                    fresh = self.nodes[recipient].handle_diff(msg, now)
                    if fresh is not None:
                        result = fresh
                if recipient == manager_id:
                    event = result
            if (
                manager_id is not None
                and manager_id != detector_id
                and manager_id not in plan_children
            ):
                # The detector forwards the diff to the manager directly
                # (subscription owners may sit outside the wedge, §3.4).
                self.counters.diff_messages += 1
                copies = 1
                hook = self._transmit_hook()
                if hook is not None:
                    outcome = hook(detector_id, manager_id)
                    copies = outcome.deliveries
                    path_delay = getattr(outcome, "delay", 0.0)
                for _ in range(copies):
                    fresh = self.nodes[manager_id].handle_diff(msg, now)
                    if fresh is not None:
                        event = fresh
            if manager_id == detector_id:
                event = self.nodes[manager_id].handle_diff(msg, now)
                path_delay = 0.0
            if event is not None:
                # path_delay participates in the detection-delay metric
                # (0.0 without a link table, byte-identical either
                # way); detector/fanout are provenance-only.
                event = dataclasses.replace(
                    event,
                    path_delay=path_delay,
                    detector=detector_id,
                    fanout=len(plan),
                )
            if manager_id is not None:
                self.counters.redundant_diffs = self.nodes[
                    manager_id
                ].redundant_diffs
            if span is not NULL_SPAN:
                span.set(
                    fanout=len(plan),
                    diff_messages=self.counters.diff_messages
                    - messages_before,
                )
        # A fresh detection advances the manager's interval/size
        # estimators; ``record_update`` dirties it structurally.
        return event

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def channel(self, url: str) -> Channel | None:
        """The managed channel record for ``url``, if any."""
        manager_id = self.managers.get(url)
        if manager_id is None:
            return None
        return self.nodes[manager_id].managed.get(url)

    def channel_level(self, url: str) -> int | None:
        """Current polling level of ``url``."""
        channel = self.channel(url)
        return channel.level if channel is not None else None

    def pollers_of(self, url: str) -> list[NodeId]:
        """Nodes currently polling ``url``."""
        return [
            node_id
            for node_id, node in self.nodes.items()
            if node.scheduler.is_polling(url)
        ]

    def total_poll_tasks(self) -> int:
        """Polls issued per polling interval across the cloud."""
        return sum(
            node.scheduler.polls_per_interval() for node in self.nodes.values()
        )
