"""Compile a :class:`ScenarioSpec` onto the event engine and run it.

The runner is the execution half of the scenario subsystem: it builds
the workload trace, the synthetic web-server farm, a
:class:`~repro.core.system.CoronaSystem` with its always-installed
fault plane, and the
:class:`~repro.simulation.deployment.ProtocolLoop` the §5.2
deployment simulator runs too.  The loop schedules the subscriptions,
the runner schedules the spec's injected timeline on the loop's
engine, and the loop adds its maintenance and poll loops and runs the
clock; the runner then collates a :class:`ScenarioMetrics`.

Everything is seeded from one integer, so a scenario replay is
bit-for-bit deterministic: same spec + same seed ⇒ same metrics (the
CLI acceptance test and the example-parity tests rely on this).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from repro.core.system import CoronaSystem
from repro.faults import FaultPlane
from repro.faults.links import LinkTable, assign_topology, build_link_table
from repro.faults.plane import FaultCounters
from repro.obs import Observability
from repro.scenarios.invariants import InvariantMonitor
from repro.scenarios.spec import (
    ChurnWave,
    CorrelatedManagerFailure,
    FlashCrowd,
    LinkDegradation,
    MessageLoss,
    NetworkDegradation,
    NodeCrash,
    NodeJoin,
    NodeRecovery,
    Partition,
    PartitionHeal,
    ScenarioSpec,
    SubscriptionFlap,
    UpdateBurst,
)
from repro.simulation.deployment import ProtocolLoop
from repro.simulation.latency import LatencyModel
from repro.simulation.webserver import WebServerFarm
from repro.workload.trace import generate_trace


#: Scenario-metric key → registry series backing it.  One entry here
#: (plus a slot in ``_COUNTER_KEY_ORDER``) is all it takes to surface
#: a new registry counter in scenario output — the collation path
#: below and ``to_dict`` are both driven by these tables.
REGISTRY_COUNTER_KEYS: tuple[tuple[str, str], ...] = (
    ("polls", "polls"),
    ("maintenance_messages", "maintenance_messages"),
    ("diff_messages", "diff_messages"),
    ("joins", "joins"),
    ("crashes", "crashes"),
    ("recoveries", "recoveries"),
    ("rehomed_channels", "rehomed_channels"),
    ("work_summaries_rebuilt", "work_summaries_rebuilt"),
    ("work_cluster_merges", "work_cluster_merges"),
    ("work_nodes_dirtied", "work_nodes_dirtied"),
    ("solver_work_problems_solved", "solver_work_problems_solved"),
    ("solver_work_memo_hits", "solver_work_memo_hits"),
    ("solver_work_shared_hits", "solver_work_shared_hits"),
    ("messages_dropped", "messages_dropped"),
    ("messages_duplicated", "messages_duplicated"),
    ("retransmissions", "retransmissions"),
    ("repair_diffs", "repair_diffs"),
    ("failed_polls", "failed_polls"),
    ("poll_retries", "poll_retries"),
    ("manager_failovers", "manager_failovers"),
    ("queued_messages", "queued_messages"),
    ("queue_drops", "queue_drops"),
    ("retries_suppressed", "retries_suppressed"),
    ("polls_shed", "polls_shed"),
)


@dataclass
class ScenarioMetrics:
    """Unified output of one scenario run (one variant).

    Scalars summarize the run; the three parallel lists are the
    bucketed load and detection series every scenario emits, whatever
    its timeline.  ``to_dict`` is JSON-safe and key-sorted rendering
    is deterministic under a fixed seed.

    The gated protocol/work/fault counters live in ``counters`` — one
    dict collated straight from the run's metrics registry (see
    ``REGISTRY_COUNTER_KEYS``) rather than three hand-rolled
    per-subsystem blocks — and stay reachable as attributes
    (``metrics.polls``…) through ``__getattr__``, so every historical
    call site and baseline key keeps working unchanged:

    * ``work_*`` — aggregation value-change counters (summaries whose
      committed value changed, contact contributions merged into
      those builds, node-dirtied accumulations).  Identical between
      delta and eager rounds, gated exactly by the CI baselines.
    * ``solver_work_*`` — optimization-phase execution counters.
      They legitimately differ from the eager reference's (which
      reports no hits); the baselines gate ``problems_solved`` and the
      memo+shared sum ``solver_work_solve_hits`` (which cache layer
      absorbs a given skipped solve can flip across processes).
    * fault counters — all zero on fault-free runs, deterministic
      under a fixed seed (the plane draws from its own generator),
      gated exactly like every other metric.
    """

    scenario: str
    variant: str
    seed: int
    horizon: float
    n_nodes_initial: int
    n_nodes_final: int
    n_channels: int
    total_subscriptions: int
    #: Subscriptions still registered on channel managers at the end
    #: of the run — under churn this equals ``total_subscriptions``
    #: only if §3.3 ownership transfer preserved every registry.
    final_registered_subscriptions: int
    injected_events: int
    server_polls: int
    updates_published: int
    detections: int
    #: Server-side refusals under per-IP rate limits (the poll was
    #: answered with the previous snapshot; staleness, not an error).
    rate_limited_polls: int
    #: Subscription-flap wave accounting (subscribe/unsubscribe calls
    #: issued by :class:`~repro.scenarios.spec.SubscriptionFlap`).
    flap_subscribes: int
    flap_unsubscribes: int
    mean_detection_delay: float
    legacy_detection_delay: float
    mean_polls_per_min: float
    legacy_polls_per_min: float
    max_channel_server_polls: int
    #: Registry-collated counters (see class docstring); includes the
    #: derived ``solver_work_solve_hits`` aggregate.
    counters: dict[str, int] = field(default_factory=dict)
    bucket_times: list[float] = field(default_factory=list)
    polls_per_min: list[float] = field(default_factory=list)
    detection_bucket_times: list[float] = field(default_factory=list)
    detection_delays: list[float] = field(default_factory=list)
    #: Invariant-monitor violations (``--check-invariants`` only).
    #: Deliberately excluded from ``to_dict``/``_HEAD_KEYS`` so the
    #: committed baseline bytes cannot depend on monitoring.
    violations: list = field(default_factory=list)

    def __getattr__(self, name: str) -> int:
        # Only consulted for names not found normally: resolve the
        # registry-collated counters (metrics.polls, metrics.joins …).
        counters = self.__dict__.get("counters")
        if counters is not None and name in counters:
            return counters[name]
        raise AttributeError(
            f"{type(self).__name__!s} has no attribute {name!r}"
        )

    # ------------------------------------------------------------------
    #: ``to_dict`` key order, byte-compatible with the pre-registry
    #: serialization (the committed baselines are written in it).
    _HEAD_KEYS = (
        "scenario",
        "variant",
        "seed",
        "horizon",
        "n_nodes_initial",
        "n_nodes_final",
        "n_channels",
        "total_subscriptions",
        "final_registered_subscriptions",
        "injected_events",
        "polls",
        "server_polls",
        "updates_published",
        "detections",
        "maintenance_messages",
        "diff_messages",
        "joins",
        "crashes",
        "recoveries",
        "rehomed_channels",
        "work_summaries_rebuilt",
        "work_cluster_merges",
        "work_nodes_dirtied",
        "solver_work_problems_solved",
        "solver_work_memo_hits",
        "solver_work_shared_hits",
        "solver_work_solve_hits",
        "messages_dropped",
        "messages_duplicated",
        "retransmissions",
        "repair_diffs",
        "failed_polls",
        "poll_retries",
        "manager_failovers",
        "queued_messages",
        "queue_drops",
        "retries_suppressed",
        "polls_shed",
        "rate_limited_polls",
        "flap_subscribes",
        "flap_unsubscribes",
        "mean_detection_delay",
        "legacy_detection_delay",
        "mean_polls_per_min",
        "legacy_polls_per_min",
        "max_channel_server_polls",
    )

    def to_dict(self) -> dict:
        """Plain JSON-safe dict (NaN becomes ``None``)."""
        def scrub(value):
            if isinstance(value, float) and math.isnan(value):
                return None
            return value

        out = {key: scrub(getattr(self, key)) for key in self._HEAD_KEYS}
        out["bucket_times"] = list(self.bucket_times)
        out["polls_per_min"] = list(self.polls_per_min)
        out["detection_bucket_times"] = list(self.detection_bucket_times)
        out["detection_delays"] = [
            scrub(v) for v in self.detection_delays
        ]
        return out

    def summary(self) -> str:
        """A deterministic human-readable digest for the CLI."""
        delay = (
            f"{self.mean_detection_delay:.1f}s"
            if not math.isnan(self.mean_detection_delay)
            else "n/a"
        )
        lines = [
            f"scenario {self.scenario}"
            + (f" [{self.variant}]" if self.variant != "base" else "")
            + f"  (seed {self.seed}, horizon {self.horizon / 60:.0f}min)",
            f"  population : {self.n_nodes_initial} -> "
            f"{self.n_nodes_final} nodes  "
            f"(joins {self.joins}, crashes {self.crashes}, "
            f"recoveries {self.recoveries}, "
            f"re-homed channels {self.rehomed_channels})",
            f"  workload   : {self.n_channels} channels, "
            f"{self.total_subscriptions} subscriptions "
            f"({self.final_registered_subscriptions} registered at end), "
            f"{self.updates_published} updates published, "
            f"{self.injected_events} injected events",
            f"  load       : {self.polls} corona polls "
            f"({self.mean_polls_per_min:.1f}/min vs legacy "
            f"{self.legacy_polls_per_min:.1f}/min), "
            f"hottest server {self.max_channel_server_polls} polls",
            f"  freshness  : {self.detections} detections, "
            f"mean delay {delay} "
            f"(legacy tau/2 = {self.legacy_detection_delay:.0f}s)",
            f"  messages   : {self.maintenance_messages} maintenance, "
            f"{self.diff_messages} diff",
            f"  agg work   : {self.work_summaries_rebuilt} summaries "
            f"rebuilt, {self.work_cluster_merges} cluster merges, "
            f"{self.work_nodes_dirtied} node-dirty events",
            f"  solve work : {self.solver_work_problems_solved} problems "
            f"solved, {self.solver_work_memo_hits} memo hits, "
            f"{self.solver_work_shared_hits} shared hits",
            f"  faults     : {self.messages_dropped} dropped, "
            f"{self.retransmissions} retransmits, "
            f"{self.repair_diffs} repairs, "
            f"{self.failed_polls} failed polls, "
            f"{self.rate_limited_polls} rate-limited, "
            f"{self.manager_failovers} manager failovers",
            f"  links      : {self.queued_messages} queued, "
            f"{self.queue_drops} queue drops, "
            f"{self.retries_suppressed} retries suppressed, "
            f"{self.polls_shed} polls shed",
        ]
        return "\n".join(lines)


class ScenarioRunner:
    """Execute one spec (and its variants) deterministically.

    ``obs`` carries a shared :class:`~repro.obs.Observability` plane
    into every run — e.g. the CLI's ``--trace`` tracer.  The default
    builds a fresh registry per run with tracing disabled; either way
    the metrics are byte-identical (``tests/obs`` enforce it).
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        seed: int = 0,
        obs: Observability | None = None,
        check_invariants: bool = False,
    ) -> None:
        spec.validate()
        self.spec = spec
        self.seed = seed
        self.obs = obs
        #: Opt-in :class:`~repro.scenarios.invariants.InvariantMonitor`
        #: hooked after every maintenance round; the monitors are
        #: read-only, so the metrics stay byte-identical either way.
        self.check_invariants = check_invariants

    # ------------------------------------------------------------------
    def run(self, variant: str | None = None) -> ScenarioMetrics:
        """Run the base spec, or one named variant."""
        spec = self.spec
        label = "base"
        if variant is not None:
            spec = self.spec.variant_spec(variant)
            label = variant
        return _execute(
            spec,
            label,
            self.seed,
            obs=self.obs,
            check_invariants=self.check_invariants,
        )

    def run_all(self) -> dict[str, ScenarioMetrics]:
        """Every variant (or just the base spec), label → metrics."""
        labels = self.spec.variant_labels()
        if not labels:
            return {"base": self.run()}
        return {label: self.run(label) for label in labels}


# ----------------------------------------------------------------------
def _execute(
    spec: ScenarioSpec,
    label: str,
    seed: int,
    obs: Observability | None = None,
    check_invariants: bool = False,
) -> ScenarioMetrics:
    if obs is None:
        obs = Observability.off()
    tracer = obs.tracer
    config = spec.corona_config()
    workload = spec.workload
    trace = generate_trace(
        n_channels=workload.n_channels,
        n_subscriptions=workload.n_subscriptions,
        zipf_exponent=workload.zipf_exponent,
        seed=seed,
        url_prefix=workload.url_prefix,
        subscription_window=workload.subscription_window,
        update_interval_scale=workload.update_interval_scale,
        content_size_scale=workload.content_size_scale,
        arrival=workload.arrival,
    )
    farm = WebServerFarm(
        seed=seed + 1, rate_limit_spacing=workload.rate_limit_spacing
    )
    for index, url in enumerate(trace.urls):
        farm.host(
            url,
            update_interval=float(trace.update_intervals[index]),
            target_bytes=int(trace.content_sizes[index]),
        )
    # One fault plane per run, always installed: inactive (the
    # fault-free default) it is bit-identical to no plane at all,
    # and the timeline's fault events mutate it in place.  Its
    # counters register on the run's registry alongside the system's,
    # which is where collation reads every gated counter back from.
    faults = FaultPlane(
        seed=seed + 5, counters=FaultCounters(obs.registry)
    )
    # One link table per run, always installed, like the plane itself:
    # inactive (no specs) it draws nothing and is bit-identical to no
    # table.  A declarative ``links`` topology pre-loads its group
    # matrix; link-degradation events impose/lift scoped specs on it.
    link_table = (
        build_link_table(spec.links, seed=seed + 7)
        if spec.links
        else LinkTable(seed=seed + 7)
    )
    faults.install_links(link_table)
    system = CoronaSystem(
        n_nodes=spec.n_nodes,
        config=config,
        fetcher=farm,
        seed=seed,
        faults=faults,
        obs=obs,
    )
    if spec.links:
        # Round-robin the initial population over the datacenters
        # (deterministic: system.nodes preserves creation order).
        # Nodes joining later sit outside every group — their links
        # stay clean, which is the conservative default.
        assign_topology(
            link_table, list(system.nodes), spec.links.get("dcs", 2)
        )

    def scheduled(name: str, fn):
        """Mark a timeline callback with a trace instant when it fires.

        Tracing off (the default) returns ``fn`` unchanged — the
        timeline runs the exact same callables it always did.
        """
        if not tracer.enabled:
            return fn

        def fire(now: float):
            tracer.instant(name, sim_time=now, category="scenario")
            return fn(now)

        return fire
    latency = LatencyModel(seed=seed + 2)
    # Subscribes the trace (timed arrivals are scheduled; a window-less
    # trace subscribes everyone now), before the timeline below.
    loop = ProtocolLoop(system, farm, trace, latency, spec.bucket_width)
    engine = loop.engine
    churn_rng = random.Random(seed + 3)
    crowd_rng = random.Random(seed + 4)
    # Partition membership sampling draws from its own generator so a
    # fault timeline never perturbs churn/crowd randomness.
    fault_rng = random.Random(seed + 6)

    # -- injected timeline ---------------------------------------------
    injected = 0
    extra_subscriptions = 0
    flap_subscribes = 0
    flap_unsubscribes = 0
    #: Flap pools still subscribed when the run ends (their arrivals
    #: then count toward the reported subscription load, keeping
    #: ``final_registered_subscriptions == total_subscriptions``).
    flap_pools: list[tuple[dict, int]] = []

    def heal_by_name(name: str, now: float) -> None:
        # Shared by Partition auto-heal and explicit PartitionHeal;
        # guarded because whichever fires second is a no-op.  Routed
        # through the system so managers the failover detector
        # suspended behind the partition rejoin on heal (population
        # conservation).
        if name in faults.partitions:
            system.heal_partition(name, now=now)

    for event in spec.events:
        injected += 1
        if tracer.enabled:
            # One instant marker per injected event at its start time.
            # The callback touches nothing but the tracer, so metrics
            # stay byte-identical with tracing on (tests/obs assert
            # this); recurring events additionally mark each tick via
            # ``scheduled`` below.
            engine.schedule(
                min(event.at, spec.horizon),
                lambda now, _name=f"event.{type(event).__name__}": (
                    tracer.instant(_name, sim_time=now, category="scenario")
                ),
            )
        if isinstance(event, NodeJoin):
            engine.schedule(
                event.at,
                lambda now, ev=event: system.join_nodes(ev.count, now=now),
            )
        elif isinstance(event, NodeCrash):
            engine.schedule(
                event.at,
                lambda now, ev=event: system.crash_nodes(
                    ev.count, now=now, rng=churn_rng, target=ev.target
                ),
            )
        elif isinstance(event, NodeRecovery):
            engine.schedule(
                event.at,
                lambda now, ev=event: system.recover_nodes(
                    ev.count, now=now
                ),
            )
        elif isinstance(event, FlashCrowd):
            url = trace.urls[event.channel]
            offsets = sorted(
                crowd_rng.uniform(0.0, event.window)
                for _ in range(event.subscribers)
            )
            # Arrivals past the horizon never execute; only the ones
            # that land count toward the reported subscription load.
            arrivals = [
                offset for offset in offsets
                if event.at + offset <= spec.horizon
            ]
            for rank, offset in enumerate(arrivals):
                name = f"crowd-{event.channel}-{extra_subscriptions + rank}"
                engine.schedule(
                    event.at + offset,
                    lambda now, u=url, c=name: system.subscribe(u, c, now),
                )
            extra_subscriptions += len(arrivals)
            if event.update_factor != 1.0:
                # Relative acceleration (flash_crowd compounds), like
                # UpdateBurst below, so rate events compose in any
                # order; a crowd's speed-up is sticky for the run.
                engine.schedule(
                    event.at,
                    lambda now, u=url, ev=event: farm.flash_crowd(
                        u, ev.update_factor, now
                    ),
                )
        elif isinstance(event, UpdateBurst):
            hot = max(
                1, int(round(event.channel_fraction * trace.n_channels))
            )
            urls = trace.urls[:hot]

            # Bursts accelerate relatively and undo themselves by the
            # inverse factor, so a concurrent FlashCrowd's sticky
            # update_factor on the same channel survives the burst's
            # end whichever event fires first.
            def start_burst(now: float, us=urls, ev=event) -> None:
                for u in us:
                    farm.flash_crowd(u, ev.factor, now)

            def end_burst(now: float, us=urls, ev=event) -> None:
                for u in us:
                    farm.flash_crowd(u, 1.0 / ev.factor, now)

            engine.schedule(event.at, start_burst)
            engine.schedule(
                min(event.at + event.duration, spec.horizon), end_burst
            )
        elif isinstance(event, NetworkDegradation):
            # Token-scoped: each window restores exactly its own
            # factor, so overlapping events compose and the scale
            # lands back on the *true* baseline (no f × 1/f residue).
            degradation_token: dict = {}

            def start_degradation(
                now: float, ev=event, cell=degradation_token
            ) -> None:
                cell["token"] = latency.degrade(ev.latency_factor)

            def end_degradation(
                now: float, cell=degradation_token
            ) -> None:
                if "token" in cell:
                    latency.restore(cell.pop("token"))

            engine.schedule(event.at, start_degradation)
            engine.schedule(
                min(event.at + event.duration, spec.horizon),
                end_degradation,
            )
        elif isinstance(event, ChurnWave):

            def churn_tick(now: float, ev=event) -> None:
                # One tick = one batched crash wave and one batched
                # join wave (one aggregation repair each, not k).
                if ev.crashes_per_tick and len(system.nodes) > 1:
                    system.crash_nodes(
                        ev.crashes_per_tick,
                        now=now,
                        rng=churn_rng,
                        target=ev.target,
                    )
                if ev.joins_per_tick:
                    system.join_nodes(ev.joins_per_tick, now=now)

            engine.schedule_every(
                event.at,
                event.interval,
                scheduled("event.ChurnWave.tick", churn_tick),
                until=min(event.at + event.duration, spec.horizon),
            )
        elif isinstance(event, MessageLoss):
            # Additive compose + inverse undo, like NetworkDegradation:
            # overlapping loss events never cancel each other.
            engine.schedule(
                event.at,
                lambda now, ev=event: faults.add_loss(
                    ev.rate, ev.duplicate_rate, ev.jitter
                ),
            )
            engine.schedule(
                min(event.at + event.duration, spec.horizon),
                lambda now, ev=event: faults.remove_loss(
                    ev.rate, ev.duplicate_rate, ev.jitter
                ),
            )
        elif isinstance(event, Partition):
            # Which island *this* event opened, so its auto-heal timer
            # never closes a later same-named partition (the explicit
            # PartitionHeal event, by contrast, heals whatever is
            # open — that is its meaning).
            opened_island: dict = {}

            def open_partition(
                now: float, ev=event, cell=opened_island
            ) -> None:
                # Sampled from the population alive *now* — a churned
                # cloud partitions over its current membership.
                population = list(system.nodes)
                count = min(
                    len(population) - 1,
                    max(1, round(ev.fraction * len(population))),
                )
                members = fault_rng.sample(population, count)
                cell["island"] = faults.partition(
                    ev.name,
                    members=members,
                    isolates_servers=ev.isolates_servers,
                )

            def auto_heal(now: float, ev=event, cell=opened_island) -> None:
                island = cell.get("island")
                if (
                    island is not None
                    and faults.partitions.get(ev.name) is island
                ):
                    system.heal_partition(ev.name, now=now)

            engine.schedule(event.at, open_partition)
            if event.duration is not None:
                engine.schedule(
                    min(event.at + event.duration, spec.horizon),
                    auto_heal,
                )
        elif isinstance(event, PartitionHeal):
            engine.schedule(
                event.at,
                lambda now, name=event.name: heal_by_name(name, now),
            )
        elif isinstance(event, CorrelatedManagerFailure):
            # Victims drawn from the fault generator, like partition
            # membership: adding a fault-family event must not perturb
            # the churn/crowd randomness of the rest of the timeline.
            engine.schedule(
                event.at,
                lambda now, ev=event: system.crash_nodes(
                    ev.count, now=now, rng=fault_rng, target="managers"
                ),
            )
        elif isinstance(event, LinkDegradation):
            # Victims drawn from the fault generator (like partition
            # membership); the imposition handle makes the window
            # always-healing — the end event lifts exactly this
            # degradation, leaving overlapping ones intact.
            imposition: dict = {}

            def start_link_degradation(
                now: float, ev=event, cell=imposition
            ) -> None:
                population = list(system.nodes)
                count = min(
                    len(population),
                    max(1, round(ev.fraction * len(population))),
                )
                victims = fault_rng.sample(population, count)
                senders = (
                    victims
                    if ev.direction in ("outbound", "both")
                    else ()
                )
                recipients = (
                    victims
                    if ev.direction in ("inbound", "both")
                    else ()
                )
                cell["handle"] = link_table.impose(
                    ev.link_spec(),
                    senders=senders,
                    recipients=recipients,
                )

            def end_link_degradation(
                now: float, cell=imposition
            ) -> None:
                handle = cell.pop("handle", None)
                if handle is not None:
                    link_table.lift(handle)

            engine.schedule(event.at, start_link_degradation)
            engine.schedule(
                min(event.at + event.duration, spec.horizon),
                end_link_degradation,
            )
        elif isinstance(event, SubscriptionFlap):
            flap_urls = trace.urls[: event.channels]
            flap_state = {"on": False}
            flap_pools.append(
                (flap_state, len(flap_urls) * event.subscribers)
            )
            flap_prefix = f"flap{injected}"

            def flap_tick(
                now: float,
                ev=event,
                urls=flap_urls,
                state=flap_state,
                prefix=flap_prefix,
            ) -> None:
                nonlocal flap_subscribes, flap_unsubscribes
                subscribing = not state["on"]
                for rank, url in enumerate(urls):
                    for index in range(ev.subscribers):
                        client = f"{prefix}-{rank}-{index}"
                        if subscribing:
                            system.subscribe(url, client, now)
                        else:
                            system.unsubscribe(url, client)
                count = len(urls) * ev.subscribers
                if subscribing:
                    flap_subscribes += count
                else:
                    flap_unsubscribes += count
                state["on"] = subscribing

            engine.schedule_every(
                event.at,
                event.interval,
                scheduled("event.SubscriptionFlap.tick", flap_tick),
                until=min(event.at + event.duration, spec.horizon),
            )
        else:  # pragma: no cover - spec.validate() forbids this
            raise TypeError(f"unhandled event type {type(event)!r}")

    # -- protocol loops ------------------------------------------------
    monitor: InvariantMonitor | None = None
    if check_invariants:
        monitor = InvariantMonitor(spec, system, obs.registry)
    with tracer.span("scenario.run", sim_time=0.0, category="scenario") as run_span:
        loop.run(spec.horizon, spec.poll_tick, monitor=monitor)
        if tracer.enabled:
            run_span.set(
                scenario=spec.name,
                variant=label,
                seed=seed,
                horizon=spec.horizon,
            )

    # -- collate -------------------------------------------------------
    poll_series = loop.poll_series
    detect_series = loop.detect_series
    tau = config.polling_interval
    for state, pool_size in flap_pools:
        if state["on"]:
            # The final wave ended subscribed: those clients are part
            # of the registered load the run hands back.
            extra_subscriptions += pool_size
    total_subscriptions = trace.total_subscriptions + extra_subscriptions
    registered = sum(
        system.nodes[manager].registry.count(url)
        for url, manager in system.managers.items()
    )
    delays = detect_series.means()
    mean_delay = float(np.nanmean(delays)) if len(delays) else float("nan")
    minutes = spec.horizon / 60.0
    poll_counts = farm.poll_counts()
    # One registry-driven serialization path for every gated counter:
    # the subsystems already registered their series (SystemCounters,
    # AggregationWork, SolverWork, FaultCounters), so collation is a
    # table lookup, not three hand-rolled per-subsystem blocks.
    counters = {
        key: int(obs.registry.value(name))
        for key, name in REGISTRY_COUNTER_KEYS
    }
    counters["solver_work_solve_hits"] = (
        counters["solver_work_memo_hits"]
        + counters["solver_work_shared_hits"]
    )
    violations: list = []
    if monitor is not None:
        monitor.check_final(
            spec.horizon,
            registered=registered,
            total_subscriptions=total_subscriptions,
        )
        violations = monitor.violations
    return ScenarioMetrics(
        scenario=spec.name,
        variant=label,
        seed=seed,
        horizon=spec.horizon,
        n_nodes_initial=spec.n_nodes,
        n_nodes_final=len(system.nodes),
        n_channels=trace.n_channels,
        total_subscriptions=total_subscriptions,
        final_registered_subscriptions=registered,
        injected_events=injected,
        server_polls=farm.total_polls,
        updates_published=farm.total_updates,
        detections=loop.detections,
        counters=counters,
        rate_limited_polls=sum(
            hosted.rate_limited for hosted in farm.channels.values()
        ),
        flap_subscribes=flap_subscribes,
        flap_unsubscribes=flap_unsubscribes,
        mean_detection_delay=mean_delay,
        legacy_detection_delay=tau / 2.0,
        mean_polls_per_min=system.counters.polls / minutes,
        legacy_polls_per_min=total_subscriptions / tau * 60.0,
        max_channel_server_polls=max(poll_counts.values(), default=0),
        bucket_times=[float(t) for t in poll_series.times()],
        polls_per_min=[
            float(v) for v in poll_series.sums() / (spec.bucket_width / 60.0)
        ],
        detection_bucket_times=[float(t) for t in detect_series.times()],
        detection_delays=[float(v) for v in delays],
        violations=violations,
    )
