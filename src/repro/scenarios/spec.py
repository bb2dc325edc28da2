"""Declarative scenario specifications.

A scenario is data, not code: plain dataclasses (loadable from plain
dicts, hence from JSON) describing

* the **population** — overlay size and the
  :class:`~repro.core.config.CoronaConfig` knobs;
* the **workload** — channel count, Zipf skew, subscription volume and
  update-interval compression (:class:`WorkloadSpec`);
* the **timeline** — injected events: node churn
  (:class:`NodeJoin`, :class:`NodeCrash`, :class:`ChurnWave`), flash
  crowds (:class:`FlashCrowd`), publish-rate bursts
  (:class:`UpdateBurst`), wide-area degradation
  (:class:`NetworkDegradation`), the message-level fault family
  (:class:`MessageLoss`, :class:`Partition`, :class:`PartitionHeal`,
  :class:`CorrelatedManagerFailure` — routed through the
  :class:`~repro.faults.FaultPlane` the runner installs) and
  subscription flapping (:class:`SubscriptionFlap`);
* optional **variants** — named field overrides for parameter sweeps
  (the zipf-skew-sweep scenario runs one variant per exponent).

Validation is eager and loud: :meth:`ScenarioSpec.validate` (called by
the runner and by :func:`ScenarioSpec.from_dict`) raises
:class:`ScenarioSpecError` naming the offending field, so a malformed
scenario dies before any simulation time is spent.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, ClassVar, Union

from repro.core.config import CoronaConfig


class ScenarioSpecError(ValueError):
    """A scenario spec failed validation (bad field, unknown key...)."""


# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """The channel/subscription mix one scenario exercises.

    ``update_interval_scale`` compresses the survey-drawn update
    intervals so hours of feed behaviour fit in minutes of simulated
    time.  Every subscription is issued at time 0, and documents are
    shrunk by the runner's ``CONTENT_SIZE_SCALE``.
    """

    n_channels: int = 40
    n_subscriptions: int = 800
    zipf_exponent: float = 0.5
    update_interval_scale: float = 0.05
    url_prefix: str = "http://feeds.example.org/channel"
    #: Per-(source, channel) minimum poll spacing the content servers
    #: enforce (the paper's per-IP hard rate limits, §1).  0 disables
    #: limiting; a spacing above the polling interval refuses part of
    #: every node's polls, surfacing as staleness, not errors.
    rate_limit_spacing: float = 0.0

    def validate(self) -> None:
        if self.n_channels < 1:
            raise ScenarioSpecError("workload.n_channels must be >= 1")
        if self.n_subscriptions < 0:
            raise ScenarioSpecError(
                "workload.n_subscriptions cannot be negative"
            )
        if self.zipf_exponent < 0:
            raise ScenarioSpecError(
                "workload.zipf_exponent cannot be negative"
            )
        if self.update_interval_scale <= 0:
            raise ScenarioSpecError(
                "workload.update_interval_scale must be positive"
            )
        if self.rate_limit_spacing < 0:
            raise ScenarioSpecError(
                "workload.rate_limit_spacing cannot be negative"
            )


# ----------------------------------------------------------------------
# timeline events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NodeJoin:
    """``count`` fresh nodes join the overlay at time ``at``."""

    kind: ClassVar[str] = "node-join"

    at: float
    count: int = 1

    def validate(self) -> None:
        if self.count < 1:
            raise ScenarioSpecError("node-join count must be >= 1")


@dataclass(frozen=True)
class NodeCrash:
    """``count`` nodes fail at ``at``; ``target`` picks the pool.

    ``target`` is ``"any"``, ``"managers"`` (channel owners — the
    worst case for §3.3 state transfer) or ``"bystanders"``.
    """

    kind: ClassVar[str] = "node-crash"

    at: float
    count: int = 1
    target: str = "any"

    def validate(self) -> None:
        if self.count < 1:
            raise ScenarioSpecError("node-crash count must be >= 1")
        if self.target not in ("any", "managers", "bystanders"):
            raise ScenarioSpecError(
                "node-crash target must be 'any', 'managers' or 'bystanders'"
            )


@dataclass(frozen=True)
class NodeRecovery:
    """``count`` previously crashed nodes rejoin at time ``at``.

    Re-admits the oldest crashed nodes (crash order) through the
    incremental join path: each recovers under its original address —
    hence its original identifier — so the channels it anchored
    re-home back to it, with subscription state transferred from the
    interim managers, and its caches catch up through first-poll
    bootstrap plus the anti-entropy repair pass within a bounded
    number of maintenance rounds.  Validation rejects recoveries that
    fire before any crash or revive more nodes than are down
    (:meth:`ScenarioSpec._validate_recovery_timeline`).
    """

    kind: ClassVar[str] = "node-recovery"

    at: float
    count: int = 1

    def validate(self) -> None:
        if self.count < 1:
            raise ScenarioSpecError("node-recovery count must be >= 1")


@dataclass(frozen=True)
class FlashCrowd:
    """A subscription spike on one channel (§3.1's server shield).

    ``subscribers`` new clients subscribe to channel rank ``channel``
    over ``window`` seconds starting at ``at``; ``update_factor`` > 1
    additionally accelerates the channel's publish rate (breaking
    news updates faster *and* draws a crowd).
    """

    kind: ClassVar[str] = "flash-crowd"

    at: float
    channel: int = 0
    subscribers: int = 100
    window: float = 60.0
    update_factor: float = 1.0

    def validate(self) -> None:
        if self.channel < 0:
            raise ScenarioSpecError("flash-crowd channel rank must be >= 0")
        if self.subscribers < 1:
            raise ScenarioSpecError("flash-crowd subscribers must be >= 1")
        if self.window < 0:
            raise ScenarioSpecError("flash-crowd window cannot be negative")
        if self.update_factor <= 0:
            raise ScenarioSpecError(
                "flash-crowd update_factor must be positive"
            )


@dataclass(frozen=True)
class UpdateBurst:
    """The most popular channels publish ``factor``× faster for a while.

    Applies to the top ``channel_fraction`` of channels by rank from
    ``at`` until ``at + duration``, then restores normal service.
    """

    kind: ClassVar[str] = "update-burst"

    at: float
    duration: float = 300.0
    factor: float = 8.0
    channel_fraction: float = 0.25

    def validate(self) -> None:
        if self.duration <= 0:
            raise ScenarioSpecError("update-burst duration must be positive")
        if self.factor <= 0:
            raise ScenarioSpecError("update-burst factor must be positive")
        if not 0 < self.channel_fraction <= 1:
            raise ScenarioSpecError(
                "update-burst channel_fraction must be in (0, 1]"
            )


@dataclass(frozen=True)
class NetworkDegradation:
    """Wide-area latency inflates ``latency_factor``× for a while."""

    kind: ClassVar[str] = "network-degradation"

    at: float
    duration: float = 300.0
    latency_factor: float = 10.0

    def validate(self) -> None:
        if self.duration <= 0:
            raise ScenarioSpecError(
                "network-degradation duration must be positive"
            )
        if self.latency_factor <= 0:
            raise ScenarioSpecError(
                "network-degradation latency_factor must be positive"
            )


@dataclass(frozen=True)
class ChurnWave:
    """Sustained churn: crashes and joins every ``interval`` seconds.

    From ``at`` until ``at + duration``, every tick fails
    ``crashes_per_tick`` nodes drawn from the ``target`` pool (same
    semantics as :class:`NodeCrash` — ``"managers"`` aims every tick
    at channel owners, the worst case for §3.3 state transfer) and
    joins ``joins_per_tick`` fresh ones — the membership treadmill
    structured overlays must absorb.  Each tick is one batched wave:
    one overlay repair and one aggregation splice, not one per node.
    """

    kind: ClassVar[str] = "churn-wave"

    at: float
    duration: float = 600.0
    interval: float = 60.0
    crashes_per_tick: int = 1
    joins_per_tick: int = 1
    target: str = "any"

    def validate(self) -> None:
        if self.duration <= 0:
            raise ScenarioSpecError("churn-wave duration must be positive")
        if self.interval <= 0:
            raise ScenarioSpecError("churn-wave interval must be positive")
        if self.crashes_per_tick < 0 or self.joins_per_tick < 0:
            raise ScenarioSpecError("churn-wave rates cannot be negative")
        if self.crashes_per_tick == 0 and self.joins_per_tick == 0:
            raise ScenarioSpecError("churn-wave must crash or join nodes")
        if self.target not in ("any", "managers", "bystanders"):
            raise ScenarioSpecError(
                "churn-wave target must be 'any', 'managers' or 'bystanders'"
            )


# ----------------------------------------------------------------------
# fault timeline (message-level fault family, routed to the FaultPlane)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MessageLoss:
    """Wide-area message loss from ``at`` until ``at + duration``.

    Every protocol hop (dissemination, maintenance flood, repair) and
    every poll round trip drops independently with probability
    ``rate``, re-rolled per retransmission; ``duplicate_rate``
    additionally delivers some messages twice (exercising the §3.4
    dedup).  Rates compose additively across overlapping events and
    undo themselves at the event's end.
    """

    kind: ClassVar[str] = "message-loss"

    at: float
    duration: float = 600.0
    rate: float = 0.05
    duplicate_rate: float = 0.0

    def validate(self) -> None:
        if self.duration <= 0:
            raise ScenarioSpecError("message-loss duration must be positive")
        if not 0.0 <= self.rate <= 1.0:
            raise ScenarioSpecError("message-loss rate must be in [0, 1]")
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ScenarioSpecError(
                "message-loss duplicate_rate must be in [0, 1]"
            )


@dataclass(frozen=True)
class Partition:
    """A named network partition opens at ``at``.

    A seeded ``fraction`` of the current population is cut off from
    the rest (every link crossing the boundary is dead, retransmits
    included) until a :class:`PartitionHeal` with the same ``name``
    fires.
    ``isolates_servers`` additionally cuts the island off from the
    content servers, so its polls time out too.
    """

    kind: ClassVar[str] = "partition"

    at: float
    name: str = "partition"
    fraction: float = 0.25
    isolates_servers: bool = False

    def validate(self) -> None:
        if not self.name:
            raise ScenarioSpecError("partition needs a name")
        if not 0.0 < self.fraction < 1.0:
            raise ScenarioSpecError(
                "partition fraction must be in (0, 1)"
            )


@dataclass(frozen=True)
class PartitionHeal:
    """The named partition closes; links across it work again."""

    kind: ClassVar[str] = "partition-heal"

    at: float
    name: str = "partition"

    def validate(self) -> None:
        if not self.name:
            raise ScenarioSpecError("partition-heal needs a name")


@dataclass(frozen=True)
class CorrelatedManagerFailure:
    """``count`` channel managers fail *simultaneously* at ``at``.

    The worst case for §3.3 ownership transfer: a correlated blast
    radius (one rack, one AS) takes out nodes that all own channels,
    in one wave — unlike :class:`NodeCrash`, this event is part of
    the fault family and is meant to compose with loss/partitions
    already in flight.
    """

    kind: ClassVar[str] = "correlated-manager-failure"

    at: float
    count: int = 4

    def validate(self) -> None:
        if self.count < 1:
            raise ScenarioSpecError(
                "correlated-manager-failure count must be >= 1"
            )


@dataclass(frozen=True)
class LinkDegradation:
    """A seeded set of nodes gets hostile *links* for a while.

    From ``at`` until ``at + duration`` a ``fraction`` of the current
    population has every link in ``direction`` (``"outbound"``,
    ``"inbound"`` or ``"both"``) degraded per the
    :class:`~repro.faults.links.LinkSpec` knobs: a ``loss`` override
    replacing the global rate on those links, extra ``latency`` with
    U(0, ``jitter``), and/or a ``bandwidth`` cap (messages/second,
    token bucket of ``LinkSpec.burst``) with a bounded queue of
    ``queue_limit``
    whose overflow drops count separately from loss.  Unlike
    :class:`MessageLoss` this is *asymmetric* — the reverse links stay
    clean unless ``direction="both"``.  The event always heals: the
    runner lifts exactly this imposition at the window's end.
    """

    kind: ClassVar[str] = "link-degradation"

    at: float
    duration: float = 600.0
    fraction: float = 0.25
    loss: float | None = None
    latency: float = 0.0
    jitter: float = 0.0
    bandwidth: float | None = None
    queue_limit: int = 8
    direction: str = "outbound"

    def validate(self) -> None:
        if self.duration <= 0:
            raise ScenarioSpecError(
                "link-degradation duration must be positive"
            )
        if not 0.0 < self.fraction <= 1.0:
            raise ScenarioSpecError(
                "link-degradation fraction must be in (0, 1]"
            )
        if self.direction not in ("outbound", "inbound", "both"):
            raise ScenarioSpecError(
                "link-degradation direction must be 'outbound', "
                "'inbound' or 'both'"
            )
        from repro.faults.links import LinkSpec

        try:
            spec = LinkSpec(
                loss=self.loss,
                latency=self.latency,
                jitter=self.jitter,
                bandwidth=self.bandwidth,
                queue_limit=self.queue_limit,
            )
            spec.validate()
        except ValueError as error:
            raise ScenarioSpecError(
                f"link-degradation: {error}"
            ) from error
        if not spec.hostile:
            raise ScenarioSpecError(
                "link-degradation must set at least one of loss, "
                "latency, jitter or bandwidth"
            )

    def link_spec(self):
        """The :class:`~repro.faults.links.LinkSpec` to impose."""
        from repro.faults.links import LinkSpec

        return LinkSpec(
            loss=self.loss,
            latency=self.latency,
            jitter=self.jitter,
            bandwidth=self.bandwidth,
            queue_limit=self.queue_limit,
        )


@dataclass(frozen=True)
class SubscriptionFlap:
    """Subscribe/unsubscribe waves over a channel pool.

    From ``at`` until ``at + duration``, every ``interval`` seconds a
    wave of ``subscribers`` clients per channel alternately subscribes
    to and unsubscribes from the top ``channels`` channels by rank —
    the adversarial churn on the *subscription* plane that keeps
    managers' factor estimators and the optimizer busy
    (:class:`ChurnWave`'s analogue for clients instead of nodes).
    """

    kind: ClassVar[str] = "subscription-flap"

    at: float
    duration: float = 600.0
    interval: float = 60.0
    channels: int = 4
    subscribers: int = 20

    def validate(self) -> None:
        if self.duration <= 0:
            raise ScenarioSpecError(
                "subscription-flap duration must be positive"
            )
        if self.interval <= 0:
            raise ScenarioSpecError(
                "subscription-flap interval must be positive"
            )
        if self.channels < 1:
            raise ScenarioSpecError(
                "subscription-flap channels must be >= 1"
            )
        if self.subscribers < 1:
            raise ScenarioSpecError(
                "subscription-flap subscribers must be >= 1"
            )


ScenarioEvent = Union[
    NodeJoin, NodeCrash, NodeRecovery, FlashCrowd, UpdateBurst,
    NetworkDegradation, ChurnWave, MessageLoss, Partition, PartitionHeal,
    CorrelatedManagerFailure, SubscriptionFlap, LinkDegradation,
]

#: kind-string → event class, for the plain-dict loader.
EVENT_KINDS: dict[str, type] = {
    cls.kind: cls
    for cls in (
        NodeJoin, NodeCrash, NodeRecovery, FlashCrowd, UpdateBurst,
        NetworkDegradation, ChurnWave, MessageLoss, Partition, PartitionHeal,
        CorrelatedManagerFailure, SubscriptionFlap, LinkDegradation,
    )
}


# ----------------------------------------------------------------------
# the spec
# ----------------------------------------------------------------------

#: CoronaConfig knobs a scenario uses unless overridden: short
#: intervals and a small overlay base so minutes of simulated time
#: exercise multiple polling/maintenance rounds.
DEFAULT_CONFIG: dict[str, Any] = {
    "polling_interval": 300.0,
    "maintenance_interval": 600.0,
    "base": 4,
    "scheme": "lite",
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative experiment (see module docstring)."""

    name: str
    description: str = ""
    n_nodes: int = 32
    horizon: float = 3600.0
    poll_tick: float = 30.0
    bucket_width: float = 600.0
    config: Mapping[str, Any] = field(default_factory=dict)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    #: Declarative static link topology (``{}`` = no per-link model).
    #: Currently one shape: ``{"topology": "multi-dc", "dcs": N, ...}``
    #: — nodes split round-robin over N datacenters, cross-DC links
    #: get the latency matrix / loss / bandwidth knobs (see
    #: :func:`repro.faults.links.build_link_table`).
    links: Mapping[str, Any] = field(default_factory=dict)
    events: tuple[ScenarioEvent, ...] = ()
    variants: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def corona_config(self) -> CoronaConfig:
        """The resolved :class:`CoronaConfig` (defaults + overrides)."""
        if not isinstance(self.config, Mapping):
            raise ScenarioSpecError(
                "'config' must be a mapping of CoronaConfig fields"
            )
        merged = {**DEFAULT_CONFIG, **dict(self.config)}
        known = {f.name for f in dataclasses.fields(CoronaConfig)}
        unknown = sorted(set(merged) - known)
        if unknown:
            raise ScenarioSpecError(
                f"unknown CoronaConfig field(s) in config: {unknown}"
            )
        try:
            return CoronaConfig(**merged)
        except ValueError as error:
            raise ScenarioSpecError(f"invalid config: {error}") from error

    def validate(self) -> None:
        """Raise :class:`ScenarioSpecError` on the first bad field."""
        if not self.name:
            raise ScenarioSpecError("scenario needs a name")
        if self.n_nodes < 2:
            raise ScenarioSpecError("n_nodes must be >= 2")
        if self.horizon <= 0:
            raise ScenarioSpecError("horizon must be positive")
        if self.poll_tick <= 0:
            raise ScenarioSpecError("poll_tick must be positive")
        if self.bucket_width <= 0:
            raise ScenarioSpecError("bucket_width must be positive")
        if not isinstance(self.workload, WorkloadSpec):
            raise ScenarioSpecError(
                "'workload' must be a WorkloadSpec "
                "(use ScenarioSpec.from_dict for plain dicts)"
            )
        self.workload.validate()
        self.corona_config()
        if self.links:
            from repro.faults.links import validate_links_config

            try:
                validate_links_config(self.links)
            except ValueError as error:
                raise ScenarioSpecError(f"links: {error}") from error
        for event in self.events:
            if not isinstance(event, tuple(EVENT_KINDS.values())):
                raise ScenarioSpecError(
                    f"events must be event dataclasses, got {event!r} "
                    "(use ScenarioSpec.from_dict for plain dicts)"
                )
            event.validate()
            if not 0 <= event.at <= self.horizon:
                raise ScenarioSpecError(
                    f"{event.kind} at t={event.at} outside the horizon "
                    f"[0, {self.horizon}]"
                )
            if (
                isinstance(event, FlashCrowd)
                and event.channel >= self.workload.n_channels
            ):
                raise ScenarioSpecError(
                    f"flash-crowd channel rank {event.channel} out of "
                    f"range (workload has {self.workload.n_channels} "
                    "channels)"
                )
            if (
                isinstance(event, SubscriptionFlap)
                and event.channels > self.workload.n_channels
            ):
                raise ScenarioSpecError(
                    f"subscription-flap pool of {event.channels} exceeds "
                    f"the workload's {self.workload.n_channels} channels"
                )
        self._validate_partition_timeline()
        self._validate_recovery_timeline()
        total_crashes = sum(
            event.count for event in self.events
            if isinstance(event, (NodeCrash, CorrelatedManagerFailure))
        )
        if total_crashes >= self.n_nodes:
            raise ScenarioSpecError(
                f"timeline crashes {total_crashes} of {self.n_nodes} "
                "nodes; at least one must survive"
            )
        for label, overrides in self.variants.items():
            if not isinstance(overrides, Mapping):
                raise ScenarioSpecError(
                    f"variant {label!r} overrides must be a mapping"
                )
            self.variant_spec(label).validate()

    def _validate_partition_timeline(self) -> None:
        """Partitions of one name must form open/close pairs in order.

        Catches at validation time what would otherwise crash mid-run
        (opening a name that is still open raises on the fault plane)
        or silently misbehave (a heal scheduled before its partition
        opens is a no-op, leaving the partition open forever).
        """
        opens: dict[str, list[Partition]] = {}
        heals: dict[str, list[float]] = {}
        for event in self.events:
            if isinstance(event, Partition):
                opens.setdefault(event.name, []).append(event)
            elif isinstance(event, PartitionHeal):
                heals.setdefault(event.name, []).append(event.at)
        for name in heals:
            if name not in opens:
                raise ScenarioSpecError(
                    f"partition-heal names {name!r} but no partition "
                    "event opens it"
                )
        for name, events in opens.items():
            events.sort(key=lambda ev: ev.at)
            pending_heals = sorted(heals.get(name, []))
            if pending_heals and pending_heals[0] < events[0].at:
                raise ScenarioSpecError(
                    f"partition-heal for {name!r} at "
                    f"t={pending_heals[0]} fires before the partition "
                    f"opens at t={events[0].at}"
                )
            open_until = float("-inf")
            for event in events:
                if event.at < open_until:
                    raise ScenarioSpecError(
                        f"partition {name!r} re-opens at t={event.at} "
                        "while still open (earlier one not healed yet)"
                    )
                while pending_heals and pending_heals[0] < event.at:
                    pending_heals.pop(0)
                if not pending_heals:
                    open_until = float("inf")  # open to the end
                else:
                    open_until = pending_heals.pop(0)

    def _validate_recovery_timeline(self) -> None:
        """Recoveries must revive nodes that are actually down.

        Mirrors the partition/heal pairing checks: a recovery that
        fires before any crash, or that revives more nodes than the
        timeline has crashed by then (net of earlier recoveries), is a
        spec bug — at runtime it would silently recover fewer nodes
        than declared, skewing the scenario's population arithmetic.
        Crash counts are the events' nominal counts; churn-wave ticks
        contribute ``crashes_per_tick`` per tick.
        """
        recoveries = sorted(
            (event for event in self.events
             if isinstance(event, NodeRecovery)),
            key=lambda ev: ev.at,
        )
        if not recoveries:
            return
        crash_times: list[tuple[float, int]] = []
        for event in self.events:
            if isinstance(event, (NodeCrash, CorrelatedManagerFailure)):
                crash_times.append((event.at, event.count))
            elif isinstance(event, ChurnWave) and event.crashes_per_tick:
                tick = event.at
                end = min(event.at + event.duration, self.horizon)
                while tick <= end:
                    crash_times.append((tick, event.crashes_per_tick))
                    tick += event.interval
        crash_times.sort(key=lambda pair: pair[0])
        recovered_so_far = 0
        for event in recoveries:
            crashed_before = sum(
                count for at, count in crash_times if at < event.at
            )
            if crashed_before == 0:
                raise ScenarioSpecError(
                    f"node-recovery at t={event.at} fires before any "
                    "crash; nothing is down to recover"
                )
            down = crashed_before - recovered_so_far
            if event.count > down:
                raise ScenarioSpecError(
                    f"node-recovery at t={event.at} revives "
                    f"{event.count} nodes but only {down} are down "
                    f"({crashed_before} crashed, {recovered_so_far} "
                    "already recovered)"
                )
            recovered_so_far += event.count

    # ------------------------------------------------------------------
    def variant_spec(self, label: str) -> "ScenarioSpec":
        """The spec with variant ``label``'s overrides applied."""
        if label not in self.variants:
            raise ScenarioSpecError(
                f"unknown variant {label!r}; scenario {self.name!r} "
                f"defines {sorted(self.variants)}"
            )
        overrides = dict(self.variants[label])
        workload_overrides = overrides.pop("workload", {})
        config_overrides = overrides.pop("config", {})
        events_override = overrides.pop("events", None)
        if "variants" in overrides or "name" in overrides:
            raise ScenarioSpecError(
                "variants cannot override 'name' or nest 'variants'"
            )
        if events_override is not None:
            # JSON-shaped timelines are allowed (the chaos variants
            # carry plain dicts so to_dict() stays JSON-safe).
            if isinstance(events_override, (str, bytes)) or not hasattr(
                events_override, "__iter__"
            ):
                raise ScenarioSpecError(
                    f"variant {label!r} 'events' must be a list of "
                    "events or event mappings"
                )
            overrides["events"] = tuple(
                _event_from_dict(entry) if isinstance(entry, Mapping)
                else entry
                for entry in events_override
            )
        if not isinstance(config_overrides, Mapping):
            raise ScenarioSpecError(
                f"variant {label!r} 'config' must be a mapping"
            )
        spec = _replace_checked(self, overrides, context=f"variant {label!r}")
        if config_overrides:
            # merged key-by-key: a scheme sweep must not reset the
            # base spec's other CoronaConfig customizations
            spec = dataclasses.replace(
                spec, config={**dict(self.config), **dict(config_overrides)}
            )
        if workload_overrides:
            workload = _replace_checked(
                spec.workload,
                dict(workload_overrides),
                context=f"variant {label!r} workload",
            )
            spec = dataclasses.replace(spec, workload=workload)
        return dataclasses.replace(spec, variants={})

    def variant_labels(self) -> list[str]:
        """Variant names in definition order (empty for plain specs)."""
        return list(self.variants)

    # ------------------------------------------------------------------
    # plain-dict round trip
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Build and validate a spec from a plain (JSON-shaped) dict."""
        if not isinstance(data, Mapping):
            raise ScenarioSpecError("scenario spec must be a mapping")
        payload = dict(data)
        workload_data = payload.pop("workload", {})
        events_data = payload.pop("events", [])
        if not isinstance(workload_data, Mapping):
            raise ScenarioSpecError("'workload' must be a mapping")
        if isinstance(events_data, (str, bytes)) or not hasattr(
            events_data, "__iter__"
        ):
            raise ScenarioSpecError("'events' must be a list of mappings")
        workload = _build_checked(
            WorkloadSpec, dict(workload_data), context="workload"
        )
        events = tuple(_event_from_dict(entry) for entry in events_data)
        spec = _build_checked(
            cls,
            {**payload, "workload": workload, "events": events},
            context="scenario",
        )
        spec.validate()
        return spec

    def to_dict(self) -> dict[str, Any]:
        """The JSON-shaped plain-dict form (``from_dict`` round-trips)."""
        events = []
        for event in self.events:
            entry = dataclasses.asdict(event)
            entry["kind"] = event.kind
            events.append(entry)
        return {
            "name": self.name,
            "description": self.description,
            "n_nodes": self.n_nodes,
            "horizon": self.horizon,
            "poll_tick": self.poll_tick,
            "bucket_width": self.bucket_width,
            "config": dict(self.config),
            "workload": dataclasses.asdict(self.workload),
            "links": dict(self.links),
            "events": events,
            "variants": {
                label: dict(overrides)
                for label, overrides in self.variants.items()
            },
        }


# ----------------------------------------------------------------------
def _event_from_dict(entry: Any) -> ScenarioEvent:
    if not isinstance(entry, Mapping):
        raise ScenarioSpecError("each event must be a mapping with a 'kind'")
    payload = dict(entry)
    kind = payload.pop("kind", None)
    if kind not in EVENT_KINDS:
        raise ScenarioSpecError(
            f"unknown event kind {kind!r}; known kinds: "
            f"{sorted(EVENT_KINDS)}"
        )
    return _build_checked(EVENT_KINDS[kind], payload, context=f"event {kind}")


def _field_names(cls: type) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def _build_checked(cls: type, payload: dict[str, Any], context: str):
    unknown = sorted(set(payload) - _field_names(cls))
    if unknown:
        raise ScenarioSpecError(f"unknown {context} field(s): {unknown}")
    try:
        return cls(**payload)
    except TypeError as error:
        raise ScenarioSpecError(f"bad {context}: {error}") from error


def _replace_checked(instance, overrides: dict[str, Any], context: str):
    unknown = sorted(set(overrides) - _field_names(type(instance)))
    if unknown:
        raise ScenarioSpecError(f"unknown {context} field(s): {unknown}")
    return dataclasses.replace(instance, **overrides)
