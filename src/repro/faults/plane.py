"""The message-delivery fault model.

:class:`FaultPlane` decides the fate of every message the simulators
offer it: per-link loss (re-rolled per retransmission, so a bounded
retry budget genuinely helps), duplication (delivering the same
message twice, exercising the protocol's §3.4 dedup paths), reorder
jitter (extra end-to-end delay standing in for out-of-order delivery,
which a synchronous hop has no queue to express) and named partitions
(every link crossing the partition boundary is deterministically dead
until the partition heals).

Determinism has two layers:

* the plane owns its own :class:`random.Random`, so fault decisions
  never perturb protocol or workload randomness — a run with faults
  differs from its fault-free twin only through the messages the
  faults actually touched;
* an **inactive** plane (all rates zero, no partitions) draws no
  randomness at all and returns constant outcomes, so installing
  ``FaultPlane.none()`` is bit-identical to running with no plane —
  the equivalence contract ``tests/faults/test_fault_equivalence.py``
  enforces.

``ever_active`` latches the first moment the plane could have harmed
a message; the system uses it to skip the anti-entropy repair scan on
runs where nothing can need repair.
"""

from __future__ import annotations

import random
from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field

from repro.obs.metrics import CounterStruct
from repro.simulation.latency import JitterModel


class FaultCounters(CounterStruct):
    """What the plane (and the protocol reacting to it) did.

    ``messages_dropped`` counts individual failed transmissions
    (retransmissions that also died included); ``retransmissions``
    counts the re-sends the per-hop ack/retry protocol performed;
    ``repair_diffs`` counts anti-entropy repairs the maintenance
    rounds shipped; ``failed_polls`` counts polls that exhausted
    their retry budget without reaching the server;
    ``manager_failovers`` counts unresponsive managers the cloud
    declared dead and re-homed through the crash-repair path;
    ``repair_urls_skipped`` counts channels the anti-entropy scan
    proved clean from its dirty set and never walked (work the
    O(change) repair pass saved — registry-only, not a gated
    scenario metric).
    """

    SERIES = (
        (
            "messages_dropped",
            "messages_dropped",
            "individual failed transmissions, retransmissions included",
        ),
        (
            "messages_duplicated",
            "messages_duplicated",
            "messages delivered twice by the duplication fault",
        ),
        (
            "retransmissions",
            "retransmissions",
            "re-sends performed by the per-hop ack/retry protocol",
        ),
        (
            "repair_diffs",
            "repair_diffs",
            "anti-entropy repairs shipped by maintenance rounds",
        ),
        (
            "failed_polls",
            "failed_polls",
            "polls that exhausted their retry budget",
        ),
        (
            "poll_retries",
            "poll_retries",
            "poll re-attempts before success or budget exhaustion",
        ),
        (
            "manager_failovers",
            "manager_failovers",
            "unresponsive managers re-homed via crash repair",
        ),
        (
            "repair_urls_skipped",
            "repair_urls_skipped",
            "channels the dirty-set repair scan proved clean and skipped",
        ),
        (
            "queued_messages",
            "queued_messages",
            "messages delayed in a bandwidth-capped link's queue",
        ),
        (
            "queue_drops",
            "queue_drops",
            "messages dropped by bounded link-queue overflow (not loss)",
        ),
        (
            "retries_suppressed",
            "retries_suppressed",
            "retransmissions shed because backoff outgrew the window",
        ),
        (
            "polls_shed",
            "polls_shed",
            "polls skipped under queue backpressure (stale serve)",
        ),
    )


@dataclass(frozen=True)
class PartitionIsland:
    """One active named partition.

    ``members`` is the isolated side; every link between a member and
    a non-member is dead while the partition holds.
    ``isolates_servers`` additionally cuts members off from the
    exogenous content servers.
    """

    name: str
    members: frozenset = frozenset()
    isolates_servers: bool = False

    def separates(self, a: Hashable, b: Hashable) -> bool:
        return (a in self.members) != (b in self.members)


@dataclass(frozen=True)
class TransmitOutcome:
    """The fate of one logical message.

    ``deliveries`` is how many copies arrived (0 = lost after the
    whole retry budget, 2 = delivered plus a duplicate); ``attempts``
    is the number of transmissions spent (1 + retransmissions);
    ``delay`` is the extra end-to-end latency the link added (queueing
    wait + backoff waits + sampled link latency — 0.0 on the uniform
    path, which has no per-link timing model).
    """

    deliveries: int
    attempts: int
    delay: float = 0.0

    @property
    def delivered(self) -> bool:
        return self.deliveries > 0


#: The constant outcome of an inactive plane (no allocation per call).
CLEAN_DELIVERY = TransmitOutcome(deliveries=1, attempts=1)


def _snap(value: float, epsilon: float = 1e-9) -> float:
    """Clamp to zero, absorbing float residue below ``epsilon``."""
    return value if value > epsilon else 0.0


def _effective_rate(accumulated: float) -> float:
    """A probability from the (unclamped) additive accumulator."""
    return min(1.0, accumulated)


@dataclass
class FaultPlane:
    """Deterministic, seeded message-delivery model (module doc).

    Rates compose additively (the scenario timeline raises them at an
    event's start and lowers them back at its end, so overlapping
    loss events never cancel each other), partitions are named and
    heal individually.  ``retry_budget`` bounds the per-hop
    retransmissions the protocol spends before giving up on a link;
    ``manager_failure_rounds`` is how many consecutive all-delivery-
    failed maintenance rounds the cloud tolerates before declaring a
    manager dead and triggering crash repair.
    """

    seed: int = 0
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_jitter: float = 0.0
    retry_budget: int = 2
    manager_failure_rounds: int = 2
    counters: FaultCounters = field(default_factory=FaultCounters)
    rng: random.Random = field(init=False)
    jitter: JitterModel = field(init=False)
    #: Latched True the first time a message or poll is actually
    #: dropped; never cleared (a healed partition may already have
    #: cost someone a diff, so repair scans must keep running).  A
    #: plane that is merely *configured* with faults but has harmed
    #: nothing yet stays False — nothing can need repair, and the
    #: protocol's fault-reaction machinery stays cold, preserving
    #: bit-identity with fault-free runs.
    ever_active: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError("loss_rate must be in [0, 1]")
        if not 0.0 <= self.duplicate_rate <= 1.0:
            raise ValueError("duplicate_rate must be in [0, 1]")
        if self.reorder_jitter < 0:
            raise ValueError("reorder_jitter cannot be negative")
        if self.retry_budget < 0:
            raise ValueError("retry_budget cannot be negative")
        if self.manager_failure_rounds < 1:
            raise ValueError("manager_failure_rounds must be >= 1")
        self.rng = random.Random(f"fault-plane-{self.seed}")
        self.jitter = JitterModel(width=self.reorder_jitter, rng=self.rng)
        self.partitions: dict[str, PartitionIsland] = {}
        # Optional per-link refinement (repro.faults.links.LinkTable),
        # duck-typed to keep the import acyclic.  None or an inactive
        # table leaves every path below byte-identical.
        self.links = None

    # ------------------------------------------------------------------
    @classmethod
    def none(cls, seed: int = 0) -> FaultPlane:
        """A plane that never harms a message (perfect delivery)."""
        return cls(seed=seed)

    @property
    def active(self) -> bool:
        """True when the plane can currently affect a message."""
        return bool(
            self.loss_rate > 0.0
            or self.duplicate_rate > 0.0
            or self.reorder_jitter > 0.0
            or self.partitions
            or (self.links is not None and self.links.active)
        )

    def install_links(self, table) -> None:
        """Attach a per-link table refining the uniform model."""
        self.links = table

    def observe_time(self, now: float) -> None:
        """Advance the link table's clock (token refill, queue drain).

        A no-op without a table; with an inactive table it is a float
        compare — no randomness, no state, byte-identity preserved.
        """
        if self.links is not None:
            self.links.advance(now)

    # ------------------------------------------------------------------
    # timeline mutators
    # ------------------------------------------------------------------
    def add_loss(
        self,
        rate: float,
        duplicate_rate: float = 0.0,
        jitter: float = 0.0,
    ) -> None:
        """Raise the degradation rates (additively composable).

        The stored accumulators are *not* clamped — overlapping events
        whose rates sum past 1.0 must subtract back to the surviving
        event's exact rate when one ends.  Sampling clamps instead
        (:meth:`_effective_rate`).
        """
        self.loss_rate += rate
        self.duplicate_rate += duplicate_rate
        self.reorder_jitter += jitter
        self.jitter.width = self.reorder_jitter

    def remove_loss(
        self,
        rate: float,
        duplicate_rate: float = 0.0,
        jitter: float = 0.0,
    ) -> None:
        """Undo a previous :meth:`add_loss` (clamped at zero).

        Floating-point residue from stacked add/remove pairs is
        snapped to exactly zero — a 1e-17 "loss rate" must not keep
        the plane active (and drawing randomness) forever.
        """
        self.loss_rate = _snap(self.loss_rate - rate)
        self.duplicate_rate = _snap(self.duplicate_rate - duplicate_rate)
        self.reorder_jitter = _snap(self.reorder_jitter - jitter)
        self.jitter.width = self.reorder_jitter

    def partition(
        self,
        name: str,
        members: Iterable[Hashable] = (),
        isolates_servers: bool = False,
    ) -> PartitionIsland:
        """Open a named partition isolating ``members``."""
        if name in self.partitions:
            raise ValueError(f"partition {name!r} is already active")
        island = PartitionIsland(
            name=name,
            members=frozenset(members),
            isolates_servers=isolates_servers,
        )
        self.partitions[name] = island
        return island

    def heal(self, name: str) -> PartitionIsland:
        """Close the named partition; links across it work again."""
        island = self.partitions.pop(name, None)
        if island is None:
            raise ValueError(f"no active partition named {name!r}")
        return island

    # ------------------------------------------------------------------
    # message-level model
    # ------------------------------------------------------------------
    def partitioned(self, sender: Hashable, recipient: Hashable) -> bool:
        """True when an active partition separates the endpoints."""
        return any(
            island.separates(sender, recipient)
            for island in self.partitions.values()
        )

    def server_reachable(self, node: Hashable) -> bool:
        """Can ``node`` currently reach the content servers?"""
        return not any(
            island.isolates_servers and node in island.members
            for island in self.partitions.values()
        )

    def transmit(
        self, sender: Hashable, recipient: Hashable
    ) -> TransmitOutcome:
        """Decide the fate of one message with per-hop retransmits.

        Each failed transmission is retried (loss re-rolled) up to
        ``retry_budget`` times; a partitioned link fails every attempt
        without touching the generator.  Inactive planes return the
        shared clean outcome and draw nothing.

        With an active link table installed, the per-link model takes
        over for this hop: link-specific loss overrides, token-bucket
        bandwidth shaping and adaptive backed-off retransmits — links
        without an override fall back to the uniform path below.
        """
        if not self.active:
            return CLEAN_DELIVERY
        if self.links is not None and self.links.active:
            return self.links.transmit(sender, recipient, self)
        return self.transmit_uniform(sender, recipient)

    def transmit_uniform(
        self, sender: Hashable, recipient: Hashable
    ) -> TransmitOutcome:
        """The uniform (pre-link-table) model: global rates, immediate
        re-rolls.  Also the fallback for links with no override."""
        counters = self.counters
        if self.partitioned(sender, recipient):
            attempts = self.retry_budget + 1
            counters.messages_dropped += attempts
            counters.retransmissions += self.retry_budget
            self.ever_active = True
            return TransmitOutcome(deliveries=0, attempts=attempts)
        loss = _effective_rate(self.loss_rate)
        attempts = 0
        delivered = False
        for _ in range(self.retry_budget + 1):
            attempts += 1
            if loss > 0.0 and self.rng.random() < loss:
                counters.messages_dropped += 1
                self.ever_active = True
                continue
            delivered = True
            break
        counters.retransmissions += attempts - 1
        if not delivered:
            return TransmitOutcome(deliveries=0, attempts=attempts)
        deliveries = 1
        duplicate = _effective_rate(self.duplicate_rate)
        if duplicate > 0.0 and self.rng.random() < duplicate:
            deliveries = 2
            counters.messages_duplicated += 1
        return TransmitOutcome(deliveries=deliveries, attempts=attempts)

    def poll_attempt(self, node: Hashable) -> bool:
        """One poll of an exogenous server, with timeout/retry.

        The round trip to a content server crosses the same lossy
        wide area as overlay messages; a node whose partition isolates
        the servers fails deterministically.  Returns True when any
        attempt got through.
        """
        if not self.active:
            return True
        counters = self.counters
        if not self.server_reachable(node):
            counters.failed_polls += 1
            counters.poll_retries += self.retry_budget
            self.ever_active = True
            return False
        loss = _effective_rate(self.loss_rate)
        if loss <= 0.0:
            return True
        for attempt in range(self.retry_budget + 1):
            if self.rng.random() >= loss:
                counters.poll_retries += attempt
                return True
        counters.poll_retries += self.retry_budget
        counters.failed_polls += 1
        self.ever_active = True
        return False

    def detection_jitter(self) -> float:
        """Extra end-to-end delay modelling reordering (0 when off)."""
        if not self.active:
            return 0.0
        return self.jitter.sample()

    def effective_loss_rate(self) -> float:
        """The per-transmission drop probability actually sampled.

        The stored accumulator is additive and unclamped (so stacked
        events undo exactly); consumers that need the probability —
        such as the per-link model falling back to the global rate —
        must use this clamped view, like :meth:`transmit` itself does.
        """
        return _effective_rate(self.loss_rate)

    def effective_duplicate_rate(self) -> float:
        """The per-delivery duplication probability actually sampled."""
        return _effective_rate(self.duplicate_rate)
