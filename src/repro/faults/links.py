"""Per-link network model: the adverse-network plane.

The :class:`~repro.faults.plane.FaultPlane` is uniform per message;
real WANs are not.  :class:`LinkTable` refines it with state keyed on
``(sender, recipient)`` — the ``transmit`` signature already carries
both endpoints — providing

* **asymmetric loss overrides**: a per-link (or per-node-direction, or
  per-DC-pair) loss probability that *replaces* the plane's global
  rate on that link and falls back to it where no override exists;
* **latency/jitter distributions**: a per-link base one-way delay plus
  a U(0, jitter) component, surfaced as ``TransmitOutcome.delay`` and
  accumulated along the dissemination path into each detection's
  end-to-end freshness;
* **bandwidth caps with token-bucket shaping**: a capped link admits
  ``burst`` same-instant messages, refills at ``bandwidth``
  messages/second, and spills the excess into a **bounded queue**
  whose occupants are delivered late (``backlog / bandwidth`` of
  queueing delay) and whose overflow is dropped — counted as
  ``queue_drops``, *distinct* from loss drops;
* **multi-DC latency-matrix topologies**: nodes are assigned to
  named groups (datacenters) and link specs attach to ordered group
  pairs, so a declarative matrix covers O(nodes²) links with O(DCs²)
  entries (:func:`build_link_table` / :func:`assign_topology`).

The protocol side adapts instead of hammering: every spec'd link keeps
a Jacobson/Karels **EWMA RTT estimator** whose retransmission timeout
drives **exponential backoff with deterministic jitter** — a retry
only happens if its backoff wait still fits the ``retry_window``, so a
congested link sheds retransmissions (``retries_suppressed``) rather
than burning the whole budget instantly.  Nodes whose outbound links
show sustained queue backpressure additionally **shed poll load**
(:meth:`LinkTable.should_shed_poll`, hysteresis thresholds): the
system skips the fetch, serves the cached (stale) snapshot and
stretches the task to the next interval, recovering as soon as the
backlog drains.

Determinism mirrors the plane's contract: the table owns its own
seeded generator (loss rolls, latency samples and backoff jitter never
perturb protocol randomness), and an **inactive table** — no specs
configured, or every imposition lifted before any message met it —
draws nothing and changes nothing, so installing an empty table is
bit-identical to installing none (``tests/faults`` extends the
equivalence suite to this layer).
"""

from __future__ import annotations

import random
from collections.abc import Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.faults.plane import TransmitOutcome

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (plane duck-types)
    from repro.faults.plane import FaultPlane

__all__ = [
    "LinkSpec",
    "LinkTable",
    "build_link_table",
    "assign_topology",
    "validate_links_config",
]


@dataclass(frozen=True)
class LinkSpec:
    """How one directed link misbehaves (all-default = clean link).

    ``loss`` of ``None`` means "no override — fall back to the plane's
    global rate"; ``0.0`` is a real override (a clean link through a
    lossy wide area).  ``bandwidth`` is in messages/second (protocol
    messages are diff-sized and roughly uniform, see §3.4's bandwidth
    argument); ``burst`` is the token-bucket capacity — how many
    same-instant messages the link absorbs before queueing — and
    ``queue_limit`` bounds the backlog behind it.
    """

    loss: float | None = None
    latency: float = 0.0
    jitter: float = 0.0
    bandwidth: float | None = None
    burst: float = 2.0
    queue_limit: int = 8

    def validate(self) -> None:
        if self.loss is not None and not 0.0 <= self.loss <= 1.0:
            raise ValueError("link loss override must be in [0, 1]")
        if self.latency < 0:
            raise ValueError("link latency cannot be negative")
        if self.jitter < 0:
            raise ValueError("link jitter cannot be negative")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError("link bandwidth must be positive when set")
        if self.burst < 1:
            raise ValueError("link burst must be >= 1")
        if self.queue_limit < 1:
            raise ValueError("link queue_limit must be >= 1")

    @property
    def hostile(self) -> bool:
        """Does this spec change anything about a clean link?"""
        return (
            self.loss is not None
            or self.latency > 0.0
            or self.jitter > 0.0
            or self.bandwidth is not None
        )


def _merge_specs(specs: Sequence[LinkSpec]) -> LinkSpec:
    """Compose overlapping impositions on one link.

    Losses and delays add (two independent impairments both apply,
    matching the plane's additive rate composition); bandwidth caps
    and queue bounds take the most restrictive value.
    """
    if len(specs) == 1:
        return specs[0]
    loss: float | None = None
    latency = 0.0
    jitter = 0.0
    bandwidth: float | None = None
    burst: float | None = None
    queue_limit: int | None = None
    for spec in specs:
        if spec.loss is not None:
            loss = (loss or 0.0) + spec.loss
        latency += spec.latency
        jitter += spec.jitter
        if spec.bandwidth is not None:
            if bandwidth is None or spec.bandwidth < bandwidth:
                bandwidth = spec.bandwidth
                burst = spec.burst
            queue_limit = (
                spec.queue_limit
                if queue_limit is None
                else min(queue_limit, spec.queue_limit)
            )
    if loss is not None:
        loss = min(1.0, loss)
    return LinkSpec(
        loss=loss,
        latency=latency,
        jitter=jitter,
        bandwidth=bandwidth,
        burst=burst if burst is not None else 2.0,
        queue_limit=queue_limit if queue_limit is not None else 8,
    )


class _LinkState:
    """Mutable per-directed-link runtime state (created lazily)."""

    __slots__ = (
        "tokens",
        "updated",
        "backlog",
        "enqueued",
        "drained",
        "overflowed",
        "srtt",
        "rttvar",
    )

    def __init__(self, now: float, burst: float) -> None:
        self.tokens = burst
        self.updated = now
        self.backlog = 0
        self.enqueued = 0
        self.drained = 0
        self.overflowed = 0
        self.srtt: float | None = None
        self.rttvar = 0.0


@dataclass
class LinkTable:
    """Deterministic per-link loss/latency/bandwidth model (module doc).

    Specs attach at three precedences, all merged additively when they
    overlap (:func:`_merge_specs`): exact ``(sender, recipient)``
    pairs, node-directional wildcards (every link *out of* or *into* a
    node — what the :class:`~repro.scenarios.spec.LinkDegradation`
    timeline event imposes), and ordered group pairs over the node →
    group assignment (the multi-DC matrix).  ``impose``/``lift`` give
    timeline events scoped, always-healing handles.
    """

    seed: int = 0
    #: Time budget one logical message may spend in backoff waits; a
    #: retransmission whose wait would overflow it is suppressed.
    retry_window: float = 60.0
    rto_min: float = 0.2
    rto_max: float = 30.0
    #: Shed hysteresis on max outbound backlog/queue_limit utilization.
    shed_threshold: float = 0.75
    shed_recover: float = 0.25
    rng: random.Random = field(init=False)

    def __post_init__(self) -> None:
        if self.retry_window <= 0:
            raise ValueError("retry_window must be positive")
        if not 0 < self.rto_min <= self.rto_max:
            raise ValueError("need 0 < rto_min <= rto_max")
        if not 0.0 < self.shed_recover < self.shed_threshold <= 1.0:
            raise ValueError(
                "need 0 < shed_recover < shed_threshold <= 1"
            )
        self.rng = random.Random(f"link-table-{self.seed}")
        self.now = 0.0
        self._pair: dict[tuple[Hashable, Hashable], list[LinkSpec]] = {}
        self._outbound: dict[Hashable, list[LinkSpec]] = {}
        self._inbound: dict[Hashable, list[LinkSpec]] = {}
        self._group_of: dict[Hashable, str] = {}
        self._group_pair: dict[tuple[str, str], list[LinkSpec]] = {}
        self._states: dict[tuple[Hashable, Hashable], _LinkState] = {}
        self._out_index: dict[
            Hashable, list[tuple[Hashable, Hashable]]
        ] = {}
        self._shedding: set[Hashable] = set()
        self._impositions: dict[int, list[tuple[dict, Hashable]]] = {}
        self._next_handle = 0
        self._epoch = 0
        self._merged: dict[
            tuple[Hashable, Hashable], tuple[int, LinkSpec | None]
        ] = {}

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """True when any link spec is currently configured."""
        return bool(
            self._pair
            or self._outbound
            or self._inbound
            or self._group_pair
        )

    def assign_group(self, node: Hashable, group: str) -> None:
        """Place ``node`` in topology group ``group`` (e.g. a DC)."""
        self._group_of[node] = group
        self._epoch += 1

    def set_group_link(
        self, src_group: str, dst_group: str, spec: LinkSpec
    ) -> None:
        """Attach ``spec`` to every link from ``src`` to ``dst`` group."""
        spec.validate()
        self._group_pair.setdefault((src_group, dst_group), []).append(spec)
        self._epoch += 1

    def set_link(
        self, sender: Hashable, recipient: Hashable, spec: LinkSpec
    ) -> None:
        """Attach ``spec`` to the exact directed link (permanent)."""
        spec.validate()
        self._pair.setdefault((sender, recipient), []).append(spec)
        self._epoch += 1

    def impose(
        self,
        spec: LinkSpec,
        senders: Iterable[Hashable] = (),
        recipients: Iterable[Hashable] = (),
        pairs: Iterable[tuple[Hashable, Hashable]] = (),
    ) -> int:
        """Impose ``spec`` on a scoped set of links; returns a handle.

        ``senders`` degrades every link out of those nodes,
        ``recipients`` every link into them, ``pairs`` exact directed
        links.  :meth:`lift` with the returned handle removes exactly
        this imposition (timeline events heal themselves with it).
        """
        spec.validate()
        entries: list[tuple[dict, Hashable]] = []
        for node in senders:
            self._outbound.setdefault(node, []).append(spec)
            entries.append((self._outbound, node))
        for node in recipients:
            self._inbound.setdefault(node, []).append(spec)
            entries.append((self._inbound, node))
        for pair in pairs:
            self._pair.setdefault(pair, []).append(spec)
            entries.append((self._pair, pair))
        handle = self._next_handle
        self._next_handle += 1
        self._impositions[handle] = [
            (table, key, spec) for table, key in entries
        ]  # type: ignore[misc]
        self._epoch += 1
        return handle

    def lift(self, handle: int) -> None:
        """Remove a previous :meth:`impose` (idempotent)."""
        entries = self._impositions.pop(handle, None)
        if entries is None:
            return
        for table, key, spec in entries:
            specs = table.get(key)
            if specs is None:
                continue
            try:
                specs.remove(spec)
            except ValueError:
                pass
            if not specs:
                del table[key]
        self._epoch += 1
        # Links whose cap was just lifted flush on the next advance();
        # the *shedding* latch clears there too, once backlogs drain.

    # ------------------------------------------------------------------
    # spec resolution
    # ------------------------------------------------------------------
    def spec_for(
        self, sender: Hashable, recipient: Hashable
    ) -> LinkSpec | None:
        """The merged spec governing one directed link (None = clean)."""
        key = (sender, recipient)
        cached = self._merged.get(key)
        if cached is not None and cached[0] == self._epoch:
            return cached[1]
        specs: list[LinkSpec] = []
        specs.extend(self._pair.get(key, ()))
        specs.extend(self._outbound.get(sender, ()))
        specs.extend(self._inbound.get(recipient, ()))
        src_group = self._group_of.get(sender)
        dst_group = self._group_of.get(recipient)
        if src_group is not None and dst_group is not None:
            specs.extend(self._group_pair.get((src_group, dst_group), ()))
        merged = _merge_specs(specs) if specs else None
        if merged is not None and not merged.hostile:
            merged = None
        self._merged[key] = (self._epoch, merged)
        return merged

    # ------------------------------------------------------------------
    # clock / token buckets
    # ------------------------------------------------------------------
    def advance(self, now: float) -> None:
        """Move the table clock forward; refill buckets, drain queues.

        Called by the system at the top of every poll batch and
        maintenance round.  With no states (the inactive table) this
        is a float compare and nothing else.
        """
        if now <= self.now:
            return
        self.now = now
        if not self._states:
            return
        for key, state in self._states.items():
            self._refill(key, state)

    def _refill(
        self, key: tuple[Hashable, Hashable], state: _LinkState
    ) -> None:
        spec = self.spec_for(*key)
        if spec is None or spec.bandwidth is None:
            # The cap is gone (imposition lifted): the link is fast
            # again, so the whole backlog ships immediately.
            if state.backlog:
                state.drained += state.backlog
                state.backlog = 0
            state.updated = self.now
            return
        dt = self.now - state.updated
        if dt > 0:
            state.tokens = min(
                spec.burst, state.tokens + dt * spec.bandwidth
            )
            drain = min(state.backlog, int(state.tokens))
            if drain:
                state.backlog -= drain
                state.drained += drain
                state.tokens -= drain
        state.updated = self.now

    def _state(self, key: tuple[Hashable, Hashable]) -> _LinkState:
        state = self._states.get(key)
        if state is None:
            spec = self.spec_for(*key)
            burst = spec.burst if spec is not None else 2.0
            state = _LinkState(self.now, burst)
            self._states[key] = state
            self._out_index.setdefault(key[0], []).append(key)
        return state

    # ------------------------------------------------------------------
    # the message-level model
    # ------------------------------------------------------------------
    def transmit(
        self, sender: Hashable, recipient: Hashable, plane: "FaultPlane"
    ) -> TransmitOutcome:
        """One logical message over a possibly-hostile link.

        Order of hazards: partition (deterministic, no randomness) →
        bandwidth admission (token bucket, bounded queue, overflow
        drop) → per-attempt loss with adaptive backoff retransmits →
        duplication.  ``delay`` carries queueing wait, backoff waits
        and the sampled link latency.
        """
        counters = plane.counters
        if plane.partitioned(sender, recipient):
            attempts = plane.retry_budget + 1
            counters.messages_dropped += attempts
            counters.retransmissions += plane.retry_budget
            plane.ever_active = True
            return TransmitOutcome(deliveries=0, attempts=attempts)
        spec = self.spec_for(sender, recipient)
        if spec is None:
            # No override on this link: the plane's uniform model
            # applies unchanged (global rates, immediate re-rolls).
            return plane.transmit_uniform(sender, recipient)
        state = self._state((sender, recipient))
        queue_wait = 0.0
        if spec.bandwidth is not None:
            self._refill((sender, recipient), state)
            if state.tokens >= 1.0:
                state.tokens -= 1.0
            elif state.backlog < spec.queue_limit:
                state.backlog += 1
                state.enqueued += 1
                counters.queued_messages += 1
                plane.ever_active = True
                queue_wait = state.backlog / spec.bandwidth
            else:
                # Queue overflow: dropped *and not retransmitted* — an
                # immediate retry would meet the same full queue, so
                # the sender backs off and leaves catch-up to the
                # anti-entropy repair pass.  Counted separately from
                # loss drops.
                state.overflowed += 1
                counters.queue_drops += 1
                plane.ever_active = True
                return TransmitOutcome(deliveries=0, attempts=1)
        loss = (
            spec.loss
            if spec.loss is not None
            else plane.effective_loss_rate()
        )
        rto = self._current_rto(state, spec)
        elapsed = queue_wait
        attempts = 0
        delivered = False
        for attempt in range(plane.retry_budget + 1):
            attempts += 1
            if loss > 0.0 and self.rng.random() < loss:
                counters.messages_dropped += 1
                plane.ever_active = True
                if attempt >= plane.retry_budget:
                    break
                # Adaptive retransmission: wait one backed-off RTO
                # (estimated, not instantaneous) before the re-send;
                # if the wait no longer fits the retry window the
                # remaining budget is shed instead of spent.
                wait = (
                    rto
                    * (2.0**attempt)
                    * (1.0 + self.rng.uniform(0.0, 0.25))
                )
                if elapsed + wait > self.retry_window:
                    counters.retries_suppressed += (
                        plane.retry_budget - attempt
                    )
                    break
                elapsed += wait
                continue
            delivered = True
            break
        counters.retransmissions += attempts - 1
        if not delivered:
            return TransmitOutcome(
                deliveries=0, attempts=attempts, delay=elapsed
            )
        hop_delay = spec.latency
        if spec.jitter > 0.0:
            hop_delay += self.rng.uniform(0.0, spec.jitter)
        # queue_wait is already in ``elapsed``; the RTT the sender
        # *observes* includes it (that is what makes the RTO back off
        # under congestion), the propagation delay does not.
        self._observe_rtt(state, 2.0 * (hop_delay + queue_wait))
        deliveries = 1
        duplicate = plane.effective_duplicate_rate()
        if duplicate > 0.0 and self.rng.random() < duplicate:
            deliveries = 2
            counters.messages_duplicated += 1
        return TransmitOutcome(
            deliveries=deliveries,
            attempts=attempts,
            delay=elapsed + hop_delay,
        )

    def _current_rto(self, state: _LinkState, spec: LinkSpec) -> float:
        """Jacobson/Karels RTO from the link's EWMA estimator."""
        if state.srtt is None:
            # No samples yet: seed from the configured base latency so
            # a slow link starts patient instead of spamming.
            return min(
                self.rto_max, max(self.rto_min, 2.0 * spec.latency)
            )
        return min(
            self.rto_max,
            max(self.rto_min, state.srtt + 4.0 * state.rttvar),
        )

    @staticmethod
    def _observe_rtt(state: _LinkState, sample: float) -> None:
        if state.srtt is None:
            state.srtt = sample
            state.rttvar = sample / 2.0
            return
        state.rttvar += 0.25 * (abs(state.srtt - sample) - state.rttvar)
        state.srtt += 0.125 * (sample - state.srtt)

    # ------------------------------------------------------------------
    # backpressure / load shedding
    # ------------------------------------------------------------------
    def backpressure(self, node: Hashable) -> float:
        """Max backlog utilization across ``node``'s outbound links."""
        keys = self._out_index.get(node)
        if not keys:
            return 0.0
        worst = 0.0
        for key in keys:
            state = self._states[key]
            spec = self.spec_for(*key)
            if spec is None or spec.bandwidth is None:
                continue
            self._refill(key, state)
            utilization = state.backlog / spec.queue_limit
            if utilization > worst:
                worst = utilization
        return worst

    def should_shed_poll(self, node: Hashable) -> bool:
        """Is ``node`` under sustained outbound queue backpressure?

        Hysteresis: shedding starts at ``shed_threshold`` utilization
        and ends below ``shed_recover``, so one drained token does not
        flap the node between modes.  Purely a function of queue
        state — no randomness.

        A sample is not free of effects: it refills ``node``'s capped
        links to the table clock (``_refill`` split into steps differs
        from one step once the burst cap binds) and the hysteresis set
        remembers its verdict.  The system samples a node once per
        poll batch in which it has a poll due, just before the first
        one; a node with nothing due is not sampled, so it keeps its
        ``_shedding`` membership and its links' refill stamps until
        its next due poll.
        """
        utilization = self.backpressure(node)
        if node in self._shedding:
            if utilization <= self.shed_recover:
                self._shedding.discard(node)
                return False
            return True
        if utilization >= self.shed_threshold:
            self._shedding.add(node)
            return True
        return False

    # ------------------------------------------------------------------
    # accounting (read by the queue-conservation invariant monitor)
    # ------------------------------------------------------------------
    def queue_totals(self) -> dict[str, int]:
        """Aggregate queue accounting across every link state."""
        totals = {"enqueued": 0, "drained": 0, "backlog": 0, "overflowed": 0}
        for state in self._states.values():
            totals["enqueued"] += state.enqueued
            totals["drained"] += state.drained
            totals["backlog"] += state.backlog
            totals["overflowed"] += state.overflowed
        return totals

    def conservation_errors(self) -> list[str]:
        """Queue-conservation violations (empty = accounting holds).

        Every message offered to a capped link must be delivered
        (immediately or from the queue), dropped-with-count (overflow)
        or still sitting in a bounded backlog — nothing vanishes:
        per link ``enqueued == drained + backlog`` with
        ``0 <= backlog <= queue_limit``.  Read-only.
        """
        errors: list[str] = []
        for key, state in self._states.items():
            if state.enqueued != state.drained + state.backlog:
                errors.append(
                    f"link {key[0]!s}->{key[1]!s}: enqueued "
                    f"{state.enqueued} != drained {state.drained} + "
                    f"backlog {state.backlog}"
                )
            if state.backlog < 0:
                errors.append(
                    f"link {key[0]!s}->{key[1]!s}: negative backlog "
                    f"{state.backlog}"
                )
            spec = self.spec_for(*key)
            if (
                spec is not None
                and spec.bandwidth is not None
                and state.backlog > spec.queue_limit
            ):
                errors.append(
                    f"link {key[0]!s}->{key[1]!s}: backlog "
                    f"{state.backlog} exceeds queue_limit "
                    f"{spec.queue_limit}"
                )
        return errors


# ----------------------------------------------------------------------
# declarative topology config (ScenarioSpec.links)
# ----------------------------------------------------------------------
_LINKS_CONFIG_KEYS = frozenset(
    {
        "topology",
        "dcs",
        "intra_latency",
        "inter_latency",
        "latency_matrix",
        "jitter_fraction",
        "inter_loss",
        "inter_bandwidth",
        "burst",
        "queue_limit",
    }
)


def validate_links_config(config: Mapping) -> None:
    """Validate a ``ScenarioSpec.links`` mapping (raises ValueError)."""
    if not isinstance(config, Mapping):
        raise ValueError("links config must be a mapping")
    unknown = sorted(set(config) - _LINKS_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown links config key(s): {unknown}")
    topology = config.get("topology")
    if topology != "multi-dc":
        raise ValueError(
            f"links topology must be 'multi-dc', got {topology!r}"
        )
    dcs = config.get("dcs", 2)
    if not isinstance(dcs, int) or dcs < 2:
        raise ValueError("links dcs must be an int >= 2")
    matrix = config.get("latency_matrix")
    if matrix is not None:
        if len(matrix) != dcs or any(len(row) != dcs for row in matrix):
            raise ValueError(
                f"latency_matrix must be {dcs}x{dcs} to match dcs"
            )
        if any(value < 0 for row in matrix for value in row):
            raise ValueError("latency_matrix entries cannot be negative")
    for key in ("intra_latency", "inter_latency"):
        value = config.get(key, 0.0)
        if value < 0:
            raise ValueError(f"links {key} cannot be negative")
    fraction = config.get("jitter_fraction", 0.0)
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("links jitter_fraction must be in [0, 1]")
    loss = config.get("inter_loss", 0.0)
    if not 0.0 <= loss <= 1.0:
        raise ValueError("links inter_loss must be in [0, 1]")
    bandwidth = config.get("inter_bandwidth")
    if bandwidth is not None and bandwidth <= 0:
        raise ValueError("links inter_bandwidth must be positive when set")
    # Reuse LinkSpec's own validation for the queue knobs.
    LinkSpec(
        burst=config.get("burst", 2.0),
        queue_limit=config.get("queue_limit", 8),
    ).validate()


def build_link_table(config: Mapping, seed: int = 0) -> LinkTable:
    """A :class:`LinkTable` with the declarative topology's group specs.

    Group pair ``(dc-i, dc-j)`` gets the matrix latency (or the
    uniform ``intra_latency``/``inter_latency`` split), a jitter of
    ``jitter_fraction`` of that latency, and — off-diagonal only — the
    ``inter_loss`` override and ``inter_bandwidth`` cap.  Node → group
    assignment happens later, once the population exists
    (:func:`assign_topology`).
    """
    validate_links_config(config)
    table = LinkTable(seed=seed)
    dcs = config.get("dcs", 2)
    matrix = config.get("latency_matrix")
    intra = config.get("intra_latency", 0.0)
    inter = config.get("inter_latency", 0.0)
    jitter_fraction = config.get("jitter_fraction", 0.0)
    inter_loss = config.get("inter_loss", 0.0)
    inter_bandwidth = config.get("inter_bandwidth")
    burst = config.get("burst", 2.0)
    queue_limit = config.get("queue_limit", 8)
    for i in range(dcs):
        for j in range(dcs):
            latency = (
                float(matrix[i][j])
                if matrix is not None
                else (intra if i == j else inter)
            )
            crossing = i != j
            spec = LinkSpec(
                loss=inter_loss if crossing and inter_loss > 0 else None,
                latency=latency,
                jitter=latency * jitter_fraction,
                bandwidth=inter_bandwidth if crossing else None,
                burst=burst,
                queue_limit=queue_limit,
            )
            if spec.hostile:
                table.set_group_link(f"dc-{i}", f"dc-{j}", spec)
    return table


def assign_topology(
    table: LinkTable, nodes: Iterable[Hashable], dcs: int
) -> None:
    """Assign ``nodes`` round-robin over ``dcs`` datacenter groups.

    Deterministic in the iteration order of ``nodes`` (callers pass
    the system's insertion-ordered population), so the same spec +
    seed always yields the same node placement.
    """
    for index, node in enumerate(nodes):
        table.assign_group(node, f"dc-{index % dcs}")
