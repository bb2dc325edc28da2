"""Diff dissemination inside a wedge (paper §3.4).

A node that detects an update shares the diff with every other node at
the channel's polling level by flooding the wedge DAG rooted at
itself; the channel's manager additionally forwards the diff to the
subscription owners (which may sit outside the wedge near prefix
boundaries) so client notifications always fire.

Under fault injection every hop of the flood becomes unreliable:
:func:`deliver_plan` runs a delivery plan through a transmit decision
(per-hop ack/retransmit with a bounded budget, modelled by
:meth:`repro.faults.FaultPlane.transmit`) and honours the DAG
structure — a child whose link died never received the message, so
the hops it would have forwarded are never sent and its whole subtree
goes dark until the anti-entropy repair pass catches it up.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from repro.overlay.dag import dissemination_tree
from repro.overlay.nodeid import NodeId
from repro.overlay.routing import RoutingTable


def wedge_recipients(
    root: NodeId,
    tables: Mapping[NodeId, RoutingTable],
    channel: NodeId,
    level: int,
    base: int,
) -> list[tuple[NodeId, NodeId, int]]:
    """Per-hop delivery plan for flooding a diff through the wedge.

    Returns ``(sender, recipient, depth)`` triples in BFS order; the
    simulators charge one message per triple and delay delivery by the
    hop count.
    """
    parents = dissemination_tree(root, tables, channel, level, base)
    return [
        (parent, child, depth) for child, (parent, depth) in parents.items()
    ]


def deliver_plan(
    plan: list[tuple[NodeId, NodeId, int]],
    transmit: Callable[[NodeId, NodeId], object] | None = None,
) -> tuple[
    list[tuple[NodeId, int]], int, set[NodeId], dict[NodeId, float]
]:
    """Execute a delivery plan under an (optional) fault model.

    ``transmit(sender, recipient)`` returns an outcome with a
    ``deliveries`` count (0 = lost after retries, 2 = duplicated) and
    an optional per-hop ``delay``; ``None`` means perfect delivery.
    Hops whose sender never received the message (its own inbound hop
    failed) are *not* attempted — the flood is a physical relay, not
    a broadcast.

    Returns ``(deliveries, attempted, unreached, delay_to)``: the
    ``(recipient, copies)`` pairs that arrived, in plan order; the
    number of hops actually transmitted; the recipients that missed
    the message entirely; and each reached recipient's *cumulative*
    path delay (link latency, queueing and backoff waits summed down
    the relay chain — empty on the perfect path, where hops have no
    timing model).
    """
    if transmit is None:
        return (
            [(child, 1) for _parent, child, _depth in plan],
            len(plan),
            set(),
            {},
        )
    unreached: set[NodeId] = set()
    deliveries: list[tuple[NodeId, int]] = []
    delay_to: dict[NodeId, float] = {}
    attempted = 0
    for parent, child, _depth in plan:
        if parent in unreached:
            # The relay never got the message; its subtree goes dark.
            unreached.add(child)
            continue
        attempted += 1
        outcome = transmit(parent, child)
        copies = outcome.deliveries  # type: ignore[attr-defined]
        if copies:
            deliveries.append((child, copies))
            hop_delay = getattr(outcome, "delay", 0.0)
            inherited = delay_to.get(parent, 0.0)
            if hop_delay or inherited:
                delay_to[child] = inherited + hop_delay
        else:
            unreached.add(child)
    return deliveries, attempted, unreached, delay_to
