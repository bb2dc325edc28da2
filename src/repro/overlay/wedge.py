"""Wedge membership — the heart of cooperative polling.

A *wedge* (paper §3.1, Figure 2) is the set of nodes whose identifiers
share a given number of prefix digits with a channel identifier.  A
channel at polling level ``l`` is polled by its level-``l`` wedge,
about ``N / b^l`` nodes.  Level 0 is the whole ring; the *baselevel*
``K = ceil(log_b N)`` typically contains only the channel's owner.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from repro.overlay.nodeid import NodeId


def wedge_members(
    channel: NodeId, level: int, nodes: Iterable[NodeId], base: int
) -> list[NodeId]:
    """Return the nodes in ``channel``'s level-``level`` wedge.

    A node belongs iff it shares at least ``level`` prefix digits with
    the channel identifier.  ``level`` 0 therefore returns every node.
    """
    if level < 0:
        raise ValueError("polling level must be >= 0")
    return [
        node
        for node in nodes
        if node.shared_prefix_len(channel, base) >= level
    ]


def base_level(n_nodes: int, base: int) -> int:
    """The paper's baselevel ``K = ceil(log_b N)``.

    Initially only owner nodes — which sit at this level — poll for a
    channel; optimization lowers levels from there.
    """
    if n_nodes <= 0:
        raise ValueError("n_nodes must be positive")
    if n_nodes == 1:
        return 0
    return math.ceil(math.log(n_nodes, base))


def is_orphan(
    channel: NodeId, nodes: Iterable[NodeId], base: int, n_nodes: int
) -> bool:
    """Return True if ``channel`` is an orphan (paper §4).

    "Orphans can be created because there are no nodes with enough
    number of matching prefix digits in the system and the required
    wedge, corresponding to level ⌈log N⌉ − 1, is empty" — so Corona
    cannot recruit additional pollers by lowering the level one step,
    and the channel stays at the owner level.
    """
    level = base_level(n_nodes, base) - 1
    if level <= 0:
        return False
    return len(wedge_members(channel, level, nodes, base)) == 0
