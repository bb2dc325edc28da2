"""Dissemination DAGs rooted at overlay nodes.

The routing table defines, from every node, a directed acyclic graph
that can reach any other node in ``log_b N`` hops (paper §3.1).  Corona
walks this DAG in two places:

* the *maintenance* protocol — a level-``i`` node instructs its
  row-``i-1`` routing contacts to start or stop polling a channel, so
  control decisions flow down the DAG one wedge refinement at a time
  (§3.3); and
* *update dissemination* — a node that detects an update forwards the
  diff along the DAG, restricted to the channel's wedge, reaching every
  polling node without duplicate delivery (§3.4).

The walk is the classic structured-overlay prefix flood: the root
forwards to every routing row ``>= level``; a node that received the
message via a row-``r`` contact forwards only to rows ``> r``.  Rows
partition the identifier space by prefix, so every node is reached at
most once, and restricting the starting row to the channel's polling
level confines the flood to exactly the level-``level`` wedge — all
nodes sharing ``level`` prefix digits with the channel (equivalently,
with the root, since the root is itself in the wedge).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping

from repro.overlay.nodeid import NodeId
from repro.overlay.routing import RoutingTable


def dissemination_tree(
    root: NodeId,
    tables: Mapping[NodeId, RoutingTable],
    channel: NodeId,
    level: int,
    base: int,
) -> dict[NodeId, tuple[NodeId, int]]:
    """Parent pointers and hop depths of the wedge flood from ``root``.

    Maps each reached node (excluding the root) to ``(parent, depth)``
    where ``parent`` is the node that forwarded to it and ``depth`` its
    hop count from the root.  This models the paper's diff
    dissemination "along the DAG rooted at it up to a depth equal to
    the polling level of the channel".
    """
    parents: dict[NodeId, tuple[NodeId, int]] = {}
    reached: set[NodeId] = {root}
    queue: deque[tuple[NodeId, int, int]] = deque([(root, level, 0)])
    while queue:
        node, start_row, depth = queue.popleft()
        table = tables.get(node)
        if table is None:
            continue
        for row in sorted(table._rows):
            if row < start_row:
                continue
            for child in table._rows[row].values():
                if child.shared_prefix_len(channel, base) < level:
                    continue
                if child in reached:
                    continue
                reached.add(child)
                parents[child] = (node, depth + 1)
                queue.append((child, row + 1, depth + 1))
    return parents
