"""The overlay container: membership, multi-hop routing, churn.

:class:`OverlayNetwork` holds the full node population and plays the
wire between them: it executes multi-hop routes, implements the join
protocol (the newcomer's leaf set and routing table, and the peers that
learn of it), and the self-healing repair that replaces failed
routing-table entries (paper §3.3, "Corona inherits its robustness
... from the underlying structured overlay").

The container is deliberately synchronous — the discrete-event
simulators layer timing on top; this class answers only *structural*
questions (who owns key k, who is in this wedge, what route does a
message take).

Churn is **incremental**: the container maintains a sorted identifier
index, so a join touches only the newcomer's exact ring neighbours plus
one empty-slot check per survivor, and a failure wave repairs only the
survivors that actually referenced a dead node — refilling each lost
routing slot and leaf from the index.  The end
state is as complete as the population allows: a routing slot is empty
only when no live node with the required prefix exists, and every leaf
set is the exact ring slice around its owner.  Nothing here draws
randomness, so the overlay is a function of its join/failure sequence.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping

from repro.overlay.hashing import node_id_for_address
from repro.overlay.leafset import LeafSet
from repro.overlay.node import PastryNode
from repro.overlay.nodeid import ID_BITS, NodeId, bits_per_digit, digits_per_id
from repro.overlay.routing import RoutingTable
from repro.overlay.wedge import base_level, wedge_members


class RouteError(RuntimeError):
    """Raised when routing cannot make progress (partitioned state)."""


def _slot_for_values(
    owner_value: int, other_value: int, bpd: int, mask: int
) -> tuple[int, int]:
    """(row, col) of ``other`` in ``owner``'s table, on raw id values.

    The integer-arithmetic twin of :meth:`RoutingTable.slot_for`, used
    on the churn hot paths where per-pair method/object overhead
    dominates: row is the shared-prefix digit count, col the other
    node's next digit.  ``bpd``/``mask`` are ``bits_per_digit(base)``
    and ``base - 1``, hoisted by the caller.
    """
    xor = owner_value ^ other_value
    row = (ID_BITS - xor.bit_length()) // bpd
    col = (other_value >> (ID_BITS - (row + 1) * bpd)) & mask
    return row, col


class RoutingTablesView(Mapping):
    """Live read-only mapping node-id → routing table.

    Backed directly by the overlay's membership, so consumers holding
    it (the decentralized aggregator, wedge floods) always see current
    tables without re-materializing a dict per membership event — the
    "incremental routing-table view" half of incremental churn.
    """

    __slots__ = ("_network",)

    def __init__(self, network: "OverlayNetwork") -> None:
        self._network = network

    def __getitem__(self, node_id: NodeId) -> RoutingTable:
        return self._network.nodes[node_id].table

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._network.nodes)

    def __len__(self) -> int:
        return len(self._network.nodes)


class OverlayNetwork:
    """A population of :class:`PastryNode` with routing and churn.

    Parameters
    ----------
    base:
        Digit base ``b`` of the identifier space (16 in the paper).
    leaf_size:
        Leaf-set half-width ``f``; also the owner-replication factor.
    """

    def __init__(self, base: int = 16, leaf_size: int = 8) -> None:
        self.base = base
        self.leaf_size = leaf_size
        self.nodes: dict[NodeId, PastryNode] = {}
        #: Sorted live identifier values — the membership index the
        #: join/repair/ownership paths bisect into.
        self._ids: list[int] = []
        self._by_value: dict[int, NodeId] = {}
        self._tables_view = RoutingTablesView(self)
        #: Bumped at every routing-table write (join, removal wave,
        #: stale-contact repair), so anything derived from the tables
        #: (wedge flood plans) is current while the epoch is.
        self.epoch = 0
        #: Histogram of shared-prefix depths between value-adjacent
        #: node pairs.  The deepest prefix collision in the population
        #: is always between sorted neighbours, so this keeps
        #: :meth:`aggregation_rows` O(1) under churn instead of
        #: rescanning every routing table per membership event.
        self._pair_depths: Counter[int] = Counter()
        #: Cumulative incremental-join work: ``joins`` completed,
        #: ``survivor_updates`` slot candidates examined at existing
        #: nodes (members of the newcomer's deepest enclosing region;
        #: already-filled slots are examined but not written),
        #: ``leaf_updates`` ring-neighbour handshakes, ``fill_probes``
        #: index bisections while filling the newcomer's table.  The
        #: churn scale tests assert these stay O(log N)-ish per join.
        self.join_stats: dict[str, int] = {
            "joins": 0,
            "survivor_updates": 0,
            "leaf_updates": 0,
            "fill_probes": 0,
        }

    def _spl_values(self, a: int, b: int) -> int:
        """Shared-prefix digits between two identifier values."""
        if a == b:
            return digits_per_id(self.base)
        xor = a ^ b
        return (ID_BITS - xor.bit_length()) // bits_per_digit(self.base)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add_node(self, address: str) -> PastryNode:
        """Create a node from ``address`` and run the join protocol."""
        node_id = node_id_for_address(address)
        if node_id in self.nodes:
            raise ValueError(f"duplicate node id for address {address!r}")
        node = PastryNode(
            node_id=node_id,
            base=self.base,
            address=address,
            leaf_size=self.leaf_size,
        )
        self._join_incremental(node)
        self.nodes[node_id] = node
        self._index_insert(node_id)
        self.epoch += 1
        return node

    def _index_insert(self, node_id: NodeId) -> None:
        value = node_id.value
        ids = self._ids
        position = bisect_left(ids, value)
        pred = ids[position - 1] if position > 0 else None
        succ = ids[position] if position < len(ids) else None
        if pred is not None and succ is not None:
            self._pair_depths[self._spl_values(pred, succ)] -= 1
        if pred is not None:
            self._pair_depths[self._spl_values(pred, value)] += 1
        if succ is not None:
            self._pair_depths[self._spl_values(value, succ)] += 1
        ids.insert(position, value)
        self._by_value[value] = node_id

    def _join_incremental(self, joining: PastryNode) -> None:
        """Index-based join: exact neighbour updates, bisected table fill.

        Makes the newcomer's table as complete as the population allows
        and lets every affected peer learn of it, in O(log N)-ish work,
        writing directly on raw identifier values: the invariants below
        say exactly which slots and leaves change.

        * Leaf sets are exact ring slices.  The newcomer's two sides
          are therefore the successors and predecessors this loop
          walks, nearest first, and the newcomer lands at index
          ``offset`` of the side its ``offset``-th neighbour turns
          toward it (pushing that side's farthest leaf out once it is
          full).  No other node's leaf set can contain it.  On rings
          of fewer than ``2 * leaf_size`` nodes one node is both a
          successor and a predecessor; its two sides are two distinct
          lists, each written once.
        * The newcomer's routing slots take its ring neighbours first,
          in the order this loop walks them (a filled slot keeps its
          first entry), then every slot left is filled by prefix-range
          bisection into the sorted index.
        * Survivors are updated through the per-region empty-slot
          argument: survivor S files the newcomer X into slot
          ``(spl(S, X), digit)`` whose identifier region is exactly
          ``prefix(X, spl(S, X) + 1)``.  The overlay's invariant — a
          slot is empty only when its region holds no live node —
          means that slot can be empty only if that region was empty
          before the join, i.e. only for survivors in X's *deepest
          non-empty enclosing prefix region* (everyone deeper shares
          more digits, and that region is empty by maximality; for
          everyone shallower the region already held a node, so
          their filled slot keeps its existing entry).  That holds
          for ring neighbours like for anyone else, so they get no
          table write of their own.  The deepest enclosing region is
          found from X's sorted-index neighbours, so a join costs two
          bisects plus one slot write per region member instead of a
          population scan.
        """
        if not self.nodes:
            return
        ids = self._ids
        n = len(ids)
        by_value = self._by_value
        nodes = self.nodes
        stats = self.join_stats
        stats["joins"] += 1
        new_id = joining.node_id
        value = new_id.value
        bpd = bits_per_digit(self.base)
        mask = self.base - 1
        leaf_size = self.leaf_size
        position = bisect_left(ids, value)
        span = min(leaf_size, n)
        clockwise = joining.leaves._cw
        counter_clockwise = joining.leaves._ccw
        rows = joining.table._rows
        for offset in range(span):
            successor = by_value[ids[(position + offset) % n]]
            predecessor = by_value[ids[(position - 1 - offset) % n]]
            clockwise.append(successor)
            counter_clockwise.append(predecessor)
            for neighbour_id, facing in (
                (successor, nodes[successor].leaves._ccw),
                (predecessor, nodes[predecessor].leaves._cw),
            ):
                facing.insert(offset, new_id)
                if len(facing) > leaf_size:
                    facing.pop()
                row, col = _slot_for_values(
                    value, neighbour_id.value, bpd, mask
                )
                bucket = rows.setdefault(row, {})
                if col not in bucket:
                    bucket[col] = neighbour_id
        stats["leaf_updates"] += 4 * span
        self._fill_table_from_index(joining)
        # Deepest enclosing non-empty region: the maximal shared prefix
        # is always achieved at a sorted neighbour.
        pred = ids[(position - 1) % n]
        succ = ids[position % n]
        depth = max(self._spl_values(pred, value), self._spl_values(succ, value))
        shift = ID_BITS - depth * bpd
        region_lo = (value >> shift) << shift
        left = bisect_left(ids, region_lo)
        right = bisect_left(ids, region_lo + (1 << shift))
        col = (value >> (shift - bpd)) & mask
        stats["survivor_updates"] += right - left
        for index in range(left, right):
            survivor = nodes[by_value[ids[index]]]
            # The newcomer fits exactly slot (depth, col) of every
            # region member; fill only if empty (a filled slot keeps
            # its first entry).
            bucket = survivor.table._rows.setdefault(depth, {})
            if col not in bucket:
                bucket[col] = new_id

    def _fill_table_from_index(self, joining: PastryNode) -> None:
        """Populate every routing slot that has a live candidate.

        Row ``r`` column ``c`` wants a node matching the newcomer's
        first ``r`` digits with ``c`` as digit ``r`` — an aligned
        identifier range, resolved by bisection and written straight
        into ``(r, c)``.  Slots already filled (by leaf neighbours) are
        kept; rows past the newcomer's deepest non-empty prefix region
        are skipped entirely, and a row with no candidate gets no
        bucket.  ``joining`` is not in the index yet.
        """
        ids = self._ids
        by_value = self._by_value
        value = joining.node_id.value
        rows = joining.table._rows
        base = self.base
        bpd = bits_per_digit(base)
        probes = 0
        left, right = 0, len(ids)
        for row in range(digits_per_id(base)):
            shift = ID_BITS - (row + 1) * bpd
            top = value >> (shift + bpd)
            own_digit = (value >> shift) & (base - 1)
            # Any candidate in rows >= row shares the first `row`
            # digits; if that region holds no live node, deeper rows
            # are empty too.  Regions nest, so each bisects the last.
            region_lo = top << (shift + bpd)
            region_hi = region_lo + (1 << (shift + bpd))
            left = bisect_left(ids, region_lo, left, right)
            right = bisect_left(ids, region_hi, left, right)
            probes += 2
            if right <= left:
                break
            probes += base - 1
            bucket = rows.get(row)
            for col in range(base):
                if col == own_digit:
                    continue
                lo = ((top << bpd) | col) << shift
                index = bisect_left(ids, lo, left, right)
                if index < right and ids[index] < lo + (1 << shift):
                    if bucket is None:
                        bucket = rows[row] = {}
                    if col not in bucket:
                        bucket[col] = by_value[ids[index]]
        self.join_stats["fill_probes"] += probes

    def remove_nodes(self, node_ids: Iterable[NodeId]) -> None:
        """Fail a whole wave of nodes with one repair pass.

        The wave is deleted from the index, then only the survivors
        that actually referenced a dead node are repaired: each lost
        routing slot is refilled by prefix-range bisection and each
        thinned leaf set is rebuilt as the exact ring slice.  One wave
        ⇒ one repair, however many nodes fail.
        """
        victims = list(node_ids)
        for node_id in victims:
            if node_id not in self.nodes:
                raise KeyError(f"unknown node {node_id!r}")
        if len(set(victims)) != len(victims):
            raise ValueError("duplicate node in removal wave")
        # Leaf sets are exact ring slices (an invariant of join and
        # repair), so only each victim's current ring neighbours can
        # hold it as a leaf — collect them before the index shrinks.
        leaf_holders: set[NodeId] = set()
        for node_id in victims:
            clockwise, counter_clockwise = self._ring_slices(node_id)
            leaf_holders.update(clockwise)
            leaf_holders.update(counter_clockwise)
        for node_id in victims:
            self._drop_from_index(node_id)
        self.epoch += 1
        if not self.nodes:
            return
        for holder_id in leaf_holders:
            holder = self.nodes.get(holder_id)
            if holder is None:
                continue  # the holder died in the same wave
            clockwise, counter_clockwise = self._ring_slices(holder_id)
            holder.leaves.reset(clockwise, counter_clockwise)
        self._repair_tables(victims)

    def _drop_from_index(self, node_id: NodeId) -> None:
        del self.nodes[node_id]
        value = node_id.value
        ids = self._ids
        position = bisect_left(ids, value)
        pred = ids[position - 1] if position > 0 else None
        succ = ids[position + 1] if position + 1 < len(ids) else None
        if pred is not None:
            self._pair_depths[self._spl_values(pred, value)] -= 1
        if succ is not None:
            self._pair_depths[self._spl_values(value, succ)] -= 1
        if pred is not None and succ is not None:
            self._pair_depths[self._spl_values(pred, succ)] += 1
        del ids[position]
        del self._by_value[value]

    def _repair_tables(self, victims: list[NodeId]) -> None:
        """Erase dead routing entries and refill each slot exactly.

        A victim can sit in exactly one slot of each survivor's table
        (row = shared prefix, column = the victim's next digit), so the
        scan is one integer-xor prefix computation per survivor/victim
        pair; only slots that actually pointed at a victim are
        repaired, by prefix-range bisection into the live index.
        """
        bpd = bits_per_digit(self.base)
        mask = self.base - 1
        victim_values = [(dead, dead.value) for dead in victims]
        for survivor in self.nodes.values():
            survivor_value = survivor.node_id.value
            rows = survivor.table._rows
            for dead, dead_value in victim_values:
                row, col = _slot_for_values(
                    survivor_value, dead_value, bpd, mask
                )
                bucket = rows.get(row)
                if not bucket or bucket.get(col) != dead:
                    continue
                del bucket[col]
                replacement = self._slot_candidate(survivor.node_id, row, col)
                if replacement is not None:
                    bucket[col] = replacement

    def _slot_candidate(
        self, owner: NodeId, row: int, col: int
    ) -> NodeId | None:
        """First live node fitting routing slot (row, col) of ``owner``."""
        bpd = bits_per_digit(self.base)
        shift = ID_BITS - (row + 1) * bpd
        top = owner.value >> (shift + bpd)
        lo = ((top << bpd) | col) << shift
        index = bisect_left(self._ids, lo)
        if index < len(self._ids) and self._ids[index] < lo + (1 << shift):
            return self._by_value[self._ids[index]]
        return None

    def _ring_slices(self, node_id: NodeId) -> tuple[list[NodeId], list[NodeId]]:
        """The exact ``leaf_size`` ring neighbours on each side."""
        ids = self._ids
        n = len(ids)
        position = bisect_left(ids, node_id.value)
        span = min(self.leaf_size, n - 1)
        clockwise = [
            self._by_value[ids[(position + 1 + k) % n]] for k in range(span)
        ]
        counter_clockwise = [
            self._by_value[ids[(position - 1 - k) % n]] for k in range(span)
        ]
        return clockwise, counter_clockwise

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _trace_route(self, start: PastryNode, key: NodeId) -> list[NodeId]:
        """Hop-by-hop route from ``start`` to the owner of ``key``.

        Prefix routing with two safety nets: stale contacts are
        forgotten and the step retried, and a would-be loop (possible
        only with inconsistent mid-join state) degrades to greedy
        distance descent, which strictly shrinks ring distance per hop
        and therefore terminates.
        """
        route = [start.node_id]
        visited = {start.node_id}
        current = start
        for _ in range(2 * len(self.nodes) + 2):
            hop = current.route_step(key)
            if hop is not None and hop not in self.nodes:
                # Stale contact: repair locally and retry the step.
                current.forget(hop)
                self.epoch += 1
                continue
            if hop is None or hop in visited:
                hop = current.closest_known(key, exclude=visited)
                while hop is not None and hop not in self.nodes:
                    current.forget(hop)
                    self.epoch += 1
                    hop = current.closest_known(key, exclude=visited)
                if hop is None:
                    return route
            route.append(hop)
            visited.add(hop)
            current = self.nodes[hop]
        raise RouteError(f"route for {key!r} did not converge")

    def route(self, start: NodeId, key: NodeId) -> list[NodeId]:
        """Public routing API: the node-id path from ``start`` to owner."""
        if start not in self.nodes:
            raise KeyError(f"unknown start node {start!r}")
        return self._trace_route(self.nodes[start], key)

    def _adjacent_ids(self, key: NodeId) -> list[NodeId]:
        """The live nodes adjacent to ``key`` in identifier order.

        Both the numerically closest node and the longest-prefix-match
        node are always among the sorted neighbours of the key (common
        prefixes are maximal between sorted neighbours), so ownership
        queries resolve with a bisect instead of a population scan.
        """
        ids = self._ids
        n = len(ids)
        position = bisect_left(ids, key.value)
        values = {
            ids[(position - 1) % n],
            ids[position % n],
            ids[(position + 1) % n],
        }
        return [self._by_value[value] for value in values]

    def owner_of(self, key: NodeId) -> NodeId:
        """The primary owner: numerically closest node to ``key``.

        Computed exactly over the live population; routing converges to
        the same node (tested as an invariant).
        """
        if not self.nodes:
            raise RouteError("empty overlay")
        return min(
            self._adjacent_ids(key),
            key=lambda node_id: LeafSet._ownership_distance(node_id, key),
        )

    def anchor_key(self, node_id: NodeId, key: NodeId) -> tuple[int, int]:
        """The ordering :meth:`anchor_of` maximizes, as a sortable key.

        Exposed so callers maintaining anchor caches (the system's
        anchor index) compare candidates with *exactly* the comparator
        anchor resolution uses — one source of truth for the tie-break.
        """
        return (
            node_id.shared_prefix_len(key, self.base),
            -LeafSet._ownership_distance(node_id, key),
        )

    def anchor_of(self, key: NodeId) -> NodeId:
        """The node sharing the longest identifier prefix with ``key``.

        Wedges are defined by prefix match with the channel identifier,
        so wedge floods must start from a node *inside* the wedge.  The
        ring-closest owner usually is that node, but near prefix
        boundaries it may not be; the anchor — found by prefix routing
        in a live system — is in every non-empty wedge by construction.
        Ties are broken by ring distance, so anchor == owner whenever
        the owner has a maximal prefix match.
        """
        if not self.nodes:
            raise RouteError("empty overlay")
        return max(
            self._adjacent_ids(key),
            key=lambda node_id: self.anchor_key(node_id, key),
        )

    # ------------------------------------------------------------------
    # wedge / structural queries
    # ------------------------------------------------------------------
    def wedge(self, channel: NodeId, level: int) -> list[NodeId]:
        """Live nodes in ``channel``'s level-``level`` wedge."""
        return wedge_members(channel, level, self.nodes, self.base)

    def base_level(self) -> int:
        """Current baselevel ``K = ceil(log_b N)``."""
        return base_level(len(self.nodes), self.base)

    def aggregation_rows(self) -> int:
        """Prefix depth at which every node is alone in its region.

        Cluster aggregation recurses region-by-region down to singleton
        regions; a routing-table entry at row ``r`` exists exactly when
        some pair of nodes shares ``r`` prefix digits, and the deepest
        such pair is always value-adjacent, so the answer is read off
        the maintained pair-depth histogram in O(1) per churn event.
        """
        deepest = max(
            (
                depth
                for depth, count in self._pair_depths.items()
                if count > 0
            ),
            default=0,
        )
        return deepest + 1

    def routing_tables(self) -> Mapping[NodeId, RoutingTable]:
        """Live mapping node-id -> routing table (for DAG walks).

        The returned view is cached and always current — holders never
        need to re-fetch after membership changes, and per-message
        floods no longer materialize a dict per call.
        """
        return self._tables_view

    def node_ids(self) -> list[NodeId]:
        """All live node identifiers."""
        return list(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        n_nodes: int,
        base: int = 16,
        leaf_size: int = 8,
        address_prefix: str = "node",
    ) -> "OverlayNetwork":
        """Construct an overlay of ``n_nodes`` with synthetic addresses."""
        network = cls(base=base, leaf_size=leaf_size)
        for index in range(n_nodes):
            network.add_node(f"{address_prefix}-{index}")
        return network
