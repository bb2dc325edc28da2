"""The poll calendar against the scan it replaced.

:meth:`CoronaSystem.poll_due` pops the batch off one cloud-wide heap.
The oracle here is the scan the system used to make: every node in
``system.nodes`` order, each node's tasks in start order, those whose
``next_poll`` has arrived.  Under random start / stop / level restart /
crash / join / rejoin / failed attempts / shedding, the batch must
execute exactly those tasks in exactly that order, and sample
``should_shed_poll`` once for each node that has one, just before it.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.config import CoronaConfig
from repro.core.polling import PollTask
from repro.core.system import CoronaSystem
from repro.faults import FaultPlane, LinkSpec, LinkTable
from repro.faults.chaos import chaos_timeline
from repro.scenarios import ScenarioRunner
from repro.scenarios.spec import ScenarioSpec
from repro.simulation.webserver import WebServerFarm

URLS = [f"http://feed{index}.example/rss" for index in range(5)]
CONGESTED = LinkSpec(bandwidth=0.01, queue_limit=4)


@pytest.fixture(autouse=True, scope="module")
def one_token_buckets():
    """Congested links admit one same-instant message, not two."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LinkSpec, "burst", 1.0)
        yield


def build(seed: int, loss: float) -> tuple[CoronaSystem, FaultPlane]:
    farm = WebServerFarm(seed=seed)
    for index, url in enumerate(URLS):
        farm.host(url, update_interval=40.0 + 25.0 * index, target_bytes=800)
    plane = FaultPlane(seed=seed)
    plane.add_loss(loss)
    plane.install_links(LinkTable(seed=seed))
    config = CoronaConfig(
        polling_interval=60.0, maintenance_interval=120.0, base=4,
        scheme="lite",
    )
    system = CoronaSystem(
        n_nodes=10, config=config, fetcher=farm, seed=seed, faults=plane
    )
    for index, url in enumerate(URLS):
        for client in range(1 + index):
            system.subscribe(url, f"client-{index}-{client}")
    return system, plane


def scan(system: CoronaSystem, now: float) -> list[tuple]:
    """The pre-calendar batch: node order x task order, due ones."""
    return [
        (node, task)
        for node in system.nodes.values()
        for task in node.scheduler.tasks.values()
        if task.next_poll <= now
    ]


@contextmanager
def recording(links: LinkTable):
    """Log every task advanced and every node sampled for shedding."""
    advanced: list[PollTask] = []
    sampled: list = []
    real_advance = PollTask.advance
    real_shed = links.should_shed_poll

    def advance(task):
        advanced.append(task)
        real_advance(task)

    def should_shed_poll(node_id):
        sampled.append(node_id)
        return real_shed(node_id)

    with mock.patch.object(PollTask, "advance", advance), mock.patch.object(
        links, "should_shed_poll", should_shed_poll
    ):
        yield advanced, sampled


OPS = st.one_of(
    st.tuples(st.just("start"), st.integers(0, 63), st.integers(0, 4),
              st.integers(0, 4)),
    st.tuples(st.just("stop"), st.integers(0, 63), st.integers(0, 4)),
    st.tuples(st.just("crash"), st.integers(1, 2)),
    st.tuples(st.just("join"), st.integers(1, 2)),
    st.tuples(st.just("rejoin"), st.integers(1, 2)),
    st.tuples(st.just("congest"), st.integers(0, 63)),
    st.tuples(st.just("maintain")),
    st.tuples(st.just("batch"), st.floats(0.0, 90.0)),
)


@given(
    seed=st.integers(0, 2**16),
    loss=st.sampled_from([0.0, 0.3]),
    ops=st.lists(OPS, min_size=1, max_size=30),
)
@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_batch_executes_what_the_node_scan_would(seed, loss, ops):
    system, plane = build(seed, loss)
    links = plane.links
    now = 0.0
    joined = 0
    for op in ops:
        ids = list(system.nodes)
        kind = op[0]
        if kind == "start":
            node = system.nodes[ids[op[1] % len(ids)]]
            # Starting a polled url again is a level restart.
            node.scheduler.start(URLS[op[2]], op[3], now)
        elif kind == "stop":
            system.nodes[ids[op[1] % len(ids)]].scheduler.stop(URLS[op[2]])
        elif kind == "crash" and len(ids) > op[1]:
            system.crash_nodes(op[1], now=now)
        elif kind == "join":
            for _ in range(op[1]):
                system.add_node(f"joiner-{joined}", now=now)
                joined += 1
        elif kind == "rejoin":
            # Same address, same node id, a new node object.
            system.recover_nodes(op[1], now=now)
        elif kind == "congest":
            sender = ids[op[1] % len(ids)]
            links.impose(CONGESTED, senders=[sender])
            for _ in range(4):
                plane.transmit(sender, ids[(op[1] + 1) % len(ids)])
        elif kind == "maintain":
            system.run_maintenance_round(now)
        elif kind == "batch":
            now += op[1]
            expected = scan(system, now)
            with recording(links) as (advanced, sampled):
                system.poll_due(now)
            assert [id(task) for task in advanced] == [
                id(task) for _, task in expected
            ]
            if links.active:
                first_due: list = []
                for node, _ in expected:
                    if node.node_id not in first_due:
                        first_due.append(node.node_id)
                assert sampled == first_due
            else:
                assert sampled == []
        # Every live task keeps exactly one live calendar entry.
        live = [
            entry for entry in system._poll_calendar
            if system.nodes.get(entry[3].node_id) is entry[3]
            and entry[3].scheduler.tasks.get(entry[4].url) is entry[4]
        ]
        assert sorted(id(entry[4]) for entry in live) == sorted(
            id(task)
            for node in system.nodes.values()
            for task in node.scheduler.tasks.values()
        )
        assert all(entry[0] == entry[4].next_poll for entry in live)


def test_rejoined_address_drops_the_old_objects_entries():
    system, _ = build(seed=3, loss=0.0)
    victim = next(
        node for node in system.nodes.values() if node.scheduler.tasks
    )
    booked = len(victim.scheduler.tasks)
    system.fail_node(victim.node_id, now=0.0)
    (back,) = system.recover_nodes(1, now=0.0)
    assert back == victim.node_id and system.nodes[back] is not victim
    stale = [e for e in system._poll_calendar if e[3] is victim]
    assert len(stale) == booked
    system.poll_due(1e6)
    assert not [e for e in system._poll_calendar if e[3] is victim]


def test_ranks_follow_node_insertion_order():
    system, _ = build(seed=5, loss=0.0)
    system.fail_node(next(iter(system.nodes)), now=0.0)
    system.add_node("late-joiner", now=0.0)
    system.recover_nodes(1, now=0.0)
    ranks = [node.scheduler.rank for node in system.nodes.values()]
    assert ranks == sorted(ranks) and len(set(ranks)) == len(ranks)


class TestShedSampling:
    """Shedding is sampled only for nodes with a due poll: a node
    with nothing due keeps its hysteresis state and its links' refill
    stamps through the batch (the scan sampled every node)."""

    def test_idle_node_is_not_sampled(self):
        system, plane = build(seed=7, loss=0.0)
        links = plane.links
        idle_id = next(
            node_id for node_id, node in system.nodes.items()
            if not node.scheduler.tasks
        )
        other = next(n for n in system.nodes if n != idle_id)
        handle = links.impose(CONGESTED, senders=[idle_id])
        for _ in range(4):
            plane.transmit(idle_id, other)
        assert links.should_shed_poll(idle_id)
        # The congestion clears; a sample would now end the shedding.
        links.lift(handle)
        now = 200.0
        plane.observe_time(now)
        keys = links._out_index[idle_id]
        stamps = [
            (links._states[key].updated, links._states[key].tokens)
            for key in keys
        ]
        assert scan(system, now), "the batch must not be empty"
        system.poll_due(now)
        assert idle_id in links._shedding
        assert stamps == [
            (links._states[key].updated, links._states[key].tokens)
            for key in keys
        ]
        # What the scan would have done: the sample ends the shedding.
        assert not links.should_shed_poll(idle_id)
        assert idle_id not in links._shedding


def test_chaos_smoke_batches_cost_the_polls_that_are_due():
    """Work guard on the ``chaos-2048`` workload at its smoke size: a
    batch samples shedding at most once per node with a due poll, and
    pops no more calendar entries than its due tasks plus the stale
    entries (stopped tasks, departed nodes) that fell due with them."""
    spec = ScenarioSpec.from_dict(
        {
            "name": "chaos-smoke",
            "n_nodes": 96,
            "horizon": 3600.0,
            "workload": {"n_channels": 8, "n_subscriptions": 80},
            "events": chaos_timeline(0, 3600.0, 96, incidents=4),
        }
    )
    real_poll_due = CoronaSystem.poll_due
    real_shed = LinkTable.should_shed_poll
    counts = {"batches": 0, "shed": 0, "pops": 0}

    def should_shed_poll(table, node):
        counts["shed"] += 1
        return real_shed(table, node)

    def heappop(heap):
        counts["pops"] += 1
        return heapq.heappop(heap)

    def poll_due(system, now):
        due = scan(system, now)
        stale = sum(
            1 for entry in system._poll_calendar
            if entry[0] <= now
            and not (
                system.nodes.get(entry[3].node_id) is entry[3]
                and entry[3].scheduler.tasks.get(entry[4].url) is entry[4]
            )
        )
        shed, pops = counts["shed"], counts["pops"]
        fresh = real_poll_due(system, now)
        counts["batches"] += 1
        assert counts["shed"] - shed <= len({id(node) for node, _ in due})
        assert counts["pops"] - pops <= len(due) + stale
        return fresh

    with mock.patch.object(CoronaSystem, "poll_due", poll_due), \
            mock.patch.object(LinkTable, "should_shed_poll", should_shed_poll), \
            mock.patch("repro.core.system.heappop", heappop):
        metrics = ScenarioRunner(spec, seed=0).run()
    assert counts["batches"] > 100 and metrics.polls > 0
    assert counts["shed"] > 0, "the spec must exercise load shedding"
