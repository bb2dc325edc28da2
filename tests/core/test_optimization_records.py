"""Property tests for the optimization round's two caches.

*Coherence*: whatever sequence of events moves a channel's factors —
subscription churn, detected updates, clamp changes, a wholesale
``channel.stats`` swap, an ownership transfer to a node whose config is
equal but another object — the cached :meth:`ChannelStats.record` equals
a fresh derivation and the node's local summary equals the one
``add_channel`` builds from ``stats.factors()``.

*Key soundness*: the whole-phase memo of ``run_optimization`` keys on
what decides the answer.  Moving own polling levels hits it, and the
replayed answer is what a fresh memo-less node computes from the moved
state; moving a sum, ``n_nodes``, a factor, ``anchor_prefix`` or the
channel order misses it.
"""

import dataclasses
import math

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.channel import ChannelStats
from repro.core.config import SCHEME_NAMES, CoronaConfig
from repro.core.node import CoronaNode
from repro.core.objectives import binning_ratio, scheme_by_name
from repro.honeycomb.clusters import ClusterSummary, ratio_bin
from repro.overlay.hashing import node_id_for_address
from tests.reference_paths import eager_solves

MAX_LEVEL = 3
N_CHANNELS = 4

configs = st.builds(
    CoronaConfig,
    scheme=st.sampled_from(SCHEME_NAMES),
    base=st.just(4),
    polling_interval=st.just(60.0),
    tradeoff_bins=st.sampled_from((4, 16)),
)
intervals = st.floats(1.0, 1e6, allow_nan=False)
#: (subscribers, content_size, interval estimate or None,
#:  anchor_prefix — 0 and 1 make orphans —, level)
channel_specs = st.tuples(
    st.integers(0, 400),
    st.integers(1, 60_000),
    st.none() | intervals,
    st.integers(0, MAX_LEVEL),
    st.integers(0, MAX_LEVEL),
)


def url_of(index: int) -> str:
    return f"http://record{index}.example/rss"


def make_node(config, specs, address="records") -> CoronaNode:
    node = CoronaNode(node_id_for_address(address), config)
    for index, (q, size, estimate, anchor_prefix, level) in enumerate(specs):
        channel = node.adopt_channel(
            url_of(index), MAX_LEVEL, anchor_prefix, now=0.0
        )
        channel.stats.subscribers = q
        channel.stats.content_size = size
        channel.stats._interval_estimate = estimate
        channel.level = level
        channel.clamp_level()
    return node


# ----------------------------------------------------------------------
# coherence
# ----------------------------------------------------------------------
def fresh_record(stats: ChannelStats, config: CoronaConfig) -> tuple:
    factors = stats.factors()
    ratio = binning_ratio(scheme_by_name(config.scheme), config, factors)
    return (
        config,
        math.log(stats.update_interval),
        ratio,
        ratio_bin(ratio, config.tradeoff_bins),
    )


def reference_summary(node: CoronaNode) -> ClusterSummary:
    summary = ClusterSummary(bins=node.config.tradeoff_bins)
    for channel in node.managed.values():
        factors = channel.stats.factors()
        summary.add_channel(
            factors,
            orphan=channel.is_orphan(),
            ratio=binning_ratio(node.scheme, node.config, factors),
        )
    return summary


def assert_coherent(node: CoronaNode) -> None:
    for channel in node.managed.values():
        assert channel.stats.record(node.config) == fresh_record(
            channel.stats, node.config
        )
    assert node.local_summary() == reference_summary(node)


which = st.integers(0, N_CHANNELS - 1)
clients = st.sampled_from(("ann", "bob", "cy"))
events = st.one_of(
    st.tuples(st.just("subscribe"), which, clients),
    st.tuples(st.just("unsubscribe"), which, clients),
    st.tuples(
        st.just("update"), which, st.floats(0.0, 5e4), st.integers(0, 9000)
    ),
    st.tuples(
        st.just("swap"), which, st.integers(0, 400), st.integers(1, 9000)
    ),
    st.tuples(st.just("level"), which, st.integers(0, MAX_LEVEL)),
    st.tuples(st.just("transfer")),
    # Reading warms the caches a later event must invalidate.
    st.tuples(st.just("read")),
)


@settings(max_examples=120, deadline=None)
@given(
    config=configs,
    specs=st.lists(channel_specs, min_size=N_CHANNELS, max_size=N_CHANNELS),
    timeline=st.lists(events, max_size=25),
)
def test_cached_records_stay_coherent(config, specs, timeline):
    node = make_node(config, specs)
    now = 0.0
    moves = 0
    for event in timeline:
        kind = event[0]
        if kind == "read":
            assert_coherent(node)
            continue
        if kind == "transfer":
            # Ownership transfer as CoronaSystem performs it: the
            # estimators travel to a node of the same cloud.  Here the
            # heir's config is equal but another object, so a travelling
            # record must not answer for it.
            moves += 1
            heir = CoronaNode(
                node_id_for_address(f"heir-{moves}"),
                dataclasses.replace(config),
            )
            for url, channel in node.managed.items():
                adopted = heir.adopt_channel(
                    url, channel.max_level, channel.anchor_prefix, now
                )
                adopted.stats = channel.stats
                adopted.level = channel.level
            node = heir
            continue
        channel = node.managed[url_of(event[1])]
        if kind == "subscribe":
            node.subscribe(channel.url, event[2], now)
        elif kind == "unsubscribe":
            node.unsubscribe(channel.url, event[2])
        elif kind == "update":
            now += event[2]
            channel.stats.record_update(now, event[3])
        elif kind == "swap":
            incoming = ChannelStats()
            incoming.subscribers, incoming.content_size = event[2], event[3]
            # The incoming estimators arrive warm from elsewhere.
            incoming.record(CoronaConfig(scheme="fair-log"))
            channel.stats = incoming
        elif kind == "level":
            channel.level = event[2]
            channel.clamp_level()
    assert_coherent(node)


# ----------------------------------------------------------------------
# key soundness
# ----------------------------------------------------------------------
#: Remote channels as flat (slot fraction, q, s, log u) rows; the slot
#: is scaled to the config's bin count (the last one is slack).
remote_rows = st.lists(
    st.tuples(
        st.floats(0.0, 1.0),
        st.integers(0, 400).map(float),
        st.integers(1, 60_000).map(float),
        intervals.map(math.log),
    ),
    max_size=12,
)


def remote_summary(config, rows) -> ClusterSummary:
    bins = config.tradeoff_bins
    return ClusterSummary(bins=bins).with_channels(
        (min(bins, int(fraction * (bins + 1))), q, size, log_u)
        for fraction, q, size, log_u in rows
    )


def spy_on_solves(node: CoronaNode) -> list:
    """Count solver calls: a whole-phase memo hit makes none."""
    calls = []
    solve = node.solver.solve

    def counting(problem):
        calls.append(problem)
        return solve(problem)

    node.solver.solve = counting
    return calls


def eager_answer(config, specs, remote, n_nodes, order=None):
    """(return value, controller targets) of a fresh node's un-memoized
    solve, over the memo-less solver kernel."""
    node = make_node(config, specs)
    if order is not None:
        node.managed = {url: node.managed[url] for url in order}
    with eager_solves():
        answer = node.solve_levels(remote, n_nodes)
    return answer, dict(node.controller.desired)


def shifted_levels(specs, shift):
    return [
        (q, size, estimate, anchor, (level + shift) % (MAX_LEVEL + 1))
        for q, size, estimate, anchor, level in specs
    ]


@settings(max_examples=120, deadline=None)
@given(
    config=configs,
    specs=st.lists(channel_specs, min_size=1, max_size=6),
    rows=remote_rows,
    n_nodes=st.integers(2, 4096),
    shift=st.integers(1, MAX_LEVEL),
)
def test_levels_are_not_part_of_the_key(config, specs, rows, n_nodes, shift):
    node = make_node(config, specs)
    solves = spy_on_solves(node)
    remote = remote_summary(config, rows)
    node.run_optimization(remote, n_nodes)
    posed = len(solves)

    # Move every own level; no sum moves with them.
    moved_specs = shifted_levels(specs, shift)
    for channel, spec in zip(node.managed.values(), moved_specs):
        channel.level = spec[4]
        channel.clamp_level()

    hits = node.solver.work.memo_hits
    replayed = node.run_optimization(remote_summary(config, rows), n_nodes)
    assert len(solves) == posed
    assert node.solver.work.memo_hits == hits + 1
    answer, targets = eager_answer(config, moved_specs, remote, n_nodes)
    assert replayed == answer
    assert node.controller.desired == targets


perturbations = st.sampled_from(
    ("remote-sum", "n_nodes", "q", "s", "u", "anchor_prefix", "order")
)


@settings(max_examples=150, deadline=None)
@given(
    config=configs,
    specs=st.lists(channel_specs, min_size=2, max_size=6),
    rows=remote_rows,
    extra=remote_rows.filter(len),
    n_nodes=st.integers(2, 4096),
    perturb=perturbations,
    data=st.data(),
)
def test_whatever_decides_the_answer_misses(
    config, specs, rows, extra, n_nodes, perturb, data
):
    node = make_node(config, specs)
    remote = remote_summary(config, rows)
    node.run_optimization(remote, n_nodes)
    order = list(node.managed)
    index = data.draw(st.integers(0, len(specs) - 1), label="channel")
    channel = node.managed[url_of(index)]
    q, size, estimate, anchor, _ = specs[index]

    if perturb == "remote-sum":
        remote = remote_summary(config, rows + extra[:1])
    elif perturb == "n_nodes":
        n_nodes += 1
    elif perturb == "q":
        q += 1
        channel.stats.subscribers = q
    elif perturb == "s":
        size += 1
        channel.stats.content_size = size
    elif perturb == "u":
        # Inside the default clamps, and not the current estimate.
        estimate = 120.0 if channel.stats.update_interval != 120.0 else 240.0
        channel.stats._interval_estimate = estimate
    elif perturb == "anchor_prefix":
        anchor = (anchor + 1) % (MAX_LEVEL + 1)
        channel.anchor_prefix = anchor
        channel.clamp_level()
    else:
        order.reverse()
        node.managed = {url: node.managed[url] for url in order}
    moved_specs = [
        spec[:4] + (node.managed[url_of(i)].level,)
        for i, spec in enumerate(specs)
    ]
    moved_specs[index] = (q, size, estimate, anchor, channel.level)

    hits = node.solver.work.memo_hits
    solves = spy_on_solves(node)
    recomputed = node.run_optimization(remote, n_nodes)
    # The whole-phase memo answers without consulting the solver; here
    # only the solver's own memo — keyed on the reassembled problem —
    # may have.
    assert node.solver.work.memo_hits - hits <= len(solves)
    answer, targets = eager_answer(
        config, moved_specs, remote, n_nodes, order=order
    )
    assert recomputed == answer
    assert {url: node.controller.desired[url] for url in answer} == targets
