"""Cross-module property-based tests on the system's core invariants.

Each property here is one the paper's correctness or performance story
rests on; hypothesis explores the input space far beyond the unit
tests' examples.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.config import CoronaConfig
from repro.core.objectives import ProblemInputs, Scheme, build_problem
from repro.diffengine.delta import apply_diff
from repro.diffengine.differ import diff_lines
from repro.diffengine.extractor import extract_core_lines
from repro.honeycomb.clusters import ChannelFactors, ClusterSummary
from repro.honeycomb.solver import HoneycombSolver
from repro.overlay.dag import dissemination_tree
from repro.overlay.hashing import channel_id
from repro.overlay.leafset import LeafSet
from repro.overlay.network import OverlayNetwork
from repro.overlay.nodeid import ID_BITS, NodeId

# ---------------------------------------------------------------------
# Overlay invariants
# ---------------------------------------------------------------------
_OVERLAYS = {}


def overlay_for(n_nodes: int, base: int) -> OverlayNetwork:
    key = (n_nodes, base)
    if key not in _OVERLAYS:
        _OVERLAYS[key] = OverlayNetwork.build(n_nodes, base=base)
    return _OVERLAYS[key]


@given(
    url=st.text(min_size=1, max_size=40).map(lambda s: f"http://h/{s}"),
    n_nodes=st.sampled_from([17, 33, 60]),
    base=st.sampled_from([4, 16]),
)
@settings(max_examples=40, deadline=None)
def test_property_routing_reaches_owner_from_everywhere(url, n_nodes, base):
    """Prefix routing always converges on the unique owner."""
    net = overlay_for(n_nodes, base)
    cid = channel_id(url)
    owner = net.owner_of(cid)
    for start in net.node_ids()[:: max(1, n_nodes // 6)]:
        assert net.route(start, cid)[-1] == owner


@given(
    url=st.text(min_size=1, max_size=40).map(lambda s: f"http://w/{s}"),
    level=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_property_wedge_flood_exact(url, level):
    """The wedge flood reaches exactly the wedge, from the anchor."""
    net = overlay_for(60, 4)
    cid = channel_id(url)
    anchor = net.anchor_of(cid)
    prefix = anchor.shared_prefix_len(cid, net.base)
    reached = {
        anchor,
        *dissemination_tree(anchor, net.routing_tables(), cid, level, net.base),
    }
    if level <= prefix:
        assert reached == set(net.wedge(cid, level))
    else:
        assert reached == {anchor}


@given(
    key=st.integers(min_value=0, max_value=(1 << ID_BITS) - 1),
    n_nodes=st.integers(min_value=1, max_value=300),
    base=st.sampled_from([4, 16]),
)
@settings(max_examples=60, deadline=None)
def test_property_bisect_resolution_matches_population_scan(key, n_nodes, base):
    """``anchor_of``/``owner_of`` look at three sorted neighbours only;
    the answer is the one a scan of the whole population gives."""
    net = OverlayNetwork.build(n_nodes, base=base)
    cid = NodeId(key)
    population = net.node_ids()
    assert net.anchor_of(cid) == max(
        population, key=lambda node_id: net.anchor_key(node_id, cid)
    )
    assert net.owner_of(cid) == min(
        population,
        key=lambda node_id: LeafSet._ownership_distance(node_id, cid),
    )


# ---------------------------------------------------------------------
# Difference-engine invariants
# ---------------------------------------------------------------------
_line = st.text(
    alphabet=st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)),
    max_size=30,
)


@given(old=st.lists(_line, max_size=30), new=st.lists(_line, max_size=30))
@settings(max_examples=150, deadline=None)
def test_property_diff_roundtrip_arbitrary_text(old, new):
    """apply(old, diff(old, new)) == new for arbitrary unicode lines."""
    assert apply_diff(old, diff_lines(old, new)) == new


@given(
    title=st.text(
        alphabet=st.characters(whitelist_categories=("L", "N")), min_size=1,
        max_size=20,
    ),
    hits=st.integers(min_value=0, max_value=10**9),
    hour=st.integers(min_value=0, max_value=23),
)
@settings(max_examples=60, deadline=None)
def test_property_extractor_noise_invariance(title, hits, hour):
    """Counter and clock churn never changes core content."""
    template = (
        "<rss><channel><title>{t}</title>"
        "<p>{h:02d}:15:00 PM</p><p>Views: {v:,}</p>"
        "<item><title>story</title></item></channel></rss>"
    )
    a = template.format(t=title, h=hour, v=hits)
    b = template.format(t=title, h=(hour + 5) % 24, v=hits + 12345)
    assert extract_core_lines(a) == extract_core_lines(b)


# ---------------------------------------------------------------------
# Optimizer invariants
# ---------------------------------------------------------------------
@given(
    qs=st.lists(
        st.floats(min_value=1.0, max_value=5000.0), min_size=2, max_size=25
    ),
    scheme=st.sampled_from(list(Scheme)),
    budget_factor=st.floats(min_value=0.2, max_value=3.0),
)
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
def test_property_schemes_produce_feasible_monotone_solutions(
    qs, scheme, budget_factor
):
    """Every Table 1 scheme yields a feasible solution whose levels are
    monotone in popularity (ties aside): more subscribers never means
    strictly fewer pollers, for fixed size and interval."""
    config = CoronaConfig(scheme=scheme.value)
    entries = [
        (
            index,
            ChannelFactors(
                subscribers=q, size=1000.0, update_interval=3600.0
            ),
            range(4),
            1,
        )
        for index, q in enumerate(qs)
    ]
    total_q = sum(qs)
    inputs = ProblemInputs(
        total_subscriptions=total_q * budget_factor,
        orphan_load=0.0,
        orphan_latency=0.0,
    )
    problem = build_problem(scheme, config, 1024, entries, inputs)
    assert all(channel.is_monotonic() for channel in problem.channels)
    solution = HoneycombSolver().solve(problem)
    if not solution.feasible:
        return  # budget below the floor: nothing to check
    assert solution.cost <= problem.target + 1e-9
    # As q rises, the level must not rise (identical u and s).  Equal-q
    # channels may legitimately split across two adjacent levels — the
    # solver's one-channel accuracy granularity — so compare the worst
    # level of the more popular against the best of the less popular
    # only across *distinct* popularity values.
    by_q: dict[float, list[int]] = {}
    for index, q in enumerate(qs):
        by_q.setdefault(q, []).append(solution.levels[index])
    ordered = sorted(by_q)
    for lighter, heavier in zip(ordered, ordered[1:]):
        assert max(by_q[heavier]) <= min(by_q[lighter]) + 1
        assert min(by_q[heavier]) <= min(by_q[lighter])


@given(
    counts=st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=30),
    bins=st.sampled_from([4, 16, 64]),
)
@settings(max_examples=60, deadline=None)
def test_property_cluster_merge_conserves_mass(counts, bins):
    """Merging summaries in any grouping conserves channel counts and
    subscriber mass exactly (no channel counted twice or dropped)."""
    summaries = []
    total_q = 0.0
    for group_index, count in enumerate(counts):
        summary = ClusterSummary(bins=bins)
        for member in range(count):
            q = float(group_index * 100 + member + 1)
            total_q += q
            summary.add_channel(
                ChannelFactors(
                    subscribers=q,
                    size=500.0 + member,
                    update_interval=60.0 * (1 + member),
                ),
                ratio=q,
            )
        summaries.append(summary)
    merged = ClusterSummary(bins=bins)
    for summary in summaries:
        merged.merge(summary)
    assert merged.total_channels() == sum(counts)
    assert merged.total_subscribers() == pytest.approx(total_q)
