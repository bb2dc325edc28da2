"""Golden vectors for the index-based join, plus its structural invariants.

``golden/join_state.json`` holds one sha256 per case over the complete
overlay state a sequence of joins (and, for the churn cases, crash
waves) leaves behind: every node's routing-table rows *in dict
insertion order* (DAG walks and ``contacts()`` iterate them), both leaf
lists, the sorted index, the pair-depth histogram and ``join_stats``.
The vectors were recorded from the ``observe``-based join (the parent
of PR 14) before it was rewritten on raw identifier values, so a
replay proves the rewrite performs the same writes in the same order.

Regenerate only when the join is *meant* to change, from the commit
whose behaviour is the new reference::

    PYTHONPATH=src python tests/overlay/test_golden_join.py

and say in the commit why the state moved.
"""

import hashlib
import json
import random
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.overlay.network import OverlayNetwork, _slot_for_values
from repro.overlay.nodeid import bits_per_digit

GOLDEN_PATH = Path(__file__).parent / "golden" / "join_state.json"

#: (n, leaf_size, base, churn): the grid ISSUE 14 measured, one
#: 1024-node build, and every ring of at most ``2 * leaf_size + 1``
#: nodes for small leaf sets — there one neighbour sits on *both*
#: sides of the newcomer, the case the per-side insert must get right.
CASES = (
    [
        (n, leaf_size, base, churn)
        for n in (1, 2, 3, 5, 9, 17, 40, 300)
        for leaf_size in (1, 3, 4, 8)
        for base in (4, 16)
        for churn in (False, True)
    ]
    + [(1024, 4, 16, False)]
    + [
        (n, leaf_size, 4, churn)
        for leaf_size in (1, 2, 3, 4)
        for n in range(1, 2 * leaf_size + 2)
        for churn in (False, True)
    ]
)
CASES = list(dict.fromkeys(CASES))


def case_name(n, leaf_size, base, churn):
    return f"n{n}-l{leaf_size}-b{base}" + ("-churn" if churn else "")


def build_case(n, leaf_size, base, churn):
    """The overlay of one case: ``n`` joins, then six crash/join waves."""
    net = OverlayNetwork.build(n, base=base, leaf_size=leaf_size)
    if churn:
        rng = random.Random(f"golden-{case_name(n, leaf_size, base, churn)}")
        for wave in range(6):
            live = net.node_ids()
            if live:
                count = rng.randint(1, max(1, len(live) // 4))
                net.remove_nodes(rng.sample(live, count))
            for index in range(rng.randint(1, 4)):
                net.add_node(f"golden-{wave}-{index}")
    return net


def state_digest(net):
    """sha256 over everything the join writes, order included."""
    state = [
        [
            node_id.hex(),
            [
                [row, [[col, contact.hex()] for col, contact in bucket.items()]]
                for row, bucket in node.table._rows.items()
            ],
            [leaf.hex() for leaf in node.leaves._cw],
            [leaf.hex() for leaf in node.leaves._ccw],
        ]
        for node_id, node in net.nodes.items()
    ]
    extras = [
        [f"{value:040x}" for value in net._ids],
        sorted(item for item in net._pair_depths.items() if item[1]),
        sorted(net.join_stats.items()),
    ]
    blob = json.dumps([state, extras], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(case_name(*case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case_name(*case))
def test_join_state_matches_golden(case, golden):
    assert state_digest(build_case(*case)) == golden[case_name(*case)]


# ---------------------------------------------------------------------
# The invariants the direct writes rest on
# ---------------------------------------------------------------------
def assert_exact_state(net):
    """Leaf sets are ring slices; slots are empty iff their region is."""
    bpd = bits_per_digit(net.base)
    mask = net.base - 1
    for node_id, node in net.nodes.items():
        clockwise, counter_clockwise = net._ring_slices(node_id)
        assert node.leaves._cw == clockwise
        assert node.leaves._ccw == counter_clockwise
        wanted = {
            _slot_for_values(node_id.value, other.value, bpd, mask)
            for other in net.nodes
            if other != node_id
        }
        filled = {}
        for row, bucket in node.table._rows.items():
            for col, contact in bucket.items():
                filled[row, col] = contact
        assert set(filled) == wanted
        for slot, contact in filled.items():
            assert contact in net.nodes
            assert (
                _slot_for_values(node_id.value, contact.value, bpd, mask)
                == slot
            )


@pytest.mark.parametrize("leaf_size", [1, 2, 3, 4])
def test_tiny_rings_keep_exact_state_at_every_size(leaf_size):
    """Growing through n <= 2·leaf_size, where neighbours wrap."""
    net = OverlayNetwork(base=4, leaf_size=leaf_size)
    for index in range(2 * leaf_size + 3):
        net.add_node(f"tiny-{index}")
        assert_exact_state(net)
        members = [len(node.leaves.members()) for node in net.nodes.values()]
        assert members == [min(index, 2 * leaf_size)] * (index + 1)


@given(
    leaf_size=st.sampled_from([1, 2, 3, 4, 8]),
    base=st.sampled_from([4, 16]),
    ops=st.lists(
        st.one_of(
            st.integers(min_value=1, max_value=6),
            st.lists(st.integers(min_value=0), min_size=1, max_size=5),
        ),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=60, deadline=None)
def test_property_random_churn_keeps_exact_state(leaf_size, base, ops):
    """An int joins that many nodes; a list crashes the indexed ones."""
    net = OverlayNetwork(base=base, leaf_size=leaf_size)
    joined = 0
    for op in ops:
        if isinstance(op, int):
            for _ in range(op):
                net.add_node(f"prop-{joined}")
                joined += 1
        elif net.nodes:
            live = net.node_ids()
            net.remove_nodes(
                list(dict.fromkeys(live[index % len(live)] for index in op))
            )
        assert_exact_state(net)


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(
            {case_name(*case): state_digest(build_case(*case)) for case in CASES},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {len(CASES)} cases to {GOLDEN_PATH}")
