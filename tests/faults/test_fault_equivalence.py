"""Fault-off equivalence: an inactive FaultPlane changes nothing.

The determinism contract of the fault subsystem: a system driven with
``faults=None`` (the plane absent — exactly the pre-fault code paths),
with ``FaultPlane()``, and with a configured-but-harmless plane
(zero rates, a partition that separates nobody) must produce
bit-identical counters, channel levels, aggregation state and farm
totals under any interleaving of steady state, churn and flash
crowds — and a scenario whose timeline carries a zero-rate
``MessageLoss`` event must emit metrics identical to the event-free
run.  (The committed CI baselines provide the third leg: their
pre-existing metric values survived this PR byte-for-byte.)
"""

import random

import pytest

from repro.core.system import CoronaSystem
from repro.faults import FaultPlane, LinkSpec, LinkTable
from repro.scenarios import ChurnWave, FlashCrowd, MessageLoss
from repro.scenarios.runner import ScenarioRunner
from repro.simulation.webserver import WebServerFarm
from tests.scenarios.conftest import tiny_spec

URLS = [f"http://fault{rank}.example/rss" for rank in range(8)]


def build_system(faults, seed, fast_config):
    farm = WebServerFarm(seed=seed)
    for url in URLS:
        farm.host(url, update_interval=90.0, target_bytes=400)
    system = CoronaSystem(
        n_nodes=32,
        config=fast_config,
        fetcher=farm,
        seed=seed,
        faults=faults,
    )
    return system, farm


def drive(system, farm, seed, steps=18):
    """A seeded interleaving of churn, crowds, polls and rounds
    (the shape of test_solve_memo_equivalence's system drive)."""
    rng = random.Random(seed)
    client = 0
    now = 0.0
    for url in URLS:
        for _ in range(4):
            system.subscribe(url, f"c{client}", now=0.0)
            client += 1
    for step in range(steps):
        now += 60.0
        action = rng.random()
        if action < 0.2 and len(system.nodes) > 6:
            system.crash_nodes(
                rng.randint(1, 2), now=now, rng=rng,
                target=rng.choice(["any", "managers"]),
            )
        elif action < 0.4:
            system.join_nodes(rng.randint(1, 2), now=now)
        elif action < 0.6:
            url = URLS[rng.randrange(len(URLS))]
            for _ in range(rng.randint(5, 15)):
                system.subscribe(url, f"crowd-{client}", now=now)
                client += 1
        farm.advance_to(now)
        system.poll_due(now)
        if step % 2 == 1:
            system.run_maintenance_round(now)
    return system


def assert_systems_identical(left, right, left_farm, right_farm):
    assert left.counters == right.counters
    assert left.aggregator.states == right.aggregator.states
    assert (
        left.aggregator.work.as_dict() == right.aggregator.work.as_dict()
    )
    assert set(left.managers) == set(right.managers)
    for url in left.managers:
        assert left.channel_level(url) == right.channel_level(url), url
    for node_id, node in left.nodes.items():
        other = right.nodes[node_id]
        assert node.scheduler.tasks.keys() == other.scheduler.tasks.keys()
        for url, task in node.scheduler.tasks.items():
            twin = other.scheduler.tasks[url]
            assert (task.content.version, task.content.lines) == (
                twin.content.version, twin.content.lines
            )
    assert left_farm.total_polls == right_farm.total_polls
    assert left_farm.total_updates == right_farm.total_updates
    assert left_farm.poll_counts() == right_farm.poll_counts()


def harmless_plane(seed):
    """Active in configuration, incapable of harming anything."""
    plane = FaultPlane(seed=seed)
    plane.partition("ghost", members=())
    return plane


def empty_table_plane(seed):
    """A clean plane with an empty LinkTable installed: the link-layer
    leg of the contract — installing no table and installing a table
    with nothing configured must be indistinguishable."""
    plane = FaultPlane(seed=seed)
    plane.install_links(LinkTable(seed=seed + 7))
    return plane


def default_spec_table_plane(seed):
    """An *active* table whose every spec is all-default (non-hostile):
    spec resolution runs on each hop, but every link falls back to the
    uniform path — still byte-identical to no table at all."""
    plane = FaultPlane(seed=seed)
    table = LinkTable(seed=seed + 7)
    table.set_link("nobody", "nowhere", LinkSpec())
    plane.install_links(table)
    return plane


class TestSystemFaultOffEquivalence:
    @pytest.mark.parametrize("seed", [61, 62, 63])
    @pytest.mark.parametrize(
        "make_plane",
        [
            lambda seed: None,
            FaultPlane,
            harmless_plane,
            empty_table_plane,
            default_spec_table_plane,
        ],
        ids=[
            "absent",
            "none",
            "zero-rate",
            "empty-link-table",
            "default-spec-table",
        ],
    )
    def test_bit_identical_to_plane_absent(
        self, seed, make_plane, fast_config
    ):
        bare_sys, bare_farm = build_system(None, seed, fast_config)
        plane = make_plane(seed)
        sys_, farm = build_system(plane, seed, fast_config)
        drive(bare_sys, bare_farm, seed)
        drive(sys_, farm, seed)
        assert_systems_identical(bare_sys, sys_, bare_farm, farm)
        if plane is not None:
            assert not plane.ever_active
            assert plane.counters.as_dict() == {
                key: 0 for key in plane.counters.as_dict()
            }


FAULT_KEYS = (
    "messages_dropped",
    "messages_duplicated",
    "retransmissions",
    "repair_diffs",
    "failed_polls",
    "poll_retries",
    "manager_failovers",
    "queued_messages",
    "queue_drops",
    "retries_suppressed",
    "polls_shed",
    "rate_limited_polls",
    "flap_subscribes",
    "flap_unsubscribes",
)


class TestScenarioFaultOffEquivalence:
    """Scenario layer: a zero-rate loss event is a no-op."""

    SHAPES = {
        "steady": (),
        "heavy-churn": (
            ChurnWave(
                at=120.0, duration=240.0, interval=60.0,
                crashes_per_tick=1, joins_per_tick=1,
            ),
        ),
        "flash-crowd": (
            FlashCrowd(
                at=300.0, channel=0, subscribers=30, window=30.0,
                update_factor=2.0,
            ),
        ),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_zero_rate_loss_event_is_noop(self, shape):
        base_events = self.SHAPES[shape]
        plain = ScenarioRunner(
            tiny_spec(events=base_events), seed=13
        ).run().to_dict()
        nulled = ScenarioRunner(
            tiny_spec(
                events=base_events
                + (MessageLoss(at=60.0, duration=600.0, rate=0.0),)
            ),
            seed=13,
        ).run().to_dict()
        # The only legitimate difference: the timeline carries one
        # more (inert) event.
        assert nulled.pop("injected_events") == (
            plain.pop("injected_events") + 1
        )
        assert plain == nulled

    def test_fault_metrics_all_zero_on_clean_runs(self):
        metrics = ScenarioRunner(tiny_spec(), seed=5).run().to_dict()
        for key in FAULT_KEYS:
            assert metrics[key] == 0, key
