"""Golden results of the §5.2 deployment simulator.

``golden/deployment_results.json`` holds, for three fixed-seed runs of
:class:`~repro.simulation.deployment.DeploymentSimulator`, every
:class:`~repro.simulation.deployment.DeploymentResult` field — floats
by ``repr``, arrays as lists of ``repr`` strings, counts as integers —
plus the stdout of one ``repro deploy`` call.  The runs are the
``tests/simulation/test_deployment.py`` fixture, the ci-scale Figure
9/10 fixture of ``benchmarks/conftest.py::deployment_run`` and the
arguments of ``tests/test_cli.py::test_deploy_runs``.  They were
recorded before the deployment simulator and the scenario runner were
folded onto one subscribe → maintain → poll loop, so a replay proves
the shared loop drives the protocol exactly as the deployment's own
loop did.

Regenerate only when the deployment's behaviour is *meant* to change,
from the commit whose behaviour is the new reference::

    PYTHONPATH=src python tests/simulation/test_golden_deployment.py

and say in the commit why the values moved.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import CoronaConfig
from repro.simulation.deployment import DeploymentSimulator
from repro.workload.trace import generate_trace

GOLDEN_PATH = Path(__file__).parent / "golden" / "deployment_results.json"

FIELDS = (
    "bucket_times",
    "corona_polls_per_min",
    "legacy_polls_per_min",
    "detection_times",
    "mean_detection_time",
    "legacy_detection_time",
    "detections",
    "total_polls",
    "total_subscriptions",
    "redundant_diffs",
    "final_poll_tasks",
)

#: name -> (trace arguments, config arguments, simulator arguments).
CONFIGS = {
    "deployment-fixture": (
        dict(n_channels=120, n_subscriptions=1200, seed=23,
             subscription_window=900.0),
        dict(polling_interval=900.0, maintenance_interval=900.0, base=4),
        dict(n_nodes=24, seed=6, horizon=2 * 3600.0, bucket_width=900.0),
    ),
    "fig9-10-ci": (
        dict(n_channels=150, n_subscriptions=1500, seed=9,
             subscription_window=3600.0),
        dict(polling_interval=1800.0, maintenance_interval=1800.0, base=4),
        dict(n_nodes=24, seed=4, horizon=2 * 3600.0, bucket_width=1800.0),
    ),
    # What ``repro deploy`` builds from the arguments below.
    "cli-deploy": (
        dict(n_channels=40, n_subscriptions=400, seed=7,
             subscription_window=3600.0),
        dict(polling_interval=600.0, maintenance_interval=600.0, base=4),
        dict(n_nodes=12, seed=7, horizon=3600.0),
    ),
}

CLI_ARGS = [
    "deploy",
    "--channels", "40",
    "--subscriptions", "400",
    "--nodes", "12",
    "--hours", "1",
    "--tau", "600",
]


def _encode(value):
    if isinstance(value, np.ndarray):
        return [repr(float(item)) for item in value]
    if isinstance(value, float):
        return repr(value)
    return int(value)


def deployment_fields(name: str) -> dict:
    trace_args, config_args, simulator_args = CONFIGS[name]
    result = DeploymentSimulator(
        generate_trace(**trace_args),
        CoronaConfig(**config_args),
        **simulator_args,
    ).run()
    return {field: _encode(getattr(result, field)) for field in FIELDS}


def cli_stdout() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(CLI_ARGS) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_result_replays_the_recorded_fields(golden, name):
    assert deployment_fields(name) == golden["results"][name]


def test_cli_deploy_replays_the_recorded_stdout(golden):
    assert cli_stdout() == golden["cli_stdout"]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "results": {
                    name: deployment_fields(name) for name in sorted(CONFIGS)
                },
                "cli_stdout": cli_stdout(),
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {len(CONFIGS)} results and one stdout to {GOLDEN_PATH}")
