"""Golden results of the §5.1 macro simulator.

``golden/macro_results.json`` holds, for each of the five Corona
schemes run by :class:`~repro.simulation.macro.MacroSimulator` and for
:func:`~repro.simulation.macro.run_legacy`, every
:class:`~repro.simulation.macro.MacroResult` field — scalars by
``repr``, arrays as their dtype, shape and the sha256 of their bytes.
The runs use ``tests/simulation/test_macro.py``'s workload (600
channels, 30 000 subscriptions, trace seed 15; 128 nodes, simulator
seed 8, six hours in 30-minute buckets).  Unlike ``repro table2``'s
pinned stdout, this covers the *sampled* fields too
(``mean_weighted_delay``, ``detection_means``, ``per_channel_delay``),
so any change to the detection draw shows here.

Regenerate only when the macro simulator's behaviour is *meant* to
change, from the commit whose behaviour is the new reference::

    PYTHONPATH=src python tests/simulation/test_golden_macro.py

and say in the commit why the values moved.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import SCHEME_NAMES, CoronaConfig
from repro.simulation.macro import MacroResult, MacroSimulator, run_legacy
from repro.workload.trace import generate_trace

GOLDEN_PATH = Path(__file__).parent / "golden" / "macro_results.json"

RUNS = (*SCHEME_NAMES, "legacy")


def _encode(value):
    if isinstance(value, np.ndarray):
        return {
            "dtype": str(value.dtype),
            "shape": list(value.shape),
            "sha256": hashlib.sha256(value.tobytes()).hexdigest(),
        }
    return repr(value)


def macro_fields(name: str) -> dict:
    trace = generate_trace(n_channels=600, n_subscriptions=30_000, seed=15)
    if name == "legacy":
        result = run_legacy(
            trace, CoronaConfig(), horizon=6 * 3600.0, bucket_width=1800.0,
            seed=8,
        )
    else:
        result = MacroSimulator(
            trace,
            CoronaConfig(scheme=name),
            n_nodes=128,
            seed=8,
            horizon=6 * 3600.0,
            bucket_width=1800.0,
        ).run()
    return {
        field.name: _encode(getattr(result, field.name))
        for field in dataclasses.fields(MacroResult)
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", RUNS)
def test_result_replays_the_recorded_fields(golden, name):
    assert macro_fields(name) == golden[name]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(
            {name: macro_fields(name) for name in RUNS},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {len(RUNS)} results to {GOLDEN_PATH}")
