"""Golden metrics for the rate-limited poll path.

No ``ci/baselines/*.json`` runs with ``rate_limit_spacing > 0``, and a
banned poll is the only place a *replayed* snapshot's ``size`` reaches
the tradeoff factors (``DiffMsg.content_size`` ->
``ChannelStats.record_update``).  ``golden/rate_limited_servers.json``
holds, per variant of the built-in ``rate-limited-servers`` scenario at
seed 0, the sha256 of ``json.dumps(metrics.to_dict(), sort_keys=True)``
without the ``work_*`` / ``solver_work_*`` keys: those count how much
aggregation and solving a run took, not what it decided, and move
whenever a round gets cheaper (``ci/baselines`` pins them instead).
The values the digests cover were first recorded from the parent of
PR 15, which rendered and kept a full document for every poll, before
``WebServerFarm.fetch`` learned to answer *not modified* and to keep a
deferred snapshot — so a replay proves a capped source is still handed
the same bytes; the work-free digests were re-recorded from the parent
of PR 21, before summaries lost their level histogram.

Regenerate only when the bytes a server sends are *meant* to change,
from the commit whose behaviour is the new reference::

    PYTHONPATH=src python tests/simulation/test_golden_rate_limited.py

and say in the commit why they moved.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.scenarios import ScenarioRunner, get_scenario

GOLDEN_PATH = Path(__file__).parent / "golden" / "rate_limited_servers.json"
VARIANTS = ("capped", "uncapped")


def metrics_digest(variant: str) -> str:
    runner = ScenarioRunner(get_scenario("rate-limited-servers"), seed=0)
    metrics = {
        key: value
        for key, value in runner.run(variant).to_dict().items()
        if not key.startswith(("work_", "solver_work_"))
    }
    payload = json.dumps(metrics, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("variant", VARIANTS)
def test_metrics_replay_the_recorded_digest(variant):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert metrics_digest(variant) == golden[variant]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(
            {variant: metrics_digest(variant) for variant in VARIANTS},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {len(VARIANTS)} digests to {GOLDEN_PATH}")
