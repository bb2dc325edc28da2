"""scripts/e2e_pairs.py: the arithmetic of its report and its failure
rule, on stub trees — the real thing takes minutes per pair."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "e2e_pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("e2e_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


THROUGHPUT = {
    "name": "sim_s_per_host_s", "unit": "sim-s/s", "better": "higher",
    "bound": 0.25,
}


STUB_RESULT = {
    "correct": True, "attempted": 3, "failed": 0,
    "metrics": {"run_wall_s": {"value": 1.5, "unit": "s"}},
}


def _stub_tree(tmp_path, body: str) -> Path:
    run = tmp_path / "benchmarks" / "e2e" / "run.py"
    run.parent.mkdir(parents=True)
    run.write_text(body)
    return tmp_path


def test_parse_seeds(pairs):
    assert pairs.parse_seeds("0-3") == [0, 1, 2, 3]
    assert pairs.parse_seeds("7") == [7]
    assert pairs.parse_seeds("0-1,5,8-9") == [0, 1, 5, 8, 9]


def test_report_counts_pairs_and_ties_for_neither_side(pairs):
    parent = [100.0, 100.0, 100.0, 100.0]
    change = [150.0, 100.0, 90.0, 160.0]
    text = pairs.report(THROUGHPUT, parent, change)
    assert "change ahead in 2 of 4 pairs, behind in 1" in text
    lower = dict(THROUGHPUT, name="run_wall_s", unit="s", better="lower")
    assert "change ahead in 1 of 4 pairs, behind in 2" in pairs.report(
        lower, parent, change
    )


def test_report_flags_a_spread_wider_than_bound_times_parent_median(pairs):
    parent = [100.0, 101.0, 99.0, 100.0]
    tight = pairs.report(THROUGHPUT, parent, [200.0, 204.0, 198.0, 202.0])
    assert "0.25 x parent median = 25: under" in tight
    wide = pairs.report(THROUGHPUT, parent, [200.0, 260.0, 170.0, 230.0])
    assert wide.endswith("OVER")


def test_report_says_when_a_metric_did_not_move(pairs):
    text = pairs.report(THROUGHPUT, [5.0, 6.0], [5.0, 6.0])
    assert "equal on every seed" in text
    assert "separated" not in text


def test_report_says_whether_every_change_run_beats_every_parent_run(pairs):
    parent = [100.0, 104.0, 98.0, 101.0]
    separated = pairs.report(THROUGHPUT, parent, [105.0, 130.0, 110.0, 120.0])
    assert "\n  separated: yes\n" in separated
    # Ahead in every pair, yet one change run reads below a parent run.
    overlapping = pairs.report(THROUGHPUT, parent, [103.0, 130.0, 110.0, 120.0])
    assert "change ahead in 4 of 4 pairs" in overlapping
    assert "\n  separated: no\n" in overlapping
    # Touching ranges are not separated, and direction follows `better`.
    assert "separated: no" in pairs.report(
        THROUGHPUT, parent, [104.0, 130.0, 110.0, 120.0]
    )
    lower = dict(THROUGHPUT, name="run_wall_s", unit="s", better="lower")
    assert "separated: yes" in pairs.report(lower, parent, [90.0, 97.0, 80.0, 85.0])
    assert "separated: no" in pairs.report(lower, parent, [90.0, 99.0, 80.0, 85.0])


def test_a_spread_over_the_bound_can_still_be_separated(pairs):
    """The case §6.5 is about: OVER, but no run of the change is worse."""
    parent = [100.0, 101.0, 99.0, 100.0]
    text = pairs.report(THROUGHPUT, parent, [200.0, 260.0, 170.0, 230.0])
    assert "separated: yes" in text
    assert text.endswith("OVER")


def test_measure_alternates_which_side_runs_first(pairs, tmp_path, capsys):
    tree = _stub_tree(tmp_path, f"print({json.dumps(STUB_RESULT)!r})\n")
    values = pairs.measure(
        {"parent": tree, "change": tree}, "steady-poll", [0, 1, 2], 1.0
    )
    assert values == {
        "parent": {"run_wall_s": [1.5] * 3},
        "change": {"run_wall_s": [1.5] * 3},
    }
    sides = [line.split()[3] for line in capsys.readouterr().out.splitlines()]
    assert sides == ["parent", "change", "change", "parent", "parent", "change"]


def test_workload_all_reports_every_workload(
    pairs, tmp_path, capsys, monkeypatch
):
    """The rows a change does not claim have to be shown too."""
    tree = _stub_tree(tmp_path, f"print({json.dumps(STUB_RESULT)!r})\n")
    (tree / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1,
        "workloads": [{"name": "steady-poll"}, {"name": "macro-table2"}],
        "end_to_end": [
            {"name": "run_wall_s", "unit": "s", "better": "lower",
             "bound": 0.25},
        ],
    }))
    monkeypatch.setattr(pairs, "REPO_ROOT", tree)
    monkeypatch.setattr(
        pairs, "unpack",
        lambda rev, into: _stub_tree(
            into, f"print({json.dumps(STUB_RESULT)!r})\n"
        ),
    )
    assert pairs.main(
        ["--parent", "HEAD", "--workload", "all", "--seeds", "0-1"]
    ) == 0
    out = capsys.readouterr().out
    assert out.index("steady-poll: 2 pairs") < out.index("macro-table2: 2 pairs")
    assert out.count("equal on every seed") == 2
    with pytest.raises(SystemExit):
        pairs.main(["--parent", "HEAD", "--workload", "nonesuch"])


def test_run_once_returns_the_values_of_the_last_stdout_line(pairs, tmp_path):
    tree = _stub_tree(
        tmp_path,
        f"print('progress')\nprint({json.dumps(STUB_RESULT)!r})\n",
    )
    assert pairs.run_once(tree, "steady-poll", 0, 1.0) == {"run_wall_s": 1.5}


@pytest.mark.parametrize(
    "body",
    [
        "raise SystemExit(3)\n",
        "print('{\"correct\": false, \"failed\": 1, \"metrics\": {}}')\n",
        "print('{\"correct\": true, \"failed\": 2, \"metrics\": {}}')\n",
    ],
    ids=["non-zero-exit", "incorrect", "failed-rep"],
)
def test_a_failed_run_stops_the_measurement(pairs, tmp_path, body):
    tree = _stub_tree(tmp_path, body)
    with pytest.raises(SystemExit) as raised:
        pairs.run_once(tree, "steady-poll", 0, 1.0)
    assert raised.value.code not in (0, None)
