"""The command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import ScenarioMetrics, ScenarioRunner
from repro.sweeps import (
    JOURNAL_NAME,
    SweepJournal,
    SweepTask,
    load_journal,
    run_tasks,
    variant_json,
)
from repro.sweeps.builtin import BUILTIN_NAMES

#: A small deployment that detects nothing in its hour.
DEPLOY_ARGS = [
    "deploy",
    "--channels", "40",
    "--subscriptions", "400",
    "--nodes", "12",
    "--hours", "1",
    "--tau", "600",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.scheme == "lite"
        assert args.channels == 2000

    def test_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--scheme", "warp"])


class TestCommands:
    def test_simulate_runs(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme", "fast",
                "--channels", "150",
                "--subscriptions", "4000",
                "--nodes", "32",
                "--hours", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scheme=fast" in out
        assert "weighted delay" in out

    def test_table2_runs(self, capsys):
        code = main(
            [
                "table2",
                "--channels", "120",
                "--subscriptions", "3000",
                "--nodes", "32",
                "--hours", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Corona-Lite" in out
        assert "Legacy-RSS" in out

    def test_deploy_runs(self, capsys):
        code = main(DEPLOY_ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "detections:" in out

    def test_deploy_without_detections_prints_n_a(self, capsys):
        """A run that detects nothing has no steady detection time: it
        reads ``n/a``, as a scenario summary does, never ``nan``."""
        code = main(DEPLOY_ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "detections: 0 " in out
        assert "steady detection: n/a" in out
        assert "nan" not in out


class TestSweepCLI:
    def test_sweep_run_defaults(self):
        args = build_parser().parse_args(["sweep", "run", "seed-grid"])
        assert args.jobs == 0  # 0 = auto (cpu count)
        assert args.retries == 1
        assert args.timeout is None
        assert not args.json
        assert args.out is None
        assert args.trace is None

    def test_sweep_list_names_every_builtin(self, capsys):
        code = main(["sweep", "list"])
        assert code == 0
        out = capsys.readouterr().out
        for name in BUILTIN_NAMES:
            assert name in out

    def test_unknown_sweep_is_a_usage_error(self, capsys):
        code = main(["sweep", "run", "no-such-sweep"])
        assert code == 2
        assert "no-such-sweep" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--timeout", "0"),
            ("--timeout", "-5"),
            ("--timeout", "nan"),
            ("--timeout", "soon"),
            ("--retries", "-1"),
            ("--retries", "1.5"),
            ("--retries", "many"),
        ],
    )
    def test_bad_budget_is_refused_before_any_file(
        self, capsys, tmp_path, flag, value
    ):
        out_dir = tmp_path / "artifacts"
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "run", "seed-grid", "-j", "1", flag, value,
                  "--out", str(out_dir)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert flag in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flag, value, dest, parsed",
        [
            ("--timeout", "0.5", "timeout", 0.5),
            ("--timeout", "600", "timeout", 600.0),
            ("--retries", "0", "retries", 0),
        ],
    )
    def test_valid_budgets_parse(
        self, flag, value, dest, parsed
    ):
        args = build_parser().parse_args(
            ["sweep", "run", "seed-grid", flag, value]
        )
        assert getattr(args, dest) == parsed

    def test_resume_needs_out(self, capsys):
        assert main(["sweep", "run", "seed-grid", "--resume"]) == 2
        assert "--resume needs --out" in capsys.readouterr().err

    def test_resume_refuses_another_sweeps_journal(self, capsys, tmp_path):
        SweepJournal.create(tmp_path / JOURNAL_NAME, "seed-grid").close()
        code = main(["sweep", "run", "scheme-faults", "-j", "1",
                     "--resume", "--out", str(tmp_path)])
        assert code == 2
        assert "belongs to sweep 'seed-grid'" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            JOURNAL_NAME
        ]

    def test_resume_refuses_a_changed_monitoring_flag(
        self, capsys, tmp_path
    ):
        SweepJournal.create(
            tmp_path / JOURNAL_NAME, "seed-grid", check_invariants=True
        ).close()
        code = main(["sweep", "run", "seed-grid", "-j", "1", "--resume",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "check_invariants=True" in capsys.readouterr().err

    def test_resume_without_a_journal_starts_one(self, capsys, tmp_path):
        code = main(["sweep", "run", "seed-grid", "-j", "1", "--resume",
                     "--out", str(tmp_path)])
        assert code == 0
        assert "skipped" not in capsys.readouterr().err
        state = load_journal(tmp_path / JOURNAL_NAME)
        assert state.sweep == "seed-grid"
        assert len(state.results) == 3

    def test_resume_of_a_finished_run_reruns_nothing(self, capsys, tmp_path):
        argv = ["sweep", "run", "seed-grid", "-j", "1", "--out",
                str(tmp_path)]
        assert main(argv) == 0
        first = (tmp_path / "sweep.json").read_bytes()
        capsys.readouterr()
        assert main([*argv, "--resume"]) == 0
        assert "3 journaled task(s) skipped" in capsys.readouterr().err
        assert (tmp_path / "sweep.json").read_bytes() == first

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "resume", "seed-grid", "--out", "unused"],
            ["bench", "compare", "old.json", "new.json"],
        ],
    )
    def test_deleted_verbs_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_sweep_run_json_schema_and_out_layout(self, capsys, tmp_path):
        out_dir = tmp_path / "artifacts"
        code = main(
            [
                "sweep", "run", "seed-grid",
                "-j", "2",
                "--json",
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        merged = json.loads(capsys.readouterr().out)

        assert sorted(merged) == ["counts", "jobs", "sweep", "tasks"]
        assert merged["sweep"] == "seed-grid"
        assert merged["jobs"] == 2
        assert merged["counts"] == {"total": 3, "ok": 3, "failed": 0}
        # Enumeration order, never completion order.
        assert [entry["key"] for entry in merged["tasks"]] == [
            f"flash-crowd[base]@seed{seed}" for seed in (0, 1, 2)
        ]
        for entry in merged["tasks"]:
            assert entry["status"] == "ok"
            assert entry["error"] is None
            assert entry["metrics"]["scenario"] == "flash-crowd"

        # --out layout: merged artifact + summary + one canonical
        # per-variant file per completed task.
        assert (out_dir / "summary.txt").exists()
        on_disk = json.loads((out_dir / "sweep.json").read_text())
        assert on_disk == merged
        names = sorted(
            path.name for path in (out_dir / "flash-crowd").iterdir()
        )
        assert names == [
            "base.seed0.json", "base.seed1.json", "base.seed2.json",
        ]
        for seed, entry in zip((0, 1, 2), merged["tasks"]):
            path = out_dir / "flash-crowd" / f"base.seed{seed}.json"
            assert path.read_text() == variant_json(entry["metrics"])


class TestMetricsKeyOrderThroughMerge:
    def test_head_key_order_pinned_through_parallel_merge(self):
        """ScenarioMetrics' pinned key order survives the worker
        pickle boundary and the farm merge — the payload a parallel
        run hands back is ordered exactly like a direct
        ``to_dict()``."""
        (result,) = run_tasks([SweepTask("flash-crowd", None, 0)], jobs=2)
        keys = list(result.payload)
        head = list(ScenarioMetrics._HEAD_KEYS)
        assert keys[: len(head)] == head
        assert keys[len(head):] == [
            "bucket_times",
            "polls_per_min",
            "detection_bucket_times",
            "detection_delays",
        ]
        direct = (
            ScenarioRunner(get_scenario("flash-crowd"), seed=0)
            .run(None)
            .to_dict()
        )
        assert list(direct) == keys
        assert variant_json(direct) == variant_json(result.payload)


class TestReportCommand:
    """`repro report`: deterministic run reports (PR 10 tentpole)."""

    def test_json_byte_identical_across_invocations(self, capsys):
        def render():
            assert main(["report", "steady-state", "--format", "json"]) == 0
            return capsys.readouterr().out

        first, second = render(), render()
        assert first == second
        report = json.loads(first)
        assert report["scenario"] == "steady-state"
        # the acceptance surface: freshness percentiles + per-round
        # retransmission series are in the document
        percentiles = report["freshness"]["percentiles"]["freshness"]
        assert percentiles["p50"] is not None
        assert percentiles["p95"] is not None
        assert percentiles["p99"] is not None
        series = report["timeline"]["series"]
        assert "retransmissions" in series
        assert len(series["retransmissions"]["deltas"]) == len(
            report["timeline"]["times"]
        )

    def test_terminal_render_names_the_sections(self, capsys):
        assert main(["report", "steady-state"]) == 0
        out = capsys.readouterr().out
        assert "Run report — steady-state" in out
        assert "Freshness" in out
        assert "Timeline" in out
        assert "Counters" in out
        # deterministic by default: no wall-clock section
        assert "Phase timings" not in out

    def test_timings_flag_adds_wall_clock_section(self, capsys):
        assert main(["report", "steady-state", "--timings"]) == 0
        assert "Phase timings" in capsys.readouterr().out

    def test_out_writes_file_and_infers_format(self, tmp_path, capsys):
        target = tmp_path / "reports" / "steady.md"
        assert main(["report", "steady-state", "--out", str(target)]) == 0
        assert "wrote report to" in capsys.readouterr().out
        rendered = target.read_text()
        assert rendered.startswith("# Run report — steady-state")
        assert "| component | p50 |" in rendered

    def test_json_out_parses(self, tmp_path, capsys):
        target = tmp_path / "steady.json"
        assert main(["report", "steady-state", "--out", str(target)]) == 0
        report = json.loads(target.read_text())
        assert report["seed"] == 0

    def test_unknown_name_is_an_error(self, capsys):
        assert main(["report", "no-such-run"]) == 2
        assert "neither a registered scenario" in capsys.readouterr().err

    def test_sweep_name_renders_sweep_report(self, capsys):
        assert main(["report", "seed-grid", "--format", "json",
                     "-j", "1"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["sweep"] == "seed-grid"
        assert document["counts"]["reported"] == document["counts"]["total"]
        for task in document["tasks"]:
            assert task["report"]["freshness"]["detections"] >= 0

