"""Crash-resumable sweeps: the journal and the resume contract.

The journal is append-only JSONL, flushed per line, so the only
damage a kill can inflict is a truncated final line — which the
loader drops with a warning.  Everything else (corrupt interior line,
wrong sweep, mismatched monitoring flag) fails loudly.  A resumed run
skips journaled tasks and produces artifacts byte-identical to an
uninterrupted run.
"""

from __future__ import annotations

import json

import pytest

from repro.sweeps import (
    JOURNAL_NAME,
    JournalError,
    SweepJournal,
    SweepSelection,
    SweepSpec,
    SweepTask,
    TaskResult,
    load_journal,
    run_sweep,
    run_tasks,
    variant_json,
)

SPEC = SweepSpec(
    name="journal-probe",
    description="two fast variants",
    selections=(SweepSelection("flash-crowd"),),
    seeds=(0, 1),
)


def fill(journal_path, results=None):
    journal = SweepJournal.create(journal_path, "journal-probe")
    for result in results or ():
        journal.append(result)
    journal.close()
    return journal_path


def fake_result(seed: int, status: str = "ok") -> TaskResult:
    return TaskResult(
        task=SweepTask("flash-crowd", None, seed),
        status=status,
        attempts=1,
        wall_seconds=0.25,
        alloc_blocks=10,
        error=None if status == "ok" else "boom",
        payload={"detections": seed} if status == "ok" else None,
    )


class TestJournalRoundTrip:
    def test_results_survive_a_round_trip(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        fill(path, [fake_result(0), fake_result(1, status="failed")])
        state = load_journal(path)
        assert state.sweep == "journal-probe"
        assert sorted(state.results) == [
            "flash-crowd[base]@seed0",
            "flash-crowd[base]@seed1",
        ]
        ok = state.results["flash-crowd[base]@seed0"]
        assert ok.ok and ok.payload == {"detections": 0}
        failed = state.results["flash-crowd[base]@seed1"]
        assert not failed.ok and failed.error == "boom"

    def test_truncated_final_line_is_dropped(self, tmp_path):
        path = fill(tmp_path / JOURNAL_NAME, [fake_result(0)])
        whole = path.read_bytes()
        path.write_bytes(whole + b'{"key": "flash-crowd[base]@s')
        state = load_journal(path)
        assert list(state.results) == ["flash-crowd[base]@seed0"]
        assert state.clean_size == len(whole)

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = fill(tmp_path / JOURNAL_NAME, [fake_result(0)])
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:20]  # mangle a non-final record
        path.write_text("\n".join(lines + ["{}"]) + "\n")
        with pytest.raises(JournalError, match="corrupt record"):
            load_journal(path)

    def test_missing_or_foreign_header_raises(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(JournalError, match="no header"):
            load_journal(empty)
        foreign = tmp_path / "foreign.jsonl"
        foreign.write_text('{"hello": "world"}\n')
        with pytest.raises(JournalError, match="unrecognised header"):
            load_journal(foreign)

    def test_resume_rejects_the_wrong_sweep_or_flag(self, tmp_path):
        path = fill(tmp_path / JOURNAL_NAME)
        with pytest.raises(JournalError, match="belongs to sweep"):
            SweepJournal.resume(path, "other-sweep")
        with pytest.raises(JournalError, match="check_invariants"):
            SweepJournal.resume(
                path, "journal-probe", check_invariants=True
            )

    def test_resume_truncates_the_partial_tail(self, tmp_path):
        path = fill(tmp_path / JOURNAL_NAME, [fake_result(0)])
        clean = path.read_bytes()
        path.write_bytes(clean + b'{"torn')
        journal, state = SweepJournal.resume(path, "journal-probe")
        journal.append(fake_result(1))
        journal.close()
        reloaded = load_journal(path)
        assert sorted(reloaded.results) == [
            "flash-crowd[base]@seed0",
            "flash-crowd[base]@seed1",
        ]


class TestResumeEquivalence:
    def test_resumed_artifacts_match_uninterrupted(self, tmp_path):
        # The uninterrupted reference.
        reference = run_sweep(SPEC, jobs=1)
        ref_dir = tmp_path / "reference"
        reference.write_artifacts(ref_dir)

        # An "interrupted" run: only the first task reached the
        # journal before the kill.
        journal_path = tmp_path / JOURNAL_NAME
        journal = SweepJournal.create(journal_path, SPEC.name)
        journal.append(reference.results[0])
        journal.close()

        journal, state = SweepJournal.resume(journal_path, SPEC.name)
        executed: list[str] = []
        resumed = run_sweep(
            SPEC,
            jobs=1,
            completed=state.results,
            on_result=lambda result: executed.append(result.task.key),
        )
        journal.close()

        # Only the unjournaled task ran again.
        assert executed == ["flash-crowd[base]@seed1"]
        res_dir = tmp_path / "resumed"
        resumed.write_artifacts(res_dir)

        # Per-variant files: byte-identical.
        for name in ("base.seed0.json", "base.seed1.json"):
            assert (res_dir / "flash-crowd" / name).read_bytes() == (
                ref_dir / "flash-crowd" / name
            ).read_bytes()
        # sweep.json: identical after normalizing the one legitimately
        # wall-clock-dependent field.
        def normalized(path):
            merged = json.loads((path / "sweep.json").read_text())
            for entry in merged["tasks"]:
                entry["wall_seconds"] = 0.0
            return merged

        assert normalized(res_dir) == normalized(ref_dir)

    def test_failed_results_are_not_rerun_on_resume(self, tmp_path):
        completed = {fake_result(0, status="failed").task.key: fake_result(
            0, status="failed"
        )}
        executed: list[str] = []
        run = run_sweep(
            SPEC,
            jobs=1,
            completed=completed,
            on_result=lambda result: executed.append(result.task.key),
        )
        # The journaled failure is spliced back, stable, unrepeated.
        assert executed == ["flash-crowd[base]@seed1"]
        assert run.results[0].status == "failed"
        assert run.results[0].error == "boom"
        assert run.results[1].ok


class TestCheckInvariantsPlumbing:
    def test_monitored_sweep_carries_violations_not_payload(self):
        run = run_sweep(SPEC, jobs=1, check_invariants=True)
        for result in run.results:
            assert result.violations == []
            assert "violations" not in result.payload
        report = run.violation_report()
        assert report["monitored_tasks"] == 2
        assert report["total_violations"] == 0

    def test_unmonitored_sweep_reports_no_monitored_tasks(self):
        run = run_sweep(SPEC, jobs=1)
        assert all(r.violations is None for r in run.results)
        assert run.violation_report()["monitored_tasks"] == 0

    def test_monitoring_leaves_variant_bytes_identical(self):
        plain = run_sweep(SPEC, jobs=1)
        monitored = run_sweep(SPEC, jobs=1, check_invariants=True)
        for a, b in zip(plain.results, monitored.results):
            assert variant_json(a.payload) == variant_json(b.payload)


class TestRespawnCap:
    def test_poisoned_environment_fails_fast(self, monkeypatch):
        # Kill every worker the moment it gets a task: with retries
        # high enough to outlast the cap, the farm must raise instead
        # of respawning forever.
        from repro.sweeps import farm as farm_module

        original_assign = farm_module._Worker.assign

        def sabotage(self, item, task):
            original_assign(self, item, task)
            self.process.terminate()

        monkeypatch.setattr(farm_module._Worker, "assign", sabotage)
        monkeypatch.setattr(farm_module, "MAX_RESPAWNS", 3)
        with pytest.raises(RuntimeError, match="poisoned"):
            run_tasks(
                [SweepTask("flash-crowd", None, 0)], jobs=2, retries=10
            )
