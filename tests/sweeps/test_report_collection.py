"""Per-task report collection through the farm (PR 10 tentpole).

``SweepTask.collect_report`` attaches the introspection plane inside
the worker and ships the reduced report document back beside the
payload.  Like ``check_invariants``, collection is read-only: the
variant JSON the farm merges is byte-identical with collection on or
off, serial or parallel — and the merged ``run_report`` document is
itself deterministic across worker counts.  The journal round-trips
the report so resumed sweeps keep it.
"""

from __future__ import annotations

import json
from dataclasses import replace

from repro.sweeps import SweepTask, run_tasks, variant_json
from repro.sweeps.journal import SweepJournal, load_journal

TASKS = (
    SweepTask("flash-crowd", None, 0),
    SweepTask("flash-crowd", None, 1),
)


def _collected(jobs: int):
    tasks = [replace(task, collect_report=True) for task in TASKS]
    return run_tasks(tasks, jobs=jobs)


class TestCollection:
    def test_worker_ships_report_beside_payload(self):
        results = _collected(jobs=1)
        for result in results:
            assert result.ok
            report = result.report
            assert report is not None
            assert report["scenario"] == "flash-crowd"
            assert report["freshness"]["detections"] > 0
            assert report["timeline"]["rounds"] > 0
            # deterministic body only: never the wall-clock leg
            assert "wall_timings" not in report

    def test_collection_never_changes_the_payload(self):
        plain = run_tasks(list(TASKS), jobs=1)
        collected = _collected(jobs=1)
        for before, after in zip(plain, collected):
            assert before.report is None
            assert variant_json(before.payload) == variant_json(
                after.payload
            )

    def test_reports_byte_identical_serial_vs_parallel(self):
        def documents(jobs):
            return [
                json.dumps(result.report, sort_keys=True)
                for result in _collected(jobs)
            ]

        assert documents(1) == documents(2)

    def test_collect_report_stays_out_of_the_task_key(self):
        task = TASKS[0]
        assert replace(task, collect_report=True).key == task.key


class TestJournalRoundTrip:
    def test_report_survives_journal_replay(self, tmp_path):
        (result,) = run_tasks(
            [replace(TASKS[0], collect_report=True)], jobs=1
        )
        path = tmp_path / "journal.jsonl"
        journal = SweepJournal.create(path, sweep="demo")
        journal.append(result)
        journal.close()
        state = load_journal(path)
        replayed = state.results[result.task.key]
        assert replayed.report == result.report

    def test_old_journals_without_reports_load(self, tmp_path):
        (result,) = run_tasks([TASKS[0]], jobs=1)
        path = tmp_path / "journal.jsonl"
        journal = SweepJournal.create(path, sweep="demo")
        journal.append(result)
        journal.close()
        # Simulate a pre-report journal: strip the field from the line.
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record.pop("report")
        path.write_text(
            lines[0] + "\n" + json.dumps(record, sort_keys=True) + "\n"
        )
        state = load_journal(path)
        assert state.results[result.task.key].report is None
