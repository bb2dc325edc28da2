"""Satellite: SIGTERM a live sweep, then resume it, byte for byte.

A real ``repro sweep run --out DIR`` subprocess is killed mid-grid.
The contract after the kill: the out-dir contains **only complete**
per-variant JSON files (atomic rename — never a truncated file that
could pass for a result) and a journal the loader accepts (its worst
wound is one truncated final line).  ``repro sweep run --resume``
then finishes the grid, and the artifacts are byte-identical to an
uninterrupted run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.sweeps import (
    JOURNAL_NAME,
    get_sweep,
    load_journal,
    run_sweep,
)

SWEEP = "seed-grid"  # flash-crowd under three seeds: fast, real tasks


def cli(args, cwd, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep", *args],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        **kwargs,
    )


def test_sigterm_mid_sweep_then_resume_is_byte_identical(tmp_path):
    out_dir = tmp_path / "run"
    process = cli(
        ["run", SWEEP, "-j", "2", "--out", str(out_dir)], cwd=tmp_path
    )
    journal_path = out_dir / JOURNAL_NAME
    try:
        # Wait for at least one journaled result (header + 1 line),
        # then pull the plug while the rest of the grid is in flight.
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if process.poll() is not None:
                break  # finished before we could kill it — still fine
            if (
                journal_path.exists()
                and journal_path.read_bytes().count(b"\n") >= 2
            ):
                break
            time.sleep(0.05)
        else:
            pytest.fail("sweep produced no journaled result in time")
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=60.0)
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup only
            process.kill()
            process.wait()

    # 1. Every per-variant file present is complete and parseable —
    #    the atomic writer never leaves partial JSON behind.
    partial_files = sorted((out_dir / "flash-crowd").glob("*.json"))
    for path in partial_files:
        json.loads(path.read_text())
    assert not list(out_dir.rglob("*.tmp"))

    # 2. The journal is well-formed (worst case: one dropped tail).
    state = load_journal(journal_path)
    assert state.sweep == SWEEP
    journaled_before = set(state.results)
    assert journaled_before  # we waited for at least one

    # 3. Resume finishes the grid through the real CLI.
    resume = cli(
        ["run", SWEEP, "-j", "1", "--resume", "--out", str(out_dir)],
        cwd=tmp_path,
    )
    stdout, stderr = resume.communicate(timeout=300.0)
    assert resume.returncode == 0, stderr.decode()
    if journaled_before:
        assert b"journaled task(s) skipped" in stderr

    # 4. Byte-identity against an uninterrupted in-process run.
    reference = run_sweep(get_sweep(SWEEP), jobs=1)
    ref_dir = tmp_path / "reference"
    reference.write_artifacts(ref_dir)
    ref_files = sorted(
        path.relative_to(ref_dir)
        for path in (ref_dir / "flash-crowd").glob("*.json")
    )
    assert ref_files  # sanity: the sweep writes per-variant files
    for relative in ref_files:
        assert (out_dir / relative).read_bytes() == (
            ref_dir / relative
        ).read_bytes()
    # sweep.json matches after normalizing the wall-clock field.
    def normalized(path):
        merged = json.loads((path / "sweep.json").read_text())
        for entry in merged["tasks"]:
            entry["wall_seconds"] = 0.0
        return merged

    assert normalized(out_dir) == normalized(ref_dir)

    # 5. The resumed journal covers the whole grid.
    final_state = load_journal(journal_path)
    grid_keys = {task.key for task in get_sweep(SWEEP).tasks()}
    assert set(final_state.results) == grid_keys
