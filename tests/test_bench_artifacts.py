"""Where the figure/table benchmarks leave their artifacts."""

import json

import pytest

from benchmarks import conftest


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    target = tmp_path / "out"
    monkeypatch.setattr(conftest, "OUT_DIR", target)
    return target


def test_text_artifact_lands_in_the_untracked_out_dir(out_dir):
    path = conftest.write_artifact("fig_ci.txt", "a | b")
    assert path == out_dir / "fig_ci.txt"
    assert path.read_text() == "a | b\n"
    assert [entry.name for entry in out_dir.iterdir()] == ["fig_ci.txt"]


def test_data_adds_a_key_sorted_bench_json(out_dir):
    conftest.write_artifact("fig_ci.txt", "x", data={"b": 2, "a": 1})
    text = (out_dir / "BENCH_fig_ci.json").read_text()
    assert text == json.dumps({"a": 1, "b": 2}, indent=2) + "\n"
