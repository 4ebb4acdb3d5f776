"""``tests/same_outputs.py`` on two tiny trees of run outputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from same_outputs import compare, data_files

SCRIPT = Path(__file__).resolve().parent / "same_outputs.py"


def _tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


TASK = {"00/ensemble.csv": "realization,p_foc [1]\n0,0.5\n1,0.25\n",
        "00/summary.json": '{"p_foc": 0.375}\n',
        "00/manifest.json": '{"wall_time_s": 1.0}\n',
        "00/bench.log": "took 1.0 s\n"}


@pytest.fixture
def parent(tmp_path):
    return _tree(tmp_path / "parent", TASK)


def test_manifests_and_logs_are_skipped(parent):
    assert data_files(parent) == {"00/ensemble.csv", "00/summary.json"}


def test_identical_trees_pass(parent, tmp_path, capsys):
    # manifests and logs differ, as wall times do between runs
    change = _tree(tmp_path / "change", dict(TASK, **{
        "00/manifest.json": '{"wall_time_s": 2.0}\n', "00/bench.log": "took 2.0 s\n"}))
    assert compare(parent, change) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["identical 00/ensemble.csv", "identical 00/summary.json",
                   "2 identical, 0 moved"]


def test_a_moved_csv_and_json_fail(parent, tmp_path, capsys):
    change = _tree(tmp_path / "change", dict(TASK, **{
        "00/ensemble.csv": "realization,p_foc [1]\n0,0.5\n1,0.3\n",
        "00/summary.json": '{"p_foc": 0.4}\n'}))
    assert compare(parent, change) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "moved     00/ensemble.csv"
    # the per-column largest relative change, against the reference tree
    assert out[1].split() == ["0", "realization"]
    assert out[2].split() == ["0.2", "p_foc", "[1]"]
    assert out[3:] == ["moved     00/summary.json", "0 identical, 2 moved"]


def test_a_file_of_one_tree_moves(parent, tmp_path, capsys):
    change = _tree(tmp_path / "change", dict(TASK, **{"01/ensemble.csv": "x\n1\n"}))
    assert compare(parent, change) == 1
    assert f"(only in {change})" in capsys.readouterr().out


def test_no_data_file_is_no_pass(tmp_path):
    empty = _tree(tmp_path / "a", {"00/manifest.json": "{}\n"})
    assert compare(empty, empty) == 1


def test_script_exits_1_when_a_file_moved(parent, tmp_path):
    change = _tree(tmp_path / "change", dict(TASK, **{"00/summary.json": "{}\n"}))
    src = str(SCRIPT.parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, str(SCRIPT), str(parent), str(change)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 1
    assert run.stdout.splitlines()[-1] == "1 identical, 1 moved"
