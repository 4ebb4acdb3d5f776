"""Smoke test of the benchmark itself, on miniature tasks.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
a corrupted reference value makes the output gate count a failure, that a
seed fixes the generated configs, that a directory without the spinlens
sources gives an error instead of a result, and how the calibration samples
turn into the machine speed that scales the end-to-end times.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc, lines = _bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                         "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        assert any(line.startswith(f"metric {m['name']} = ") and line.endswith(m["unit"])
                   for line in lines)
    if trace:
        assert any(line.startswith("reconcile: ") for line in lines)


@pytest.mark.parametrize("workload", ["lens_design", "disorder"])
def test_corrupted_reference_counts_as_a_failure(workload):
    tasks = workloads.make_tasks(workload, SEED, 1, "tiny")
    target = next(t for t in tasks if t.key in run.load_reference()[t.check])
    reference = copy.deepcopy(run.load_reference())
    if target.check == "optimizer":
        reference["optimizer"][target.key] *= 1.0 + 1e-4
    else:
        reference["ensemble"][target.key]["p_foc"][0] += 1e-4
    result = run.run_workload(workload, SEED, 1, False, "tiny", reference=reference)
    assert not result["correct"]
    assert result["failed"] == sum(t.key == target.key for t in tasks)
    assert result["metrics"]["pass_frac"]["value"] < 1.0


@pytest.mark.parametrize("size", workloads.SIZES)
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_configs(workload, size):
    first = [t.config for t in workloads.make_tasks(workload, SEED, 30, size)]
    again = [t.config for t in workloads.make_tasks(workload, SEED, 30, size)]
    other = [t.config for t in workloads.make_tasks(workload, SEED + 1, 30, size)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("size", workloads.SIZES)
def test_every_seed_draws_tasks_with_references(size):
    reference = run.load_reference()
    for seed in range(40):
        for workload in workloads.WORKLOADS:
            for task in workloads.make_tasks(workload, seed, 30, size):
                assert task.optype in reference["operators"], task.optype
                if task.check == "ensemble":
                    assert task.key in reference["ensemble"], task.key
                elif task.check == "optimizer":
                    scan = task.config.get("scan", {})
                    sigmas = scan.get("sigma0") or [task.config["packet"]["sigma0"]]
                    family = (scan["kinds"][0] if task.config["scenario"] == "scaling_fit"
                              else f"lr{scan['alphas'][0]:g}")
                    for s in sigmas:
                        assert workloads.optimizer_key(size, family, s) in reference["optimizer"]


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc, lines = _bench("--workload", "disorder", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_times_are_scaled_by_the_speed_around_them():
    from calibration import REFERENCE_S, speeds

    # Half speed while samples 3 and 4 are taken; interval i lies between
    # samples i and i + 1 and takes the median of samples i - 1 to i + 2.
    samples = [REFERENCE_S] * 3 + [2 * REFERENCE_S] * 2 + [REFERENCE_S] * 3
    assert speeds(samples) == pytest.approx([1, 1, 2 / 3, 2 / 3, 2 / 3, 1, 1])
