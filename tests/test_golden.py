"""The shipped configs against their recorded outputs, ``configs/GOLDEN.json``.

For every config of ``configs/`` the table holds the sha256 of each data
file a run writes and the manifest's ``derived`` block, as the manifest's
``outputs`` list them, recorded with one BLAS thread under the numpy and
scipy versions it names. The configs that run in under 0.3 s are rerun
here and must reproduce every byte; a change that moves any output, fast
config or slow, records the table anew and says why.

Run as a script (with ``src`` on the path), it reruns every config with
one BLAS thread. ``python tests/test_golden.py`` rewrites the table;
``python tests/test_golden.py --check`` leaves it as it is, prints each data
file and ``derived`` block as identical or moved against it, and exits 1 if
any moved.
"""

import os

if __name__ == "__main__":
    # one BLAS thread, as the table is recorded, set before numpy loads BLAS
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from spinlens.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = json.loads((CONFIGS / "GOLDEN.json").read_text(encoding="utf-8"))
FAST = ("holes_1d", "multifocal2d", "nonlinear_blockade", "quickstart",
        "rydberg_tables", "thick1d", "thin1d")


def _record(name: str, out: Path) -> dict:
    """Run one shipped config into ``out``: its data files' sha256 and its
    manifest's ``derived`` block, as the table holds them."""
    config = str(CONFIGS / f"{name}.yaml")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", config, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return {"derived": manifest["derived"],
            "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in out.iterdir() if p.name != "manifest.json"}}


def test_table_covers_every_shipped_config():
    assert sorted(GOLDEN["configs"]) == sorted(p.stem for p in CONFIGS.glob("*.yaml"))


@pytest.mark.parametrize("name", FAST)
def test_fast_config_reproduces_its_outputs(tmp_path, name):
    running = {"numpy": np.__version__, "scipy": scipy.__version__}
    if running != GOLDEN["versions"]:
        pytest.skip(f"outputs recorded under {GOLDEN['versions']}, running {running}")
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    if threads != str(GOLDEN["blas_threads"]):
        pytest.skip(f"outputs recorded with {GOLDEN['blas_threads']} BLAS thread, "
                    f"running with OPENBLAS_NUM_THREADS={threads}")
    got, want = _record(name, tmp_path / "out"), GOLDEN["configs"][name]
    assert got["files"] == want["files"]
    assert got["derived"] == want["derived"]


def _report(configs: dict) -> int:
    """Print each data file and ``derived`` block of ``configs`` as
    identical or moved against the table; 1 if any moved, else 0."""
    running = {"numpy": np.__version__, "scipy": scipy.__version__}
    if running != GOLDEN["versions"]:
        print(f"note: table recorded under {GOLDEN['versions']}, running {running}")
    counts = {"identical": 0, "moved": 0}
    for name in sorted(set(configs) | set(GOLDEN["configs"])):
        got = configs.get(name, {"derived": None, "files": {}})
        want = GOLDEN["configs"].get(name, {"derived": None, "files": {}})
        entries = [(f"{name}/{file}", got["files"].get(file), want["files"].get(file))
                   for file in sorted(set(got["files"]) | set(want["files"]))]
        entries.append((f"{name} derived", got["derived"], want["derived"]))
        for label, a, b in entries:
            verdict = "identical" if a == b and a is not None else "moved"
            counts[verdict] += 1
            print(f"{verdict:9s} {label}")
    print(f"{counts['identical']} identical, {counts['moved']} moved")
    return 1 if counts["moved"] else 0


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        raise SystemExit("usage: python tests/test_golden.py [--check]")
    with tempfile.TemporaryDirectory() as scratch:
        recorded = {p.stem: _record(p.stem, Path(scratch) / p.stem)
                    for p in sorted(CONFIGS.glob("*.yaml"))}
    if sys.argv[1:] == ["--check"]:
        raise SystemExit(_report(recorded))
    table = {"blas_threads": 1, "configs": recorded,
             "versions": {"numpy": np.__version__, "scipy": scipy.__version__}}
    (CONFIGS / "GOLDEN.json").write_text(json.dumps(table, indent=2, sort_keys=True) + "\n",
                                         encoding="utf-8")
