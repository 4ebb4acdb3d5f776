"""The shipped configs against their recorded outputs, ``configs/GOLDEN.json``.

For every config of ``configs/`` the table holds the sha256 of each data
file a run writes and the manifest's ``derived`` block, as the manifest's
``outputs`` list them, recorded with one BLAS thread under the numpy and
scipy versions it names. The configs that run in under 0.3 s are rerun
here and must reproduce every byte; a change that moves any output, fast
config or slow, records the table anew and says why.

Run as a script, ``python tests/test_golden.py`` (with ``src`` on the
path), it reruns every config with one BLAS thread and rewrites the table.
"""

import os

if __name__ == "__main__":
    # one BLAS thread, as the table is recorded, set before numpy loads BLAS
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import hashlib
import json
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
    assert main(["run", "--config", str(CONFIGS / f"{name}.yaml"), "--out", str(out)]) == 0
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        table = {"blas_threads": 1,
                 "configs": {p.stem: _record(p.stem, Path(scratch) / p.stem)
                             for p in sorted(CONFIGS.glob("*.yaml"))},
                 "versions": {"numpy": np.__version__, "scipy": scipy.__version__}}
    (CONFIGS / "GOLDEN.json").write_text(json.dumps(table, indent=2, sort_keys=True) + "\n",
                                         encoding="utf-8")
