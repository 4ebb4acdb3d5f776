"""The shipped configs against their recorded outputs, ``configs/GOLDEN.json``.

For every config of ``configs/`` the table holds the sha256 of each data
file a run writes and the manifest's ``derived`` block, as the manifest's
``outputs`` list them, recorded with one BLAS thread under the numpy and
scipy versions it names. The configs that run in under 0.3 s are rerun
here and must reproduce every byte; a change that moves any output, fast
config or slow, records the table anew and says why.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest
import scipy

from spinlens.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = json.loads((CONFIGS / "GOLDEN.json").read_text(encoding="utf-8"))
FAST = ("holes_1d", "multifocal2d", "nonlinear_blockade", "quickstart",
        "rydberg_tables", "thick1d", "thin1d")


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
    out = tmp_path / "out"
    assert main(["run", "--config", str(CONFIGS / f"{name}.yaml"), "--out", str(out)]) == 0
    want = GOLDEN["configs"][name]
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.iterdir() if p.name != "manifest.json"}
    assert got == want["files"]
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["derived"] == want["derived"]
