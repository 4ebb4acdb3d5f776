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
file and ``derived`` block as identical or moved against it, each config's
manifest ``wall_time_s`` beside its ``derived`` line, and exits 1 if any
moved. ``--keep DIR`` writes the rerun outputs to DIR/<config>/ instead of a
temporary directory. ``--against DIR``, given the outputs a parent tree kept
with ``--keep``, adds the parent's wall time to each ``derived`` line and
prints for each moved CSV the largest relative change of each column,
|new - old| / |old| over the rows:

    git stash; python tests/test_golden.py --check --keep /tmp/parent
    git stash pop; python tests/test_golden.py --check --against /tmp/parent
"""

import os

if __name__ == "__main__":
    # one BLAS thread, as the table is recorded, set before numpy loads BLAS
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from spinlens.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = json.loads((CONFIGS / "GOLDEN.json").read_text(encoding="utf-8"))
FAST = ("displacement", "holes_1d", "holes_2d", "multifocal2d", "nonlinear_blockade", "quickstart",
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


def _wall_time(out: Path) -> str:
    """The ``wall_time_s`` of the manifest in ``out``, as printed, or why
    there is none."""
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        return f"{manifest['wall_time_s']:.3f} s"
    except (OSError, ValueError, KeyError):
        return "(no wall_time_s)"


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


def _relative_changes(new: Path, old: Path) -> list:
    """(column, largest |new - old| / |old| over its rows) for each column
    of the CSV ``new`` against the CSV ``old``: 0 where they agree, inf
    where an old 0 or a text cell changed; the whole file as one entry
    when the header or the row count differs."""
    rows = [list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
            for path in (new, old)]
    (head, *a), (old_head, *b) = rows
    if head != old_head or len(a) != len(b):
        return [("(header or rows)", math.inf)]
    out = []
    for j, name in enumerate(head):
        worst = 0.0
        for x, y in zip((r[j] for r in a), (r[j] for r in b)):
            if x == y:
                continue
            try:
                x, y = float(x), float(y)
            except ValueError:
                worst = math.inf
                continue
            worst = max(worst, abs(x - y) / abs(y) if y else math.inf)
        out.append((name, worst))
    return out


def _report(configs: dict, root: Path, against: Path | None = None) -> int:
    """Print each data file and ``derived`` block of ``configs`` as
    identical or moved against the table, with the config's manifest
    ``wall_time_s`` beside its ``derived`` verdict; with ``against`` (the
    outputs a parent tree kept) also the parent's wall time and each moved
    CSV's largest relative change per column, from the rerun outputs under
    ``root``. Returns 1 if any moved, else 0."""
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
            if label.endswith(" derived"):
                wall = f"wall_time_s {_wall_time(root / name)}"
                if against is not None:
                    wall += f", parent {_wall_time(against / name)}"
                print(f"{verdict:9s} {label:40s} {wall}")
            else:
                print(f"{verdict:9s} {label}")
            file = label.partition("/")[2]
            if (verdict == "moved" and against is not None and file.endswith(".csv")
                    and name in configs):
                new, old = root / name / file, against / name / file
                if not (new.exists() and old.exists()):
                    print(f"          (no {new if not new.exists() else old})")
                    continue
                for column, change in _relative_changes(new, old):
                    print(f"          {change:10.3g}  {column}")
    print(f"{counts['identical']} identical, {counts['moved']} moved")
    return 1 if counts["moved"] else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rerun the shipped configs and record "
                                     "or check their outputs against configs/GOLDEN.json.")
    parser.add_argument("--check", action="store_true",
                        help="compare with the table instead of rewriting it")
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="write the rerun outputs to DIR/<config>/")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="with --check: the wall times of, and per-column changes "
                             "of each moved CSV against, the outputs a parent tree "
                             "kept in DIR")
    args = parser.parse_args()
    if args.against is not None and not args.check:
        parser.error("--against needs --check")
    if args.keep is not None and args.keep.exists() and any(args.keep.iterdir()):
        parser.error(f"--keep {args.keep}: not empty")
    with contextlib.ExitStack() as stack:
        root = args.keep or Path(stack.enter_context(tempfile.TemporaryDirectory()))
        recorded = {p.stem: _record(p.stem, root / p.stem)
                    for p in sorted(CONFIGS.glob("*.yaml"))}
        if args.check:
            raise SystemExit(_report(recorded, root, args.against))
    table = {"blas_threads": 1, "configs": recorded,
             "versions": {"numpy": np.__version__, "scipy": scipy.__version__}}
    (CONFIGS / "GOLDEN.json").write_text(json.dumps(table, indent=2, sort_keys=True) + "\n",
                                         encoding="utf-8")
