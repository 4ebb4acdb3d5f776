"""Compare two trees of ``spinlens run`` outputs data file by data file.

Walks DIR_A (the reference, say a parent tree's) and DIR_B, such as two
``perfbench/runs/<run>/tasks`` directories or two ``tests/test_golden.py
--keep`` trees, and prints each data file, by its path under the tree, as
identical or moved. Manifests (``manifest.json``) and logs (``*.log``) are
skipped: they hold wall times and paths. A file in one tree only counts as
moved; for a moved CSV in both, the largest relative change of each column
is printed below it (``test_golden._relative_changes``). Exits 1 if anything
moved or there is no data file to compare, else 0. Needs ``src`` on the
path, as ``test_golden`` does:

    PYTHONPATH=src python tests/same_outputs.py PARENT/tasks CHANGE/tasks
"""

import argparse
from pathlib import Path

from test_golden import _relative_changes


def data_files(root: Path) -> set:
    """The data files under ``root``, as paths relative to it."""
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file() and p.name != "manifest.json" and p.suffix != ".log"}


def compare(a: Path, b: Path) -> int:
    """Print each data file of ``a`` and ``b`` as identical or moved, and
    the counts; returns 1 if any moved or there is none, else 0."""
    counts = {"identical": 0, "moved": 0}
    for name in sorted(data_files(a) | data_files(b)):
        old, new = a / name, b / name
        both = old.is_file() and new.is_file()
        verdict = "identical" if both and old.read_bytes() == new.read_bytes() else "moved"
        counts[verdict] += 1
        print(f"{verdict:9s} {name}")
        if not both:
            print(f"          (only in {a if old.is_file() else b})")
        elif verdict == "moved" and name.endswith(".csv"):
            for column, change in _relative_changes(new, old):
                print(f"          {change:10.3g}  {column}")
    print(f"{counts['identical']} identical, {counts['moved']} moved")
    return 1 if counts["moved"] or not counts["identical"] else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Compare the data files of two trees "
                                     "of spinlens run outputs.")
    parser.add_argument("dir_a", type=Path, help="the reference tree")
    parser.add_argument("dir_b", type=Path, help="the tree compared with it")
    args = parser.parse_args()
    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            parser.error(f"{d}: not a directory")
    raise SystemExit(compare(args.dir_a, args.dir_b))
