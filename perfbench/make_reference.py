#!/usr/bin/env python3
"""Record the reference values the benchmark checks against.

    python3 perfbench/make_reference.py

Runs every optimizer and ensemble variant of both sizes, and one blockade
round per size, through ``spinlens.cli.main`` with spans installed, and
writes ``perfbench/reference.json``:

* ``optimizer``: optimal focal width per (family, sigma0) key;
* ``ensemble``: per-realization p_foc and sigma_f per ensemble variant;
* ``operators``: size and nonzeros of the largest operator each operator
  family hands to the propagator, for the input record.

The committed file was recorded at the commit that added the benchmark.
Re-record only when a change is meant to alter these numbers, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def variants(size: str) -> list:
    tasks = workloads.optimizer_variants(size)
    for pool in workloads.ensemble_variants(size).values():
        tasks += pool
    return tasks + workloads.make_tasks("blockade", 0, 0, size)


def main() -> int:
    run.pin_environment()
    cli = run.import_spinlens()
    from checks import check_task, ensemble_records, optimizer_widths
    from tracing import Tracer

    reference = {"optimizer": {}, "ensemble": {}, "operators": {}}
    work = run.RUNS / "make_reference"
    shutil.rmtree(work, ignore_errors=True)
    for size in workloads.SIZES:
        tasks = variants(size)
        cfgs = run.write_configs(tasks, work / size)
        tracer = Tracer()
        tracer.install()
        try:
            records, wall = run.run_pass(cli, tasks, cfgs, work / size / "tasks", tracer)
        finally:
            tracer.uninstall()
        print(f"{size}: {len(tasks)} tasks in {wall:.1f} s", flush=True)
        for task, rec in zip(tasks, records):
            if rec["rc"] != 0:
                print(f"{task.key} failed:\n{rec['error'] or rec['log']}", file=sys.stderr)
                return 1
            if task.check == "optimizer":
                for key, width in optimizer_widths(task, rec["out"]).items():
                    if reference["optimizer"].setdefault(key, width) != width:
                        print(f"{key}: widths differ between tasks", file=sys.stderr)
                        return 1
            elif task.check == "ensemble":
                reference["ensemble"][task.key] = ensemble_records(rec["out"])
            else:
                problems = check_task(task, rec["out"], reference)
                if problems:
                    print(f"{task.key}: {problems}", file=sys.stderr)
                    return 1
        for span in tracer.spans:
            if span[0] != "propagator.expimv":
                continue
            optype = tasks[span[4]].optype
            op = reference["operators"].get(optype, {"dim": 0, "nnz": 0})
            if span[6]["nnz"] > op["nnz"]:
                reference["operators"][optype] = {"dim": span[6]["dim"],
                                                  "nnz": span[6]["nnz"]}
    dump(reference, run.REFERENCE)
    print(f"wrote {run.REFERENCE}")
    return 0


def _round(x):
    # 10 significant digits: four orders of magnitude below every tolerance
    if isinstance(x, float):
        return float(f"{x:.10g}")
    if isinstance(x, list):
        return [_round(v) for v in x]
    if isinstance(x, dict):
        return {k: _round(v) for k, v in x.items()}
    return x


def dump(reference: dict, path):
    """One line per entry, so a re-recording diffs entry by entry."""
    lines = []
    for section in sorted(reference):
        entries = [f"  {json.dumps(k)}: {json.dumps(_round(v), separators=(',', ':'))}"
                   for k, v in sorted(reference[section].items())]
        lines.append(f" {json.dumps(section)}: {{\n" + ",\n".join(entries) + "\n }")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    raise SystemExit(main())
