#!/usr/bin/env python3
"""spinlens benchmark harness.

    python3 perfbench/run.py --workload lens_design --seed 1 --seconds 30 --trace 0

Run from the root of a spinlens checkout. One workload's seeded task list is
run through ``spinlens.cli.main(["run", "--config", ..., "--out", ...])`` in
this process, one task after the other (a closed loop with one caller). The
list is a number of rounds of the same slots. A calibration kernel timed
between tasks scales each task's time to the reference machine's speed
(calibration.py); a slot's time is the median of its scaled executions, and
wall_s is the sum of those. Every task's outputs are checked after the
timed loop. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the list once untraced and once with
spans around each module's public functions and prints the per-layer
metrics. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The generated configs,
outputs, spans and a full result record go to ``perfbench/runs/``.
NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (pure Python, imports no numpy)

# setup_s is the median of this many fresh interpreters importing the CLI.
SETUP_SAMPLES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("task_s_p50", "s"),
    ("peak_rss_mb", "MiB"),
    ("pass_frac", "1"),
)


class EnvironmentProblem(RuntimeError):
    """The checkout cannot run the benchmark (no sources, broken import)."""


def pin_environment():
    """CLI-default threading (no SPINLENS_THREADS), on one CPU, one BLAS thread.

    The process, the threads and processes it starts, and so the calibration
    kernel and every task, run on the same CPU: on a shared VM the CPUs run
    at different speeds, and a kernel timed on one CPU says nothing about a
    task run on the other. Must run before numpy is imported.
    """
    os.environ.pop("SPINLENS_THREADS", None)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_spinlens():
    if not (SRC / "spinlens" / "cli.py").is_file():
        raise EnvironmentProblem(f"no spinlens sources under {SRC}")
    import spinlens.cli

    where = Path(spinlens.cli.__file__).resolve().parent
    if where != (SRC / "spinlens").resolve():
        raise EnvironmentProblem(f"spinlens imported from {where}, not from {SRC}")
    return spinlens.cli


def measure_setup(samples: int, calibration) -> list:
    """Seconds from starting a fresh interpreter until spinlens.cli is imported.

    Returns [seconds, machine speed] per sample.
    """
    from calibration import speeds

    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import spinlens.cli; print('ready', flush=True)"
    times = []
    cal = [calibration.sample()]
    for _ in range(samples):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              env=env, cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise EnvironmentProblem(f"importing spinlens.cli failed (exit {proc.returncode})")
        times.append(elapsed)
        cal.append(calibration.sample())
    return [list(pair) for pair in zip(times, speeds(cal))]


def _cache_sizes() -> dict:
    out = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
        out[f"L{level}"] = int(size.rstrip("KM")) * scale
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "cache_bytes": _cache_sizes(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def input_record(tasks, reference, caches) -> dict:
    """Operator size per operator family in this task list (seed-commit build)."""
    from tracing import matvec_bytes

    out = {}
    for optype in sorted({t.optype for t in tasks}):
        op = reference["operators"].get(optype)
        if op is None:
            continue
        nbytes = matvec_bytes(op["dim"], op["nnz"])
        out[optype] = {"dim": op["dim"], "nnz": op["nnz"],
                       "bytes_per_matvec_computed": nbytes,
                       **{f"over_{lvl}": nbytes / size for lvl, size in caches.items()
                          if lvl in ("L2", "L3")}}
    return out


def write_configs(tasks, run_dir: Path) -> list:
    cfg_dir = run_dir / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, task in enumerate(tasks):
        path = cfg_dir / f"{i:02d}.json"
        path.write_text(json.dumps(task.config, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    (run_dir / "tasks.json").write_text(json.dumps(
        [{"index": i, "key": t.key, "slot": t.slot, "check": t.check,
          "config": f"configs/{i:02d}.json"}
         for i, t in enumerate(tasks)], indent=2) + "\n")
    return paths


def run_pass(cli, tasks, cfg_paths, out_root: Path, tracer=None, calibration=None):
    """Closed loop: each task starts when the previous one has returned.

    With a calibration, its kernel is timed before the first task and after
    each; each record gets the machine's ``speed`` around the task and its
    ``scaled_s`` wall time at the reference speed.
    Returns (per-task records, summed task wall time in seconds).
    """
    records = []
    cal = [calibration.sample()] if calibration is not None else None
    for i, (task, cfg) in enumerate(zip(tasks, cfg_paths)):
        out = out_root / f"{i:02d}"
        log = io.StringIO()
        error = None
        if tracer is not None:
            tracer.task = i
        t0 = time.perf_counter()
        try:
            with redirect_stdout(log), redirect_stderr(log):
                rc = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc, error = None, traceback.format_exc()
        wall_s = time.perf_counter() - t0
        rec = {"index": i, "key": task.key, "slot": task.slot,
               "traced": tracer is not None, "out": out, "wall_s": wall_s,
               "rc": rc, "error": error, "log": log.getvalue()}
        records.append(rec)
        if calibration is not None:
            cal.append(calibration.sample())
    if calibration is not None:
        from calibration import speeds

        for rec, speed in zip(records, speeds(cal)):
            rec.update(speed=speed, scaled_s=rec["wall_s"] * speed)
    return records, sum(r["wall_s"] for r in records)


def scaled_by_slot(records) -> dict:
    """Median over the run of each slot's time at the reference speed, in s."""
    times: dict = {}
    for rec in records:
        times.setdefault(rec["slot"], []).append(rec["scaled_s"])
    return {slot: statistics.median(v) for slot, v in sorted(times.items())}


def check_pass(tasks, records, reference) -> int:
    """Fill each record's problems; returns the number of failed tasks."""
    from checks import check_task

    failed = 0
    for task, rec in zip(tasks, records):
        if rec["error"] is not None:
            problems = [rec["error"].strip().splitlines()[-1]]
        elif rec["rc"] != 0:
            problems = [f"exit code {rec['rc']}"]
        else:
            problems = check_task(task, rec["out"], reference)
        rec["problems"] = problems
        failed += bool(problems)
        rec["out"].mkdir(parents=True, exist_ok=True)
        (rec["out"] / "bench.log").write_text(rec.pop("log"))
        rec["out"] = str(rec["out"].relative_to(ROOT))
    return failed


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", reference: dict | None = None) -> dict:
    """Run, check and measure one workload; returns the full result record."""
    pin_environment()
    from calibration import REFERENCE_S, Calibration

    if reference is None:
        reference = load_reference()
    tasks = workloads.make_tasks(workload, seed, seconds, size)
    run_dir = RUNS / f"{workload}-{size}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    cfg_paths = write_configs(tasks, run_dir)

    cli = import_spinlens()
    machine = machine_record()
    # End-to-end times are scaled to the reference speed; the traced run's
    # untraced pass needs no calibration (its wall time is only compared
    # with the traced pass right after it).
    calibration = None if trace else Calibration()
    setup = [] if trace else measure_setup(SETUP_SAMPLES, calibration)

    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    records, wall = run_pass(cli, tasks, cfg_paths, run_dir / "tasks",
                             calibration=calibration)
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    peak_rss_mb = cpu1.ru_maxrss / 1024.0
    cpu_s = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
    all_records = list(records)
    failed = check_pass(tasks, records, reference)

    result = {"workload": workload, "seed": seed, "seconds": seconds, "size": size,
              "trace": int(trace), "rounds": workloads.n_rounds(workload, seconds, size),
              "machine": machine,
              "inputs": input_record(tasks, reference, machine["cache_bytes"]),
              "tasks_wall_s": wall}
    if not trace:
        slots = scaled_by_slot(records)
        metrics = {"setup_s": statistics.median(t * speed for t, speed in setup),
                   "wall_s": sum(slots.values()),
                   "task_s_p50": statistics.median(slots.values()),
                   "peak_rss_mb": peak_rss_mb,
                   "pass_frac": 1.0 - failed / len(tasks)}
        units = dict(END_TO_END)
        result.update({"slot_s": slots, "setup_samples_s": setup,
                       "calibration_s": calibration.samples,
                       "speed": REFERENCE_S / statistics.median(calibration.samples)})
    else:
        from tracing import PER_LAYER, Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_wall = run_pass(cli, tasks, cfg_paths,
                                           run_dir / "tasks_traced", tracer)
        finally:
            tracer.uninstall()
        all_records += traced
        failed += check_pass(tasks, traced, reference)
        metrics = tracer.metrics(traced_wall)
        metrics.update({"process.cpu_s": cpu_s,
                        "process.cpu_util": cpu_s / wall,
                        "trace.overhead_s": traced_wall - wall})
        metrics = {name: metrics[name] for name, _ in PER_LAYER}
        units = dict(PER_LAYER)
        tracer.write(run_dir / "spans.jsonl")
        result["reconcile"] = {
            "self_sum_s": metrics["trace.self_sum_s"],
            "probe_s": metrics["trace.probe_s"],
            "traced_wall_s": traced_wall,
            "untraced_wall_s": wall,
        }

    result.update({"correct": failed == 0, "attempted": len(all_records),
                   "failed": failed, "fail_frac": failed / len(all_records),
                   "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
                   "tasks": all_records})
    (run_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    result["run_dir"] = str(run_dir.relative_to(ROOT))
    return result


def report(result: dict):
    m = result["machine"]
    caches = " ".join(f"{k}={v // 1024} KiB" for k, v in m["cache_bytes"].items())
    print(f"perfbench {result['workload']} seed={result['seed']} size={result['size']} "
          f"trace={result['trace']} rounds={result['rounds']} "
          f"tasks={result['attempted']}")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu_model']!r} {caches} "
          f"python={m['python']} numpy={m['numpy']} scipy={m['scipy']} "
          f"blas_threads={m['blas_threads']}")
    for optype, op in result["inputs"].items():
        ratios = " ".join(f"{k}={v:.3g}" for k, v in op.items() if k.startswith("over_"))
        print(f"input {optype}: D={op['dim']} nnz={op['nnz']} "
              f"bytes/matvec(computed)={op['bytes_per_matvec_computed']} {ratios}")
    for rec in result["tasks"]:
        state = "ok" if not rec["problems"] else "FAILED: " + "; ".join(rec["problems"][:3])
        label = " traced" if rec["traced"] else ""
        print(f"task {rec['index']:02d}{label} {rec['slot']} {rec['key']} "
              f"{rec['wall_s']:.3f} s {state}")
    print(f"untraced tasks {result['tasks_wall_s']:.3f} s")
    if "slot_s" in result:
        slots = " ".join(f"{k}={v:.3f}" for k, v in result["slot_s"].items())
        print(f"machine speed {result['speed']:.3f} of the reference "
              f"(median of {len(result['calibration_s'])} calibration samples); "
              f"median per slot at the reference speed (s): {slots}")
    for name, entry in result["metrics"].items():
        print(f"metric {name} = {entry['value']!r} {entry['unit']}")
    print(f"fail_frac = {result['fail_frac']!r} ({result['failed']} of "
          f"{result['attempted']} tasks failed)")
    if "reconcile" in result:
        r = result["reconcile"]
        print(f"reconcile: layer self times {r['self_sum_s']:.6f} s + probes "
              f"{r['probe_s']:.6f} s = {r['self_sum_s'] + r['probe_s']:.6f} s of "
              f"{r['traced_wall_s']:.6f} s traced wall; tracing overhead "
              f"{r['traced_wall_s'] - r['untraced_wall_s']:+.6f} s against "
              f"{r['untraced_wall_s']:.6f} s untraced")
    spans = ", spans.jsonl" if result["trace"] else ""
    print(f"record: {result['run_dir']}/result.json{spans}, configs/")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="target length of the task list at the reference speed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="'tiny' runs miniature tasks, for the smoke test")
    args = parser.parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.size)
    except (EnvironmentProblem, OSError, ImportError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    report(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
