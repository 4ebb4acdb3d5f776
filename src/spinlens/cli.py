"""Command-line entry: run or validate a scenario config.

Usage:
    spinlens run --config cfg.yaml --out outdir [--seed N]
    spinlens validate --config cfg.yaml [--seed N]

A run writes a manifest before touching any physics (status "running")
and finalizes it afterwards with derived parameters, wall time, and a
sha256 for every data file, so a run can be reproduced from the manifest
alone: the resolved config is embedded and a manifest file is itself
accepted as ``--config``. Dense BLAS products round differently with the
thread count, so the manifest also records the BLAS thread variables as
the process saw them and the CPU count (``threads``). Exit codes: 0 success, 1 mid-run failure,
2 invalid config.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import __version__, io_utils
from .scenarios import ConfigError, lint_config, prepare_config, run_scenario


# the variables that set the BLAS thread count of numpy's and scipy's
# OpenBLAS, OpenMP or MKL builds
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _load_raw(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        # JSON first: a manifest must round-trip its floats exactly, and
        # YAML 1.1 reads bare exponents like 1e-08 as strings.
        raw = json.loads(text)
    except ValueError:
        import yaml  # imported here, not at the top: about 13 ms at start-up
        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = (f" at line {mark.line + 1}, column {mark.column + 1}"
                     if mark is not None else "")
            raise ConfigError(f"config parse error{where}: {exc}") from exc
    if (isinstance(raw, dict) and isinstance(raw.get("config"), dict)
            and "scenario" in raw["config"]):
        raw = raw["config"]           # a manifest was passed back in
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    return raw


def _resolve(args) -> dict:
    raw = _load_raw(args.config)
    if getattr(args, "seed", None) is not None:
        raw = dict(raw)
        raw["master_seed"] = args.seed
    return prepare_config(raw)


def cmd_validate(args) -> int:
    try:
        cfg = _resolve(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    warnings = lint_config(cfg)
    for w in warnings:
        print(f"warning: {w}")
    if not warnings:
        print("ok: config valid, no physics warnings")
    return 0


def cmd_run(args) -> int:
    try:
        cfg = _resolve(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    warnings = lint_config(cfg)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    manifest = {
        "status": "running",
        "scenario": cfg["scenario"],
        "config": cfg,
        "config_hash": io_utils.canonical_hash(cfg),
        "code_version": __version__,
        "master_seed": cfg["master_seed"],
        "warnings": warnings,
        "threads": {**{var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
                    "cpu_count": os.cpu_count()},
        "outputs": [],
    }
    io_utils.write_json(manifest_path, manifest)

    t0 = time.perf_counter()
    try:
        derived, outputs = run_scenario(cfg, out)
    except Exception as exc:
        manifest["status"] = "failed"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        manifest["wall_time_s"] = time.perf_counter() - t0
        manifest["outputs"] = _describe_outputs(out, manifest_path)
        manifest["partial_outputs"] = bool(manifest["outputs"])
        io_utils.write_json(manifest_path, manifest)
        print(f"error: scenario failed: {manifest['error']}", file=sys.stderr)
        print(f"partial outputs flagged in {manifest_path}", file=sys.stderr)
        return 1

    manifest["status"] = "complete"
    manifest["wall_time_s"] = time.perf_counter() - t0
    manifest["derived"] = derived
    manifest["outputs"] = [_file_entry(p) for p in outputs]
    io_utils.write_json(manifest_path, manifest)
    print(f"{cfg['scenario']}: complete in {manifest['wall_time_s']:.2f} s")
    for entry in manifest["outputs"]:
        print(f"  wrote {entry['path']} ({entry['bytes']} bytes)")
    return 0


def _file_entry(path) -> dict:
    path = Path(path)
    return {"path": str(path), "sha256": io_utils.file_sha256(path),
            "bytes": path.stat().st_size}


def _describe_outputs(out: Path, manifest_path: Path) -> list:
    return [_file_entry(p) for p in sorted(out.iterdir())
            if p.is_file() and p != manifest_path]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinlens",
        description="Spin-lens scenario runner (units: J = a = 1).")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a scenario config")
    runp.add_argument("--config", required=True, help="YAML config (or a manifest.json)")
    runp.add_argument("--out", required=True, help="output directory")
    runp.add_argument("--seed", type=int, default=None,
                      help="override master_seed from the config")
    runp.set_defaults(func=cmd_run)

    valp = sub.add_parser("validate", help="check a config, report physics lint")
    valp.add_argument("--config", required=True)
    valp.add_argument("--seed", type=int, default=None)
    valp.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
