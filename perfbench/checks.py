"""Output checks behind pass_frac; they run after the timed loop.

Every check reads only what `spinlens run` wrote (CSV files and the manifest)
and returns a list of problems; a task with any problem counts as failed.

Tolerances, and why they are what they are:

* Optimizer focal widths: relative 1e-6 of the value recorded at the seed
  commit. The propagator tolerance is 1e-8 per call, so a refactor that keeps
  the numerics moves a width by far less; a changed optimizer path (another
  strength or time picked) moves it by more.
* Ensemble p_foc: absolute 1e-6; ensemble sigma_f: relative 1e-6, against
  per-realization values recorded at the seed commit. The disorder streams
  are counter-based, so neither thread count nor batching may change them.
* Blockade density: every sample sums to nu within 1e-5 (norm drift of at
  most 10 tol per call over 8 calls, times 2 nu).
* Free-fermion oracle: density and pair-distance weights within 1e-6 of the
  dense expm reference, at every sample.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from workloads import optimizer_key

OPT_REL_TOL = 1e-6
P_FOC_ABS_TOL = 1e-6
SIGMA_F_REL_TOL = 1e-6
DENSITY_SUM_TOL = 1e-5
ORACLE_ABS_TOL = 1e-6


def read_csv(path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[1:]


def optimizer_widths(task, out: Path) -> dict:
    """Optimal focal width per optimizer reference key, from a task's CSV."""
    size = task.key.split("/")[0]
    if task.config["scenario"] == "scaling_fit":
        return {optimizer_key(size, row[0], float(row[2])): float(row[5])
                for row in read_csv(out / "scaling.csv")}
    sigma0 = task.config["packet"]["sigma0"]
    return {optimizer_key(size, f"lr{float(row[1]):g}", sigma0): float(row[4])
            for row in read_csv(out / "alpha_scaling.csv")}


def ensemble_records(out: Path) -> dict:
    rows = read_csv(out / "ensemble.csv")
    return {"p_foc": [float(r[1]) for r in rows],
            "sigma_f": [float(r[2]) for r in rows]}


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _optimizer_problems(task, out, reference):
    problems = []
    for key, width in optimizer_widths(task, out).items():
        ref = reference["optimizer"].get(key)
        if ref is None:
            problems.append(f"no reference focal width for {key}")
        elif _rel(width, ref) > OPT_REL_TOL:
            problems.append(f"{key}: focal width {width!r} != reference {ref!r}")
    return problems


def _ensemble_problems(task, out, reference):
    ref = reference["ensemble"].get(task.key)
    if ref is None:
        return [f"no reference ensemble for {task.key}"]
    got = ensemble_records(out)
    if len(got["p_foc"]) != len(ref["p_foc"]):
        return [f"{len(got['p_foc'])} realizations, reference has {len(ref['p_foc'])}"]
    problems = []
    for r, (p, p_ref, s, s_ref) in enumerate(zip(got["p_foc"], ref["p_foc"],
                                                 got["sigma_f"], ref["sigma_f"])):
        if abs(p - p_ref) > P_FOC_ABS_TOL:
            problems.append(f"realization {r}: p_foc {p!r} != reference {p_ref!r}")
        if _rel(s, s_ref) > SIGMA_F_REL_TOL:
            problems.append(f"realization {r}: sigma_f {s!r} != reference {s_ref!r}")
    return problems


def _density_by_time(out: Path, n_sites: int) -> dict:
    by_t: dict = {}
    for row in read_csv(out / "density.csv"):
        by_t.setdefault(float(row[0]), np.zeros(n_sites))[int(row[1])] = float(row[2])
    return by_t


def _blockade_problems(task, out):
    nu = task.config["interaction"]["nu"]
    by_t = _density_by_time(out, task.config["lattice"]["extents"][0])
    if not by_t:
        return ["density.csv has no samples"]
    return [f"t={t!r}: density sums to {p.sum()!r}, not {nu}"
            for t, p in by_t.items() if abs(p.sum() - nu) > DENSITY_SUM_TOL]


def free_fermion_oracle(n: int, v0: float, sigma0: float, t: float) -> np.ndarray:
    """Antisymmetrized nu = 2 amplitude matrix U M U^T at time t, J_z = 0.

    On a nearest-neighbour chain, hard-core excitations on ordered pairs are
    free fermions (Jordan-Wigner), so the pair amplitude evolves with the
    dense single-excitation propagator U = expm(-i H t), built here from the
    lens potential v0 (x - c)^2 and unit hopping without using spinlens.
    """
    x = np.arange(n, dtype=float)
    c = (n - 1) / 2.0
    h1 = np.diag(v0 * (x - c) ** 2) - np.eye(n, k=1) - np.eye(n, k=-1)
    psi = np.exp(-0.5 * (x - c) ** 2 / sigma0**2)
    m0 = np.outer(psi, psi) * np.sign(x[None, :] - x[:, None])
    m0 /= np.sqrt(0.5 * (m0 * m0).sum())
    u = expm(-1j * t * h1)
    return u @ m0 @ u.T


def _free_fermion_problems(task, out):
    cfg = task.config
    n = cfg["lattice"]["extents"][0]
    v0, sigma0 = cfg["lens"]["v0"], cfg["packet"]["sigma0"]
    problems = []
    by_t = _density_by_time(out, n)
    if not by_t:
        return problems
    for t, p in by_t.items():
        m2 = np.abs(free_fermion_oracle(n, v0, sigma0, t)) ** 2
        err = np.abs(p - m2.sum(axis=1)).max()
        if err > ORACLE_ABS_TOL:
            problems.append(f"t={t!r}: density differs from the free-fermion oracle by {err:.3g}")
    i, j = np.triu_indices(n, 1)
    oracle_w = np.bincount(j - i, weights=m2[i, j], minlength=n)
    for row in read_csv(out / "pair_distances.csv"):
        d, w = float(row[0]), float(row[1])
        if abs(w - oracle_w[int(round(d))]) > ORACLE_ABS_TOL:
            problems.append(f"pair distance {d:g}: weight {w!r} != oracle {oracle_w[int(round(d))]!r}")
    return problems


def check_task(task, out: Path, reference: dict) -> list:
    """Problems found in one task's outputs; empty when the task is correct."""
    try:
        status = json.loads((out / "manifest.json").read_text())["status"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"manifest unreadable: {exc}"]
    if status != "complete":
        return [f"manifest status {status!r}"]
    try:
        if task.check == "optimizer":
            return _optimizer_problems(task, out, reference)
        if task.check == "ensemble":
            return _ensemble_problems(task, out, reference)
        problems = _blockade_problems(task, out)
        if task.check == "free_fermion":
            problems += _free_fermion_problems(task, out)
        return problems
    except (OSError, ValueError, IndexError) as exc:
        return [f"outputs unreadable: {type(exc).__name__}: {exc}"]
