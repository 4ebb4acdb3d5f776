"""Disorder ensembles: random holes, random positional displacements.

Each realization perturbs the clean lattice, rebuilds couplings through
the lattice module, runs the full focusing protocol for a fixed duration
(the clean focal time, supplied by the caller), and records the focal
probability and the final width. Streams are counter-based per
realization, so a realization's record does not depend on how many others
are run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .lattice import (HamiltonianTerms, SiteTable, build_couplings,
                      displace_sites, punch_holes)
from .lens import potential_profile, thin_phase_profile
from .wavepacket import (evolve, focus_probability, gaussian_packet,
                         gaussian_width, phase_imprint)


@dataclass(frozen=True)
class Holes:
    count: int


@dataclass(frozen=True)
class Displacement:
    delta: float                       # per-component std, units of a

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be non-negative")


@dataclass
class EnsembleJob:
    table: SiteTable                   # clean lattice
    model: object                      # coupling model for build_couplings
    design: object                     # a spinlens.lens design
    sigma0: float
    duration: float                    # protocol time, fixed across realizations
    kind: object                       # Holes | Displacement
    realizations: int
    master_seed: int
    tol: float = 1e-8

    def __post_init__(self):
        if self.realizations < 1:
            raise ValueError("need at least one realization")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit in 64 bits")
        if not isinstance(self.kind, (Holes, Displacement)):
            raise TypeError("kind must be Holes or Displacement")
        if isinstance(self.kind, Holes):
            if self.kind.count < 0:
                raise ValueError("hole count must be non-negative")
            if self.kind.count >= self.table.n_active:
                raise ValueError("hole count must be below the active-site count")


@dataclass
class EnsembleStats:
    p_foc: np.ndarray                  # per realization, index order
    sigma_f: np.ndarray

    def summary(self) -> dict:
        out = {}
        for name, rec in (("p_foc", self.p_foc), ("sigma_f", self.sigma_f)):
            rec = np.asarray(rec, dtype=float)
            out[name] = {
                "mean": float(rec.mean()),
                "std": float(rec.std(ddof=1)) if len(rec) > 1 else 0.0,
                "stderr": (float(rec.std(ddof=1) / np.sqrt(len(rec)))
                           if len(rec) > 1 else 0.0),
            }
        return out


def run_protocol(table: SiteTable, job: EnsembleJob):
    """One full focusing run on the given (possibly perturbed) lattice.

    The packet starts at rest at the lattice center. Returns (P_foc, sigma_f)
    at t = job.duration, P_foc within ``wavepacket.FOCUS_RADIUS`` of the
    design's first focus. The lens profile is evaluated at the site labels:
    fabrication disorder moves the atoms, not the imposed light pattern.
    """
    terms = build_couplings(table, job.model)
    psi = gaussian_packet(table, job.sigma0)
    if job.design.thin:
        psi = phase_imprint(psi, thin_phase_profile(job.design, table))
    else:
        terms = terms.with_diagonal(potential_profile(job.design, table))
    psi = evolve(terms, psi, job.duration, tol=job.tol)
    return (focus_probability(psi, table, job.design.foci[0]),
            gaussian_width(psi, table))


def _realization_table(job: EnsembleJob, r: int) -> SiteTable:
    rng = np.random.Generator(np.random.Philox(key=[job.master_seed, r]))
    table = job.table
    if isinstance(job.kind, Holes):
        if job.kind.count == 0:
            return table
        foci = {table.index_of(np.rint(f).astype(int)) for f in job.design.foci}
        candidates = np.array(sorted(set(np.nonzero(table.active)[0]) - foci))
        picked = rng.choice(candidates, size=job.kind.count, replace=False)
        return punch_holes(table, table.labels[picked])
    if job.kind.delta == 0.0:
        return table
    shifts = rng.normal(0.0, job.kind.delta, size=table.positions.shape)
    return displace_sites(table, shifts)


def run_ensemble(job: EnsembleJob) -> EnsembleStats:
    """Focusing statistics over disorder realizations, in index order."""
    records = [run_protocol(_realization_table(job, r), job)
               for r in range(job.realizations)]
    p_foc = np.array([rec[0] for rec in records])
    sigma_f = np.array([rec[1] for rec in records])
    return EnsembleStats(p_foc=p_foc, sigma_f=sigma_f)


def plane_wave_broadening(h_disordered: HamiltonianTerms,
                          h_clean: HamiltonianTerms, k,
                          table: SiteTable | None = None) -> float:
    """Energy uncertainty of a lattice plane wave under the perturbation.

    Returns sqrt(<k|dH^2|k> - <k|dH|k>^2) with dH the full difference
    between the two operators and |k> the normalized plane wave over the
    active sites (positions default to a unit-spaced chain).
    """
    dh = h_disordered.matrix() - h_clean.matrix()
    n = dh.shape[0]
    if table is not None:
        pos = table.positions
        active = table.active
    else:
        pos = np.arange(n, dtype=float)[:, None]
        active = np.ones(n, dtype=bool)
    kvec = np.atleast_1d(np.asarray(k, dtype=float))
    psi = np.exp(1j * pos @ kvec) * active
    psi /= np.linalg.norm(psi)
    y = dh @ psi
    mean = np.vdot(psi, y).real
    second = np.vdot(y, y).real
    return float(np.sqrt(max(second - mean**2, 0.0)))


@dataclass
class BreakdownRow:
    delta: float
    ratio_mean: float
    ratio_stderr: float


@dataclass
class BreakdownResult:
    sigma0: float
    sigma_f_clean: float
    duration: float
    rows: list = field(default_factory=list)

    @property
    def delta_c(self) -> float:
        """First grid delta with mean width ratio above 2 (nan if none)."""
        for row in self.rows:
            if row.ratio_mean > 2.0:
                return row.delta
        return float("nan")


def breakdown_scan(job: EnsembleJob, deltas) -> BreakdownResult:
    """Width-ratio table sigma_f(delta)/sigma_f(0) over a displacement grid."""
    deltas = [float(d) for d in deltas]
    if deltas != sorted(deltas):
        raise ValueError("delta grid must be ascending")
    _, sigma_clean = run_protocol(job.table, job)
    result = BreakdownResult(sigma0=job.sigma0, sigma_f_clean=sigma_clean,
                             duration=job.duration)
    for delta in deltas:
        if delta == 0.0:
            result.rows.append(BreakdownRow(0.0, 1.0, 0.0))
            continue
        stats = run_ensemble(replace(job, kind=Displacement(delta)))
        ratio = stats.sigma_f / sigma_clean
        stderr = (ratio.std(ddof=1) / np.sqrt(len(ratio))) if len(ratio) > 1 else 0.0
        result.rows.append(BreakdownRow(delta, float(ratio.mean()), float(stderr)))
    return result
