"""Disorder ensembles: random holes, random positional displacements.

Each realization perturbs the clean lattice, runs the full focusing protocol
for a fixed duration (the clean focal time, supplied by the caller), and
records the focal probability and the final width. Couplings are built
through the lattice module once per job, on the clean lattice: its H pattern
(:class:`_CleanPattern`) holds the hopping entries plus one diagonal slot per
row, in canonical CSR order. Each realization's H and Gershgorin bounds are
cut from it with array operations. Holes drop the entries whose row or
column is inactive, the diagonal slot included, and the other values do not
change. Displacement recomputes
only the power-law values at the pattern's pairs. Zero values are dropped,
as scipy's assembly drops them, so the H of a realization is bit for bit the
one :func:`run_protocol` assembles. The realizations are propagated
together, as one batch of independent evolutions
(:func:`spinlens.propagator.expimv_batch`), each bit for bit what it gives
alone. Streams are counter-based per realization, so a realization's record
does not depend on how many others are run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .lattice import PowerLaw, SiteTable, build_couplings, displace_sites
from .lens import potential_profile, thin_phase_profile
from .propagator import expimv_batch
from .wavepacket import (SpinWaveState, evolve, focus_probability,
                         gaussian_packet, gaussian_width, phase_imprint)


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
    # hole sites are drawn from these: the active sites that are not a focus
    candidates: np.ndarray | None = field(default=None, init=False, repr=False,
                                          compare=False)

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
            free = self.table.active.copy()
            free[[self.table.index_of(np.rint(f).astype(int))
                  for f in self.design.foci]] = False
            self.candidates = np.flatnonzero(free)
            if self.kind.count > len(self.candidates):
                raise ValueError(
                    f"hole count {self.kind.count} exceeds the "
                    f"{len(self.candidates)} active sites that are not a focus")


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


def _initial_state(table: SiteTable, job: EnsembleJob) -> SpinWaveState:
    psi = gaussian_packet(table, job.sigma0)
    if job.design.thin:
        psi = phase_imprint(psi, thin_phase_profile(job.design, table))
    return psi


def _protocol_start(table: SiteTable, job: EnsembleJob):
    """Hamiltonian terms and initial state of the protocol on ``table``."""
    terms = build_couplings(table, job.model)
    if not job.design.thin:
        terms = terms.with_diagonal(potential_profile(job.design, table))
    return terms, _initial_state(table, job)


def _protocol_record(psi: SpinWaveState, table: SiteTable, job: EnsembleJob):
    return (focus_probability(psi, table, job.design.foci[0]),
            gaussian_width(psi, table))


def run_protocol(table: SiteTable, job: EnsembleJob):
    """One full focusing run on the given (possibly perturbed) lattice.

    The packet starts at rest at the lattice center. Returns (P_foc, sigma_f)
    at t = job.duration, P_foc within ``wavepacket.FOCUS_RADIUS`` of the
    design's first focus. The lens profile is evaluated at the site labels:
    fabrication disorder moves the atoms, not the imposed light pattern.
    """
    terms, psi = _protocol_start(table, job)
    return _protocol_record(evolve(terms, psi, job.duration, tol=job.tol),
                            table, job)


def _realization_table(job: EnsembleJob, r: int) -> SiteTable:
    rng = np.random.Generator(np.random.Philox(key=[job.master_seed, r]))
    table = job.table
    if isinstance(job.kind, Holes):
        if job.kind.count == 0:
            return table
        # distinct active sites, so punch_holes' label checks have nothing to catch
        active = table.active.copy()
        active[rng.choice(job.candidates, size=job.kind.count, replace=False)] = False
        return SiteTable(table.extents, table.labels, table.positions, active)
    if job.kind.delta == 0.0:
        return table
    shifts = rng.normal(0.0, job.kind.delta, size=table.positions.shape)
    return displace_sites(table, shifts)


class _CleanPattern:
    """The clean lattice's H = diag(V) - J of a job as canonical CSR arrays,
    with a slot for every diagonal entry, from which each realization's H
    and Gershgorin bounds are cut (module docstring).
    """

    def __init__(self, job: EnsembleJob):
        n = job.table.n_sites
        hop = build_couplings(job.table, job.model).hopping
        rows = np.concatenate([np.repeat(np.arange(n), np.diff(hop.indptr)),
                               np.arange(n)])
        cols = np.concatenate([hop.indices, np.arange(n)])
        order = np.lexsort((cols, rows))
        self.rows, self.cols = rows[order], cols[order].astype(np.int32)
        self.indptr = np.searchsorted(self.rows, np.arange(n + 1))
        # the on-site energies of the clean lattice, as
        # HamiltonianTerms.with_diagonal adds them
        self.diagonal = np.zeros(n)
        if not job.design.thin:
            self.diagonal = self.diagonal + potential_profile(job.design, job.table)
            self.diagonal[~job.table.active] = 0.0
        self.data = np.concatenate([-hop.data, self.diagonal])[order]
        self.offdiag = self.rows != self.cols
        self.holes = isinstance(job.kind, Holes)
        self.model = job.model
        self.pairs = None
        if not self.holes and isinstance(job.model, PowerLaw):
            # each off-diagonal entry takes the value of its pair (i, j), i < j
            upper = self.rows < self.cols
            self.pairs = self.rows[upper], self.cols[upper]
            lo = np.minimum(self.rows, self.cols)[self.offdiag]
            hi = np.maximum(self.rows, self.cols)[self.offdiag]
            self.pair_of = np.searchsorted(self.pairs[0] * n + self.pairs[1],
                                           lo * n + hi)

    def cut(self, table: SiteTable):
        """H of the realization ``table`` as CSR, and its Gershgorin bounds,
        each equal bit for bit to ``_protocol_start(table, job)``'s
        ``matrix()`` and ``bounds()``."""
        data, diagonal = self.data, self.diagonal
        if self.holes:
            # a hole's row and column go, its diagonal slot included
            active = table.active
            keep = active[self.rows] & active[self.cols] & (data != 0.0)
            diagonal = np.where(active, diagonal, 0.0)
        else:
            if self.pairs is not None:
                data = data.copy()
                amp = self.model.amplitude(table.positions, *self.pairs)
                data[self.offdiag] = -amp[self.pair_of]
            keep = data != 0.0
        data = data[keep]
        kept = np.concatenate([np.zeros(1, np.int32), np.cumsum(keep, dtype=np.int32)])
        indptr = kept[self.indptr]
        n = len(self.diagonal)
        h = sp.csr_matrix((data, self.cols[keep], indptr), shape=(n, n))
        # propagator.spectral_bounds on these arrays, in its order of sums
        radii = np.zeros(n)
        filled = np.flatnonzero(np.diff(indptr))
        radii[filled] = np.add.reduceat(np.abs(data), indptr[filled])
        radii -= np.abs(diagonal)
        return h, (float((diagonal - radii).min()),
                   float((diagonal + radii).max()))


def run_ensemble(job: EnsembleJob) -> EnsembleStats:
    """Focusing statistics over disorder realizations, in index order.

    Each record equals ``run_protocol(_realization_table(job, r), job)``
    bit for bit. The realizations are cut from the job's clean pattern one
    by one as the batch propagation draws them, so only about one stacked
    operator's worth of them is held at a time.
    """
    pattern = _CleanPattern(job)
    tables = deque()

    def blocks():
        for r in range(job.realizations):
            table = _realization_table(job, r)
            h, bounds = pattern.cut(table)
            tables.append(table)
            yield h, _initial_state(table, job).amplitudes, job.duration, bounds

    records = [_protocol_record(SpinWaveState(amp), tables.popleft(), job)
               for amp in expimv_batch(blocks(), tol=job.tol)]
    p_foc = np.array([rec[0] for rec in records])
    sigma_f = np.array([rec[1] for rec in records])
    return EnsembleStats(p_foc=p_foc, sigma_f=sigma_f)


def plane_wave_broadening(h_disordered: sp.csr_matrix, h_clean: sp.csr_matrix,
                          k, table: SiteTable | None = None) -> float:
    """Energy uncertainty of a lattice plane wave under the perturbation.

    Returns sqrt(<k|dH^2|k> - <k|dH|k>^2) with dH the full difference
    between the two operators and |k> the normalized plane wave over the
    active sites (positions default to a unit-spaced chain).
    """
    dh = h_disordered - h_clean
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
