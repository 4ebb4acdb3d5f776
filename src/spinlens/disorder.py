"""Disorder ensembles: random holes, random positional displacements.

Each realization perturbs the clean lattice, runs the full focusing protocol
for a fixed duration (the clean focal time, supplied by the caller), and
records the focal probability and the final width. Couplings are built
through the lattice module once per job, on the clean lattice: its H pattern
(:class:`_CleanPattern`) holds the hopping entries and the nonzero on-site
energies in canonical CSR order. The realizations are drawn in chunks of
about one stacked operator's worth (``propagator._STACK_NNZ`` entries), and
each chunk is cut, started and scored as whole arrays. Holes drop the
entries of each hole's row and column, and only the rows that lose one are
summed again for their Gershgorin radii; displacement recomputes the
power-law values at the pattern's pairs, one ``PowerLaw.amplitude`` over
the chunk's positions. Zero values are dropped, as scipy's assembly drops
them, so the H and bounds of a realization are bit for bit the ones
:func:`run_protocol` assembles. The start packets are the rows of one
array, each normalized as ``numpy.linalg.norm`` normalizes one state, and
the final states are scored together by the two-pass width formula and
the focus probability of ``wavepacket``, each row as its state alone. The
realizations are propagated together, as one batch of independent
evolutions (:func:`spinlens.propagator.expimv_batch`), each bit for bit
what it gives alone: their operators are stacked by array operations on
the whole stack, and since every H and start packet is real, the stack runs
its Chebyshev terms in float64 and adds them into a real and an imaginary
float64 accumulator (the even and the odd terms). Streams are counter-based
per realization, so a realization's record does not depend on how many
others are run.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .lattice import PowerLaw, SiteTable, build_couplings, displace_sites
from .lens import potential_profile, thin_phase_profile
from .propagator import _STACK_NNZ, _ranges, expimv_batch
from .wavepacket import (SpinWaveState, _density_widths, _focus_probabilities,
                         _gaussian_rows, evolve, focus_probability, gaussian_packet,
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


class _Streams:
    """The counter-based stream of each realization r of a job: Philox keyed
    by (master_seed, r), from counter 0. One bit generator is re-keyed for
    every realization; building a Philox per realization would read OS
    entropy for a seed that its key overrides."""

    def __init__(self, master_seed: int):
        self.seed, self.bits = master_seed, np.random.Philox(key=[master_seed, 0])
        self.fresh = self.bits.state

    def __call__(self, r: int) -> np.random.Generator:
        self.fresh["state"]["key"] = np.array([self.seed, r], dtype=np.uint64)
        self.bits.state = self.fresh
        return np.random.Generator(self.bits)


def _realization_table(job: EnsembleJob, r: int, streams: _Streams | None = None) -> SiteTable:
    """Realization r of ``job``, drawn from its own stream (``_Streams``;
    pass one to draw many realizations)."""
    rng = (streams or _Streams(job.master_seed))(r)
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
    its zero on-site energies left out, from which each realization's H and
    Gershgorin bounds are cut (module docstring).
    """

    def __init__(self, job: EnsembleJob):
        n = job.table.n_sites
        hop = build_couplings(job.table, job.model).hopping
        # the on-site energies of the clean lattice, as
        # HamiltonianTerms.with_diagonal adds them
        self.diagonal = np.zeros(n)
        if not job.design.thin:
            self.diagonal = self.diagonal + potential_profile(job.design, job.table)
            self.diagonal[~job.table.active] = 0.0
        on = np.flatnonzero(self.diagonal)
        rows = np.concatenate([np.repeat(np.arange(n), np.diff(hop.indptr)), on])
        cols = np.concatenate([hop.indices, on])
        order = np.lexsort((cols, rows))
        self.rows, self.cols = rows[order], cols[order].astype(np.int32)
        self.indptr = np.searchsorted(self.rows, np.arange(n + 1)).astype(np.int32)
        self.lengths = np.diff(self.indptr)
        self.data = np.concatenate([-hop.data, self.diagonal[on]])[order]
        # every cut is a copy of this matrix on arrays of its own, canonical
        # as the pattern's are, and carries the format flag checked here
        self.template = sp.csr_matrix((self.data, self.cols, self.indptr), shape=(n, n))
        canonical = self.template.has_canonical_format
        assert canonical
        self.holes = isinstance(job.kind, Holes)
        self.model = job.model
        self.pairs = None
        if self.holes:
            # the entry (j, i) of each entry (i, j): the pattern is symmetric
            self.transpose = np.lexsort((self.rows, self.cols))
            self.radii = self._radii(np.abs(self.data), self.indptr[None])[0]
        elif isinstance(job.model, PowerLaw):
            # each off-diagonal entry takes the value of its pair (i, j), i < j,
            # and each diagonal one its on-site energy, after the pairs
            upper = self.rows < self.cols
            self.pairs = self.rows[upper], self.cols[upper]
            lo, hi = np.minimum(self.rows, self.cols), np.maximum(self.rows, self.cols)
            self.source = np.searchsorted(self.pairs[0] * n + self.pairs[1], lo * n + hi)
            self.source[lo == hi] = len(self.pairs[0]) + np.searchsorted(on, lo[lo == hi])
            self.on_site = self.diagonal[on]

    @staticmethod
    def _radii(absdata: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Row sums of ``absdata`` over each row of ``starts`` (one row of
        row starts and its end per realization), 0 for an empty row: the
        sums of ``propagator.spectral_bounds``, in its order."""
        radii = np.zeros((len(starts), starts.shape[1] - 1))
        filled = np.diff(starts, axis=1) > 0
        radii[filled] = np.add.reduceat(absdata, starts[:, :-1][filled])
        return radii

    def cut(self, table: SiteTable):
        """H of the realization ``table`` as CSR, and its Gershgorin bounds,
        each equal bit for bit to ``_protocol_start(table, job)``'s
        ``matrix()`` and ``bounds()``."""
        return self.cuts(table.active[None], table.positions[None])[0]

    def cuts(self, active: np.ndarray, positions: np.ndarray) -> list:
        """[(H, bounds)] of a stack of realizations, as :meth:`cut` gives
        them, by array operations over the whole stack: ``active`` is (m,
        n) for holes, ``positions`` (m, n, dim) for displacement, and the
        other may be the clean table's.

        Holes drop the entries of each hole's row and column from the
        clean arrays, and only the rows that lose an entry are summed again
        for their radii. Displacement computes one ``PowerLaw.amplitude``
        over all the stack's positions and sums every row. Each
        realization's arrays are a slice of the stack's; while it keeps
        every entry (a power law has no zero), its index arrays are the
        pattern's."""
        n, size = len(self.diagonal), self.data.size
        m = np.broadcast_shapes(active.shape, positions.shape[:-1])[0]
        values = np.broadcast_to(self.data, (m, size))
        if self.holes:
            real, hole = np.nonzero(~active & (self.lengths > 0))
            at = _ranges(self.indptr[hole], self.lengths[hole])
            real = np.repeat(real, self.lengths[hole])
            keep = np.ones((m, size), bool)
            keep[real, at] = keep[real, self.transpose[at]] = False
        else:
            if self.pairs is not None:
                amp = self.model.amplitude(positions, *self.pairs)
                values = np.concatenate(
                    [-amp, np.broadcast_to(self.on_site, (m, self.on_site.size))], axis=1)
                values = values[:, self.source]
            keep = values != 0.0
        if keep.all():
            data, cols = values.reshape(-1), self.cols
            starts = np.arange(m)[:, None] * size + self.indptr
            lost = np.zeros((2, 0), int)
        else:
            data, cols = values[keep], np.broadcast_to(self.cols, keep.shape)[keep]
            real, entry = np.nonzero(~keep)
            lost = real * n + self.rows[entry]
            counts = np.broadcast_to(self.lengths, (m, n)).copy()
            np.subtract.at(counts.reshape(-1), lost, 1)
            lost = np.divmod(np.unique(lost), n)
            starts = np.concatenate([np.zeros(1, np.int32), np.cumsum(counts, dtype=np.int32)])
            starts = starts[np.arange(m)[:, None] * n + np.arange(n + 1)]
        if self.holes:
            # the clean rows' radii, but for the rows that lost an entry
            radii = np.broadcast_to(self.radii, (m, n)).copy()
            real, row = lost
            lengths = starts[real, row + 1] - starts[real, row]
            sums = np.zeros(len(real))
            filled = lengths > 0
            sums[filled] = np.add.reduceat(np.abs(data[_ranges(starts[real, row], lengths)]),
                                           (np.cumsum(lengths) - lengths)[filled])
            radii[real, row] = sums
            diagonal = np.where(active, self.diagonal, 0.0)
        else:
            radii, diagonal = self._radii(np.abs(data), starts), self.diagonal
        radii -= np.abs(diagonal)
        lows, highs = (diagonal - radii).min(axis=1), (diagonal + radii).max(axis=1)
        out = []
        for row_starts, low, high in zip(starts, lows, highs):
            lo, hi = row_starts[0], row_starts[-1]
            h = copy.copy(self.template)
            h.data = data[lo:hi]
            if cols is not self.cols:
                h.indices, h.indptr = cols[lo:hi], row_starts - lo
            out.append((h, (float(low), float(high))))
        return out


def _chunks(job: EnsembleJob, pattern: _CleanPattern, count: int):
    """The realizations 0, ..., count - 1 of ``job`` in chunks of about one
    stacked operator's worth (the clean pattern's entries plus its rows
    against ``propagator._STACK_NNZ``): per chunk, the active masks and
    positions (stacked where they vary, the clean table's where they do
    not) and each realization's (H, bounds). Each realization draws its
    own counter-based stream (``_realization_table``)."""
    table, n, streams = job.table, job.table.n_sites, _Streams(job.master_seed)
    size = max(1, _STACK_NNZ // (pattern.data.size + n))
    for lo in range(0, count, size):
        tables = [_realization_table(job, r, streams) for r in range(lo, min(lo + size, count))]
        if pattern.holes:
            active, positions = np.stack([t.active for t in tables]), table.positions
        else:
            active, positions = table.active, np.stack([t.positions for t in tables])
        yield active, positions, pattern.cuts(active, positions)


def run_ensemble(job: EnsembleJob) -> EnsembleStats:
    """Focusing statistics over disorder realizations, in index order.

    Each record equals ``run_protocol(_realization_table(job, r), job)``
    bit for bit. The realizations are drawn, cut from the job's clean
    pattern and started about one stacked operator's worth at a time, as
    whole arrays (``_chunks``); each chunk is propagated and its final
    states scored together (``wavepacket._density_widths``,
    ``_focus_probabilities``) before the next is drawn, so only one chunk
    of operators and states is held at a time.
    """
    pattern = _CleanPattern(job)
    table = job.table
    imprint = (np.exp(-1j * thin_phase_profile(job.design, table))
               if job.design.thin else None)
    p_foc, sigma_f = [], []
    for active, positions, cuts in _chunks(job, pattern, job.realizations):
        packets = _gaussian_rows(positions, active, table.center(), job.sigma0)
        if imprint is None:
            packets = packets.real      # no imaginary part, as expimv takes it
        else:
            packets = packets * imprint
        finals = list(expimv_batch([(h, psi, job.duration, bounds)
                                    for (h, bounds), psi in zip(cuts, packets)], tol=job.tol))
        del cuts, packets               # free the operators before the next chunk
        p = np.abs(np.array(finals)) ** 2
        del finals
        p_foc.append(_focus_probabilities(p, positions, job.design.foci[0]))
        sigma_f.append(_density_widths(p, positions))
    return EnsembleStats(p_foc=np.concatenate(p_foc), sigma_f=np.concatenate(sigma_f))


def plane_wave_broadening(h_disordered: sp.csr_matrix, h_clean: sp.csr_matrix,
                          k, table: SiteTable | None = None) -> float:
    """Energy uncertainty of a lattice plane wave under the perturbation.

    Returns sqrt(<k|dH^2|k> - <k|dH|k>^2) with dH the full difference
    between the two operators and |k> the normalized plane wave over the
    active sites (positions default to a unit-spaced chain).
    """
    return _broadening(h_disordered - h_clean, k, table)


def _broadening(dh: sp.csr_matrix, k, table: SiteTable | None) -> float:
    """:func:`plane_wave_broadening` of the difference ``dh``, so a caller
    scanning many k takes it once."""
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
