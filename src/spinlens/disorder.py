"""Disorder ensembles: random holes, random positional displacements.

Each realization perturbs the clean lattice, runs the full focusing protocol
for a fixed duration (the clean focal time, supplied by the caller), and
records the focal probability and the final width. Couplings are built
through the lattice module once per job, on the clean lattice: its H pattern
(:class:`_CleanPattern`) holds the hopping entries and the nonzero on-site
energies in canonical CSR order, and the propagator lays that pattern out
once per job (``propagator._PatternPlan``), its storage rule read on the
clean pattern. The realizations are drawn in chunks of about one stacked
operator's worth (``propagator._STACK_NNZ`` entries). Each chunk's values
are written as one table in the pattern's order, 0.0 where a hole removed
an entry or a coupling underflowed: holes zero the entries of each hole's
row and column, and displacement recomputes the power-law values at the
pattern's pairs, one ``PowerLaw.coupling`` over the chunk's separations.
The table goes straight into the chunk's diagonals, and a zero slot adds
+-0 to a product, so each realization evolves bit for bit as the H that
:func:`run_protocol` assembles, which leaves the zeros out. Its Gershgorin
bounds are that H's too: a row that holds a zero is summed again over its
other entries, the rows read from what was written (the holes and their
neighbours, or the pairs whose coupling underflowed), not from a scan of
the table. The arrays of a chunk's size are kept for the job and
overwritten chunk after chunk. The start packets are the rows of one
array, each normalized as ``numpy.linalg.norm`` normalizes one state, and
the final states are scored together by the two-pass width formula and
the focus probability of ``wavepacket``, each row as its state alone. A
holes job's sites never move, so the packets' Gaussian profile and the
focus mask are job constants, made once on the clean table: a chunk only
masks its holes out of the profile, normalizes the rows and sums each
row's sites inside the mask. Each chunk is one stack of independent
evolutions in draw order, every one run to the chunk's longest
coefficient set and still bit for bit its lone ``expimv``: since every H
and start packet is real, the stack runs its Chebyshev terms in float64
and adds them into a real and an imaginary float64 accumulator (the even
and the odd terms), and a phase met in an earlier chunk reuses its
coefficients. A chunk whose blocks share one phase, as holes that leave
the enclosure as it is do, multiplies each term by scalars
(``propagator._Stack``). The clean lattice rides as an extra
row 0 of the first chunk, so the realizations' chunks end where they would
without it, and its record, bit for bit :func:`run_protocol`'s on the
clean table, comes back with the ensemble's (:class:`EnsembleStats`), so
no run evolves it apart; a breakdown scan evolves it once, in its first
nonzero delta's ensemble, and writes every delta's tables from one clean
pattern. The plane-wave broadening reads the same value tables
(:func:`_perturbations`) and draws no clean row. Streams are
counter-based per realization, so a realization's record does not depend
on how many others are run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .lattice import PowerLaw, SiteTable, build_couplings, displace_sites
from .lens import potential_profile, thin_phase_profile
from .propagator import _STACK_NNZ, _PatternPlan, _ranges
from .wavepacket import (_density_widths, _focus_mask, _gaussian_profile, _inside_sums,
                         _packet_rows, evolve, focus_probability, gaussian_packet,
                         gaussian_width, phase_imprint)


@dataclass(frozen=True)
class Holes:
    count: int


@dataclass(frozen=True)
class Displacement:
    delta: float                       # per-component std, units of a

    def __post_init__(self):
        # scatter is a perturbation of the lattice: at delta = 0.2 a, 20
        # realizations of a 20-site power-law chain took 0.7 s against 0.01 s
        # at 0.1 a (one CPU), and at 0.25 a they did not end in two minutes,
        # as close pairs' couplings J / r^alpha blow up the spectral span
        if not 0 <= self.delta <= 0.1:
            raise ValueError("delta must be non-negative and finite, at most 0.1 a")


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
        holes = self.kind.count if isinstance(self.kind, Holes) else 0
        if holes < 0:
            raise ValueError("hole count must be non-negative")
        if holes >= self.table.n_active:
            raise ValueError("hole count must be below the active-site count")
        # every focus is a site of the lattice, and never a hole
        free = self.table.active.copy()
        free[[self.table.index_of(np.rint(f).astype(int)) for f in self.design.foci]] = False
        if isinstance(self.kind, Holes):
            self.candidates = np.flatnonzero(free)
            if holes > len(self.candidates):
                raise ValueError(f"hole count {holes} exceeds the "
                                 f"{len(self.candidates)} active sites that are not a focus")


@dataclass
class EnsembleStats:
    """Per-realization records in index order, and the clean lattice's
    record, ``run_protocol(job.table, job)`` bit for bit, where the
    ensemble ran it (:func:`run_ensemble`); the summary covers the
    realizations alone."""
    p_foc: np.ndarray                  # per realization, index order
    sigma_f: np.ndarray
    p_clean: float = math.nan          # the clean lattice's record
    sigma_clean: float = math.nan

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


def _protocol_start(table: SiteTable, job: EnsembleJob) -> tuple:
    """Hamiltonian terms and initial state of the protocol on ``table``: the
    packet at the lattice centre, imprinted by a thin design, under the
    potential of a thick one."""
    terms, psi = build_couplings(table, job.model), gaussian_packet(table, job.sigma0)
    if job.design.thin:
        psi = phase_imprint(psi, thin_phase_profile(job.design, table))
    else:
        terms = terms.with_diagonal(potential_profile(job.design, table))
    return terms, psi


def run_protocol(table: SiteTable, job: EnsembleJob):
    """One full focusing run on the given (possibly perturbed) lattice.

    The packet starts at rest at the lattice center. Returns (P_foc, sigma_f)
    at t = job.duration, P_foc within ``wavepacket.FOCUS_RADIUS`` of the
    design's first focus. The lens profile is evaluated at the site labels:
    fabrication disorder moves the atoms, not the imposed light pattern.
    """
    terms, psi = _protocol_start(table, job)
    psi = evolve(terms, psi, job.duration, tol=job.tol)
    return focus_probability(psi, table, job.design.foci[0]), gaussian_width(psi, table)


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
    its zero on-site energies left out, from which each realization's
    values and Gershgorin bounds are written (:meth:`table`; module
    docstring).
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
        self.holes = isinstance(job.kind, Holes)
        self.model = job.model
        self.radii = self._radii(np.abs(self.data), self.indptr[None])[0]
        # a clean coupling that underflowed is a stored 0.0 of every table
        self._resum(self.data[None], self.radii[None], self.rows[self.data == 0.0])
        # the arrays of a chunk's size, kept for every table written from
        # the pattern: the values a caller keeps here, and scratch
        self.scratch = _Kept()
        self.pairs = None
        if self.holes:
            # the entry (j, i) of each entry (i, j): the pattern is symmetric
            self.transpose = np.lexsort((self.rows, self.cols))
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

    def _resum(self, values: np.ndarray, radii: np.ndarray, zeros: np.ndarray):
        """Sum again into ``radii`` (m, n) each row ``real * n + row`` in
        ``zeros`` (repeats allowed) of the table ``values`` (m, entries)
        over its entries that are not 0.0, as the summation of its H, which
        leaves the zeros out, may group them otherwise."""
        if not zeros.size:
            return
        real, row = np.divmod(np.unique(zeros), len(self.diagonal))
        lengths = self.lengths[row]
        row_values = np.abs(values[np.repeat(real, lengths),
                                   _ranges(self.indptr[row], lengths)])
        held = row_values != 0.0
        counts = np.add.reduceat(held.astype(np.intp), np.cumsum(lengths) - lengths)
        sums = np.zeros(len(real))
        filled = counts > 0
        sums[filled] = np.add.reduceat(row_values[held], (np.cumsum(counts) - counts)[filled])
        radii[real, row] = sums

    def table(self, active: np.ndarray, positions: np.ndarray, kept=None) -> tuple:
        """The values of a stack of realizations, (m, entries) in the
        pattern's order with 0.0 (or -0.0) where a hole removed an entry or
        a coupling underflowed, and their Gershgorin bounds (lows, highs),
        each bit for bit what ``propagator.spectral_bounds`` gives on the
        realization's H. ``active`` is (m, n) for holes, ``positions`` (m,
        n, dim) for displacement, and the other may be the clean table's.
        The values are a new array, or with ``kept`` (a :class:`_Kept`) its
        own, overwritten by the next call; the other arrays of the chunk's
        size are the pattern's ``scratch``.

        Holes zero the entries of each hole's row and column; a power-law
        displacement computes one ``PowerLaw.coupling`` over all the stack's
        separations and sums every row. A row that holds a 0.0 is summed
        again over its other entries alone (:meth:`_resum`): the rows are
        read from what was written, each hole's and its neighbours', or
        the two of each pair whose coupling underflowed, and the table is
        not scanned for zeros."""
        n, size = len(self.diagonal), self.data.size
        m = np.broadcast_shapes(active.shape, positions.shape[:-1])[0]
        values = np.empty((m, size)) if kept is None else kept("values", (m, size))
        radii, diagonal = np.broadcast_to(self.radii, (m, n)).copy(), self.diagonal
        zeros = np.empty(0, np.intp)
        if self.pairs is None:
            values[:] = self.data
        else:
            (i, j), scratch = self.pairs, self.scratch
            d = scratch("d", (m, i.size, positions.shape[-1]))
            # the second endpoints are a temporary: a kept array would stay
            # live through the stack's product, the job's peak
            np.take(positions, j, axis=-2, out=d, mode="clip")
            d -= np.take(positions, i, axis=-2)
            # the magnitudes |-amplitude| and |V| first, for the radii, then
            # the values, in the same array
            extended = scratch("extended", (m, i.size + self.on_site.size))
            amplitudes = self.model.coupling(d, out=extended[:, :i.size])
            extended[:, i.size:] = np.abs(self.on_site)
            np.take(extended, self.source, axis=1, out=values, mode="clip")
            radii = self._radii(values.reshape(-1), np.arange(m)[:, None] * size + self.indptr)
            real, pair = np.nonzero(amplitudes == 0.0)
            zeros = np.concatenate([real * n + i[pair], real * n + j[pair]])
            np.negative(amplitudes, out=amplitudes)
            extended[:, i.size:] = self.on_site
            np.take(extended, self.source, axis=1, out=values, mode="clip")
        if self.holes:
            real, hole = np.nonzero(~active & (self.lengths > 0))
            lengths = self.lengths[hole]
            at = _ranges(self.indptr[hole], lengths)
            # each hole's row, and each row with an entry in its column
            zeros = np.concatenate([real * n + hole, np.repeat(real * n, lengths) + self.cols[at]])
            real = np.repeat(real, lengths)
            values[real, at] = values[real, self.transpose[at]] = 0.0
            diagonal = np.where(active, self.diagonal, 0.0)
        self._resum(values, radii, zeros)
        radii -= np.abs(diagonal)
        return values, (diagonal - radii).min(axis=1), (diagonal + radii).max(axis=1)


class _Kept:
    """Float arrays of a chunk's size by name, made on first use and handed
    out again, as views of the size asked for, at every later call."""

    def __init__(self):
        self.arrays: dict = {}

    def __call__(self, name: str, shape: tuple) -> np.ndarray:
        array = self.arrays.get(name)
        if array is None or array.shape[0] < shape[0] or array.shape[1:] != shape[1:]:
            array = self.arrays[name] = np.empty(shape)
        return array[:shape[0]]


def _draws(job: EnsembleJob, pattern: _CleanPattern, count: int, clean: bool = False):
    """The realizations 0, ..., count - 1 of ``job`` in chunks of about one
    stacked operator's worth (the clean pattern's entries plus its rows
    against ``propagator._STACK_NNZ``): per chunk, the active masks and
    positions, stacked where they vary, the clean table's where they do
    not: a holes job's positions, and so all that is read from them alone
    (its start-packet profile and focus mask), are the same in every
    chunk. Each realization draws its own counter-based stream
    (``_realization_table``). Every chunk but the last holds the same
    number of realizations; with ``clean``, the clean lattice rides as an
    extra row 0 of the first, so the realizations' chunks end where they
    would without it and no chunk holds it alone."""
    table, n, streams = job.table, job.table.n_sites, _Streams(job.master_seed)
    size = max(1, _STACK_NNZ // (pattern.data.size + n))
    for lo in range(0, count, size):
        tables = [table if r < 0 else _realization_table(job, r, streams)
                  for r in range(-1 if clean and lo == 0 else lo, min(lo + size, count))]
        if pattern.holes:
            yield np.stack([t.active for t in tables]), table.positions
        else:
            yield table.active, np.stack([t.positions for t in tables])


def run_ensemble(job: EnsembleJob, pattern: _CleanPattern | None = None,
                 clean: bool = True) -> EnsembleStats:
    """Focusing statistics over disorder realizations, in index order,
    and, with ``clean``, the clean lattice's record.

    Each record equals ``run_protocol(_realization_table(job, r), job)``
    bit for bit, and the clean one ``run_protocol(job.table, job)``: the
    clean lattice rides as an extra row 0 of the first chunk. The
    realizations are drawn about one stacked operator's worth at a time
    (``_draws``); each chunk's values and bounds are written from the
    job's clean pattern (``pattern``, made here when not given) into the
    arrays the pattern keeps (``_CleanPattern.table``, ``scratch``),
    propagated as one stack on the pattern's layout
    (``propagator._PatternPlan``), and its final states scored together
    (``wavepacket._density_widths``, ``_inside_sums``) before the next is
    drawn. No realization's H is built. A holes job's sites never move, so
    its start-packet profile and focus mask are made once, on the clean
    table, and each chunk only masks its holes out of them; a displaced
    chunk makes its own.
    """
    pattern = _CleanPattern(job) if pattern is None else pattern
    plan = _PatternPlan(pattern.cols, pattern.indptr, job.duration, job.tol)
    table, focus = job.table, job.design.foci[0]
    imprint = (np.exp(-1j * thin_phase_profile(job.design, table))
               if job.design.thin else None)

    def frame(positions):
        """The start packets' profile and the focus mask at ``positions``."""
        return (_gaussian_profile(positions, table.center(), job.sigma0),
                _focus_mask(positions, focus))

    fixed = frame(table.positions) if pattern.holes else None
    p_foc, sigma_f = [], []
    for active, positions in _draws(job, pattern, job.realizations, clean):
        values, lows, highs = pattern.table(active, positions, pattern.scratch)
        profile, inside = fixed or frame(positions)
        packets = _packet_rows(profile, active)
        if imprint is not None:
            packets = packets * imprint
        finals = plan.apply(values, list(zip(lows.tolist(), highs.tolist())), packets)
        p = np.abs(finals) ** 2
        p_foc.append(_inside_sums(p, inside))
        sigma_f.append(_density_widths(p, positions))
    p_foc, sigma_f = np.concatenate(p_foc), np.concatenate(sigma_f)
    if not clean:
        return EnsembleStats(p_foc, sigma_f)
    return EnsembleStats(p_foc[1:], sigma_f[1:], float(p_foc[0]), float(sigma_f[0]))


def _perturbations(pattern: _CleanPattern, job: EnsembleJob, count: int):
    """dH = H - H_clean of the realizations 0, ..., count - 1 of ``job``, in
    order, as CSR on the index arrays of the job's clean ``pattern``: each
    chunk's value table (:meth:`_CleanPattern.table`), kept in the
    pattern's arrays, less the clean values, so an entry a realization lost
    holds 0.0 - v and one it kept unchanged holds 0.0. A 0.0 entry adds +-0
    to ``dh @ psi``, so each product is bit for bit that of scipy's
    ``h - clean``, which leaves it out. Each dH is a view on the kept
    table, overwritten by the next chunk."""
    n = job.table.n_sites
    for active, positions in _draws(job, pattern, count):
        values, _, _ = pattern.table(active, positions, pattern.scratch)
        values -= pattern.data
        for row in values:
            yield sp.csr_matrix((row, pattern.cols, pattern.indptr), shape=(n, n))


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


def _delta_grid(deltas) -> list:
    """The displacements of a breakdown scan as floats; ValueError unless
    they ascend and each is a valid :class:`Displacement`."""
    deltas = [Displacement(float(d)).delta for d in deltas]
    if deltas != sorted(deltas):
        raise ValueError("delta grid must be ascending")
    return deltas


def breakdown_scan(job: EnsembleJob, deltas) -> BreakdownResult:
    """Width-ratio table sigma_f(delta)/sigma_f(0) over a displacement grid
    (:func:`_delta_grid`). Every delta's ensemble is written from one clean
    pattern, and sigma_f(0) is the clean record of the first nonzero
    delta's, the only one that evolves the clean lattice, or
    :func:`run_protocol`'s on a grid of zeros."""
    result = BreakdownResult(sigma0=job.sigma0, sigma_f_clean=math.nan,
                             duration=job.duration)
    pattern = None
    for delta in _delta_grid(deltas):
        if delta == 0.0:
            result.rows.append(BreakdownRow(0.0, 1.0, 0.0))
            continue
        ensemble = replace(job, kind=Displacement(delta))
        pattern = _CleanPattern(ensemble) if pattern is None else pattern
        first = math.isnan(result.sigma_f_clean)
        stats = run_ensemble(ensemble, pattern, clean=first)
        if first:
            result.sigma_f_clean = stats.sigma_clean
        ratio = stats.sigma_f / result.sigma_f_clean
        stderr = (ratio.std(ddof=1) / np.sqrt(len(ratio))) if len(ratio) > 1 else 0.0
        result.rows.append(BreakdownRow(delta, float(ratio.mean()), float(stderr)))
    if math.isnan(result.sigma_f_clean):
        result.sigma_f_clean = run_protocol(job.table, job)[1]
    return result
