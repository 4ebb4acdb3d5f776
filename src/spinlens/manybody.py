"""Exact dynamics of a few hard-core excitations with Ising-type interactions.

The sector Hamiltonian on ordered occupation tuples (n_1 < ... < n_nu) is

    H = - sum J_ij (move one excitation i -> j, hard-core)
        + sum_{n occupied} eps_n
        + sum_{occupied pairs} 4 J_z / d(n,m)^p

with p = ``interaction_power`` (default 6) and d the Euclidean distance
between the two sites. The diagonal follows the same single-excitation
energy convention as the rest of the package (an excited site contributes
its potential value once), which makes nu = 1 coincide with the
single-excitation module exactly. Interaction pairs farther apart than
``INTERACTION_CUTOFF`` (20 a) are dropped; at the default power the
relative error is below 2e-8 of J_z.

``literal_sigma_z=True`` switches the diagonal to the verbatim +-1 Pauli
form J_z sum_{n<m} s_n s_m / d^p + sum_n eps_n s_n (all pairs, constants
included). It differs from the default by a state-independent constant
plus boundary- and hole-dependent single-site offsets; useful for
convention-sensitivity checks, not for production runs.

Assembly works on whole arrays. Rows are lexicographic, so their base-N keys
ascend and ``FockBasis.rank`` is a binary search. Per slot, every state takes
each hop of its site's hopping row that the hard core allows, and the CSR is
built once: O(nu D z log D) for z hops per site, ~0.08 s at nu = 3, N = 61.

Evolution runs in the even subspace of the mirror n -> N-1-n of the flat site
index (chain reversal; point inversion of a 2D lattice) whenever that is
accurate to ``tol``. The mirror maps each row to a row (``SectorMirror``; a
sector whose mirror leaves the basis, e.g. one with a hole that has no mirror
partner, has none). One row per orbit, fixed points included, carries the
amplitude of its orbit, and the even operator is H[reps] @ L with
L[s, orbit(s)] = 1. Projecting is ``psi[reps]`` and lifting ``phi[orbit]``,
both exact copies. The orbits, weights and gate come from one helper,
``lattice._Mirror``, which the lens optimizer's even path uses too: a
single-excitation H is the nu = 1 sector. The even operator is similar to
the orthonormal projection P H P^T, so its spectrum lies inside the
sector's, and it is evolved with the full sector's bounds: the same
coefficients and matvec count on about D/2 rows.

On Chebyshev, a real start state (every product state of a real packet)
has all its samples taken from one float64 recurrence,
:func:`propagator.real_window`: exp(-i H t) phi = cos(H t) phi - i sin(H t)
phi, whose terms serve every sample time. The window holds every sample and
its tables at once, so it is taken only while they fit
``propagator._REAL_WINDOW_BYTES`` (16 MiB: about 40-55 samples of the
18 010-row nu = 3 sector); a longer span, like a complex start, is stepped
by :func:`propagator.trajectory`. So stepping one trajectory and calling
``evolve_mb`` step by step give the same bits from a complex start. From a
real start only the first step of each is the same window; every later
``evolve_mb`` starts from a complex state and steps, and the two agree
within the propagator's 10 tol per step, not bit for bit.

The gate is ||psi - psi[refl]||_2 + |t| max_row_sum|H - H[refl][:, refl]|
<= tol: to first order it bounds how far the even result can lie from the
full one, below the propagator's own 10*tol drift. It is not an equality
test, because assembly and ``symmetric_initial_state`` are mirror-symmetric
only to rounding: the diagonal of the nu = 3 sector of a centred 61-site lens
at J_z = 5e3 differs from its mirror image by 7.3e-12.
An off-centre lens or packet, a hole or a generic state fails it and runs the
full sector, equal bit for bit to ``propagator.trajectory`` on
``sector.matrix``.

A small even subspace evolved over a long span is cheaper to diagonalise
once than to expand: its Chebyshev terms cost mostly scipy's per-call
dispatch, and a span needs about as many terms as its phase
half * |t|. :func:`evolution_path` takes this dense path when the even
subspace has at most ``_DENSE_ROWS`` rows and the phase exceeds
``_DENSE_COST`` rows^2 (the table beside the constants). The even operator
M = H[reps] @ L is not symmetric: a pair orbit's entry sums two of H's.
With W = diag(sqrt(orbit size)), S = W M W^-1 is the projection P H P^T in
the orthonormal basis of normalised orbits, symmetric within the mirror
gate's ``asymmetry``, and ``sector.eigen()`` caches one
:class:`propagator.EigenPropagator` of it. A trajectory projects the start
once, c = V^T W phi0, and takes every sample k from it, W^-1 V (e^{-i E k
dt} * c): exact states at the times dt, 2 dt, ..., so its samples agree
with repeated one-step ``evolve_mb`` calls, each from the last state, to
rounding (6e-13 over eight steps of the 930-row nu = 2 even sector below),
not bit for bit. The rule reads the phase of the span asked
for, not whether ``sector.eigen()`` is cached, so a call's path and bits do
not depend on earlier calls; but a trajectory can go dense where its steps
alone stay on Chebyshev. Eight unit steps of a centred nu = 2, N = 61
sector at J_z = 1500 have a phase of about 24 000 > 930^2 / 80 = 10 800
and go dense, each step alone (about 3 000) does not, and the two agree to
the propagator's accuracy (8e-11 at tol = 1e-10), not bit for bit.
Everything else, the full sector and cheap evolutions such as a J_z = 0
packet, stays on Chebyshev.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .lattice import HamiltonianTerms, SiteTable, _Mirror
from .propagator import (EigenPropagator, _real_window_fits, real_window, spectral_bounds,
                         trajectory)
from .wavepacket import SpinWaveState

MAX_EXCITATIONS = 3
INTERACTION_CUTOFF = 20.0  # Ising pair range, units of a

# The dense even path (module docstring) takes even subspaces of at most
# _DENSE_ROWS rows, whose decomposition holds 2 rows^2 doubles (16 MB at
# 1000: Householder reflectors and the tridiagonal's eigenvectors, see
# propagator.EigenPropagator) and 3 rows^2 (24 MB) while dstevd runs, when
# the span's phase half * |t| (about its Chebyshev terms)
# exceeds _DENSE_COST * rows^2 (the decomposition's cost in terms). Eight
# mb_trajectory samples of a centred nu = 2 chain sector (J_z = 1500, real
# start), Chebyshev / dense, decomposition included, in seconds (best of
# 1-3, one CPU, one BLAS thread). Chebyshev is the one float64 window of a
# real start; stepping complex states, as the rule was first set against,
# read 0.0034, 0.013, 0.099 and 1.3 s on 210 rows and 0.0052, 0.027, 0.19
# and 1.9 s on 992, measured alongside. The dense column from 420 rows up,
# above propagator._EVR_ROWS, is re-measured on the Householder path (best
# of 3); it took 0.041, 0.10, 0.17 and 0.31 s on LAPACK's MRRR driver,
# which the path ran before, measured alongside:
#
#   rows  phase 1e2      1e3            1e4            1e5
#    210  0.0023/0.0065  0.012/0.0066   0.11/0.0063    1.4/0.0083
#    420  0.0043/0.021   0.022/0.021    0.18/0.021     1.5/0.021
#    650  0.0050/0.054   0.023/0.054    0.20/0.057     1.5/0.056
#    812  0.0028/0.098   0.016/0.10     0.22/0.10      2.2/0.097
#    992  0.0047/0.18    0.027/0.18     0.23/0.17      2.3/0.21
#
# A term costs 14-23 us here, mostly scipy's per-call dispatch, so running
# it on real vectors gains little at these sizes, and the decomposition
# grows as rows^3 from a faster start. On MRRR the crossovers (phase about
# 500, 1 900, 5 400, 8 700 and 16 000) went about as rows^2 / 80, within
# 1.3x at every size; on the Householder path those above 210 rows fall to
# about 950, 2 600, 4 700 and 7 800, rows^2 / 125 to rows^2 / 185, so the
# rule now keeps some spans on Chebyshev where dense would win (a retune
# is open in ROADMAP.md). Sectors with more hops per row (nu = 3, 2D,
# long-range hopping) pay more per term, so the rule keeps them on
# Chebyshev where dense would already win.
_DENSE_ROWS = 1000
_DENSE_COST = 1.0 / 80.0


@dataclass
class FockBasis:
    """Ordered enumeration of nu-excitation configurations."""

    n_sites: int
    nu: int
    states: np.ndarray                 # (D, nu) int, rows lexicographic

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    def rank(self, configs) -> np.ndarray:
        """Row index of each ascending configuration (last axis of length nu).

        Raises ValueError for one that is not a row: a site out of range, a
        hole, a repeated or an unsorted site.
        """
        configs = np.asarray(configs, dtype=int)
        place = self.n_sites ** np.arange(self.nu - 1, -1, -1)
        keys, row_keys = configs @ place, self.states @ place
        rows = np.searchsorted(row_keys, keys)
        in_range = ((configs >= 0) & (configs < self.n_sites)).all(axis=-1)
        if not (in_range & (row_keys.take(rows, mode="clip") == keys)).all():
            raise ValueError("configuration is not a row of the basis")
        return rows


@dataclass
class ManyBodyState:
    """Amplitudes over a FockBasis, tagged with the evolution time."""

    amplitudes: np.ndarray
    time_stamp: float = 0.0


def enumerate_basis(sites: int | SiteTable, nu: int) -> FockBasis:
    """All nu-excitation configurations, lexicographically ordered.

    ``sites`` is either a site count (all sites available) or a SiteTable,
    in which case only active sites are occupied and the basis dimension
    is C(n_active, nu).
    """
    if not 1 <= nu <= MAX_EXCITATIONS:
        raise ValueError(f"nu must be 1..{MAX_EXCITATIONS}")
    if isinstance(sites, SiteTable):
        n_sites = sites.n_sites
        avail = np.nonzero(sites.active)[0]
    else:
        n_sites = int(sites)
        avail = np.arange(n_sites)
    if len(avail) < nu:
        raise ValueError("not enough available sites")
    flat = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(avail.tolist(), nu)), dtype=int)
    return FockBasis(n_sites=n_sites, nu=nu, states=flat.reshape(-1, nu))


@dataclass
class SectorMirror(_Mirror):
    """Even-subspace form of a sector under the mirror n -> N-1-n: the
    rows' ``refl``, ``reps``, ``orbit``, ``weights`` and ``asymmetry``, as
    ``lattice._Mirror`` computes them for every operator, and the even
    operator itself."""

    matrix: sp.csr_matrix       # H[reps] @ L, acting on orbit amplitudes

    def symmetric(self) -> sp.csr_matrix:
        """W M W^-1 with M = ``matrix`` and W = diag(``weights``): the even
        operator in the orthonormal basis of normalised orbits, symmetric to
        within ``asymmetry`` (M itself is not: a pair orbit's entry sums two
        of H's, a fixed point's one)."""
        w = self.weights
        return (sp.diags(w) @ self.matrix @ sp.diags(1.0 / w)).tocsr()


@dataclass
class ManyBodySector:
    """Assembled sector Hamiltonian with cached spectral bounds and mirror."""

    basis: FockBasis
    matrix: sp.csr_matrix
    _bounds: tuple[float, float] | None = field(default=None, repr=False)
    _eigen: EigenPropagator | None = field(default=None, repr=False)

    def bounds(self):
        if self._bounds is None:
            self._bounds = spectral_bounds(self.matrix)
        return self._bounds

    def eigen(self) -> EigenPropagator:
        """Dense eigendecomposition of the even operator
        ``mirror.symmetric()`` (cached): about 2 dim^2 floats, so for small
        even subspaces only."""
        if self._eigen is None:
            if self.mirror is None:
                raise ValueError("the sector has no mirror reduction")
            self._eigen = EigenPropagator(self.mirror.symmetric())
        return self._eigen

    @cached_property
    def mirror(self) -> SectorMirror | None:
        """The mirror reduction, or None when the mirror leaves the basis."""
        basis, h = self.basis, self.matrix
        try:
            refl = basis.rank(np.sort(basis.n_sites - 1 - basis.states, axis=1))
        except ValueError:
            return None
        m = _Mirror.of(h, refl)
        lift = sp.csr_matrix((np.ones(basis.dim), (np.arange(basis.dim), m.orbit)),
                             shape=(basis.dim, m.dim))
        return SectorMirror(**vars(m), matrix=(h[m.reps] @ lift).tocsr())


def build_mb_hamiltonian(terms: HamiltonianTerms, basis: FockBasis,
                         jz: float = 0.0, interaction_power: float = 6.0,
                         table: SiteTable | None = None,
                         literal_sigma_z: bool = False) -> ManyBodySector:
    """Sector Hamiltonian from single-excitation terms plus Ising tails.

    Pair distances come from ``table.positions`` when a table is given,
    otherwise sites are treated as a unit-spaced chain (distance equals
    index separation).
    """
    if jz < 0:
        raise ValueError("jz must be non-negative")
    hop = terms.hopping.tocsr()
    eps = terms.diagonal
    pos = (table.positions if table is not None
           else np.arange(basis.n_sites, dtype=float)[:, None])
    states = basis.states
    dim, nu = states.shape
    power = float(interaction_power)

    def pair_weight(d):
        return np.where(d <= INTERACTION_CUTOFF,
                        1.0 / np.maximum(d, 1e-300) ** power, 0.0)

    occ_eps = eps[states].sum(axis=1)
    diag = occ_eps.astype(float)
    pair_int = np.zeros(dim)
    if nu >= 2:
        for i, j in itertools.combinations(range(nu), 2):
            d = np.linalg.norm(pos[states[:, i]] - pos[states[:, j]], axis=1)
            pair_int += pair_weight(d)
        diag = diag + 4.0 * jz * pair_int

    if literal_sigma_z:
        act = (np.nonzero(table.active)[0] if table is not None
               else np.arange(basis.n_sites))
        a, b = (act[k] for k in np.triu_indices(len(act), 1))
        w = pair_weight(np.linalg.norm(pos[a] - pos[b], axis=1))
        inv_dp = np.zeros((basis.n_sites, basis.n_sites))
        inv_dp[a, b] = inv_dp[b, a] = w
        col_sums = inv_dp.sum(axis=1)
        const = jz * inv_dp[np.triu_indices(basis.n_sites, 1)].sum() - eps[act].sum()
        diag = (2.0 * occ_eps
                + 4.0 * jz * pair_int
                - 2.0 * jz * col_sums[states].sum(axis=1)
                + const)

    # per slot, all states at once: row k of `moves` holds the hops out of
    # state k's slot; drop those onto an occupied site, rank the rest
    rows, cols, vals = [], [], []
    for slot in range(nu):
        moves = hop[states[:, slot]]
        src = np.repeat(np.arange(dim), np.diff(moves.indptr))
        new = states[src]
        free = (new != moves.indices[:, None]).all(axis=1)
        new[:, slot] = moves.indices
        rows.append(basis.rank(np.sort(new[free], axis=1)))
        cols.append(src[free])
        vals.append(-moves.data[free])
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    h = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim)) + sp.diags(diag)
    return ManyBodySector(basis=basis, matrix=h.tocsr())


def symmetric_initial_state(psi_single, nu: int, basis: FockBasis) -> ManyBodyState:
    """Hard-core projected product state: A_s proportional to prod_i psi(n_i)."""
    time0 = 0.0
    if isinstance(psi_single, SpinWaveState):
        time0 = psi_single.time
        psi_single = psi_single.amplitudes
    psi = np.asarray(psi_single, dtype=complex)
    if psi.shape != (basis.n_sites,):
        raise ValueError("single-excitation amplitude length mismatch")
    if nu != basis.nu:
        raise ValueError("nu disagrees with the basis")
    if np.count_nonzero(psi) < nu:
        raise ValueError(f"need at least {nu} sites with nonzero amplitude")
    amps = np.prod(psi[basis.states], axis=1)
    norm = np.linalg.norm(amps)
    if norm < 1e-300:
        raise ValueError("product state has zero weight in this sector")
    return ManyBodyState(amplitudes=amps / norm, time_stamp=time0)


def even_path(sector: ManyBodySector, amplitudes, t: float,
              tol: float) -> SectorMirror | None:
    """The sector's mirror if evolving ``amplitudes`` for |t| may run in the
    even subspace at ``tol`` (the gate of the module docstring), else None."""
    mirror = sector.mirror
    if mirror is None:
        return None
    psi = np.asarray(amplitudes)
    if psi.shape != (sector.basis.dim,):
        raise ValueError("state length does not match the sector")
    return mirror if mirror.drift(psi, t) <= tol else None


@dataclass(frozen=True)
class EvolutionPath:
    """How :func:`evolution_path` evolves a sector state over a span: on the
    full sector (``mirror`` None) or in the even subspace, by Chebyshev
    (one real window from a real start that fits its budget, else steps)
    or, when ``dense``, from ``sector.eigen()``."""

    sector: ManyBodySector
    mirror: SectorMirror | None
    dense: bool
    tol: float

    @property
    def dim(self) -> int:
        """Rows of the operator the state is evolved with."""
        return self.sector.basis.dim if self.mirror is None else self.mirror.dim

    @property
    def method(self) -> str:
        return "dense" if self.dense else "chebyshev"

    def trajectory(self, amplitudes, dt: float, n_steps: int,
                   t0: float = 0.0) -> Iterator[tuple[float, np.ndarray]]:
        """Evolve ``amplitudes`` by exp(-i H dt) ``n_steps`` times along
        this path, yielding (t, amplitudes) after each step; the clock
        advances by ``t = t + dt`` from ``t0``."""
        mirror, bounds = self.mirror, self.sector.bounds()
        if mirror is None:
            yield from trajectory(self.sector.matrix, amplitudes, dt, n_steps,
                                  tol=self.tol, bounds=bounds, t0=t0)
            return
        phi = np.asarray(amplitudes)[mirror.reps]
        if self.dense:
            # every sample from one projection of the start
            w, t = mirror.weights, t0
            states = self.sector.eigen().states(w * phi, dt * np.arange(1, n_steps + 1))
            for row in states:
                t = t + dt
                yield t, (row / w)[mirror.orbit]
            return
        # a complex start steps, as do a zero step and none, which a window
        # refuses, and a span whose real window would not fit its budget
        if ((np.iscomplexobj(phi) and phi.imag.any()) or dt == 0.0 or n_steps < 1
                or not _real_window_fits(mirror.matrix, bounds, dt, n_steps)):
            for t, phi in trajectory(mirror.matrix, phi, dt, n_steps,
                                     tol=self.tol, bounds=bounds, t0=t0):
                yield t, phi[mirror.orbit]
            return
        # a real start: every sample from one float64 recurrence
        t = t0
        for row in real_window(mirror.matrix, phi, dt, n_steps, tol=self.tol, bounds=bounds):
            t = t + dt
            yield t, row[mirror.orbit]


def evolution_path(sector: ManyBodySector, amplitudes, t: float,
                   tol: float) -> EvolutionPath:
    """The path that evolves ``amplitudes`` for a span |t| (module
    docstring): the even subspace when :func:`even_path` allows it, taken
    from the dense eigendecomposition when the subspace has at most
    ``_DENSE_ROWS`` rows and the span's phase exceeds ``_DENSE_COST`` dim^2,
    else by Chebyshev steps."""
    mirror = even_path(sector, amplitudes, t, tol)
    dense = False
    if mirror is not None and mirror.dim <= _DENSE_ROWS:
        lo, hi = sector.bounds()
        dense = 0.5 * (hi - lo) * abs(t) > _DENSE_COST * mirror.dim ** 2
    return EvolutionPath(sector, mirror, dense, tol)


def mb_trajectory(sector: ManyBodySector, amplitudes, dt: float, n_steps: int,
                  tol: float = 1e-10,
                  t0: float = 0.0) -> Iterator[tuple[float, np.ndarray]]:
    """Evolve the sector state by exp(-i H dt) ``n_steps`` times, yielding
    (t, amplitudes) after each step, as :func:`propagator.trajectory` does.

    Runs along the :func:`evolution_path` of the whole span ``n_steps * dt``,
    which can be the dense path where each step alone, as ``evolve_mb``
    takes it, is not. On the even Chebyshev path a real start samples all
    ``n_steps`` states from one float64 recurrence, which holds them at
    once, while they fit its memory budget, and agrees with repeated
    ``evolve_mb`` within 10 tol per step; a complex start, or a span over
    the budget, steps, bit for bit as repeated ``evolve_mb`` (module
    docstring).
    """
    path = evolution_path(sector, amplitudes, n_steps * dt, tol)
    yield from path.trajectory(amplitudes, dt, n_steps, t0=t0)


def evolve_mb(sector: ManyBodySector, state: ManyBodyState, dt: float,
              tol: float = 1e-10) -> ManyBodyState:
    """Return the state evolved by exp(-i H dt): one step of
    :func:`mb_trajectory`.

    A state that is mirror-symmetric within the gate
    ||psi - psi[refl]|| + |dt| max_row_sum|H - H[refl][:, refl]| <= tol
    (a centred lens and packet) runs in the even subspace on about D/2 rows,
    along the dense path or by Chebyshev: one float64 expansion from a real
    state, one complex step otherwise (module docstring), and is lifted
    back; the gate bounds, to first order, its distance from the
    full-sector result. Any other state runs on the full sector, bit for
    bit as ``propagator.expimv(sector.matrix, ..., bounds=sector.bounds())``.
    """
    (_, amps), = mb_trajectory(sector, state.amplitudes, dt, 1, tol=tol)
    return ManyBodyState(amplitudes=amps, time_stamp=state.time_stamp + dt)


def _amplitudes(state) -> np.ndarray:
    return state.amplitudes if isinstance(state, ManyBodyState) else np.asarray(state)


def density_profile(state, basis: FockBasis) -> np.ndarray:
    """Per-site excitation density; sums to nu."""
    p = np.abs(_amplitudes(state)) ** 2
    out = np.zeros(basis.n_sites)
    for col in range(basis.nu):
        np.add.at(out, basis.states[:, col], p)
    return out


def pair_distance_distribution(state, basis: FockBasis,
                               table: SiteTable | None = None):
    """(distances, weights): probability mass on each occupied-pair distance.

    Weights sum to the number of pairs nu(nu-1)/2.
    """
    if basis.nu < 2:
        raise ValueError("needs nu >= 2")
    pos = (table.positions if table is not None
           else np.arange(basis.n_sites, dtype=float)[:, None])
    pairs = list(itertools.combinations(range(basis.nu), 2))
    d = np.round(np.concatenate(
        [np.linalg.norm(pos[basis.states[:, i]] - pos[basis.states[:, j]], axis=1)
         for i, j in pairs]), 9)
    w = np.tile(np.abs(_amplitudes(state)) ** 2, len(pairs))
    uniq, inv = np.unique(d, return_inverse=True)
    agg = np.zeros(len(uniq))
    np.add.at(agg, inv, w)
    return uniq, agg


def blockade_radius(jz: float, hopping: float = 1.0, power: float = 6.0) -> float:
    """Distance below which the Ising shift exceeds the hopping scale."""
    return (jz / hopping) ** (1.0 / power)
