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

Assembly works on whole arrays and ranks rows arithmetically. Rows are
lexicographic, and ``FockBasis.rank`` is the combinatorial number system:
rank = sum_i F_i[c_i] - F_i[c_{i-1} + 1] over prefix-binomial tables of the
basis sites, nu lookups a row. Every slot of every state takes each hop of
its site's hopping row that the hard core allows; the target goes in among
the other nu - 1 sites by min and max and is ranked, and the entries come
out state by state, in the order the CSR keeps: O(nu D z) for z hops per
site, with no search or sort. Enumeration, assembly and the mirror take
about 9-11 ms at nu = 3, N = 51 (D = 20 825) and 15-20 ms at N = 61
(D = 35 990), one CPU and one BLAS thread.

A sector is evolved along :class:`propagator.EvolutionPath`, as lens
operators are: its mirror is n -> N-1-n of the flat site index applied to
every row (None when that leaves the basis, e.g. a hole without a mirror
partner), and a state that passes the mirror gate at ``tol`` runs in the
even subspace of about D/2 rows.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .lattice import HamiltonianTerms, SiteTable, _HoppingFold, _Mirror, _Operator
from .propagator import evolution_path, spectral_bounds
from .wavepacket import SpinWaveState

MAX_EXCITATIONS = 3
INTERACTION_CUTOFF = 20.0  # Ising pair range, units of a


def _binomial(m: np.ndarray, k: int) -> np.ndarray:
    """C(m, k) of each m >= 0, exact in int64 (0 where m < k)."""
    out = np.ones_like(m)
    for t in range(k):
        out = out * (m - t) // (t + 1)
    return out


@dataclass
class FockBasis:
    """Ordered enumeration of nu-excitation configurations."""

    n_sites: int
    nu: int
    states: np.ndarray                 # (D, nu) int, rows lexicographic

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The sites of the rows (a mask) and the rank tables T, (nu, N).

        With a_after(y) the number of basis sites above y and
        F_i[s] = sum of C(a_after(y), nu-1-i) over basis sites y < s, the
        lexicographic rank of the row c_0 < ... < c_{nu-1} counts the rows
        that leave it behind at each slot (the combinatorial number system):
        rank = sum_i F_i[c_i] - F_i[c_{i-1} + 1], with c_{-1} + 1 = 0. It
        is regrouped as sum_i T_i[c_i], T_i[s] = F_i[s] - F_{i+1}[s + 1] and
        T_{nu-1} = F_{nu-1}, so a rank is nu lookups and adds.
        """
        n_sites, nu, states = self.n_sites, self.nu, self.states
        active = np.zeros(n_sites, dtype=bool)
        # the first row holds the lowest nu sites, the last column every other
        active[states[0]] = True
        active[states[:, -1]] = True
        after = np.count_nonzero(active) - np.cumsum(active)
        f = np.zeros((nu, n_sites + 1), dtype=np.int64)
        for i in range(nu):
            np.cumsum(np.where(active, _binomial(after, nu - 1 - i), 0), out=f[i, 1:])
        t = f[:, :-1].copy()
        t[:-1] -= f[1:, 1:]
        return active, t

    def _rank_rows(self, columns) -> np.ndarray:
        """The rank of each row given as nu ascending site columns, which
        are taken to be rows of the basis."""
        t = self._tables[1]
        rank = t[0][columns[0]]
        for i in range(1, self.nu):
            rank = rank + t[i][columns[i]]
        return rank

    def rank(self, configs) -> np.ndarray:
        """Row index of each ascending configuration (last axis of length nu).

        Raises ValueError for one that is not a row: a site out of range, a
        hole, a repeated or an unsorted site.
        """
        configs = np.asarray(configs, dtype=int)
        active = self._tables[0]
        in_range = (configs.shape[-1:] == (self.nu,)
                    and ((configs >= 0) & (configs < self.n_sites)).all())
        if not (in_range and active[configs].all()
                and (np.diff(configs, axis=-1) > 0).all()):
            raise ValueError("configuration is not a row of the basis")
        return self._rank_rows(np.moveaxis(configs, -1, 0))


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
    # the rows with leading site a are a followed by the tail of the
    # (k-1)-rows whose leading site is above a: C(n-1-a, k-1) of them
    n = len(avail)
    rows = np.arange(n)[:, None]
    for k in range(2, nu + 1):
        lead = np.arange(n - k + 1)
        length = _binomial(n - 1 - lead, k - 1)
        skip = len(rows) - length - (np.cumsum(length) - length)
        tail = np.arange(length.sum()) + np.repeat(skip, length)
        rows = np.column_stack((np.repeat(lead, length), rows[tail]))
    return FockBasis(n_sites=n_sites, nu=nu, states=avail[rows])


@dataclass
class ManyBodySector(_Operator):
    """Assembled sector Hamiltonian with its cached spectral bounds, mirror
    and decompositions (``lattice._Operator``). ``build_mb_hamiltonian``
    hands it the hopping's fold (``lattice._HoppingFold``) of its terms."""

    basis: FockBasis
    matrix: sp.csr_matrix
    _bounds: tuple[float, float] | None = field(default=None, repr=False)
    _hopping_fold: _HoppingFold | None = field(default=None, repr=False)

    def csr(self) -> sp.csr_matrix:
        return self.matrix

    def bounds(self):
        if self._bounds is None:
            self._bounds = spectral_bounds(self.matrix)
        return self._bounds

    @cached_property
    def mirror(self) -> _Mirror | None:
        """The mirror of the rows, or None when it leaves the basis. Each
        image N-1-row, its columns reversed, is ascending already. When the
        hopping is exactly mirror-symmetric, every hop maps onto a hop of
        the same value, so H - H[refl][:, refl] is diagonal and its max row
        sum, the float ``_Mirror.skew`` gives on the CSR, is
        max |d - d[refl]| of H's diagonal d."""
        basis = self.basis
        try:
            refl = basis.rank((basis.n_sites - 1 - basis.states)[:, ::-1])
        except ValueError:
            return None
        fold = self._hopping_fold
        if fold is None or fold.mirror is None:
            return _Mirror.of(self.matrix, refl)
        d = self.matrix.diagonal()
        return _Mirror.orbits(refl, float(np.abs(d - d[refl]).max()))


def _insert(columns: list, j: np.ndarray) -> list:
    """The nu - 1 ascending site ``columns`` with the sites ``j`` put in
    among them, row by row, as nu ascending columns: by min and max."""
    if not columns:
        return [j]
    return ([np.minimum(columns[0], j)]
            + [np.maximum(lo, np.minimum(hi, j))
               for lo, hi in zip(columns[:-1], columns[1:])]
            + [np.maximum(columns[-1], j)])


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

    # hop q of site i is entry i of row q of a table padded with i itself
    # and weight 0; a hop must stay on the sites of the basis
    active = basis._tables[0]
    degree = np.diff(hop.indptr)
    site_of = np.repeat(np.arange(basis.n_sites), degree)
    if not active[hop.indices[active[site_of]]].all():
        raise ValueError("a hop leaves the sites of the basis")
    order = np.arange(hop.nnz) - np.repeat(hop.indptr[:-1], degree)
    width = int(degree.max(initial=0))
    target = np.repeat(np.arange(basis.n_sites)[None, :], width, axis=0)
    weight = np.zeros(target.shape)
    target[order, site_of], weight[order, site_of] = hop.indices, hop.data

    # entry (k, s) of row k = slot * width + q moves that slot of state s
    # along its hop q, unless that lands on an occupied site: the target j
    # goes in among the other nu - 1 sites, which stay ascending, and the
    # new row is ranked. The last row holds the diagonal.
    columns = list(states.T)
    rows = np.empty((nu * width + 1, dim), dtype=np.int64)
    vals = np.empty(rows.shape)
    keep = np.empty(rows.shape, dtype=bool)
    for slot, site in enumerate(columns):
        others = columns[:slot] + columns[slot + 1:]
        for q in range(width):
            k = slot * width + q
            j = target[q][site]
            np.logical_and.reduce([j != c for c in columns], out=keep[k])
            rows[k] = basis._rank_rows(_insert(others, j))
            np.negative(weight[q][site], out=vals[k])
    rows[-1], vals[-1], keep[-1] = np.arange(dim), diag, True
    # an entry that is exactly zero is left out, as the sum of the hops' CSR
    # and diag(d) leaves it out. Read state by state (the transposes), the
    # entries ascend in column, so every row of the CSR comes out sorted.
    keep &= vals != 0.0
    keep, rows, vals = keep.T, rows.T, vals.T
    cols = np.repeat(np.arange(dim), keep.sum(axis=1))
    h = sp.csr_matrix((vals[keep], (rows[keep], cols)), shape=(dim, dim))
    return ManyBodySector(basis=basis, matrix=h, _hopping_fold=terms._hopping_fold)


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


def mb_trajectory(sector: ManyBodySector, amplitudes, dt: float, n_steps: int,
                  tol: float = 1e-10,
                  t0: float = 0.0) -> Iterator[tuple[float, np.ndarray]]:
    """Evolve the sector state by exp(-i H dt) ``n_steps`` times, yielding
    (t, amplitudes) after each step; the clock advances by ``t = t + dt``
    from ``t0``. The samples at dt, 2 dt, ..., n_steps dt are taken along
    one :func:`propagator.evolution_path`, so they agree with repeated
    ``evolve_mb`` calls within the path's promise, and bit for bit only
    where both step by Chebyshev on the same operator.
    """
    path = evolution_path(sector, amplitudes, dt * np.arange(1, n_steps + 1), tol)
    t = t0
    for amps in path.states():
        t = t + dt
        yield t, amps


def evolve_mb(sector: ManyBodySector, state: ManyBodyState, dt: float,
              tol: float = 1e-10) -> ManyBodyState:
    """Return the state evolved by exp(-i H dt): one step of
    :func:`mb_trajectory`."""
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
