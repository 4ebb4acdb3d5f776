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

from .lattice import HamiltonianTerms, SiteTable, _Mirror, _Operator
from .propagator import evolution_path, spectral_bounds
from .wavepacket import SpinWaveState

MAX_EXCITATIONS = 3
INTERACTION_CUTOFF = 20.0  # Ising pair range, units of a

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
class ManyBodySector(_Operator):
    """Assembled sector Hamiltonian with its cached spectral bounds, mirror
    and decompositions (``lattice._Operator``)."""

    basis: FockBasis
    matrix: sp.csr_matrix
    _bounds: tuple[float, float] | None = field(default=None, repr=False)

    def csr(self) -> sp.csr_matrix:
        return self.matrix

    def bounds(self):
        if self._bounds is None:
            self._bounds = spectral_bounds(self.matrix)
        return self._bounds

    @cached_property
    def mirror(self) -> _Mirror | None:
        """The mirror of the rows, or None when it leaves the basis."""
        basis = self.basis
        try:
            refl = basis.rank(np.sort(basis.n_sites - 1 - basis.states, axis=1))
        except ValueError:
            return None
        return _Mirror.of(self.matrix, refl)


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
