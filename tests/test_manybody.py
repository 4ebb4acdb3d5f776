import itertools
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlens.lattice import (NearestNeighbor, PowerLaw, _Mirror, build_couplings,
                              build_lattice, displace_sites, punch_holes)
from spinlens.lens import ThickPolynomial, potential_profile
from spinlens.manybody import (ManyBodySector, ManyBodyState, blockade_radius,
                               build_mb_hamiltonian, density_profile,
                               enumerate_basis, evolve_mb, mb_trajectory,
                               pair_distance_distribution,
                               symmetric_initial_state)
from spinlens.propagator import (EigenPropagator, EvolutionPath, _real_window_fits,
                                 evolution_path, expimv, real_window, trajectory)
from spinlens.scenarios import prepare_config, run_scenario
from spinlens.wavepacket import SpinWaveState, gaussian_packet

from conftest import dense_evolution

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestBasis:
    def test_three_sites_two_excitations(self):
        basis = enumerate_basis(3, 2)
        assert [tuple(s) for s in basis.states] == [(0, 1), (0, 2), (1, 2)]
        assert basis.dim == 3
        assert basis.rank((0, 2)) == 1

    def test_dimension_is_binomial(self):
        from math import comb
        assert enumerate_basis(10, 3).dim == comb(10, 3)
        assert enumerate_basis(12, 1).dim == 12

    def test_lexicographic_order(self):
        states = [tuple(s) for s in enumerate_basis(7, 3).states]
        assert states == sorted(states)

    def test_holes_excluded(self):
        table = punch_holes(build_lattice((6,)), [(2,)])
        basis = enumerate_basis(table, 2)
        assert basis.dim == 10
        assert not any(2 in s for s in basis.states)
        assert basis.n_sites == 6

    def test_rank_inverts_row_order(self):
        for basis in (enumerate_basis(9, 1), enumerate_basis(9, 3),
                      enumerate_basis(punch_holes(build_lattice((7,)), [(3,)]), 2)):
            assert np.array_equal(basis.rank(basis.states), np.arange(basis.dim))

    @pytest.mark.parametrize("config", [(0, 8), (1, -4), (2, 3), (4, 2), (1, 1), (0, 1, 2)])
    def test_rank_rejects_configurations_outside_the_basis(self, config):
        # out of range above and below (their keys alias the rows (1, 2) and
        # (0, 2)), a hole, unsorted, repeated, one site too many
        basis = enumerate_basis(punch_holes(build_lattice((6,)), [(3,)]), 2)
        with pytest.raises(ValueError):
            basis.rank(config)
        with pytest.raises(ValueError):
            basis.rank(np.array([(0, 1), config]))

    def test_validation(self):
        with pytest.raises(ValueError):
            enumerate_basis(5, 0)
        with pytest.raises(ValueError):
            enumerate_basis(5, 4)
        with pytest.raises(ValueError):
            enumerate_basis(2, 3)


@st.composite
def _tables_with_holes(draw):
    """A 1D or 2D table with holes (mirror-paired or not), a coupling model,
    scattered sites or not, an excitation number and a diagonal seed."""
    extents = draw(st.one_of(st.tuples(st.integers(3, 14)),
                             st.tuples(st.integers(2, 4), st.integers(2, 4))))
    n = int(np.prod(extents))
    holes = draw(st.sets(st.integers(0, n - 1), max_size=3))
    if draw(st.booleans()):
        holes |= {n - 1 - h for h in holes}
    nu = draw(st.integers(1, 3))
    if n - len(holes) < nu + 1:
        holes = set()
    table = build_lattice(extents)
    table = punch_holes(table, [tuple(table.labels[h]) for h in sorted(holes)])
    if draw(st.booleans()):
        table = displace_sites(table, np.random.default_rng(n).normal(
            0.0, 0.01, table.positions.shape))
    model = draw(st.sampled_from([NearestNeighbor(1.0), PowerLaw(1.0, 3.0)]))
    return table, model, sorted(holes), nu, draw(st.integers(0, 2**16))


@settings(max_examples=120, deadline=None)
@given(case=_tables_with_holes())
def test_rank_and_mirror_properties(case):
    table, model, holes, nu, seed = case
    rng = np.random.default_rng(seed)
    eps = rng.normal(size=table.n_sites)
    if seed % 2:
        eps = eps + eps[::-1]
    terms = build_couplings(table, model, lens_diagonal=eps)
    basis = enumerate_basis(table, nu)
    states, n = basis.states, table.n_sites
    assert np.array_equal(basis.rank(states), np.arange(basis.dim))

    bad = [np.append(states[-1][:-1], n), np.insert(states[0][1:], 0, -1)]
    if holes:
        others = np.nonzero(table.active)[0][:nu - 1]
        bad.append(np.sort(np.append(others, holes[0])))
    if nu >= 2:
        bad += [states[0][::-1], np.full(nu, states[0][0])]
    for config in bad:
        with pytest.raises(ValueError):
            basis.rank(config)

    sector = build_mb_hamiltonian(terms, basis, jz=2.0, table=table)
    index = {tuple(s): i for i, s in enumerate(states.tolist())}
    images = [index.get(tuple(sorted(s))) for s in (n - 1 - states).tolist()]
    mirror = sector.mirror
    if None in images:
        assert mirror is None
        return
    assert np.array_equal(mirror.refl, images)
    assert mirror.asymmetry == _Mirror.skew(sector.matrix, mirror.refl)


def kron_site_operator(op, site, n):
    eye = np.eye(2)
    return reduce(np.kron, [op if j == site else eye for j in range(n)])


def pauli_oracle(terms, n, jz, power, literal):
    """Dense 2^n spin Hamiltonian, projected later onto a fixed sector."""
    number = np.diag([0.0, 1.0])
    sp_ = np.array([[0.0, 0.0], [1.0, 0.0]])  # |1><0| with basis (empty, excited)
    dim = 2**n
    h = np.zeros((dim, dim))
    hop = terms.hopping.toarray()
    eps = terms.diagonal
    for i in range(n):
        if literal:
            sz = 2.0 * number - np.eye(2)
            h += eps[i] * kron_site_operator(sz, i, n)
        else:
            h += eps[i] * kron_site_operator(number, i, n)
    for i, j in itertools.combinations(range(n), 2):
        if hop[i, j] != 0.0:
            flip = (kron_site_operator(sp_, i, n) @ kron_site_operator(sp_.T, j, n)
                    + kron_site_operator(sp_.T, i, n) @ kron_site_operator(sp_, j, n))
            h -= hop[i, j] * flip
        w = 1.0 / abs(i - j) ** power if abs(i - j) <= 20.0 else 0.0
        if jz != 0.0 and w != 0.0:
            if literal:
                szi = kron_site_operator(2.0 * number - np.eye(2), i, n)
                szj = kron_site_operator(2.0 * number - np.eye(2), j, n)
                h += jz * w * (szi @ szj)
            else:
                h += 4.0 * jz * w * (kron_site_operator(number, i, n)
                                     @ kron_site_operator(number, j, n))
    return h


def project_to_basis(h_full, basis, n):
    cols = []
    for s in basis.states:
        # site i sits at kron position i, so it carries bit weight 2^(n-1-i)
        cols.append(sum(2 ** (n - 1 - int(i)) for i in s))
    cols = np.array(cols)
    return h_full[np.ix_(cols, cols)]


class TestHamiltonian:
    def test_onsite_diagonal(self):
        table = build_lattice((4,))
        terms = build_couplings(table, NearestNeighbor(1.0),
                                lens_diagonal=np.array([0.0, 1.0, 2.0, 3.0]))
        sector = build_mb_hamiltonian(terms, enumerate_basis(4, 2))
        diag = sector.matrix.diagonal()
        assert np.allclose(diag, [1.0, 2.0, 3.0, 3.0, 4.0, 5.0])

    def test_pair_interaction_diagonal(self):
        table = build_lattice((5,))
        terms = build_couplings(table, NearestNeighbor(1.0))
        basis = enumerate_basis(5, 2)
        sector = build_mb_hamiltonian(terms, basis, jz=2.0)
        diag = sector.matrix.diagonal()
        assert np.isclose(diag[basis.rank((1, 2))], 8.0)
        assert np.isclose(diag[basis.rank((0, 3))], 8.0 / 3.0**6)

    def test_interaction_cutoff(self):
        table = build_lattice((23,))
        terms = build_couplings(table, NearestNeighbor(1.0))
        basis = enumerate_basis(23, 2)
        sector = build_mb_hamiltonian(terms, basis, jz=1.0)
        diag = sector.matrix.diagonal()
        assert diag[basis.rank((0, 22))] == 0.0
        assert diag[basis.rank((0, 20))] > 0.0

    def test_hopping_respects_hard_core(self):
        table = build_lattice((4,))
        terms = build_couplings(table, NearestNeighbor(1.0))
        basis = enumerate_basis(4, 2)
        h = build_mb_hamiltonian(terms, basis).matrix.toarray()
        i12 = basis.rank((1, 2))
        assert h[basis.rank((0, 2)), i12] == -1.0
        assert h[basis.rank((1, 3)), i12] == -1.0
        # the only other coupling is blocked by occupancy
        assert np.count_nonzero(h[:, i12]) == 2

    @pytest.mark.parametrize("literal", [False, True])
    def test_matches_dense_pauli_construction(self, rng, literal):
        n, jz, power = 8, 1.7, 6.0
        table = build_lattice((n,))
        terms = build_couplings(table, PowerLaw(1.0, 6.0),
                                lens_diagonal=rng.normal(size=n))
        basis = enumerate_basis(n, 2)
        sector = build_mb_hamiltonian(terms, basis, jz=jz,
                                      interaction_power=power,
                                      literal_sigma_z=literal)
        oracle = project_to_basis(pauli_oracle(terms, n, jz, power, literal),
                                  basis, n)
        assert np.allclose(sector.matrix.toarray(), oracle, atol=1e-10)

    def test_single_excitation_reduction(self):
        table = build_lattice((6,))
        terms = build_couplings(table, NearestNeighbor(1.0),
                                lens_diagonal=0.3 * np.arange(6.0) ** 2)
        sector = build_mb_hamiltonian(terms, enumerate_basis(6, 1), jz=5.0)
        assert np.allclose(sector.matrix.toarray(),
                           terms.matrix().toarray(), atol=1e-14)

    def test_holes_restrict_single_excitation_sector(self):
        table = punch_holes(build_lattice((6,)), [(3,)])
        terms = build_couplings(table, NearestNeighbor(1.0))
        basis = enumerate_basis(table, 1)
        sector = build_mb_hamiltonian(terms, basis, table=table)
        act = np.nonzero(table.active)[0]
        ref = terms.matrix().toarray()[np.ix_(act, act)]
        assert np.allclose(sector.matrix.toarray(), ref, atol=1e-14)

    def test_negative_jz_rejected(self):
        table = build_lattice((4,))
        terms = build_couplings(table, NearestNeighbor(1.0))
        with pytest.raises(ValueError):
            build_mb_hamiltonian(terms, enumerate_basis(4, 2), jz=-1.0)


def reference_diagonal(terms, basis, jz=0.0, interaction_power=6.0,
                       table=None, literal_sigma_z=False, cutoff_range=20.0):
    """The sector's diagonal by the per-row formulas: each row's site
    energies summed along the row, and a norm and a power per row and
    pair of slots."""
    eps = terms.diagonal
    if table is not None:
        pos = table.positions
    else:
        pos = np.arange(basis.n_sites, dtype=float)[:, None]
    states = basis.states
    dim, nu = states.shape
    power = float(interaction_power)

    def pair_weight(d):
        return np.where(d <= cutoff_range, 1.0 / np.maximum(d, 1e-300) ** power, 0.0)

    occ_eps = eps[states].sum(axis=1)
    diag = occ_eps.astype(float)
    pair_int = np.zeros(dim)
    if nu >= 2:
        for i, j in itertools.combinations(range(nu), 2):
            d = np.linalg.norm(pos[states[:, i]] - pos[states[:, j]], axis=1)
            pair_int += pair_weight(d)
        diag = diag + 4.0 * jz * pair_int
    if literal_sigma_z:
        if table is not None:
            act = np.nonzero(table.active)[0]
        else:
            act = np.arange(basis.n_sites)
        inv_dp = np.zeros((basis.n_sites, basis.n_sites))
        for a, b in itertools.combinations(act.tolist(), 2):
            inv_dp[a, b] = inv_dp[b, a] = pair_weight(
                np.linalg.norm(pos[a] - pos[b]))
        col_sums = inv_dp.sum(axis=1)
        const = jz * inv_dp[np.triu_indices(basis.n_sites, 1)].sum() - eps[act].sum()
        diag = (2.0 * occ_eps
                + 4.0 * jz * pair_int
                - 2.0 * jz * col_sums[states].sum(axis=1)
                + const)
    return diag


def reference_assembly(terms, basis, jz=0.0, interaction_power=6.0,
                       table=None, literal_sigma_z=False, cutoff_range=20.0):
    """Per-state loop assembly with a dict of tuples: the former
    ``build_mb_hamiltonian``, kept as the bit-identity oracle."""
    diag = reference_diagonal(terms, basis, jz, interaction_power, table,
                              literal_sigma_z, cutoff_range)
    index = {tuple(s): i for i, s in enumerate(basis.states)}
    hop = terms.hopping.tocsr()
    states = basis.states
    dim, nu = states.shape
    rows, cols, vals = [], [], []
    indptr, indices, data = hop.indptr, hop.indices, hop.data
    occupied = [set(map(int, s)) for s in states]
    for s_idx in range(dim):
        state = states[s_idx]
        occ = occupied[s_idx]
        for slot in range(nu):
            i = int(state[slot])
            for p in range(indptr[i], indptr[i + 1]):
                j = int(indices[p])
                if j in occ:
                    continue
                new = state.copy()
                new[slot] = j
                new.sort()
                rows.append(index[tuple(new)])
                cols.append(s_idx)
                vals.append(-data[p])
    h = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    h = h + sp.diags(diag)
    return h.tocsr()


def _chain(n, model=None):
    table = build_lattice((n,))
    lens = potential_profile(ThickPolynomial((0.03,), ((n - 1) / 2.0,)), table)
    return table, build_couplings(table, model or NearestNeighbor(1.0),
                                  lens_diagonal=lens)


def _holes(n):
    table = punch_holes(build_lattice((n,)), [(3,), (7,)])
    return table, build_couplings(table, NearestNeighbor(1.0),
                                  lens_diagonal=np.linspace(0.0, 1.0, n))


def _square(n):
    table = build_lattice((n, n))
    return table, build_couplings(table, NearestNeighbor(1.0),
                                  lens_diagonal=0.1 * np.arange(float(n * n)))


def _paired_holes(n):
    """An n x n square with two holes that are each other's mirror image."""
    table = punch_holes(build_lattice((n, n)), [(1, 2), (n - 2, n - 3)])
    return table, build_couplings(table, NearestNeighbor(1.0),
                                  lens_diagonal=0.1 * np.arange(float(n * n)))


def _displaced(n):
    """A power-law chain whose scattered sites break the hopping's mirror."""
    table = displace_sites(build_lattice((n,)),
                           np.random.default_rng(7).normal(0.0, 0.02, (n, 1)))
    lens = potential_profile(ThickPolynomial((0.03,), ((n - 1) / 2.0,)), table)
    return table, build_couplings(table, PowerLaw(1.0, 3.0), lens_diagonal=lens)


ASSEMBLY_CASES = {
    "chain-nu1": (lambda: _chain(12), 1, {}),
    "chain-nu2": (lambda: _chain(12), 2, {}),
    "chain-nu3": (lambda: _chain(12), 3, {}),
    "powerlaw-nu2": (lambda: _chain(11, PowerLaw(1.0, 3.0)), 2, {}),
    "powerlaw-nu3": (lambda: _chain(11, PowerLaw(1.0, 3.0)), 3, {}),
    "holes-nu2": (lambda: _holes(12), 2, {}),
    "holes-nu3": (lambda: _holes(12), 3, {}),
    "square-nu2": (lambda: _square(4), 2, {}),
    "square-nu3": (lambda: _square(4), 3, {}),
    "literal-chain-nu2": (lambda: _chain(12), 2, {"literal_sigma_z": True}),
    "literal-chain-nu3": (lambda: _chain(12), 3, {"literal_sigma_z": True}),
    "literal-holes-nu2": (lambda: _holes(12), 2, {"literal_sigma_z": True}),
    "literal-square-nu2": (lambda: _square(4), 2, {"literal_sigma_z": True}),
    "paired-holes-square-nu3": (lambda: _paired_holes(5), 3, {}),
    "displaced-powerlaw-nu3": (lambda: _displaced(11), 3, {}),
}


class TestAssemblyMatchesPerStateLoop:
    @pytest.mark.parametrize("case", sorted(ASSEMBLY_CASES))
    def test_csr_arrays_bit_identical(self, case):
        make, nu, extra = ASSEMBLY_CASES[case]
        table, terms = make()
        basis = enumerate_basis(table, nu)
        kwargs = dict(jz=3.0, interaction_power=6.0, table=table, **extra)
        got = build_mb_hamiltonian(terms, basis, **kwargs).matrix
        ref = reference_assembly(terms, basis, **kwargs)
        assert got.nnz > basis.dim
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).dtype == getattr(ref, name).dtype
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name

    @pytest.mark.parametrize("case", sorted(ASSEMBLY_CASES))
    def test_mirror_asymmetry_is_the_oracles_skew(self, case):
        """Read off the diagonal when the hopping is exactly mirror-symmetric
        (paired holes), measured on the CSR when not (displaced sites): the
        float of ``_Mirror.skew`` on the oracle's CSR either way."""
        make, nu, extra = ASSEMBLY_CASES[case]
        table, terms = make()
        basis = enumerate_basis(table, nu)
        kwargs = dict(jz=3.0, interaction_power=6.0, table=table, **extra)
        mirror = build_mb_hamiltonian(terms, basis, **kwargs).mirror
        assert (mirror is None) == (table.active != table.active[::-1]).any()
        if mirror is None:
            return
        assert (terms._hopping_fold.mirror is None) == case.startswith("displaced")
        ref = reference_assembly(terms, basis, **kwargs)
        assert mirror.asymmetry == _Mirror.skew(ref, mirror.refl)

    def test_hop_onto_a_site_outside_the_basis_raises(self):
        # a basis without site 3 but couplings that still reach it
        holed = punch_holes(build_lattice((8,)), [(3,)])
        terms = build_couplings(build_lattice((8,)), NearestNeighbor(1.0))
        with pytest.raises(ValueError):
            build_mb_hamiltonian(terms, enumerate_basis(holed, 2), table=holed)


def antisymmetric_tensor(amps, states, n):
    """Fermionic amplitude tensor F with F[n_1, ..., n_nu] = A for ascending
    sites and the sign of the permutation otherwise."""
    nu = states.shape[1]
    f = np.zeros((n,) * nu, dtype=complex)
    for perm in itertools.permutations(range(nu)):
        inversions = sum(perm[i] > perm[j]
                         for i, j in itertools.combinations(range(nu), 2))
        f[tuple(states[:, perm].T)] = (-1) ** inversions * amps
    return f


class TestFreeFermionOracle:
    """At J_z = 0 a nearest-neighbour hop never passes another excitation,
    so hard-core excitations on ordered tuples are free fermions
    (Jordan-Wigner): F(t) = U^(x nu) F(0) with U = exp(-i H_1 t)."""

    N, T = 61, 6.0

    def check_against_product(self, nu, amps_of_basis, even, t=T, dense=False):
        table, terms = _chain(self.N)
        basis = enumerate_basis(table, nu)
        sector = build_mb_hamiltonian(terms, basis, jz=0.0, table=table)
        amps = amps_of_basis(table, basis)
        path = evolution_path(sector, amps, [t], 1e-12)
        assert path.even == even
        assert path.dense == dense
        out = evolve_mb(sector, ManyBodyState(amps), t, tol=1e-12).amplitudes

        w, v = np.linalg.eigh(terms.matrix().toarray())
        u = (v * np.exp(-1j * t * w)) @ v.conj().T
        f = antisymmetric_tensor(amps, basis.states, self.N)
        if nu == 2:
            f_t = u @ f @ u.T
        else:
            f_t = np.einsum("ia,jb,kc,abc->ijk", u, u, u, f, optimize=True)
        assert np.abs(out - f_t[tuple(basis.states.T)]).max() < 1e-9

    @pytest.mark.parametrize("nu", [2, 3])
    def test_sector_evolves_as_single_excitation_product(self, rng, nu):
        def random_amps(table, basis):
            amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
            return amps / np.linalg.norm(amps)
        self.check_against_product(nu, random_amps, even=False)

    @pytest.mark.parametrize("nu", [2, 3])
    def test_symmetric_state_on_the_even_path(self, nu):
        def product_amps(table, basis):
            psi = gaussian_packet(table, 6.0)
            return symmetric_initial_state(psi, nu, basis).amplitudes
        self.check_against_product(nu, product_amps, even=True)

    def test_symmetric_state_on_the_dense_path(self):
        # a span of phase ~3e4 on the 930 even rows of nu = 2
        def product_amps(table, basis):
            psi = gaussian_packet(table, 6.0)
            return symmetric_initial_state(psi, 2, basis).amplitudes
        self.check_against_product(2, product_amps, even=True, t=1000.0,
                                   dense=True)

    def test_short_span_stays_on_chebyshev_bit_for_bit(self):
        """At J_z = 0 and T = 6 (phase ~200) the decomposition would cost
        more than the expansion: the even path stays on Chebyshev. Its start
        is real, so it samples the span from one float64 recurrence, as raw
        ``real_window`` on the even operator lifted back."""
        table, terms = _chain(self.N)
        basis = enumerate_basis(table, 2)
        sector = build_mb_hamiltonian(terms, basis, jz=0.0, table=table)
        amps = symmetric_initial_state(gaussian_packet(table, 6.0), 2,
                                       basis).amplitudes
        assert not amps.imag.any()
        dt, n_steps, tol = self.T / 4, 4, 1e-10
        path = evolution_path(sector, amps, dt * np.arange(1, n_steps + 1), tol)
        m = sector.mirror
        assert path.even and not path.dense
        assert path.method == "chebyshev"
        got = list(mb_trajectory(sector, amps, dt, n_steps, tol=tol))
        phis = real_window(sector.even_matrix, amps[m.reps], dt, n_steps, tol=tol,
                           bounds=sector.bounds())
        t_ref = 0.0
        for (t, amp), phi in zip(got, phis, strict=True):
            t_ref = t_ref + dt
            assert t == t_ref
            assert np.array_equal(amp, phi[m.orbit])
        assert sector._eigens == {}


class TestSymmetricState:
    def test_uniform_input_gives_uniform_sector(self):
        basis = enumerate_basis(4, 2)
        state = symmetric_initial_state(np.full(4, 0.5 + 0.0j), 2, basis)
        assert np.allclose(np.abs(state.amplitudes), 1.0 / np.sqrt(6.0))

    def test_products_and_hard_core_norm_identity(self):
        table = build_lattice((31,))
        psi = gaussian_packet(table, 5.0)
        basis = enumerate_basis(31, 2)
        raw = np.prod(psi.amplitudes[basis.states], axis=1)
        p = np.abs(psi.amplitudes) ** 2
        # sum over i<j of p_i p_j = (1 - sum p^2)/2 for a normalized input
        assert np.isclose(np.linalg.norm(raw) ** 2,
                          (1.0 - (p * p).sum()) / 2.0, atol=1e-12)
        state = symmetric_initial_state(psi, 2, basis)
        assert np.isclose(np.linalg.norm(state.amplitudes), 1.0)
        assert np.allclose(state.amplitudes,
                           raw / np.linalg.norm(raw))

    def test_inherits_time_stamp(self):
        basis = enumerate_basis(5, 2)
        carrier = SpinWaveState(np.full(5, np.sqrt(0.2), dtype=complex), time=1.5)
        assert symmetric_initial_state(carrier, 2, basis).time_stamp == 1.5

    def test_too_few_occupied_sites_rejected(self):
        basis = enumerate_basis(5, 2)
        psi = np.zeros(5, dtype=complex)
        psi[2] = 1.0
        with pytest.raises(ValueError):
            symmetric_initial_state(psi, 2, basis)

    def test_nu_mismatch_rejected(self):
        basis = enumerate_basis(5, 2)
        with pytest.raises(ValueError):
            symmetric_initial_state(np.ones(5, dtype=complex), 3, basis)


class TestEvolution:
    def test_matches_dense_reference(self, rng):
        n = 10
        table = build_lattice((n,))
        terms = build_couplings(table, NearestNeighbor(1.0),
                                lens_diagonal=rng.normal(size=n))
        basis = enumerate_basis(n, 2)
        sector = build_mb_hamiltonian(terms, basis, jz=0.8)
        amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        state = ManyBodyState(amps / np.linalg.norm(amps))
        out = evolve_mb(sector, state, 3.0, tol=1e-12)
        ref = dense_evolution(sector.matrix, state.amplitudes, 3.0)
        assert np.linalg.norm(out.amplitudes - ref) < 1e-9
        assert out.time_stamp == 3.0

    def test_norm_total_density_and_energy_conserved(self):
        table = build_lattice((21,))
        lens = potential_profile(ThickPolynomial((0.01,), (10.0,)), table)
        terms = build_couplings(table, NearestNeighbor(1.0), lens_diagonal=lens)
        basis = enumerate_basis(21, 2)
        sector = build_mb_hamiltonian(terms, basis, jz=10.0)
        state = symmetric_initial_state(gaussian_packet(table, 4.0), 2, basis)
        e0 = np.vdot(state.amplitudes, sector.matrix @ state.amplitudes).real
        out = evolve_mb(sector, state, 7.0)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10
        assert abs(density_profile(out, basis).sum() - 2.0) < 1e-10
        e1 = np.vdot(out.amplitudes, sector.matrix @ out.amplitudes).real
        assert abs(e1 - e0) < 1e-9 * max(abs(e0), 1.0)

    def test_distant_pair_factorizes(self):
        # before the light cones meet, the pair density is just the sum of
        # two independent single-excitation evolutions
        n = 71
        table = build_lattice((n,))
        terms = build_couplings(table, NearestNeighbor(1.0))
        basis = enumerate_basis(n, 2)
        sector = build_mb_hamiltonian(terms, basis, jz=0.0)
        amps = np.zeros(basis.dim, dtype=complex)
        amps[basis.rank((15, 55))] = 1.0
        out = evolve_mb(sector, ManyBodyState(amps), 3.0, tol=1e-12)
        dens = density_profile(out, basis)
        single = terms.matrix()
        refs = []
        for site in (15, 55):
            d = np.zeros(n, dtype=complex)
            d[site] = 1.0
            refs.append(np.abs(expimv(single, d, 3.0, tol=1e-12)) ** 2)
        assert np.abs(dens - refs[0] - refs[1]).max() < 1e-9

    def test_symmetric_lens_keeps_density_symmetric(self):
        table = build_lattice((21,))
        lens = potential_profile(ThickPolynomial((0.02,), (10.0,)), table)
        terms = build_couplings(table, NearestNeighbor(1.0), lens_diagonal=lens)
        basis = enumerate_basis(21, 2)
        sector = build_mb_hamiltonian(terms, basis, jz=50.0)
        state = symmetric_initial_state(gaussian_packet(table, 4.0), 2, basis)
        dens = density_profile(evolve_mb(sector, state, 5.0), basis)
        assert np.abs(dens - dens[::-1]).max() < 1e-9

    def test_blockade_obstructs_focusing(self):
        n, sigma0 = 41, 7.0
        table = build_lattice((n,))
        v0 = sigma0 ** (-8.0 / 3.0)
        lens = potential_profile(ThickPolynomial((v0,), (20.0,)), table)
        terms = build_couplings(table, NearestNeighbor(1.0), lens_diagonal=lens)
        basis = enumerate_basis(n, 2)
        state = symmetric_initial_state(gaussian_packet(table, sigma0), 2, basis)
        t_focus = np.pi / (4.0 * np.sqrt(v0))
        x = np.arange(float(n))

        def final_width(jz):
            sector = build_mb_hamiltonian(terms, basis, jz=jz)
            dens = density_profile(evolve_mb(sector, state, t_focus), basis)
            c = (dens * x).sum() / dens.sum()
            return np.sqrt(2.0 * (dens * (x - c) ** 2).sum() / dens.sum())

        assert final_width(5e3) > 1.3 * final_width(0.0)


class TestObservables:
    def test_pair_distances_of_pure_configuration(self):
        basis = enumerate_basis(8, 2)
        amps = np.zeros(basis.dim, dtype=complex)
        amps[basis.rank((2, 5))] = 1.0
        d, w = pair_distance_distribution(ManyBodyState(amps), basis)
        assert w.sum() == pytest.approx(1.0)
        assert d[w.argmax()] == 3.0
        assert w.max() == pytest.approx(1.0)

    def test_pair_weights_count_pairs(self):
        basis = enumerate_basis(7, 3)
        amps = np.ones(basis.dim, dtype=complex) / np.sqrt(basis.dim)
        _, w = pair_distance_distribution(ManyBodyState(amps), basis)
        assert np.isclose(w.sum(), 3.0)

    def test_pair_distances_use_table_positions(self):
        from spinlens.lattice import displace_sites
        table = build_lattice((6,))
        d = np.zeros((6, 1))
        d[5, 0] = 0.5
        table = displace_sites(table, d)
        basis = enumerate_basis(6, 2)
        amps = np.zeros(basis.dim, dtype=complex)
        amps[basis.rank((0, 5))] = 1.0
        dist, w = pair_distance_distribution(ManyBodyState(amps), basis,
                                             table=table)
        assert dist[w.argmax()] == 5.5

    def test_single_excitation_distribution_rejected(self):
        basis = enumerate_basis(5, 1)
        with pytest.raises(ValueError):
            pair_distance_distribution(np.ones(5), basis)

    def test_blockade_radius(self):
        assert np.isclose(blockade_radius(64.0), 2.0)
        assert np.isclose(blockade_radius(5e3), 5e3 ** (1.0 / 6.0))
        assert np.isclose(blockade_radius(5e3, hopping=2.0),
                          2.5e3 ** (1.0 / 6.0))


def _density_per_column(p, basis):
    """Per-site density by one ``np.add.at`` per column of the rows."""
    out = np.zeros(basis.n_sites)
    for col in range(basis.nu):
        np.add.at(out, basis.states[:, col], p)
    return out


def _pair_distances_per_row(p, basis, pos):
    """Every row's pair distances, a norm per row and pair of slots,
    sorted by ``np.unique`` and added by one ``np.add.at``."""
    pairs = list(itertools.combinations(range(basis.nu), 2))
    d = np.round(np.concatenate(
        [np.linalg.norm(pos[basis.states[:, i]] - pos[basis.states[:, j]], axis=1)
         for i, j in pairs]), 9)
    uniq, inv = np.unique(d, return_inverse=True)
    agg = np.zeros(len(uniq))
    np.add.at(agg, inv, np.tile(p, len(pairs)))
    return uniq, agg


def _refl_by_rank(basis):
    """The mirror's rows ranked with ``rank``'s checks, None where an
    image is not a row."""
    try:
        return basis.rank((basis.n_sites - 1 - basis.states)[:, ::-1])
    except ValueError:
        return None


PAIR_TABLE_CASES = {
    "chain-hole": lambda: punch_holes(build_lattice((13,)), [(4,)]),
    "chain-centre-hole": lambda: punch_holes(build_lattice((13,)), [(6,)]),
    "square-paired-holes": lambda: punch_holes(build_lattice((5, 4)), [(1, 1), (3, 2)]),
    "square-holes": lambda: punch_holes(build_lattice((4, 4)), [(0, 1), (2, 2)]),
}


@pytest.mark.parametrize("nu", [2, 3])
@pytest.mark.parametrize("case", sorted(PAIR_TABLE_CASES))
def test_site_pair_tables_add_as_the_per_row_formulas(case, nu):
    """The sector diagonal (``literal_sigma_z`` off and on), the densities,
    the pair distances, the mirror and the symmetric start state, read from
    site-pair tables and column by column, against the per-row formulas
    they replaced, bit for bit: a changed order of additions or products
    fails here. The squares have holes and distances of sqrt(2), sqrt(5),
    ...; one chain and one square are mirror-symmetric."""
    table = PAIR_TABLE_CASES[case]()
    rng = np.random.default_rng(nu)
    terms = build_couplings(table, PowerLaw(1.0, 3.0),
                            lens_diagonal=rng.normal(size=table.n_sites))
    basis = enumerate_basis(table, nu)
    for literal in (False, True):
        kwargs = dict(jz=3.0, interaction_power=6.0, table=table, literal_sigma_z=literal)
        sector = build_mb_hamiltonian(terms, basis, **kwargs)
        assert np.array_equal(sector.matrix.diagonal(), reference_diagonal(terms, basis, **kwargs))

    refl = _refl_by_rank(basis)
    assert (refl is None) == (case in ("chain-hole", "square-holes"))
    mirror = sector.mirror
    assert (mirror is None) == (refl is None)
    assert mirror is None or np.array_equal(mirror.refl, refl)

    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    amps[::7] = 0.0
    p = np.abs(amps) ** 2
    for got in (density_profile(amps, basis), density_profile(p, basis, squared=True)):
        assert np.array_equal(got, _density_per_column(p, basis))
    for where, pos in ((table, table.positions),
                       (None, np.arange(table.n_sites, dtype=float)[:, None])):
        want = _pair_distances_per_row(p, basis, pos)
        for got in (pair_distance_distribution(amps, basis, where),
                    pair_distance_distribution(p, basis, where, squared=True)):
            assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))

    psi = rng.normal(size=table.n_sites) + 1j * rng.normal(size=table.n_sites)
    psi[~table.active] = 0.0
    prod = np.prod(psi[basis.states], axis=1)
    assert np.array_equal(symmetric_initial_state(psi, nu, basis).amplitudes,
                          prod / np.linalg.norm(prod))


def _centred(extents, nu, jz=30.0, focus_shift=0.0, holes=(), literal=False):
    """Sector and symmetric product state of a lens and packet centred on
    the lattice, optionally shifted by ``focus_shift`` sites or holed."""
    table = build_lattice(extents)
    if holes:
        table = punch_holes(table, holes)
    focus = table.center() + focus_shift
    lens = potential_profile(ThickPolynomial((0.01,), tuple(focus)), table)
    terms = build_couplings(table, NearestNeighbor(1.0), lens_diagonal=lens)
    basis = enumerate_basis(table, nu)
    sector = build_mb_hamiltonian(terms, basis, jz=jz, table=table,
                                  literal_sigma_z=literal)
    psi = gaussian_packet(table, 2.5, center=focus)
    return sector, symmetric_initial_state(psi, nu, basis)


def _full_sector_steps(sector, amps, dt, n_steps, tol):
    return list(trajectory(sector.matrix, amps, dt, n_steps, tol=tol,
                           bounds=sector.bounds()))


class TestMirrorReduction:
    EVEN_CASES = {
        "chain-nu2": ((21,), 2, {}),
        "chain-nu3": ((17,), 3, {}),
        "literal-chain-nu2": ((21,), 2, {"literal": True}),
        "literal-chain-nu3": ((17,), 3, {"literal": True}),
        "square-nu2": ((7, 7), 2, {}),
        "square-nu3": ((5, 5), 3, {}),
    }

    @pytest.mark.parametrize("case", sorted(EVEN_CASES))
    def test_even_path_matches_full_sector(self, case):
        extents, nu, kw = self.EVEN_CASES[case]
        sector, state = _centred(extents, nu, **kw)
        dt, n_steps, tol = 0.9, 4, 1e-12
        path = evolution_path(sector, state.amplitudes, dt * np.arange(1, n_steps + 1), tol)
        assert path.even
        assert sector.basis.dim / 2 <= path.dim < sector.basis.dim
        got = list(mb_trajectory(sector, state.amplitudes, dt, n_steps, tol=tol))
        ref = _full_sector_steps(sector, state.amplitudes, dt, n_steps, tol)
        for (t, amp), (t_ref, amp_ref) in zip(got, ref, strict=True):
            assert t == t_ref
            assert np.abs(amp - amp_ref).max() <= 1e-9

    def test_even_path_matches_dense_expm(self):
        sector, state = _centred((12,), 2, jz=8.0)
        t = 7.3
        assert evolution_path(sector, state.amplitudes, [t], 1e-12).even
        out = evolve_mb(sector, state, t, tol=1e-12).amplitudes
        ref = scipy.linalg.expm(-1j * t * sector.matrix.toarray()) @ state.amplitudes
        assert np.abs(out - ref).max() <= 1e-9

    def test_mirror_maps_rows_and_orbits(self):
        sector, _ = _centred((9,), 3)
        m, states = sector.mirror, sector.basis.states
        assert np.array_equal(np.sort(8 - states[m.refl], axis=1), states)
        assert np.array_equal(m.refl[m.refl], np.arange(sector.basis.dim))
        assert np.array_equal(m.orbit[m.reps], np.arange(m.dim))
        assert np.array_equal(m.orbit, m.orbit[m.refl])
        assert m.asymmetry == 0.0

    @pytest.mark.parametrize("extents", [(20,), (21,), (6, 5)])
    def test_nu1_sector_mirror_is_the_lens_operators(self, extents):
        """A single-excitation lens H is the nu = 1 sector: the one mirror
        reduction gives both the same orbits and weights, and the lens
        operators' dense fold is the sector's symmetric even operator, bit
        for bit."""
        table = build_lattice(extents)
        design = ThickPolynomial((0.01,), tuple(table.center()))
        terms = build_couplings(table, PowerLaw(1.0, 6.0),
                                lens_diagonal=potential_profile(design, table))
        sector = build_mb_hamiltonian(terms, enumerate_basis(table, 1), table=table)
        lens_mirror, sector_mirror = terms.mirror, sector.mirror
        for name in ("refl", "reps", "orbit", "weights"):
            assert np.array_equal(getattr(lens_mirror, name), getattr(sector_mirror, name))
        assert lens_mirror.asymmetry == sector_mirror.asymmetry == 0.0
        assert np.array_equal(terms._even_operator(), sector._even_operator().toarray())
        assert np.array_equal(lens_mirror.fold(terms.matrix().toarray()),
                              sector._even_operator().toarray())

    @pytest.mark.parametrize("kind", ["off-centre", "hole", "random"])
    def test_asymmetric_input_takes_the_full_path_bit_for_bit(self, rng, kind):
        """A state the gate refuses runs on the full sector: here, at 210
        rows, from its decomposition, every sample bit for bit the exact
        state from the start; forced onto Chebyshev, bit for bit the raw
        trajectory."""
        if kind == "off-centre":
            sector, state = _centred((21,), 2, focus_shift=1.0)
            amps = state.amplitudes
            assert sector.mirror is not None
        elif kind == "hole":
            sector, state = _centred((21,), 2, holes=[(4,)])
            amps = state.amplitudes
            assert sector.mirror is None
        else:
            sector, _ = _centred((21,), 2)
            amps = rng.normal(size=sector.basis.dim) + 0j
            amps /= np.linalg.norm(amps)
        dt, n_steps, tol = 0.9, 3, 1e-10
        times = dt * np.arange(1, n_steps + 1)
        path = evolution_path(sector, amps, times, tol)
        assert not path.even and path.dense
        exact = EigenPropagator(sector.matrix).states(amps, times)
        got = list(mb_trajectory(sector, amps, dt, n_steps, tol=tol))
        ref = _full_sector_steps(sector, amps, dt, n_steps, tol)
        for (t, amp), want, (t_ref, _) in zip(got, exact, ref, strict=True):
            assert t == t_ref
            assert np.array_equal(amp, want)
        one = evolve_mb(sector, ManyBodyState(amps), dt, tol=tol).amplitudes
        assert np.array_equal(one, EigenPropagator(sector.matrix).states(amps, [dt])[0])
        stepped = EvolutionPath(sector, amps, times, tol, even=False, dense=False)
        for amp, (_, amp_ref) in zip(stepped.states(), ref, strict=True):
            assert np.array_equal(amp, amp_ref)

    def test_gate_adds_state_and_operator_asymmetry(self):
        sector, state = _centred((17,), 3)
        amps = state.amplitudes.copy()
        amps[0] += 1e-9
        assert evolution_path(sector, amps, [1.0], 1e-8).even
        assert not evolution_path(sector, amps, [1.0], 1e-10).even
        # a 1e-9 diagonal skew on one row counts |t| times
        kick = sp.diags(np.eye(1, sector.basis.dim).ravel() * 1e-9)
        skewed = ManyBodySector(sector.basis, (sector.matrix + kick).tocsr())
        assert skewed.mirror.asymmetry == pytest.approx(1e-9)
        assert evolution_path(skewed, state.amplitudes, [1.0], 1e-8).even
        assert not evolution_path(skewed, state.amplitudes, [100.0], 1e-8).even

    def test_state_length_checked(self):
        sector, state = _centred((11,), 2)
        with pytest.raises(ValueError):
            evolution_path(sector, state.amplitudes[:-1], [1.0], 1e-10)


class TestRealStartWindow:
    """A real start on the even Chebyshev path samples its whole span from
    one float64 recurrence (``propagator.real_window``); a complex start
    steps by ``trajectory``."""

    @pytest.mark.parametrize("extents, nu", [((41,), 2), ((17,), 3)], ids=["nu2", "nu3"])
    def test_every_sample_matches_the_dense_full_sector(self, extents, nu):
        """The nu = 2 even sector (420 rows) takes the window by the rule;
        the nu = 3 one (344 rows) would be decomposed, so its window is
        forced."""
        sector, state = _centred(extents, nu, jz=30.0)
        amps, dt, n_steps, tol = state.amplitudes, 0.5, 8, 1e-10
        assert not amps.imag.any()
        times = dt * np.arange(1, n_steps + 1)
        path = evolution_path(sector, amps, times, tol)
        assert path.even and path.dense == (nu == 3)
        window = EvolutionPath(sector, amps, times, tol, even=True, dense=False)
        (block,) = window.samples()
        assert block.shape == (n_steps, sector.basis.dim)
        for t, amp in zip(times, block, strict=True):
            ref = dense_evolution(sector.matrix, amps, t)
            assert np.linalg.norm(amp - ref) <= 10 * tol
        if nu == 2:
            got = list(mb_trajectory(sector, amps, dt, n_steps, tol=tol))
            assert np.array_equal(np.array([amp for _, amp in got]), block)

    def test_zero_step_and_no_step(self):
        sector, state = _centred((41,), 2, jz=30.0)
        assert evolution_path(sector, state.amplitudes, [0.0], 1e-10).even
        out = evolve_mb(sector, state, 0.0, tol=1e-10)
        assert out.amplitudes.dtype == np.complex128
        assert np.array_equal(out.amplitudes, state.amplitudes)
        assert list(mb_trajectory(sector, state.amplitudes, 0.5, 0)) == []

    def test_span_over_the_window_budget_steps_bit_for_bit(self):
        """A real window holds every sample and its tables at once, so a
        span that does not fit ``propagator._REAL_WINDOW_BYTES`` steps by
        ``trajectory`` from the real start, as a complex start does."""
        sector, state = _centred((41,), 2, jz=30.0)
        amps, dt, n_steps, tol = state.amplitudes, 0.5, 40, 1e-10
        path = evolution_path(sector, amps, dt * np.arange(1, n_steps + 1), tol)
        m, h, bounds = sector.mirror, sector.even_matrix, sector.bounds()
        assert path.even and not path.dense
        assert _real_window_fits(h, bounds, dt, 8)
        assert not _real_window_fits(h, bounds, dt, n_steps)
        got = list(mb_trajectory(sector, amps, dt, n_steps, tol=tol))
        ref = list(trajectory(h, amps[m.reps], dt, n_steps, tol=tol, bounds=bounds))
        for (t, amp), (t_ref, phi) in zip(got, ref, strict=True):
            assert t == t_ref
            assert np.array_equal(amp, phi[m.orbit])

    def test_complex_start_steps_bit_for_bit(self):
        sector, state = _centred((41,), 2, jz=30.0)
        x = np.arange(41) - 20.0
        chirp = np.exp(0.05j * x**2)[sector.basis.states].prod(axis=1)
        amps = state.amplitudes * chirp
        dt, n_steps, tol = 0.5, 4, 1e-10
        path = evolution_path(sector, amps, dt * np.arange(1, n_steps + 1), tol)
        m = sector.mirror
        assert path.even and not path.dense and amps[m.reps].imag.any()
        got = list(mb_trajectory(sector, amps, dt, n_steps, tol=tol))
        ref = list(trajectory(sector.even_matrix, amps[m.reps], dt, n_steps, tol=tol,
                              bounds=sector.bounds()))
        for (t, amp), (t_ref, phi) in zip(got, ref, strict=True):
            assert t == t_ref
            assert np.array_equal(amp, phi[m.orbit])


class TestDenseEvenPath:
    """Small even subspaces over long spans evolve from one dense
    eigendecomposition of W M W^-1."""

    def test_matches_dense_full_sector_at_every_step(self):
        sector, state = _centred((41,), 2, jz=1500.0)
        amps, dt, n_steps, tol = state.amplitudes, 0.5, 6, 1e-10
        path = evolution_path(sector, amps, dt * np.arange(1, n_steps + 1), tol)
        assert path.dense and path.method == "dense"
        assert path.dim == sector.mirror.dim < sector.basis.dim
        got = list(mb_trajectory(sector, amps, dt, n_steps, tol=tol))
        assert len(got) == n_steps
        t_ref = 0.0
        for t, amp in got:
            t_ref = t_ref + dt
            assert t == t_ref
            ref = dense_evolution(sector.matrix, amps, t)
            assert np.abs(amp - ref).max() <= 1e-10

    def test_every_sample_from_one_projection(self, monkeypatch):
        """A dense trajectory takes all its samples from one call on the
        start state, each within 1e-10 of the full sector's exact state at
        its time (420 rows: the Householder path)."""
        sector, state = _centred((41,), 2, jz=1500.0)
        amps, dt, n_steps, tol = state.amplitudes, 0.5, 10, 1e-10
        assert evolution_path(sector, amps, dt * np.arange(1, n_steps + 1), tol).dense
        eigen, calls = sector.eigen(even=True), []
        states = eigen.states
        monkeypatch.setattr(eigen, "states",
                            lambda psi, times: calls.append(len(times)) or states(psi, times))
        got = list(mb_trajectory(sector, amps, dt, n_steps, tol=tol))
        assert calls == [n_steps] and len(got) == n_steps
        t_ref = 0.0
        for t, amp in got:
            t_ref = t_ref + dt
            assert t == t_ref
            assert np.abs(amp - dense_evolution(sector.matrix, amps, t)).max() <= 1e-10

    def test_span_goes_dense_where_its_steps_alone_do_not(self):
        """The rule reads each call's own span: at J_z = 1500 six steps go
        dense while one step alone stays on Chebyshev, even with the
        decomposition cached, so repeated evolve_mb agrees with the
        trajectory to the propagator's accuracy, not bit for bit. Each step
        is bit for bit its raw Chebyshev call on the even operator: a
        one-sample float64 window from the real start, then steps."""
        sector, state = _centred((41,), 2, jz=1500.0)
        amps, dt, n_steps, tol = state.amplitudes, 0.25, 6, 1e-10
        assert evolution_path(sector, amps, dt * np.arange(1, n_steps + 1), tol).dense
        got = list(mb_trajectory(sector, amps, dt, n_steps, tol=tol))
        assert True in sector._eigens
        m, h, step = sector.mirror, sector.even_matrix, ManyBodyState(amps)
        for k, (t, amp) in enumerate(got):
            path = evolution_path(sector, step.amplitudes, [dt], tol)
            assert path.even and not path.dense
            phi = step.amplitudes[m.reps]
            assert phi.imag.any() == (k > 0)
            if k == 0:
                (phi,) = real_window(h, phi, dt, 1, tol=tol, bounds=sector.bounds())
            else:
                (_, phi), = trajectory(h, phi, dt, 1, tol=tol, bounds=sector.bounds())
            step = evolve_mb(sector, step, dt, tol=tol)
            assert step.time_stamp == t
            assert np.array_equal(step.amplitudes, phi[m.orbit])
            assert np.abs(step.amplitudes - amp).max() <= 10 * tol

    @pytest.mark.parametrize("extents, nu", [((21,), 2), ((13,), 3), ((6, 6), 2)])
    def test_symmetric_operator_holds_the_even_spectrum(self, extents, nu):
        """S = W M W^-1 is symmetric to rounding, and its eigenvalues are
        the sector's even ones: a subset of H's, one per orbit."""
        sector, _ = _centred(extents, nu, jz=40.0)
        m = sector.mirror
        s = sector._even_operator()
        assert abs(s - s.T).max() <= 1e-14 * abs(s).max()
        sizes = np.bincount(m.orbit)
        assert np.array_equal(m.weights, np.sqrt(sizes))
        even = np.linalg.eigvalsh(s.toarray())
        full = np.linalg.eigvalsh(sector.matrix.toarray())
        gap = np.abs(even[:, None] - full[None, :]).min(axis=1)
        assert gap.max() <= 1e-10 * np.abs(full).max()
        assert sector.eigen(even=True) is sector.eigen(even=True)
        assert np.array_equal(sector.eigen(even=True).energies,
                              EigenPropagator(s).energies)

    def test_mirror_matrix_is_rejected_as_not_symmetric(self):
        """M's pair-orbit entries are sqrt(2) off symmetric: decomposing M
        itself would give wrong states, so it fails loudly."""
        sector, _ = _centred((21,), 2)
        with pytest.raises(ValueError, match="symmetric"):
            EigenPropagator(sector.even_matrix)

    def test_sector_without_mirror_has_no_decomposition(self):
        sector, _ = _centred((21,), 2, holes=[(4,)])
        with pytest.raises(ValueError, match="mirror"):
            sector.eigen(even=True)


class TestEvenPathAtUlpAsymmetry:
    """Assembly and symmetric_initial_state are mirror-symmetric only to an
    ulp, so an exact-equality gate would skip these sectors; the tolerance
    gate must still take the even path."""

    def test_centred_nu3_sector(self):
        sector, state = _centred((61,), 3, jz=5.0e3)
        amps = state.amplitudes
        m = sector.mirror
        assert not (m.asymmetry == 0.0 and np.array_equal(amps, amps[m.refl]))
        assert evolution_path(sector, amps, [10.7], 1e-8).even

    def test_shipped_blockade_config(self, tmp_path):
        path = CONFIGS / "nonlinear_blockade.yaml"
        cfg = prepare_config(yaml.safe_load(path.read_text(encoding="utf-8")))
        derived, _ = run_scenario(cfg, tmp_path)
        assert derived["evolved_dim"] < derived["basis_dim"]
        assert derived["evolution"] == "dense"
