import itertools
from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp

from spinlens.lattice import (NearestNeighbor, PowerLaw, build_couplings,
                              build_lattice, punch_holes)
from spinlens.lens import ThickPolynomial, potential_profile
from spinlens.manybody import (ManyBodyState, blockade_radius,
                               build_mb_hamiltonian, density_profile,
                               enumerate_basis, evolve_mb,
                               pair_distance_distribution,
                               symmetric_initial_state)
from spinlens.propagator import expimv
from spinlens.wavepacket import SpinWaveState, gaussian_packet

from conftest import dense_evolution


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

    @pytest.mark.parametrize("config", [(0, 8), (1, -4), (2, 3), (4, 2), (1, 1)])
    def test_rank_rejects_configurations_outside_the_basis(self, config):
        # out of range above and below (their keys alias the rows (1, 2) and
        # (0, 2)), a hole, unsorted, repeated
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
        sector = build_mb_hamiltonian(terms, basis, jz=1.0, cutoff_range=20.0)
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


def reference_assembly(terms, basis, jz=0.0, interaction_power=6.0,
                       table=None, literal_sigma_z=False, cutoff_range=20.0):
    """Per-state loop assembly with a dict of tuples: the former
    ``build_mb_hamiltonian``, kept as the bit-identity oracle."""
    index = {tuple(s): i for i, s in enumerate(basis.states)}
    hop = terms.hopping.tocsr()
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

    @pytest.mark.parametrize("nu", [2, 3])
    def test_sector_evolves_as_single_excitation_product(self, rng, nu):
        n, t = 61, 6.0
        table, terms = _chain(n)
        basis = enumerate_basis(table, nu)
        sector = build_mb_hamiltonian(terms, basis, jz=0.0, table=table)
        amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        amps /= np.linalg.norm(amps)
        out = evolve_mb(sector, ManyBodyState(amps), t, tol=1e-12).amplitudes

        w, v = np.linalg.eigh(terms.matrix().toarray())
        u = (v * np.exp(-1j * t * w)) @ v.conj().T
        f = antisymmetric_tensor(amps, basis.states, n)
        if nu == 2:
            f_t = u @ f @ u.T
        else:
            f_t = np.einsum("ia,jb,kc,abc->ijk", u, u, u, f, optimize=True)
        assert np.abs(out - f_t[tuple(basis.states.T)]).max() < 1e-9


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
