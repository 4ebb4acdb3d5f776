import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlens.lattice import NearestNeighbor, build_couplings, build_lattice
from spinlens.lens import ThickPolynomial, potential_profile
from spinlens.manybody import (build_mb_hamiltonian, enumerate_basis, even_path,
                               evolve_mb, mb_trajectory, symmetric_initial_state)
from spinlens.propagator import (_MAX_PHASE_PER_STEP, TOL_RANGE, expimv,
                                 spectral_bounds, trajectory)
from spinlens.wavepacket import evolve, gaussian_packet

from conftest import dense_evolution, random_hermitian


def normalized(rng, n):
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


class TestExpimv:
    @pytest.mark.parametrize("t", [0.37, 2.9, -4.2, 11.0])
    def test_matches_dense(self, rng, t):
        h = random_hermitian(24, rng)
        psi = normalized(rng, 24)
        got = expimv(h, psi, t, tol=1e-12)
        assert np.linalg.norm(got - dense_evolution(h, psi, t)) < 1e-9

    def test_zero_time_is_a_copy(self, rng):
        h = random_hermitian(8, rng)
        psi = normalized(rng, 8)
        out = expimv(h, psi, 0.0)
        assert np.array_equal(out, psi)
        out[0] = 99.0
        assert psi[0] != 99.0

    def test_tol_range_enforced(self, rng):
        h = random_hermitian(6, rng)
        psi = normalized(rng, 6)
        for bad in (TOL_RANGE[0] / 10, TOL_RANGE[1] * 10, 0.0):
            with pytest.raises(ValueError):
                expimv(h, psi, 1.0, tol=bad)

    def test_state_length_checked(self, rng):
        h = random_hermitian(6, rng)
        with pytest.raises(ValueError):
            expimv(h, np.ones(5, dtype=complex), 1.0)

    def test_precomputed_bounds_give_same_result(self, rng):
        h = random_hermitian(20, rng)
        psi = normalized(rng, 20)
        auto = expimv(h, psi, 1.7, tol=1e-12)
        manual = expimv(h, psi, 1.7, tol=1e-12, bounds=spectral_bounds(h))
        assert np.array_equal(auto, manual)

    def test_long_evolution_splits_steps(self, rng):
        # spectral half-width ~2 forces phase 8e4 > the per-step cap
        h = sp.diags([np.ones(39), np.ones(39)], [-1, 1]).tocsr()
        psi = normalized(rng, 40)
        t = 4.0e4
        got = expimv(h, psi, t, tol=1e-12)
        assert np.linalg.norm(got - dense_evolution(h, psi, t)) < 1e-8

    def test_linearity(self, rng):
        h = random_hermitian(15, rng)
        p1, p2 = normalized(rng, 15), normalized(rng, 15)
        a, b = 0.3 - 1.1j, 0.77 + 0.2j
        lhs = expimv(h, a * p1 + b * p2, 2.2, tol=1e-12)
        rhs = a * expimv(h, p1, 2.2, tol=1e-12) + b * expimv(h, p2, 2.2, tol=1e-12)
        assert np.linalg.norm(lhs - rhs) < 1e-10

    def test_back_and_forth_returns_start(self, rng):
        h = random_hermitian(18, rng)
        psi = normalized(rng, 18)
        back = expimv(h, expimv(h, psi, 3.3, tol=1e-12), -3.3, tol=1e-12)
        assert np.linalg.norm(back - psi) < 1e-9

    def test_diagonal_hamiltonian_exact_phases(self):
        d = np.array([-2.0, 0.0, 1.5, 4.0])
        h = sp.diags(d).tocsr()
        psi = np.full(4, 0.5, dtype=complex)
        got = expimv(h, psi, 0.9, tol=1e-13)
        assert np.allclose(got, 0.5 * np.exp(-1j * 0.9 * d), atol=1e-12)

    def test_single_site_corner_case(self):
        h = sp.csr_matrix((1, 1))
        psi = np.array([1.0 + 0.0j])
        assert np.allclose(expimv(h, psi, 5.0), psi)


class TestTrajectory:
    @pytest.fixture
    def lens_terms(self):
        table = build_lattice((41,))
        design = ThickPolynomial((4.0 ** (-8.0 / 3.0),), (20.0,))
        terms = build_couplings(table, NearestNeighbor(1.0))
        return table, terms.with_diagonal(potential_profile(design, table))

    def test_matches_repeated_evolve(self, lens_terms):
        table, terms = lens_terms
        state = gaussian_packet(table, 4.0)
        state.time = 0.3
        dt, tol = 0.7, 1e-10
        steps = list(trajectory(terms.matrix(), state.amplitudes, dt, 5, tol=tol,
                                bounds=terms.bounds(), t0=state.time))
        assert len(steps) == 5
        for t, amp in steps:
            state = evolve(terms, state, dt, tol=tol)
            assert t == state.time
            assert np.array_equal(amp, state.amplitudes)

    @staticmethod
    def repeated_evolve_mb(sector, state, dt, tol, steps):
        for t, amp in steps:
            state = evolve_mb(sector, state, dt, tol=tol)
            assert t == state.time_stamp
            assert np.array_equal(amp, state.amplitudes)

    def test_matches_repeated_evolve_mb(self, lens_terms):
        # centred lens and packet: both run in the even subspace
        table, terms = lens_terms
        basis = enumerate_basis(table, 2)
        sector = build_mb_hamiltonian(terms, basis, jz=20.0, table=table)
        state = symmetric_initial_state(gaussian_packet(table, 4.0), 2, basis)
        state.time_stamp = 0.1
        dt, tol = 0.45, 1e-9
        assert even_path(sector, state.amplitudes, 4 * dt, tol) is not None
        steps = list(mb_trajectory(sector, state.amplitudes, dt, 4, tol=tol,
                                   t0=state.time_stamp))
        assert len(steps) == 4
        self.repeated_evolve_mb(sector, state, dt, tol, steps)

    def test_off_centre_evolve_mb_matches_raw_trajectory(self, lens_terms):
        table, terms = lens_terms
        basis = enumerate_basis(table, 2)
        sector = build_mb_hamiltonian(terms, basis, jz=20.0, table=table)
        state = symmetric_initial_state(
            gaussian_packet(table, 4.0, center=(17.0,)), 2, basis)
        state.time_stamp = 0.1
        dt, tol = 0.45, 1e-9
        assert even_path(sector, state.amplitudes, dt, tol) is None
        steps = list(trajectory(sector.matrix, state.amplitudes, dt, 4, tol=tol,
                                bounds=sector.bounds(), t0=state.time_stamp))
        assert len(steps) == 4
        self.repeated_evolve_mb(sector, state, dt, tol, steps)

    def test_default_bounds_match_given_bounds(self, rng):
        h = random_hermitian(12, rng)
        psi = normalized(rng, 12)
        auto = [amp for _, amp in trajectory(h, psi, 0.4, 3)]
        manual = [amp for _, amp in trajectory(h, psi, 0.4, 3,
                                               bounds=spectral_bounds(h))]
        assert all(np.array_equal(a, b) for a, b in zip(auto, manual))

    def test_split_steps_match_expimv_and_dense_oracle(self):
        # nearest-neighbour Ising energy 4*J_z = 6000 J makes half*dt exceed
        # the per-step phase cap, so one step holds several sub-steps
        table = build_lattice((12,))
        terms = build_couplings(table, NearestNeighbor(1.0))
        basis = enumerate_basis(table, 2)
        sector = build_mb_hamiltonian(terms, basis, jz=1500.0, table=table)
        h, bounds = sector.matrix, sector.bounds()
        psi = symmetric_initial_state(gaussian_packet(table, 2.0), 2, basis).amplitudes
        dt, tol, n_steps = 25.0, 1e-10, 4
        assert 0.5 * (bounds[1] - bounds[0]) * dt > 2 * _MAX_PHASE_PER_STEP

        u = scipy.linalg.expm(-1j * dt * h.toarray())
        single, dense = psi, psi
        steps = list(trajectory(h, psi, dt, n_steps, tol=tol, bounds=bounds))
        assert len(steps) == n_steps
        for _, amp in steps:
            norm_before = np.linalg.norm(single)
            single = expimv(h, single, dt, tol=tol, bounds=bounds)
            dense = u @ dense
            assert np.array_equal(amp, single)
            assert abs(np.linalg.norm(amp) - norm_before) < 10 * tol
            assert np.linalg.norm(amp - dense) < 1e-8

    def test_caller_arrays_are_not_modified(self, lens_terms):
        table, terms = lens_terms
        h = terms.matrix()
        data, indices, indptr = h.data.copy(), h.indices.copy(), h.indptr.copy()
        psi = gaussian_packet(table, 4.0).amplitudes
        psi_before = psi.copy()
        expimv(h, psi, 0.8, tol=1e-10)
        for _ in trajectory(h, psi, 0.8, 3, tol=1e-10):
            pass
        assert h.dtype == np.float64
        assert np.array_equal(h.data, data)
        assert np.array_equal(h.indices, indices)
        assert np.array_equal(h.indptr, indptr)
        assert np.array_equal(psi, psi_before)


def test_spectral_bounds_enclose_eigenvalues(rng):
    for n in (5, 17, 40):
        h = random_hermitian(n, rng, density=0.5)
        lo, hi = spectral_bounds(h)
        eig = np.linalg.eigvalsh(h.toarray())
        assert lo <= eig.min() + 1e-12
        assert hi >= eig.max() - 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30),
       t=st.floats(-10.0, 10.0, allow_nan=False))
def test_unitarity_properties(seed, n, t):
    rng = np.random.default_rng(seed)
    h = random_hermitian(n, rng)
    p1, p2 = normalized(rng, n), normalized(rng, n)
    u1 = expimv(h, p1, t, tol=1e-10)
    u2 = expimv(h, p2, t, tol=1e-10)
    assert abs(np.linalg.norm(u1) - 1.0) < 1e-9
    assert abs(np.vdot(u1, u2) - np.vdot(p1, p2)) < 1e-8
