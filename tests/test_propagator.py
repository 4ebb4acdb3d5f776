import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlens.disorder import EnsembleJob, Holes, _CleanPattern, _initial_state, _realization_table
from spinlens.lattice import NearestNeighbor, PowerLaw, build_couplings, build_lattice
from spinlens.lens import (ThickPolynomial, ThinPulse, continuum_thick, potential_profile,
                           thin_phase_profile)
from spinlens.manybody import (build_mb_hamiltonian, enumerate_basis, even_path,
                               evolution_path, evolve_mb, mb_trajectory,
                               symmetric_initial_state)
from spinlens import propagator
from spinlens.propagator import (_STACK_NNZ, _WINDOW_BYTES, _WINDOW_ENTRY_BYTES,
                                 _WINDOW_PHASE, _WINDOW_TERMS,
                                 TOL_RANGE, EigenPropagator, _real_window_fits, _StepPlan,
                                 _bessel_table, _enclosure, _stacked_operator,
                                 expimv, expimv_batch, spectral_bounds, trajectory,
                                 window_batch)
from spinlens.wavepacket import evolve, gaussian_packet, phase_imprint

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

    def test_long_evolution_is_one_expansion(self, rng):
        # spectral half-width ~2: a phase of 8e4 in one Chebyshev expansion
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


class TestLongPhase:
    """One expansion at phases past 3e4, against the dense eigendecomposition
    of a centred nu = 2 even sector (``sector.eigen()``)."""

    @pytest.mark.parametrize("n, chirp", [(21, 0.0), (21, 0.05), (41, 0.0), (41, 0.05)],
                             ids=["real", "complex", "real-420rows", "complex-420rows"])
    def test_even_sector_matches_its_eigendecomposition(self, n, chirp):
        """At 21 sites the even sector has 110 rows; at 41, 420, above
        _EVR_ROWS, where the decomposition keeps Householder reflectors."""
        table = build_lattice((n,))
        x = np.arange(n) - (n - 1) / 2.0
        terms = build_couplings(table, NearestNeighbor(1.0)).with_diagonal(
            potential_profile(ThickPolynomial((0.02,), ((n - 1) / 2.0,)), table))
        basis = enumerate_basis(table, 2)
        sector = build_mb_hamiltonian(terms, basis, jz=5.0e3, table=table)
        assert (sector.mirror.dim > propagator._EVR_ROWS) == (n == 41)
        single = gaussian_packet(table, 3.0).amplitudes * np.exp(1j * chirp * x**2)
        psi = symmetric_initial_state(single, 2, basis).amplitudes
        assert bool(psi.imag.any()) == (chirp != 0.0)
        mirror, bounds = sector.mirror, sector.bounds()
        assert np.linalg.norm(psi - psi[mirror.refl]) < 1e-14
        phi, w = psi[mirror.reps], mirror.weights
        half, tol = 0.5 * (bounds[1] - bounds[0]), 1e-9
        for z in (3.5e4, 7.0e4):
            got = expimv(mirror.matrix, phi, z / half, tol=tol, bounds=bounds)
            want = sector.eigen().states(w * phi, [z / half])[0] / w
            assert np.linalg.norm((got - want)[mirror.orbit]) < 10 * tol

    def test_real_window_sample_matches_its_eigendecomposition(self):
        """A real start's window samples one step of phase 3.5e4 from one
        float64 recurrence, within 10 tol of the decomposition."""
        table = build_lattice((21,))
        terms = build_couplings(table, NearestNeighbor(1.0)).with_diagonal(
            potential_profile(ThickPolynomial((0.02,), (10.0,)), table))
        basis = enumerate_basis(table, 2)
        sector = build_mb_hamiltonian(terms, basis, jz=5.0e3, table=table)
        psi = symmetric_initial_state(gaussian_packet(table, 3.0), 2, basis).amplitudes
        mirror, bounds = sector.mirror, sector.bounds()
        phi, w = psi[mirror.reps].real, mirror.weights
        half, tol = 0.5 * (bounds[1] - bounds[0]), 1e-9
        dt = 3.5e4 / half
        (_, _, (got,)), = window_batch([(mirror.matrix, phi, dt, bounds)], 1, tol)
        want = sector.eigen().states(w * phi, [dt])[0] / w
        assert np.linalg.norm((got - want)[mirror.orbit]) < 10 * tol


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

    @pytest.mark.parametrize("chirp", [0.0, 0.05], ids=["real", "complex"])
    def test_matches_repeated_evolve_mb(self, lens_terms, chirp):
        """Centred lens and packet: both run in the even subspace by
        Chebyshev. From a complex (chirped, mirror-symmetric) start both
        step, bit for bit. A real start's trajectory samples its span from
        one float64 recurrence, while every evolve_mb after the first starts
        from a complex state and steps, so the two agree within 10 tol per
        step, not bit for bit."""
        table, terms = lens_terms
        basis = enumerate_basis(table, 2)
        sector = build_mb_hamiltonian(terms, basis, jz=20.0, table=table)
        x = np.arange(41) - 20.0
        single = gaussian_packet(table, 4.0).amplitudes * np.exp(1j * chirp * x**2)
        state = symmetric_initial_state(single, 2, basis)
        assert bool(state.amplitudes.imag.any()) == (chirp != 0.0)
        state.time_stamp = 0.1
        dt, tol = 0.45, 1e-9
        path = evolution_path(sector, state.amplitudes, 4 * dt, tol)
        assert path.mirror is not None and not path.dense
        steps = list(mb_trajectory(sector, state.amplitudes, dt, 4, tol=tol,
                                   t0=state.time_stamp))
        assert len(steps) == 4
        if chirp:
            self.repeated_evolve_mb(sector, state, dt, tol, steps)
            return
        for k, (t, amp) in enumerate(steps, start=1):
            state = evolve_mb(sector, state, dt, tol=tol)
            assert t == state.time_stamp
            assert np.linalg.norm(amp - state.amplitudes) <= 10 * tol * k

    def test_matches_repeated_evolve_mb_on_the_dense_path(self, lens_terms):
        # at J_z = 5e3 every step alone and the whole span go dense
        table, terms = lens_terms
        basis = enumerate_basis(table, 2)
        sector = build_mb_hamiltonian(terms, basis, jz=5.0e3, table=table)
        state = symmetric_initial_state(gaussian_packet(table, 4.0), 2, basis)
        state.time_stamp = 0.1
        dt, tol = 0.45, 1e-9
        assert evolution_path(sector, state.amplitudes, dt, tol).dense
        assert evolution_path(sector, state.amplitudes, 4 * dt, tol).dense
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
        # nearest-neighbour Ising energy 4*J_z = 6000 J gives each step a
        # phase half*dt of about 7.5e4, one expansion
        table = build_lattice((12,))
        terms = build_couplings(table, NearestNeighbor(1.0))
        basis = enumerate_basis(table, 2)
        sector = build_mb_hamiltonian(terms, basis, jz=1500.0, table=table)
        h, bounds = sector.matrix, sector.bounds()
        psi = symmetric_initial_state(gaussian_packet(table, 2.0), 2, basis).amplitudes
        dt, tol, n_steps = 25.0, 1e-10, 4

        single = psi
        steps = list(trajectory(h, psi, dt, n_steps, tol=tol, bounds=bounds))
        assert len(steps) == n_steps
        for k, (_, amp) in enumerate(steps, start=1):
            norm_before = np.linalg.norm(single)
            single = expimv(h, single, dt, tol=tol, bounds=bounds)
            assert np.array_equal(amp, single)
            assert abs(np.linalg.norm(amp) - norm_before) < 10 * tol
            assert np.linalg.norm(amp - dense_evolution(h, psi, k * dt)) < 10 * tol * k

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


@pytest.fixture
def matvec_dtypes(monkeypatch):
    """(operator dtype, vector dtype) of every stacked or windowed matvec,
    in order, recorded through a spy on ``propagator._row_prefix``."""
    seen = []
    prefix = propagator._row_prefix

    class Spy:
        def __init__(self, h):
            self.h = h

        def __matmul__(self, x):
            seen.append((self.h.dtype, x.dtype))
            return self.h @ x

    monkeypatch.setattr(propagator, "_row_prefix", lambda h, n: Spy(prefix(h, n)))
    return seen


def chain(n, diagonal):
    """Nearest-neighbour chain Hamiltonian diag(eps) - J as canonical CSR."""
    off = np.ones(n - 1)
    return (sp.diags(diagonal) - sp.diags([off, off], [-1, 1])).tocsr()


class TestBatchedPlan:
    """Stacked blocks (module docstring of ``propagator``) give each block
    exactly what it gives alone, i.e. a batch of one, i.e. ``expimv``."""

    @pytest.fixture
    def blocks(self, rng):
        """(h, psi, t, bounds): different diagonals, so different bounds and
        coefficient counts; a block of phase half*t about 4e4 next to short
        ones; a t = 0 block; three equal blocks, which share one coefficient
        set; and one block of another dimension."""
        n, x = 24, np.arange(24) - 11.5
        out = []
        for scale in (0.01, 0.3, 2.0, 40.0):
            h = chain(n, scale * x**2 + rng.normal(size=n))
            out.append((h, normalized(rng, n), 1.7, None))
        big = chain(n, np.linspace(-1000.0, 1000.0, n))   # half * t ~ 4e4
        out.append((big, normalized(rng, n), 40.0, spectral_bounds(big)))
        out.append((chain(n, x**2), normalized(rng, n), 0.0, None))
        shared = chain(n, 0.1 * x**2)
        for _ in range(3):
            out.append((shared, normalized(rng, n), -0.9, spectral_bounds(shared)))
        out.append((chain(9, rng.normal(size=9)), normalized(rng, 9), 2.2, None))
        return out

    def test_each_block_equals_expimv(self, blocks):
        tol = 1e-10
        hs, _, ts, bounds = zip(*blocks)
        plan = _StepPlan(hs, ts, tol, bounds)
        # the cases really share stacks, with different coefficient counts
        assert any(len(s.order) > 1 for s in plan.stacks)
        assert len({len(s.coef) for s in plan.stacks}) > 1
        for s in plan.stacks:   # longest coefficient set first
            counts = (s.coef[:, :, 0] != 0).sum(axis=0)
            assert list(counts) == sorted(counts, reverse=True)
        stacked = list(expimv_batch(blocks, tol=tol))
        assert len(stacked) == len(blocks)
        for (h, psi, t, bounds), got in zip(blocks, stacked):
            alone = next(expimv_batch([(h, psi, t, bounds)], tol=tol))
            assert np.array_equal(got, alone)
            assert np.array_equal(got, expimv(h, psi, t, tol=tol, bounds=bounds))

    def test_t0_block_is_a_copy(self, blocks):
        i = [t for _, _, t, _ in blocks].index(0.0)
        out, psi = list(expimv_batch(blocks))[i], blocks[i][1]
        assert np.array_equal(out, psi) and out is not psi

    def test_equal_blocks_share_one_coefficient_set(self, blocks, monkeypatch):
        calls = []
        real = propagator._chebyshev_coeffs

        def counted(zs, tol):
            calls.extend((z, tol) for z in zs)
            return real(zs, tol)

        monkeypatch.setattr(propagator, "_chebyshev_coeffs", counted)
        list(expimv_batch(blocks))
        assert len(calls) == len(set(calls)) == len(blocks) - 1 - 2

    def test_each_block_matches_dense_expm(self, blocks):
        for (h, psi, t, _), got in zip(blocks, expimv_batch(blocks, tol=1e-12)):
            want = scipy.linalg.expm(-1j * t * h.toarray()) @ psi
            assert np.linalg.norm(got - want) < 1e-8

    def test_caller_arrays_are_not_modified(self, blocks):
        before = [(h.data.copy(), h.indices.copy(), h.indptr.copy(), psi.copy())
                  for h, psi, _, _ in blocks]
        list(expimv_batch(blocks))
        for h, psi, dt, bounds in blocks:
            list(trajectory(h, psi, dt, 2, bounds=bounds))
        for (h, psi, _, _), (data, indices, indptr, psi0) in zip(blocks, before):
            assert h.dtype == np.float64
            assert np.array_equal(h.data, data)
            assert np.array_equal(h.indices, indices)
            assert np.array_equal(h.indptr, indptr)
            assert np.array_equal(psi, psi0)

    def test_order_of_stored_entries_does_not_matter(self, rng):
        """Each row sums in canonical (sorted) order, so a matrix with
        unsorted indices, such as a sparse product gives, propagates bit for
        bit like its sorted copy."""
        blocks, shuffled = [], []
        for _ in range(3):
            h = random_hermitian(30, rng, density=0.5).real.tocsr()
            data, indices = h.data.copy(), h.indices.copy()
            for r in range(h.shape[0]):
                row = np.arange(h.indptr[r], h.indptr[r + 1])
                mixed = rng.permutation(row)
                data[row], indices[row] = data[mixed], indices[mixed]
            h_rev = sp.csr_matrix((data, indices, h.indptr.copy()), shape=h.shape)
            assert not h_rev.has_sorted_indices
            # given bounds: spectral_bounds(h_rev) would sort h_rev in place
            psi, bounds = normalized(rng, 30), spectral_bounds(h)
            blocks.append((h, psi, 2.5, bounds))
            shuffled.append((h_rev, psi, 2.5, bounds))
        for got, want in zip(expimv_batch(shuffled), expimv_batch(blocks)):
            assert np.array_equal(got, want)
        assert not any(h.has_sorted_indices for h, *_ in shuffled)

    def test_stacks_stay_under_the_nonzero_budget(self, rng):
        n = 300
        hs = [chain(n, rng.normal(size=n)) for _ in range(120)]
        hs.append(chain(_STACK_NNZ // 2, np.zeros(_STACK_NNZ // 2)))  # over alone
        plan = _StepPlan(hs, [0.5] * len(hs), 1e-10, [None] * len(hs))
        assert len(plan.stacks) > 2
        for stack in plan.stacks:
            assert stack.h_scaled.nnz <= _STACK_NNZ or len(stack.order) == 1
        assert sorted(i for s in plan.stacks for i in s.order) == list(range(len(hs)))

    def test_state_length_checked(self, blocks):
        h, psi, t, bounds = blocks[0]
        with pytest.raises(ValueError):
            list(expimv_batch([blocks[1], (h, psi[:-1], t, bounds)]))


def hole_ensemble(n_real=4):
    """Hole realizations of a thick lens chain, cut from the clean pattern
    as the disorder module cuts them: [(h, real packet, bounds)]. A hole's
    row has lost its diagonal slot."""
    table = build_lattice((61,))
    design = ThickPolynomial((6.0 ** (-8.0 / 3.0),), (30.0,))
    job = EnsembleJob(table=table, model=NearestNeighbor(1.0), design=design,
                      sigma0=6.0, duration=1.0, kind=Holes(3),
                      realizations=n_real, master_seed=5)
    pattern = _CleanPattern(job)
    out = []
    for r in range(n_real):
        realization = _realization_table(job, r)
        h, bounds = pattern.cut(realization)
        holes = np.flatnonzero(~realization.active)
        assert len(holes) == 3 and not np.diff(h.indptr)[holes].any()
        psi = _initial_state(realization, job).amplitudes
        assert not psi.imag.any()
        out.append((h, psi.real.copy(), bounds))
    return out


def lone_scaled(h, center, half, dtype):
    """2 h~ of one block as the stack was once built, block by block:
    (h - centre) as a sparse difference, scaled by 1/half, put in
    canonical form and doubled; (data as ``dtype``, indices, indptr)."""
    if dtype is float and np.iscomplexobj(h.data):
        h = h.real
    b = (h - sp.diags(np.full(h.shape[0], center))).tocsr()
    b.data *= 1.0 / half
    b.sum_duplicates()
    b.data *= 2.0
    return b.data.astype(dtype), b.indices, b.indptr


def stacked_block(stack, j, dim):
    """(data, indices, indptr) of the j-th diagonal block of a stack."""
    lo, hi = stack.indptr[j * dim], stack.indptr[(j + 1) * dim]
    return (stack.data[lo:hi], stack.indices[lo:hi] - j * dim,
            stack.indptr[j * dim:(j + 1) * dim + 1] - lo)


class TestStackedOperator:
    """The stack is built by array operations on all its blocks at once,
    and each block is bit for bit the one built alone."""

    @staticmethod
    def assert_blocks_built_alone(hs, bounds, dtype):
        dim = hs[0].shape[0]
        centers, halves = zip(*(_enclosure(h, b) for h, b in zip(hs, bounds)))
        stack = _stacked_operator(hs, dim, centers, halves, dtype)
        assert stack.dtype == np.dtype(dtype) and stack.has_canonical_format
        for j, (h, c, half) in enumerate(zip(hs, centers, halves)):
            got, want = stacked_block(stack, j, dim), lone_scaled(h, c, half, dtype)
            assert got[0].dtype == want[0].dtype
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    def test_hole_realizations_with_dropped_diagonal_slots(self):
        hs, _, bounds = zip(*hole_ensemble())
        self.assert_blocks_built_alone(hs, bounds, float)

    def test_unsorted_and_duplicate_entries(self, rng):
        """Rows stored out of order, an entry stored three times, a pair
        that sums to zero and an explicit zero: the lone block summed the
        duplicates in storage order and dropped the zeros."""
        h = chain(40, rng.normal(size=40))
        rows = np.repeat(np.arange(40), np.diff(h.indptr))
        cols, vals = h.indices.copy(), h.data.copy()
        third = [1.0, 2.0 ** -60, -1.0]     # its sum depends on the order
        rows = np.r_[rows, 5, 5, 5, 7, 7, 9, 11]
        cols = np.r_[cols, 6, 6, 6, 20, 20, 9, 30]
        vals = np.r_[vals, third, 0.25, -0.25, 0.1, 0.0]
        order = rng.permutation(len(rows))
        order = order[np.argsort(rows[order], kind="stable")]   # rows in order, entries not
        indptr = np.searchsorted(rows[order], np.arange(41))
        h_dup = sp.csr_matrix((vals[order], cols[order], indptr), shape=(40, 40))
        assert not h_dup.has_canonical_format
        blocks = [h_dup, h, h_dup]
        self.assert_blocks_built_alone(blocks, [spectral_bounds(b) for b in blocks], float)

    def test_complex_dtype_with_zero_imaginary_part_becomes_float64(self):
        hs, _, bounds = zip(*hole_ensemble(2))
        hs = [hs[0].astype(complex), hs[1]]
        assert not any(map(propagator._imaginary, hs))
        self.assert_blocks_built_alone(hs, bounds, float)

    def test_truly_complex_block_beside_real_ones(self, rng):
        h = random_hermitian(30, rng)
        assert propagator._imaginary(h)
        blocks = [chain(30, rng.normal(size=30)), h, chain(30, np.zeros(30))]
        self.assert_blocks_built_alone(blocks, [None] * 3, complex)

    @pytest.mark.parametrize("kind, dtype", [("real", float), ("real", complex),
                                             ("zero-imaginary", float),
                                             ("complex", complex), ("holed", float)])
    def test_lone_block_is_shifted_as_it_is(self, rng, kind, dtype):
        """A one-block stack shifts h itself, not a copy of its arrays, and
        leaves h as it was."""
        h = {"real": lambda: chain(30, rng.normal(size=30)),
             "zero-imaginary": lambda: chain(30, rng.normal(size=30)).astype(complex),
             "complex": lambda: random_hermitian(30, rng),
             "holed": lambda: hole_ensemble(1)[0][0]}[kind]()
        kept = [a.copy() for a in (h.data, h.indices, h.indptr)]
        self.assert_blocks_built_alone([h], [None], dtype)
        assert all(np.array_equal(a, b) for a, b in zip((h.data, h.indices, h.indptr), kept))


def sparse_stacked(hs, dim, centers, halves, dtype):
    """2 h~ of a stack by scipy's sparse difference, as the stack was built
    before its one-pass form: the canonical blocks concatenated by the
    validating constructor, ``- diags(c)``, each entry times its block's
    1/half and then 2."""
    blocks = []
    for h in hs:
        if dtype is float and np.iscomplexobj(h.data):
            h = h.real
        if not h.has_canonical_format:
            h = h + sp.csr_matrix(h.shape)
            h.sort_indices()
        blocks.append(h)
    offsets = np.cumsum([0] + [b.nnz for b in blocks])
    stack = sp.csr_matrix((
        np.concatenate([b.data[:b.nnz] for b in blocks], dtype=dtype),
        np.concatenate([b.indices[:b.nnz] + j * dim for j, b in enumerate(blocks)]),
        np.concatenate([[0]] + [b.indptr[1:] + off for b, off in zip(blocks, offsets)])),
        shape=(len(blocks) * dim, len(blocks) * dim))
    stack = stack - sp.diags(np.repeat(centers, dim))
    stack.data *= np.repeat(1.0 / np.asarray(halves), np.diff(stack.indptr[::dim]))
    stack.data *= 2.0
    return stack


class TestOnePassOperator:
    """``_stacked_operator`` shifts and scales the concatenated arrays in
    one pass; the whole stack is bit for bit scipy's sparse difference."""

    @staticmethod
    def assert_stack_is_the_sparse_difference(hs, bounds, dtype):
        dim = hs[0].shape[0]
        kept = [[a.copy() for a in (h.data, h.indices, h.indptr)] for h in hs]
        centers, halves = zip(*(_enclosure(h, b) for h, b in zip(hs, bounds)))
        got = _stacked_operator(hs, dim, centers, halves, dtype)
        want = sparse_stacked(hs, dim, centers, halves, dtype)
        for attr in ("indptr", "indices", "data"):
            g, w = getattr(got, attr), getattr(want, attr)
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), attr
        # no h is modified
        for h, arrays in zip(hs, kept):
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip((h.data, h.indices, h.indptr), arrays))
        return got

    @staticmethod
    def with_entries(h, extra):
        """h with (row, col, value) entries appended, in canonical form when
        each (row, col) is new: stored zeros stay stored."""
        rows = np.r_[np.repeat(np.arange(h.shape[0]), np.diff(h.indptr)), [e[0] for e in extra]]
        cols = np.r_[h.indices, [e[1] for e in extra]]
        vals = np.r_[h.data, [e[2] for e in extra]]
        order = np.lexsort((cols, rows))
        out = sp.csr_matrix((vals[order], cols[order].astype(np.int32),
                             np.searchsorted(rows[order], np.arange(h.shape[0] + 1))),
                            shape=h.shape)
        assert out.nnz == len(vals)
        return out

    def test_rows_without_a_diagonal_entry(self, rng):
        """Hole rows (empty) and a lens focus (a zero on-site energy, so no
        diagonal entry): 0 - c is inserted in its sorted place."""
        hs, _, bounds = zip(*hole_ensemble(5))
        assert any(np.diff(h.indptr).min() == 0 for h in hs)
        got = self.assert_stack_is_the_sparse_difference(hs, bounds, float)
        assert np.all(got.diagonal() != 0.0)
        thin = chain(40, np.zeros(40))
        centred = chain(40, np.r_[np.zeros(20), rng.normal(size=20)])
        self.assert_stack_is_the_sparse_difference([thin, centred, thin], [None] * 3, float)
        self.assert_stack_is_the_sparse_difference(
            [thin, centred], [(-2.0, 3.0), (-1.0, 5.5)], float)

    def test_diagonals_that_the_shift_makes_zero(self, rng):
        """An on-site energy equal to its block's centre is dropped, as the
        sparse difference drops it."""
        x = rng.normal(size=30)
        bounds = (-4.0, 6.0)                      # centre 1.0
        x[[0, 7, 29]] = 1.0
        h = chain(30, x)
        got = self.assert_stack_is_the_sparse_difference([h, chain(30, x + 1.0), h],
                                                         [bounds] * 3, float)
        assert got.nnz < sum(3 * [h.nnz]) + 3

    def test_stored_zeros(self, rng):
        """Explicit zeros, off and on the diagonal, are dropped; a stored
        zero on the diagonal becomes 0 - c."""
        h = chain(25, rng.normal(size=25))
        h = self.with_entries(h, [(3, 10, 0.0), (10, 3, 0.0), (12, 20, -0.0)])
        h.data[h.indptr[5]:h.indptr[6]][h.indices[h.indptr[5]:h.indptr[6]] == 5] = 0.0
        assert h.has_canonical_format and (h.data == 0.0).sum() == 4
        self.assert_stack_is_the_sparse_difference([h, chain(25, np.zeros(25)), h],
                                                   [None] * 3, float)
        self.assert_stack_is_the_sparse_difference([h], [None], float)

    def test_unsorted_and_duplicate_entries(self, rng):
        h = chain(40, rng.normal(size=40))
        rows = np.r_[np.repeat(np.arange(40), np.diff(h.indptr)), 5, 5, 5, 7, 7, 9, 11]
        cols = np.r_[h.indices, 6, 6, 6, 20, 20, 9, 30]
        vals = np.r_[h.data, 1.0, 2.0 ** -60, -1.0, 0.25, -0.25, 0.1, 0.0]
        order = rng.permutation(len(rows))
        order = order[np.argsort(rows[order], kind="stable")]
        h_dup = sp.csr_matrix((vals[order], cols[order], np.searchsorted(rows[order], np.arange(41))),
                              shape=(40, 40))
        assert not h_dup.has_canonical_format
        self.assert_stack_is_the_sparse_difference([h_dup, h, h_dup], [None] * 3, float)
        self.assert_stack_is_the_sparse_difference([h_dup], [None], float)
        assert not h_dup.has_canonical_format

    def test_complex_blocks(self, rng):
        h = random_hermitian(30, rng)
        blocks = [chain(30, np.r_[np.zeros(10), rng.normal(size=20)]), h,
                  chain(30, rng.normal(size=30)).astype(complex)]
        self.assert_stack_is_the_sparse_difference(blocks, [None] * 3, complex)
        self.assert_stack_is_the_sparse_difference([h], [None], complex)
        # a complex dtype with no imaginary part, stacked as float64
        self.assert_stack_is_the_sparse_difference(blocks[2:] + blocks[:1], [None] * 2, float)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_one_block_stack(self, rng, dtype):
        """A lone block keeps h's index arrays and gets a new data array."""
        h = chain(50, np.r_[rng.normal(size=25), np.zeros(25)])
        got = self.assert_stack_is_the_sparse_difference([h], [None], dtype)
        assert got.data is not h.data and got.dtype == np.dtype(dtype)


class TestRealPath:
    """A stack whose operator and states are real runs its terms in float64
    (module docstring of ``propagator``), bit for bit the complex path."""

    @pytest.fixture
    def lens(self):
        """A thick lens chain, its real Gaussian packet (complex dtype, zero
        imaginary part) and a moving packet, whose state is complex."""
        table = build_lattice((41,))
        design = ThickPolynomial((4.0 ** (-8.0 / 3.0),), (20.0,))
        terms = build_couplings(table, NearestNeighbor(1.0))
        h = terms.with_diagonal(potential_profile(design, table)).matrix()
        rest = gaussian_packet(table, 4.0).amplitudes
        moving = gaussian_packet(table, 4.0, k0=0.3).amplitudes
        assert not rest.imag.any() and moving.imag.any()
        return h, rest, moving

    # one step, and three: a real first step, then complex ones
    @pytest.mark.parametrize("n_steps", [1, 3])
    def test_real_block_equals_it_next_to_a_complex_one(self, lens, n_steps):
        h, rest, moving = lens
        tol, t = 1e-10, 2.5
        alone = _StepPlan([h], [t], tol, [None])
        assert alone.stacks[0].h_scaled.dtype == np.float64
        mixed = _StepPlan([h, h], [t, t], tol, [None, None])
        assert len(mixed.stacks) == 1            # one stack for both
        got, want = rest, [rest, moving]
        for _ in range(n_steps):
            (got,) = alone.apply([got])
            want = mixed.apply(want)
        want = want[0]
        assert alone.stacks[0].h_scaled.dtype == (
            np.float64 if n_steps == 1 else np.complex128)
        assert mixed.stacks[0].h_scaled.dtype == np.complex128
        assert got.dtype == np.complex128
        assert np.array_equal(got, want)
        if n_steps == 1:
            # the same through the public calls, with a float64 state too
            batched = list(expimv_batch([(h, rest, t, None), (h, moving, t, None)], tol))
            assert np.array_equal(batched[0], want)
            assert np.array_equal(expimv(h, rest.real, t, tol), want)

    @pytest.mark.parametrize("n_steps", [1, 3])
    def test_real_ensemble_stack_equals_it_next_to_a_complex_block(self, n_steps):
        """Hole realizations of distinct phases and coefficient counts, one
        float64 stack with two accumulators, equal bit for bit to the same
        blocks stepped in one complex accumulator beside a complex block."""
        hs, psis, bounds = map(list, zip(*hole_ensemble()))
        ts = [2.5, 4.0, 6.5, 9.0]
        tol = 1e-10
        phases = [_enclosure(h, b)[1] * t for h, b, t in zip(hs, bounds, ts)]
        assert len(set(phases)) == len(hs)
        alone = _StepPlan(hs, ts, tol, bounds)
        (stack,) = alone.stacks
        assert stack.h_scaled.dtype == np.float64
        counts = [int(np.flatnonzero(stack.coef[:, j, 0])[-1]) + 1 for j in range(len(hs))]
        assert len(set(counts)) == len(hs)
        # a moving packet on the first realization: a complex state
        moving = hs[0] @ psis[0] * 1j + psis[0]
        mixed = _StepPlan(hs + [hs[0]], ts + [3.0], tol, bounds + [bounds[0]])
        assert len(mixed.stacks) == 1
        got, want = psis, psis + [moving]
        for _ in range(n_steps):
            got = alone.apply(got)
            want = mixed.apply(want)
        assert mixed.stacks[0].h_scaled.dtype == np.complex128
        for g, w in zip(got, want):
            assert g.dtype == np.complex128
            assert np.array_equal(g, w)
        if n_steps == 1:
            for h, psi, t, b, g in zip(hs, psis, ts, bounds, got):
                assert np.array_equal(expimv(h, psi, t, tol, b), g)

    def test_terms_are_float64_until_the_first_complex_state(self, lens, matvec_dtypes):
        """A step of phase past 3e4 is one expansion: from a real state every
        matvec is float64, and the result is the mixed complex stack's. The
        next step, from that complex state, runs in complex128."""
        h, rest, moving = lens
        lo, hi = spectral_bounds(h)
        tol, t = 1e-10, 3.2e4 / (0.5 * (hi - lo))
        seen = matvec_dtypes
        plan = _StepPlan([h], [t], tol, [None])
        (got,) = plan.apply([rest])
        # (operator, term) dtypes: one matvec per term past T_0
        n_terms = len(plan.stacks[0].coef) - 1
        assert len(seen) == n_terms > 3.2e4
        assert seen == [(np.float64, np.float64)] * n_terms
        want = _StepPlan([h, h], [t, t], tol, [None, None]).apply([rest, moving])[0]
        assert np.array_equal(got, want)
        seen.clear()
        plan.apply([got])
        assert seen == [(np.complex128, np.complex128)] * n_terms

    def test_a_reused_plan_switches_its_operator_once(self, lens):
        """As :func:`trajectory` reuses its plan: a real first step, then
        complex ones, each what ``expimv`` gives."""
        h, rest, _ = lens
        step = _StepPlan([h], [0.7], 1e-10, [None])
        (psi,) = step.apply([rest])
        assert step.stacks[0].h_scaled.dtype == np.float64
        for _ in range(2):
            (psi,) = step.apply([psi])
            assert step.stacks[0].h_scaled.dtype == np.complex128
        want = rest
        for _ in range(3):
            want = expimv(h, want, 0.7, 1e-10)
        assert np.array_equal(psi, want)

    def test_complex_hamiltonian_keeps_its_imaginary_part(self, rng):
        h = random_hermitian(30, rng)
        assert h.data.imag.any()
        psi = rng.normal(size=30)
        psi /= np.linalg.norm(psi)
        tol = 1e-10
        for t in (0.8, -3.1):
            plan = _StepPlan([h], [t], tol, [None])
            assert plan.stacks[0].h_scaled.dtype == np.complex128
            got = plan.apply([psi])[0]
            assert np.linalg.norm(got - dense_evolution(h, psi, t)) < 10 * tol

    def test_complex_dtype_with_zero_imaginary_part_is_real(self, lens):
        h, rest, _ = lens
        hc = h.astype(complex)
        plan = _StepPlan([hc], [2.5], 1e-10, [None])
        assert plan.stacks[0].h_scaled.dtype == np.float64
        assert np.array_equal(plan.apply([rest])[0], expimv(h, rest, 2.5))

    def test_zero_time_gives_a_complex_copy(self, lens):
        h, rest, _ = lens
        out = expimv(h, rest.real, 0.0)
        assert out.dtype == np.complex128 and np.array_equal(out, rest)


@pytest.fixture(scope="module")
def nu3_sectors():
    """{name: (even operator, sector bounds, dt)} of the nu = 3 blockade
    benchmark slots: chains of 51 and 61 sites at J_z = 40 and 20, a
    centred lens of v0 = 0.01, dt an eighth of its focal time at sigma0 = 8."""
    out = {}
    for n, jz in ((51, 40.0), (61, 20.0)):
        table = build_lattice((n,))
        design = ThickPolynomial((0.01,), tuple(table.center()))
        terms = build_couplings(table, NearestNeighbor(1.0)).with_diagonal(
            potential_profile(design, table))
        sector = build_mb_hamiltonian(terms, enumerate_basis(table, 3), jz=jz,
                                      interaction_power=6.0, table=table)
        out[f"nu3_n{n}"] = (sector.mirror.matrix, sector.bounds(),
                            continuum_thick(0.01, 8.0).focal_time / 8)
    assert [h.shape[0] for h, _, _ in out.values()] == [10425, 18010]
    return out


def windowed(blocks, n_samples, tol=1e-10):
    """{block index: (n_samples, dim) states} and {block index: segment
    lengths} from one ``window_batch`` call."""
    states, segments = {}, {}
    for i, j, rows in window_batch(blocks, n_samples, tol):
        assert j == 1 + sum(segments.get(i, []))   # in order, no gap
        segments.setdefault(i, []).append(len(rows))
        states.setdefault(i, []).extend(rows.copy())   # the next segment overwrites rows
    return {i: np.array(v) for i, v in states.items()}, segments


class TestWindow:
    """Samples at dt, ..., n dt of each block from one recurrence per
    segment (module docstring of ``propagator``)."""

    @pytest.fixture
    def blocks(self, rng):
        """(h, psi, dt, bounds): chains with different diagonals, so
        different phases per sample and segment lengths; a negative dt; a
        block whose phase per sample passes ``_WINDOW_PHASE``; a dense block
        (a larger share of the byte budget); one of another dimension."""
        n, x = 40, np.arange(40) - 19.5
        out = []
        for scale in (0.01, 0.3, 2.0):
            h = chain(n, scale * x**2 + rng.normal(size=n))
            out.append((h, normalized(rng, n), 0.37, None))
        h = chain(n, 0.1 * x**2)
        out.append((h, normalized(rng, n), -0.21, spectral_bounds(h)))
        big = chain(n, np.linspace(-2000.0, 2000.0, n))
        out.append((big, normalized(rng, n), 0.015, None))
        out.append((random_hermitian(n, rng, density=0.6), normalized(rng, n), 0.8, None))
        out.append((chain(9, rng.normal(size=9)), normalized(rng, 9), 0.5, None))
        return out

    @pytest.fixture
    def real_blocks(self, blocks):
        """The real chains of ``blocks`` with real start states, each at
        the same h, dt and bounds: a float64 window of one segment over all
        its samples while they fit its budget (a few samples here)."""
        out = []
        for h, psi, dt, bounds in blocks[:5] + blocks[6:]:
            phi = np.abs(psi)
            out.append((h, phi / np.linalg.norm(phi), dt, bounds))
        return out

    def test_matches_dense_expm(self, blocks):
        tol, n_samples = 1e-10, 30
        states, _ = windowed(blocks, n_samples, tol)
        for i, (h, psi, dt, _) in enumerate(blocks):
            for j, got in enumerate(states[i], start=1):
                want = scipy.linalg.expm(-1j * dt * j * h.toarray()) @ psi
                assert np.linalg.norm(got - want) <= 10 * tol

    def test_matches_trajectory(self, blocks):
        """Within 10 tol per step the trajectory takes to the sample."""
        tol, n_samples = 1e-10, 30
        states, _ = windowed(blocks, n_samples, tol)
        for i, (h, psi, dt, bounds) in enumerate(blocks):
            steps = [amp for _, amp in trajectory(h, psi, dt, n_samples, tol, bounds)]
            gaps = np.linalg.norm(states[i] - steps, axis=1)
            assert np.all(gaps <= 10 * tol * np.arange(1, n_samples + 1))

    def test_block_in_a_mixed_batch_equals_block_alone(self, blocks, real_blocks):
        # real and complex blocks of one dimension go to separate windows;
        # at 4 samples every real block is one real window, at 25 most are
        # over their budget and sampled as complex ones
        blocks = blocks + real_blocks
        for n_samples in (4, 25):
            states, segments = windowed(blocks, n_samples)
            # the batch really mixes segment lengths and dimensions
            assert len({tuple(v) for v in segments.values()}) > 2
            for i, block in enumerate(blocks):
                alone, alone_segments = windowed([block], n_samples)
                assert alone_segments[0] == segments[i]
                assert np.array_equal(alone[0], states[i])

    def test_segments_are_cut_by_the_phase_cap(self, blocks):
        h, psi, dt, _ = blocks[4]
        lo, hi = spectral_bounds(h)
        step = 0.5 * (hi - lo) * dt
        _, segments = windowed([blocks[4]], 12)
        per_segment = int(_WINDOW_PHASE / (step * (1.0 + 1e-12)))
        assert 1 < per_segment < 12
        assert segments[0] == [per_segment] * (12 // per_segment) + (
            [12 % per_segment] if 12 % per_segment else [])

    def test_segments_are_cut_by_the_byte_budget(self, blocks, monkeypatch):
        """A block's samples and buffered terms fit its byte budget,
        ``_WINDOW_ENTRY_BYTES`` per entry of its operator (nonzeros plus
        rows); a smaller budget gives shorter segments and the same states
        within tol."""
        tol, chains = 1e-10, blocks[:2]     # two chains of equal nonzeros
        full, segments = windowed(chains, 30, tol)
        entries = chains[0][0].nnz + 40
        budget = _WINDOW_ENTRY_BYTES * entries
        assert budget < _WINDOW_BYTES
        assert segments[0][0] == int(budget / (16 * 40)) - _WINDOW_TERMS
        monkeypatch.setattr(propagator, "_WINDOW_ENTRY_BYTES",
                            16 * 40 * (_WINDOW_TERMS + 3.5) / entries)
        small, segments = windowed(chains, 30, tol)
        for i in range(2):
            assert segments[i] == [3] * 10
            assert np.linalg.norm(small[i] - full[i], axis=1).max() <= 10 * tol

    def test_an_800_site_design_keeps_7_samples_per_segment(self):
        """The byte budget of a nearest-neighbour thick design on 800 sites
        (3 198 operator entries, a sixth of ``_WINDOW_BYTES``) holds 7
        complex samples besides the buffered terms, below the phase cap."""
        table = build_lattice((800,))
        design = ThickPolynomial((20.0 ** (-8.0 / 3.0),), (399.5,))
        h = build_couplings(table, NearestNeighbor(1.0)).with_diagonal(
            potential_profile(design, table)).matrix()
        psi = gaussian_packet(table, 20.0, k0=0.2).amplitudes
        assert h.nnz + 800 == 3198 and 7 * _enclosure(h, None)[1] * 0.2 < _WINDOW_PHASE
        _, segments = windowed([(h, psi, 0.2, None)], 20)
        assert segments[0] == [7, 7, 6]

    @pytest.mark.parametrize("case, fits", [("small", 19), ("small_long", 8),
                                            ("nu3_n51", 46), ("nu3_n61", 43)])
    def test_real_window_budgets(self, nu3_sectors, case, fits):
        """A real block fits 8 samples, and at most ``fits``: a 40-site chain
        (158 operator entries) at two steps, and the 10 425- and 18 010-row
        nu = 3 even sectors of the blockade benchmark at J_z = 40 and 20 over
        the eighth of a focal time (170 and 95 rad per sample), each at the
        16 MiB cap."""
        if case.startswith("small"):
            h = chain(40, 0.1 * (np.arange(40) - 19.5) ** 2)
            bounds, dt = spectral_bounds(h), 2.0 if case == "small_long" else 0.37
        else:
            h, bounds, dt = nu3_sectors[case]
        assert _real_window_fits(h, bounds, dt, 8)
        assert _real_window_fits(h, bounds, dt, fits)
        assert not _real_window_fits(h, bounds, dt, fits + 1)

    def test_sample_steps_past_3e4_match_dense(self, rng):
        """A sample step has no upper bound: each long one is a segment of
        its own, one expansion from the sample before."""
        n = 24
        h = chain(n, np.linspace(-1000.0, 1000.0, n))
        psi = normalized(rng, n)
        lo, hi = spectral_bounds(h)
        dt, tol = 3.2e4 / (0.5 * (hi - lo)), 1e-10
        states, segments = windowed([(h, psi, dt, None)], 2, tol)
        assert segments[0] == [1, 1]
        for j, got in enumerate(states[0], start=1):
            assert np.linalg.norm(got - dense_evolution(h, psi, j * dt)) <= 10 * tol

    def test_real_start_is_one_segment_within_tol_of_dense(self, real_blocks):
        tol, n_samples = 1e-10, 4
        states, segments = windowed(real_blocks, n_samples, tol)
        for i, (h, phi, dt, bounds) in enumerate(real_blocks):
            assert _real_window_fits(h, bounds or spectral_bounds(h), dt, n_samples)
            assert segments[i] == [n_samples]
            for j, got in enumerate(states[i], start=1):
                assert np.linalg.norm(got - dense_evolution(h, phi, j * dt)) <= 10 * tol

    def test_real_start_over_its_budget_is_sampled_as_complex(self, real_blocks, blocks,
                                                              matvec_dtypes):
        """A real window holds all its samples and tables at once, so a
        real block whose span does not fit its share of
        ``_REAL_WINDOW_BYTES`` is cut into segments as a complex start is,
        with complex matvecs, and keeps its accuracy."""
        tol, n_samples = 1e-10, 200
        seen = matvec_dtypes
        complex_blocks = blocks[:5] + blocks[6:]
        for (h, phi, dt, bounds), twin in zip(real_blocks, complex_blocks):
            assert twin[0] is h and twin[2] == dt
            assert not _real_window_fits(h, bounds or spectral_bounds(h), dt, n_samples)
            seen.clear()
            states, segments = windowed([(h, phi, dt, bounds)], n_samples, tol)
            assert seen == [(np.complex128, np.complex128)] * len(seen) != []
            _, twin_segments = windowed([twin], n_samples, tol)
            assert segments[0] == twin_segments[0] and len(segments[0]) > 1
            for j in (1, n_samples // 2, n_samples):
                want = dense_evolution(h, phi, j * dt)
                assert np.linalg.norm(states[0][j - 1] - want) <= 10 * tol * len(segments[0])

    def test_real_start_runs_every_matvec_in_float64(self, real_blocks, blocks,
                                                     matvec_dtypes):
        seen = matvec_dtypes
        windowed(real_blocks[:1], 12)
        assert len(seen) > 12
        assert seen == [(np.float64, np.float64)] * len(seen)
        seen.clear()
        windowed(blocks[:1], 12)      # a complex start stays complex
        assert seen == [(np.complex128, np.complex128)] * len(seen) != []

    def test_validation(self, blocks):
        h, psi, dt, bounds = blocks[0]
        with pytest.raises(ValueError):
            list(window_batch([(h, psi[:-1], dt, bounds)], 3))
        with pytest.raises(ValueError):
            list(window_batch([(h, psi, 0.0, bounds)], 3))
        with pytest.raises(ValueError):
            list(window_batch([blocks[0]], 3, tol=1e-3))


def lens_case(name, n=32):
    """(H, initial state) of an optimizer evaluation on an n-site chain:
    nearest-neighbour thick and thin lenses and an alpha = 6 thick lens."""
    table = build_lattice((n,))
    focus = (table.center()[0],)
    model = PowerLaw(1.0, 6.0) if name == "alpha6-thick" else NearestNeighbor(1.0)
    terms = build_couplings(table, model)
    psi = gaussian_packet(table, 4.0)
    if name == "nn-thin":
        psi = phase_imprint(psi, thin_phase_profile(ThinPulse(0.05, focus), table))
    else:
        terms = terms.with_diagonal(potential_profile(ThickPolynomial((0.02,), focus),
                                                      table))
    return terms.matrix(), psi.amplitudes


class TestEigenPropagator:
    @pytest.mark.parametrize("name", ["nn-thick", "nn-thin", "alpha6-thick"])
    def test_states_match_expm(self, name):
        h, psi = lens_case(name)
        times = [0.0, 0.7, 3.1, 12.5, 40.0]
        states = EigenPropagator(h).states(psi, times)
        assert states.shape == (len(times), len(psi))
        dense = h.toarray()
        for t, state in zip(times, states):
            want = scipy.linalg.expm(-1j * t * dense) @ psi
            assert np.abs(state - want).max() < 1e-12

    def test_each_time_is_what_it_gives_alone(self):
        h, psi = lens_case("nn-thick")
        prop = EigenPropagator(h)
        times = np.linspace(1.0, 9.0, 7)
        states = prop.states(psi, times)
        for t, state in zip(times, states):
            assert np.abs(prop.states(psi, [t])[0] - state).max() < 1e-14
        assert np.array_equal(prop.states(psi, times), states)

    @pytest.mark.parametrize("n", [200, propagator._EVR_ROWS])
    def test_numpy_eigh_up_to_evr_rows(self, n):
        """Up to _EVR_ROWS rows, every lens operator, the decomposition and
        the states are numpy.linalg.eigh's, bit for bit."""
        table = build_lattice((n,))
        terms = build_couplings(table, PowerLaw(1.0, 6.0)).with_diagonal(
            potential_profile(ThickPolynomial((1e-4,), ((n - 1) / 2.0,)), table))
        h = terms.matrix()
        psi = gaussian_packet(table, n / 20.0).amplitudes
        times = [0.5, 7.0]
        w, v = np.linalg.eigh(h.toarray())
        prop = EigenPropagator(h)
        assert np.array_equal(prop.energies, w)
        assert np.array_equal(prop.vectors, v)
        coef = (v.T @ psi.view(float).reshape(n, 2)).view(complex)
        coef = np.exp(-1j * np.outer(w, times)) * coef
        want = (v @ coef.view(float)).view(complex).T
        assert np.array_equal(prop.states(psi, times), want)

    @pytest.mark.parametrize("n", [80, 81, 200])
    def test_tridiagonal_chains_decompose_as_numpy_eigh(self, n, monkeypatch):
        """A nearest-neighbour lens operator and its even fold are
        tridiagonal; LAPACK's dstevd gives numpy.linalg.eigh's energies and
        vectors bit for bit, in numpy's layout."""
        calls = []
        dstevd = propagator.dstevd
        monkeypatch.setattr(propagator, "dstevd",
                            lambda d, e: calls.append(len(d)) or dstevd(d, e))
        table = build_lattice((n,))
        terms = build_couplings(table, NearestNeighbor(1.0)).with_diagonal(
            potential_profile(ThickPolynomial((1e-4,), ((n - 1) / 2.0,)), table))
        full = terms.matrix().toarray()
        even = terms._even_mirror().fold(full)
        assert even.shape == ((n + 1) // 2,) * 2
        for prop, a in ((terms.eigen(), full), (terms._even_eigen(), even)):
            w, v = np.linalg.eigh(a)
            assert np.array_equal(prop.energies, w)
            assert np.array_equal(prop.vectors, v)
            assert prop.vectors.flags.c_contiguous
        assert calls == [n, (n + 1) // 2]
        # a power-law chain is not tridiagonal: numpy's eigh
        build_couplings(table, PowerLaw(1.0, 6.0)).eigen()
        assert calls == [n, (n + 1) // 2]

    def test_mrrr_above_evr_rows_matches_dense_oracle(self, rng):
        n = propagator._EVR_ROWS + 50
        h = sp.random(n, n, density=0.01, random_state=np.random.RandomState(7),
                      format="csr")
        h = (h + h.T).tocsr() + sp.diags(rng.normal(size=n))
        psi = normalized(rng, n)
        prop = EigenPropagator(h)
        assert prop.vectors.flags.f_contiguous and prop.vectors.dtype == float
        assert np.abs(prop.energies - np.linalg.eigvalsh(h.toarray())).max() < 1e-12
        for t, state in zip([0.3, 40.0], prop.states(psi, [0.3, 40.0])):
            assert np.abs(state - dense_evolution(h, psi, t)).max() < 1e-11

    @pytest.mark.parametrize("n", [propagator._EVR_ROWS + 1, propagator._EVR_ROWS + 50])
    def test_householder_reflectors_above_evr_rows(self, n, rng, monkeypatch):
        """Above _EVR_ROWS, one dsytrd gives h = Q T Q^T and one dstevd
        decomposes T, at an odd and an even n; no eigh runs. The kept
        reflectors give Q (Q^T x) = x and carry T back to h."""
        calls = []
        dsytrd, dstevd = propagator.dsytrd, propagator.dstevd

        def spy_dsytrd(*args, **kwargs):
            out = dsytrd(*args, **kwargs)
            calls.append(("dsytrd", out[1].copy(), out[2].copy()))
            return out

        def refuse(*args, **kwargs):
            raise AssertionError("eigh ran above _EVR_ROWS")

        monkeypatch.setattr(propagator, "dsytrd", spy_dsytrd)
        monkeypatch.setattr(propagator, "dstevd",
                            lambda d, e: calls.append(("dstevd",)) or dstevd(d, e))
        monkeypatch.setattr(scipy.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        h = sp.random(n, n, density=0.01, random_state=np.random.RandomState(7),
                      format="csr")
        h = ((h + h.T).tocsr() + sp.diags(rng.normal(size=n))).toarray()
        prop = EigenPropagator(h)
        assert [c[0] for c in calls] == ["dsytrd", "dstevd"]
        _, d, e = calls[0]
        t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        x = rng.normal(size=(n, 3))
        back = prop._reflect("N", prop._reflect("T", x))
        assert np.abs(back - x).max() < 1e-12 * np.abs(x).max()
        qtq = prop._reflect("N", prop._reflect("N", t).T)
        assert np.abs(qtq - h).max() < 1e-12 * np.abs(h).max()

    def test_rejects_complex_matrices_and_wrong_states(self, rng):
        with pytest.raises(ValueError, match="real symmetric"):
            EigenPropagator(random_hermitian(6, rng))
        a = sp.csr_matrix(np.triu(rng.normal(size=(6, 6))))
        with pytest.raises(ValueError, match="real symmetric"):
            EigenPropagator(a)
        h, psi = lens_case("nn-thick")
        with pytest.raises(ValueError, match="length"):
            EigenPropagator(h).states(psi[:-1], [1.0])

    def test_asymmetry_at_rounding_passes_and_above_it_raises(self):
        """A matrix symmetric only to rounding, as a many-body even operator
        is, is decomposed; a relative skew of 1e-9 is refused."""
        h, psi = lens_case("nn-thick")
        ulp, skewed = h.copy(), h.copy()
        ulp[0, 1] = np.nextafter(h[0, 1], np.inf)
        skewed[0, 1] = h[0, 1] * (1.0 + 1e-9)
        assert ulp[0, 1] != ulp[1, 0]
        got = EigenPropagator(ulp).states(psi, [3.0])[0]
        assert np.abs(got - EigenPropagator(h).states(psi, [3.0])[0]).max() < 1e-12
        with pytest.raises(ValueError, match="differs from h.T"):
            EigenPropagator(skewed)

    @pytest.mark.parametrize("n", [200, propagator._EVR_ROWS + 50])
    def test_dense_array_decomposes_as_its_csr(self, n):
        """A dense h, as the lens optimizer folds its even operators, gives
        the CSR form's decomposition bit for bit on either driver and is
        left as it was; a skewed one is refused."""
        table = build_lattice((n,))
        h = build_couplings(table, PowerLaw(1.0, 6.0)).with_diagonal(
            potential_profile(ThickPolynomial((1e-4,), ((n - 1) / 2.0,)), table)).matrix()
        a = h.toarray()
        kept = a.copy()
        dense, csr = EigenPropagator(a), EigenPropagator(h)
        assert np.array_equal(a, kept)
        assert np.array_equal(dense.energies, csr.energies)
        assert np.array_equal(dense.vectors, csr.vectors)
        a[0, 1] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="differs from h.T"):
            EigenPropagator(a)


@pytest.mark.parametrize("z", [0.02, 6.0, 150.0, 600.0, 3000.0])
def test_bessel_table_matches_mpmath(z):
    """Miller's recurrence against arbitrary precision, on a sample of the
    kept orders and the four past the truncation, at two tolerances; each
    phase alone equals its column in a table shared with other phases."""
    mpmath.mp.dps = 20
    shared, shared_counts = _bessel_table(np.array([3.0, z, 0.0, 2.0 * z]), 2.5e-9)
    for tol in (2.5e-9, 2.5e-15):
        table, counts = _bessel_table(np.array([z]), tol)
        n = int(counts[0])
        ks = np.unique(np.r_[0:4, np.linspace(0, n - 1, 24).astype(int), n - 1:n + 4])
        want = np.array([float(mpmath.besselj(int(k), z)) for k in ks])
        assert np.abs(table[ks, 0] - want).max() <= 3e-15
        # truncation: four orders past the count below tol, the last kept not
        assert np.all(np.abs(want[-4:]) < tol)
        assert n - 1 <= z or abs(want[-5]) >= tol
        if tol == 2.5e-9:
            assert shared_counts[1] == n
            assert np.array_equal(shared[:len(table), 1], table[:, 0])
            assert np.all(shared[len(table):, 1] == 0.0)


def test_spectral_bounds_leave_the_matrix_alone(rng):
    """Unsorted indices and duplicate entries stay as the caller stored
    them; the bounds equal those of the canonical matrix."""
    h = random_hermitian(30, rng, density=0.5)
    data, indices = h.data.copy(), h.indices.copy()
    for r in range(h.shape[0]):
        row = np.arange(h.indptr[r], h.indptr[r + 1])
        mixed = rng.permutation(row)
        data[row], indices[row] = data[mixed], indices[mixed]
    unsorted = sp.csr_matrix((data, indices, h.indptr.copy()), shape=h.shape)
    # the same matrix with each entry of row 0 split in two halves
    n0 = h.indptr[1]
    dup = sp.csr_matrix((
        np.r_[h.data[:n0] / 2, h.data[:n0] / 2, h.data[n0:]],
        np.r_[h.indices[:n0], h.indices[:n0], h.indices[n0:]],
        np.r_[0, h.indptr[1:] + n0]), shape=h.shape)
    canonical = dup.copy()
    canonical.sum_duplicates()
    dup_data, dup_indices = dup.data.copy(), dup.indices.copy()
    assert spectral_bounds(unsorted) == spectral_bounds(h)
    assert spectral_bounds(dup) == spectral_bounds(canonical)
    assert np.array_equal(unsorted.data, data)
    assert np.array_equal(unsorted.indices, indices)
    assert np.array_equal(dup.data, dup_data)
    assert np.array_equal(dup.indices, dup_indices)


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
