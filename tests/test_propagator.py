import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlens.lattice import NearestNeighbor, PowerLaw, build_couplings, build_lattice
from spinlens.lens import ThickPolynomial, ThinPulse, potential_profile, thin_phase_profile
from spinlens.manybody import (build_mb_hamiltonian, enumerate_basis, even_path,
                               evolve_mb, mb_trajectory, symmetric_initial_state)
from spinlens import propagator
from spinlens.propagator import (_MAX_PHASE_PER_STEP, _STACK_NNZ, _WINDOW_BYTES,
                                 _WINDOW_PHASE, _WINDOW_TERMS, TOL_RANGE, EigenPropagator,
                                 _StepPlan, _bessel_table, expimv, expimv_batch,
                                 spectral_bounds, trajectory, window_batch)
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
        coefficient counts; a block whose half*t exceeds the per-step phase
        cap next to one-sub-step blocks; a t = 0 block; three equal blocks,
        which share one coefficient set; and one block of another dimension."""
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
        # and sub-step counts
        assert any(len(s.order) > 1 for s in plan.stacks)
        assert len({len(s.coef) for s in plan.stacks}) > 1
        assert any(s.n_sub > 1 for s in plan.stacks)
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

    # one sub-step, and three: a real first sub-step, then complex ones
    @pytest.mark.parametrize("n_sub", [1, 3])
    def test_real_block_equals_it_next_to_a_complex_one(self, lens, n_sub,
                                                        monkeypatch):
        h, rest, moving = lens
        tol, t = 1e-10, 2.5
        if n_sub > 1:
            lo, hi = spectral_bounds(h)
            monkeypatch.setattr(propagator, "_MAX_PHASE_PER_STEP", 0.5 * (hi - lo))
        alone = _StepPlan([h], [t], tol, [None])
        assert alone.stacks[0].h_scaled.dtype == np.float64
        assert alone.stacks[0].n_sub == n_sub
        (got,) = alone.apply([rest])
        want_dtype = np.float64 if n_sub == 1 else np.complex128
        assert alone.stacks[0].h_scaled.dtype == want_dtype
        mixed = _StepPlan([h, h], [t, t], tol, [None, None])
        assert len(mixed.stacks) == 1            # one stack for both
        want = mixed.apply([rest, moving])[0]
        assert mixed.stacks[0].h_scaled.dtype == np.complex128
        assert got.dtype == np.complex128
        assert np.array_equal(got, want)
        # the same through the public calls, with a float64 state too
        batched = list(expimv_batch([(h, rest, t, None), (h, moving, t, None)], tol))
        assert np.array_equal(batched[0], want)
        assert np.array_equal(expimv(h, rest.real, t, tol), want)

    def test_terms_are_float64_until_the_first_complex_state(self, lens, monkeypatch):
        h, rest, _ = lens
        lo, hi = spectral_bounds(h)
        monkeypatch.setattr(propagator, "_MAX_PHASE_PER_STEP", 0.5 * (hi - lo))
        seen = []
        prefix = propagator._row_prefix

        class Spy:
            def __init__(self, h):
                self.h = h

            def __matmul__(self, x):
                seen.append((self.h.dtype, x.dtype))
                return self.h @ x

        monkeypatch.setattr(propagator, "_row_prefix", lambda h, n: Spy(prefix(h, n)))
        plan = _StepPlan([h], [2.5], 1e-10, [None])
        assert plan.stacks[0].n_sub == 3
        plan.apply([rest])
        # (operator, term) dtypes: one real sub-step, then two complex ones
        real, cplx = (np.float64,) * 2, (np.complex128,) * 2
        n_real = seen.index(cplx)
        assert n_real > 0 and 3 * n_real == len(seen)
        assert seen[:n_real] == [real] * n_real
        assert seen[n_real:] == [cplx] * (2 * n_real)

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

    def test_block_in_a_mixed_batch_equals_block_alone(self, blocks):
        states, segments = windowed(blocks, 25)
        # the batch really mixes segment lengths and dimensions
        assert len({tuple(v) for v in segments.values()}) > 2
        for i, block in enumerate(blocks):
            alone, alone_segments = windowed([block], 25)
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
        """A block's samples and buffered terms fit its share of the budget,
        its share of the stack's nonzeros; a smaller budget gives shorter
        segments and the same states within tol."""
        tol, chains = 1e-10, blocks[:2]     # two chains of equal nonzeros
        full, segments = windowed(chains, 30, tol)
        h = chains[0][0]
        share = (h.nnz + 40) / _STACK_NNZ
        assert segments[0][0] == int(_WINDOW_BYTES * share / (16 * 40)) - _WINDOW_TERMS
        budget = int(16 * 40 * (_WINDOW_TERMS + 3.5) / share)
        monkeypatch.setattr(propagator, "_WINDOW_BYTES", budget)
        small, segments = windowed(chains, 30, tol)
        for i in range(2):
            assert segments[i] == [3] * 10
            assert np.linalg.norm(small[i] - full[i], axis=1).max() <= 10 * tol

    def test_validation(self, blocks):
        h, psi, dt, bounds = blocks[0]
        with pytest.raises(ValueError):
            list(window_batch([(h, psi[:-1], dt, bounds)], 3))
        with pytest.raises(ValueError):
            list(window_batch([(h, psi, 0.0, bounds)], 3))
        with pytest.raises(ValueError):
            list(window_batch([(h, psi, 2 * _MAX_PHASE_PER_STEP, (-1.0, 1.0))], 3))
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

    def test_rejects_complex_matrices_and_wrong_states(self, rng):
        with pytest.raises(ValueError, match="real symmetric"):
            EigenPropagator(random_hermitian(6, rng))
        h, psi = lens_case("nn-thick")
        with pytest.raises(ValueError, match="length"):
            EigenPropagator(h).states(psi[:-1], [1.0])


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
