import copy

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlens.disorder import EnsembleJob, Holes, _CleanPattern, _draws, _protocol_start, _realization_table
from spinlens.lattice import (NearestNeighbor, PowerLaw, build_couplings, build_lattice,
                              punch_holes)
from spinlens.lens import (ThickPolynomial, ThinPulse, continuum_thick, potential_profile,
                           thin_phase_profile)
from spinlens.manybody import (build_mb_hamiltonian, enumerate_basis, evolve_mb,
                               mb_trajectory, symmetric_initial_state)
from spinlens import propagator
from spinlens.propagator import (_STACK_NNZ, TOL_RANGE, EigenPropagator, _real_window_fits,
                                 EvolutionPath, _PatternPlan, _StepPlan, _bessel_table,
                                 _enclosure, _stacked_operator, evolution_path, expimv,
                                 real_window, spectral_bounds, trajectory)
from spinlens.wavepacket import evolve, gaussian_packet, phase_imprint

from conftest import dense_evolution, dst_evolution, random_hermitian


def normalized(rng, n):
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


def real_state(rng, n):
    psi = np.abs(rng.normal(size=n))
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
    of a centred nu = 2 even sector (``sector.eigen(even=True)``)."""

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
            got = expimv(sector.even_matrix, phi, z / half, tol=tol, bounds=bounds)
            want = sector.eigen(even=True).states(w * phi, [z / half])[0] / w
            assert np.linalg.norm((got - want)[mirror.orbit]) < 10 * tol

    def test_real_window_sample_matches_its_eigendecomposition(self):
        """A real start's window samples one step of phase 3.5e4 from one
        float64 recurrence, within 10 tol of the decomposition: the 420-row
        even nu = 2 sector of a 41-site chain, whose budget holds it."""
        table = build_lattice((41,))
        terms = build_couplings(table, NearestNeighbor(1.0)).with_diagonal(
            potential_profile(ThickPolynomial((0.02,), (20.0,)), table))
        basis = enumerate_basis(table, 2)
        sector = build_mb_hamiltonian(terms, basis, jz=5.0e3, table=table)
        psi = symmetric_initial_state(gaussian_packet(table, 3.0), 2, basis).amplitudes
        mirror, bounds = sector.mirror, sector.bounds()
        phi, w = psi[mirror.reps].real, mirror.weights
        half, tol = 0.5 * (bounds[1] - bounds[0]), 1e-9
        dt = 3.5e4 / half
        (got,) = real_window(sector.even_matrix, phi, dt, 1, tol, bounds)
        want = sector.eigen(even=True).states(w * phi, [dt])[0] / w
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
        path = evolution_path(sector, state.amplitudes, dt * np.arange(1, 5), tol)
        assert path.even and not path.dense
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
        """At J_z = 5e3 every step alone and the whole span go dense. The
        trajectory takes every sample from one projection of the start,
        each evolve_mb one step from the last state, so the two agree to
        rounding, not bit for bit."""
        table, terms = lens_terms
        basis = enumerate_basis(table, 2)
        sector = build_mb_hamiltonian(terms, basis, jz=5.0e3, table=table)
        state = symmetric_initial_state(gaussian_packet(table, 4.0), 2, basis)
        state.time_stamp = 0.1
        dt, tol = 0.45, 1e-9
        assert evolution_path(sector, state.amplitudes, [dt], tol).dense
        assert evolution_path(sector, state.amplitudes, dt * np.arange(1, 5), tol).dense
        steps = list(mb_trajectory(sector, state.amplitudes, dt, 4, tol=tol,
                                   t0=state.time_stamp))
        assert len(steps) == 4
        for t, amp in steps:
            state = evolve_mb(sector, state, dt, tol=tol)
            assert t == state.time_stamp
            assert np.abs(amp - state.amplitudes).max() <= 1e-11   # 3.5e-13 seen

    def test_off_centre_evolve_mb_matches_raw_trajectory(self, lens_terms):
        table, terms = lens_terms
        basis = enumerate_basis(table, 2)
        sector = build_mb_hamiltonian(terms, basis, jz=20.0, table=table)
        state = symmetric_initial_state(
            gaussian_packet(table, 4.0, center=(17.0,)), 2, basis)
        state.time_stamp = 0.1
        dt, tol = 0.45, 1e-9
        assert not evolution_path(sector, state.amplitudes, [dt], tol).even
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
    """(operator dtype, vector dtype) of every stacked matvec, in order,
    recorded through a spy on the operator each ``_Stack`` is built with
    and on its complex copy."""
    seen = []
    init = propagator._Stack.__init__

    class Spy:
        def __init__(self, h):
            self.h = h

        def __getattr__(self, name):
            return getattr(self.h, name)

        def astype(self, dtype):
            return Spy(self.h.astype(dtype))

        def __matmul__(self, x):
            seen.append((self.h.dtype, x.dtype))
            return self.h @ x

    monkeypatch.setattr(propagator._Stack, "__init__",
                        lambda self, h, *args: init(self, Spy(h), *args))
    return seen


def chain(n, diagonal):
    """Nearest-neighbour chain Hamiltonian diag(eps) - J as canonical CSR."""
    off = np.ones(n - 1)
    return (sp.diags(diagonal) - sp.diags([off, off], [-1, 1])).tocsr()


def canonical(h, dtype):
    """h as ``_stacked_operator`` reads it: its real part for a float
    ``dtype``, and in canonical form (duplicates summed in storage order,
    zero sums dropped, sorted)."""
    if dtype is float and np.iscomplexobj(h.data):
        h = h.real
    if not h.has_canonical_format:
        h = h + sp.csr_matrix(h.shape)
        h.sort_indices()
    return h


def shared_pattern(hs, dtype):
    """The union of the canonical patterns of the blocks ``hs`` as (cols,
    indptr), and each block's values on it, (blocks, entries) of ``dtype``,
    0.0 where a block has no entry: the blocks as a disorder job writes its
    realizations on its clean pattern."""
    blocks = [canonical(h, dtype) for h in hs]
    n = blocks[0].shape[0]
    keys = [np.repeat(np.arange(n), np.diff(b.indptr)) * n + b.indices[:b.nnz] for b in blocks]
    union = np.unique(np.concatenate(keys))
    values = np.zeros((len(blocks), union.size), dtype)
    for row, b, k in zip(values, blocks, keys):
        row[np.searchsorted(union, k)] = b.data[:b.nnz]
    return ((union % n).astype(np.int32),
            np.searchsorted(union // n, np.arange(n + 1)).astype(np.int32), values)


def written_stack(hs, centers, halves, dtype):
    """2 h~ of the blocks ``hs`` stacked: one block by
    ``_stacked_operator``, several written on their shared pattern by
    ``_Layout.write``."""
    if len(hs) == 1:
        return _stacked_operator(hs[0], centers[0], halves[0], dtype)
    cols, indptr, values = shared_pattern(hs, dtype)
    return propagator._Layout(cols, indptr).write(values, centers, halves, dtype)


def pattern_plan(hs, t, tol):
    """A ``_PatternPlan`` of the real blocks ``hs`` for time ``t`` on their
    shared pattern, and the blocks' values to apply it to."""
    cols, indptr, values = shared_pattern(hs, float)
    return _PatternPlan(cols, indptr, t, tol), values


def coefficient_counts(stack):
    """The coefficient count of each block of ``stack``: its table is zero
    past each block's own count."""
    return [int(np.flatnonzero(stack.coef[:, j, 0])[-1]) + 1
            for j in range(stack.coef.shape[1])]


@pytest.fixture
def stacks(monkeypatch):
    """The ``_Stack`` of every chunk a plan applies, in order."""
    made = []
    init = propagator._Stack.__init__

    def spy(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(propagator._Stack, "__init__", spy)
    return made


class TestBatchedPlan:
    """Blocks stacked on one shared pattern (``_PatternPlan``, as a disorder
    job stacks its realizations) give each block exactly what it gives
    alone, i.e. ``expimv``."""

    T = 1.7

    @pytest.fixture
    def blocks(self, rng):
        """(h, psi, bounds) of chains of one pattern: different diagonals,
        so different bounds and coefficient counts; a block of phase
        half * T about 4e4 next to short ones; and three equal blocks, which
        share one coefficient set."""
        n, x = 24, np.arange(24) - 11.5
        out = []
        for scale in (0.01, 0.3, 2.0, 40.0):
            h = chain(n, scale * x**2 + rng.normal(size=n))
            out.append((h, normalized(rng, n), spectral_bounds(h)))
        big = chain(n, np.linspace(-2.4e4, 2.4e4, n))   # half * T ~ 4e4
        out.append((big, normalized(rng, n), spectral_bounds(big)))
        shared = chain(n, 0.1 * x**2)
        for _ in range(3):
            out.append((shared, normalized(rng, n), spectral_bounds(shared)))
        return out

    def apply(self, blocks, tol=1e-10, t=T):
        hs, psis, bounds = zip(*blocks)
        plan, values = pattern_plan(hs, t, tol)
        return plan, plan.apply(values, list(bounds), np.stack(psis))

    def test_each_block_equals_expimv(self, blocks, stacks):
        tol = 1e-10
        plan, got = self.apply(blocks, tol)
        # the cases really share one stack, with different coefficient counts
        (stack,) = stacks
        assert len({len(c) for c in plan.coef_sets.values()}) > 1
        assert stack.coef.shape[1] == len(blocks)
        assert got.shape == (len(blocks), 24)
        for (h, psi, bounds), row in zip(blocks, got):
            assert np.array_equal(row, expimv(h, psi, self.T, tol=tol, bounds=bounds))

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_multi_block_stack_equals_lone_blocks(self, rng, stacks, real):
        """One stack of blocks whose coefficient counts all differ, every
        block run to the longest, gives each block the bits of its
        lone-block plan, with float64 terms from a real start and complex
        ones else."""
        n, x, tol = 24, np.arange(24) - 11.5, 1e-10
        hs = [chain(n, scale * x**2) for scale in (0.01, 0.3, 2.0, 8.0, 20.0)]
        blocks = [(h, rng.normal(size=n) if real else normalized(rng, n), spectral_bounds(h))
                  for h in hs]
        _, got = self.apply(blocks, tol)
        (stack,) = stacks
        counts = coefficient_counts(stack)
        assert len(set(counts)) == len(hs) and max(counts) == len(stack.coef)
        assert stack.h_scaled.dtype == (np.float64 if real else np.complex128)
        for block, row in zip(blocks, got):
            assert np.array_equal(row, self.apply([block], tol)[1][0])
            assert np.array_equal(row, expimv(block[0], block[1], self.T, tol, block[2]))

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_draw_order_stack_equals_lone_blocks(self, stacks, real):
        """Hole realizations in draw order, each with three hole rows of
        zero amplitude, whose coefficient counts lie far apart with the
        longest last: each row is bit for bit its lone ``expimv``, and the
        hole rows stay zero."""
        hs, psis, bounds = map(list, zip(*hole_ensemble()))
        # widened enclosures: phases of about 14, 89, 16 and 7 500
        bounds = [(lo - w, hi + w) for w, (lo, hi) in zip((0.0, 30.0, 1.0, 3e3), bounds)]
        if not real:
            psis = [psi * np.exp(0.3j * np.arange(psi.size)) for psi in psis]
        t, tol = 2.5, 1e-10
        plan, values = pattern_plan(hs, t, tol)
        got = plan.apply(values, bounds, np.stack(psis))
        (stack,) = stacks
        counts = coefficient_counts(stack)
        assert counts[-1] == len(stack.coef) > 10 * max(counts[:-1])
        assert len(set(counts)) == len(hs)
        assert stack.h_scaled.dtype == (np.float64 if real else np.complex128)
        for h, psi, b, row in zip(hs, psis, bounds, got):
            holes = np.flatnonzero(psi == 0.0)
            assert holes.size == 3 and not row[holes].any()
            assert _bits(row) == _bits(expimv(h, psi, t, tol, b))

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_uniform_stack_equals_lone_blocks(self, stacks, real):
        """Hole realizations given one enclosure share one coefficient set
        and one phase, so their stack multiplies by scalars on the flat
        state; each row is still bit for bit its lone ``expimv``, from a
        real start, or from a thin lens's imprint, which upcasts the
        operator."""
        hs, psis, bounds = map(list, zip(*hole_ensemble(5)))
        enclosure = (min(lo for lo, _ in bounds), max(hi for _, hi in bounds))
        if not real:
            psis = [psi * np.exp(-0.02j * (np.arange(psi.size) - 30.0) ** 2) for psi in psis]
        t, tol = 2.5, 1e-10
        plan, values = pattern_plan(hs, t, tol)
        got = plan.apply(values, [enclosure] * len(hs), np.stack(psis))
        (stack,) = stacks
        assert stack.uniform and len(plan.coef_sets) == 1
        assert stack.h_scaled.dtype == (np.float64 if real else np.complex128)
        for h, psi, row in zip(hs, psis, got):
            assert _bits(row) == _bits(expimv(h, psi, t, tol, enclosure))

    @pytest.mark.parametrize("shift", ["two_phases", "shared_half"])
    def test_mixed_stack_takes_the_column_path(self, stacks, shift):
        """Blocks of two enclosures, or of one half-width about two
        centres (one coefficient set, two phases), multiply by columns;
        each row is bit for bit its lone ``expimv``."""
        hs, psis, bounds = map(list, zip(*hole_ensemble()))
        lo, hi = min(lo for lo, _ in bounds), max(hi for _, hi in bounds)
        other = (lo - 3.0, hi + 5.0) if shift == "two_phases" else (lo + 0.5, hi + 0.5)
        bounds = [(lo, hi), other, (lo, hi), other]
        t, tol = 2.5, 1e-10
        plan, values = pattern_plan(hs, t, tol)
        got = plan.apply(values, bounds, np.stack(psis))
        (stack,) = stacks
        assert not stack.uniform
        assert len(plan.coef_sets) == (2 if shift == "two_phases" else 1)
        for h, psi, b, row in zip(hs, psis, bounds, got):
            assert _bits(row) == _bits(expimv(h, psi, t, tol, b))

    def test_t0_block_is_a_copy(self, blocks):
        psis = np.stack([psi for _, psi, _ in blocks])
        _, out = self.apply(blocks, t=0.0)
        assert np.array_equal(out, psis) and not np.shares_memory(out, psis)

    def test_equal_blocks_share_one_coefficient_set(self, blocks, monkeypatch):
        """Equal phases share a set, and a plan applied again builds none."""
        calls = []
        real = propagator._chebyshev_coeffs

        def counted(zs, tol):
            calls.extend((z, tol) for z in zs)
            return real(zs, tol)

        monkeypatch.setattr(propagator, "_chebyshev_coeffs", counted)
        plan, first = self.apply(blocks)
        assert len(calls) == len(set(calls)) == len(blocks) - 2
        hs, psis, bounds = zip(*blocks)
        again = plan.apply(shared_pattern(hs, float)[2], list(bounds), np.stack(psis))
        assert len(calls) == len(blocks) - 2 and np.array_equal(again, first)

    def test_each_block_matches_dense_expm(self, blocks):
        for (h, psi, _), got in zip(blocks, self.apply(blocks, 1e-12)[1]):
            want = scipy.linalg.expm(-1j * self.T * h.toarray()) @ psi
            assert np.linalg.norm(got - want) < 1e-8

    def test_caller_arrays_are_not_modified(self, blocks):
        before = [(h.data.copy(), h.indices.copy(), h.indptr.copy(), psi.copy())
                  for h, psi, _ in blocks]
        hs, psis, bounds = zip(*blocks)
        plan, values = pattern_plan(hs, self.T, 1e-10)
        stacked, kept = np.stack(psis), values.copy()
        plan.apply(values, list(bounds), stacked)
        assert np.array_equal(values, kept) and np.array_equal(stacked, np.stack(psis))
        for h, psi, bounds in blocks:
            expimv(h, psi, self.T, bounds=bounds)
            list(trajectory(h, psi, self.T, 2, bounds=bounds))
        for (h, psi, _), (data, indices, indptr, psi0) in zip(blocks, before):
            assert h.dtype == np.float64
            assert np.array_equal(h.data, data)
            assert np.array_equal(h.indices, indices)
            assert np.array_equal(h.indptr, indptr)
            assert np.array_equal(psi, psi0)

    def test_order_of_stored_entries_does_not_matter(self, rng):
        """Each row sums in canonical (sorted) order, so a matrix with
        unsorted indices, such as a sparse product gives, propagates bit for
        bit like its sorted copy."""
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
            assert np.array_equal(expimv(h_rev, psi, 2.5, bounds=bounds),
                                  expimv(h, psi, 2.5, bounds=bounds))
            assert not h_rev.has_sorted_indices

    def test_stacks_stay_under_the_nonzero_budget(self):
        """A disorder job draws its realizations in chunks of at most
        ``_STACK_NNZ`` entries, the clean pattern's entries plus its rows
        per realization, and a pattern over the budget alone one at a
        time."""
        design = ThickPolynomial((1e-4,), (150.0,))
        for n, count in ((300, 120), (_STACK_NNZ // 2, 2)):
            job = EnsembleJob(table=build_lattice((n,)), model=NearestNeighbor(1.0),
                              design=design, sigma0=20.0, duration=0.5, kind=Holes(3),
                              realizations=count, master_seed=1)
            pattern = _CleanPattern(job)
            sizes = [len(active) for active, _ in _draws(job, pattern, count)]
            assert sum(sizes) == count and len(sizes) > 1
            per = pattern.data.size + n
            assert all(size * per <= _STACK_NNZ or size == 1 for size in sizes)

    def test_state_length_checked(self, blocks):
        h, psi, bounds = blocks[0]
        with pytest.raises(ValueError):
            expimv(h, psi[:-1], self.T, bounds=bounds)
        with pytest.raises(ValueError):
            next(trajectory(h, psi[:-1], self.T, 2, bounds=bounds))


def hole_ensemble(n_real=4):
    """Hole realizations of a thick lens chain, assembled as the disorder
    module's protocol assembles them: [(h, real packet, bounds)]. A hole's
    row has lost its diagonal slot."""
    table = build_lattice((61,))
    design = ThickPolynomial((6.0 ** (-8.0 / 3.0),), (30.0,))
    job = EnsembleJob(table=table, model=NearestNeighbor(1.0), design=design,
                      sigma0=6.0, duration=1.0, kind=Holes(3),
                      realizations=n_real, master_seed=5)
    out = []
    for r in range(n_real):
        realization = _realization_table(job, r)
        terms, packet = _protocol_start(realization, job)
        h, psi = terms.matrix(), packet.amplitudes
        holes = np.flatnonzero(~realization.active)
        assert len(holes) == 3 and not np.diff(h.indptr)[holes].any()
        assert not psi.imag.any()
        out.append((h, psi.real.copy(), terms.bounds()))
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


def entries(stack):
    """A stacked operator's entries as canonical CSR, whichever storage the
    byte rule chose: a DIA stack's slots that hold 0.0 are left out, and
    every other slot is kept bit for bit."""
    return stack if stack.format == "csr" else stack.tocsr()


def storage_rule(hs, dtype) -> str:
    """The storage the byte rule picks for a stack of the blocks ``hs`` as
    ``dtype``:
    DIA when 8 x diagonals x rows <= 12 x entries + 4 x rows per block,
    with the entries and the diagonals (the distinct offsets col - row, and
    the main one) those of the union of the canonical blocks' patterns,
    stored zeros included, with a diagonal entry in every row."""
    cols, indptr, _ = shared_pattern(hs, dtype)
    n = indptr.size - 1
    offsets = cols.astype(np.int64) - np.repeat(np.arange(n), np.diff(indptr))
    entries = cols.size - np.count_nonzero(offsets == 0) + n
    return "dia" if 8 * len(set(offsets.tolist()) | {0}) * n <= 12 * entries + 4 * n else "csr"


def assert_storage(stack, hs):
    """``stack`` follows the byte rule, a DIA one with ascending offsets."""
    assert stack.format == storage_rule(hs, float if stack.dtype == np.float64 else complex)
    if stack.format == "dia":
        assert np.all(np.diff(stack.offsets) > 0) and 0 in stack.offsets
        assert stack.data.shape == (stack.offsets.size, stack.shape[0])


def stacked_block(stack, j, dim):
    """(data, indices, indptr) of the j-th diagonal block of a CSR stack."""
    lo, hi = stack.indptr[j * dim], stack.indptr[(j + 1) * dim]
    return (stack.data[lo:hi], stack.indices[lo:hi] - j * dim,
            stack.indptr[j * dim:(j + 1) * dim + 1] - lo)


class TestStackedOperator:
    """A stack is written by array operations on all its blocks at once
    (``_Layout.write``), and each block is bit for bit the one built alone
    (``_stacked_operator``), whichever storage the byte rule picked."""

    @staticmethod
    def assert_blocks_built_alone(hs, bounds, dtype):
        dim = hs[0].shape[0]
        centers, halves = zip(*(_enclosure(h, b) for h, b in zip(hs, bounds)))
        got = written_stack(hs, centers, halves, dtype)
        stack = entries(got)
        assert got.dtype == np.dtype(dtype) and stack.has_canonical_format
        assert_storage(got, hs)
        for j, (h, c, half) in enumerate(zip(hs, centers, halves)):
            alone = entries(_stacked_operator(h, c, half, dtype))
            want = lone_scaled(h, c, half, dtype)
            for got in (stacked_block(stack, j, dim), (alone.data, alone.indices, alone.indptr)):
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
        """A lone block is shifted from h itself, not a copy of its arrays,
        and h is left as it was."""
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
    """A block or a stack is shifted and scaled in one pass
    (``_stacked_operator``, ``_Layout.write``); every entry is bit for bit
    scipy's sparse difference, whichever storage the byte rule picked."""

    @staticmethod
    def assert_stack_is_the_sparse_difference(hs, bounds, dtype):
        dim = hs[0].shape[0]
        kept = [[a.copy() for a in (h.data, h.indices, h.indptr)] for h in hs]
        centers, halves = zip(*(_enclosure(h, b) for h, b in zip(hs, bounds)))
        stack = written_stack(hs, centers, halves, dtype)
        got = entries(stack)
        want = sparse_stacked(hs, dim, centers, halves, dtype)
        for attr in ("indptr", "indices", "data"):
            g, w = getattr(got, attr), getattr(want, attr)
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), attr
        assert_storage(stack, hs)
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
        """A lone block gets new values, in a dtype of their own."""
        h = chain(50, np.r_[rng.normal(size=25), np.zeros(25)])
        got = self.assert_stack_is_the_sparse_difference([h], [None], dtype)
        assert got.data is not h.data and got.dtype == np.dtype(dtype)


def _scrambled(h, rng):
    """h with some entries stored twice, as 3/4 and 1/4 of their value, and
    every row's entries in a shuffled order: not canonical."""
    rows = np.repeat(np.arange(h.shape[0]), np.diff(h.indptr))
    cols, vals = h.indices.copy(), h.data.copy()
    twice = rng.choice(h.nnz, size=min(3, h.nnz), replace=False)
    vals[twice] *= 0.75
    rows, cols = np.r_[rows, rows[twice]], np.r_[cols, cols[twice]]
    vals = np.r_[vals, h.data[twice] * 0.25]
    order = np.lexsort((rng.random(rows.size), rows))
    out = sp.csr_matrix((vals[order], cols[order], np.searchsorted(rows[order], np.arange(
        h.shape[0] + 1))), shape=h.shape)
    assert not out.has_canonical_format
    return out


@st.composite
def _stack_cases(draw):
    """(blocks, dim, centres, halves, dtype, start states) of one stack: a
    chain or a plane with nearest-neighbour or cut-off power-law hopping,
    holes that leave rows empty, on-site energies of 0 (no diagonal slot)
    or of the block's centre (0.0 after the shift), blocks that share the
    first one's index arrays with values of their own (zeros among them),
    blocks with unsorted and duplicate entries, widely spread random
    blocks, a block with an imaginary part; real or complex states."""
    extents = draw(st.sampled_from([(draw(st.integers(2, 40)),),
                                    (draw(st.integers(2, 7)), draw(st.integers(2, 7)))]))
    table = build_lattice(extents)
    n = table.n_sites
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 4))
    blocks, centers, halves = [], [], []
    for j in range(m):
        center = draw(st.sampled_from([0.0, 0.5, -1.25]))
        half = draw(st.sampled_from([1.0, 0.37, 3.0]))
        kind = draw(st.sampled_from(["lattice"] * 6 + ["shared", "shared", "random"]))
        if kind == "shared" and j:
            h = copy.copy(blocks[0])
            h.data = np.where(rng.random(h.nnz) < 0.1, 0.0, rng.normal(size=h.nnz))
        elif kind == "random":
            h = random_hermitian(n, rng, density=0.2).real.tocsr()
        else:
            holes = rng.choice(n, size=draw(st.integers(0, min(3, n - 1))), replace=False)
            t = punch_holes(table, [tuple(table.labels[i]) for i in holes])
            model = draw(st.sampled_from([NearestNeighbor(1.0), NearestNeighbor(1.0),
                                          PowerLaw(1.0, 3.0, 2.0), PowerLaw(1.0, 6.0, 3.0)]))
            onsite = rng.choice([0.0, center, rng.normal()], size=n)
            h = build_couplings(t, model, lens_diagonal=onsite).matrix()
            if draw(st.sampled_from([False, False, False, True])) and h.nnz:
                h = _scrambled(h, rng)
        blocks.append(h)
        centers.append(center)
        halves.append(half)
    dtype = float
    if draw(st.sampled_from([False, False, False, True])) and n > 1:
        # an imaginary hopping between neighbouring rows
        v = rng.normal(size=n - 1)
        j = draw(st.integers(0, m - 1))
        blocks[j] = (blocks[j] + 1j * (sp.diags(v, 1) - sp.diags(v, -1))).tocsr()
        dtype = complex
    x = rng.normal(size=m * n)
    if draw(st.booleans()):
        x = x + 1j * rng.normal(size=m * n)
    return blocks, n, centers, halves, dtype, x


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


class TestTwoStorages:
    """The operator is stored by diagonals when that takes no more bytes
    than CSR, and every product of the whole stack, which each Chebyshev
    term multiplies by, is bit for bit the CSR product."""

    @staticmethod
    def assert_products_are_the_csr_ones(hs, dim, centers, halves, dtype, x):
        op = written_stack(hs, centers, halves, dtype)
        want = sparse_stacked(hs, dim, centers, halves, dtype)
        assert_storage(op, hs)
        if np.iscomplexobj(x) and op.dtype == np.float64:
            # as _Stack.apply meets its first complex state
            op, want = op.astype(complex), want.astype(complex)
        assert _bits(op @ x) == _bits(want @ x)
        return op

    @settings(max_examples=150, deadline=None)
    @given(case=_stack_cases())
    def test_every_stack_product_is_the_csr_one(self, case):
        self.assert_products_are_the_csr_ones(*case)

    def test_diagonals_are_added_in_ascending_order(self):
        """Row 0 holds 1e16, -1e16 and 1 on the diagonals 0, 1 and 2: in
        column order its sum is 2 (2e16 - 2e16 + 2 after the doubling), in
        any other it is 0."""
        h = sp.csr_matrix(np.array([[1e16, -1e16, 1.0],
                                    [0.0, 1.0, 1.0],
                                    [0.0, 0.0, 1.0]]))
        op = self.assert_products_are_the_csr_ones([h], 3, [0.0], [1.0], float, np.ones(3))
        assert op.format == "dia" and list(op.offsets) == [0, 1, 2]
        assert (op @ np.ones(3))[0] == 2.0

    def test_blockade_sectors_stay_csr(self, nu3_sectors):
        """The benchmark's nu = 2 (61 sites, J_z = 1500) and nu = 3 sectors,
        full and even: their entries spread over far more diagonals than
        rows' worth of bytes allows."""
        table = build_lattice((61,))
        terms = build_couplings(table, NearestNeighbor(1.0)).with_diagonal(
            potential_profile(ThickPolynomial((0.01,), tuple(table.center())), table))
        sector = build_mb_hamiltonian(terms, enumerate_basis(table, 2), jz=1500.0, table=table)
        ops = [sector.csr(), sector.even_matrix] + [h for h, _, _ in nu3_sectors.values()]
        for h in ops:
            center, half = _enclosure(h, None)
            assert _stacked_operator(h, center, half, float).format == "csr"


class TestRealPath:
    """A stack whose operator and states are real runs its terms in float64
    (``propagator._Stack``), bit for bit the complex path."""

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

    @staticmethod
    def mixed(hs, bounds, t, tol):
        """A plan that steps the real blocks ``hs`` beside a complex block, a
        moving packet on the first of them: one stack, one complex
        accumulator. Returns apply(states) for the real blocks' states."""
        plan, values = pattern_plan(list(hs) + [hs[0]], t, tol)
        bounds = list(bounds) + [bounds[0]]

        def apply(psis, moving):
            return plan.apply(values, bounds, np.stack(list(psis) + [moving]))

        return apply

    # one step, and three: a real first step, then complex ones
    @pytest.mark.parametrize("n_steps", [1, 3])
    def test_real_block_equals_it_next_to_a_complex_one(self, lens, stacks, n_steps):
        h, rest, moving = lens
        tol, t, bounds = 1e-10, 2.5, spectral_bounds(h)
        alone = _StepPlan(h, t, tol, None)
        assert alone.stack.h_scaled.dtype == np.float64
        mixed = self.mixed([h], [bounds], t, tol)
        got, want = rest, [rest, moving]
        for _ in range(n_steps):
            got = alone.apply(got)
            want = mixed(want[:1], want[1])
        assert stacks[-1].coef.shape[1] == 2             # one stack for both
        assert alone.stack.h_scaled.dtype == (
            np.float64 if n_steps == 1 else np.complex128)
        assert stacks[-1].h_scaled.dtype == np.complex128
        assert got.dtype == np.complex128
        assert np.array_equal(got, want[0])
        if n_steps == 1:
            # the same through the public call, with a float64 state too
            assert np.array_equal(expimv(h, rest.real, t, tol), want[0])

    @pytest.mark.parametrize("n_steps", [1, 3])
    def test_real_ensemble_stack_equals_it_next_to_a_complex_block(self, stacks, n_steps):
        """Hole realizations of distinct phases and coefficient counts, one
        float64 stack with two accumulators, equal bit for bit to the same
        blocks stepped in one complex accumulator beside a complex block."""
        hs, psis, bounds = map(list, zip(*hole_ensemble()))
        # widened enclosures, so every block has a phase of its own
        bounds = [(lo - j, hi + 2 * j) for j, (lo, hi) in enumerate(bounds)]
        t, tol = 2.5, 1e-10
        plan, values = pattern_plan(hs, t, tol)
        got = plan.apply(values, bounds, np.stack(psis))
        (stack,) = stacks
        assert stack.h_scaled.dtype == np.float64
        assert len(set(coefficient_counts(stack))) == len(hs)
        # a moving packet on the first realization: a complex state
        mixed = self.mixed(hs, bounds, t, tol)
        want = mixed(psis, hs[0] @ psis[0] * 1j + psis[0])
        for _ in range(n_steps - 1):
            got = plan.apply(values, bounds, got)
            want = mixed(want[:-1], want[-1])
        assert stacks[-1].h_scaled.dtype == np.complex128
        for g, w in zip(got, want):
            assert g.dtype == np.complex128
            assert np.array_equal(g, w)
        if n_steps == 1:
            for h, psi, b, g in zip(hs, psis, bounds, got):
                assert np.array_equal(expimv(h, psi, t, tol, b), g)

    def test_terms_are_float64_until_the_first_complex_state(self, lens, matvec_dtypes):
        """A step of phase past 3e4 is one expansion: from a real state every
        matvec is float64, and the result is the mixed complex stack's. The
        next step, from that complex state, runs in complex128."""
        h, rest, moving = lens
        lo, hi = spectral_bounds(h)
        tol, t = 1e-10, 3.2e4 / (0.5 * (hi - lo))
        seen = matvec_dtypes
        plan = _StepPlan(h, t, tol, None)
        assert plan.stack.h_scaled.format == "dia"      # a banded chain
        got = plan.apply(rest)
        # (operator, term) dtypes: one matvec per term past T_0
        n_terms = len(plan.stack.coef) - 1
        assert len(seen) == n_terms > 3.2e4
        assert seen == [(np.float64, np.float64)] * n_terms
        want = self.mixed([h], [(lo, hi)], t, tol)([rest], moving)[0]
        assert np.array_equal(got, want)
        seen.clear()
        plan.apply(got)
        assert seen == [(np.complex128, np.complex128)] * n_terms

    def test_a_reused_plan_switches_its_operator_once(self, lens):
        """As :func:`trajectory` reuses its plan: a real first step, then
        complex ones, each what ``expimv`` gives."""
        h, rest, _ = lens
        step = _StepPlan(h, 0.7, 1e-10, None)
        psi = step.apply(rest)
        assert step.stack.h_scaled.dtype == np.float64
        for _ in range(2):
            psi = step.apply(psi)
            assert step.stack.h_scaled.dtype == np.complex128
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
            plan = _StepPlan(h, t, tol, None)
            assert plan.stack.h_scaled.dtype == np.complex128
            got = plan.apply(psi)
            assert np.linalg.norm(got - dense_evolution(h, psi, t)) < 10 * tol

    def test_complex_dtype_with_zero_imaginary_part_is_real(self, lens):
        h, rest, _ = lens
        hc = h.astype(complex)
        plan = _StepPlan(hc, 2.5, 1e-10, None)
        assert plan.stack.h_scaled.dtype == np.float64
        assert np.array_equal(plan.apply(rest), expimv(h, rest, 2.5))

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
        out[f"nu3_n{n}"] = (sector.even_matrix, sector.bounds(),
                            continuum_thick(0.01, 8.0).focal_time / 8)
    assert [h.shape[0] for h, _, _ in out.values()] == [10425, 18010]
    return out


class TestWindow:
    """Samples at dt, ..., n dt of one real block from one float64
    recurrence (``propagator.real_window``)."""

    @pytest.fixture
    def blocks(self, rng):
        """(h, psi, dt, bounds), all real: chains with different diagonals,
        so different phases per sample; a negative dt; a block of phase 30
        per sample; one of another dimension."""
        n, x = 40, np.arange(40) - 19.5
        out = []
        for scale in (0.01, 0.3, 2.0):
            h = chain(n, scale * x**2 + rng.normal(size=n))
            out.append((h, real_state(rng, n), 0.37, None))
        h = chain(n, 0.1 * x**2)
        out.append((h, real_state(rng, n), -0.21, spectral_bounds(h)))
        big = chain(n, np.linspace(-2000.0, 2000.0, n))
        out.append((big, real_state(rng, n), 0.015, None))
        out.append((chain(9, rng.normal(size=9)), real_state(rng, 9), 0.5, None))
        return out

    def test_matches_dense_expm(self, blocks):
        tol, n_samples = 1e-10, 4
        for h, psi, dt, bounds in blocks:
            states = real_window(h, psi, dt, n_samples, tol, bounds)
            assert states.shape == (n_samples, h.shape[0])
            for j, got in enumerate(states, start=1):
                want = scipy.linalg.expm(-1j * dt * j * h.toarray()) @ psi
                assert np.linalg.norm(got - want) <= 10 * tol

    def test_matches_trajectory(self, blocks):
        """Within 10 tol per step the trajectory takes to the sample."""
        tol, n_samples = 1e-10, 4
        for h, psi, dt, bounds in blocks:
            states = real_window(h, psi, dt, n_samples, tol, bounds)
            steps = [amp for _, amp in trajectory(h, psi, dt, n_samples, tol, bounds)]
            gaps = np.linalg.norm(states - steps, axis=1)
            assert np.all(gaps <= 10 * tol * np.arange(1, n_samples + 1))

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
        """A sample step has no upper bound: one sample of phase 3.2e4, which
        a 600-site chain's budget holds, is one expansion."""
        n = 600
        h = chain(n, np.linspace(-1000.0, 1000.0, n))
        psi = real_state(rng, n)
        lo, hi = spectral_bounds(h)
        dt, tol = 3.2e4 / (0.5 * (hi - lo)), 1e-10
        assert not _real_window_fits(h, (lo, hi), dt, 2)
        (got,) = real_window(h, psi, dt, 1, tol)
        assert np.linalg.norm(got - dense_evolution(h, psi, dt)) <= 10 * tol

    def test_real_start_is_one_segment_within_tol_of_dense(self, blocks):
        """Each block's window holds as many samples as its budget allows
        (at most 40), every one within 10 tol of the exact state."""
        tol = 1e-10
        for h, psi, dt, bounds in blocks:
            bounds = bounds or spectral_bounds(h)
            n_samples = max(n for n in range(1, 41) if _real_window_fits(h, bounds, dt, n))
            states = real_window(h, psi, dt, n_samples, tol, bounds)
            for j, got in enumerate(states, start=1):
                assert np.linalg.norm(got - dense_evolution(h, psi, j * dt)) <= 10 * tol

    def test_real_start_runs_every_matvec_in_float64(self, blocks, monkeypatch):
        seen = []
        stacked = propagator._stacked_operator

        class Spy:
            def __init__(self, h):
                self.h = h

            def __matmul__(self, x):
                seen.append((self.h.dtype, x.dtype))
                return self.h @ x

        monkeypatch.setattr(propagator, "_stacked_operator",
                            lambda *args: Spy(stacked(*args)))
        h, psi, dt, bounds = blocks[0]
        real_window(h, psi.astype(complex), dt, 12, bounds=bounds)
        assert len(seen) > 12
        assert seen == [(np.float64, np.float64)] * len(seen)

    def test_complex_hamiltonian_raises(self, blocks):
        h, psi, dt, bounds = blocks[0]
        h = h.astype(complex)
        real_window(h, psi, dt, 3, bounds=bounds)   # a zero imaginary part is real
        h[0, 1] += 1e-3j
        h[1, 0] -= 1e-3j
        with pytest.raises(ValueError, match="real h"):
            real_window(h, psi, dt, 3, bounds=bounds)

    def test_complex_start_raises(self, blocks):
        h, psi, dt, bounds = blocks[0]
        with pytest.raises(ValueError, match="real start"):
            real_window(h, psi * np.exp(0.1j * np.arange(psi.size)), dt, 3, bounds=bounds)

    def test_span_over_its_budget_raises(self, blocks):
        h, psi, dt, bounds = blocks[1]
        bounds = spectral_bounds(h)
        fits = max(n for n in range(1, 41) if _real_window_fits(h, bounds, dt, n))
        assert fits < 40
        real_window(h, psi, dt, fits, bounds=bounds)
        with pytest.raises(ValueError, match="budget"):
            real_window(h, psi, dt, fits + 1, bounds=bounds)

    def test_validation(self, blocks):
        h, psi, dt, bounds = blocks[0]
        with pytest.raises(ValueError):
            real_window(h, psi[:-1], dt, 3, bounds=bounds)
        with pytest.raises(ValueError):
            real_window(h, psi, 0.0, 3, bounds=bounds)
        with pytest.raises(ValueError):
            real_window(h, psi, dt, 0, bounds=bounds)
        with pytest.raises(ValueError):
            real_window(h, psi, dt, 3, tol=1e-3, bounds=bounds)


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
        vectors bit for bit, in numpy's layout. EigenPropagator imports
        LAPACK's routines when it runs, so the spy sits on scipy's module."""
        calls = []
        dstevd = scipy.linalg.lapack.dstevd
        monkeypatch.setattr(scipy.linalg.lapack, "dstevd",
                            lambda d, e: calls.append(len(d)) or dstevd(d, e))
        table = build_lattice((n,))
        terms = build_couplings(table, NearestNeighbor(1.0)).with_diagonal(
            potential_profile(ThickPolynomial((1e-4,), ((n - 1) / 2.0,)), table))
        full = terms.matrix().toarray()
        even = terms.mirror.fold(full)
        assert even.shape == ((n + 1) // 2,) * 2
        for prop, a in ((terms.eigen(), full), (terms.eigen(even=True), even)):
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
        dsytrd, dstevd = scipy.linalg.lapack.dsytrd, scipy.linalg.lapack.dstevd

        def spy_dsytrd(*args, **kwargs):
            out = dsytrd(*args, **kwargs)
            calls.append(("dsytrd", out[1].copy(), out[2].copy()))
            return out

        def refuse(*args, **kwargs):
            raise AssertionError("eigh ran above _EVR_ROWS")

        monkeypatch.setattr(scipy.linalg.lapack, "dsytrd", spy_dsytrd)
        monkeypatch.setattr(scipy.linalg.lapack, "dstevd",
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


def _bounds_by_abs_sum(h):
    """The Gershgorin interval from abs(h).sum(axis=1), |h| built as a
    sparse matrix (on a copy where h is not canonical, which abs would
    put in canonical form in place)."""
    d = h.diagonal().real
    absh = abs(h if h.has_canonical_format else h.copy())
    radii = np.asarray(absh.sum(axis=1)).ravel() - np.abs(h.diagonal())
    return float((d - radii).min()), float((d + radii).max())


def _csr_of_kind(kind, rng):
    """A 40-row CSR with entries over many scales: real and canonical,
    complex, with each row's entries permuted, with entries split into
    duplicates (three of them at some places), or with empty rows (no
    diagonal either)."""
    n = 40
    a = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-6, 6, (n, n))
    a = np.where(rng.random((n, n)) < 0.3, a, 0.0)
    if kind == "complex":
        a = a + 1j * np.where(a != 0.0, rng.normal(size=(n, n)), 0.0)
    if kind == "empty rows":
        a[::3] = 0.0
    h = sp.csr_matrix(a)
    if kind == "unsorted":
        order = np.concatenate([h.indptr[r] + rng.permutation(h.indptr[r + 1] - h.indptr[r])
                                for r in range(n)])
        h = sp.csr_matrix((h.data[order], h.indices[order], h.indptr), shape=h.shape)
    if kind == "duplicates":
        # every entry in three parts, stored in a mixed order
        rows = np.repeat(np.arange(n), np.diff(h.indptr))
        parts = rng.random((3, h.nnz))
        data = np.concatenate([h.data * (w / parts.sum(axis=0)) for w in parts])
        r, c = np.tile(rows, 3), np.tile(h.indices, 3)
        order = rng.permutation(r.size)
        order = order[np.argsort(r[order], kind="stable")]
        h = sp.csr_matrix((data[order], c[order], h.indptr * 3), shape=h.shape)
    return h


@pytest.mark.parametrize("kind", ["canonical", "complex", "unsorted", "duplicates",
                                  "empty rows"])
def test_spectral_bounds_add_as_abs_sum(rng, kind):
    """The row sums of |h|, by one reduction over the canonical data, equal
    abs(h).sum(axis=1) bit for bit, and h is left as it was stored."""
    h = _csr_of_kind(kind, rng)
    stored = (h.data.copy(), h.indices.copy(), h.indptr.copy())
    assert kind != "canonical" or h.has_canonical_format
    assert kind not in ("unsorted", "duplicates") or not h.has_canonical_format
    assert kind != "empty rows" or (np.diff(h.indptr) == 0).any()
    assert spectral_bounds(h) == _bounds_by_abs_sum(h)
    for got, want in zip((h.data, h.indices, h.indptr), stored):
        assert np.array_equal(got, want)


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


@st.composite
def _path_cases(draw):
    """(owner, start, times, tol) of a small lens operator (nu = 1) or
    blockade sector (nu = 2, 3): a chain or plane, with a mirrored pair of
    holes, an unpaired hole or none; nearest-neighbour or power-law
    hopping; a thick lens centred or half a site off; a real or chirped
    packet at the centre, sometimes with an odd part below the gate; sample
    times j dt, as trajectories take them, or a window off the start, as
    the lens optimizer takes them."""
    nu = draw(st.sampled_from([1, 2, 3]))
    most = {1: 60, 2: 20, 3: 12}[nu]
    if draw(st.booleans()):
        a = draw(st.integers(3, min(5, most // 3)))
        extents = (a, draw(st.integers(3, most // a)))
    else:
        extents = (draw(st.integers(nu + 5, most)),)
    table = build_lattice(extents)
    n = table.n_sites
    holes = draw(st.sampled_from(["none", "none", "paired", "unpaired"]))
    if holes != "none":
        i = draw(st.integers(0, n // 2 - 2))
        sites = [i, n - 1 - i] if holes == "paired" else [i]
        table = punch_holes(table, [tuple(table.labels[k]) for k in sites])
    model = draw(st.sampled_from([NearestNeighbor(1.0), PowerLaw(1.0, 3.0, cutoff_range=3.0)]))
    focus = table.center()
    focus[0] += draw(st.sampled_from([0.0, 0.0, 0.0, 0.5]))
    design = ThickPolynomial((10.0 ** draw(st.floats(-3.0, -1.0)),), tuple(focus))
    terms = build_couplings(table, model, lens_diagonal=potential_profile(design, table))
    x = table.positions - table.center()
    psi = gaussian_packet(table, draw(st.floats(1.5, 3.0))).amplitudes
    psi = psi * np.exp(1j * draw(st.sampled_from([0.0, 0.05])) * (x * x).sum(axis=1))
    tol = draw(st.sampled_from([1e-10, 1e-8]))
    odd = draw(st.sampled_from([0.0, 0.1])) * tol
    if nu == 1:
        owner, start = terms, psi
    else:
        basis = enumerate_basis(table, nu)
        owner = build_mb_hamiltonian(terms, basis, jz=draw(st.floats(0.0, 30.0)), table=table)
        start = symmetric_initial_state(psi, nu, basis).amplitudes
    if owner.mirror is not None and odd:
        k = int(np.argmax(np.abs(start) * (np.arange(start.size) != owner.mirror.refl)))
        start = start.copy()
        start[k] += odd
        start[owner.mirror.refl[k]] -= odd
    k = draw(st.integers(1, 4))
    dt = draw(st.floats(0.05, 1.5))
    if draw(st.sampled_from([True, True, False])):
        times = dt * np.arange(1, k + 1)
    else:
        times = np.linspace(dt, dt + draw(st.floats(0.1, 2.0)), k + 1)
    return owner, start, times, tol


class TestEvolutionPathContract:
    """Every path a case admits, forced by building the path directly,
    against dense expm within that path's promise: rounding when
    decomposed, 10 tol per sample from a real window and 10 tol per step
    when stepped, plus the gate's drift in the even subspace. The path
    :func:`evolution_path` picks is the forced one with its choices, bit
    for bit."""

    @settings(max_examples=60, deadline=None)
    @given(case=_path_cases())
    def test_every_path_keeps_its_promise(self, case):
        owner, start, times, tol = case
        h = owner.csr().toarray()
        want = np.array([scipy.linalg.expm(-1j * t * h) @ start for t in times])
        mirror, t_end = owner.mirror, np.abs(times).max()
        drift = mirror.drift(start, t_end) if mirror is not None else np.inf
        picked = evolution_path(owner, start, times, tol)
        assert picked.even == (drift <= tol)
        steps = np.arange(1, times.size + 1)
        for even in (False, True) if drift <= tol else (False,):
            for dense in (True, False):
                path = EvolutionPath(owner, start, times, tol, even, dense)
                blocks = list(path.samples())
                got = np.concatenate(blocks)
                # a real window is one block of every sample; steps give a
                # block a sample
                window = not dense and len(blocks) == 1 and times.size > 1
                if dense:
                    promise = np.full(times.size, 1e-9)
                else:
                    promise = 10 * tol * (np.ones(times.size) if window else steps)
                if even:
                    promise = promise + drift
                errors = np.linalg.norm(got - want, axis=1)
                assert np.all(errors <= promise), (even, dense, errors, promise)
                # squared before the lift: |phi|^2[orbit] = |phi[orbit]|^2
                assert np.array_equal(np.array(list(path.probabilities())), np.abs(got) ** 2)
                if (even, dense) == (picked.even, picked.dense):
                    assert np.array_equal(np.concatenate(list(picked.samples())), got)


def _kicked(extents, sigma0, phi0):
    """The bare nearest-neighbour couplings of a hole-free table, and a
    packet at its centre under a parabolic thin kick about it."""
    table = build_lattice(extents)
    kick = thin_phase_profile(ThinPulse(phi0, tuple(table.center())), table)
    psi = phase_imprint(gaussian_packet(table, sigma0), kick).amplitudes
    return build_couplings(table, NearestNeighbor(1.0)), psi


class TestClosedFormOracle:
    """Every Chebyshev entry point above 1 000 sites, against the DST-I
    closed form of free evolution on a hole-free nearest-neighbour chain or
    plane (``conftest.dst_evolution``), where no dense oracle reaches."""

    def test_expimv_at_large_phase(self):
        extents, tol = (4096,), 1e-10
        terms, psi = _kicked(extents, 200.0, 2e-3)
        got = expimv(terms.matrix(), psi, 800.0, tol, terms.bounds())   # phase 1 600
        assert np.linalg.norm(got - dst_evolution(psi, extents, [800.0])[0]) <= 10 * tol

    def test_trajectory_on_a_plane(self):
        extents, tol = (70, 70), 1e-10
        terms, psi = _kicked(extents, 10.0, 0.02)
        steps = [amp for _, amp in trajectory(terms.matrix(), psi, 50.0, 4, tol,
                                              terms.bounds())]   # phase 200 a step
        want = dst_evolution(psi, extents, 50.0 * np.arange(1, 5))
        gaps = np.linalg.norm(np.array(steps) - want, axis=1)
        assert np.all(gaps <= 10 * tol * np.arange(1, 5))

    def test_real_window_from_a_real_start(self):
        extents, tol = (2000,), 1e-10
        terms, psi = _kicked(extents, 60.0, 1e-12)
        psi = np.abs(psi)
        h, bounds = terms.matrix(), terms.bounds()
        assert _real_window_fits(h, bounds, 40.0, 6)
        states = real_window(h, psi, 40.0, 6, tol, bounds)   # phase 80 a sample
        gaps = np.linalg.norm(states - dst_evolution(psi, extents, 40.0 * np.arange(1, 7)),
                              axis=1)
        assert np.all(gaps <= 10 * tol)

    def test_pattern_plan_stacks(self, stacks):
        """Clean realizations of one 1 500-site chain, four to a stack, from
        differently kicked packets over one duration."""
        extents, tol, t = (1500,), 1e-10, 150.0
        terms, _ = _kicked(extents, 100.0, 1e-3)
        h, bounds = terms.matrix(), terms.bounds()
        psis = [_kicked(extents, 100.0, phi0)[1] for phi0 in (1e-4, 5e-4, 1e-3, 2e-3)]
        plan, values = pattern_plan([h] * 4, t, tol)
        got = plan.apply(values, [bounds] * 4, np.stack(psis))
        assert [s.coef.shape[1] for s in stacks] == [4]
        for psi, state in zip(psis, got, strict=True):
            assert np.linalg.norm(state - dst_evolution(psi, extents, [t])[0]) <= 10 * tol
