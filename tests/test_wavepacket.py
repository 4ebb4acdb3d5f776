import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlens.lattice import (NearestNeighbor, SiteTable, build_couplings, build_lattice,
                              displace_sites, punch_holes)
from spinlens.lens import ThinPulse, continuum_thin, thin_phase_profile
from spinlens.wavepacket import (SpinWaveState, _density_widths, _focus_mask,
                                 _gaussian_profile, _inside_sums, _packet_rows,
                                 centroid, evolve,
                                 excitation_probability, focus_probability,
                                 gaussian_packet, gaussian_width, gaussian_widths,
                                 phase_imprint, rms_width, wigner_lattice)

from conftest import dense_evolution


@pytest.fixture(scope="module")
def chain301():
    table = build_lattice((301,))
    return table, build_couplings(table, NearestNeighbor(1.0))


class TestGaussianPacket:
    def test_unit_norm_and_default_center(self):
        table = build_lattice((101,))
        psi = gaussian_packet(table, 6.0)
        assert np.isclose(psi.norm(), 1.0)
        assert np.allclose(centroid(psi, table), [50.0])

    def test_explicit_fractional_center(self):
        table = build_lattice((101,))
        psi = gaussian_packet(table, 6.0, center=40.5)
        assert np.isclose(centroid(psi, table)[0], 40.5)

    def test_width_parameter_recovered(self):
        table = build_lattice((257,))
        psi = gaussian_packet(table, 8.0)
        assert np.isclose(gaussian_width(psi, table), 8.0, rtol=1e-6)
        # 1D: the density rms is sigma/sqrt(2)
        assert np.isclose(rms_width(psi, table), 8.0 / np.sqrt(2.0), rtol=1e-6)

    def test_momentum_boost_phases(self):
        table = build_lattice((64,))
        boosted = gaussian_packet(table, 6.0, k0=0.3)
        env = gaussian_packet(table, 6.0)
        assert np.allclose(boosted.amplitudes,
                           env.amplitudes * np.exp(1j * 0.3 * table.positions[:, 0]))

    def test_holes_carry_no_amplitude(self):
        table = punch_holes(build_lattice((64,)), [(30,), (33,)])
        psi = gaussian_packet(table, 5.0)
        assert psi.amplitudes[30] == 0.0
        assert psi.amplitudes[33] == 0.0
        assert np.isclose(psi.norm(), 1.0)

    def test_2d_width(self):
        table = build_lattice((41, 41))
        psi = gaussian_packet(table, 4.0)
        # in 2D the radial rms already equals the width parameter
        assert np.isclose(gaussian_width(psi, table), 4.0, rtol=1e-5)
        assert np.isclose(rms_width(psi, table), 4.0, rtol=1e-5)

    def test_3d_width(self):
        table = build_lattice((21, 21, 21))
        psi = gaussian_packet(table, 2.5)
        assert np.isclose(gaussian_width(psi, table), 2.5, rtol=1e-4)
        assert np.isclose(rms_width(psi, table),
                          2.5 * np.sqrt(3.0 / 2.0), rtol=1e-4)

    def test_validation(self):
        table = build_lattice((32,))
        with pytest.raises(ValueError):
            gaussian_packet(table, -1.0)
        with pytest.raises(ValueError):
            gaussian_packet(table, 4.0, center=90.0)
        with pytest.raises(ValueError):
            gaussian_packet(table, 4.0, k0=[0.1, 0.2])

    def test_narrow_packet_warns(self):
        table = build_lattice((32,))
        with pytest.warns(UserWarning, match="discretization"):
            gaussian_packet(table, 1.0)

    def test_zero_weight_on_active_sites(self):
        table = punch_holes(build_lattice((121,)), [(i,) for i in range(1, 120)])
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError):
                gaussian_packet(table, 1.21, center=60.0)


class TestEvolution:
    def test_matches_dense_reference(self, chain301, rng):
        table = build_lattice((20,))
        terms = build_couplings(table, NearestNeighbor(1.0),
                                lens_diagonal=0.05 * np.arange(20.0) ** 2)
        psi = gaussian_packet(table, 3.0)
        out = evolve(terms, psi, 2.7, tol=1e-12)
        ref = dense_evolution(terms.matrix(), psi.amplitudes, 2.7)
        assert np.linalg.norm(out.amplitudes - ref) < 1e-9
        assert out.time == psi.time + 2.7

    def test_apply_h_sign_convention(self):
        table = build_lattice((5,))
        terms = build_couplings(table, NearestNeighbor(1.0),
                                lens_diagonal=np.arange(5.0))
        psi = SpinWaveState(np.ones(5, dtype=complex))
        hpsi = terms.matrix() @ psi.amplitudes
        # interior site: eps_n - 2J
        assert np.isclose(hpsi[2].real, 2.0 - 2.0)
        assert np.isclose(hpsi[0].real, 0.0 - 1.0)

    def test_free_spreading_follows_continuum_curve(self, chain301):
        table, terms = chain301
        psi = gaussian_packet(table, 6.0)
        state = evolve(terms, psi, 5.0)
        assert np.isclose(gaussian_width(state, table),
                          6.0 * np.sqrt(1.0 + (2.0 * 5.0 / 36.0) ** 2), rtol=5e-3)
        state = evolve(terms, state, 7.0)
        assert np.isclose(gaussian_width(state, table),
                          6.0 * np.sqrt(1.0 + (2.0 * 12.0 / 36.0) ** 2), rtol=5e-3)

    def test_symmetric_packet_stays_symmetric(self):
        table = build_lattice((51,))
        terms = build_couplings(table, NearestNeighbor(1.0))
        state = evolve(terms, gaussian_packet(table, 5.0), 3.0, tol=1e-12)
        p = excitation_probability(state)
        assert np.abs(p - p[::-1]).max() < 1e-12


class TestPhaseImprint:
    def test_density_unchanged(self, rng):
        amp = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = SpinWaveState(amp / np.linalg.norm(amp))
        out = phase_imprint(state, rng.normal(size=16))
        assert np.allclose(excitation_probability(out),
                           excitation_probability(state))

    def test_linear_imprint_equals_momentum_boost(self):
        table = build_lattice((64,))
        psi = gaussian_packet(table, 6.0)
        imprinted = phase_imprint(psi, -0.3 * table.positions[:, 0])
        assert np.allclose(imprinted.amplitudes,
                           gaussian_packet(table, 6.0, k0=0.3).amplitudes)

    def test_kick_moves_packet_at_group_velocity(self, chain301):
        table, terms = chain301
        k = 0.4
        psi = phase_imprint(gaussian_packet(table, 10.0),
                            -k * table.positions[:, 0])
        state = evolve(terms, psi, 4.0)
        v = (centroid(state, table)[0] - 150.0) / 4.0
        assert np.isclose(v, 2.0 * np.sin(k), rtol=1e-2)

    def test_parabolic_imprint_focuses_to_continuum_width(self, chain301):
        table, terms = chain301
        phi0, sigma0 = 5e-3, 12.0
        pred = continuum_thin(phi0, sigma0)
        design = ThinPulse(phi0=phi0, focus=(150.0,))
        state = phase_imprint(gaussian_packet(table, sigma0, center=150.0),
                              thin_phase_profile(design, table))
        times = np.linspace(0.7 * pred.focal_time, 1.3 * pred.focal_time, 61)
        widths, t_prev = [], 0.0
        for t in times:
            state = evolve(terms, state, t - t_prev)
            t_prev = t
            widths.append(gaussian_width(state, table))
        i = int(np.argmin(widths))
        assert np.isclose(widths[i], pred.focal_width, rtol=1e-2)
        assert np.isclose(times[i], pred.focal_time, rtol=2e-2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            phase_imprint(SpinWaveState(np.ones(4, dtype=complex)), np.ones(3))


class TestFocusProbability:
    def test_point_state_inside_radius(self):
        table = build_lattice((21,))
        amp = np.zeros(21, dtype=complex)
        amp[10] = 1.0
        assert focus_probability(SpinWaveState(amp), table, 10.0) == 1.0
        assert focus_probability(SpinWaveState(amp), table, 14.0) == 0.0
        # boundary is inclusive
        assert focus_probability(SpinWaveState(amp), table, 13.0) == 1.0

    def test_wide_radius_captures_everything(self):
        table = build_lattice((41,))
        psi = gaussian_packet(table, 4.0)
        assert np.isclose(
            focus_probability(psi, table, 20.0, radius=40.0), 1.0)

    def test_displaced_site_enters_capture_disk(self):
        table = build_lattice((9,))
        amp = np.zeros(9, dtype=complex)
        amp[8] = 1.0
        state = SpinWaveState(amp)
        assert focus_probability(state, table, 0.0) == 0.0
        d = np.zeros((9, 1))
        d[8, 0] = -6.0
        assert focus_probability(state, displace_sites(table, d), 0.0) == 1.0


class TestWigner:
    def test_position_marginal_recovers_density(self):
        table = build_lattice((64,))
        psi = gaussian_packet(table, 5.0, k0=0.7)
        grid = wigner_lattice(psi, table)
        err = np.abs(grid.position_marginal()
                     - excitation_probability(psi)).max()
        assert err < 1e-9

    def test_momentum_marginal_normalized_and_peaked(self):
        table = build_lattice((64,))
        psi = gaussian_packet(table, 5.0, k0=0.7)
        grid = wigner_lattice(psi, table)
        marg = grid.momentum_marginal()
        dk = grid.k[1] - grid.k[0]
        assert np.isclose(marg.sum() * dk, 1.0, atol=1e-10)
        assert abs(grid.k[marg.argmax()] - 0.7) < dk

    def test_point_state_is_momentum_flat(self):
        table = build_lattice((64,))
        amp = np.zeros(64, dtype=complex)
        amp[30] = 1.0
        grid = wigner_lattice(SpinWaveState(amp), table)
        marg = grid.momentum_marginal()
        assert np.allclose(marg, 1.0 / (2.0 * np.pi), atol=1e-12)
        pos = grid.position_marginal()
        assert np.isclose(pos[30], 1.0)
        assert np.abs(np.delete(pos, 30)).max() < 1e-12

    def test_plane_wave_concentrates_on_grid_momentum(self):
        n = 64
        table = build_lattice((n,))
        k0 = 2.0 * np.pi * 10 / n
        amp = np.exp(1j * k0 * np.arange(n)) / np.sqrt(n)
        grid = wigner_lattice(SpinWaveState(amp), table, n_momentum=2 * n)
        marg = grid.momentum_marginal()
        dk = grid.k[1] - grid.k[0]
        assert abs(grid.k[marg.argmax()] - k0) < dk

    def test_global_phase_invariance(self):
        table = build_lattice((32,))
        psi = gaussian_packet(table, 4.0, k0=0.2)
        rotated = SpinWaveState(psi.amplitudes * np.exp(1j * 1.234))
        assert np.allclose(wigner_lattice(psi, table).w,
                           wigner_lattice(rotated, table).w, atol=1e-14)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            wigner_lattice(gaussian_packet(build_lattice((5, 5)), 2.0),
                           build_lattice((5, 5)))
        table = build_lattice((16,))
        with pytest.raises(ValueError):
            wigner_lattice(gaussian_packet(table, 3.0), table, n_momentum=8)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 60),
       off=st.floats(-5.0, 5.0, allow_nan=False))
def test_rms_width_minimal_about_centroid(seed, n, off):
    rng = np.random.default_rng(seed)
    table = build_lattice((n,))
    amp = rng.normal(size=n) + 1j * rng.normal(size=n)
    state = SpinWaveState(amp / np.linalg.norm(amp))
    c = centroid(state, table)
    assert rms_width(state, table, center=c + off) >= \
        rms_width(state, table) - 1e-12


@pytest.mark.parametrize("extents", [(200,), (13, 11), (5, 4, 3)])
def test_batched_widths_equal_state_by_state(rng, extents):
    """``gaussian_widths`` over a (2, 5, n_sites) batch equals
    ``gaussian_width`` state by state, bit for bit, on displaced sites."""
    table = displace_sites(build_lattice(extents),
                           rng.normal(0.0, 0.1, (int(np.prod(extents)), len(extents))))
    amps = rng.normal(size=(2, 5, table.n_sites)) + 1j * rng.normal(size=(2, 5, table.n_sites))
    want = [[gaussian_width(SpinWaveState(a), table) for a in row] for row in amps]
    assert np.array_equal(gaussian_widths(amps, table), want)
    assert gaussian_widths(amps[1, 3], table) == want[1][3]


def _gaussian_rows(positions, active, center, sigma0):
    """The start packets of a disorder chunk: the profile at ``positions``
    with each row's holes masked out, each row normalized."""
    return _packet_rows(_gaussian_profile(positions, center, sigma0), active)


@pytest.fixture(params=[(70,), (41, 41), (9, 8, 7)])
def realizations(request, rng):
    """Six realizations of a table: each with its own displaced positions
    and its own holes, as a list and as stacked (m, n, dim) and (m, n)."""
    table = build_lattice(request.param)
    n, dim = table.n_sites, table.dim
    tables = []
    for _ in range(6):
        moved = displace_sites(table, rng.normal(0.0, 0.3, (n, dim)))
        active = moved.active.copy()
        active[rng.choice(n, 3, replace=False)] = False
        tables.append(SiteTable(table.extents, table.labels, moved.positions, active))
    return (tables, np.stack([t.positions for t in tables]),
            np.stack([t.active for t in tables]))


def test_packet_rows_equal_gaussian_packet(realizations):
    tables, positions, active = realizations
    clean = build_lattice(tables[0].extents)
    sigma0 = 0.2 * min(clean.extents) + 1.5
    want = [gaussian_packet(t, sigma0).amplitudes for t in tables]
    assert np.array_equal(_gaussian_rows(positions, active, clean.center(), sigma0), want)
    # holes alone, on the clean positions
    want = [gaussian_packet(SiteTable(clean.extents, clean.labels, clean.positions, a),
                            sigma0).amplitudes for a in active]
    assert np.array_equal(_gaussian_rows(clean.positions, active, clean.center(), sigma0), want)


def test_packet_rows_check_as_gaussian_packet():
    table = build_lattice((30,))
    active = np.zeros((2, 30), bool)
    active[0, 3] = True
    with pytest.raises(ValueError, match="zero weight"):
        _gaussian_rows(table.positions, active, table.center(), 4.0)
    with pytest.raises(ValueError, match="positive"):
        _gaussian_rows(table.positions, table.active, table.center(), 0.0)
    with pytest.warns(UserWarning, match="discretization"):
        _gaussian_rows(table.positions, table.active, table.center(), 1.0)


def test_density_rows_score_as_state_by_state(realizations, rng):
    """Focus probabilities and widths of a stack of densities, each on its
    own positions, bit for bit those of the lone states; the capture disk
    holds a different number of sites per row, none in one."""
    tables, positions, _ = realizations
    amps = rng.normal(size=(6, tables[0].n_sites)) + 1j * rng.normal(size=(6, tables[0].n_sites))
    p = np.abs(amps) ** 2
    states = [SpinWaveState(a) for a in amps]
    focus = tables[0].positions[tables[0].n_sites // 3]
    for radius in (0.1, 1.3, 3.0):
        got = _inside_sums(p, _focus_mask(positions, focus, radius))
        want = [focus_probability(s, t, focus, radius) for s, t in zip(states, tables)]
        assert np.array_equal(got, want)
    counts = (((positions - focus) ** 2).sum(axis=-1) <= 1.3**2).sum(axis=1)
    assert len(set(counts)) > 1 or tables[0].dim == 1
    assert np.array_equal(_inside_sums(p, _focus_mask(positions, focus + 100.0)),
                          np.zeros(6))
    assert np.array_equal(_density_widths(p, positions),
                          [gaussian_width(s, t) for s, t in zip(states, tables)])
    # one position table, (n_sites, dim), for every row
    assert np.array_equal(_inside_sums(p, _focus_mask(tables[2].positions, focus)),
                          [focus_probability(s, tables[2], focus) for s in states])
    assert np.array_equal(_density_widths(p, tables[2].positions),
                          [gaussian_width(s, tables[2]) for s in states])
