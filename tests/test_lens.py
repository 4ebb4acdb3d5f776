import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from spinlens.lattice import (NearestNeighbor, PowerLaw, build_lattice,
                              displace_sites)
from spinlens.lens import (ContinuumPrediction, Multifocal, ThickPolynomial,
                           ThinPulse, band_potential, continuum_thick,
                           continuum_thin, corrected_focal_time,
                           corrected_phase, dispersion, dispersion_curvature,
                           double_well_threshold, group_velocity,
                           optimize_lens, potential_profile, region_index,
                           semiclassical_model, thin_phase_profile,
                           thresholds, _isochrone_coefficients)


class TestDesignTypes:
    def test_thick_polynomial_fields(self):
        d = ThickPolynomial(coefficients=(0.1, 1e-4), focus=(10.0,))
        assert d.order == 4
        assert d.coefficients == (0.1, 1e-4)

    def test_thick_validation(self):
        with pytest.raises(ValueError):
            ThickPolynomial(coefficients=(-0.1,), focus=(0.0,))
        with pytest.raises(ValueError):
            ThickPolynomial(coefficients=(0.1,) * 5, focus=(0.0,))

    def test_thin_validation(self):
        with pytest.raises(ValueError):
            ThinPulse(phi0=0.0, focus=(0.0,))
        with pytest.raises(ValueError):
            ThinPulse(phi0=0.1, focus=(0.0,), profile="cubic")

    def test_multifocal_validation(self):
        a = ThickPolynomial((0.1,), (5.0,))
        b = ThinPulse(0.1, (15.0,))
        with pytest.raises(ValueError):
            Multifocal(designs=(a,))
        with pytest.raises(ValueError):
            Multifocal(designs=(a, b))
        with pytest.raises(ValueError):
            Multifocal(designs=(a, ThickPolynomial((0.2,), (5.0,))))


class TestProfiles:
    def test_quadratic_profile(self):
        table = build_lattice((21,))
        v = potential_profile(ThickPolynomial((0.05,), (10.0,)), table)
        d = np.arange(21.0) - 10.0
        assert np.allclose(v, 0.05 * d * d)

    def test_quartic_term_added(self):
        table = build_lattice((21,))
        v = potential_profile(ThickPolynomial((0.05, 1e-3), (10.0,)), table)
        d = np.arange(21.0) - 10.0
        assert np.allclose(v, 0.05 * d**2 + 1e-3 * d**4)

    def test_profile_fixed_under_displacement(self, rng):
        table = build_lattice((21,))
        moved = displace_sites(table, rng.normal(0, 0.2, (21, 1)))
        design = ThickPolynomial((0.05,), (10.0,))
        assert np.array_equal(potential_profile(design, table),
                              potential_profile(design, moved))

    def test_parabolic_thin_profile(self):
        table = build_lattice((21,))
        phases = thin_phase_profile(ThinPulse(2e-3, (10.0,)), table)
        d = np.arange(21.0) - 10.0
        assert np.allclose(phases, 2e-3 * d * d)

    def test_region_tie_goes_to_lower_index(self):
        table = build_lattice((5,))
        reg = region_index(table, [(1.0,), (3.0,)])
        assert list(reg) == [0, 0, 0, 1, 1]

    def test_multifocal_profile_is_piecewise(self):
        table = build_lattice((12,))
        left = ThickPolynomial((0.1,), (2.0,))
        right = ThickPolynomial((0.4,), (9.0,))
        v = potential_profile(Multifocal((left, right)), table)
        d = np.arange(12.0)
        assert np.allclose(v[:6], 0.1 * (d[:6] - 2.0) ** 2)
        assert np.allclose(v[6:], 0.4 * (d[6:] - 9.0) ** 2)

    def test_multifocal_imprint_is_piecewise(self):
        table = build_lattice((40,))
        left = ThinPulse(0.1, (8.0,))
        right = ThinPulse(0.05, (30.0,), profile="corrected")
        phases = thin_phase_profile(Multifocal((left, right)), table)
        d = np.arange(40.0)
        # region boundary at the bisector 19: sites 0..19 left, 20..39 right
        assert np.array_equal(phases[:20], thin_phase_profile(left, table)[:20])
        assert np.array_equal(phases[20:], thin_phase_profile(right, table)[20:])
        assert np.allclose(phases[:20], 0.1 * (d[:20] - 8.0) ** 2)
        assert np.allclose(phases[20:], corrected_phase(d[20:] - 30.0, 0.05))

    def test_profile_kind_mismatch(self):
        table = build_lattice((5,))
        with pytest.raises(TypeError):
            potential_profile(ThinPulse(0.1, (2.0,)), table)
        with pytest.raises(TypeError):
            thin_phase_profile(ThickPolynomial((0.1,), (2.0,)), table)


class TestCorrectedProfile:
    def test_zero_at_focus(self):
        assert corrected_phase(0.0, 0.02) == pytest.approx(0.0, abs=1e-14)

    def test_kick_satisfies_arrival_condition(self):
        # -dphi/dd must equal -arcsin(phi0 d): simultaneous arrival condition
        phi0 = 0.02
        d = np.linspace(-0.9 / phi0, 0.9 / phi0, 41)
        h = 1e-6
        slope = (corrected_phase(d + h, phi0) - corrected_phase(d - h, phi0)) / (2 * h)
        assert np.allclose(slope, np.arcsin(phi0 * d), atol=1e-8)

    def test_wings_linear_with_halfpi_slope(self):
        phi0 = 0.02
        d = np.array([1.5 / phi0, 2.0 / phi0, 3.0 / phi0])
        vals = corrected_phase(d, phi0)
        slopes = np.diff(vals) / np.diff(d)
        assert np.allclose(slopes, np.pi / 2.0, atol=1e-12)

    def test_continuous_at_domain_edge(self):
        phi0 = 0.02
        edge = 1.0 / phi0
        inside = corrected_phase(edge - 1e-9, phi0)
        outside = corrected_phase(edge + 1e-9, phi0)
        assert abs(inside - outside) < 1e-6

    def test_even_in_offset(self):
        d = np.linspace(0.0, 80.0, 17)
        assert np.allclose(corrected_phase(d, 0.02), corrected_phase(-d, 0.02))

    def test_corrected_profile_through_design(self):
        table = build_lattice((101,))
        phases = thin_phase_profile(
            ThinPulse(0.05, (50.0,), profile="corrected"), table)
        d = np.abs(np.arange(101.0) - 50.0)
        assert np.allclose(phases, corrected_phase(d, 0.05))


class TestContinuum:
    def test_thick_closed_forms(self):
        p = continuum_thick(1e-3, 30.0)
        omega = 2.0 * math.sqrt(1e-3)
        ell = 1e-3 ** -0.25
        assert np.isclose(p.omega, omega)
        assert np.isclose(p.ell, ell)
        assert np.isclose(p.focal_time, math.pi / (2.0 * omega))
        assert np.isclose(p.focal_width, ell * ell / 30.0)
        assert np.isclose(p.width(0.0), 30.0)
        assert np.isclose(p.width(p.focal_time), p.focal_width)
        # breathing is pi/omega periodic
        assert np.isclose(p.width(2.0 * p.focal_time), 30.0)

    def test_thin_closed_forms(self):
        phi0, s0 = 2e-3, 50.0
        p = continuum_thin(phi0, s0)
        denom = 4.0 * phi0**2 * s0**4 + 1.0
        assert np.isclose(p.focal_width, s0 / math.sqrt(denom))
        assert np.isclose(p.focal_time, phi0 * s0**4 / denom)

    def test_thin_focal_time_is_width_curve_minimum(self):
        # independent oracle: dense scan of the analytic width curve
        p = continuum_thin(3e-3, 40.0)
        t = np.linspace(0.0, 3.0 * p.focal_time, 20001)
        curve = p.width(t)
        i = curve.argmin()
        assert abs(t[i] - p.focal_time) < 2.0 * (t[1] - t[0])
        assert np.isclose(curve[i], p.focal_width, rtol=1e-6)
        # the doubled time is not the minimum
        assert p.width(2.0 * p.focal_time) > 1.2 * p.focal_width

    def test_strong_lens_limits(self):
        phi0, s0 = 0.05, 40.0
        p = continuum_thin(phi0, s0)
        assert np.isclose(p.focal_width, 1.0 / (2.0 * phi0 * s0), rtol=1e-4)
        assert np.isclose(p.focal_time, 1.0 / (4.0 * phi0), rtol=1e-4)

    def test_hopping_scales_times(self):
        slow = continuum_thick(1e-3, 30.0, hopping=1.0)
        fast = continuum_thick(2e-3, 30.0, hopping=2.0)
        assert np.isclose(fast.focal_time, slow.focal_time / 2.0)

    def test_corrected_focal_time(self):
        assert np.isclose(corrected_focal_time(0.04), 1.0 / 0.08)
        assert np.isclose(corrected_focal_time(0.04, hopping=2.0), 1.0 / 0.16)

    def test_validation(self):
        with pytest.raises(ValueError):
            continuum_thick(-1e-3, 30.0)
        with pytest.raises(ValueError):
            continuum_thin(1e-3, 0.0)


class TestThresholds:
    def test_all_scales(self):
        out = thresholds(sigma0=30.0, v0=1e-3, phi0=0.02)
        assert np.isclose(out["sigma_bo"], 2.0 * math.sqrt(1e3))
        assert np.isclose(out["v_bo"], 4.0 / 900.0)
        assert np.isclose(out["phi_bo"], 1.0 / 30.0)
        assert np.isclose(out["v_opt_scale"], 30.0 ** (-8.0 / 3.0))
        assert np.isclose(out["phi_opt_scale"], 30.0 ** (-4.0 / 3.0))
        assert np.isclose(out["k_c_thin"], (24.0 * 0.02) ** 0.25)
        assert np.isclose(out["k_c_thick"], (2304.0 * 1e-3 / math.pi**2) ** 0.125)
        assert "phi_bo" in out["empirical_prefactor"]

    def test_partial_inputs(self):
        out = thresholds(v0=1e-3)
        assert "sigma_bo" in out and "v_bo" not in out


def polylog_dispersion(theta, alpha):
    z = complex(mpmath.zeta(alpha))
    li = complex(mpmath.polylog(alpha, complex(np.cos(theta), np.sin(theta))))
    return 2.0 * (z - li.real)


class TestDispersion:
    def test_nearest_neighbor_band(self):
        m = NearestNeighbor(1.5)
        k = np.array([0.0, np.pi / 2, np.pi])
        assert np.allclose(dispersion(k, m), 2.0 * 1.5 * (1.0 - np.cos(k)))
        assert np.allclose(group_velocity(k, m), 2.0 * 1.5 * np.sin(k))

    @pytest.mark.parametrize("alpha", [2.0, 3.5, 6.0])
    def test_power_law_matches_polylog(self, alpha):
        m = PowerLaw(1.0, alpha)
        for th in (0.3, 1.1, 2.7, np.pi):
            assert np.isclose(float(dispersion(th, m)),
                              polylog_dispersion(th, alpha), atol=1e-11)

    def test_large_alpha_limits_to_nn(self):
        k = np.linspace(0.0, np.pi, 13)
        diff = dispersion(k, PowerLaw(1.0, 40.0)) - dispersion(k, NearestNeighbor(1.0))
        assert np.abs(diff).max() < 1e-10

    def test_band_is_periodic(self):
        m = PowerLaw(1.0, 4.0)
        k = np.array([0.3, 1.7])
        assert np.allclose(dispersion(k, m), dispersion(k + 2.0 * np.pi, m))

    def test_group_velocity_is_band_derivative(self):
        m = PowerLaw(1.0, 3.5)
        h = 1e-6
        for k in (0.4, 1.3, 2.8):
            num = (float(dispersion(k + h, m)) - float(dispersion(k - h, m))) / (2 * h)
            assert np.isclose(float(group_velocity(k, m)), num, atol=1e-8)

    def test_alpha2_velocity_closed_form(self):
        m = PowerLaw(1.0, 2.0)
        for th in (0.2, 1.0, 3.0):
            assert np.isclose(float(group_velocity(th, m)),
                              2.0 * (np.pi - th) / 2.0, atol=1e-12)

    def test_curvature(self):
        assert np.isclose(dispersion_curvature(NearestNeighbor(1.0)), 2.0)
        assert np.isclose(dispersion_curvature(PowerLaw(1.0, 6.0)),
                          np.pi**4 / 45.0, atol=1e-12)

    def test_divergent_regimes_rejected(self):
        with pytest.raises(ValueError):
            dispersion(0.5, PowerLaw(1.0, 1.0))
        with pytest.raises(ValueError):
            dispersion_curvature(PowerLaw(1.0, 3.0))


class TestSemiclassical:
    def test_small_launch_is_harmonic(self):
        r = semiclassical_model(0.01, 0.5)
        assert r.classification == "single_well"
        assert np.isclose(r.period, 2.0 * np.pi / (2.0 * math.sqrt(0.01)),
                          rtol=1e-3)
        assert r.energy_drift < 1e-8

    def test_wing_beyond_sigma_bo_never_crosses(self):
        v0 = 0.01
        sigma_bo = 2.0 * math.sqrt(1.0 / v0)
        r = semiclassical_model(v0, 1.05 * sigma_bo)
        assert r.classification == "double_well"
        assert np.all(r.x > 0.0)
        r_in = semiclassical_model(v0, 0.9 * sigma_bo)
        assert r_in.classification == "single_well"
        assert r_in.x.min() < 0.0

    def test_bloch_oscillation_scales(self):
        v0, x0 = 0.01, 16.0
        r = semiclassical_model(v0, x0)
        assert np.isclose(r.displacement_amplitude, 1.0 / (v0 * x0))
        assert np.isclose(r.bloch_frequency, v0 * x0)
        assert np.isclose(r.double_well_threshold, math.sqrt(2.0 / v0))

    def test_effective_potential_turns_double_well(self):
        v0 = 0.01
        thr = double_well_threshold(v0)
        assert band_potential(0.1, v0, 1.01 * thr) < 0.0
        assert band_potential(0.1, v0, 0.99 * thr) > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            semiclassical_model(-0.01, 1.0)


def _arrival_time(coefficients, x0, hopping=1.0):
    """Classical time for a wing released at rest from x0 to reach x = 0
    under V = sum_q c_q x^(2q) on the band 2J(1 - cos k)."""
    def rhs(_, y):
        force = sum(2 * q * c * y[0] ** (2 * q - 1)
                    for q, c in enumerate(coefficients, start=1))
        return [2.0 * hopping * math.sin(y[1]), -force]

    def crossing(_, y):
        return y[0]
    crossing.terminal, crossing.direction = True, -1
    sol = solve_ivp(rhs, (0.0, 1e3), [x0, 0.0], method="DOP853",
                    rtol=1e-11, atol=1e-12, events=crossing)
    return sol.t_events[0][0]


class TestIsochrone:
    def test_series_fractions(self):
        assert _isochrone_coefficients(1.0, 1.0) == pytest.approx(
            [1 / 12, 7 / 360, 121 / 20160], rel=1e-15)

    @pytest.mark.parametrize("hopping", [1.0, 2.5])
    def test_scaling_with_strength_and_hopping(self, hopping):
        """The d^(2q) coefficient scales as g^q / J^(q-1)."""
        g = 3.0e-3
        unit = _isochrone_coefficients(1.0, 1.0)
        got = _isochrone_coefficients(g, hopping)
        want = [u * g**q / hopping ** (q - 1) for q, u in enumerate(unit, 2)]
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("g, hopping", [(0.01, 1.0), (0.04, 2.0)])
    def test_wings_arrive_together(self, g, hopping):
        """Independent of the derivation: wings released at rest from several
        x0 within sigma_bo reach the focus with a spread that shrinks at
        least threefold with every added series term (a coefficient off by a
        factor 2 shrinks it only about twofold)."""
        sigma_bo = thresholds(v0=g, hopping=hopping)["sigma_bo"]
        full = (g,) + _isochrone_coefficients(g, hopping)
        starts = np.linspace(0.1, 0.4, 4) * sigma_bo
        spreads = [np.ptp([_arrival_time(full[:n], x0, hopping) for x0 in starts])
                   for n in range(1, 5)]
        assert all(b < a / 3.0 for a, b in zip(spreads, spreads[1:]))
        t_quarter = math.pi / (4.0 * math.sqrt(g * hopping))
        assert _arrival_time(full, starts[0], hopping) == pytest.approx(
            t_quarter, rel=1e-6)


@pytest.fixture(scope="module")
def quick_optima():
    table = build_lattice((120,))
    thick = optimize_lens(table, NearestNeighbor(1.0), 8.0, kind="thick",
                          n_time=100)
    thin = optimize_lens(table, NearestNeighbor(1.0), 8.0, kind="thin",
                         n_time=100)
    return thick, thin


class TestOptimizer:
    def test_thick_lands_near_scaling_optimum(self, quick_optima):
        thick, _ = quick_optima
        v0 = thick.design.coefficients[0]
        scale = thresholds(sigma0=8.0)["v_opt_scale"]
        assert scale / 4.0 < v0 < scale * 4.0
        assert not thick.boundary
        kappa = thick.focal_width / 8.0 ** (1.0 / 3.0)
        assert abs(kappa - 0.68) < 0.1

    def test_thick_focal_time_near_quarter_period(self, quick_optima):
        thick, _ = quick_optima
        v0 = thick.design.coefficients[0]
        assert np.isclose(thick.focal_time,
                          math.pi / (4.0 * math.sqrt(v0)), rtol=0.2)

    def test_thin_lands_near_scaling_optimum(self, quick_optima):
        _, thin = quick_optima
        scale = thresholds(sigma0=8.0)["phi_opt_scale"]
        assert scale / 4.0 < thin.design.phi0 < scale * 4.0
        assert not thin.boundary
        kappa = thin.focal_width / 8.0 ** (1.0 / 3.0)
        assert abs(kappa - 0.80) < 0.1

    def test_scan_records_every_evaluation(self, quick_optima):
        thick, _ = quick_optima
        assert len(thick.scan) >= 17
        entry = thick.scan[0]
        assert {"design", "strength", "focal_time", "focal_width"} <= set(entry)

    def test_higher_order_never_hurts(self):
        table = build_lattice((80,))
        kw = dict(kind="thick", n_time=60)
        w2 = optimize_lens(table, NearestNeighbor(1.0), 6.0, order=2, **kw)
        w4 = optimize_lens(table, NearestNeighbor(1.0), 6.0, order=4,
                           sweeps=1, **kw)
        assert len(w4.design.coefficients) == 2
        assert w4.focal_width <= w2.focal_width * (1.0 + 1e-9)

    @pytest.mark.parametrize("kw", [
        dict(kind="thick", order=4), dict(kind="thick", order=6),
        dict(kind="thick", order=8), dict(kind="thin", profile="parabolic"),
        dict(kind="thin", profile="corrected")],
        ids=["thick4", "thick6", "thick8", "thin-parabolic", "thin-corrected"])
    def test_every_branch_runs(self, kw):
        """Each optimizer branch at tiny size returns a design of the asked
        order; thick runs must reach the stage-3 scan of every coefficient."""
        table = build_lattice((40,))
        res = optimize_lens(table, NearestNeighbor(1.0), 4.0, n_time=20,
                            sweeps=1, **kw)
        if kw["kind"] == "thick":
            assert isinstance(res.design, ThickPolynomial)
            assert res.design.order == kw["order"]
            for qi in range(1, kw["order"] // 2):
                assert any(s["design"].coefficients[qi] != 0.0
                           for s in res.scan)
        else:
            assert isinstance(res.design, ThinPulse)
            assert res.design.profile == kw["profile"]
        assert math.isfinite(res.focal_width) and res.focal_width > 0.0

    def test_validation(self):
        table = build_lattice((30,))
        with pytest.raises(ValueError):
            optimize_lens(table, NearestNeighbor(1.0), 5.0, kind="reflective")
        with pytest.raises(ValueError):
            optimize_lens(table, NearestNeighbor(1.0), 5.0, order=3)

    def test_energy_clip_leaves_packet_dynamics_unchanged(self):
        """A correction term can push far-edge sites to +-700 J while the
        packet only ever samples a few J; clipping those sites to +-200 J
        must not move the evolved amplitudes."""
        from spinlens.lattice import build_couplings
        from spinlens.lens import OPTIMIZER_CLIP, clipped_thick_terms
        from spinlens.wavepacket import evolve, gaussian_packet

        table = build_lattice((241,))
        design = ThickPolynomial((1.0e-2, -4.0e-6), (120.0,))
        v = potential_profile(design, table)
        assert v.min() < -OPTIMIZER_CLIP
        base = build_couplings(table, NearestNeighbor(1.0))
        psi = gaussian_packet(table, 8.0)
        t_f = continuum_thick(1.0e-2, 8.0).focal_time
        full = evolve(base.with_diagonal(v), psi, t_f, tol=1e-12)
        terms = clipped_thick_terms(base, design, table, hopping=1.0)
        assert np.array_equal(terms.diagonal,
                              np.clip(v, -OPTIMIZER_CLIP, OPTIMIZER_CLIP))
        clipped = evolve(terms, psi, t_f, tol=1e-12)
        assert np.abs(full.amplitudes - clipped.amplitudes).max() < 1e-9
