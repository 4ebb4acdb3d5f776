import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from spinlens import lens
from spinlens.lattice import (NearestNeighbor, PowerLaw, build_couplings,
                              build_lattice, displace_sites)
from spinlens.propagator import trajectory, window_batch
from spinlens.wavepacket import (SpinWaveState, evolve, gaussian_packet,
                                 gaussian_width, phase_imprint)
from spinlens.lens import (Multifocal, ThickPolynomial, ThinPulse,
                           continuum_thick, continuum_thin,
                           corrected_focal_time, corrected_phase,
                           optimize_lens, potential_profile, region_index,
                           thin_phase_profile, thresholds,
                           _isochrone_coefficients)


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
        assert set(entry) == {"design", "strength", "focal_time", "focal_width",
                              "at_edge"}

    def test_higher_order_never_hurts(self):
        table = build_lattice((80,))
        kw = dict(kind="thick", n_time=60)
        w2 = optimize_lens(table, NearestNeighbor(1.0), 6.0, order=2, **kw)
        w4 = optimize_lens(table, NearestNeighbor(1.0), 6.0, order=4, **kw)
        assert len(w4.design.coefficients) == 2
        assert w4.focal_width <= w2.focal_width * (1.0 + 1e-9)

    @pytest.mark.parametrize("kw", [
        dict(kind="thick", order=4), dict(kind="thick", order=6),
        dict(kind="thick", order=8), dict(kind="thin")],
        ids=["thick4", "thick6", "thick8", "thin-parabolic"])
    def test_every_branch_runs(self, kw):
        """Each optimizer branch at tiny size returns a design of the asked
        order; thick runs must reach the stage-3 scan of every coefficient."""
        table = build_lattice((40,))
        res = optimize_lens(table, NearestNeighbor(1.0), 4.0, n_time=20, **kw)
        if kw["kind"] == "thick":
            assert isinstance(res.design, ThickPolynomial)
            assert res.design.order == kw["order"]
            for qi in range(1, kw["order"] // 2):
                assert any(s["design"].coefficients[qi] != 0.0
                           for s in res.scan)
        else:
            assert isinstance(res.design, ThinPulse)
            assert res.design.profile == "parabolic"
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


@pytest.fixture(scope="module")
def corrected_optima():
    """Thick optima of order 4 and 6, whose stage-3 sweeps revisit designs."""
    table = build_lattice((60,))
    return {q: optimize_lens(table, NearestNeighbor(1.0), 5.0, order=q, n_time=30)
            for q in (4, 6)}


def _narrowest(res):
    widths = [s["focal_width"] for s in res.scan]
    return res.scan[int(np.argmin(widths))]  # argmin takes the first of equals


def _fake_evaluations(monkeypatch, width, at_edge=False):
    """Replace design evaluation by ``width(design)``; returns the list of
    designs evaluated, in order."""
    calls = []

    def fake(designs, *_):
        calls.extend(designs)
        return [(1.0, width(d), at_edge) for d in designs]

    monkeypatch.setattr(lens, "_eval_designs", fake)
    return calls


class TestOptimizerContract:
    @pytest.mark.parametrize("order", [4, 6])
    def test_scan_holds_no_design_twice(self, corrected_optima, order):
        designs = [s["design"] for s in corrected_optima[order].scan]
        assert len(set(designs)) == len(designs)

    def test_each_design_is_evaluated_once(self, monkeypatch):
        calls = _fake_evaluations(
            monkeypatch, lambda d: abs(math.log(d.coefficients[0] / 0.02))
            + sum(abs(c) for c in d.coefficients[1:]))
        res = optimize_lens(build_lattice((30,)), NearestNeighbor(1.0), 5.0,
                            order=6, n_time=2)
        assert calls == [s["design"] for s in res.scan]
        assert len(set(calls)) == len(calls)

    def test_result_is_the_narrowest_scan_entry(self, quick_optima,
                                                corrected_optima):
        for res in (*quick_optima, *corrected_optima.values()):
            best = _narrowest(res)
            assert res.design == best["design"]
            assert res.focal_time == best["focal_time"]
            assert res.focal_width == best["focal_width"]
            # none of these optima sits on a strength-grid edge
            assert res.boundary == best["at_edge"]

    def test_first_of_equal_widths_wins(self, monkeypatch):
        _fake_evaluations(monkeypatch, lambda d: 1.0)
        res = optimize_lens(build_lattice((30,)), NearestNeighbor(1.0), 5.0,
                            order=4, n_time=2)
        assert res.design == res.scan[0]["design"]
        assert len(res.scan) > 1

    def test_boundary_reports_a_time_window_edge(self, monkeypatch):
        _fake_evaluations(monkeypatch,
                          lambda d: abs(math.log(d.coefficients[0] / 0.02)),
                          at_edge=True)
        res = optimize_lens(build_lattice((30,)), NearestNeighbor(1.0), 5.0,
                            n_time=2)
        strengths = [s["strength"] for s in res.scan]
        assert min(strengths) < res.design.coefficients[0] < max(strengths)
        assert res.boundary

    def test_boundary_reports_a_strength_grid_edge(self, monkeypatch):
        """A width that keeps falling with strength puts the winner at the
        top of the extended grid, though its time minimum is interior."""
        _fake_evaluations(monkeypatch, lambda d: 1.0 / d.coefficients[0])
        res = optimize_lens(build_lattice((30,)), NearestNeighbor(1.0), 5.0,
                            n_time=2)
        strengths = [s["strength"] for s in res.scan]
        scale = thresholds(sigma0=5.0)["v_opt_scale"]
        assert max(strengths) == pytest.approx(100.0 * scale)
        assert res.design.coefficients[0] == max(strengths)
        assert not _narrowest(res)["at_edge"]
        assert res.boundary


def _stepwise_minimum(terms, state, window, table, n_time, tol):
    """A window scanned step by step with ``evolve`` and ``trajectory`` and
    refined from the initial state: the evaluation the window recurrence
    replaced, kept as an independent check."""
    times = np.linspace(*window, n_time)
    start = evolve(terms, state, times[0], tol=tol) if times[0] > 0 else state
    dt = times[1] - times[0]
    widths = [gaussian_width(start, table)]
    for _, amp in trajectory(terms.matrix(), start.amplitudes, dt, n_time - 1,
                             tol=tol, bounds=terms.bounds()):
        widths.append(gaussian_width(SpinWaveState(amp), table))
    widths = np.array(widths)
    i = int(np.argmin(widths))
    at_edge = i == 0 or i == n_time - 1
    t_f, w_f = times[i], widths[i]
    vertex = None if at_edge else lens._parabola_vertex(widths, i)
    if vertex is not None:
        t_ref = times[i] + vertex[0] * dt
        w_ref = gaussian_width(evolve(terms, state, t_ref, tol=tol), table)
        if w_ref < w_f:
            t_f, w_f = t_ref, w_ref
    return t_f, w_f, at_edge


def _alone_minimum(terms, state, window, table, n_time, tol):
    """A window scanned for one design alone, through the optimizer's path."""
    return lens._width_minima([(terms, state, window)], table, n_time, tol)[0]


def _reference_eval_design(design, table, base_terms, psi0, hopping, n_time, tol,
                           retried=None, minimum=_alone_minimum):
    """One design evaluated alone, its window estimated and extended here:
    the reference for the batched ``lens._eval_designs``. ``minimum`` scans
    one window. Appends the design to ``retried`` when its first window is
    extended."""
    if isinstance(design, ThickPolynomial):
        t_est = math.pi / (4.0 * math.sqrt(design.coefficients[0] * hopping))
        terms = lens.clipped_thick_terms(base_terms, design, table, hopping)
        state = psi0
    else:
        t_est = continuum_thin(design.phi0, max(gaussian_width(psi0, table), 1.0),
                               hopping).focal_time
        terms = base_terms
        state = phase_imprint(psi0, thin_phase_profile(design, table))
    window = (0.5 * t_est, 1.5 * t_est)
    for attempt in range(3):
        t_f, w_f, at_edge = minimum(terms, state, window, table, n_time, tol)
        if not at_edge:
            break
        if attempt == 0 and retried is not None:
            retried.append(design)
        lo, hi = window
        window = (0.25 * lo, hi) if t_f <= lo * 1.01 else (lo, 2.0 * hi)
    return t_f, w_f, at_edge


_CASES = [
    (80, 6.0, dict(kind="thick", n_time=40), False),
    (80, 6.0, dict(kind="thin", n_time=40), False),
    (60, 5.0, dict(kind="thick", order=4, n_time=30), False),
    (40, 4.0, dict(kind="thin", n_time=20), True)]
_CASE_IDS = ["thick2", "thin", "thick4", "thin-window-retries"]


def _assert_batched_equals_alone(monkeypatch, n, sigma0, kw, retries):
    """optimize_lens gives the same scan and result when each design is
    evaluated alone, its window estimated and extended by the reference."""
    table = build_lattice((n,))
    batched = optimize_lens(table, NearestNeighbor(1.0), sigma0, **kw)
    retried = []
    monkeypatch.setattr(lens, "_eval_designs", lambda designs, *args: [
        _reference_eval_design(d, *args, retried=retried) for d in designs])
    alone = optimize_lens(table, NearestNeighbor(1.0), sigma0, **kw)
    assert batched.scan == alone.scan
    assert (batched.design, batched.focal_time, batched.focal_width,
            batched.boundary) == (alone.design, alone.focal_time,
                                  alone.focal_width, alone.boundary)
    if kw.get("order", 2) > 2:
        assert any(s["design"].coefficients[1] != 0.0 for s in alone.scan)
    if retries:   # several designs extend their window in one batch
        assert len(retried) > 1


class TestBatchedEvaluation:
    @pytest.mark.parametrize("n, sigma0, kw, retries", _CASES, ids=_CASE_IDS)
    def test_equals_per_design_evaluation(self, monkeypatch, n, sigma0, kw, retries):
        _assert_batched_equals_alone(monkeypatch, n, sigma0, kw, retries)

    @pytest.mark.parametrize("n, sigma0, kw, retries", _CASES, ids=_CASE_IDS)
    def test_agrees_with_stepwise_evaluation(self, n, sigma0, kw, retries):
        """Every scanned design, evaluated step by step instead, lands on
        the same window sample; its focal width agrees to 1e-7 and its
        focal time to 1e-6, relative (the documented tolerance)."""
        table, model = build_lattice((n,)), NearestNeighbor(1.0)
        res = optimize_lens(table, model, sigma0, **kw)
        base = build_couplings(table, model)
        psi0 = gaussian_packet(table, sigma0, center=table.center())
        for entry in res.scan:
            t_f, w_f, at_edge = _reference_eval_design(
                entry["design"], table, base, psi0, 1.0, kw["n_time"], 1e-8,
                minimum=_stepwise_minimum)
            assert at_edge == entry["at_edge"]
            assert abs(entry["focal_width"] - w_f) <= 1e-7 * w_f
            assert abs(entry["focal_time"] - t_f) <= 1e-6 * t_f

    @pytest.mark.parametrize("n, sigma0, kw, retries", _CASES, ids=_CASE_IDS)
    def test_window_path_equals_per_design_evaluation(self, monkeypatch, n, sigma0,
                                                      kw, retries):
        """The same contract on the Chebyshev window path, which lattices
        above ``_DENSE_DIM`` sites take: designs batched into stacks give
        what each gives alone."""
        monkeypatch.setattr(lens, "_DENSE_DIM", 0)
        _assert_batched_equals_alone(monkeypatch, n, sigma0, kw, retries)


def _scan_cases(name, n=80, sigma0=6.0):
    """(terms, state, window) of designs at 0.5, 1 and 2 times the scaling
    optimum on an n-site chain, each in its focal window, plus one window
    that ends before the focus: nearest-neighbour thick and thin lenses and
    an alpha = 6 thick lens."""
    table = build_lattice((n,))
    focus = (table.center()[0],)
    model = PowerLaw(1.0, 6.0) if name == "alpha6-thick" else NearestNeighbor(1.0)
    base = build_couplings(table, model)
    psi0 = gaussian_packet(table, sigma0)
    scales = thresholds(sigma0=sigma0)
    cases = []
    for rel in (0.5, 1.0, 2.0):
        if name == "nn-thin":
            phi0 = rel * scales["phi_opt_scale"]
            t_est = continuum_thin(phi0, sigma0).focal_time
            cases.append((base, phase_imprint(psi0, thin_phase_profile(
                ThinPulse(phi0, focus), table)), (0.5 * t_est, 1.5 * t_est)))
        else:
            g = rel * scales["v_opt_scale"]
            t_est = continuum_thick(g, sigma0).focal_time
            cases.append((lens.clipped_thick_terms(base, ThickPolynomial((g,), focus),
                                                   table, 1.0),
                          psi0, (0.5 * t_est, 1.5 * t_est)))
    terms, state, (t0, _) = cases[1]
    cases.append((terms, state, (0.2 * t0, 0.6 * t0)))
    return table, cases


class TestDenseScan:
    """Lattices of at most ``lens._DENSE_DIM`` sites scan each window from a
    dense eigendecomposition; larger ones through ``window_batch``."""

    @pytest.mark.parametrize("name", ["nn-thick", "nn-thin", "alpha6-thick"])
    def test_agrees_with_window_path(self, monkeypatch, name):
        """Both paths land on the same window sample and report the same
        edge flag; the focal width agrees to 1e-7 and the focal time to
        1e-6, relative (the documented tolerance, as for stepwise scans)."""
        table, cases = _scan_cases(name)
        assert table.n_sites <= lens._DENSE_DIM
        dense = lens._width_minima(cases, table, 40, 1e-8)
        monkeypatch.setattr(lens, "_DENSE_DIM", 0)
        window = lens._width_minima(cases, table, 40, 1e-8)
        assert [f[2] for f in dense] == [f[2] for f in window]
        assert dense[-1][2]          # the early window ends on its edge
        for (t_d, w_d, _), (t_w, w_w, _) in zip(dense, window):
            assert abs(w_d - w_w) <= 1e-7 * w_w
            assert abs(t_d - t_w) <= 1e-6 * t_w

    def test_each_case_gives_what_it_gives_alone(self):
        table, cases = _scan_cases("nn-thin")
        together = lens._width_minima(cases, table, 40, 1e-8)
        assert together == [lens._width_minima([c], table, 40, 1e-8)[0] for c in cases]

    @pytest.mark.parametrize("above", [False, True])
    def test_window_batch_runs_only_above_dense_dim(self, monkeypatch, above):
        calls = []

        def counted(*args, **kw):
            calls.append(args)
            yield from window_batch(*args, **kw)

        monkeypatch.setattr(lens, "window_batch", counted)
        n = lens._DENSE_DIM + above
        table, cases = _scan_cases("nn-thick", n=n, sigma0=n / 16.0)
        found = lens._width_minima(cases[:1], table, 10, 1e-8)
        assert len(found) == 1
        assert len(calls) == (1 if above else 0)
