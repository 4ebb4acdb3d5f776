import numpy as np
import pytest

from spinlens.rydberg import (ChannelC6, DressingParams, dressed_couplings,
                              effective_potentials, exchange_peak,
                              vdw_iso_aniso)


class TestSoftCoreShapes:
    def test_reference_point(self):
        v, w = effective_potentials(1.0, 0.5)
        assert np.isclose(v, 2.0 / 3.75)
        assert np.isclose(w, 0.5 / 3.75)

    def test_short_distance_limits(self):
        v, w = effective_potentials(0.0, 0.7)
        assert v == 0.0
        assert w == 0.0

    def test_long_distance_limits(self):
        v, w = effective_potentials(1e3, 0.7)
        assert abs(v - 1.0) < 1e-5
        assert abs(w) < 1e-5

    def test_far_branch_is_overflow_free(self):
        v, w = effective_potentials(1e80, 0.3)
        assert np.isfinite(v) and np.isfinite(w)
        assert np.isclose(v, 1.0)

    def test_branches_agree_at_crossover(self):
        # both algebraic forms evaluated just inside/outside rt = 1
        lo = effective_potentials(1.0 - 1e-12, 0.6)
        hi = effective_potentials(1.0 + 1e-12, 0.6)
        assert np.allclose(lo, hi, atol=1e-10)

    def test_direct_potential_monotone(self):
        rt = np.linspace(0.0, 8.0, 4001)
        v, _ = effective_potentials(rt, 0.88)
        assert np.all(np.diff(v) > 0.0)

    def test_exchange_has_single_interior_maximum(self):
        rt = np.linspace(1e-3, 6.0, 6000)
        _, w = effective_potentials(rt, 0.88)
        rises = np.diff(w) > 0
        # one contiguous rising block then one falling block
        assert rises[0] and not rises[-1]
        assert np.count_nonzero(np.diff(rises.astype(int))) == 1
        r_peak, w_max = exchange_peak(0.88)
        i = int(np.argmax(w))
        assert abs(rt[i] - r_peak) < 2.0 * (rt[1] - rt[0])
        assert np.isclose(w.max(), w_max, rtol=1e-6)

    def test_exchange_peak_closed_form(self):
        xi = 0.5
        y = np.sqrt(1.0 - xi * xi)
        r_peak, w_max = exchange_peak(xi)
        assert np.isclose(r_peak, y ** (1.0 / 6.0))
        assert np.isclose(w_max, xi * y / ((y + 1.0) ** 2 - xi * xi))

    def test_validation(self):
        with pytest.raises(ValueError):
            effective_potentials(1.0, 1.0)
        with pytest.raises(ValueError):
            effective_potentials(-0.5, 0.5)
        with pytest.raises(ValueError):
            exchange_peak(0.0)


class TestDressing:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            DressingParams(omega=1.0, delta=0.0, xi=0.5, c12=1.0)
        with pytest.raises(ValueError):
            DressingParams(omega=1.0, delta=-1.0, xi=1.2, c12=1.0)
        with pytest.raises(ValueError):
            DressingParams(omega=1.0, delta=-1.0, xi=0.5, c12=-1.0)

    def test_strong_dressing_warns(self):
        with pytest.warns(UserWarning, match="perturbative"):
            DressingParams(omega=1.0, delta=-1.5, xi=0.5, c12=1.0)

    def test_couplings_scale_and_sign(self):
        params = DressingParams(omega=0.4, delta=-2.0, xi=0.5, c12=2.0)
        r = 1.0 / params.length_scale()  # physical distance with rt = 1
        v_sg, w_sg = dressed_couplings(params, np.array([r]))
        pref = 0.4**2 / (4.0 * -2.0)
        assert np.isclose(v_sg[0], pref * 2.0 / 3.75)
        assert np.isclose(w_sg[0], 2.0 * pref * 0.5 / 3.75)
        # red detuning: both attractive, so J = -W/2 > 0
        assert w_sg[0] < 0.0

    def test_nearest_neighbor_rate_for_production_numbers(self):
        # Omega/2pi = 10, |Delta|/2pi = 20 (MHz), xi = 0.88, spacing at the
        # exchange peak: J/2pi should come out near 0.36 MHz
        omega = 2.0 * np.pi * 10.0
        delta = -2.0 * np.pi * 20.0
        _, w_max = exchange_peak(0.88)
        j = abs(omega**2 / (4.0 * delta)) * w_max
        assert abs(j / (2.0 * np.pi) - 0.36) < 0.036

    def test_length_scale(self):
        params = DressingParams(omega=0.1, delta=-64.0, xi=0.5, c12=1.0)
        assert np.isclose(params.length_scale(), 2.0)


class TestVanDerWaals:
    def test_equal_channels_are_isotropic(self):
        a, b = vdw_iso_aniso(ChannelC6(3.0, 3.0, 3.0, 3.0))
        assert np.isclose(a, 2.0)
        assert b == 0.0

    def test_single_channel_weights(self):
        a, b = vdw_iso_aniso(ChannelC6(1.0, 0.0, 0.0, 0.0))
        assert np.isclose(a, 7.0 / 81.0)
        assert np.isclose(b, -1.0 / 27.0)

    def test_cross_channel_weights(self):
        a, b = vdw_iso_aniso(ChannelC6(0.0, 0.0, 1.0, 1.0))
        assert np.isclose(a, 22.0 / 81.0)
        assert np.isclose(b, 2.0 / 27.0)
