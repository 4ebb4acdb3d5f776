"""Dressing algebra for soft-core spin couplings.

Two ground-state atoms weakly dressed to interacting Rydberg pairs acquire a
direct potential V_sg and an exchange (flip-flop) coupling W_sg. Both follow
from two dimensionless soft-core shapes in the scaled distance
rt = (|Delta|/c12)^(1/6) r and the channel asymmetry xi:

    Vt(rt) = (rt^12 + rt^6) / ((rt^6 + 1)^2 - xi^2)
    Wt(rt) = xi rt^6 / ((rt^6 + 1)^2 - xi^2)

with V_sg = Omega^2/(4 Delta) Vt and W_sg = Omega^2/(2 Delta) Wt. The sign of
the detuning is physical and carried through: red detuning (Delta < 0) makes
both attractive, and the lattice hopping J = -W_sg/2 positive.

Channel C6 coefficients and the exchange asymmetry xi are experimental or
externally computed inputs, given as parameters; the radial matrix elements
behind them are out of scope here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DressingParams:
    """Laser and channel parameters of one dressing configuration.

    ``omega`` (Rabi frequency) and ``delta`` (detuning, sign carried) in the
    same angular-frequency unit; ``c12`` is the cross-channel dispersion
    coefficient (energy times length^6) defining the scaled distance
    rt = (|delta|/c12)^(1/6) r; ``xi`` the relative exchange strength.
    """

    omega: float
    delta: float
    xi: float
    c12: float

    def __post_init__(self):
        if not abs(self.xi) < 1.0:
            raise ValueError("need |xi| < 1, else the soft-core denominator has a pole")
        if self.delta == 0.0 or self.c12 <= 0.0:
            raise ValueError("delta must be nonzero and c12 positive")
        if self.validity_ratio() > 0.5:
            warnings.warn(
                f"Omega/|Delta| = {self.validity_ratio():.2f} exceeds 0.5; the "
                "perturbative dressed couplings are unreliable here", stacklevel=2)

    def validity_ratio(self) -> float:
        return abs(self.omega / self.delta)

    def length_scale(self) -> float:
        """Conversion factor rt/r."""
        return (abs(self.delta) / self.c12) ** (1.0 / 6.0)


def effective_potentials(r_tilde, xi: float):
    """Soft-core shapes (Vt, Wt) at scaled distances ``r_tilde`` >= 0.

    Evaluated in a form that is overflow-free both at rt = 0 and rt -> inf
    (where Vt -> 1 and Wt -> 0).
    """
    if not abs(xi) < 1.0:
        raise ValueError("need |xi| < 1")
    rt = np.asarray(r_tilde, dtype=float)
    if np.any(rt < 0):
        raise ValueError("scaled distance must be nonnegative")
    near = rt <= 1.0
    y = np.where(near, rt, 1.0) ** 6
    den_near = (y + 1.0) ** 2 - xi**2
    v_near = (y * y + y) / den_near
    w_near = xi * y / den_near
    # far branch in u = rt^-6, exact in the same algebra
    with np.errstate(divide="ignore"):
        u = np.where(near, 1.0, rt) ** (-6.0)
    den_far = (1.0 + u) ** 2 - (xi * u) ** 2
    v_far = (1.0 + u) / den_far
    w_far = xi * u / den_far
    v = np.where(near, v_near, v_far)
    w = np.where(near, w_near, w_far)
    if np.isscalar(r_tilde):
        return float(v), float(w)
    return v, w


def exchange_peak(xi: float):
    """Location and height (rt*, Wt_max) of the single interior maximum of Wt."""
    if not 0.0 < abs(xi) < 1.0:
        raise ValueError("the exchange shape has an interior maximum only for 0 < |xi| < 1")
    y = math.sqrt(1.0 - xi**2)
    w_max = xi * y / ((y + 1.0) ** 2 - xi**2)
    return y ** (1.0 / 6.0), w_max


def dressed_couplings(params: DressingParams, r):
    """(V_sg, W_sg) at physical distances ``r`` (units of the c12 length)."""
    rt = params.length_scale() * np.asarray(r, dtype=float)
    vt, wt = effective_potentials(rt, params.xi)
    pref = params.omega**2 / (4.0 * params.delta)
    return pref * vt, 2.0 * pref * wt


@dataclass(frozen=True)
class ChannelC6:
    """Four channel dispersion coefficients to the intermediate pair states."""

    c1: float
    c2: float
    c3: float
    c4: float


def vdw_iso_aniso(channels: ChannelC6):
    """Isotropic and anisotropic coefficients (a, b) of the Zeeman-space
    interaction a*Id + b*D0, as fixed linear combinations of the channels."""
    a = (7.0 * channels.c1 + 25.0 * channels.c2
         + 11.0 * (channels.c3 + channels.c4)) / 81.0
    b = (channels.c3 + channels.c4 - channels.c1 - channels.c2) / 27.0
    return a, b
