"""Lens designs and the analytics that predict what they do.

Contains the potential/phase constructors (polynomial thick lenses, parabolic
and aberration-corrected thin pulses, multifocal composites), the continuum
closed forms for focal time and width, the lattice-correction thresholds and
the strength/time optimizer.

Unit conventions: lengths in units of the lattice spacing a, energies in units
of the reference hopping J, times in 1/J. ``sigma0`` always means the Gaussian
width parameter of the excitation density (see :mod:`spinlens.wavepacket`).

The optimizer samples each design's focal window along
:func:`spinlens.propagator.evolution_path`, the path every sampled evolution
takes. A centred lens acting on a packet at rest at the focus, as the
paper's lenses are, keeps the excitation in the even subspace of the mirror
n -> N-1-n of the flat site index, and the design's even operator is set up
from the hopping's fold, made once per optimizer call, and its own diagonal
(``lattice._HoppingFold``). ``OptimizeResult.paths`` counts the designs
decomposed on the even operator ("even") or the full H ("dense"), and those
stepped by Chebyshev ("chebyshev").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import CouplingModel, SiteTable, build_couplings
from .propagator import evolution_path
from .wavepacket import (SpinWaveState, gaussian_packet, gaussian_width, gaussian_widths,
                         phase_imprint)


# --- designs ----------------------------------------------------------------


@dataclass(frozen=True)
class ThickPolynomial:
    """Static even polynomial potential V(d) = sum_q c_q d^{2q}, q = 1..Q/2.

    ``coefficients`` lists (v2, v4, ...) in units J/a^{2q}; ``focus`` is the
    focal point in label coordinates (scalar for 1D, tuple otherwise). The
    quadratic coefficient must be positive for a confining single well.
    Like every design type it reports its ``foci`` and whether it is ``thin``.
    """

    coefficients: tuple[float, ...]
    focus: tuple[float, ...]
    thin = False                       # class constant, not a field

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(c) for c in np.atleast_1d(self.coefficients)))
        object.__setattr__(self, "focus", tuple(float(f) for f in np.atleast_1d(self.focus)))
        if not 1 <= len(self.coefficients) <= 4:
            raise ValueError("polynomial order Q must be even and <= 8")
        if not self.coefficients[0] > 0:
            raise ValueError("quadratic coefficient must be positive")

    @property
    def order(self) -> int:
        return 2 * len(self.coefficients)

    @property
    def foci(self) -> tuple:
        return (self.focus,)


@dataclass(frozen=True)
class ThinPulse:
    """Instantaneous phase imprint of strength ``phi0`` about ``focus``.

    profile 'parabolic': phi(d) = phi0 d^2.
    profile 'corrected': the stationary-arrival profile whose momentum kick
    satisfies sin(ka) = -phi0 d, so every site within |d| < 1/phi0 arrives at
    the focus at exactly t_f = 1/(2 J phi0); beyond that domain the phase
    continues linearly with the boundary slope pi/2 (those wings cannot arrive
    in time under any kick).
    """

    phi0: float
    focus: tuple[float, ...]
    profile: str = "parabolic"
    thin = True                        # class constant, not a field

    def __post_init__(self):
        object.__setattr__(self, "focus", tuple(float(f) for f in np.atleast_1d(self.focus)))
        if not self.phi0 > 0:
            raise ValueError("phi0 must be positive")
        if self.profile not in ("parabolic", "corrected"):
            raise ValueError(f"unknown thin profile {self.profile!r}")

    @property
    def foci(self) -> tuple:
        return (self.focus,)


@dataclass(frozen=True)
class Multifocal:
    """Several single-focus designs, one per region of a lattice partition.

    Sites are assigned to the region of the nearest focus (the half-space
    partition by perpendicular bisectors); ties go to the lower region index.
    All member designs must be of the same kind.
    """

    designs: tuple

    def __post_init__(self):
        object.__setattr__(self, "designs", tuple(self.designs))
        if len(self.designs) < 2:
            raise ValueError("a multifocal design needs at least two foci")
        kinds = {type(d) for d in self.designs}
        if len(kinds) != 1 or not kinds <= {ThickPolynomial, ThinPulse}:
            raise ValueError("multifocal members must all be thick or all thin")
        if len(set(self.foci)) != len(self.foci):
            raise ValueError("duplicate foci make the region partition ambiguous")

    @property
    def foci(self) -> tuple:
        """Member foci in region order; the first is the primary focus."""
        return tuple(d.focus for d in self.designs)

    @property
    def thin(self) -> bool:
        return self.designs[0].thin


LensDesign = ThickPolynomial | ThinPulse | Multifocal


def region_index(table: SiteTable, foci) -> np.ndarray:
    """Nearest-focus region of every site, ties to the lower index."""
    foci = np.atleast_2d(np.asarray(foci, dtype=float))
    if foci.shape[1] != table.dim:
        raise ValueError("focus dimension mismatch")
    d2 = ((table.labels[:, None, :] - foci[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)  # argmin takes the first of equals


def _by_region(profile, design: Multifocal, table: SiteTable) -> np.ndarray:
    """Each site takes the ``profile`` value of its region's member design."""
    reg = region_index(table, design.foci)
    out = np.zeros(table.n_sites)
    for r, sub in enumerate(design.designs):
        m = reg == r
        out[m] = profile(sub, table)[m]
    return out


def _label_distance(table: SiteTable, focus) -> np.ndarray:
    f = np.atleast_1d(np.asarray(focus, dtype=float))
    if f.shape != (table.dim,):
        raise ValueError("focus dimension mismatch")
    d = table.labels - f
    return np.sqrt((d * d).sum(axis=1))


def potential_profile(design: LensDesign, table: SiteTable) -> np.ndarray:
    """Per-site potential of a thick design, evaluated at integer labels.

    The profile is a property of the applied field pattern, not of where the
    atoms actually sit, so displacement disorder does not enter here.
    """
    if isinstance(design, Multifocal):
        return _by_region(potential_profile, design, table)
    if not isinstance(design, ThickPolynomial):
        raise TypeError("potential_profile needs a thick design")
    d = _label_distance(table, design.focus)
    out = np.zeros(table.n_sites)
    for q, c in enumerate(design.coefficients, start=1):
        if c != 0.0:
            out += c * d ** (2 * q)
    return out


def corrected_phase(offset, phi0: float) -> np.ndarray:
    """Phase of the aberration-corrected thin profile at signed offset d.

    On |d| <= 1/phi0 this is d*arcsin(phi0 d) + sqrt(1 - phi0^2 d^2)/phi0
    (zeroed at the focus); outside, the linear continuation with slope pi/2.
    The imprinted kick -dphi/dd then satisfies sin(ka) = -phi0 d on the valid
    domain, the condition for simultaneous arrival at t_f = 1/(2 J phi0).
    """
    d = np.asarray(offset, dtype=float)
    ad = np.minimum(np.abs(d) * phi0, 1.0)
    core = np.abs(d) * np.arcsin(ad) + np.sqrt(np.maximum(1.0 - ad * ad, 0.0)) / phi0
    wings = np.pi / (2.0 * phi0) + (np.abs(d) - 1.0 / phi0) * (np.pi / 2.0)
    return np.where(np.abs(d) * phi0 <= 1.0, core, wings) - 1.0 / phi0


def thin_phase_profile(design: LensDesign, table: SiteTable) -> np.ndarray:
    """Per-site imprint phases of a thin design at integer labels."""
    if isinstance(design, Multifocal):
        return _by_region(thin_phase_profile, design, table)
    if not isinstance(design, ThinPulse):
        raise TypeError("thin_phase_profile needs a thin design")
    d = _label_distance(table, design.focus)
    if design.profile == "parabolic":
        return design.phi0 * d * d
    return corrected_phase(d, design.phi0)


# --- continuum predictions --------------------------------------------------


@dataclass(frozen=True)
class ContinuumPrediction:
    """Closed-form harmonic/Gaussian predictions for one lens setting.

    ``omega`` and ``ell`` are None for thin lenses (no trap frequency);
    ``width(t)`` evaluates the full breathing/spreading curve. All widths are
    Gaussian width parameters (density exp(-x^2/sigma^2)).
    """

    kind: str
    sigma0: float
    strength: float
    hopping: float
    mass: float
    focal_time: float
    focal_width: float
    omega: float | None = None
    ell: float | None = None

    def width(self, t):
        """sigma(t) for evolution from the unchirped packet at t = 0."""
        t = np.asarray(t, dtype=float)
        if self.kind == "thick":
            c, s = np.cos(self.omega * t), np.sin(self.omega * t)
            return np.sqrt(self.sigma0**2 * c * c
                           + (self.ell**4 / self.sigma0**2) * s * s)
        u = 2.0 * self.hopping * t
        return self.sigma0 * np.sqrt((1.0 - 2.0 * self.strength * u) ** 2
                                     + (u / self.sigma0**2) ** 2)


def continuum_thick(v0: float, sigma0: float, hopping: float = 1.0) -> ContinuumPrediction:
    """Harmonic-approximation predictions for a quadratic thick lens."""
    if min(v0, sigma0, hopping) <= 0:
        raise ValueError("v0, sigma0, hopping must be positive")
    omega = 2.0 * math.sqrt(v0 * hopping)
    mass = 1.0 / (2.0 * hopping)
    ell = (hopping / v0) ** 0.25
    return ContinuumPrediction(
        kind="thick", sigma0=sigma0, strength=v0, hopping=hopping,
        mass=mass, omega=omega, ell=ell,
        focal_time=math.pi / (2.0 * omega),
        focal_width=ell * ell / sigma0,
    )


def continuum_thin(phi0: float, sigma0: float, hopping: float = 1.0) -> ContinuumPrediction:
    """Quadratic-dispersion predictions for a parabolic thin lens.

    The focal width is sigma0/sqrt(4 phi0^2 sigma0^4 + 1). The focal time is
    the minimum of the chirped-Gaussian width curve ``width(t)``,

        J t_f = phi0 sigma0^4 / (4 phi0^2 sigma0^4 + 1),

    which direct lattice simulation also singles out.
    """
    if min(phi0, sigma0, hopping) <= 0:
        raise ValueError("phi0, sigma0, hopping must be positive")
    denom = 4.0 * phi0**2 * sigma0**4 + 1.0
    return ContinuumPrediction(
        kind="thin", sigma0=sigma0, strength=phi0, hopping=hopping,
        mass=1.0 / (2.0 * hopping),
        focal_time=phi0 * sigma0**4 / (denom * hopping),
        focal_width=sigma0 / math.sqrt(denom),
    )


def corrected_focal_time(phi0: float, hopping: float = 1.0) -> float:
    """Design focal time 1/(2 J phi0) of the corrected thin profile."""
    return 1.0 / (2.0 * hopping * phi0)


def thresholds(sigma0: float | None = None, v0: float | None = None,
               phi0: float | None = None, hopping: float = 1.0) -> dict:
    """Lattice-correction scales for the given inputs.

    Returns whichever of the following are computable: ``sigma_bo`` (packet
    radius beyond which wings Bloch-oscillate instead of focusing), ``v_bo``
    and ``phi_bo`` (strengths at which the initial width hits that radius),
    ``v_opt_scale`` and ``phi_opt_scale`` (aberration/diffraction balance
    scalings), and the critical momenta ``k_c_thick`` / ``k_c_thin`` beyond
    which quartic dispersion dephases the focus. Entries listed in
    ``empirical_prefactor`` are pure scalings with unit prefactor.
    """
    out: dict = {"empirical_prefactor": ("phi_bo", "v_opt_scale", "phi_opt_scale")}
    if v0 is not None:
        out["sigma_bo"] = 2.0 * math.sqrt(hopping / v0)
        out["k_c_thick"] = (2304.0 * v0 / (math.pi**2 * hopping)) ** 0.125
    if sigma0 is not None:
        out["v_bo"] = 4.0 * hopping / sigma0**2
        out["phi_bo"] = 1.0 / sigma0
        out["v_opt_scale"] = hopping * sigma0 ** (-8.0 / 3.0)
        out["phi_opt_scale"] = sigma0 ** (-4.0 / 3.0)
    if phi0 is not None:
        out["k_c_thin"] = (24.0 * phi0) ** 0.25
    return out


# --- optimization -----------------------------------------------------------


@dataclass
class OptimizeResult:
    """Outcome of a strength/time scan for one lens family. ``paths``
    counts the designs of ``scan`` sampled on each path ("even", "dense",
    "chebyshev": module docstring), by the evaluation that gave each its
    result."""

    design: LensDesign
    focal_time: float
    focal_width: float
    scan: list
    boundary: bool = False
    paths: dict = field(default_factory=dict)


# In optimizer evolutions, and replays of their designs, on-site energies are
# clipped to +- this value (units of the reference hopping; see
# clipped_thick_terms). Sites that deep in the potential hold no packet
# weight, and the clip keeps the propagator's spectral span, hence its cost,
# bounded during strength scans.
OPTIMIZER_CLIP = 200.0

_GRID_SPAN = (0.1, 10.0)
_POINTS_PER_DECADE = 8

# Coefficients of the classical isochrone of the band 2J(1 - cos k): the
# potential V = g d^2 + sum_q f_q g^(q+1)/J^q d^(2q+2) in which a wing
# released at rest from any x0 reaches the focus at the same time. Obtained
# by Abel inversion of the arrival time, order by order.
_ISOCHRONE_FRACTIONS = (1.0 / 12.0, 7.0 / 360.0, 121.0 / 20160.0)

# Stage-3 trial values of each higher coefficient, as multiples of its
# isochrone value: centred on the isochrone (1), symmetric about it, and
# including the uncorrected lens (0).
_CORRECTION_GRID = (0.0, 0.5, 1.0, 1.5, 2.0)


def _isochrone_coefficients(g: float, hopping: float) -> tuple[float, ...]:
    """(v4, v6, v8) of the isochrone whose quadratic coefficient is ``g``:
    g^2/(12J), 7g^3/(360J^2), 121g^4/(20160J^3)."""
    return tuple(f * g ** (q + 1) / hopping**q
                 for q, f in enumerate(_ISOCHRONE_FRACTIONS, start=1))


# Stage 2's bounded search (_bounded_brent): the convergence width in log10
# strength and the most objective evaluations, the first included.
_BRENT_XATOL = 5e-3
_BRENT_EVALS = 20
# numpy scalars, as in SciPy, so that every iterate has SciPy's type
_SQRT_EPS = np.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - np.sqrt(5.0))


def _bounded_brent(func, lo: float, hi: float, xatol: float, maxiter: int) -> None:
    """Search [lo, hi] for the minimum of ``func`` by golden-section and
    parabolic steps (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 5; Forsythe, Malcolm and Moler's ``fmin``). The
    caller keeps what it needs of each evaluation, so nothing is returned.

    A port of SciPy 1.17's ``optimize._optimize._minimize_scalar_bounded``
    (BSD-3-Clause; Copyright (c) 2001-2002 Enthought, Inc., 2003 SciPy
    Developers), with its operations in the same order on the same
    numpy scalars, so it asks ``func`` for exactly the points that
    ``minimize_scalar(func, bounds=(lo, hi), method="bounded",
    options={"xatol": xatol, "maxiter": maxiter})`` asks for, in the same
    order. ``func`` is called at most max(2, ``maxiter``) times, the first
    included.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("search bounds must be finite")
    if lo > hi:
        raise ValueError("the lower search bound exceeds the upper one")
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if np.abs(e) > tol1:
            # a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break


def _parabola_vertex(y, i):
    """Vertex of the parabola through the equally spaced samples y[i-1],
    y[i], y[i+1]: (offset from sample i in steps, value), or None unless the
    parabola opens upward."""
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if not denom > 0:
        return None
    shift = 0.5 * (y0 - y2) / denom
    return shift, y1 - 0.25 * (y0 - y2) * shift


def _refined_minimum(ts, w, width_at):
    """The narrowest of the widths ``w`` sampled at the equally spaced times
    ``ts``, the first of equals, refined at the vertex of the parabola
    through it and its neighbours when that is narrower: (t_min, w_min,
    at_edge). ``width_at(i, shift)`` is the width at ts[i] + shift."""
    i = int(np.argmin(w))
    at_edge = i == 0 or i == len(ts) - 1
    t_min, w_min = ts[i], w[i]
    vertex = None if at_edge else _parabola_vertex(w, i)
    if vertex is not None:
        shift = vertex[0] * (ts[1] - ts[0])
        w_ref = width_at(i, shift)
        if w_ref < w_min:
            t_min, w_min = ts[i] + shift, w_ref
    return t_min, w_min, at_edge


def _width_minimum(terms, psi0, window, table, n_time, tol):
    """Minimum packet width over a time ``window`` for one case (terms,
    initial state, window), by an ``n_time``-point scan plus parabolic
    refine (:func:`_refined_minimum`): (t_min, w_min, at_edge, path).

    The samples come from one :func:`spinlens.propagator.evolution_path`.
    Decomposed, every sample and the parabola's vertex is the exact state
    at its time, whatever ``tol``, and the decomposition stays cached on
    ``terms``. Stepped, only the narrowest state is kept, and the vertex is
    one step from it, a fraction of a grid step.
    """
    ts = np.linspace(*window, n_time)
    path = evolution_path(terms, psi0.amplitudes, ts, tol)
    w = np.empty(n_time)
    k = i = 0
    for block in path.samples():
        w[k:k + len(block)] = gaussian_widths(block, table)
        j = k + int(np.argmin(w[k:k + len(block)]))
        if k == 0 or w[j] < w[i]:   # the first of equal widths stays, as in argmin
            i, best = j, block[j - k]
        k += len(block)
    label = ("even" if path.even else "dense") if path.dense else "chebyshev"
    return *_refined_minimum(ts, w, lambda i, shift: gaussian_widths(
        path.later(best, ts[i], shift), table)[0]), label


def clipped_thick_terms(base_terms, design: ThickPolynomial, table: SiteTable,
                        hopping: float):
    """``base_terms`` plus the thick-lens potential as the optimizer evolves
    it: on-site energies clipped to +-``OPTIMIZER_CLIP`` * ``hopping``.

    Replaying an optimized design through this reproduces the focal time and
    width the optimizer reported. The clip is two-sided: negative correction
    coefficients (normal for corrected profiles) send far-edge sites to huge
    negative energies, which cost propagator order without carrying packet
    weight.
    """
    clip = OPTIMIZER_CLIP * hopping
    return base_terms.with_diagonal(
        np.clip(potential_profile(design, table), -clip, clip))


def _eval_designs(designs, table, base_terms, psi0, hopping, n_time, tol):
    """Focal time and width of each candidate design, one at a time; a
    design whose minimum lands on its time-window edge has the window
    extended, up to twice.

    Returns one (t_f, w_f, at_edge, path) per design, the path of its last
    evaluation. A thick design's terms, with any decomposition cached on
    them, are dropped before the next design's are built; thin designs all
    evolve under ``base_terms`` and share its decomposition.
    """
    results = []
    for design in designs:
        if isinstance(design, ThickPolynomial):
            terms = clipped_thick_terms(base_terms, design, table, hopping)
            t_est = math.pi / (4.0 * math.sqrt(design.coefficients[0] * hopping))
            state = psi0
        else:
            terms = base_terms
            t_est = continuum_thin(design.phi0, max(gaussian_width(psi0, table), 1.0),
                                   hopping).focal_time
            state = phase_imprint(psi0, thin_phase_profile(design, table))
        window = (0.5 * t_est, 1.5 * t_est)
        for _ in range(3):
            t_f, w_f, at_edge, path = _width_minimum(terms, state, window, table,
                                                     n_time, tol)
            if not at_edge:
                break
            lo, hi = window
            window = (0.25 * lo, hi) if t_f <= lo * 1.01 else (lo, 2.0 * hi)
        results.append((t_f, w_f, at_edge, path))
    return results


def _check_design(kind: str, order: int):
    """Raise ValueError unless :func:`optimize_lens` can optimize a lens of
    ``kind``, "thick" or "thin", and polynomial ``order``: even, 2..8, for
    a thick lens."""
    if kind not in ("thick", "thin"):
        raise ValueError("kind must be 'thick' or 'thin'")
    if kind == "thick" and (order % 2 or not 2 <= order <= 8):
        raise ValueError("thick order must be even, 2..8")


def optimize_lens(table: SiteTable, model: CouplingModel, sigma0: float,
                  kind: str = "thick", order: int = 2, focus=None,
                  initial_state: SpinWaveState | None = None,
                  n_time: int = 200, tol: float = 1e-8) -> OptimizeResult:
    """Minimize the focal width over lens strength and time.

    Strengths are scanned on a log grid of 8 points per decade spanning
    [0.1, 10] x (the scaling estimate from :func:`thresholds`), extended one
    decade if the narrowest point sits on a grid end, then refined between
    the narrowest point's grid neighbours by a bounded Brent search, SciPy's
    iterates (:func:`_bounded_brent`); the time minimum within each
    evolution is found by an ``n_time``-point scan plus parabolic refinement
    at the vertex time.
    Each design's window is sampled along one evolution path (module
    docstring): decomposed, on the design's ceil(N/2)-row even operator
    when the lens, the table and the state are mirror-symmetric about the
    table's centre (the default focus and packet), or stepped by
    Chebyshev. Thin designs all evolve under the bare couplings and share
    one decomposition per call, and each thick design's is dropped before
    the next is built. Designs are evaluated one at a time,
    window-extension retries included. For thick lenses of order
    > 2 the higher coefficients are optimized by coordinate descent in two
    sweeps: each one in turn is scanned over multiples
    ``_CORRECTION_GRID`` = (0, 0.5, 1, 1.5, 2) of its value on the classical
    isochrone of the band (see ``_isochrone_coefficients``), then the leading
    strength is retried at x0.8 and x1.25. Thin pulses are parabolic.

    Every evaluated design is recorded once in ``scan`` (design, strength,
    focal time and width, and whether the time minimum stayed on a window
    edge), in the order asked for; a design asked for again is not
    re-evaluated. The result is always the narrowest ``scan`` entry, the
    first of equals. The correction grid
    includes 0 (the term left out), so the result is never wider than the
    order-2 optimum it starts from. ``boundary`` reports a winning design
    whose minimum still sat on a strength-grid or time-window edge after
    automatic extension, never silently. ``paths`` counts the ``scan``
    entries sampled on each path: "even", "dense" or "chebyshev".

    ``initial_state`` (default: a Gaussian of width ``sigma0`` at rest at
    ``focus``) lets a second lens stage start from the output of a first.
    """
    _check_design(kind, order)
    hopping = model.reference_hopping()
    focus = table.center() if focus is None else np.atleast_1d(np.asarray(focus, float))
    base_terms = build_couplings(table, model)
    if initial_state is None:
        psi0 = gaussian_packet(table, sigma0, center=focus)
    else:
        psi0 = initial_state
    scale = thresholds(sigma0=sigma0, hopping=hopping)[
        "v_opt_scale" if kind == "thick" else "phi_opt_scale"]

    scan: list = []
    paths = {"even": 0, "dense": 0, "chebyshev": 0}

    def make_design(main, extra=()):
        if kind == "thick":
            coeffs = (main,) + tuple(extra) + (0.0,) * (order // 2 - 1 - len(extra))
            return ThickPolynomial(coefficients=coeffs[: order // 2], focus=tuple(focus))
        return ThinPulse(phi0=main, focus=tuple(focus))

    def run(designs):
        """Focal widths of ``designs``; those not yet in ``scan`` are
        evaluated and recorded in the order asked."""
        known = [s["design"] for s in scan]
        fresh = []
        for d in designs:
            if d not in known and d not in fresh:
                fresh.append(d)
        for d, (t_f, w_f, at_edge, path) in zip(fresh, _eval_designs(
                fresh, table, base_terms, psi0, hopping, n_time, tol)):
            strength = d.coefficients[0] if kind == "thick" else d.phi0
            scan.append({"design": d, "strength": strength, "focal_time": t_f,
                         "focal_width": w_f, "at_edge": at_edge})
            paths[path] += 1
        return [next(s["focal_width"] for s in scan if s["design"] == d)
                for d in designs]

    def best():
        return min(scan, key=lambda s: s["focal_width"])  # first of equals

    # stage 1: log grid in the leading strength
    lo, hi = _GRID_SPAN[0] * scale, _GRID_SPAN[1] * scale
    n_pts = int(round(_POINTS_PER_DECADE * math.log10(hi / lo))) + 1
    grid = np.geomspace(lo, hi, n_pts)
    run([make_design(g) for g in grid])
    g_best = best()["strength"]
    if g_best in (grid[0], grid[-1]):
        # extend the strength grid one decade on the open side
        wider = np.geomspace(lo / 10.0, lo, _POINTS_PER_DECADE, endpoint=False) \
            if g_best == grid[0] else np.geomspace(hi, hi * 10.0, _POINTS_PER_DECADE + 1)[1:]
        run([make_design(g) for g in wider])
    gs = sorted({s["strength"] for s in scan})
    j = gs.index(best()["strength"])
    strength_edge = j in (0, len(gs) - 1)

    # stage 2: bounded refinement of the leading strength between the
    # scanned neighbours of the narrowest point
    g_lo, g_hi = gs[max(j - 1, 0)], gs[min(j + 1, len(gs) - 1)]
    if g_hi > g_lo:
        _bounded_brent(lambda lg: run([make_design(10.0**lg)])[0],
                       math.log10(g_lo), math.log10(g_hi), _BRENT_XATOL, _BRENT_EVALS)

    # stage 3: coordinate descent on the higher polynomial coefficients
    if kind == "thick" and order > 2:
        for _ in range(2):
            for qi in range(order // 2 - 1):
                g, *extra = best()["design"].coefficients
                # scale from the classical isochrone of the cosine band,
                # V = g d^2 + g^2/(12J) d^4 + 7 g^3/(360 J^2) d^6 + ...:
                # useful corrections live near these values, far below the
                # packet-size scale g / sigma0^(2 qi).
                cscale = _isochrone_coefficients(g, hopping)[qi]
                run([make_design(g, extra[:qi] + [rel * cscale] + extra[qi + 1:])
                     for rel in _CORRECTION_GRID])
            # re-refine the leading coefficient with the new correction terms
            g, *extra = best()["design"].coefficients
            run([make_design(trial_g, extra) for trial_g in (g * 0.8, g * 1.25)])

    win = best()
    return OptimizeResult(design=win["design"], focal_time=win["focal_time"],
                          focal_width=win["focal_width"], scan=scan,
                          boundary=win["at_edge"] or strength_edge,
                          paths=paths)
