"""Lens designs and the analytics that predict what they do.

Contains the potential/phase constructors (polynomial thick lenses, parabolic
and aberration-corrected thin pulses, multifocal composites), the continuum
closed forms for focal time and width, the lattice-correction thresholds, the
Bloch-band dispersion for nearest-neighbor and power-law couplings, the
strength/time optimizer, and the semiclassical single-trajectory model.

Unit conventions: lengths in units of the lattice spacing a, energies in units
of the reference hopping J, times in 1/J. ``sigma0`` always means the Gaussian
width parameter of the excitation density (see :mod:`spinlens.wavepacket`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

from .lattice import CouplingModel, NearestNeighbor, SiteTable, build_couplings
from .propagator import expimv_batch, split_stacks, window_batch
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
        if self.coefficients[0] <= 0:
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
        if self.phi0 <= 0:
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


# --- dispersion -------------------------------------------------------------

_SERIES_TOL = 1e-12
_SERIES_CAP = 2_000_000


def _zeta(s: float) -> float:
    import mpmath

    return float(mpmath.zeta(s))


def _oscillatory_series(theta: float, s: float, kind: str) -> float:
    """sum_{n>=1} trig(n theta)/n^s by compensated direct summation.

    A summation-by-parts boundary term approximates the tail, so the
    truncation error is about N^{-s}/(2 sin|theta|/2); N is chosen from that
    bound (capped, with a warning when the cap is binding).
    """
    half = abs(math.sin(theta / 2.0))
    if half == 0.0:
        return 0.0 if kind == "sin" else _zeta(s)
    est = (1.0 / (2.0 * half * _SERIES_TOL)) ** (1.0 / s)
    n_terms = int(min(max(est, 64.0), _SERIES_CAP)) + 1
    if est > _SERIES_CAP:
        err = 1.0 / (2.0 * half * _SERIES_CAP**s)
        warnings.warn(f"dispersion series truncated at {_SERIES_CAP} terms; "
                      f"estimated error {err:.2e}", stacklevel=3)
    n = np.arange(1, n_terms + 1, dtype=float)
    f = np.sin if kind == "sin" else np.cos
    terms = f(n * theta) / n**s
    total = math.fsum(terms)
    # summation-by-parts boundary estimate of the dropped tail
    r_next = (n_terms + 1.0) ** (-s)
    arg = (n_terms + 0.5) * theta
    if kind == "cos":
        total += -r_next * math.sin(arg) / (2.0 * math.sin(theta / 2.0))
    else:
        total += r_next * math.cos(arg) / (2.0 * math.sin(theta / 2.0))
    return total


def dispersion(k, model: CouplingModel) -> np.ndarray:
    """Single-excitation band energy at wavenumbers ``k`` (units 1/a).

    Nearest neighbor: 2J(1 - cos ka). Power law: the lattice sum
    eps_alpha(k) = 2 J0 sum_n [1 - cos(n k a)]/n^alpha, evaluated by
    compensated direct summation (alpha = 2 uses the exact Fourier closed
    form J0 [pi th - th^2/2] on th in [0, 2pi]). Note some conventions halve
    this definition by counting each coupled pair once; all values here follow
    the per-site sum as written.
    """
    from .lattice import PowerLaw

    k = np.asarray(k, dtype=float)
    if isinstance(model, NearestNeighbor):
        return 2.0 * model.strength * (1.0 - np.cos(k))
    if not isinstance(model, PowerLaw):
        raise TypeError("dispersion supports NearestNeighbor and PowerLaw")
    if model.alpha <= 1.0:
        raise ValueError("power-law dispersion diverges for alpha <= 1")
    theta = np.mod(k, 2.0 * np.pi)
    if model.alpha == 2.0:
        # Fourier identity: sum cos(n th)/n^2 = pi^2/6 - pi th/2 + th^2/4
        return model.strength * (np.pi * theta - theta * theta / 2.0)
    z = _zeta(model.alpha)
    flat = theta.ravel()
    out = np.array([2.0 * model.strength * (z - _oscillatory_series(t, model.alpha, "cos"))
                    for t in flat])
    return out.reshape(theta.shape)


def group_velocity(k, model: CouplingModel) -> np.ndarray:
    """d(eps)/dk in units J*a: 2Ja sin(ka) for NN, the term-wise derivative
    2 J0 a sum_n sin(n k a)/n^{alpha-1} for power law."""
    from .lattice import PowerLaw

    k = np.asarray(k, dtype=float)
    if isinstance(model, NearestNeighbor):
        return 2.0 * model.strength * np.sin(k)
    if not isinstance(model, PowerLaw):
        raise TypeError("group_velocity supports NearestNeighbor and PowerLaw")
    if model.alpha <= 1.0:
        raise ValueError("power-law dispersion diverges for alpha <= 1")
    theta = np.mod(k, 2.0 * np.pi)
    s = model.alpha - 1.0
    if s == 1.0:
        out = np.where(theta == 0.0, 0.0, (np.pi - theta) / 2.0)
        return 2.0 * model.strength * out
    flat = theta.ravel()
    out = np.array([2.0 * model.strength * _oscillatory_series(t, s, "sin") for t in flat])
    return out.reshape(theta.shape)


def dispersion_curvature(model: CouplingModel) -> float:
    """eps''(k=0) in units J*a^2: 2J for NN, 2 J0 zeta(alpha-2) for power law
    with alpha > 3 (divergent otherwise)."""
    from .lattice import PowerLaw

    if isinstance(model, NearestNeighbor):
        return 2.0 * model.strength
    if not isinstance(model, PowerLaw):
        raise TypeError("unsupported model")
    if model.alpha <= 3.0:
        raise ValueError("curvature at k=0 diverges for alpha <= 3")
    return 2.0 * model.strength * _zeta(model.alpha - 2.0)


# --- optimization -----------------------------------------------------------


@dataclass
class OptimizeResult:
    """Outcome of a strength/time scan for one lens family."""

    design: LensDesign
    focal_time: float
    focal_width: float
    scan: list
    boundary: bool = False


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


def _width_minima(cases, table, n_time, tol):
    """Minimum packet width over a time window, by scan plus parabolic
    refine, for each case (terms, initial state, window).

    The cases are propagated together: one batch steps each to its
    window's start, :func:`spinlens.propagator.window_batch` samples the
    remaining ``n_time - 1`` times segment by segment, whose widths are
    taken at once, and one batch refines each from its narrowest sample by
    the parabola's sub-step offset. Only the narrowest state of each case
    is kept, and every result equals bit for bit what the case gives alone.
    Returns one (t_min, w_min, at_edge) per case.
    """
    times = [np.linspace(t0, t1, n_time) for _, _, (t0, t1) in cases]
    # a window starting at 0 starts from the initial state itself
    starts = expimv_batch(
        ((terms.matrix(), psi0.amplitudes, ts[0] if ts[0] > 0 else 0.0, terms.bounds())
         for (terms, psi0, _), ts in zip(cases, times)), tol=tol)
    widths, best, samples = [], [], []
    for (terms, _, _), ts, amp in zip(cases, times, starts):
        w = np.empty(n_time)
        w[0] = gaussian_width(SpinWaveState(amp), table)
        widths.append(w)
        best.append((0, amp))
        samples.append((terms.matrix(), amp, ts[1] - ts[0], terms.bounds()))
    for c, j, states in window_batch(samples, n_time - 1, tol=tol):
        w = widths[c]
        w[j:j + len(states)] = gaussian_widths(states, table)
        i = j + int(np.argmin(w[j:j + len(states)]))
        if w[i] < w[best[c][0]]:   # the first of equal widths stays
            best[c] = (i, states[i - j].copy())
        del states   # a view on the window's buffer, which the next segment reuses
    found, refine = [], []
    for (terms, _, _), ts, w, (i, amp) in zip(cases, times, widths, best):
        at_edge = i == 0 or i == n_time - 1
        found.append([ts[i], w[i], at_edge])
        vertex = None if at_edge else _parabola_vertex(w, i)
        if vertex is not None:
            shift = vertex[0] * (ts[1] - ts[0])
            refine.append((len(found) - 1, ts[i] + shift,
                           (terms.matrix(), amp, shift, terms.bounds())))
    refined = expimv_batch((r[2] for r in refine), tol=tol)
    for (j, t_ref, _), amp in zip(refine, refined):
        w_ref = gaussian_width(SpinWaveState(amp), table)
        if w_ref < found[j][1]:
            found[j][:2] = t_ref, w_ref
    return [tuple(f) for f in found]


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
    """Focal time and width of each candidate design, evaluated together,
    as many at a time as fit one stacked operator; a design whose minimum
    lands on its time-window edge has the window extended, up to twice, in
    a batch with the others that need it.

    Returns one (t_f, w_f, at_edge) per design.
    """
    def terms(design):
        if isinstance(design, ThickPolynomial):
            return clipped_thick_terms(base_terms, design, table, hopping)
        return base_terms

    states, windows = [], []
    for design in designs:
        if isinstance(design, ThickPolynomial):
            t_est = math.pi / (4.0 * math.sqrt(design.coefficients[0] * hopping))
            states.append(psi0)
        else:
            t_est = continuum_thin(design.phi0, max(gaussian_width(psi0, table), 1.0),
                                   hopping).focal_time
            states.append(phase_imprint(psi0, thin_phase_profile(design, table)))
        windows.append((0.5 * t_est, 1.5 * t_est))
    results = [None] * len(designs)
    todo = list(range(len(designs)))
    for _ in range(3):
        # One stacked operator's worth of designs at a time, each with terms
        # built for it and dropped after, bounds the memory. Every design's
        # operator holds the nonzeros of base_terms plus at most a diagonal.
        found = [f for cut in split_stacks(todo, lambda i: base_terms.matrix())
                 for f in _width_minima([(terms(designs[i]), states[i], windows[i])
                                         for i in cut], table, n_time, tol)]
        retry = []
        for i, (t_f, w_f, at_edge) in zip(todo, found):
            results[i] = (t_f, w_f, at_edge)
            if at_edge:
                lo, hi = windows[i]
                windows[i] = (0.25 * lo, hi) if t_f <= lo * 1.01 else (lo, 2.0 * hi)
                retry.append(i)
        todo = retry
    return results


def optimize_lens(table: SiteTable, model: CouplingModel, sigma0: float,
                  kind: str = "thick", order: int = 2, focus=None,
                  initial_state: SpinWaveState | None = None,
                  n_time: int = 200, tol: float = 1e-8) -> OptimizeResult:
    """Minimize the focal width over lens strength and time.

    Strengths are scanned on a log grid of 8 points per decade spanning
    [0.1, 10] x (the scaling estimate from :func:`thresholds`), extended one
    decade if the narrowest point sits on a grid end, then refined by bounded
    scalar minimization; the time minimum within each evolution is found by
    an ``n_time``-point scan plus parabolic refinement: one step to the
    window's start, the other ``n_time - 1`` samples from one Chebyshev
    recurrence per window segment
    (:func:`spinlens.propagator.window_batch`), and one step from the
    narrowest sample by the parabola vertex's offset, a fraction of a
    sample. For thick lenses of order > 2 the higher coefficients are
    optimized by coordinate descent in two sweeps: each one in turn is
    scanned over multiples
    ``_CORRECTION_GRID`` = (0, 0.5, 1, 1.5, 2) of its value on the classical
    isochrone of the band (see ``_isochrone_coefficients``), then the leading
    strength is retried at x0.8 and x1.25. Thin pulses are parabolic.

    The designs of a stage are evaluated together, as one batch of
    independent evolutions for the start step, the window scan and the
    refine step (as many designs at a time as fit one stacked operator, see
    :func:`spinlens.propagator.split_stacks`):
    the stage-1 grid, its extension, each stage-3 correction grid and the
    x0.8/x1.25 retries; window-extension retries are batched among the
    designs that need them, and stage 2 asks for one design at a time. Each
    design's result is bit for bit what it gives alone.

    Every evaluated design is recorded once in ``scan`` (design, strength,
    focal time and width, and whether the time minimum stayed on a window
    edge), in the order asked for; a design asked for again is not
    re-evaluated. The result is always the narrowest ``scan`` entry, the
    first of equals. The correction grid
    includes 0 (the term left out), so the result is never wider than the
    order-2 optimum it starts from. ``boundary`` reports a winning design
    whose minimum still sat on a strength-grid or time-window edge after
    automatic extension, never silently.

    ``initial_state`` (default: a Gaussian of width ``sigma0`` at rest at
    ``focus``) lets a second lens stage start from the output of a first.
    """
    if kind not in ("thick", "thin"):
        raise ValueError("kind must be 'thick' or 'thin'")
    if kind == "thick" and (order % 2 or not 2 <= order <= 8):
        raise ValueError("thick order must be even, 2..8")
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

    def make_design(main, extra=()):
        if kind == "thick":
            coeffs = (main,) + tuple(extra) + (0.0,) * (order // 2 - 1 - len(extra))
            return ThickPolynomial(coefficients=coeffs[: order // 2], focus=tuple(focus))
        return ThinPulse(phi0=main, focus=tuple(focus))

    def run(designs):
        """Focal widths of ``designs``; those not yet in ``scan`` are
        evaluated together and recorded in the order asked."""
        known = [s["design"] for s in scan]
        fresh = []
        for d in designs:
            if d not in known and d not in fresh:
                fresh.append(d)
        for d, (t_f, w_f, at_edge) in zip(fresh, _eval_designs(
                fresh, table, base_terms, psi0, hopping, n_time, tol)):
            strength = d.coefficients[0] if kind == "thick" else d.phi0
            scan.append({"design": d, "strength": strength, "focal_time": t_f,
                         "focal_width": w_f, "at_edge": at_edge})
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
        minimize_scalar(lambda lg: run([make_design(10.0**lg)])[0],
                        bounds=(math.log10(g_lo), math.log10(g_hi)),
                        method="bounded", options={"xatol": 5e-3, "maxiter": 20})

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
                          boundary=win["at_edge"] or strength_edge)


# --- semiclassical single-wing model ----------------------------------------


def band_potential(x, v0: float, x0: float, hopping: float = 1.0) -> np.ndarray:
    """Effective potential governing the slow center motion of a narrow
    sub-packet launched at rest from x0 in a quadratic lens.

    Eliminating the momentum through energy conservation on the band gives
    V_eff(x) = [(4 v0 J - 2 v0^2 x0^2) x^2 + v0^2 x^4] / 2, bounded below and
    confining. Its quadratic coefficient changes sign at
    x0 = sqrt(2 J / v0) (see ``double_well_threshold``): beyond that the
    origin turns into a local maximum and the wing oscillates about a
    displaced minimum instead of crossing the focus.
    """
    x = np.asarray(x, dtype=float)
    quad = 4.0 * v0 * hopping - 2.0 * v0**2 * x0**2
    return 0.5 * (quad * x * x + v0**2 * x**4)


def double_well_threshold(v0: float, hopping: float = 1.0) -> float:
    """Launch radius sqrt(2 J / v0) where ``band_potential`` turns double-well."""
    return math.sqrt(2.0 * hopping / v0)


@dataclass
class SemiclassicalResult:
    times: np.ndarray
    x: np.ndarray
    k: np.ndarray
    energy_drift: float
    period: float | None
    classification: str
    displacement_amplitude: float
    bloch_frequency: float
    double_well_threshold: float


def semiclassical_model(v0: float, x0: float, hopping: float = 1.0, k0: float = 0.0,
                        n_periods: float = 3.0, n_eval: int = 2000) -> SemiclassicalResult:
    """Integrate the single-trajectory equations of motion on the band.

        dx/dt = 2 J sin(k),   dk/dt = -2 v0 x

    (lengths in a, k in 1/a). Energy E = 2J(1 - cos k) + v0 x^2 is conserved
    to 1e-8 by the adaptive integrator. The initial condition is classified
    against sigma_bo = 2 sqrt(J/v0): wings launched beyond it Bloch-oscillate
    (bounded motion that never crosses the origin) instead of focusing.
    Also reported: the local oscillation amplitude 2J/V'(x0) (in sites) and
    frequency V'(x0)/2 of the Bloch oscillation a wing at x0 performs.
    """
    if v0 <= 0 or hopping <= 0:
        raise ValueError("v0 and hopping must be positive")
    omega = 2.0 * math.sqrt(v0 * hopping)
    t_end = n_periods * 2.0 * math.pi / omega

    def rhs(_, y):
        return [2.0 * hopping * math.sin(y[1]), -2.0 * v0 * y[0]]

    sol = solve_ivp(rhs, (0.0, t_end), [float(x0), float(k0)], method="DOP853",
                    rtol=1e-11, atol=1e-12, dense_output=False,
                    t_eval=np.linspace(0.0, t_end, n_eval))
    x, k = sol.y
    energy = 2.0 * hopping * (1.0 - np.cos(k)) + v0 * x * x
    drift = float(np.abs(energy - energy[0]).max() / max(abs(energy[0]), 1e-300))

    period = None
    if abs(x0) > 0:
        # full period from successive same-direction zero crossings of x
        sign = np.sign(x)
        down = np.nonzero((sign[:-1] > 0) & (sign[1:] <= 0))[0]
        if len(down) >= 2:
            def cross(i):
                return sol.t[i] + (sol.t[i + 1] - sol.t[i]) * x[i] / (x[i] - x[i + 1])
            period = cross(down[1]) - cross(down[0])

    sigma_bo = 2.0 * math.sqrt(hopping / v0)
    vprime = 2.0 * v0 * abs(x0)
    return SemiclassicalResult(
        times=sol.t, x=x, k=k, energy_drift=drift, period=period,
        classification="single_well" if abs(x0) < sigma_bo else "double_well",
        displacement_amplitude=(2.0 * hopping / vprime) if vprime > 0 else math.inf,
        bloch_frequency=vprime / 2.0,
        double_well_threshold=double_well_threshold(v0, hopping),
    )
