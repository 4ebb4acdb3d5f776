"""Lens designs and the analytics that predict what they do.

Contains the potential/phase constructors (polynomial thick lenses, parabolic
and aberration-corrected thin pulses, multifocal composites), the continuum
closed forms for focal time and width, the lattice-correction thresholds and
the strength/time optimizer.

Unit conventions: lengths in units of the lattice spacing a, energies in units
of the reference hopping J, times in 1/J. ``sigma0`` always means the Gaussian
width parameter of the excitation density (see :mod:`spinlens.wavepacket`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .lattice import CouplingModel, SiteTable, build_couplings
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


# --- optimization -----------------------------------------------------------


@dataclass
class OptimizeResult:
    """Outcome of a strength/time scan for one lens family."""

    design: LensDesign
    focal_time: float
    focal_width: float
    scan: list
    boundary: bool = False


# Lattices of at most this many sites scan each design's focal window from a
# dense eigendecomposition instead of the Chebyshev window (_width_minima).
# One whole thick order-2 optimize_lens call, sigma0 = N/20, window path /
# dense path in seconds (best of 2, one CPU, one BLAS thread):
#
#   N     NN, n_time 40   NN, n_time 200  alpha 6, 40    alpha 6, 200
#   200   0.145 / 0.135   0.250 / 0.207   0.572 / 0.162  0.627 / 0.221
#   400   0.290 / 0.547   0.356 / 0.714   1.429 / 0.606  1.200 / 0.581
#   600   0.684 / 1.463   0.647 / 2.097   2.552 / 1.784  1.905 / 1.863
#   800   1.035 / 3.247   1.021 / 3.658   3.053 / 4.813  3.804 / 5.428
#
# The O(N^3) decomposition (5 ms at N = 200, 23 ms at 400) is paid by every
# thick design; thin designs share one. Nearest-neighbour operators are
# cheap to expand, so they cross over near N = 250, power-law ones near 600;
# summed over the two families the dense path still wins at 400 and no
# longer at 600.
_DENSE_DIM = 400

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


def _dense_minimum(terms, psi0, window, table, n_time):
    """:func:`_width_minima` of one case from the dense eigendecomposition
    of its H: every sample, and the parabola's vertex, is the exact state
    at its time."""
    ts = np.linspace(*window, n_time)
    eigen = terms.eigen()
    w = gaussian_widths(eigen.states(psi0.amplitudes, ts), table)
    i = int(np.argmin(w))   # the first of equal widths
    at_edge = i == 0 or i == n_time - 1
    t_min, w_min = ts[i], w[i]
    vertex = None if at_edge else _parabola_vertex(w, i)
    if vertex is not None:
        t_ref = ts[i] + vertex[0] * (ts[1] - ts[0])
        w_ref = gaussian_widths(eigen.states(psi0.amplitudes, [t_ref]), table)[0]
        if w_ref < w_min:
            t_min, w_min = t_ref, w_ref
    return t_min, w_min, at_edge


def _width_minima(cases, table, n_time, tol):
    """Minimum packet width over a time window, by scan plus parabolic
    refine, for each case (terms, initial state, window).

    On a lattice of at most ``_DENSE_DIM`` sites each case is sampled from
    the dense eigendecomposition of its H, ``terms.eigen()``, exact to
    rounding whatever ``tol``; the decomposition stays cached on ``terms``.
    On a larger one the cases are propagated together: one batch steps each
    to its window's start, :func:`spinlens.propagator.window_batch` samples
    the remaining ``n_time - 1`` times segment by segment, whose widths are
    taken at once, and one batch refines each from its narrowest sample by
    the parabola's sub-step offset. Only the narrowest state of each case
    is kept. On either path every result equals bit for bit what the case
    gives alone. Returns one (t_min, w_min, at_edge) per case.
    """
    if table.n_sites <= _DENSE_DIM:
        return [_dense_minimum(terms, psi0, window, table, n_time)
                for terms, psi0, window in cases]
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
    dense = table.n_sites <= _DENSE_DIM
    for _ in range(3):
        # One stacked operator's worth of designs at a time, each with terms
        # built for it and dropped after, bounds the memory. Every design's
        # operator holds the nonzeros of base_terms plus at most a diagonal.
        # A dense decomposition is n^2 floats, so there a thick design's
        # terms, with the decomposition cached on them, go before the next
        # design's are built; thin designs share that of base_terms.
        cuts = ([i] for i in todo) if dense else split_stacks(
            todo, lambda i: base_terms.matrix())
        found = [f for cut in cuts
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
    an ``n_time``-point scan plus parabolic refinement at the vertex time.
    On a lattice of at most ``_DENSE_DIM`` (400) sites every sample and the
    vertex are exact states from one dense eigendecomposition of the
    design's H (:class:`spinlens.propagator.EigenPropagator`); thin designs
    all evolve under the bare couplings and share one decomposition per
    call, and each thick design's is dropped before the next is built. On
    a larger lattice: one step to the window's start, the other
    ``n_time - 1`` samples from one Chebyshev recurrence per window segment
    (:func:`spinlens.propagator.window_batch`), and one step from the
    narrowest sample by the parabola vertex's offset, a fraction of a
    sample. For thick lenses of order > 2 the higher coefficients are
    optimized by coordinate descent in two sweeps: each one in turn is
    scanned over multiples
    ``_CORRECTION_GRID`` = (0, 0.5, 1, 1.5, 2) of its value on the classical
    isochrone of the band (see ``_isochrone_coefficients``), then the leading
    strength is retried at x0.8 and x1.25. Thin pulses are parabolic.

    On the larger lattices the designs of a stage are evaluated together,
    as one batch of independent evolutions for the start step, the window
    scan and the refine step (as many designs at a time as fit one stacked
    operator, see :func:`spinlens.propagator.split_stacks`):
    the stage-1 grid, its extension, each stage-3 correction grid and the
    x0.8/x1.25 retries; window-extension retries are batched among the
    designs that need them, and stage 2 asks for one design at a time. On
    either path each design's result is bit for bit what it gives alone.

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
