"""Single-excitation states: preparation, evolution, measurement.

Width conventions
-----------------
Two width measures coexist and differ by sqrt(2); mixing them up silently
breaks every focusing benchmark, so both are explicit:

``rms_width``
    Root-mean-square radius of the excitation density about its centroid.
``gaussian_width``
    The width parameter sigma of a Gaussian density profile exp(-x^2/sigma^2),
    i.e. sqrt(2) times the per-axis density rms. All closed-form focusing
    predictions (focal widths, focal times, breathing curves, scaling-law
    fits) are stated in terms of this sigma, as are packet parameters like
    ``sigma0`` throughout the package.

A packet built by :func:`gaussian_packet` with parameter ``sigma0`` has
amplitudes exp(-x^2/(2 sigma0^2)), density exp(-x^2/sigma0^2), so its
``gaussian_width`` is sigma0 and its ``rms_width`` is sigma0/sqrt(2) per axis.

Phase imprint convention
------------------------
:func:`phase_imprint` maps psi_n -> exp(-i phi_n) psi_n. With the on-site
energies of this package (an excited site at n contributes the bare potential
V_n once), a pulse V_n of duration tau imprints phi_n = V_n tau, and a
parabolic profile phi_n = phi0 (x_n - x_f)^2 kicks the local wavenumber by
a*Delta k = -2 phi0 (x_n - x_f), focusing toward x_f for phi0 > 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .lattice import HamiltonianTerms, SiteTable
from .propagator import expimv

FOCUS_RADIUS = 3.0  # default capture radius, units of a

# Below this width the Gaussian is too coarse for the lattice: periodic-image
# (Poisson summation) corrections to the norm exceed 1e-6.
_MIN_CLEAN_SIGMA = 1.22


@dataclass
class SpinWaveState:
    """Amplitudes over all lattice sites (zero at holes) plus a clock."""

    amplitudes: np.ndarray
    time: float = 0.0

    @property
    def n_sites(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _check_sigma0(sigma0: float):
    if sigma0 <= 0:
        raise ValueError("sigma0 must be positive")
    if sigma0 < _MIN_CLEAN_SIGMA:
        warnings.warn(
            f"sigma0={sigma0} below {_MIN_CLEAN_SIGMA}a: lattice discretization "
            "distorts the packet at the 1e-6 level or worse", stacklevel=3)


def gaussian_packet(table: SiteTable, sigma0: float, center=None,
                    k0=None) -> SpinWaveState:
    """Normalized Gaussian excitation packet of width parameter ``sigma0``.

    Amplitudes are proportional to exp(-|x - c|^2 / (2 sigma0^2) + i k0 . x)
    on active sites, zero at holes. ``center`` defaults to the geometric
    center of the lattice and may be fractional; it must lie inside the
    lattice. ``k0`` is a finite scalar (1D) or dim-vector in units of 1/a.
    """
    _check_sigma0(sigma0)
    center = table.center() if center is None else np.atleast_1d(np.asarray(center, float))
    if center.shape != (table.dim,):
        raise ValueError("center has wrong dimension")
    if not np.all((center >= 0) & (center <= np.asarray(table.extents) - 1)):
        raise ValueError(f"center {center} outside the lattice")
    dx = table.positions - center
    amp = np.exp(-0.5 * (dx * dx).sum(axis=1) / sigma0**2).astype(complex)
    if k0 is not None:
        k0 = np.atleast_1d(np.asarray(k0, dtype=float))
        if k0.shape != (table.dim,):
            raise ValueError("k0 has wrong dimension")
        if not np.isfinite(k0).all():
            raise ValueError("k0 must be finite")
        amp *= np.exp(1j * (table.positions @ k0))
    amp[~table.active] = 0.0
    n = np.linalg.norm(amp)
    if n == 0:
        raise ValueError("packet has zero weight on active sites")
    amp /= n
    return SpinWaveState(amplitudes=amp, time=0.0)


def _gaussian_profile(positions: np.ndarray, center: np.ndarray, sigma0: float) -> np.ndarray:
    """exp(-|x - c|^2 / (2 sigma0^2)) at ``positions`` (..., n_sites, dim), as
    ``gaussian_packet`` (no kick) computes it before the holes and the norm:
    with :func:`_packet_rows`, that packet on a stack of site tables, each
    row bit for bit."""
    _check_sigma0(sigma0)
    dx = positions - center
    return np.exp(-0.5 * (dx * dx).sum(axis=-1) / sigma0**2)


def _packet_rows(profile: np.ndarray, active: np.ndarray) -> np.ndarray:
    """The start packets of a stack, real, (m, n_sites): ``profile``
    (n_sites,) or (m, n_sites), 0.0 where ``active``, (n_sites,) or (m,
    n_sites), has a hole, each row divided by its norm as
    ``gaussian_packet`` divides its complex state: the norm summed by BLAS
    at the stride of that state's real part, as ``numpy.linalg.norm`` sums
    it (its imaginary part adds 0.0), and the row times the norm's
    reciprocal, as a complex division by a real number takes it."""
    shape = np.broadcast_shapes(profile.shape, active.shape)
    shape = (1,) * (2 - len(shape)) + shape
    rows = np.empty(shape + (2,))[..., 0]
    np.multiply(profile, active, out=rows)
    norms = np.sqrt([row.dot(row) for row in rows])
    if not norms.all():
        raise ValueError("packet has zero weight on active sites")
    return rows * (1.0 / norms)[:, None]


def evolve(terms: HamiltonianTerms, state: SpinWaveState, dt: float,
           tol: float = 1e-10) -> SpinWaveState:
    """Propagate by exp(-i H dt); matrix and bounds are cached on ``terms``.

    Each call builds the scaled operator and coefficients of its step anew;
    to take many equal steps under one H, step with
    :func:`spinlens.propagator.trajectory`, which builds them once.
    """
    amp = expimv(terms.matrix(), state.amplitudes, dt, tol=tol, bounds=terms.bounds())
    return SpinWaveState(amplitudes=amp, time=state.time + dt)


def phase_imprint(state: SpinWaveState, phases) -> SpinWaveState:
    """Instantaneous imprint psi_n -> exp(-i phi_n) psi_n.

    See the module docstring for the sign convention; the excitation density
    is unchanged.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.shape != state.amplitudes.shape:
        raise ValueError("phase array length mismatch")
    return SpinWaveState(state.amplitudes * np.exp(-1j * phases), state.time)


def excitation_probability(state: SpinWaveState) -> np.ndarray:
    return np.abs(state.amplitudes) ** 2


def centroid(state: SpinWaveState, table: SiteTable) -> np.ndarray:
    p = excitation_probability(state)
    w = p.sum()
    return (p[:, None] * table.positions).sum(axis=0) / w


def rms_width(state: SpinWaveState, table: SiteTable, center=None) -> float:
    """Density rms radius about the centroid (or a given center), units of a.

    In more than one dimension this is the radial rms, i.e. the quadrature sum
    of the per-axis spreads.
    """
    p = excitation_probability(state)
    w = p.sum()
    c = centroid(state, table) if center is None else np.atleast_1d(np.asarray(center, float))
    dx = table.positions - c
    return float(np.sqrt((p * (dx * dx).sum(axis=1)).sum() / w))


def gaussian_width(state: SpinWaveState, table: SiteTable) -> float:
    """Gaussian width parameter: sqrt(2/dim) times the radial density rms
    about the centroid.

    For an isotropic Gaussian density exp(-r^2/sigma^2) this returns sigma in
    any dimension; it is the measure every closed-form prediction refers to.
    """
    return float(np.sqrt(2.0 / table.dim) * rms_width(state, table))


def gaussian_widths(amps: np.ndarray, table: SiteTable) -> np.ndarray:
    """:func:`gaussian_width` of every state in ``amps`` (..., n_sites),
    one numpy pass over the same two-pass formula (centroid, then the rms
    about it)."""
    return _density_widths(np.abs(amps) ** 2, table.positions)


def _density_widths(p: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """:func:`gaussian_width` of every density in ``p`` (..., n_sites) at
    ``positions``, (n_sites, dim) or one table per density (..., n_sites,
    dim), each bit for bit that of its lone state.

    The weight and the spread's last sum add each contiguous row of sites
    by numpy's pairwise summation. The centroid's sums add site by site, in
    site order, as numpy reduces the products (..., n_sites, dim) over the
    sites of the lone state's formula. In 1D numpy folds that size-1 axis
    away and sums the sites pairwise too, so 1D keeps the formula; in 2D
    and 3D the products are laid out site-contiguous, (..., dim, n_sites),
    and each centroid sum is the last entry of a cumulative sum, which
    adds in the same order at a quarter of the cost. Each squared distance
    adds its axes in order, as both layouts do."""
    w = p.sum(axis=-1)
    dim = positions.shape[-1]
    if dim == 1:
        c = (p[..., None] * positions).sum(axis=-2) / w[..., None]
        dx = positions - c[..., None, :]
        r2 = (dx * dx).sum(axis=-1)
    else:
        x = np.ascontiguousarray(np.swapaxes(positions, -1, -2))
        products = p[..., None, :] * x
        c = np.cumsum(products, axis=-1, out=products)[..., -1] / w[..., None]
        dx = np.subtract(x, c[..., None], out=products)
        r2 = np.multiply(dx, dx, out=dx).sum(axis=-2)
    rms = np.sqrt((p * r2).sum(axis=-1) / w)
    return np.sqrt(2.0 / dim) * rms


def focus_probability(state: SpinWaveState, table: SiteTable, focus,
                      radius: float = FOCUS_RADIUS) -> float:
    """Total excitation probability within ``radius`` of ``focus``.

    Membership uses actual site positions, so displaced sites can enter or
    leave the capture disk.
    """
    focus = np.atleast_1d(np.asarray(focus, dtype=float))
    dx = table.positions - focus
    inside = (dx * dx).sum(axis=1) <= radius * radius
    return float(excitation_probability(state)[inside].sum())


def _focus_mask(positions: np.ndarray, focus, radius: float = FOCUS_RADIUS) -> np.ndarray:
    """The sites within ``radius`` of ``focus``, (..., n_sites), as
    :func:`focus_probability` selects them."""
    focus = np.atleast_1d(np.asarray(focus, dtype=float))
    dx = positions - focus
    return (dx * dx).sum(axis=-1) <= radius * radius


def _inside_sums(p: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """The probability of each density row of ``p`` (m, n_sites) on the
    sites of ``inside``, one mask (n_sites,) or one per row (m, n_sites):
    with :func:`_focus_mask`, :func:`focus_probability` of every row, each
    bit for bit.
    Each row sums its sites in site order as one C-ordered array, so rows
    with equal counts are summed together."""
    if inside.ndim == 1:
        return np.take(p, np.flatnonzero(inside), axis=-1).sum(axis=-1)
    counts = inside.sum(axis=-1)
    out = np.empty(len(p))
    for k in np.unique(counts):
        rows = counts == k
        out[rows] = p[rows][inside[rows]].reshape(np.count_nonzero(rows), k).sum(axis=-1)
    return out


# --- lattice Wigner function (1D) ------------------------------------------


@dataclass
class WignerGrid:
    """Phase-space samples W(x_r, k) on half-integer-resolved positions."""

    x: np.ndarray      # (2N-1,) positions in units of a, step a/2
    k: np.ndarray      # (M,) wavenumbers in 1/a, midpoint grid over the BZ
    w: np.ndarray      # (2N-1, M) real values

    def momentum_marginal(self) -> np.ndarray:
        """Integral of W over x: the Bloch-wave density |psi(k)|^2, normalized
        so that its integral over the Brillouin zone is 1."""
        return 0.5 * self.w.sum(axis=0)

    def position_marginal(self) -> np.ndarray:
        """Integral of W over k at the integer sites: recovers |psi_n|^2
        exactly on the default momentum grid."""
        dk = self.k[1] - self.k[0]
        return 0.5 * self.w[::2, :].sum(axis=1) * dk


def wigner_lattice(state: SpinWaveState, table: SiteTable,
                   n_momentum: int | None = None) -> WignerGrid:
    """Discrete Wigner function of a 1D state.

    W(x_r, k) = (1/pi) Re sum_s psi*(x_r + s) psi(x_r - s) e^{2 i k s},
    the lattice transcription of the continuum transform: x_r runs over the
    half-integer-refined grid and s over the (half-)integers that keep both
    arguments on the lattice. Marginals integrate to |psi_n|^2 per site and to
    a unit-normalized Bloch density, exactly on the default momentum grid.

    Cost is one (2N-1, N) x (N, M) complex matrix product; with the default
    M = 2N that is a few seconds at N ~ 1000.
    """
    if table.dim != 1:
        raise ValueError("lattice Wigner transform is implemented for 1D only")
    n = table.n_sites
    if n_momentum is None:
        n_momentum = 2 * n
    if n_momentum < n:
        raise ValueError("momentum grid must resolve the lattice (need >= n_sites)")
    psi = state.amplitudes
    x = 0.5 * np.arange(2 * n - 1)
    # midpoint grid over the Brillouin zone (-pi/a, pi/a]
    k = -np.pi + (np.arange(n_momentum) + 0.5) * (2.0 * np.pi / n_momentum)

    # With m = x_r + s, the sum is sum_m psi*(m) psi(2 x_r - m) e^{2ik(m - x_r)}.
    # Gather the anti-diagonals of the outer product into C2[x2, m] with
    # x2 = 2 x_r, contract with the momentum phases, and peel off the
    # x_r-dependent phase afterwards.
    outer = np.outer(psi.conj(), psi)
    c2 = np.zeros((2 * n - 1, n), dtype=complex)
    for x2 in range(2 * n - 1):
        ms = np.arange(max(0, x2 - (n - 1)), min(n - 1, x2) + 1)
        c2[x2, ms] = outer[ms, x2 - ms]
    phases = np.exp(2j * np.outer(np.arange(n), k))
    g = c2 @ phases
    back = np.exp(-2j * np.outer(x, k))
    w = (back * g).real / np.pi
    return WignerGrid(x=x, k=k, w=w)
