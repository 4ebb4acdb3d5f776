"""Sparse time evolution by Chebyshev expansion of exp(-iHt).

Works on any Hermitian CSR matrix (single excitation or a fixed many-body
sector). The spectrum is enclosed by Gershgorin disks, which never
underestimates the span, so the expansion is convergent by construction; the
cost of the slack over the true spectral width is a few percent more matrix
applications.

One time step is a *step plan* built once for a fixed (h, t, tol, bounds):
the sub-step count, the Chebyshev coefficients, the phase of the spectral
centre and the shifted, scaled operator, stored as a complex CSR so no
matvec upcasts it. :func:`expimv` builds a plan and applies it once;
:func:`trajectory` builds one plan for its step and applies it at every
step. Both run the same three-term recurrence, so their results agree bit
for bit.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import scipy.sparse as sp
from scipy.special import jv

# Long evolutions are split so each segment keeps the Bessel order moderate;
# this bounds round-off growth in the three-term recurrence.
_MAX_PHASE_PER_STEP = 3.0e4

TOL_RANGE = (1e-14, 1e-6)


def spectral_bounds(h: sp.csr_matrix) -> tuple[float, float]:
    """Gershgorin interval [lo, hi] containing all eigenvalues of Hermitian h."""
    d = h.diagonal().real
    absh = abs(h)
    radii = np.asarray(absh.sum(axis=1)).ravel() - np.abs(h.diagonal())
    return float((d - radii).min()), float((d + radii).max())


def _chebyshev_coeffs(z: float, tol: float) -> np.ndarray:
    """Coefficients c_k of exp(-i z x) = sum_k c_k T_k(x), truncated.

    c_0 = J_0(z), c_k = 2 (-i)^k J_k(z). Truncation keeps every term with
    |J_k(z)| >= tol; beyond the turning point k ~ |z| the Bessel values decay
    superexponentially, so the remainder is bounded by a few times tol.
    """
    az = abs(z)
    k_max = int(az + 20.0 + 12.0 * az ** (1.0 / 3.0))
    while True:
        k = np.arange(k_max + 1)
        bess = jv(k, az)
        tail = np.nonzero(np.abs(bess) < tol)[0]
        stop = None
        for s in tail:
            if s > az and np.all(np.abs(bess[s:min(s + 4, k_max + 1)]) < tol):
                stop = s
                break
        if stop is not None and stop + 4 <= k_max + 1:
            k = k[:stop]
            bess = bess[:stop]
            break
        k_max = int(1.5 * k_max) + 50
    # exact (-i)^k via k mod 4, avoiding argument-reduction error at large k
    ik = np.array([1.0, -1.0j, -1.0, 1.0j])[k & 3]
    coef = 2.0 * ik * bess
    coef[0] = bess[0]
    if z < 0:
        # J_k(-z) = (-1)^k J_k(z)
        coef *= (-1.0) ** k
    return coef


class _StepPlan:
    """The step plan of exp(-i h t) (see the module docstring), applied to
    any number of states. (h - center) / half is built as a new complex CSR,
    so ``h`` is left as it is. At t = 0 nothing is built and applying the
    plan copies the state.
    """

    def __init__(self, h: sp.csr_matrix, t: float, tol: float,
                 bounds: tuple[float, float] | None):
        if not TOL_RANGE[0] <= tol <= TOL_RANGE[1]:
            raise ValueError(f"tol={tol} outside {TOL_RANGE}")
        self.dim = h.shape[0]
        self.n_sub = 0
        if t == 0.0:
            return
        if bounds is None:
            bounds = spectral_bounds(h)
        lo, hi = bounds
        center = 0.5 * (hi + lo)
        # never collapse the scale, even for a 1x1 or diagonal-free corner case
        half = 0.5 * (hi - lo) + 1e-300
        half *= 1.0 + 1e-12

        self.n_sub = max(1, int(np.ceil(abs(half * t) / _MAX_PHASE_PER_STEP)))
        dt = t / self.n_sub
        self.coef = _chebyshev_coeffs(half * dt, tol / (4.0 * self.n_sub))
        self.phase = np.exp(-1j * center * dt)
        h_scaled = (h - sp.diags(np.full(self.dim, center))) * (1.0 / half)
        self.h_scaled = h_scaled.tocsr().astype(complex)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """Return exp(-i h t) psi."""
        psi = np.asarray(psi, dtype=complex)
        if psi.shape != (self.dim,):
            raise ValueError("state length does not match Hamiltonian")
        if self.n_sub == 0:
            return psi.copy()
        coef, h_scaled = self.coef, self.h_scaled
        out = psi
        for _ in range(self.n_sub):
            t_prev = out
            acc = coef[0] * t_prev
            if len(coef) > 1:
                t_cur = h_scaled @ out
                acc = acc + coef[1] * t_cur
                for c in coef[2:]:
                    t_prev, t_cur = t_cur, 2.0 * (h_scaled @ t_cur) - t_prev
                    acc += c * t_cur
            out = self.phase * acc
        return out


def expimv(h: sp.csr_matrix, psi: np.ndarray, t: float,
           tol: float = 1e-10, bounds: tuple[float, float] | None = None) -> np.ndarray:
    """Return exp(-i h t) psi.

    Builds the step plan for ``t`` (sub-step count, coefficients, scaled
    complex operator) and applies it once; :func:`trajectory` repeats one
    step with a single plan.

    Parameters
    ----------
    h : Hermitian CSR matrix (real symmetric in all uses here).
    psi : complex state vector.
    t : evolution time, either sign.
    tol : target truncation accuracy per call, must lie in [1e-14, 1e-6].
        The 2-norm drift of the result stays below about 10*tol.
    bounds : optional precomputed spectral enclosure, e.g. from
        :func:`spectral_bounds`; pass it when evolving many states under the
        same Hamiltonian.
    """
    return _StepPlan(h, t, tol, bounds).apply(psi)


def trajectory(h: sp.csr_matrix, psi: np.ndarray, dt: float, n_steps: int,
               tol: float = 1e-10, bounds: tuple[float, float] | None = None,
               t0: float = 0.0) -> Iterator[tuple[float, np.ndarray]]:
    """Step psi by exp(-i h dt) ``n_steps`` times, yielding (t, amplitudes)
    after each step.

    The spectral enclosure (when ``bounds`` is not given) and the step plan
    (sub-step count, coefficients, scaled complex operator) are built once
    and applied at every step, so each state equals bit for bit what repeated
    ``expimv(h, psi, dt, tol, bounds)`` calls give. The clock starts at
    ``t0`` and advances by ``t = t + dt``, so the times agree bit for bit
    with those of repeated single-step calls.
    """
    step = _StepPlan(h, dt, tol, bounds)
    t = t0
    for _ in range(n_steps):
        psi = step.apply(psi)
        t = t + dt
        yield t, psi
