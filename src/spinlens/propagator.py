"""Sparse time evolution by Chebyshev expansion of exp(-iHt).

Works on any Hermitian CSR matrix (single excitation or a fixed many-body
sector). The spectrum is enclosed by Gershgorin disks, which never
underestimates the span, so the expansion is convergent by construction; the
cost of the slack over the true spectral width is a few percent more matrix
applications.

One time step is a *step plan* over m independent blocks, each with its own
(h_i, t_i, bounds_i) and all sharing ``tol``. Per block the plan holds the
sub-step count, the Chebyshev coefficients and the phase of the spectral
centre; blocks with an equal (half-width x sub-step, per-sub-step tolerance)
share one coefficient set, within the one plan. Blocks of equal dimension
and sub-step count are stacked into one block-diagonal operator, each block
shifted by its own centre and scaled by its own 1/half-width, stored as a
complex CSR so no matvec upcasts it. Within a stack the blocks
are ordered by coefficient count, longest first, the coefficients are padded
with zeros to the longest, and term k of the three-term recurrence runs the
matvec only on the row prefix of the blocks still active, through a CSR
view on the same arrays. Stacks are cut so their nonzeros stay under
``_STACK_NNZ`` (about 3.3e4, a complex CSR of about 0.66 MB, well inside
one L2 with its state vectors); a block larger than that is a stack of its
own.

:func:`expimv` is a batch of one built and applied once, :func:`expimv_batch`
the same for many blocks; :func:`trajectory` and :func:`trajectory_batch`
build one plan and apply it at every step. All run the one recurrence, and
a block's result is bit for bit what it gives alone: CSR computes each row
by itself (over its entries in sorted order), a per-block scale multiplies
each entry by the same float as a lone block's scale, and a coefficient or
phase broadcast over a block's row rounds as the scalar product does.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.special import jv

# Long evolutions are split so each segment keeps the Bessel order moderate;
# this bounds round-off growth in the three-term recurrence.
_MAX_PHASE_PER_STEP = 3.0e4

# Nonzeros of one stacked operator. 2**15 complex CSR entries with their
# column indices are about 0.66 MB, so the operator and the recurrence's
# state vectors stay inside one 2 MiB L2. In one benchmark disorder run
# each, 2**15, 2**16 and 2**17 took the same time within noise and raised
# the peak memory over one block at a time by 1.4, 3.2 and 7.0 MiB.
_STACK_NNZ = 2**15

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


def _row_prefix(h: sp.csr_matrix, n: int) -> sp.csr_matrix:
    """The leading n x n block of block-diagonal CSR ``h`` as a view on its
    arrays (the constructor would copy a short prefix)."""
    if n == h.shape[0]:
        return h
    view = sp.csr_matrix((n, n), dtype=h.dtype)
    view.data, view.indices, view.indptr = h.data, h.indices, h.indptr[:n + 1]
    return view


class _Stack:
    """Blocks of one dimension and sub-step count, stacked (module docstring).

    ``order`` lists the plan's block indices in stack order, longest
    coefficient set first.
    """

    def __init__(self, hs, order, dim, n_sub, centers, halves, coefs, phases):
        self.order, self.dim, self.n_sub = order, dim, n_sub
        m = len(order)
        counts = [len(c) for c in coefs]
        self.coef = np.zeros((max(counts), m, 1), dtype=complex)
        for j, c in enumerate(coefs):
            self.coef[:len(c), j, 0] = c
        self.phase = np.array(phases)[:, None]
        # each block as one alone would build it, then stacked block-diagonally;
        # canonical form (sorted, summed) fixes the order of each row's sum
        # whatever the order of h's indices
        blocks = [(h - sp.diags(np.full(dim, c))).tocsr() for h, c in zip(hs, centers)]
        for b, half in zip(blocks, halves):
            b.data *= 1.0 / half
            b.sum_duplicates()
        offsets = np.cumsum([0] + [b.nnz for b in blocks])
        self.h_scaled = sp.csr_matrix((
            np.concatenate([b.data[:b.nnz] for b in blocks], dtype=complex),
            np.concatenate([b.indices[:b.nnz] + j * dim for j, b in enumerate(blocks)]),
            np.concatenate([[0]] + [b.indptr[1:] + off for b, off in zip(blocks, offsets)])),
            shape=(m * dim, m * dim))
        # term 1, then runs of terms k >= 2 during which the first a blocks
        # are active: (a, their prefix operator, the coefficients of the run)
        a = sum(c > 1 for c in counts)
        self.first = (a, _row_prefix(self.h_scaled, a * dim))
        # (one active block: scalar coefficients, which multiply a 1-D state
        # without the cost of broadcasting)
        self.runs = []
        k = 2
        for a in range(m, 0, -1):
            end = counts[a - 1]
            if end > k:
                cs = self.coef[k:end, 0, 0] if a == 1 else self.coef[k:end, :a]
                self.runs.append((a, _row_prefix(self.h_scaled, a * dim), cs))
                k = end

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """exp(-i h t) of every block; ``psi`` is (m, dim) in stack order."""
        coef, d = self.coef, self.dim
        out = psi
        for _ in range(self.n_sub):
            acc = coef[0] * out
            if len(coef) > 1:
                a, h = self.first
                t_prev = out.reshape(-1)
                t_cur = h @ t_prev[:a * d]
                acc_a = acc[:a]
                acc_a += coef[1, :a] * t_cur.reshape(a, d)
                for a, h, cs in self.runs:
                    n, one = a * d, a == 1
                    t_prev, t_cur = t_prev[:n], t_cur[:n]
                    acc_a = acc[0] if one else acc[:a]
                    for c in cs:
                        t_prev, t_cur = t_cur, 2.0 * (h @ t_cur) - t_prev
                        acc_a += c * (t_cur if one else t_cur.reshape(a, d))
            out = self.phase * acc
        return out


class _StepPlan:
    """The step plan of exp(-i h_i t_i) over independent blocks (see the
    module docstring), applied to any number of state lists. The scaled
    operators are new arrays, so no ``h_i`` is modified. A t = 0 block
    joins no stack, and applying the plan copies its state.
    """

    def __init__(self, hs: Sequence[sp.csr_matrix], ts: Sequence[float],
                 tol: float, bounds: Sequence):
        if not TOL_RANGE[0] <= tol <= TOL_RANGE[1]:
            raise ValueError(f"tol={tol} outside {TOL_RANGE}")
        self.dims = [h.shape[0] for h in hs]
        coef_sets: dict = {}
        groups: dict = {}
        for i, (h, t, bnd) in enumerate(zip(hs, ts, bounds)):
            if t == 0.0:
                continue
            lo, hi = spectral_bounds(h) if bnd is None else bnd
            center = 0.5 * (hi + lo)
            # never collapse the scale, even for a 1x1 or diagonal-free corner case
            half = 0.5 * (hi - lo) + 1e-300
            half *= 1.0 + 1e-12
            n_sub = max(1, int(np.ceil(abs(half * t) / _MAX_PHASE_PER_STEP)))
            dt = t / n_sub
            key = (half * dt, tol / (4.0 * n_sub))
            if key not in coef_sets:
                coef_sets[key] = _chebyshev_coeffs(*key)
            groups.setdefault((h.shape[0], n_sub), []).append(
                (i, center, half, coef_sets[key], np.exp(-1j * center * dt)))
        self.stacks = []
        for (dim, n_sub), blocks in groups.items():
            blocks.sort(key=lambda b: -len(b[3]))
            for cut in split_stacks(blocks, lambda b: hs[b[0]]):
                order, centers, halves, coefs, phases = zip(*cut)
                self.stacks.append(_Stack([hs[i] for i in order], order,
                                          dim, n_sub, centers, halves, coefs, phases))

    def apply(self, psis: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Return [exp(-i h_i t_i) psi_i]."""
        psis = [np.asarray(psi, dtype=complex) for psi in psis]
        if any(psi.shape != (d,) for psi, d in zip(psis, self.dims)):
            raise ValueError("state length does not match Hamiltonian")
        out = [None] * len(psis)
        for stack in self.stacks:
            rows = stack.apply(np.stack([psis[i] for i in stack.order]))
            for i, row in zip(stack.order, rows):
                out[i] = row
        return [psi.copy() if o is None else o for psi, o in zip(psis, out)]


def split_stacks(items: Iterable, op) -> Iterator[list]:
    """Split ``items``, drawn lazily, into consecutive runs whose operators
    ``op(item)`` fit one stacked operator: at most ``_STACK_NNZ`` nonzeros
    once shifted. An item over the budget is a run of its own.

    Propagating run by run holds about one stacked operator at a time.
    """
    run, nnz = [], 0
    for item in items:
        h = op(item)
        size = h.nnz + h.shape[0]   # the shift adds at most the diagonal
        if run and nnz + size > _STACK_NNZ:
            yield run
            run, nnz = [], 0
        run.append(item)
        nnz += size
    if run:
        yield run


def expimv_batch(blocks: Iterable[tuple], tol: float = 1e-10) -> Iterator[np.ndarray]:
    """Yield exp(-i h t) psi for each block (h, psi, t, bounds), in order.

    Each result equals ``expimv(h, psi, t, tol, bounds)`` bit for bit
    (``bounds`` may be None). The blocks are drawn lazily and propagated
    together about one stack at a time (module docstring), so a long
    ensemble assembled realization by realization holds the operators of
    about one stack, not all of them.
    """
    for cut in split_stacks(blocks, lambda b: b[0]):
        hs, psis, ts, bounds = zip(*cut)
        finals = _StepPlan(hs, ts, tol, bounds).apply(psis)
        del cut, hs, psis, ts, bounds   # free the operators before the next cut
        yield from finals


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
    return _StepPlan([h], [t], tol, [bounds]).apply([psi])[0]


def trajectory_batch(blocks: Sequence[tuple], n_steps: int, tol: float = 1e-10,
                     t0s: Sequence[float] | None = None
                     ) -> Iterator[tuple[list[float], list[np.ndarray]]]:
    """Step each block (h, psi, dt, bounds) by exp(-i h dt) ``n_steps``
    times, yielding (times, states) lists after each step.

    One plan serves every step, and each block equals bit for bit, states
    and times, what ``trajectory(h, psi, dt, n_steps, tol, bounds, t0)``
    yields. Clocks start at ``t0s`` (default 0.0).
    """
    hs, psis, dts, bounds = zip(*blocks)
    step = _StepPlan(hs, dts, tol, bounds)
    ts = [0.0] * len(hs) if t0s is None else list(t0s)
    for _ in range(n_steps):
        psis = step.apply(psis)
        ts = [t + dt for t, dt in zip(ts, dts)]
        yield ts, psis


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
    for ts, psis in trajectory_batch([(h, psi, dt, bounds)], n_steps, tol, [t0]):
        yield ts[0], psis[0]
