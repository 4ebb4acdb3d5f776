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
shifted by its own centre and scaled by its own 1/half-width. The stacked
operator is a float64 CSR when every block is real (a real dtype, or a
complex one whose imaginary parts are all zero), else a complex CSR, so no
matvec upcasts it. While the operator and the stacked states are real, as
in a real packet's first step, the terms T_k(h~) psi are float64 vectors;
at the first complex state the stack replaces its operator by a complex
copy. A complex coefficient times a real term rounds as it does times the
term + 0j, and a real row sum is the real part of the complex one, so
either path gives the same bits; the real one costs about half per matvec.
A window's operator is always complex: its start states are evolved
states. Within a stack the blocks are ordered by coefficient count,
longest first, the coefficients are padded with zeros to the longest, and
term k of the three-term recurrence runs the matvec only on the row prefix
of the blocks still active, through a CSR view on the same arrays. Stacks
are cut so their nonzeros stay under ``_STACK_NNZ`` (about 3.3e4, a CSR of
about 0.39 MB real or 0.66 MB complex, well inside one L2 with its state
vectors); a block larger than that is a stack of its own.

:func:`expimv` is a batch of one built and applied once, :func:`expimv_batch`
the same for many blocks; :func:`trajectory` builds one single-block plan
and applies it at every step. All run the one recurrence, and
a block's result is bit for bit what it gives alone: CSR computes each row
by itself (over its entries in sorted order), a per-block scale multiplies
each entry by the same float as a lone block's scale, and a coefficient or
phase broadcast over a block's row rounds as the scalar product does.

A *window* (:func:`window_batch`) samples each block at dt, 2 dt, ..., n dt
from one recurrence instead of n steps: the terms T_k(h~) psi do not depend
on the time, only the coefficients 2 (-i)^k J_k(z_j) do, z_j = half * j dt
(Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984); Weisse et al., Rev.
Mod. Phys. 78, 275 (2006)). A step of phase z needs about z + 14 terms at
z ~ 6, so sampling through one expansion saves the fixed part of every
step. The blocks are stacked by the same code as a step plan's, largest
phase per sample first. Terms are buffered ``_WINDOW_TERMS`` at a time
with (-i)^k folded in, so each block's samples take them in one real
matrix product (Bessel table x buffered terms), skipping the samples whose
expansion has already ended; the centre phase is applied at the end. A
window is cut into segments, each restarting the recurrence from the last
state of the one before. A block's segment holds as many samples as fit,
with the buffered terms, its share of ``_WINDOW_BYTES`` (its share of the
``_STACK_NNZ`` budget, so a full stack's segment takes about that many
bytes whatever the batch), and its last phase stays under
``_WINDOW_PHASE``, which bounds the Bessel table. Each sample keeps every
term with |J_k(z_j)| >= tol/4, as a one-sub-step plan does.

All Bessel values come from one routine, Miller's downward recurrence
(:func:`_bessel_table`), vectorised over every phase of a plan or of a
window's blocks and samples; each phase starts at its own order, so its
values do not depend on the others it is computed with.

An operator of a few hundred rows is cheaper to diagonalise once than to
expand term by term, where each term's fixed cost outweighs its arithmetic.
:class:`EigenPropagator` holds one dense eigendecomposition H = V diag(E) V^T
of a real symmetric h and gives V (e^{-iEt} * V^T psi) at any list of times,
exact to rounding at any t, as two real matrix products (the eigenvector
method of Moler & Van Loan, SIAM Rev. 45, 3 (2003)). Its cost is the
O(n^3) decomposition, so it pays only on small operators.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

# Long evolutions are split so each segment keeps the Bessel order moderate;
# this bounds round-off growth in the three-term recurrence.
_MAX_PHASE_PER_STEP = 3.0e4

# Nonzeros of one stacked operator. A CSR entry with its column index takes
# 12 B real or 20 B complex, so 2**15 of them are about 0.39 or 0.66 MB, and
# the operator and the recurrence's state vectors stay inside one 2 MiB L2.
# In one benchmark disorder run each, 2**15, 2**16 and 2**17 took the same
# time within noise and raised the peak memory over one block at a time by
# 1.4, 3.2 and 7.0 MiB.
_STACK_NNZ = 2**15

# Window segments (module docstring): bytes of sampled states plus buffered
# terms of one full stack, the number of buffered terms, and the largest
# phase half * t of a segment's last sample. In ten untraced benchmark
# lens_design runs, 2 MiB and a cap of 100 kept the peak memory within
# 0.83 MiB (median 0.53) of sample-by-sample stepping; in shorter runs a
# cap of 200 took the same time but added about 0.6 MiB more, and 4 MiB
# about 0.8 MiB more.
_WINDOW_BYTES = 2**21
_WINDOW_TERMS = 8
_WINDOW_PHASE = 100.0

TOL_RANGE = (1e-14, 1e-6)

# exact (-i)^k via k mod 4, avoiding argument-reduction error at large k
_MINUS_I_POW = np.array([1.0, -1.0j, -1.0, 1.0j])


def spectral_bounds(h: sp.csr_matrix) -> tuple[float, float]:
    """Gershgorin interval [lo, hi] containing all eigenvalues of Hermitian h.

    ``h`` is left as it is: a matrix with unsorted indices or duplicate
    entries is put in canonical form on a copy.
    """
    d = h.diagonal().real
    absh = abs(h if h.has_canonical_format else h.copy())
    radii = np.asarray(absh.sum(axis=1)).ravel() - np.abs(h.diagonal())
    return float((d - radii).min()), float((d + radii).max())


# Miller's recurrence rescales a phase's values by 2**-500 once they pass
# 2**500, checking every 8 orders; one order multiplies them by at most
# 2k/z + 1, below 1e18 for every phase from _BESSEL_ZERO on. Below it,
# J_1(z) < 1e-16 is under every truncation tolerance (TOL_RANGE / 4).
_BESSEL_BIG = 2.0**500
_BESSEL_ZERO = 1e-16


def _bessel_table(z: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """J_k(z_j) for k = 0, 1, ... as the columns of a table, and the number
    of terms each z_j keeps, by Miller's downward recurrence.

    ``z`` holds phases >= 0. Each column starts its recurrence, f = 1 above
    0, at the first order past z_j where the Debye estimate of J_k(z_j)
    drops below tol * 1e-6, plus 8; the relative error there enters the
    kept values squared. It is normalized by J_0 + 2 sum_k J_2k = 1, summed
    exactly rounded. A column does not depend on the others in the table:
    its leading zeros recur to exact zeros, and it is rescaled and
    normalized by itself.

    A column keeps the terms k < n_j, n_j the first order past z_j where
    |J_k| < tol for four orders in a row; beyond the turning point k ~ z
    the values decay superexponentially, so the remainder is a few times
    tol. A phase below ``_BESSEL_ZERO`` keeps J_0 = 1 alone.
    """
    z = np.asarray(z, dtype=float)
    live = z >= _BESSEL_ZERO
    zl = np.where(live, z, 1.0)
    # the first order past z whose Debye estimate of J_k(z) is below
    # tol * 1e-6, by bisection: the estimate falls monotonically in k > z
    log_eps = math.log(tol * 1e-6)

    def above(k):
        alpha = np.arccosh(k / zl)
        th = np.tanh(alpha)
        return -k * (alpha - th) - 0.5 * np.log(2.0 * np.pi * k * np.maximum(th, 1e-300)) >= log_eps

    lo = np.floor(zl) + 1.0
    hi = lo + np.ceil(40.0 + 25.0 * zl ** (1.0 / 3.0))
    while (miss := above(hi)).any():
        hi[miss] += hi[miss] - lo[miss]
    while (open_ := lo < hi).any():
        mid = np.floor(0.5 * (lo + hi))
        up = above(mid)
        lo = np.where(open_ & up, mid + 1.0, lo)
        hi = np.where(open_ & ~up, mid, hi)
    start = np.where(live, hi + 8, 1.0).astype(int)
    n_max = int(start.max())
    rows = n_max + 6               # room for the four-in-a-row truncation test
    f = np.zeros((rows, z.size))
    mult = np.arange(rows)[:, None] * (2.0 / zl)
    begins = [None] * rows
    for s_ in np.unique(start):
        begins[s_] = np.nonzero(start == s_)[0]
    f_rows, mult_rows = list(f), list(mult)     # row views, made once
    for k in range(n_max + 1, 0, -1):
        row = f_rows[k - 1]
        np.multiply(mult_rows[k], f_rows[k], out=row)
        np.subtract(row, f_rows[k + 1], out=row)
        if begins[k - 1] is not None:
            row[begins[k - 1]] = 1.0
        if not k & 7 and np.maximum.reduce(np.abs(row)) > _BESSEL_BIG:
            big = np.abs(row) > _BESSEL_BIG
            f[k - 1:, big] *= 1.0 / _BESSEL_BIG
    del f_rows, mult_rows, mult
    # J_0 + 2 sum_k J_2k, exactly rounded, so column by column
    evens = f[::2].T.copy()
    evens[:, 1:] *= 2.0
    f /= np.array([math.fsum(col.tolist()) for col in evens])
    del evens
    f[:, ~live] = 0.0
    f[0, ~live] = 1.0
    small = (f < tol) & (f > -tol)
    run = small[:-3] & small[1:-2] & small[2:-1] & small[3:]
    run &= np.arange(rows - 3)[:, None] > z
    return f, np.argmax(run, axis=0)


def _chebyshev_coeffs(zs: Sequence[float], tol: float) -> list[np.ndarray]:
    """Coefficients c_k of exp(-i z x) = sum_k c_k T_k(x), truncated, for
    each phase z of ``zs``, from one :func:`_bessel_table`.

    c_0 = J_0(z), c_k = 2 (-i)^k J_k(z), kept while |J_k(z)| >= tol as in
    :func:`_bessel_table`; each set is what its phase gives alone.
    """
    table, counts = _bessel_table(np.abs(np.asarray(zs, dtype=float)), tol)
    out = []
    for j, (z, n) in enumerate(zip(zs, counts)):
        k = np.arange(n)
        bess = table[:n, j]
        coef = 2.0 * _MINUS_I_POW[k & 3] * bess
        coef[0] = bess[0]
        if z < 0:
            # J_k(-z) = (-1)^k J_k(z)
            coef *= (-1.0) ** k
        out.append(coef)
    return out


def _enclosure(h: sp.csr_matrix, bounds) -> tuple[float, float]:
    """(centre, half-width) of the spectral enclosure of ``h``."""
    lo, hi = spectral_bounds(h) if bounds is None else bounds
    # never collapse the scale, even for a 1x1 or diagonal-free corner case
    half = 0.5 * (hi - lo) + 1e-300
    return 0.5 * (hi + lo), half * (1.0 + 1e-12)


def _csr_view(data, indices, indptr) -> sp.csr_matrix:
    """The square CSR on these arrays, without the constructor's checks or
    copies (it would copy a short prefix of indptr)."""
    n = len(indptr) - 1
    view = sp.csr_matrix((n, n), dtype=data.dtype)
    view.data, view.indices, view.indptr = data, indices, indptr
    return view


def _row_prefix(h: sp.csr_matrix, n: int) -> sp.csr_matrix:
    """The leading n x n block of block-diagonal CSR ``h`` as a view on its
    arrays."""
    return h if n == h.shape[0] else _csr_view(h.data, h.indices, h.indptr[:n + 1])


def _stacked_operator(hs, dim, centers, halves, dtype) -> sp.csr_matrix:
    """Each block shifted by its centre and scaled by 1/half, as one alone
    would build it, stacked block-diagonally as one CSR of ``dtype`` (float
    only for real blocks); canonical form (sorted, summed) fixes the order
    of each row's sum whatever the order of h's indices."""
    if dtype is float:
        hs = [h.real if np.iscomplexobj(h.data) else h for h in hs]
    blocks = [(h - sp.diags(np.full(dim, c))).tocsr() for h, c in zip(hs, centers)]
    for b, half in zip(blocks, halves):
        b.data *= 1.0 / half
        b.sum_duplicates()
    offsets = np.cumsum([0] + [b.nnz for b in blocks])
    m = len(blocks)
    return sp.csr_matrix((
        np.concatenate([b.data[:b.nnz] for b in blocks], dtype=dtype),
        np.concatenate([b.indices[:b.nnz] + j * dim for j, b in enumerate(blocks)]),
        np.concatenate([[0]] + [b.indptr[1:] + off for b, off in zip(blocks, offsets)])),
        shape=(m * dim, m * dim))


class _Stack:
    """Blocks of one dimension and sub-step count, stacked (module docstring).

    ``order`` lists the plan's block indices in stack order, longest
    coefficient set first. The scaled operator is float64 when every block
    is real, until the first complex state, and complex otherwise; the
    stack holds one at a time.
    """

    def __init__(self, hs, order, dim, n_sub, centers, halves, coefs, phases):
        self.order, self.dim, self.n_sub = order, dim, n_sub
        m = len(order)
        counts = [len(c) for c in coefs]
        self.coef = np.zeros((max(counts), m, 1), dtype=complex)
        for j, c in enumerate(coefs):
            self.coef[:len(c), j, 0] = c
        self.phase = np.array(phases)[:, None]
        # term 1 runs on the first a blocks, then runs of terms k >= 2 during
        # which the first a blocks are active: (a, the coefficients of the
        # run), each with its prefix operator once one is set
        # (one active block: scalar coefficients, which multiply a 1-D state
        # without the cost of broadcasting)
        self.first_active = sum(c > 1 for c in counts)
        self.run_coefs = []
        k = 2
        for a in range(m, 0, -1):
            end = counts[a - 1]
            if end > k:
                cs = self.coef[k:end, 0, 0] if a == 1 else self.coef[k:end, :a]
                self.run_coefs.append((a, cs))
                k = end
        imaginary = any(np.iscomplexobj(h.data) and h.data.imag.any() for h in hs)
        self._set_operator(_stacked_operator(hs, dim, centers, halves,
                                             complex if imaginary else float))

    def _set_operator(self, h: sp.csr_matrix):
        """Make ``h`` the scaled operator, with the prefix views of the runs."""
        d = self.dim
        self.h_scaled = h
        self.first = (self.first_active, _row_prefix(h, self.first_active * d))
        self.runs = [(a, _row_prefix(h, a * d), cs) for a, cs in self.run_coefs]

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """exp(-i h t) of every block; ``psi`` is (m, dim) in stack order,
        real or complex. The terms are float64 while the operator and the
        state are real (module docstring)."""
        coef, d = self.coef, self.dim
        out = psi
        for _ in range(self.n_sub):
            if np.iscomplexobj(out) and not np.iscomplexobj(self.h_scaled.data):
                h = self.h_scaled
                self._set_operator(_csr_view(h.data.astype(complex), h.indices, h.indptr))
            out = out.astype(self.h_scaled.dtype, copy=False)
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
        _check_tol(tol)
        self.dims = [h.shape[0] for h in hs]
        steps = []
        for i, (h, t, bnd) in enumerate(zip(hs, ts, bounds)):
            if t == 0.0:
                continue
            center, half = _enclosure(h, bnd)
            n_sub = max(1, int(np.ceil(abs(half * t) / _MAX_PHASE_PER_STEP)))
            dt = t / n_sub
            steps.append((i, center, half, n_sub, dt, (half * dt, tol / (4.0 * n_sub))))
        # the distinct phases of each tolerance share one Bessel table
        phases_by_tol: dict = {}
        for z, sub_tol in dict.fromkeys(s[-1] for s in steps):
            phases_by_tol.setdefault(sub_tol, []).append(z)
        coef_sets = {(z, sub_tol): c for sub_tol, zs in phases_by_tol.items()
                     for z, c in zip(zs, _chebyshev_coeffs(zs, sub_tol))}
        groups: dict = {}
        for i, center, half, n_sub, dt, key in steps:
            groups.setdefault((hs[i].shape[0], n_sub), []).append(
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
        psis = [_state(psi) for psi in psis]
        if any(psi.shape != (d,) for psi, d in zip(psis, self.dims)):
            raise ValueError("state length does not match Hamiltonian")
        out = [None] * len(psis)
        for stack in self.stacks:
            rows = stack.apply(np.stack([psis[i] for i in stack.order]))
            for i, row in zip(stack.order, rows):
                out[i] = row
        return [psi.astype(complex) if o is None else o for psi, o in zip(psis, out)]


def _state(psi) -> np.ndarray:
    """``psi`` as float64 when it has no imaginary part, else complex128."""
    psi = np.asarray(psi)
    if np.iscomplexobj(psi) and psi.imag.any():
        return psi.astype(complex, copy=False)
    return psi.real.astype(float, copy=False)


class _Window:
    """Blocks of one dimension and segment length, stacked as a step plan's
    are and sampled at every multiple of their own dt (module docstring).

    ``order`` lists the block indices in stack order, largest phase per
    sample first, so the blocks that need term k of a segment are about a
    prefix of the stack; term k runs on the prefix up to the last of them.
    """

    def __init__(self, hs, order, dim, n_seg, centers, halves, dts, tol):
        self.order, self.dim = order, dim
        self.prefixes: dict = {}
        j = np.arange(1, n_seg + 1)
        steps = [half * dt for half, dt in zip(halves, dts)]
        table, counts = _bessel_table(np.concatenate([abs(s) * j for s in steps]),
                                      tol / 4.0)
        # per block: (n_seg, terms) table of c_k / (-i)^k, zero past each
        # sample's count, and each sample's count
        self.coef, self.counts = [], []
        for p, step in enumerate(steps):
            cols = slice(p * n_seg, (p + 1) * n_seg)
            cnt = counts[cols]
            c = table[:cnt.max(), cols].T.copy()
            c[np.arange(c.shape[1]) >= cnt[:, None]] = 0.0
            c[:, 1:] *= 2.0
            if step < 0:
                c[:, 1::2] *= -1.0       # J_k(-z) = (-1)^k J_k(z)
            self.coef.append(c)
            self.counts.append(cnt)
        del table
        self.phase = np.array([np.exp(-1j * c * (dt * j)) for c, dt in zip(centers, dts)])
        self.h_scaled = _stacked_operator(hs, dim, centers, halves, complex)
        # one segment's samples and buffered terms, reused by every segment
        self.acc = np.empty((len(order), n_seg, dim), dtype=complex)
        self.buf = np.empty((len(order), _WINDOW_TERMS, dim), dtype=complex)

    def _prefix(self, a: int) -> sp.csr_matrix:
        if a not in self.prefixes:
            self.prefixes[a] = _row_prefix(self.h_scaled, a * self.dim)
        return self.prefixes[a]

    def apply(self, psi: np.ndarray, n: int) -> np.ndarray:
        """States at dt, ..., n dt of every block, (m, n, dim), from ``psi``,
        (m, dim) in stack order; n is at most the segment length. The states
        are a view on the window's buffer, overwritten by the next call."""
        d, m, width = self.dim, len(self.order), _WINDOW_TERMS
        counts = np.array([c[:n] for c in self.counts])
        ends = counts.max(axis=1)                 # terms per block
        # term k runs on the prefix up to the last block that needs it
        reach = np.maximum.accumulate(ends[::-1])[::-1]
        n_terms = int(reach[0])
        active = (reach[:, None] > np.arange(n_terms)).sum(axis=0).tolist()
        # per chunk of buffered terms and block: the first sample that takes them
        firsts = (counts[:, None, :] > np.arange(0, n_terms, width)[:, None]).argmax(axis=2)
        acc, buf = self.acc[:, :n], self.buf
        acc.fill(0.0)
        accr = self.acc.view(float)
        bufr = buf.view(float)
        t_cur = psi.reshape(-1)
        for k, a in enumerate(active):
            rows = a * d
            if k == 1:
                t_prev, t_cur = t_cur, self._prefix(a) @ t_cur[:rows]
            elif k > 1:
                t_next = self._prefix(a) @ t_cur[:rows]
                t_next *= 2.0
                t_next -= t_prev[:rows]
                t_prev, t_cur = t_cur[:rows], t_next
            r = k % width
            np.multiply(t_cur[:rows].reshape(a, d), _MINUS_I_POW[k & 3], out=buf[:a, r])
            if r == width - 1 or k == n_terms - 1:
                # fold the buffered terms into the samples still expanding
                k0 = k - r
                for p in range(active[k0]):
                    used = min(int(ends[p]), k + 1) - k0
                    if used > 0:
                        lo = firsts[p, k0 // width]
                        accr[p, lo:n] += self.coef[p][lo:n, k0:k0 + used] @ bufr[p, :used]
        acc *= self.phase[:, :n, None]
        return acc


def _check_tol(tol: float):
    if not TOL_RANGE[0] <= tol <= TOL_RANGE[1]:
        raise ValueError(f"tol={tol} outside {TOL_RANGE}")


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
    operator) and applies it once; :func:`trajectory` repeats one
    step with a single plan.

    Parameters
    ----------
    h : Hermitian CSR matrix (real symmetric in all uses here).
    psi : state vector, real or complex; the result is complex.
    t : evolution time, either sign.
    tol : target truncation accuracy per call, must lie in [1e-14, 1e-6].
        The 2-norm drift of the result stays below about 10*tol.
    bounds : optional precomputed spectral enclosure, e.g. from
        :func:`spectral_bounds`; pass it when evolving many states under the
        same Hamiltonian.
    """
    return _StepPlan([h], [t], tol, [bounds]).apply([psi])[0]


def trajectory(h: sp.csr_matrix, psi: np.ndarray, dt: float, n_steps: int,
               tol: float = 1e-10, bounds: tuple[float, float] | None = None,
               t0: float = 0.0) -> Iterator[tuple[float, np.ndarray]]:
    """Step psi by exp(-i h dt) ``n_steps`` times, yielding (t, amplitudes)
    after each step.

    The spectral enclosure (when ``bounds`` is not given) and the step plan
    (sub-step count, coefficients, scaled operator) are built once
    and applied at every step, so each state equals bit for bit what repeated
    ``expimv(h, psi, dt, tol, bounds)`` calls give. The clock starts at
    ``t0`` and advances by ``t = t + dt``, so the times agree bit for bit
    with those of repeated single-step calls.
    """
    step = _StepPlan([h], [dt], tol, [bounds])
    t = t0
    for _ in range(n_steps):
        (psi,) = step.apply([psi])
        t = t + dt
        yield t, psi


class EigenPropagator:
    """exp(-i h t) psi at any times from one dense eigendecomposition of a
    real symmetric ``h`` (module docstring).

    ``numpy.linalg.eigh`` of ``h.toarray()`` runs once, on construction; the
    propagator holds the n eigenvalues and the n x n real eigenvectors.
    """

    def __init__(self, h: sp.csr_matrix):
        a = h.toarray()
        if np.iscomplexobj(a):
            raise ValueError("EigenPropagator needs a real symmetric matrix")
        self.energies, self.vectors = np.linalg.eigh(a)

    def states(self, psi: np.ndarray, times) -> np.ndarray:
        """exp(-i h t) psi for every t of ``times``, one state per row,
        (len(times), n).

        psi's eigenbasis coefficients V^T psi and the states V (phase x
        coefficients) are each one real product: a complex (n, m) array
        viewed as a real (n, 2m) one. The rows are a transposed view.
        """
        psi = np.ascontiguousarray(psi, dtype=complex)
        n = self.energies.size
        if psi.shape != (n,):
            raise ValueError("state length does not match Hamiltonian")
        coef = (self.vectors.T @ psi.view(float).reshape(n, 2)).view(complex)
        coef = np.exp(-1j * np.outer(self.energies, np.asarray(times, dtype=float))) * coef
        return (self.vectors @ coef.view(float)).view(complex).T


def window_batch(blocks: Iterable[tuple], n_samples: int, tol: float = 1e-10
                 ) -> Iterator[tuple[int, int, np.ndarray]]:
    """Sample each block (h, psi, dt, bounds) at dt, 2 dt, ..., n_samples dt.

    Yields (i, j, states), segment by segment: block i (its position in
    ``blocks``) at dt * j, ..., dt * (j + len(states) - 1), one state per
    row; every block's segments come in order of j. ``states`` is a view
    that the next segment overwrites: copy what is kept. Each segment is
    one Chebyshev recurrence from
    the last state of the one before (module docstring), and every sample
    keeps the terms above tol/4, so it stays within about 10 tol of exact
    per segment it depends on. Each block's states are bit for bit what it
    gives alone. The blocks are drawn lazily and sampled about one stack at
    a time, so memory holds about one stacked operator and its segment.

    A sample's phase half * |dt| must not exceed ``_MAX_PHASE_PER_STEP``;
    to step further, use :func:`trajectory`.
    """
    _check_tol(tol)
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    for cut in split_stacks(enumerate(blocks), lambda ib: ib[1][0]):
        groups: dict = {}
        for i, (h, psi, dt, bnd) in cut:
            dim = h.shape[0]
            psi = np.asarray(psi, dtype=complex)
            if psi.shape != (dim,):
                raise ValueError("state length does not match Hamiltonian")
            center, half = _enclosure(h, bnd)
            step = abs(half * dt)
            if not 0.0 < step <= _MAX_PHASE_PER_STEP:
                raise ValueError(f"a sample step of phase {step:.3g} is outside "
                                 f"(0, {_MAX_PHASE_PER_STEP:g}]")
            # samples and buffered terms within the block's share of the
            # byte budget, the segment's last phase within the phase cap
            share = min(h.nnz + dim, _STACK_NNZ) / _STACK_NNZ
            n_seg = min(n_samples,
                        max(1, int(_WINDOW_BYTES * share / (16 * dim)) - _WINDOW_TERMS),
                        max(1, int(_WINDOW_PHASE / step)))
            groups.setdefault((dim, n_seg), []).append((i, h, psi, dt, center, half))
        del cut
        for (dim, n_seg), members in groups.items():
            members.sort(key=lambda b: -abs(b[5] * b[3]))
            for stack in split_stacks(members, lambda b: b[1]):
                order, hs, psis, dts, centers, halves = zip(*stack)
                window = _Window(hs, order, dim, n_seg, centers, halves, dts, tol)
                del stack, hs
                state = np.stack(psis)
                j = 1
                while j <= n_samples:
                    states = window.apply(state, min(n_seg, n_samples - j + 1))
                    for i, rows in zip(order, states):
                        yield i, j, rows
                    state = states[:, -1].copy()
                    j += states.shape[1]
                del window, states   # before the next stack's window is built
