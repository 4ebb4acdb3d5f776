"""Time evolution under a sparse Hermitian operator.

:func:`expimv` applies exp(-i h t) by one Chebyshev expansion of the whole
step (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)), within about
10 tol of exact at any phase, and :func:`trajectory` repeats that step bit
for bit; :func:`real_window` samples a real start at dt, ..., n dt from one
float64 recurrence, and :class:`EigenPropagator` gives exact states at any
times from one dense decomposition. :func:`evolution_path` picks which of
these runs each sampled evolution of the lens, breathing and blockade
scenarios, and :class:`_PatternPlan` steps a disorder job's realizations as
one stacked operator, each bit for bit its lone :func:`expimv`. LAPACK and
BLAS load only on a decomposition or a real window.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

import numpy as np
import scipy.sparse as sp

# Nonzeros of one stacked operator. A CSR entry with its column index takes
# 12 B real or 20 B complex, so 2**16 of them are about 0.75 or 1.3 MiB, and a
# real ensemble stack with its state vectors stays inside one 2 MiB L2. In-
# process disorder tasks (displacement / holes2d / holes1d, median of 9-11
# interleaved repeats) took 391 / 214 / 86 ms at 2**15, 354 / 186 / 79 at
# 54 613, 323 / 178 / 83 at 2**16 and 321 / 176 / 80 at 98 304: 2**16 is the
# knee. In one benchmark disorder run each, 2**15, 2**16 and 2**17 raised the
# peak memory over one block at a time by 1.4, 3.2 and 7.0 MiB. With the
# stacks stored by diagonals (no more bytes than CSR), the same tasks took
# 179 / 113 / 23 ms at 2**15, 156 / 98 / 23 at 54 613, 156 / 88 / 23 at
# 2**16, 158 / 97 / 20 at 98 304 and 165 / 98 / 20 at 2**17 (median of 9
# interleaved repeats; a second set of 9 put displacement at 174 ms for 2**17
# against 184 for 2**16): the knee stays at 2**16.
_STACK_NNZ = 2**16

# Terms a real window buffers before it adds them into its samples by one
# matrix product.
_WINDOW_TERMS = 8

# Bytes of a real window (real_window) per operator entry, and its cap: its
# samples, 2 n dim floats, and its Bessel and coefficient tables, about
# 3 n^2 floats per unit of phase per sample. 16 MiB is what the largest
# decomposition holds (the reflectors and T's eigenvectors, 2 x 1000^2
# doubles at _DENSE_ROWS, 3 x 1000^2 while dstevd runs). The 18 010-row
# nu = 3 even sector of the nonlinear scenario at J_z = 20 takes 2.5 MB for
# its 8 samples of 122 rad; it fits up to 41 samples at that phase per sample
# and 54 at 15 rad.
_REAL_WINDOW_ENTRY_BYTES = 512
_REAL_WINDOW_BYTES = 2**24

TOL_RANGE = (1e-14, 1e-6)

# EigenPropagator decomposes up to this many rows by divide and conquer
# (dstevd on a tridiagonal h, numpy.linalg.eigh on any other), so every lens
# operator the optimizer decomposes keeps its bits and its speed: the full H
# of at most _DECOMPOSE_ROWS sites, or the even operator of a centred design
# on twice that. On nearest-neighbour lens operators MRRR took 8.5 against
# 4.7 ms at N = 200 and 54 against 22 ms at 400, and dstevd 1.7 and 5.2 ms
# against 3.4 and 15.8 ms for numpy's eigh (mean of 5, one BLAS thread).
# Above it, h is reduced to tridiagonal form in place by dsytrd and T is
# decomposed by dstevd; the states apply Q's reflectors. On the 930-row
# nu = 2 blockade operator, numpy's eigh, scipy's driver="evr" and "evd" and
# this path took 219, 236, 158 and 112 ms (best of 5, one CPU, one BLAS
# thread); the decomposition and eight stepped states took 155 against 270
# ms for "evr" (median of 11 interleaved runs). The peak memory of one round
# of blockade tasks in one process was 106.8 MiB, against 99.2-101.4 MiB
# with "evr": one n^2 dstevd workspace.
_EVR_ROWS = 400

# EigenPropagator's test of symmetry, |h_ij - h_ji| <= this x max |h|: far
# above rounding (the nu = 2 blockade operator differs from its transpose by
# 2e-16 at a largest entry of 6e3) and far below a wrong operator (the
# mirror's unsymmetrized H[reps] @ L has entries off by a factor of 2).
# An exactly symmetric h, as every full lens operator is, passes first on the
# dense copy it decomposes (np.array_equal(a, a.T), about 40 us at N = 200,
# 1-2% of the eigh); measuring every h on the sparse form instead (160-270
# us, 4-6% of the eigh) made lens_design, where decompositions take 60% of
# the time, slower in 8 of 10 benchmark pairs, by 8.8% in the median. Above
# _EVR_ROWS a sparse h is measured on its sparse form only: the even
# blockade operators, off by rounding, always failed the dense compare, an
# n^2 pass of about 1 ms at 930 rows before the sparse measure.
_SYMMETRY_RTOL = 1e-12

# exact (-i)^k via k mod 4, avoiding argument-reduction error at large k
_MINUS_I_POW = np.array([1.0, -1.0j, -1.0, 1.0j])


def spectral_bounds(h: sp.csr_matrix) -> tuple[float, float]:
    """Gershgorin interval [lo, hi] containing all eigenvalues of Hermitian h.

    ``h`` is left as it is: a matrix with unsorted indices or duplicate
    entries is put in canonical form on a copy.
    """
    diag = h.diagonal()
    if not h.has_canonical_format:
        h = h.copy()
        h.sum_duplicates()
    # the sums of |h| over each nonempty row, by the reduction, in the order
    # of abs(h).sum(axis=1)
    data = np.abs(h.data)
    rows = np.zeros(h.shape[0], dtype=data.dtype)
    nonempty = np.flatnonzero(np.diff(h.indptr))
    rows[nonempty] = np.add.reduceat(data, h.indptr[nonempty])
    d, radii = diag.real, rows - np.abs(diag)
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


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions start, ..., start + length - 1 of every range, in order."""
    stops = np.cumsum(lengths)
    return np.arange(stops[-1] if len(stops) else 0) + np.repeat(starts - stops + lengths, lengths)


# The storage rule of _Layout on the stacks of one disorder benchmark task
# per slot (one CPU; a product is the median of 30 x 100, interleaved with
# the other storage):
#
#   slot          rows    diagonals  CSR entries  product, CSR / DIA (us)
#   displacement   1 600  41         62 240       41.0 / 28.9
#   holes2d       10 086   5         49 164       45.4 / 31.9
#   holes1d       14 000   3         40 812       45.0 / 26.9
#
# The blockade sectors spread their entries over far more diagonals than
# their rows' worth of bytes holds (the nu = 2 even sector of 61 sites: 4 470
# entries on 61 diagonals of 930 rows; the nu = 3 even sector of 61 sites:
# 120 670 on 2 203 of 18 010), so they stay CSR.
class _Layout:
    """Where the entries of a canonical pattern (``cols``, ``indptr``) go in
    2 h~, h~ = (h - centre) / half, of a stack of blocks that share it:
    read from the pattern once and written (:meth:`write`) for every stack.

    The storage is by diagonals (scipy's DIA; Saad, *Iterative Methods for
    Sparse Linear Systems*, 2nd ed., SIAM 2003, section 3.4), laid out here
    with ascending offsets and the main diagonal always stored, when that
    takes no more bytes than CSR would, 8 x diagonals x rows <= 12 x
    entries + 4 x rows, counting the entries of the pattern with a diagonal
    entry in every row; otherwise it is scipy's CSR difference. The bits do
    not depend on the storage. scipy's CSR product sums each row from zero
    in column order; its DIA product adds diagonal after diagonal, in
    stored order, into a zeroed result, so with ascending offsets each row
    sees the same additions in the same order. A slot that holds 0.0,
    because no entry fills it or a block lacks the entry, adds 0 x = +-0,
    which leaves the sum as it was: a sum that starts at +0 never becomes
    -0.

    ``offsets`` holds the diagonals in ascending order, ``slots`` each
    entry's diagonal and ``main`` the main one's; ``offsets`` is None for
    CSR. ``places`` holds, for the diagonals of the last block count
    written, each entry's place in the first block, flat.
    """

    def __init__(self, cols: np.ndarray, indptr: np.ndarray):
        dim = indptr.size - 1
        self.cols, self.indptr, self.rows = cols, indptr, dim
        # col - row + dim - 1 of each entry, in [0, 2 dim - 1)
        key = np.repeat(np.arange(dim, dtype=cols.dtype), np.diff(indptr))
        np.subtract(cols, key, out=key)
        key += dim - 1
        # the diagonals that hold an entry, and the main one
        present = np.zeros(2 * dim - 1, bool)
        present[key] = present[dim - 1] = True
        entries = cols.size - np.count_nonzero(key == dim - 1) + dim
        self.offsets = None
        if 8 * np.count_nonzero(present) * dim <= 12 * entries + 4 * dim:
            slot = np.cumsum(present) - 1
            self.offsets = (np.flatnonzero(present) - (dim - 1)).astype(np.int32)
            self.slots, self.main = slot[key], slot[dim - 1]
        self.places = (0, None)

    def write(self, values: np.ndarray, centers, halves, dtype,
              out: np.ndarray | None = None) -> sp.csr_matrix | sp.dia_matrix:
        """2 h~ of the stack of B copies of the pattern whose values are the
        rows of ``values`` (B, entries), with each block's ``centers`` and
        ``halves``, as ``dtype``: each diagonal entry less its block's
        centre (0 - c on a row without one), each entry scaled by its
        block's 1/half and then doubled. A CSR is scipy's canonical
        ``stack - diags(c)``, which drops every result that is 0.0, stored
        zeros included; a DIA holds 0.0 in every slot no entry fills.
        ``out`` (DIA only) holds the diagonals, (diagonals, at least B,
        rows) and 0.0 wherever no stack written into it put an entry, and
        is overwritten. A block's values go to their places through one
        flat index, one block's worth, kept for the diagonals' block count."""
        b, rows = len(values), self.rows
        n, scale = b * rows, 1.0 / np.asarray(halves)
        if self.offsets is None:
            blocks = [sp.csr_matrix((v, self.cols, self.indptr), shape=(rows, rows))
                      for v in values.astype(dtype, copy=False)]
            stack = blocks[0] if b == 1 else sp.block_diag(blocks, format="csr")
            stack = stack - sp.diags(np.repeat(centers, rows))
            stack.data *= scale[0] if b == 1 else np.repeat(scale, np.diff(stack.indptr[::rows]))
            stack.data *= 2.0
            return stack
        full = np.zeros((self.offsets.size, b, rows), dtype) if out is None else out
        diagonals, flat = full[:, :b], full.reshape(-1)
        if self.places[0] != full.shape[1]:
            self.places = full.shape[1], self.slots * (full.shape[1] * rows) + self.cols
        # the main diagonal: each entry less its block's centre, 0 - c on a
        # row without one
        main = diagonals[self.main]
        main.fill(0.0)
        for j, row in enumerate(values):
            flat[j * rows:][self.places[1]] = row
        main -= np.asarray(centers, dtype=float)[:, None]
        diagonals *= scale[:, None]
        diagonals *= 2.0
        dia = sp.dia_matrix((n, n), dtype=full.dtype)
        dia.data, dia.offsets = full.reshape(self.offsets.size, -1), self.offsets
        return dia


def _stacked_operator(h, center: float, half: float, dtype) -> sp.csr_matrix | sp.dia_matrix:
    """2 h~ = 2 (h - centre) / half of one block as ``dtype`` (float only
    for a real h), on h's canonical pattern (:class:`_Layout`); h is not
    modified.

    The entries are those of scipy's canonical ``h - diags(c)``, which
    computes a - c, a - 0 and 0 - c and drops every result that is 0.0,
    each then scaled by 1/half and doubled: as CSR, that difference
    itself; by diagonals, the same values laid out by hand, 0.0 in every
    slot no entry fills. The bits do not depend on the storage. Canonical
    form (sorted, summed) fixes the order of each row's sum whatever the
    order of h's indices; an h with unsorted or duplicate entries is put
    in it by a sparse sum with an empty matrix, which adds duplicates in
    storage order and drops zero sums, as the shift does, and then
    sorted."""
    if dtype is float and np.iscomplexobj(h.data):
        h = h.real
    if not h.has_canonical_format:
        h = h + sp.csr_matrix(h.shape)
        h.sort_indices()
    layout = _Layout(h.indices[:h.nnz], h.indptr)
    return layout.write(h.data[None, :h.nnz], [center], [half], dtype)


def _step(h, t: float, bounds) -> tuple:
    """(centre, half-width, phase half-width x t, exp(-i centre t)) of the
    step exp(-i h t), its enclosure read from ``bounds`` when given."""
    center, half = _enclosure(h, bounds)
    return center, half, half * t, np.exp(-1j * center * t)


class _Stack:
    """Blocks of one dimension stacked into one operator: one step of
    :class:`_StepPlan`, or the realizations of a chunk of
    :class:`_PatternPlan`, in the order they come.

    The operator ``h`` is 2 h~, by diagonals or as CSR (``_Layout``),
    float64 when every block is real, until the first complex state, and
    complex otherwise; the stack holds one at a time. ``coef`` holds each
    block's coefficients, zero past its own count, and every block runs to
    the longest count: each term is one matvec and one subtraction in
    place, T_k+1 = 2 h~ T_k - T_k-1 over T_k-1, on the whole stack. Past its
    own count a block adds c_k T_k with c_k = 0, and its T_k stay bounded
    (|T_k| <= 1 on the enclosure), so it adds +-0 to accumulators that
    already hold its lone sum, which leaves every nonzero value as it is:
    each block is bit for bit its lone expansion, except that an exact
    zero could turn from -0 to +0. While the operator and the state are
    real, the terms are added into two float64 accumulators, the even
    ones times Re c_k into the real part and the odd ones times Im c_k into
    the imaginary part, which become the complex state at the end;
    otherwise c_k T_k goes into one complex accumulator. A *uniform* stack,
    whose blocks share one coefficient set (the same object) and one phase,
    as one block does, runs on the flat state with scalar c_k and a scalar
    phase; otherwise each term multiplies a column of the blocks' c_k. Each
    element takes the same product and sum either way.
    """

    def __init__(self, h, coefs, phases):
        self.h_scaled = h
        self.coef = np.zeros((max(len(c) for c in coefs), len(coefs), 1), dtype=complex)
        for j, c in enumerate(coefs):
            self.coef[:len(c), j, 0] = c
        self.phase = np.array(phases)[:, None]
        self.uniform = all(c is coefs[0] for c in coefs) and len(set(phases)) == 1

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """exp(-i h t) of every block; ``psi`` is (m, dim) in stack order,
        real or complex. The terms are float64 while the operator and the
        state are real (class docstring)."""
        if np.iscomplexobj(psi) and not np.iscomplexobj(self.h_scaled.data):
            self.h_scaled = self.h_scaled.astype(complex)
        h = self.h_scaled
        # a uniform stack: scalar coefficients and phase, which multiply the
        # flat state without the cost of broadcasting a column
        coef, shape, phase = ((self.coef[:, 0, 0], (psi.size,), self.phase[0, 0])
                              if self.uniform else (self.coef, psi.shape, self.phase))
        real = not np.iscomplexobj(h.data)
        if real:
            # the even terms' sum of Re c_k T_k, the odd terms' of Im c_k T_k
            parts = np.zeros((2,) + psi.shape)
            sums, tables = list(parts.reshape((2,) + shape)), (coef.real, coef.imag)
        else:
            acc = np.empty(psi.shape, dtype=complex)
            sums, tables = [acc.reshape(shape)] * 2, (coef, coef)
        np.multiply(tables[0][0], psi.reshape(shape), out=sums[0])
        if len(coef) > 1:
            # T_0, as a copy that T_2 overwrites
            t_prev = psi.astype(h.dtype).reshape(-1)
            t_cur = h @ t_prev
            t_cur *= 0.5
            # the term buffers and the scratch that c_k T_k is formed in,
            # viewed per block once
            v_prev, v_cur = t_prev.reshape(shape), t_cur.reshape(shape)
            scratch = np.empty(shape, t_cur.dtype)
            sums[1] += np.multiply(tables[1][1], v_cur, out=scratch)
            p = 0                            # the parity of term k, from k = 2
            for k in range(2, len(coef)):
                t_prev, t_cur = t_cur, np.subtract(h @ t_cur, t_prev, out=t_prev)
                v_prev, v_cur = v_cur, v_prev
                sums[p] += np.multiply(tables[p][k], v_cur, out=scratch)
                p ^= 1
        if real:
            acc = np.empty(psi.shape, dtype=complex)
            acc.real, acc.imag = parts
        return np.multiply(phase, acc, out=acc)


class _StepPlan:
    """The step exp(-i h t) of one operator, with the spectral ``bounds`` of
    h when given, applied to one state per call, as often as wanted.

    The step is one Chebyshev expansion, whatever its phase half-width x t:
    the recurrence's round-off does not grow with the order, and one
    expansion stayed within 3e-9 of a dense eigendecomposition at phases up
    to 3e5 and tol 1e-8. It keeps the terms above tol/4, so the 2-norm drift
    of a result stays below about 10 tol. The scaled operator
    (:func:`_stacked_operator`) is a new array, so h is not modified, and
    runs in float64 while h and the state are real (:class:`_Stack`). At
    t = 0 applying the step copies the state.
    """

    def __init__(self, h: sp.csr_matrix, t: float, tol: float, bounds):
        _check_tol(tol)
        self.dim, self.stack = h.shape[0], None
        if t != 0.0:
            center, half, z, phase = _step(h, t, bounds)
            dtype = complex if _imaginary(h) else float
            self.stack = _Stack(_stacked_operator(h, center, half, dtype),
                                _chebyshev_coeffs([z], tol / 4.0), [phase])

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """Return exp(-i h t) psi, complex."""
        psi = _state(psi)
        if psi.shape != (self.dim,):
            raise ValueError("state length does not match Hamiltonian")
        if self.stack is None:
            return psi.astype(complex)
        return self.stack.apply(psi[None])[0]


class _PatternPlan:
    """exp(-i h_j t) psi_j, stack after stack, for real blocks that share one
    canonical pattern (``cols``, ``indptr``) and one time ``t``: the
    realizations of a disorder job. Each result is bit for bit
    :func:`expimv` of the block as CSR (the pattern's entries less those
    whose value is 0.0), since a slot that holds 0.0 adds +-0
    (:class:`_Layout`). What every stack shares is made once: the pattern's
    :class:`_Layout`; the coefficient sets of every phase met so far, so a
    repeated phase builds no Bessel table; and a DIA stack's diagonals,
    written in place stack after stack.
    """

    def __init__(self, cols: np.ndarray, indptr: np.ndarray, t: float, tol: float):
        _check_tol(tol)
        self.layout = _Layout(cols, indptr)
        self.t, self.tol, self.coef_sets, self._diagonals = t, tol, {}, None

    def apply(self, values: np.ndarray, bounds, psis: np.ndarray) -> np.ndarray:
        """exp(-i h_j t) psi_j of the blocks whose values, in the pattern's
        order, are the rows of ``values`` (m, entries), whose Gershgorin
        ``bounds`` are [(lo, hi)] and whose start states are the rows of
        ``psis`` (m, dim), real or complex; complex, (m, dim). The blocks
        form one stack, in the order of the rows."""
        if self.t == 0.0:
            return psis.astype(complex, order="C")
        layout, m, sets = self.layout, len(values), self.coef_sets
        steps = [_step(None, self.t, b) for b in bounds]
        # one Bessel table for the phases met first here; a coefficient set
        # does not depend on the table it came from (_bessel_table)
        new = [z for z in dict.fromkeys(step[2] for step in steps) if z not in sets]
        if new:
            sets.update(zip(new, _chebyshev_coeffs(new, self.tol / 4.0)))
        centers, halves, zs, phases = zip(*steps)
        if layout.offsets is not None and (self._diagonals is None
                                           or self._diagonals.shape[1] < m):
            self._diagonals = np.zeros((layout.offsets.size, m, layout.rows))
        h = layout.write(values, centers, halves, float, out=self._diagonals)
        return _Stack(h, [sets[z] for z in zs], phases).apply(_state(psis))


def _imaginary(h: sp.csr_matrix) -> bool:
    """Whether ``h`` has an entry with a nonzero imaginary part."""
    return bool(np.iscomplexobj(h.data) and h.data.imag.any())


def _state(psi) -> np.ndarray:
    """``psi`` as float64 when it has no imaginary part, else complex128."""
    psi = np.asarray(psi)
    if np.iscomplexobj(psi) and psi.imag.any():
        return psi.astype(complex, copy=False)
    return psi.real.astype(float, copy=False)


def _real_window_fits(h: sp.csr_matrix, bounds, dt: float, n_samples: int) -> bool:
    """Whether a real block (h, psi, dt, bounds) fits one real window of
    ``n_samples``: its samples and its Bessel and
    coefficient tables, n (2 dim + 3 n step) floats at the phase
    step = half |dt| of a sample, within ``_REAL_WINDOW_ENTRY_BYTES`` per
    entry of h once shifted (nonzeros plus rows), at most
    ``_REAL_WINDOW_BYTES``."""
    dim = h.shape[0]
    step = abs(_enclosure(h, bounds)[1] * dt)
    return 8 * n_samples * (2 * dim + 3 * n_samples * step) <= min(
        _REAL_WINDOW_ENTRY_BYTES * (h.nnz + dim), _REAL_WINDOW_BYTES)


def _check_tol(tol: float):
    if not TOL_RANGE[0] <= tol <= TOL_RANGE[1]:
        raise ValueError(f"tol={tol} outside {TOL_RANGE}")


def expimv(h: sp.csr_matrix, psi: np.ndarray, t: float,
           tol: float = 1e-10, bounds: tuple[float, float] | None = None) -> np.ndarray:
    """Return exp(-i h t) psi.

    Builds the step for ``t`` (:class:`_StepPlan`: one Chebyshev expansion
    of the whole step at any phase, its coefficients and scaled operator)
    and applies it once; :func:`trajectory` repeats one step with a single
    plan.

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
    return _StepPlan(h, t, tol, bounds).apply(psi)


def trajectory(h: sp.csr_matrix, psi: np.ndarray, dt: float, n_steps: int,
               tol: float = 1e-10, bounds: tuple[float, float] | None = None,
               t0: float = 0.0) -> Iterator[tuple[float, np.ndarray]]:
    """Step psi by exp(-i h dt) ``n_steps`` times, yielding (t, amplitudes)
    after each step.

    The spectral enclosure (when ``bounds`` is not given) and the step plan
    (one expansion of dt, its coefficients and scaled operator) are built once
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


def _tridiagonal(a: np.ndarray) -> bool:
    """Whether every nonzero of the square array ``a`` lies on its main
    diagonal or the two beside it."""
    return np.count_nonzero(a) == sum(np.count_nonzero(np.diagonal(a, k)) for k in (-1, 0, 1))


class EigenPropagator:
    """exp(-i h t) psi at any times from one dense eigendecomposition of a
    real symmetric ``h``, a CSR matrix or a dense array: V (e^{-iEt} *
    V^T psi), as two real matrix products, exact to rounding at any t (the
    eigenvector method of Moler & Van Loan, SIAM Rev. 45, 3 (2003)).

    The decomposition runs once, on construction, by LAPACK's divide and
    conquer, on a copy of a dense ``h``: up to ``_EVR_ROWS`` rows
    ``dstevd`` on a tridiagonal h and ``numpy.linalg.eigh`` on any other,
    and the propagator holds the n eigenvalues ``energies`` and h's n x n
    real eigenvectors ``vectors``. Above, ``dsytrd`` reduces h = Q T Q^T
    and ``dstevd`` decomposes T: ``vectors`` holds T's eigenvectors Z, not
    h's, and Q is kept as its Householder reflectors. Raises ValueError for
    a complex ``h`` or one that is not symmetric to rounding: LAPACK reads
    one triangle, so it would silently decompose another matrix.
    """

    def __init__(self, h: sp.csr_matrix | np.ndarray):
        from scipy.linalg.lapack import dstevd, dsytrd, dsytrd_lwork

        if np.iscomplexobj(h):
            raise ValueError("EigenPropagator needs a real symmetric matrix")
        n = h.shape[0]
        order = "F" if n > _EVR_ROWS else "C"
        sparse = sp.issparse(h)
        a = h.toarray(order=order) if sparse else np.array(h, dtype=float, order=order)
        if (sparse and n > _EVR_ROWS) or not np.array_equal(a, a.T):
            # measured on h: for a sparse h, a dense a - a.T would add n^2
            # doubles to the peak
            skew = abs(h - h.T).max()
            if skew > _SYMMETRY_RTOL * np.abs(h.data if sparse else a).max(initial=0.0):
                raise ValueError("EigenPropagator needs a real symmetric matrix; "
                                 f"h differs from h.T by up to {skew:.3g}")
        self._reflectors = self._tau = None
        if n > _EVR_ROWS:
            # h = Q T Q^T, a overwritten in place by T's diagonals and Q's
            # reflectors. With LAPACK's queried workspace the reduction is
            # blocked: 89 against 148 ms unblocked at 930 rows (best of 7).
            lwork = int(dsytrd_lwork(n, lower=1)[0])
            a, d, e, self._tau, info = dsytrd(a, lower=1, lwork=lwork, overwrite_a=1)
            if info:
                raise np.linalg.LinAlgError(f"dsytrd failed (info={info})")
            # reflector i is 1 at row i + 1 and a[i + 2:, i] below it: the
            # columns of a[1:, :n - 1], viewed without a copy with a's
            # leading dimension
            self._reflectors = a.reshape(-1, order="F")[1:1 + n * (n - 1)].reshape(
                n, n - 1, order="F")
        elif n > 1 and _tridiagonal(a):
            # numpy's eigh reads the lower triangle
            d, e = np.diagonal(a), np.diagonal(a, -1)
        else:
            self.energies, self.vectors = np.linalg.eigh(a)
            return
        self.energies, vectors, info = dstevd(d, e)
        if info:
            raise np.linalg.LinAlgError(f"dstevd failed to converge (info={info})")
        # a tridiagonal h's vectors in numpy's layout, so the state products
        # run as on eigh's vectors
        self.vectors = vectors if self._tau is not None else np.ascontiguousarray(vectors)

    def _reflect(self, trans: str, x: np.ndarray) -> np.ndarray:
        """Q x (``trans`` "N") or Q^T x ("T") of a real (n, k) array x, as a
        new C-ordered array. Q = diag(1, Q') leaves row 0 as it is; dormqr
        applies Q' to rows 1..n-1 unblocked, which at k = 2 took 0.5 against
        1.1 ms for its blocked form at 930 rows."""
        from scipy.linalg.lapack import dormqr

        rows, _, info = dormqr("L", trans, self._reflectors, self._tau, x[1:],
                               max(1, x.shape[1]))
        if info:
            raise np.linalg.LinAlgError(f"dormqr failed (info={info})")
        out = np.empty(x.shape)
        out[0], out[1:] = x[0], rows
        return out

    def states(self, psi: np.ndarray, times) -> np.ndarray:
        """exp(-i h t) psi for every t of ``times``, one state per row,
        (len(times), n).

        psi's eigenbasis coefficients V^T psi and the states V (phase x
        coefficients) are each one real product: a complex (n, m) array
        viewed as a real (n, 2m) one, so V is never cast to complex. Above
        ``_EVR_ROWS`` rows V = Q Z: Q^T and Q are applied by their
        reflectors around the products with Z. The rows are a transposed
        view.
        """
        psi = np.ascontiguousarray(psi, dtype=complex)
        n = self.energies.size
        if psi.shape != (n,):
            raise ValueError("state length does not match Hamiltonian")
        x = psi.view(float).reshape(n, 2)
        if self._tau is not None:
            x = self._reflect("T", x)
        coef = (self.vectors.T @ x).view(complex)
        coef = np.exp(-1j * np.outer(self.energies, np.asarray(times, dtype=float))) * coef
        y = self.vectors @ coef.view(float)
        if self._tau is not None:
            y = self._reflect("N", y)
        return y.view(complex).T


def real_window(h: sp.csr_matrix, psi: np.ndarray, dt: float, n_samples: int,
                tol: float = 1e-10, bounds: tuple[float, float] | None = None
                ) -> np.ndarray:
    """exp(-i h dt j) psi for j = 1, ..., ``n_samples``, one state per row,
    (n_samples, dim), all from one float64 Chebyshev recurrence on 2 h~ in
    a ring of ``_WINDOW_TERMS`` buffered terms, each full ring added into
    the samples still expanding by one matrix product. The terms
    T_k(h~) psi do not depend on the time, only the coefficients
    2 (-i)^k J_k(z_j) do, and for a real h~ and psi, exp(-i z h~) psi =
    cos(z h~) psi - i sin(z h~) psi: the even terms give each sample's real
    part and the odd ones its imaginary part (Weisse et al., Rev. Mod. Phys.
    78, 275 (2006)).

    ``h`` and ``psi`` must be real (a complex dtype whose imaginary parts
    are all zero counts as real), the sample step half * |dt| positive,
    and the samples and their tables must fit ``_real_window_fits``; any
    other input raises ValueError. Every sample keeps the terms above
    tol/4, so it stays within about 10 tol of exact.
    """
    from scipy.linalg.blas import dgemm

    _check_tol(tol)
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if _imaginary(h):
        raise ValueError("real_window needs a real h")
    psi = _state(psi)
    if psi.dtype != float:
        raise ValueError("real_window needs a real start state")
    d = h.shape[0]
    if psi.shape != (d,):
        raise ValueError("state length does not match Hamiltonian")
    bounds = spectral_bounds(h) if bounds is None else bounds
    center, half = _enclosure(h, bounds)
    z = half * dt
    if not abs(z) > 0.0:
        raise ValueError(f"a sample step of phase {abs(z):.3g} is not positive")
    if not _real_window_fits(h, bounds, dt, n_samples):
        raise ValueError(f"{n_samples} samples of phase {abs(z):.3g} do not fit "
                         "the real window's byte budget")
    j = np.arange(1, n_samples + 1)
    sets = _chebyshev_coeffs(z * j, tol / 4.0)
    counts = np.array([len(c) for c in sets])
    width, n_terms = _WINDOW_TERMS, int(counts.max())
    # (2 n, terms): Re c_k and Im c_k per sample, zero past each sample's count
    coef = np.zeros((n_samples, 2, n_terms))
    for row, c in zip(coef, sets):
        row[:, :c.size] = c.real, c.imag
    coef = coef.reshape(2 * n_samples, n_terms)
    del sets
    # 2 h~, exactly twice h~, so a term is one matvec and one subtraction
    # and rounds as 2 (h~ T_k) does
    h = _stacked_operator(h, center, half, float)
    # per ring of buffered terms: the first sample that takes them
    firsts = (counts > np.arange(0, n_terms, width)[:, None]).argmax(axis=1)
    # each sample as two rows, its real and imaginary parts
    acc = np.zeros((n_samples, 2, d))
    buf = np.empty((width, d))
    t_cur = psi
    for k in range(n_terms):
        r = k % width
        row = buf[r]
        if k == 0:
            row[:] = t_cur
        elif k == 1:
            np.multiply(h @ t_cur, 0.5, out=row)
        else:
            np.subtract(h @ t_cur, t_prev, out=row)
        t_prev, t_cur = t_cur, row
        if r == width - 1 or k == n_terms - 1:
            # the rows of the samples still expanding += table x terms, in
            # place: BLAS on the transposes, which are Fortran-ordered
            k0, lo = k - r, firsts[k // width]
            parts = acc[lo:].reshape(-1, d)
            dgemm(1.0, buf[:r + 1].T, coef[2 * lo:, k0:k + 1].T, 1.0, parts.T,
                  overwrite_c=True)
    # sample by sample into the same memory, so a temporary holds one
    states = acc.reshape(n_samples, 2 * d).view(complex)
    phase = np.exp(-1j * center * (dt * j))
    for i in range(n_samples):
        states[i] = (acc[i, 0] + 1j * acc[i, 1]) * phase[i]
    return states


# The evolution path's decomposition rule (evolution_path): the gated
# operator is decomposed up to _DECOMPOSE_ROWS rows, and up to _DENSE_ROWS
# when the span's phase half |t_end| exceeds _DENSE_COST rows^2. Timings
# are on one CPU with one BLAS thread.
#
# _DECOMPOSE_ROWS keeps the lens optimizer's paths: every design whose
# decomposition has at most 400 rows (a centred design's even operator on at
# most 800 sites, any other design's full H on at most 400) is decomposed,
# and thin designs share one decomposition per call. Whole thick order-2
# optimize_lens calls, sigma0 = N/20, centred, Chebyshev / decomposed on
# the even operator, in seconds (best of 2-3):
#
#   N     NN, n_time 40   NN, n_time 200  alpha 6, 40    alpha 6, 200
#   200   0.107 / 0.025   0.169 / 0.070   0.310 / 0.059  0.329 / 0.082
#   400   0.183 / 0.062   0.291 / 0.214   0.763 / 0.171  0.742 / 0.223
#   600   0.296 / 0.333   0.387 / 0.472   1.095 / 0.375  1.248 / 0.511
#   800   0.432 / 0.640   0.556 / 0.751   1.684 / 0.698  1.937 / 0.801
#
# Off-centre calls (focus N/2 + 0.5, n_time 40) on the full H at N = 200
# and 400, NN and alpha 6, thick and thin, took 0.024-0.540 s decomposed
# against 0.170-1.097 s stepped (best of 2), 1.6-9.9 times faster in every
# case, with focal widths within 2.1e-8 relative. The rule's price: a small
# sector at low phase, which Chebyshev samples faster, is decomposed too.
# Eight samples of a centred nu = 2 or 3 chain sector at phase 97-185 took
# 3.2-3.8 ms by one real window and 5.3-31 ms decomposed, the most at 400
# even rows; the sample count does not separate the two, since a real
# window took 2.0-6.2 ms at every count from 8 to 64.
#
# _DENSE_ROWS and _DENSE_COST: eight trajectory samples of a centred nu = 2
# chain sector (J_z = 1500, real start), Chebyshev (one real window) / dense
# on the Householder path from 420 rows, decomposition included, in seconds
# (best of 1-3):
#
#   rows  phase 1e2      1e3            1e4            1e5
#    210  0.0023/0.0065  0.012/0.0066   0.11/0.0063    1.4/0.0083
#    420  0.0043/0.021   0.022/0.021    0.18/0.021     1.5/0.021
#    650  0.0050/0.054   0.023/0.054    0.20/0.057     1.5/0.056
#    812  0.0028/0.098   0.016/0.10     0.22/0.10      2.2/0.097
#    992  0.0047/0.18    0.027/0.18     0.23/0.17      2.3/0.21
#
# The crossovers from 420 rows up fall near phases of 950, 2 600, 4 700 and
# 7 800, rows^2 / 185 to rows^2 / 125. Off-centre nu = 2 sectors, whose full
# H is decomposed: 820 rows at phase 11 400 took 86-108 ms decomposed
# against 157-250 ms stepped, and 990 rows at phase 12 100 142-182 against
# 265-297 ms. Sectors with more hops per row (nu = 3, 2D, long-range
# hopping) pay more per term, so the rule keeps them on Chebyshev where
# dense would already win.
_DECOMPOSE_ROWS = 400
_DENSE_ROWS = 1000
_DENSE_COST = 1.0 / 125.0


class EvolutionPath:
    """How the start state ``psi`` reaches the sample ``times`` (relative to
    the start, equally spaced) under the operator H of ``owner``
    (:func:`evolution_path`): in the even subspace of ``owner.mirror`` when
    ``even``, else with H; from the owner's cached decomposition when
    ``dense``, else by Chebyshev. :func:`evolution_path` picks the path;
    building one directly forces it. :meth:`samples` and :meth:`states`
    give the lifted states, and :meth:`probabilities` their |state|^2,
    squared before the lift, for a caller that reads only probabilities.
    """

    def __init__(self, owner, psi, times, tol: float, even: bool, dense: bool):
        self.owner, self.tol, self.even, self.dense = owner, tol, even, dense
        self.times = np.asarray(times, dtype=float)
        self.mirror = owner.mirror if even else None
        psi = np.asarray(psi)
        self._start = psi[self.mirror.reps] if even else psi

    @property
    def dim(self) -> int:
        """Rows of the operator the state is evolved with."""
        return self._start.size

    @property
    def method(self) -> str:
        return "dense" if self.dense else "chebyshev"

    def _lift(self, phi: np.ndarray) -> np.ndarray:
        return phi[..., self.mirror.orbit] if self.even else phi

    def _operator(self) -> sp.csr_matrix:
        return self.owner.even_matrix if self.even else self.owner.csr()

    def _exact(self, times) -> np.ndarray:
        """The unlifted states at ``times`` from the decomposition."""
        if not self.even:
            return self.owner.eigen().states(self._start, times)
        w = self.mirror.weights
        return self.owner.eigen(even=True).states(w * self._start, times) / w

    def _blocks(self) -> Iterator[np.ndarray]:
        """The unlifted states at ``times``, in order, in blocks of rows: one
        block from the decomposition or a real window, one row a block from
        Chebyshev steps, so that stepping holds one state at a time."""
        ts, n = self.times, self.times.size
        if n == 0:
            return
        if self.dense:
            yield self._exact(ts)
            return
        h, bounds, phi, tol = self._operator(), self.owner.bounds(), self._start, self.tol
        step = ts[1] - ts[0] if n > 1 else ts[0]
        if ts[0] != step:
            phi = expimv(h, phi, ts[0], tol, bounds)
            yield phi[None]
            n -= 1
        elif (self.even and step != 0.0 and _state(phi).dtype == float
              and _real_window_fits(h, bounds, step, n)):
            yield real_window(h, phi, step, n, tol, bounds)
            return
        for _, phi in trajectory(h, phi, step, n, tol, bounds):
            yield phi[None]

    def samples(self) -> Iterator[np.ndarray]:
        """The lifted states at ``times``, in order, in the blocks of rows
        that the path computes them in."""
        for block in self._blocks():
            yield self._lift(block)

    def states(self) -> Iterator[np.ndarray]:
        """The lifted states at ``times``, one at a time."""
        for block in self.samples():
            yield from block

    def probabilities(self) -> Iterator[np.ndarray]:
        """|state|^2 of the lifted states at ``times``, one at a time: each
        block is squared before it is lifted, which gives the same values,
        as |phi[orbit]|^2 = |phi|^2[orbit] entry by entry."""
        for block in self._blocks():
            yield from self._lift(np.abs(block) ** 2)

    def later(self, state: np.ndarray, t: float, shift: float) -> np.ndarray:
        """The lifted state at t + ``shift``, as a block of one row, where
        ``state`` is the lifted sample at time t: exact from the start when
        decomposed, else one Chebyshev step of ``shift`` from ``state``."""
        if self.dense:
            return self._lift(self._exact([t + shift]))
        if self.even:
            state = state[self.mirror.reps]
        return self._lift(expimv(self._operator(), state, shift, self.tol,
                                 self.owner.bounds()))[None]


def evolution_path(owner, psi, times, tol: float) -> EvolutionPath:
    """The path of ``psi`` to the sample ``times`` under the operator of
    ``owner``, ``lattice.HamiltonianTerms`` or ``manybody.ManyBodySector``
    (the methods of ``lattice._Operator``); the lens optimizer's focal
    windows, the breathing runs and the blockade trajectories all run on it.

    - *Gate.* The state runs in the even subspace of the owner's mirror when
      the mirror exists and ``mirror.drift(psi, t_end) <= tol``, t_end =
      max |times|: the state's odd part plus t_end times the operator's
      mirror asymmetry, which bounds to first order how far the even result
      lands from the full one. There one row per orbit carries its
      amplitude, and every sample is lifted back by ``phi[orbit]``.
    - *Rule.* The gated operator, even or full, is decomposed when it has at
      most ``_DECOMPOSE_ROWS`` rows, or at most ``_DENSE_ROWS`` and the
      span's phase half t_end exceeds ``_DENSE_COST`` rows^2; the
      decomposition is cached on the owner, and every sample is exact from
      the start.
    - *Otherwise Chebyshev.* An even real start whose samples are dt, ...,
      n dt is one real window while it fits its budget; anything else
      steps: one step to the first sample, then equal steps.
    """
    times = np.asarray(times, dtype=float)
    psi = np.asarray(psi)
    t_end = float(np.abs(times).max(initial=0.0))
    mirror = owner.mirror
    if mirror is not None and psi.shape != mirror.refl.shape:
        raise ValueError("state length does not match the operator")
    even = mirror is not None and mirror.drift(psi, t_end) <= tol
    rows = mirror.dim if even else psi.size
    dense = rows <= _DECOMPOSE_ROWS
    if not dense and rows <= _DENSE_ROWS:
        lo, hi = owner.bounds()
        dense = 0.5 * (hi - lo) * t_end > _DENSE_COST * rows**2
    return EvolutionPath(owner, psi, times, tol, even, dense)
