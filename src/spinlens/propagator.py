"""Sparse time evolution by Chebyshev expansion of exp(-iHt).

Works on any Hermitian CSR matrix (single excitation or a fixed many-body
sector). The spectrum is enclosed by Gershgorin disks, which never
underestimates the span, so the expansion is convergent by construction; the
cost of the slack over the true spectral width is a few percent more matrix
applications.

One time step is a *step plan* over m independent blocks, each with its own
(h_i, t_i, bounds_i) and all sharing ``tol``. Per block the plan holds the
coefficients of one Chebyshev expansion of the whole step, whatever its
phase half-width x t, and the phase of the spectral centre; blocks of equal
phase share one coefficient set, and the plan's distinct phases one Bessel
table. Long steps are not split: the recurrence's round-off does not grow
with the order (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)), and
one expansion stayed within 3e-9 of a dense eigendecomposition at phases
up to 3e5 and tol 1e-8, from real and complex states alike. Blocks of equal
dimension are stacked into one block-diagonal operator, each block shifted
by its own centre and scaled by its own 1/half-width, and built by array
operations on the whole stack (:func:`_stacked_operator`). The operator is
stored as 2 h~, exactly twice h~, so a term T_k+1 = 2 h~ T_k - T_k-1 is
one matvec and one subtraction in place, and rounds as 2 (h~ T_k) does;
T_1 is 0.5 (2 h~ psi). The stacked
operator is a float64 CSR when every block is real (a real dtype, or a
complex one whose imaginary parts are all zero), else a complex CSR, so no
matvec upcasts it. While the operator and the stacked states are real, as
in a real packet's step, the terms T_k(h~) psi are float64 vectors for the
whole step, and the sum is kept in the cos/sin form of exp(-i z h~) psi
(Tal-Ezer & Kosloff): c_k = 2 (-i)^k J_k is real at even k and imaginary
at odd k, so the even terms times Re c_k go into a float64 real part and
the odd ones times Im c_k into a float64 imaginary part, which become the
complex state at the end. A complex c times a real t rounds to exactly
(Re c t, Im c t), and the zero half of each c_k only adds a signed zero,
so this gives the bits of a complex accumulator. At the first complex
state the stack replaces its operator by a complex copy and sums c_k T_k
in one complex accumulator; a real row sum is the real part of the complex
one, so either path gives the same bits, and the real one costs about
half per matvec and per term. A window has its own real mode (below).
Within a stack the blocks are ordered by coefficient count,
longest first, the coefficients are padded with zeros to the longest, and
term k of the three-term recurrence runs the matvec only on the row prefix
of the blocks still active, through a CSR view on the same arrays. Stacks
are cut so their nonzeros stay under ``_STACK_NNZ`` (2**16, a CSR of about
0.75 MiB real or 1.3 MiB complex; a real stack and its state vectors fit
one 2 MiB L2); a block larger than that is a stack of its own. The padding
bounds what a batch may mix: a stack's coefficients take about (largest
phase x blocks) complex values, and a plan's Bessel table (largest phase x
distinct phases) floats, so one huge phase batched with many short blocks
would allocate far more than its own expansion. No batch here does: an
ensemble's blocks share one duration, and a window's start steps stay
below about 1e3. A real window (below) is one segment however long: its n
samples hold n x dim complex values (16 B each; 2.3 MB for 8 samples of
the 18 010-row nu = 3 even sector) and its coefficient and Bessel tables
about 3 n x (n x phase per sample) floats, so it is taken only while both
fit ``_REAL_WINDOW_BYTES``: a few samples of a large operator, as a
blockade trajectory takes, not hundreds.

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
(Tal-Ezer & Kosloff; Weisse et al., Rev. Mod. Phys. 78, 275 (2006)). A
step of phase z needs about z + 14 terms at z ~ 6, so sampling through one
expansion saves the fixed part of every step. The blocks are stacked by
the same code as a step plan's, largest phase per sample first, with the
operator stored as 2 h~ as a step plan's is. The recurrence runs in a ring of ``_WINDOW_TERMS``
buffered terms, one matvec and one subtraction a term, and each full ring
is added into the samples still expanding by one real matrix product
(coefficient table x buffered terms), skipping the samples whose
expansion has already ended; the centre phase is applied at the end. A
window is cut into segments, each restarting the recurrence from the last
state of the one before. A block's segment holds as many samples as fit,
with the buffered terms, ``_WINDOW_ENTRY_BYTES`` per entry of its operator
(nonzeros plus rows), at most ``_WINDOW_BYTES`` (reached at 2**15 entries;
a full stack of smaller blocks holds 64 B x 2**16 = 4 MiB of segments),
and its last phase stays under ``_WINDOW_PHASE``, which bounds the Bessel
table. Each sample keeps every term with |J_k(z_j)| >= tol/4, as a step
plan does.

A complex window's table holds c_k / (-i)^k, and the buffered terms are
turned by (-i)^k as they are added, so a real table multiplies complex
terms. A window whose blocks' h and start states are all real (the test of
a step plan's stack) runs the same recurrence in float64. For a real
symmetric h~ and a real psi, exp(-i z h~) psi = cos(z h~) psi - i sin(z
h~) psi: the even terms T_k(h~) psi give the real part and the odd ones
the imaginary part (Tal-Ezer & Kosloff). (-i)^k is folded into its table
instead, with two rows per sample, c_k Re (-i)^k (zero at odd k) and c_k
Im (-i)^k (zero at even k), so one product, accumulated in place by BLAS,
adds the even terms into the sample's real part and the odd ones into its
imaginary part; the parts become the complex state at the end. Folding
(-i)^k into a complex table for complex windows too would double their
product's arithmetic (complex x complex) and change their bits. A real
block's window is one segment over all its samples, since a second
segment would restart from a complex state, and is taken only while its
samples and tables fit ``_REAL_WINDOW_ENTRY_BYTES`` per entry of its
operator, at most ``_REAL_WINDOW_BYTES``; a real block over it is sampled
as a complex one. Real and complex blocks never share a window, so each
keeps the bits it gives alone.

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
O(n^3) decomposition, so it pays only on small operators. It takes a
CSR matrix or a dense array: the lens optimizer hands it a centred
design's even operator as a dense ceil(N/2)-row array, its hopping part
folded once per call (``lattice._HoppingFold``). Up to ``_EVR_ROWS`` (400)
rows, every lens operator it decomposes (the full H of at most
``lens._DENSE_DIM`` = 400 sites, or the ceil(N/2)-row even operator of a
centred design), it runs LAPACK's divide and conquer:
``scipy.linalg.lapack.dstevd`` on the diagonal and the lower
subdiagonal when h is tridiagonal, as every nearest-neighbour lens operator
and its even fold are, else ``numpy.linalg.eigh``. On a tridiagonal h
numpy's ``dsyevd`` reduces nothing and runs the same ``dstedc``, so both
give the same energies and vectors, and dstevd takes about half the time.
Above, it keeps h in tridiagonal form: LAPACK's Householder reduction
``dsytrd`` overwrites one Fortran-ordered copy of h with T's diagonals and
the reflectors of Q, h = Q T Q^T (Golub & Van Loan, Matrix Computations,
section 8.3), and ``dstevd`` decomposes T = Z diag(E) Z^T by divide and
conquer (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16, 172 (1995)).
V = Q Z is never formed: the states apply Q^T and Q by their reflectors
(``dormqr``, O(n^2) per state) around the products with Z. It holds 2 n^2
doubles (the reflectors and Z, 16 MB at the many-body dense path's 1000
rows) and 3 n^2 while dstevd runs (24 MB). No product casts Z or V to
complex, which would cost 2 n^2 more.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dormqr, dstevd, dsytrd, dsytrd_lwork

# Nonzeros of one stacked operator. A CSR entry with its column index takes
# 12 B real or 20 B complex, so 2**16 of them are about 0.75 or 1.3 MiB, and a
# real ensemble stack with its state vectors stays inside one 2 MiB L2. In-
# process disorder tasks (displacement / holes2d / holes1d, median of 9-11
# interleaved repeats) took 391 / 214 / 86 ms at 2**15, 354 / 186 / 79 at
# 54 613, 323 / 178 / 83 at 2**16 and 321 / 176 / 80 at 98 304: 2**16 is the
# knee. In one benchmark disorder run each, 2**15, 2**16 and 2**17 raised the
# peak memory over one block at a time by 1.4, 3.2 and 7.0 MiB.
_STACK_NNZ = 2**16

# Window segments (module docstring): bytes of sampled states plus buffered
# terms per entry of a block's operator (its nonzeros plus its rows), capped
# at _WINDOW_BYTES for a block of 2**15 entries or more; the number of
# buffered terms; and the largest phase half * t of a segment's last sample.
# In ten untraced benchmark lens_design runs, 2 MiB and a cap of 100 kept the
# peak memory within 0.83 MiB (median 0.53) of sample-by-sample stepping; in
# shorter runs a cap of 200 took the same time but added about 0.6 MiB more,
# and 4 MiB about 0.8 MiB more.
_WINDOW_ENTRY_BYTES = 64
_WINDOW_BYTES = 2**21
_WINDOW_TERMS = 8
_WINDOW_PHASE = 100.0

# Bytes of a real window's one segment (module docstring) per operator entry,
# and its cap: its samples, 2 n dim floats, and its Bessel and coefficient
# tables, about 3 n^2 floats per unit of phase per sample. 16 MiB is what
# manybody's dense path holds (the reflectors and T's eigenvectors, 2 x
# 1000^2 doubles at _DENSE_ROWS, 3 x 1000^2 while dstevd runs). The 18 010-row
# nu = 3 even sector of the nonlinear scenario at J_z = 20 takes 2.5 MB for
# its 8 samples of 122 rad; it fits up to 41 samples at that phase per sample
# and 54 at 15 rad.
_REAL_WINDOW_ENTRY_BYTES = 8 * _WINDOW_ENTRY_BYTES
_REAL_WINDOW_BYTES = 8 * _WINDOW_BYTES

TOL_RANGE = (1e-14, 1e-6)

# EigenPropagator (module docstring) decomposes up to this many rows by
# divide and conquer (dstevd on a tridiagonal h, numpy.linalg.eigh on any
# other), so every lens operator the optimizer decomposes keeps
# its bits and its speed: the full H of a design the mirror gate refuses,
# at most lens._DENSE_DIM = 400 rows, and the even operator of a centred
# one, ceil(N/2) <= 200 rows. On nearest-neighbour lens operators the MRRR
# driver took 8.5 against 4.7 ms at N = 200 and 54 against 22 ms at 400,
# and dstevd 1.7 and 5.2 ms against 3.4 and 15.8 ms for numpy's eigh
# (mean of 5, one BLAS thread).
# Above it, h is reduced to tridiagonal form in place by dsytrd and T is
# decomposed by dstevd; the states apply Q's reflectors (module docstring).
# On the 930-row nu = 2 blockade operator, numpy's eigh, scipy's
# driver="evr" and "evd" and this path took 219, 236, 158 and 112 ms (best
# of 5, one CPU, one BLAS thread); the decomposition and eight stepped
# states took 155 against 270 ms for "evr" (median of 11 interleaved
# runs). The peak memory of one round of blockade tasks in one process was
# 106.8 MiB, against 99.2-101.4 MiB with "evr": one n^2 dstevd workspace.
_EVR_ROWS = 400

# EigenPropagator's test of symmetry, |h_ij - h_ji| <= this x max |h|: far
# above rounding (the nu = 2 blockade operator differs from its transpose by
# 2e-16 at a largest entry of 6e3) and far below a wrong operator (the
# mirror's unsymmetrized H[reps] @ L has entries off by a factor of 2).
# An exactly symmetric h, as every full lens operator is, passes first on the
# dense copy it decomposes (np.array_equal(a, a.T), about 40 us at N = 200,
# 1-2% of the eigh); measuring every h on the sparse form instead (160-270
# us, 4-6% of the eigh) made lens_design, where decompositions take 60% of
# the time, slower in 8 of 10 benchmark pairs, by 8.8% in the median.
_SYMMETRY_RTOL = 1e-12

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


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions start, ..., start + length - 1 of every range, in order."""
    stops = np.cumsum(lengths)
    return np.arange(stops[-1] if len(stops) else 0) + np.repeat(starts - stops + lengths, lengths)


def _stacked_operator(hs, dim, centers, halves, dtype) -> sp.csr_matrix:
    """2 h~ of every block, h~ = (h - centre) / half, stacked
    block-diagonally as one CSR of ``dtype`` (float only for real blocks).

    Built in one pass over the whole stack: the blocks' canonical CSR
    arrays are concatenated (a lone block keeps its index arrays, which
    are never written, and gets a new data array), each diagonal entry
    less its block's centre, -c inserted in its sorted place where a row has no
    diagonal entry, every entry that is then 0.0 dropped (stored zeros
    included), each entry scaled by its row's 1/half and then doubled.
    These are the float operations and the drops of scipy's canonical
    ``h - diags(c)``, which computes a - c, a - 0 and 0 - c and keeps the
    nonzero results, then ``/ half``, so each block of the stack is bit for
    bit the lone block's. Canonical form (sorted, summed) fixes the order
    of each row's sum whatever the order of h's indices; a block with
    unsorted or duplicate entries is put in it by a sparse sum with an
    empty matrix, which adds duplicates in storage order and drops zero
    sums, as the lone block's shift does, and then sorted. No h is
    modified."""
    blocks = []
    for h in hs:
        if dtype is float and np.iscomplexobj(h.data):
            h = h.real
        if not h.has_canonical_format:
            h = h + sp.csr_matrix(h.shape)
            h.sort_indices()
        blocks.append(h)
    m, n = len(blocks), len(blocks) * dim
    nnz = [b.nnz for b in blocks]
    ends = np.cumsum([0] + nnz)
    if m == 1:
        # a new data array on h's index arrays, which are never written
        (b,) = blocks
        data, indices, indptr = b.data[:b.nnz].astype(dtype), b.indices[:b.nnz], b.indptr
    else:
        idx = np.int32 if int(ends[-1]) + n < 2**31 else np.int64
        data = np.concatenate([b.data[:k] for b, k in zip(blocks, nnz)], dtype=dtype)
        indices = np.concatenate([b.indices[:k] + j * dim
                                  for j, (b, k) in enumerate(zip(blocks, nnz))], dtype=idx)
        indptr = np.concatenate([np.zeros(1, idx)] + [
            b.indptr[1:] + off for b, off in zip(blocks, ends[:-1])], dtype=idx)
    idx = indices.dtype
    c = np.repeat(np.asarray(centers, dtype=float), dim)
    rows = np.repeat(np.arange(n, dtype=idx), np.diff(indptr))
    diag = np.flatnonzero(indices == rows)
    on = indices[diag]
    data[diag] -= c[on]
    if on.size < n:
        missing = c != 0.0
        missing[on] = False
        if missing.any():
            # 0 - c, after the row's entries left of the diagonal
            miss = np.flatnonzero(missing)
            lengths = indptr[miss + 1] - indptr[miss]
            left = np.concatenate([np.zeros(1, idx), np.cumsum(
                indices[_ranges(indptr[miss], lengths)] < np.repeat(miss, lengths), dtype=idx)])
            stops = np.cumsum(lengths)
            at = indptr[miss] + left[stops] - left[stops - lengths] + np.arange(miss.size)
            old = np.ones(data.size + miss.size, bool)
            old[at] = False
            grown = np.empty(old.size, data.dtype), np.empty(old.size, idx)
            grown[0][old], grown[0][at] = data, -c[miss]
            grown[1][old], grown[1][at] = indices, miss
            data, indices = grown
            indptr = indptr + np.cumsum(np.concatenate([np.zeros(1, idx), missing]), dtype=idx)
    kept = data != 0.0
    if not kept.all():
        data, indices = data[kept], indices[kept]
        indptr = np.concatenate([np.zeros(1, idx), np.cumsum(kept, dtype=idx)])[indptr]
    scale = 1.0 / np.asarray(halves)
    data *= scale[0] if m == 1 else np.repeat(scale, np.diff(indptr[::dim]))
    data *= 2.0
    return _csr_view(data, indices, indptr)


class _Stack:
    """Blocks of one dimension, stacked (module docstring).

    ``order`` lists the plan's block indices in stack order, longest
    coefficient set first. The operator is stored as 2 h~, float64 when
    every block is real, until the first complex state, and complex
    otherwise; the stack holds one at a time. Each term is one matvec and
    one subtraction in place, T_k+1 = 2 h~ T_k - T_k-1 over T_k-1. While
    the operator and the state are real, the terms are added into two
    float64 accumulators, the even ones times Re c_k into the real part
    and the odd ones times Im c_k into the imaginary part, which become
    the complex state at the end; otherwise c_k T_k goes into one complex
    accumulator.
    """

    def __init__(self, hs, order, dim, centers, halves, coefs, phases):
        self.order, self.dim = order, dim
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
        self._set_operator(_stacked_operator(hs, dim, centers, halves,
                                             complex if any(map(_imaginary, hs)) else float))

    def _set_operator(self, h: sp.csr_matrix):
        """Make ``h`` the operator 2 h~, with the prefix views of the runs."""
        d = self.dim
        self.h_scaled = h
        self.first = (self.first_active, _row_prefix(h, self.first_active * d))
        self.runs = [(a, _row_prefix(h, a * d), cs) for a, cs in self.run_coefs]

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """exp(-i h t) of every block; ``psi`` is (m, dim) in stack order,
        real or complex. The terms are float64 while the operator and the
        state are real (class and module docstrings)."""
        coef, d = self.coef, self.dim
        if np.iscomplexobj(psi) and not np.iscomplexobj(self.h_scaled.data):
            h = self.h_scaled
            self._set_operator(_csr_view(h.data.astype(complex), h.indices, h.indptr))
        real = not np.iscomplexobj(self.h_scaled.data)
        if real:
            # the even terms' sum of Re c_k T_k, the odd terms' of Im c_k T_k
            acc = np.zeros((2,) + psi.shape)
            sums, tables = acc, (coef.real, coef.imag)
        else:
            acc = np.empty(psi.shape, dtype=complex)
            sums, tables = (acc, acc), (coef, coef)
        np.multiply(tables[0][0], psi, out=sums[0])
        if len(coef) > 1:
            # T_0, as a copy that T_2 overwrites
            t_prev = psi.astype(self.h_scaled.dtype).reshape(-1)
            a, h = self.first
            t_cur = h @ t_prev[:a * d]
            t_cur *= 0.5
            sums[1][:a] += tables[1][1, :a] * t_cur.reshape(a, d)
            p = 0                            # the parity of term k, from k = 2
            for a, h, cs in self.runs:
                n, one = a * d, a == 1
                t_prev, t_cur = t_prev[:n], t_cur[:n]
                accs = [sm[0] if one else sm[:a] for sm in sums]
                run = (cs.real, cs.imag) if real else (cs, cs)
                for j in range(len(cs)):
                    y = h @ t_cur
                    t_prev, t_cur = t_cur, np.subtract(y, t_prev, out=t_prev)
                    accs[p] += np.multiply(run[p][j], t_cur if one else t_cur.reshape(a, d),
                                           out=y if one else y.reshape(a, d))
                    p ^= 1
        if real:
            acc = np.empty(psi.shape, dtype=complex)
            acc.real, acc.imag = sums
        return np.multiply(self.phase, acc, out=acc)


class _StepPlan:
    """The step plan of exp(-i h_i t_i) over independent blocks (see the
    module docstring), applied to one list of states per call, as often as
    wanted. The scaled operators are new arrays, so no ``h_i`` is modified.
    A t = 0 block joins no stack, and applying the plan copies its state.
    """

    def __init__(self, hs: Sequence[sp.csr_matrix], ts: Sequence[float],
                 tol: float, bounds: Sequence):
        _check_tol(tol)
        self.dims = [h.shape[0] for h in hs]
        steps = []
        for i, (h, t, bnd) in enumerate(zip(hs, ts, bounds)):
            if t != 0.0:
                center, half = _enclosure(h, bnd)
                steps.append((i, center, half, half * t, np.exp(-1j * center * t)))
        # the distinct phases share one Bessel table
        zs = list(dict.fromkeys(s[3] for s in steps))
        coef_sets = dict(zip(zs, _chebyshev_coeffs(zs, tol / 4.0))) if zs else {}
        groups: dict = {}
        for i, center, half, z, phase in steps:
            groups.setdefault(hs[i].shape[0], []).append(
                (i, center, half, coef_sets[z], phase))
        self.stacks = []
        for dim, blocks in groups.items():
            blocks.sort(key=lambda b: -len(b[3]))
            for cut in split_stacks(blocks, lambda b: hs[b[0]]):
                order, centers, halves, coefs, phases = zip(*cut)
                self.stacks.append(_Stack([hs[i] for i in order], order,
                                          dim, centers, halves, coefs, phases))

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


def _imaginary(h: sp.csr_matrix) -> bool:
    """Whether ``h`` has an entry with a nonzero imaginary part."""
    return bool(np.iscomplexobj(h.data) and h.data.imag.any())


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
    The recurrence runs on 2 h~ in a ring of buffered terms, float64 in a
    ``real`` window (every h and start state real) and complex otherwise;
    only how the buffered terms are added into the samples differs.
    """

    def __init__(self, hs, order, dim, n_seg, centers, halves, dts, tol, real):
        self.order, self.dim, self.real = order, dim, real
        self.prefixes: dict = {}
        j = np.arange(1, n_seg + 1)
        steps = [half * dt for half, dt in zip(halves, dts)]
        table, counts = _bessel_table(np.concatenate([abs(s) * j for s in steps]),
                                      tol / 4.0)
        # per block: (n_seg, terms) table of c_k / (-i)^k, zero past each
        # sample's count, and each sample's count; a real window's table is
        # (2 n_seg, terms), c_k Re (-i)^k and c_k Im (-i)^k per sample
        self.coef, self.counts = [], []
        for p, step in enumerate(steps):
            cols = slice(p * n_seg, (p + 1) * n_seg)
            cnt = counts[cols]
            c = table[:cnt.max(), cols].T.copy()
            c[np.arange(c.shape[1]) >= cnt[:, None]] = 0.0
            c[:, 1:] *= 2.0
            if step < 0:
                c[:, 1::2] *= -1.0       # J_k(-z) = (-1)^k J_k(z)
            if real:
                minus_i_pow = _MINUS_I_POW[np.arange(c.shape[1]) & 3]
                c = np.stack([c * minus_i_pow.real, c * minus_i_pow.imag], axis=1)
                c = c.reshape(2 * n_seg, -1)
            self.coef.append(c)
            self.counts.append(cnt)
        del table
        self.phase = np.array([np.exp(-1j * c * (dt * j)) for c, dt in zip(centers, dts)])
        m = len(order)
        dtype = float if real else complex
        # 2 h~, exactly twice h~, so a term is one matvec and one subtraction
        # and rounds as 2 (h~ T_k) does
        self.h_scaled = _stacked_operator(hs, dim, centers, halves, dtype)
        # the recurrence runs in this ring of terms, term k in row k mod
        # width, each row the stacked state of the blocks still active
        self.buf = np.empty((_WINDOW_TERMS, m, dim), dtype)
        # one segment's samples, reused by every segment; a real window's
        # as two rows each, its real and imaginary parts
        self.acc = np.empty((m, n_seg, 2, dim)) if real else np.empty((m, n_seg, dim), dtype)

    def _prefix(self, a: int) -> sp.csr_matrix:
        if a not in self.prefixes:
            self.prefixes[a] = _row_prefix(self.h_scaled, a * self.dim)
        return self.prefixes[a]

    def apply(self, psi: np.ndarray, n: int) -> np.ndarray:
        """States at dt, ..., n dt of every block, (m, n, dim), from ``psi``,
        (m, dim) in stack order, float64 in a real window; n is at most the
        segment length. The states are a view on the window's buffer,
        overwritten by the next call."""
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
        accr = acc.view(float)
        t_cur = psi.reshape(-1)
        for k, a in enumerate(active):
            rows, r = a * d, k % width
            row = buf[r, :a].reshape(-1)
            if k == 0:
                row[:] = t_cur
            elif k == 1:
                np.multiply(self._prefix(a) @ t_cur[:rows], 0.5, out=row)
            else:
                np.subtract(self._prefix(a) @ t_cur[:rows], t_prev[:rows], out=row)
            t_prev, t_cur = t_cur, row
            if r == width - 1 or k == n_terms - 1:
                # fold the buffered terms into the samples still expanding
                k0 = k - r
                for p in range(active[k0]):
                    used = min(int(ends[p]), k + 1) - k0
                    if used <= 0:
                        continue
                    lo = firsts[p, k0 // width]
                    terms = buf[:used, p]
                    if self.real:
                        # the rows of samples lo..n += table x terms, in place:
                        # BLAS on the transposes, which are Fortran-ordered
                        parts = acc[p, lo:n].reshape(-1, d)
                        assert parts.flags.c_contiguous   # else dgemm writes a copy
                        dgemm(1.0, terms.T, self.coef[p][2 * lo:2 * n, k0:k0 + used].T,
                              1.0, parts.T, overwrite_c=True)
                    else:
                        # (-i)^k T_k, as real rows: the real table x complex
                        # terms is one real product
                        turned = terms * _MINUS_I_POW[np.arange(k0, k0 + used) & 3, None]
                        accr[p, lo:n] += self.coef[p][lo:n, k0:k0 + used] @ turned.view(float)
        if not self.real:
            acc *= self.phase[:, :n, None]
            return acc
        # sample by sample into the same memory, so a temporary holds one
        states = self.acc.reshape(m, -1, 2 * d).view(complex)[:, :n]
        for j in range(n):
            states[:, j] = (acc[:, j, 0] + 1j * acc[:, j, 1]) * self.phase[:, j, None]
        return states


def _real_window_fits(h: sp.csr_matrix, bounds, dt: float, n_samples: int) -> bool:
    """Whether a real block (h, psi, dt, bounds) fits one real window of
    ``n_samples`` (module docstring): its samples and its Bessel and
    coefficient tables, n (2 dim + 3 n step) floats at the phase
    step = half |dt| of a sample, within ``_REAL_WINDOW_ENTRY_BYTES`` per
    entry of h once shifted, at most ``_REAL_WINDOW_BYTES``."""
    dim = h.shape[0]
    step = abs(_enclosure(h, bounds)[1] * dt)
    return 8 * n_samples * (2 * dim + 3 * n_samples * step) <= _window_bytes(
        h, _REAL_WINDOW_ENTRY_BYTES, _REAL_WINDOW_BYTES)


def _window_bytes(h: sp.csr_matrix, per_entry: int, cap: int) -> int:
    """A window block's byte budget: ``per_entry`` bytes per entry of its
    operator once shifted (nonzeros plus rows), at most ``cap``."""
    return min(per_entry * (h.nnz + h.shape[0]), cap)


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

    Builds the step plan for ``t`` (one Chebyshev expansion of the whole
    step at any phase, its coefficients and scaled operator) and applies it
    once; :func:`trajectory` repeats one step with a single plan.

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
    (one expansion of dt, its coefficients and scaled operator) are built once
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


def _tridiagonal(a: np.ndarray) -> bool:
    """Whether every nonzero of the square array ``a`` lies on its main
    diagonal or the two beside it."""
    return np.count_nonzero(a) == sum(np.count_nonzero(np.diagonal(a, k)) for k in (-1, 0, 1))


class EigenPropagator:
    """exp(-i h t) psi at any times from one dense eigendecomposition of a
    real symmetric ``h``, a CSR matrix or a dense array (module docstring).

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
        if np.iscomplexobj(h):
            raise ValueError("EigenPropagator needs a real symmetric matrix")
        n = h.shape[0]
        order = "F" if n > _EVR_ROWS else "C"
        sparse = sp.issparse(h)
        a = h.toarray(order=order) if sparse else np.array(h, dtype=float, order=order)
        if not np.array_equal(a, a.T):
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


def window_batch(blocks: Iterable[tuple], n_samples: int, tol: float = 1e-10
                 ) -> Iterator[tuple[int, int, np.ndarray]]:
    """Sample each block (h, psi, dt, bounds) at dt, 2 dt, ..., n_samples dt.

    Yields (i, j, states), segment by segment: block i (its position in
    ``blocks``) at dt * j, ..., dt * (j + len(states) - 1), one state per
    row; every block's segments come in order of j. ``states`` is a view
    that the next segment overwrites: copy what is kept. Each segment is
    one Chebyshev recurrence from the last state of the one before (module
    docstring), and every sample keeps the terms above tol/4, so it stays
    within about 10 tol of exact per segment it depends on. A block whose
    h and psi are both real is one segment of all n_samples, from one
    float64 recurrence, while its states and tables fit its real byte
    budget (``_real_window_fits``); over it, the block is sampled as a
    complex one. Each block's states are bit for bit what it gives alone.
    The blocks are drawn lazily and sampled about one stack at a time, so
    memory holds about one stacked operator and its segment.

    A sample's phase half * |dt| must be positive; it has no upper bound,
    and a complex block's sample step past ``_WINDOW_PHASE`` is a segment
    of its own, one expansion as a step plan's.
    """
    _check_tol(tol)
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    for cut in split_stacks(enumerate(blocks), lambda ib: ib[1][0]):
        groups: dict = {}
        for i, (h, psi, dt, bnd) in cut:
            dim = h.shape[0]
            phi = _state(psi)
            if phi.shape != (dim,):
                raise ValueError("state length does not match Hamiltonian")
            bnd = spectral_bounds(h) if bnd is None else bnd
            center, half = _enclosure(h, bnd)
            step = abs(half * dt)
            if not step > 0.0:
                raise ValueError(f"a sample step of phase {step:.3g} is not positive")
            # a real block over its budget is sampled as a complex one
            real = (phi.dtype == float and not _imaginary(h)
                    and _real_window_fits(h, bnd, dt, n_samples))
            if real:
                psi, n_seg = phi, n_samples
            else:
                # samples and buffered terms within the block's byte budget,
                # the segment's last phase within the phase cap
                psi = np.asarray(psi, dtype=complex)
                budget = _window_bytes(h, _WINDOW_ENTRY_BYTES, _WINDOW_BYTES)
                n_seg = min(n_samples,
                            max(1, int(budget / (16 * dim)) - _WINDOW_TERMS),
                            max(1, int(_WINDOW_PHASE / step)))
            groups.setdefault((dim, n_seg, real), []).append((i, h, psi, dt, center, half))
        del cut
        for (dim, n_seg, real), members in groups.items():
            members.sort(key=lambda b: -abs(b[5] * b[3]))
            for stack in split_stacks(members, lambda b: b[1]):
                order, hs, psis, dts, centers, halves = zip(*stack)
                window = _Window(hs, order, dim, n_seg, centers, halves, dts, tol, real)
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
