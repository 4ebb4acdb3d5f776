import os

# One BLAS thread, set before numpy loads BLAS: the suite's small dense eigh
# calls slow down several times over when a second process shares the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest
import scipy.sparse as sp

ACCEPTANCE_LINES = []


def record_acceptance(number, passed, detail):
    """Collect one acceptance verdict; printed as a block after the test run
    so the lines survive pytest's output capture."""
    ACCEPTANCE_LINES.append(
        "criterion %02d %s: %s" % (number, "PASS" if passed else "FAIL", detail)
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


def dense_evolution(matrix, psi, t):
    """Reference propagator: dense eigendecomposition, exact to rounding at
    any evolution time (unlike expm, whose squaring error grows with |t|)."""
    h = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix)
    w, v = np.linalg.eigh(h)
    psi = np.asarray(psi, dtype=complex)
    return (v * np.exp(-1j * t * w)) @ (v.conj().T @ psi)


def dst_evolution(psi, extents, times, hopping=1.0):
    """exp(-i H t) psi for each t of ``times``, one state per row, where H =
    -J is the nearest-neighbour hopping of a hole-free chain or rectangular
    table of ``extents`` with no potential. The orthonormal DST-I along each
    axis diagonalises it, E = -2 J sum_d cos(pi k_d / (N_d + 1)) (G. Strang,
    SIAM Rev. 41, 135 (1999)), so this is a closed form in O(N log N) that
    uses no Chebyshev term, Bessel table or LAPACK call."""
    from scipy.fft import dstn

    extents = tuple(extents)
    ks = np.meshgrid(*[np.pi * np.arange(1, n + 1) / (n + 1) for n in extents],
                     indexing="ij")
    energies = -2.0 * hopping * sum(np.cos(k) for k in ks)
    coef = dstn(np.asarray(psi, dtype=complex).reshape(extents), type=1, norm="ortho")
    return np.array([dstn(np.exp(-1j * energies * t) * coef, type=1, norm="ortho").ravel()
                     for t in times])


def random_hermitian(n, rng, density=0.3, diag_scale=1.0):
    """Random sparse Hermitian matrix with a controlled fill."""
    mask = rng.random((n, n)) < density
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = np.where(mask, a, 0.0)
    h = (a + a.conj().T) / 2.0
    h[np.diag_indices(n)] = diag_scale * rng.normal(size=n)
    return sp.csr_matrix(h)


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)
