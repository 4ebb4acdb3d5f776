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
