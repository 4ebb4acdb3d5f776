"""A fixed reference kernel that measures how fast the machine runs right now.

The reference machine is a shared VM whose speed swings by up to half over
minutes (see NOTES.md). The benchmark times this kernel between tasks and
divides each task's time by the machine's speed at that moment, so the
end-to-end times read as seconds at the reference speed.

The kernel uses numpy and scipy only, never spinlens, so no change to the
program can move it. It does what the program's hot path does: a Chebyshev
three-term recurrence of complex sparse matrix-vector products with a few
small vector operations and one Python-level step per term.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

DIM = 2000          # about the nu = 2 blockade sector and the lens chains
NNZ_PER_ROW = 6
STEPS = 400         # 25-45 ms on the reference machine

# A fixed figure at the slow end of the kernel's times on the reference
# machine (NOTES.md); a task's time is scaled by REFERENCE_S / (the kernel's
# time around the task). Changing it rescales every end-to-end time.
REFERENCE_S = 0.045


def speeds(samples: list) -> list:
    """Machine speed, as a share of the reference, during each timed interval.

    ``samples[i]`` and ``samples[i + 1]`` were taken just before and just
    after interval i. The speed is taken from the median of the two samples
    on either side: one short sample is itself noisy, and the machine's
    speed drifts over minutes, not within a few seconds.
    """
    return [REFERENCE_S / statistics.median(samples[max(0, i - 1): i + 3])
            for i in range(len(samples) - 1)]


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        rows = np.repeat(np.arange(DIM), NNZ_PER_ROW)
        cols = rng.integers(0, DIM, size=rows.size)
        a = sp.csr_matrix((rng.standard_normal(rows.size), (rows, cols)), shape=(DIM, DIM))
        a = a + a.T
        # spectral norm <= max absolute row sum, so T_k(a) v stays bounded
        self.a = (a / abs(a).sum(axis=1).max()).tocsr()
        v = rng.standard_normal(DIM) + 1j * rng.standard_normal(DIM)
        self.v = v / np.linalg.norm(v)
        self.coef = np.cos(np.arange(STEPS))
        self.checksum = self._kernel()
        self.samples: list = []

    def _kernel(self) -> complex:
        x0, x1 = self.v, self.a @ self.v
        acc = x0 + x1
        for c in self.coef[2:]:
            x0, x1 = x1, 2.0 * (self.a @ x1) - x0
            acc += c * x1
        return complex(np.vdot(self.v, acc))

    def sample(self) -> float:
        """Time one kernel run, in seconds, and keep it in ``samples``."""
        t0 = time.perf_counter()
        checksum = self._kernel()
        elapsed = time.perf_counter() - t0
        if abs(checksum - self.checksum) > 1e-9 * abs(self.checksum):
            raise RuntimeError("calibration kernel gave another result")
        self.samples.append(elapsed)
        return elapsed
