"""Site tables and coupling construction for 1D/2D/3D spin lattices.

All lengths are measured in units of the lattice spacing ``a``, so undisplaced
site positions equal their integer label coordinates. Energies are in units of
the hopping scale of whatever coupling model is used.

The single-excitation Hamiltonian assembled from a :class:`HamiltonianTerms`
acts as ``(H psi)_n = eps_n psi_n - sum_m J_nm psi_m``: ``hopping`` stores the
positive-for-physical matrix J_nm, ``diagonal`` stores eps_n. The on-site
energy of an excited site is the bare potential value (projector convention),
which keeps every continuum closed form of the lens module prefactor-free.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

if TYPE_CHECKING:
    from .propagator import EigenPropagator


@dataclass
class SiteTable:
    """Geometry of a (possibly damaged) hypercubic lattice patch.

    Attributes
    ----------
    extents : tuple of int
        Sites per axis, e.g. ``(800,)`` or ``(50, 50)``.
    labels : (N, dim) int array
        Integer coordinates, row-major enumeration.
    positions : (N, dim) float array
        Actual site coordinates in lattice spacings (labels plus any
        displacement).
    active : (N,) bool array
        False at punched holes. Inactive sites keep their row in every array
        and get structurally zero Hamiltonian entries.
    """

    extents: tuple[int, ...]
    labels: np.ndarray
    positions: np.ndarray
    active: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def n_sites(self) -> int:
        return self.labels.shape[0]

    @property
    def n_active(self) -> int:
        return int(self.active.sum())

    def index_of(self, label) -> int:
        """Row index of an integer label tuple."""
        lab = np.atleast_1d(np.asarray(label, dtype=int))
        if lab.shape != (self.dim,):
            raise ValueError(f"label {label!r} has wrong dimension for {self.extents}")
        if np.any(lab < 0) or np.any(lab >= np.asarray(self.extents)):
            raise ValueError(f"label {label!r} outside extents {self.extents}")
        strides = np.cumprod((1,) + self.extents[:0:-1])[::-1]
        return int((lab * strides).sum())

    def center(self) -> np.ndarray:
        """Geometric center in position units, (L-1)/2 per axis."""
        return (np.asarray(self.extents, dtype=float) - 1.0) / 2.0


def build_lattice(extents) -> SiteTable:
    """Fresh fully-active lattice with integer positions.

    ``extents`` is an int (1D) or a tuple of 1-3 ints.
    """
    if np.isscalar(extents):
        extents = (int(extents),)
    extents = tuple(int(e) for e in extents)
    if not 1 <= len(extents) <= 3:
        raise ValueError("only 1D, 2D and 3D lattices are supported")
    if any(e < 1 for e in extents):
        raise ValueError(f"extents must be positive, got {extents}")
    axes = [np.arange(e) for e in extents]
    grids = np.meshgrid(*axes, indexing="ij")
    labels = np.stack([g.ravel() for g in grids], axis=1).astype(int)
    return SiteTable(
        extents=extents,
        labels=labels,
        positions=labels.astype(float),
        active=np.ones(labels.shape[0], dtype=bool),
    )


def punch_holes(table: SiteTable, holes) -> SiteTable:
    """Return a copy with the listed label tuples marked inactive.

    Raises on labels outside the lattice, on duplicates, and on sites that are
    already inactive, so a hole list is always exactly as long as the number of
    sites it removes.
    """
    holes = np.asarray(list(holes), dtype=int)
    if holes.size == 0:
        return SiteTable(table.extents, table.labels,
                         table.positions.copy(), table.active.copy())
    idx = [table.index_of(h) for h in np.atleast_2d(holes)]
    if len(set(idx)) != len(idx):
        raise ValueError("duplicate hole labels")
    active = table.active.copy()
    for i in idx:
        if not active[i]:
            raise ValueError(f"site {tuple(table.labels[i])} is already inactive")
        active[i] = False
    return SiteTable(table.extents, table.labels,
                     table.positions.copy(), active)


def displace_sites(table: SiteTable, displacements) -> SiteTable:
    """Return a copy with positions shifted by ``displacements`` (units of a).

    ``displacements`` must have shape (N, dim); rows of inactive sites are
    ignored but must still be present.
    """
    d = np.asarray(displacements, dtype=float)
    if d.shape != table.positions.shape:
        raise ValueError(f"displacements shape {d.shape} != {table.positions.shape}")
    return SiteTable(table.extents, table.labels,
                     table.positions + d, table.active)


# --- coupling models -------------------------------------------------------


@dataclass(frozen=True)
class NearestNeighbor:
    """Uniform hopping J between label-adjacent active sites."""

    strength: float = 1.0

    def __post_init__(self):
        if self.strength <= 0:
            raise ValueError("hopping strength must be positive")

    def reference_hopping(self) -> float:
        return self.strength


@dataclass(frozen=True)
class PowerLaw:
    """Hopping J0 / r^alpha between active pairs within ``cutoff_range``.

    The sparsity pattern is fixed by undisplaced label distances (<= cutoff),
    while the amplitude uses the actual positions, so displacement disorder
    perturbs values but never the structure.
    """

    strength: float = 1.0
    alpha: float = 6.0
    cutoff_range: float = 20.0

    def __post_init__(self):
        if self.strength <= 0 or self.alpha <= 0 or self.cutoff_range <= 0:
            raise ValueError("strength, alpha and cutoff_range must be positive")

    def reference_hopping(self) -> float:
        return self.strength

    def amplitude(self, positions: np.ndarray, i: np.ndarray,
                  j: np.ndarray) -> np.ndarray:
        """Hopping strength / r^alpha of the pairs (i, j), i < j, with r the
        distance of their ``positions``: the one statement of the rule."""
        r = np.linalg.norm(positions[j] - positions[i], axis=1)
        return self.strength / r**self.alpha


CouplingModel = NearestNeighbor | PowerLaw


@dataclass
class HamiltonianTerms:
    """Single-excitation Hamiltonian pieces H = diag(eps) - J.

    ``hopping`` is symmetric CSR with zero rows/columns at inactive sites;
    ``diagonal`` holds eps_n (zero at inactive sites); ``active`` is the site
    table's mask. Spectral bounds and the dense eigendecomposition for the
    propagator are cached after first use.
    """

    hopping: sp.csr_matrix
    diagonal: np.ndarray
    active: np.ndarray
    _bounds: tuple[float, float] | None = field(default=None, repr=False)
    _matrix: sp.csr_matrix | None = field(default=None, repr=False)
    _eigen: EigenPropagator | None = field(default=None, repr=False)

    @property
    def n_sites(self) -> int:
        return self.diagonal.shape[0]

    def matrix(self) -> sp.csr_matrix:
        """Assembled sparse Hamiltonian diag(eps) - J (cached)."""
        if self._matrix is None:
            h = (sp.diags(self.diagonal) - self.hopping).tocsr()
            h.sum_duplicates()
            self._matrix = h
        return self._matrix

    def with_diagonal(self, extra) -> "HamiltonianTerms":
        """New terms with ``extra`` added to the on-site energies of the
        active sites; the diagonal stays zero at inactive ones."""
        extra = np.asarray(extra, dtype=float)
        if extra.shape != self.diagonal.shape:
            raise ValueError("diagonal length mismatch")
        diagonal = self.diagonal + extra
        diagonal[~self.active] = 0.0
        return HamiltonianTerms(self.hopping, diagonal, self.active)

    def bounds(self) -> tuple[float, float]:
        """Gershgorin enclosure of the spectrum (cached)."""
        if self._bounds is None:
            from .propagator import spectral_bounds

            self._bounds = spectral_bounds(self.matrix())
        return self._bounds

    def eigen(self) -> EigenPropagator:
        """Dense eigendecomposition of the assembled H as a
        :class:`spinlens.propagator.EigenPropagator` (cached): n^2 floats,
        so for small lattices only."""
        if self._eigen is None:
            from .propagator import EigenPropagator

            self._eigen = EigenPropagator(self.matrix())
        return self._eigen


def _neighbor_offsets(dim: int, cutoff: float) -> np.ndarray:
    """Half-space integer offsets with 0 < |offset| <= cutoff."""
    rng = np.arange(-int(np.floor(cutoff)), int(np.floor(cutoff)) + 1)
    offs = []
    for off in itertools.product(rng, repeat=dim):
        v = np.array(off)
        r2 = float(v @ v)
        if r2 == 0.0 or r2 > cutoff * cutoff + 1e-12:
            continue
        # keep one representative of each +/- pair
        nz = np.nonzero(v)[0][0]
        if v[nz] > 0:
            offs.append(v)
    return np.array(offs, dtype=int)


def build_couplings(table: SiteTable, model: CouplingModel,
                    lens_diagonal=None) -> HamiltonianTerms:
    """Assemble the hopping matrix and on-site energies for a coupling model.

    ``lens_diagonal`` (length N, energy units) sets the on-site energies, which
    are zeroed at holes; omitting it means zero on-site energy.
    """
    n = table.n_sites
    extents = np.asarray(table.extents)
    strides = np.cumprod(np.concatenate(([1], extents[:0:-1])))[::-1]

    if isinstance(model, NearestNeighbor):
        offsets = _neighbor_offsets(table.dim, 1.0)
    elif isinstance(model, PowerLaw):
        offsets = _neighbor_offsets(table.dim, model.cutoff_range)
    else:
        raise TypeError(f"unknown coupling model {model!r}")

    rows, cols, vals = [], [], []
    labels = table.labels
    for off in offsets:
        ok = np.all((labels + off >= 0) & (labels + off < extents), axis=1)
        i = np.nonzero(ok)[0]
        j = i + int((off * strides).sum())
        both = table.active[i] & table.active[j]
        i, j = i[both], j[both]
        if i.size == 0:
            continue
        if isinstance(model, NearestNeighbor):
            amp = np.full(i.size, model.strength)
        else:
            amp = model.amplitude(table.positions, i, j)
        rows.extend([i, j])
        cols.extend([j, i])
        vals.extend([amp, amp])

    if rows:
        hop = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        )
        hop.sum_duplicates()
    else:
        hop = sp.csr_matrix((n, n))
    diagonal = np.zeros(n)
    if lens_diagonal is not None:
        extra = np.asarray(lens_diagonal, dtype=float)
        if extra.shape != (n,):
            raise ValueError(f"lens_diagonal must have length {n}")
        diagonal = diagonal + extra
    diagonal[~table.active] = 0.0
    return HamiltonianTerms(hop, diagonal, table.active)
