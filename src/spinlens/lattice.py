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
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from .propagator import _ranges

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
        if not 0 < self.strength < np.inf:
            raise ValueError("hopping strength must be positive and finite")

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
        if not all(0 < x < np.inf for x in (self.strength, self.alpha, self.cutoff_range)):
            raise ValueError("strength, alpha and cutoff_range must be positive and finite")

    def reference_hopping(self) -> float:
        return self.strength

    def amplitude(self, positions: np.ndarray, i: np.ndarray,
                  j: np.ndarray) -> np.ndarray:
        """Hopping strength / r^alpha of the pairs (i, j), i < j, with r the
        distance of their ``positions`` (:meth:`coupling`). ``positions``
        is (N, dim), or a stack of tables (..., N, dim) that gives a stack
        of amplitudes, each bit for bit its table's."""
        return self.coupling(positions[..., j, :] - positions[..., i, :])

    def coupling(self, d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """strength / r^alpha of the separations ``d`` (..., dim), r their
        ``numpy.linalg.norm``, the root of the summed squares: the one
        statement of the rule. Every step is taken in place: ``d`` is
        overwritten, and the result is written to ``out`` when given."""
        d *= d
        r = np.add.reduce(d, axis=-1, out=out)
        np.sqrt(r, out=r)
        r **= self.alpha
        return np.divide(self.strength, r, out=r)


CouplingModel = NearestNeighbor | PowerLaw


@dataclass
class _Mirror:
    """The mirror of an operator's rows, ``refl`` (the row of each row's
    image), in the form its even subspace takes: one place for the
    single-excitation lens operators and the blockade sectors, whose
    nu = 1 case is a lens operator.

    One row per orbit, fixed points included, carries the amplitude of its
    orbit: ``reps`` are the rows with row <= refl, ``orbit`` is the position
    in ``reps`` of each row's orbit, and ``weights`` the square root of each
    orbit's size (1 or sqrt 2). Projecting is ``psi[reps]`` and lifting
    ``phi[orbit]``. ``asymmetry`` is the max row sum of |H - H[refl][:, refl]|
    on the CSR H (:meth:`skew`).
    """

    refl: np.ndarray
    reps: np.ndarray
    orbit: np.ndarray
    weights: np.ndarray
    asymmetry: float

    @staticmethod
    def skew(h, refl: np.ndarray) -> float:
        """The max row sum of |h - h[refl][:, refl]|, of a CSR ``h`` (or a
        dense array, as the tests' oracles pass)."""
        return float(abs(h - h[refl][:, refl]).sum(axis=1).max())

    @classmethod
    def of(cls, h, refl: np.ndarray) -> "_Mirror":
        """The mirror ``refl`` of ``h``, its asymmetry measured (:meth:`skew`)."""
        return cls.orbits(refl, cls.skew(h, refl))

    @classmethod
    def orbits(cls, refl: np.ndarray, asymmetry: float) -> "_Mirror":
        """The mirror ``refl`` of an operator whose ``asymmetry`` is known."""
        rows = np.arange(refl.size)
        lead = rows <= refl
        reps = np.nonzero(lead)[0]
        # the position of rep r in reps is the number of reps up to r, less 1
        return cls(refl=refl, reps=reps,
                   orbit=(np.cumsum(lead) - 1)[np.minimum(rows, refl)],
                   weights=np.where(refl[reps] == reps, 1.0, np.sqrt(2.0)),
                   asymmetry=asymmetry)

    @property
    def dim(self) -> int:
        return self.reps.size

    def drift(self, psi: np.ndarray, t: float) -> float:
        """The gate ||psi - psi[refl]||_2 + |t| ``asymmetry``: to first
        order, how far evolving ``psi`` for |t| in the even subspace can
        land from evolving it with H."""
        return float(np.linalg.norm(psi - psi[self.refl])) + abs(t) * self.asymmetry

    def orbit_sums(self, a: np.ndarray) -> np.ndarray:
        """M = H[reps] @ L of the dense H ``a`` (L[s, orbit(s)] = 1), the
        even operator on orbit amplitudes: a pair orbit's entry sums the
        rep's and its image's columns; a fixed point's column, summed with
        itself, is halved back exactly, so every entry rounds as the sparse
        product does."""
        reps = self.reps
        rows = a.take(reps, axis=0)
        m = rows.take(reps, axis=1) + rows.take(self.refl[reps], axis=1)
        m[:, self.refl[reps] == reps] *= 0.5
        return m

    def fold(self, a: np.ndarray) -> np.ndarray:
        """W M W^-1 of the dense H ``a`` as a dense array, with M its
        :meth:`orbit_sums` and W = diag(``weights``): the even operator in
        the orthonormal basis of normalised orbits, symmetric within
        ``asymmetry``."""
        w = self.weights
        return (w[:, None] * self.orbit_sums(a)) * (1.0 / w)


class _Operator:
    """What ``propagator.EvolutionPath`` asks of the owner of an operator
    H: ``csr()``, the cached ``bounds()``, the cached ``mirror`` of its rows
    (a ``_Mirror``, or None when the mirror leaves the rows), the even
    operator M = H[reps] @ L on orbit amplitudes (``even_matrix``), and the
    cached decompositions of H and of W M W^-1 (``eigen``).
    ``HamiltonianTerms`` and ``manybody.ManyBodySector`` are its two kinds;
    each gives ``csr``, ``bounds`` and ``mirror``.
    """

    @cached_property
    def even_matrix(self) -> sp.csr_matrix:
        """M = H[reps] @ L (L[s, orbit(s)] = 1) as canonical CSR, read off
        the canonical CSR H: each entry sums the entries of a rep's row in
        the columns of one orbit, at most two, so in any order, and a sum of
        0.0 is left out, as the sparse product leaves it out. Not
        symmetric, since a pair orbit's entry sums two of H's."""
        m, h = self.mirror, self.csr()
        lengths = np.diff(h.indptr)[m.reps]
        at = _ranges(h.indptr[m.reps], lengths)
        out = sp.csr_matrix((m.dim, m.dim), dtype=h.dtype)
        out.data, out.indices = h.data[at], m.orbit.astype(h.indices.dtype)[h.indices[at]]
        out.indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(h.indptr.dtype)
        # each row sorted, an orbit's two entries added, zero sums dropped
        out.sum_duplicates()
        out.eliminate_zeros()
        return out

    def _even_operator(self):
        """W M W^-1 with W = diag(``mirror.weights``): the even operator in
        the orthonormal basis of normalised orbits, symmetric within the
        mirror's asymmetry."""
        w = self.mirror.weights
        return (sp.diags(w) @ self.even_matrix @ sp.diags(1.0 / w)).tocsr()

    @cached_property
    def _eigens(self) -> dict:
        return {}

    def eigen(self, even: bool = False) -> EigenPropagator:
        """The dense eigendecomposition of H, or with ``even`` of W M W^-1
        (cached): about 2 rows^2 floats, so for small operators only."""
        if even not in self._eigens:
            from .propagator import EigenPropagator

            if even and self.mirror is None:
                raise ValueError("the operator has no mirror reduction")
            self._eigens[even] = EigenPropagator(self._even_operator() if even else self.csr())
        return self._eigens[even]


class _HoppingFold:
    """The part of the lens operators' mirror and even fold that every
    design on one hopping matrix J shares, computed on first use. When J
    has an empty diagonal and -J is exactly mirror-symmetric under
    n -> N-1-n (measured on the CSR), ``mirror`` is that mirror with
    asymmetry 0, and ``even`` is W M W^-1 of the dense -J + 0.0
    (``_Mirror.fold``) with the diagonal of its M before the weights scale
    it. The ``+ 0.0`` makes every empty entry +0.0, as in H's ``toarray``.

    A ``HamiltonianTerms`` makes one and hands it to each ``with_diagonal``
    child, so it lives as long as the last of them and no longer.
    """

    def __init__(self, hopping: sp.csr_matrix):
        self.hopping = hopping

    @cached_property
    def mirror(self) -> _Mirror | None:
        j = self.hopping
        refl = np.arange(j.shape[0] - 1, -1, -1)
        if j.diagonal().any() or _Mirror.skew(j, refl) != 0.0:
            return None
        return _Mirror.orbits(refl, 0.0)

    @cached_property
    def even(self) -> tuple[np.ndarray, np.ndarray]:
        a = -self.hopping.toarray() + 0.0
        return self.mirror.fold(a), self.mirror.orbit_sums(a).diagonal().copy()


@dataclass
class HamiltonianTerms(_Operator):
    """Single-excitation Hamiltonian pieces H = diag(eps) - J.

    ``hopping`` is symmetric CSR with zero rows/columns at inactive sites;
    ``diagonal`` holds eps_n (zero at inactive sites); ``active`` is the site
    table's mask. The assembled H, its spectral bounds, its mirror
    n -> N-1-n of the flat site index (chain reversal, point inversion of a
    2D or 3D table) and the decompositions are cached after first use
    (``_Operator``); the hopping's even fold (``_HoppingFold``) is made
    once and shared with every ``with_diagonal`` child.
    """

    hopping: sp.csr_matrix
    diagonal: np.ndarray
    active: np.ndarray
    _hopping_fold: _HoppingFold | None = field(default=None, repr=False)
    _bounds: tuple[float, float] | None = field(default=None, repr=False)
    _matrix: sp.csr_matrix | None = field(default=None, repr=False)

    def __post_init__(self):
        if self._hopping_fold is None:
            self._hopping_fold = _HoppingFold(self.hopping)

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
        active sites; the diagonal stays zero at inactive ones. They share
        this one's hopping and its even fold."""
        extra = np.asarray(extra, dtype=float)
        if extra.shape != self.diagonal.shape:
            raise ValueError("diagonal length mismatch")
        diagonal = self.diagonal + extra
        diagonal[~self.active] = 0.0
        return HamiltonianTerms(self.hopping, diagonal, self.active,
                                _hopping_fold=self._hopping_fold)

    def bounds(self) -> tuple[float, float]:
        """Gershgorin enclosure of the spectrum (cached)."""
        if self._bounds is None:
            from .propagator import spectral_bounds

            self._bounds = spectral_bounds(self.matrix())
        return self._bounds

    def csr(self) -> sp.csr_matrix:
        return self.matrix()

    @cached_property
    def mirror(self) -> _Mirror:
        """The mirror n -> N-1-n with the asymmetry of H. When the hopping
        has a shared mirror (``_HoppingFold``), H - H[refl][:, refl] is
        diagonal, and its max row sum, the float ``_Mirror.skew`` gives on
        the CSR, is max |eps - eps[refl]|: read off the diagonal without
        assembling H."""
        base = self._hopping_fold.mirror
        if base is None:
            return _Mirror.of(self.matrix(), np.arange(self.n_sites - 1, -1, -1))
        eps = self.diagonal
        return replace(base, asymmetry=float(np.abs(eps - eps[base.refl]).max()))

    def _even_operator(self) -> np.ndarray:
        """W M W^-1 as a dense array of ceil(n/2) rows. With a shared
        mirror it is a copy of the hopping's fold with its diagonal set to
        (w (eps[reps] + f)) (1/w), f the diagonal of -J's M: J has no
        diagonal, so every other entry of M is -J's, and this is bit for bit
        ``_Mirror.fold`` of the dense H, fixed points included. Otherwise
        the dense H is folded."""
        m, fold = self.mirror, self._hopping_fold
        if fold.mirror is None:
            return m.fold(self.matrix().toarray())
        a, f = fold.even
        w = m.weights
        a = a.copy()
        np.fill_diagonal(a, (w * (self.diagonal[m.reps] + f)) * (1.0 / w))
        return a


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
