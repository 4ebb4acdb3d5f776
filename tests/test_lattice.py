import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlens.lattice import (HamiltonianTerms, NearestNeighbor, PowerLaw, _Mirror,
                              build_couplings, build_lattice, displace_sites, punch_holes)
from spinlens.lens import ThickPolynomial, clipped_thick_terms


class TestBuildLattice:
    def test_chain_positions(self):
        t = build_lattice((3,))
        assert t.dim == 1
        assert np.array_equal(t.positions[:, 0], [0.0, 1.0, 2.0])
        assert t.active.all()

    def test_square_counts(self):
        t = build_lattice((50, 50))
        assert t.n_sites == 2500
        assert t.dim == 2

    def test_chain_800(self):
        assert build_lattice((800,)).n_sites == 800

    def test_row_major_labels(self):
        t = build_lattice((2, 3))
        assert [tuple(l) for l in t.labels] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_index_of_roundtrip(self):
        t = build_lattice((4, 5, 3))
        for n in [0, 17, t.n_sites - 1]:
            assert t.index_of(t.labels[n]) == n

    def test_center(self):
        assert np.allclose(build_lattice((5,)).center(), [2.0])
        assert np.allclose(build_lattice((4, 6)).center(), [1.5, 2.5])

    def test_zero_extent_rejected(self):
        with pytest.raises(ValueError):
            build_lattice((0,))
        with pytest.raises(ValueError):
            build_lattice((5, 0))

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            build_lattice((2, 2, 2, 2))


class TestPunchHoles:
    def test_empty_set_identity(self):
        t = build_lattice((10,))
        t2 = punch_holes(t, [])
        assert t2.active.all()
        assert np.array_equal(t2.positions, t.positions)

    def test_one_hole_in_70(self):
        t = punch_holes(build_lattice((70,)), [(12,)])
        assert t.n_active == 69
        assert not t.active[12]

    def test_ten_holes_in_70x70(self):
        t = build_lattice((70, 70))
        holes = [(i, 2 * i + 1) for i in range(10)]
        assert punch_holes(t, holes).n_active == 4890

    def test_positions_retained(self):
        t = build_lattice((5,))
        t2 = punch_holes(t, [(3,)])
        assert np.array_equal(t2.positions, t.positions)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            punch_holes(build_lattice((5,)), [(9,)])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            punch_holes(build_lattice((5,)), [(2,), (2,)])

    def test_already_inactive_rejected(self):
        t = punch_holes(build_lattice((5,)), [(2,)])
        with pytest.raises(ValueError):
            punch_holes(t, [(2,)])


class TestDisplaceSites:
    def test_zero_identity(self):
        t = build_lattice((6,))
        t2 = displace_sites(t, np.zeros((6, 1)))
        assert np.array_equal(t2.positions, t.positions)

    def test_single_shift_changes_gap(self):
        t = build_lattice((3,))
        d = np.zeros((3, 1))
        d[0, 0] = 0.1
        t2 = displace_sites(t, d)
        assert np.isclose(abs(t2.positions[1, 0] - t2.positions[0, 0]), 0.9)

    def test_labels_and_activity_unchanged(self):
        t = punch_holes(build_lattice((6,)), [(4,)])
        t2 = displace_sites(t, np.full((6, 1), 0.2))
        assert np.array_equal(t2.labels, t.labels)
        assert np.array_equal(t2.active, t.active)

    def test_seeded_draws_reproducible(self):
        t = build_lattice((70,))
        d1 = np.random.Generator(np.random.Philox(key=[7, 0])).normal(
            0.0, 0.05, (70, 1))
        d2 = np.random.Generator(np.random.Philox(key=[7, 0])).normal(
            0.0, 0.05, (70, 1))
        assert np.array_equal(displace_sites(t, d1).positions,
                              displace_sites(t, d2).positions)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            displace_sites(build_lattice((6,)), np.zeros((5, 1)))


class TestBuildCouplings:
    def test_nn_chain_pairs(self):
        t = build_lattice((3,))
        h = build_couplings(t, NearestNeighbor(1.0)).hopping.toarray()
        expect = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert np.allclose(h, expect)

    def test_powerlaw_ratio(self):
        t = build_lattice((5,))
        h = build_couplings(t, PowerLaw(1.0, 6.0)).hopping.toarray()
        assert np.isclose(h[0, 2] / h[0, 1], 1.0 / 2**6)
        assert np.isclose(h[0, 1], 1.0)

    def test_powerlaw_cutoff(self):
        t = build_lattice((30,))
        h = build_couplings(t, PowerLaw(1.0, 2.0, cutoff_range=4.0)).hopping
        assert h[0, 4] != 0.0
        assert h[0, 5] == 0.0

    def test_powerlaw_large_alpha_is_nn(self):
        t = build_lattice((12,))
        h = build_couplings(t, PowerLaw(1.0, 40.0)).hopping.toarray()
        beyond = h.copy()
        for i in range(11):
            beyond[i, i + 1] = beyond[i + 1, i] = 0.0
        assert np.abs(beyond).max() < 1e-12

    def test_translation_invariance_interior(self):
        t = build_lattice((60,))
        h = build_couplings(t, PowerLaw(1.0, 3.0)).hopping.toarray()
        for m in (1, 2, 7):
            vals = [h[n, n + m] for n in range(21, 35)]
            assert np.ptp(vals) == 0.0

    def test_hole_rows_empty_and_diagonal_zeroed(self):
        t = punch_holes(build_lattice((8,)), [(3,)])
        terms = build_couplings(t, PowerLaw(1.0, 6.0),
                                lens_diagonal=np.arange(8.0))
        h = terms.hopping.toarray()
        assert np.abs(h[3]).max() == 0.0
        assert np.abs(h[:, 3]).max() == 0.0
        assert terms.diagonal[3] == 0.0
        assert terms.diagonal[5] == 5.0

    def test_model_validation(self):
        with pytest.raises(ValueError):
            NearestNeighbor(0.0)
        with pytest.raises(ValueError):
            PowerLaw(1.0, -1.0)

    def test_lens_diagonal_length_checked(self):
        t = build_lattice((6,))
        with pytest.raises(ValueError):
            build_couplings(t, NearestNeighbor(1.0), lens_diagonal=np.zeros(5))

    def test_bounds_contain_spectrum(self):
        t = build_lattice((12,))
        terms = build_couplings(t, NearestNeighbor(1.0),
                                lens_diagonal=0.1 * np.arange(12.0)**2)
        lo, hi = terms.bounds()
        eig = np.linalg.eigvalsh(terms.matrix().toarray())
        assert lo <= eig.min() and eig.max() <= hi

    def test_holed_diagonal_is_zero_at_every_hole(self):
        t = punch_holes(build_lattice((12,)), [(0,), (5,), (11,)])
        v = 0.1 * np.arange(12.0) ** 2 + 1.0
        for terms in (build_couplings(t, NearestNeighbor(1.0)).with_diagonal(v),
                      build_couplings(t, NearestNeighbor(1.0), lens_diagonal=v)):
            assert np.array_equal(terms.diagonal[~t.active], np.zeros(3))
            assert np.array_equal(terms.diagonal[t.active], v[t.active])
            assert np.array_equal(terms.matrix().diagonal()[~t.active], np.zeros(3))

    def test_with_diagonal_adds(self):
        t = build_lattice((6,))
        base = build_couplings(t, NearestNeighbor(1.0))
        extra = np.linspace(0.0, 1.0, 6)
        shifted = base.with_diagonal(extra)
        assert np.allclose(shifted.diagonal, base.diagonal + extra)
        assert np.allclose(base.diagonal, 0.0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 40),
    alpha=st.floats(0.5, 12.0),
    holes=st.sets(st.integers(0, 39), max_size=6),
)
def test_symmetry_and_hole_decoupling_properties(n, alpha, holes):
    holes = {h for h in holes if h < n}
    table = build_lattice((n,))
    if holes:
        table = punch_holes(table, [(h,) for h in sorted(holes)])
    terms = build_couplings(table, PowerLaw(1.0, alpha))
    h = terms.hopping
    assert (h != h.T).nnz == 0
    dense = np.abs(h.toarray())
    for hole in holes:
        assert dense[hole].max() == 0.0
        assert dense[:, hole].max() == 0.0


def _dense_oracle(terms):
    """The mirror and even operator as measured and folded on the dense H,
    as every design was before the hopping fold was shared."""
    h = terms.matrix().toarray()
    mirror = _Mirror.of(h, np.arange(terms.n_sites - 1, -1, -1))
    return mirror, mirror.fold(h)


def _same_bits(a, b):
    """Equal entries with equal signs, zeros included."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


_MODELS = {"nn": NearestNeighbor(1.0), "alpha3": PowerLaw(1.0, 3.0),
           "alpha6": PowerLaw(1.0, 6.0)}


@st.composite
def _thick_coefficients(draw):
    """Thick designs of order 2-8: a leading strength from far below the
    clip to far above it, and corrections of either sign, whose negative
    ones send the far sites to the -200 clip."""
    order = draw(st.sampled_from([2, 4, 6, 8]))
    lead = 10.0 ** draw(st.floats(-4.0, 1.0))
    rest = [draw(st.floats(-1.0, 1.0)) * 10.0 ** draw(st.floats(-8.0, 0.0))
            for _ in range(order // 2 - 1)]
    return (lead, *rest)


class TestEvenFoldOracle:
    """A design's mirror gate and even operator, set up from the hopping's
    shared fold and the design's diagonal, are bit for bit those measured
    and folded on its dense H."""

    @pytest.mark.parametrize("model", sorted(_MODELS))
    @pytest.mark.parametrize("extents", [(20,), (21,), (200,), (201,), (6, 5), (7, 7)])
    @settings(max_examples=20, deadline=None)
    @given(coefficients=_thick_coefficients())
    def test_centred_thick_designs(self, extents, model, coefficients):
        table = build_lattice(extents)
        base = build_couplings(table, _MODELS[model])
        assert base._hopping_fold.mirror is not None
        for terms in (base, clipped_thick_terms(
                base, ThickPolynomial(coefficients, tuple(table.center())), table, 1.0)):
            mirror, even = _dense_oracle(terms)
            got = terms.mirror
            assert got.asymmetry == mirror.asymmetry == 0.0
            for name in ("refl", "reps", "orbit", "weights"):
                assert np.array_equal(getattr(got, name), getattr(mirror, name))
            assert _same_bits(terms._even_operator(), even)

    @pytest.mark.parametrize("kind", ["displaced", "hole", "off-centre"])
    @pytest.mark.parametrize("model", sorted(_MODELS))
    def test_asymmetric_designs_keep_the_gate(self, rng, kind, model):
        n = 80
        table, focus = build_lattice((n,)), ((n - 1) / 2.0,)
        if kind == "displaced":
            table = displace_sites(table, rng.normal(scale=0.01, size=(n, 1)))
        elif kind == "hole":
            table = punch_holes(table, [(5,)])
        else:
            focus = (n / 2.0,)
        base = build_couplings(table, _MODELS[model])
        # nearest-neighbour hopping and the lens potential go by labels, so
        # displacements leave a nearest-neighbour design mirror-symmetric
        unmoved = kind == "displaced" and model == "nn"
        assert (base._hopping_fold.mirror is not None) == (kind == "off-centre" or unmoved)
        terms = clipped_thick_terms(base, ThickPolynomial((1e-3, -1e-7), focus),
                                    table, 1.0)
        mirror, even = _dense_oracle(terms)
        got = terms.mirror
        # the asymmetry is the CSR's; the dense H's row sums may round apart
        assert got.asymmetry == _Mirror.of(terms.matrix(), mirror.refl).asymmetry
        assert got.asymmetry == pytest.approx(mirror.asymmetry, rel=1e-12, abs=0.0)
        assert (mirror.asymmetry == 0.0) == unmoved
        assert _same_bits(terms._even_operator(), even)
        packet = np.exp(-((np.arange(n) - (n - 1) / 2.0) / 6.0) ** 2)
        for t in (0.0, 1e-15, 10.0):
            assert (got.drift(packet, t) <= 1e-8) == (mirror.drift(packet, t) <= 1e-8)


def _lift_product(terms):
    """M = H[reps] @ L as the sparse product with the 0/1 lift, put in
    canonical form: the reference ``_Operator.even_matrix`` is summed
    against."""
    m, h = terms.mirror, terms.csr()
    n = h.shape[0]
    lift = sp.csr_matrix((np.ones(n), (np.arange(n), m.orbit)), shape=(n, m.dim))
    out = (h[m.reps] @ lift).tocsr()
    out = out + sp.csr_matrix(out.shape)
    out.sort_indices()
    return out


@pytest.mark.parametrize("n", [9, 10])
def test_even_matrix_is_the_lift_product(rng, n):
    """The even operator summed from the canonical CSR is bit for bit the
    canonical lift product, on a chain with random hops and energies whose
    centre row's two hops cancel, and on a hole-free 2D design."""
    hops = rng.normal(size=n - 1)
    hops[n // 2] = -hops[n // 2 - 1]
    chain = HamiltonianTerms(sp.diags([hops, hops], [-1, 1]).tocsr(), rng.normal(size=n),
                             np.ones(n, bool))
    table = build_lattice((6, 5))
    plane = build_couplings(table, PowerLaw(1.0, 3.0, 2.0)).with_diagonal(rng.normal(size=30))
    for terms in (chain, plane):
        got, want = terms.even_matrix, _lift_product(terms)
        assert got.has_canonical_format
        for attr in ("data", "indices", "indptr"):
            assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes(), attr
    if n % 2:
        # the centre row keeps its diagonal alone: its hops' orbit sums to 0
        assert np.diff(chain.even_matrix.indptr)[n // 2] == 1
