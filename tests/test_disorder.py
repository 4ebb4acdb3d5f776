import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from spinlens import propagator
from spinlens.disorder import (BreakdownResult, BreakdownRow, Displacement,
                               EnsembleJob, Holes, _CleanPattern, _draws,
                               _Kept, _perturbations, _protocol_start, _realization_table,
                               _Streams, breakdown_scan, plane_wave_broadening,
                               run_ensemble, run_protocol)
from spinlens.lattice import (NearestNeighbor, PowerLaw, build_couplings,
                              build_lattice, displace_sites, punch_holes)
from spinlens.propagator import (_STACK_NNZ, _enclosure, _PatternPlan, _stacked_operator,
                                 spectral_bounds)
from spinlens.lens import (Multifocal, ThickPolynomial, ThinPulse,
                           continuum_thick, potential_profile,
                           thin_phase_profile)
from spinlens.wavepacket import (evolve, focus_probability, gaussian_packet,
                                 gaussian_width, phase_imprint)

V0 = 8.0 ** (-8.0 / 3.0)


@pytest.fixture(scope="module")
def chain():
    return build_lattice((101,))


@pytest.fixture(scope="module")
def thick_job(chain):
    design = ThickPolynomial((V0,), (50.0,))
    return EnsembleJob(table=chain, model=NearestNeighbor(1.0), design=design,
                       sigma0=8.0, duration=continuum_thick(V0, 8.0).focal_time,
                       kind=Holes(0), realizations=3, master_seed=17)


@pytest.fixture(scope="module")
def unit_chain():
    table = build_lattice((100,))
    return table, PowerLaw(1.0, 3.0), build_couplings(table, PowerLaw(1.0, 3.0)).matrix()


@pytest.fixture(scope="module")
def scan(chain):
    design = ThickPolynomial((V0,), (50.0,))
    job = EnsembleJob(table=chain, model=PowerLaw(1.0, 6.0), design=design,
                      sigma0=8.0, duration=continuum_thick(V0, 8.0).focal_time,
                      kind=Displacement(0.01), realizations=4, master_seed=11)
    return breakdown_scan(job, [0.0, 0.005, 0.02, 0.08])


class TestKindValidation:
    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            Displacement(-0.1)

    def test_zero_delta_allowed(self):
        assert Displacement(0.0).delta == 0.0

    def test_job_needs_a_realization(self, chain, thick_job):
        with pytest.raises(ValueError, match="realization"):
            EnsembleJob(table=chain, model=thick_job.model, design=thick_job.design,
                        sigma0=8.0, duration=1.0, kind=Holes(0),
                        realizations=0, master_seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_must_fit_in_64_bits(self, chain, thick_job, seed):
        with pytest.raises(ValueError, match="64"):
            EnsembleJob(table=chain, model=thick_job.model, design=thick_job.design,
                        sigma0=8.0, duration=1.0, kind=Holes(0),
                        realizations=1, master_seed=seed)

    def test_kind_must_be_a_disorder_model(self, chain, thick_job):
        with pytest.raises(TypeError, match="Holes or Displacement"):
            EnsembleJob(table=chain, model=thick_job.model, design=thick_job.design,
                        sigma0=8.0, duration=1.0, kind="holes",
                        realizations=1, master_seed=1)

    def test_hole_count_bounded_by_active_sites(self, thick_job):
        small = build_lattice((5,))
        with pytest.raises(ValueError, match="active"):
            EnsembleJob(table=small, model=thick_job.model, design=thick_job.design,
                        sigma0=1.0, duration=1.0, kind=Holes(5),
                        realizations=1, master_seed=1)
        with pytest.raises(ValueError, match="non-negative"):
            EnsembleJob(table=small, model=thick_job.model, design=thick_job.design,
                        sigma0=1.0, duration=1.0, kind=Holes(-1),
                        realizations=1, master_seed=1)

    def test_hole_count_bounded_by_sites_off_the_foci(self):
        table = build_lattice((20,))
        design = Multifocal((ThickPolynomial((V0,), (5.0,)),
                             ThickPolynomial((V0,), (14.0,))))

        def job(count):
            return EnsembleJob(table=table, model=NearestNeighbor(1.0),
                               design=design, sigma0=3.0, duration=1.0,
                               kind=Holes(count), realizations=1, master_seed=1)

        with pytest.raises(ValueError, match="18 active sites that are not a focus"):
            job(19)
        full = _realization_table(job(18), 0)
        assert np.flatnonzero(full.active).tolist() == [5, 14]


class TestRealizationTable:
    def test_displacement_draw_is_deterministic(self, chain, thick_job):
        job = replace(thick_job, kind=Displacement(0.03))
        a = _realization_table(job, 4)
        b = _realization_table(job, 4)
        assert np.array_equal(a.positions, b.positions)
        assert not np.array_equal(_realization_table(job, 5).positions, a.positions)

    @pytest.mark.parametrize("kind", [Displacement(0.03), Holes(7)])
    def test_a_shared_stream_draws_as_a_fresh_one(self, thick_job, kind):
        """One bit generator re-keyed per realization gives each the stream
        a new Philox keyed by (master_seed, r) gives, in any order."""
        job = replace(thick_job, kind=kind)
        streams = _Streams(job.master_seed)
        for r in (4, 0, 4, 11, 2**40):
            a = _realization_table(job, r, streams)
            b = _realization_table(job, r)
            assert np.array_equal(a.positions, b.positions)
            assert np.array_equal(a.active, b.active)

    def test_zero_displacement_is_identity(self, chain, thick_job):
        job = replace(thick_job, kind=Displacement(0.0))
        table = _realization_table(job, 0)
        assert np.array_equal(table.positions, chain.positions)
        assert np.array_equal(table.active, chain.active)

    def test_zero_holes_is_identity(self, chain, thick_job):
        table = _realization_table(thick_job, 0)
        assert np.array_equal(table.active, chain.active)

    def test_holes_reduce_active_count_only(self, chain, thick_job):
        job = replace(thick_job, kind=Holes(12))
        table = _realization_table(job, 0)
        assert table.n_active == chain.n_active - 12
        assert np.array_equal(table.positions, chain.positions)

    def test_holes_never_land_on_a_focus(self, chain):
        design = Multifocal((ThinPulse(0.05, (30.0,)), ThinPulse(0.05, (70.0,))))
        job = EnsembleJob(table=chain, model=NearestNeighbor(1.0), design=design,
                          sigma0=8.0, duration=1.0, kind=Holes(12),
                          realizations=1, master_seed=9)
        for r in range(50):
            table = _realization_table(job, r)
            assert table.active[chain.index_of([30])]
            assert table.active[chain.index_of([70])]
            assert table.n_active == chain.n_active - 12


class TestRunProtocol:
    def test_thick_protocol_matches_manual_pipeline(self, chain, thick_job):
        p_foc, sigma_f = run_protocol(chain, thick_job)
        terms = build_couplings(chain, thick_job.model)
        terms = terms.with_diagonal(potential_profile(thick_job.design, chain))
        psi = gaussian_packet(chain, thick_job.sigma0, center=chain.center())
        psi = evolve(terms, psi, thick_job.duration, tol=thick_job.tol)
        assert p_foc == pytest.approx(
            focus_probability(psi, chain, (50.0,), radius=3.0), abs=1e-12)
        assert sigma_f == pytest.approx(gaussian_width(psi, chain), abs=1e-12)
        assert sigma_f < thick_job.sigma0 / 2

    def test_thin_protocol_applies_the_imprint(self, chain):
        design = ThinPulse(0.05, (50.0,))
        job = EnsembleJob(table=chain, model=NearestNeighbor(1.0), design=design,
                          sigma0=8.0, duration=5.0, kind=Holes(0),
                          realizations=1, master_seed=3)
        p_foc, sigma_f = run_protocol(chain, job)
        terms = build_couplings(chain, job.model)
        psi = gaussian_packet(chain, job.sigma0, center=chain.center())
        psi = phase_imprint(psi, thin_phase_profile(design, chain))
        psi = evolve(terms, psi, job.duration, tol=job.tol)
        assert sigma_f == pytest.approx(gaussian_width(psi, chain), abs=1e-12)
        assert p_foc == pytest.approx(
            focus_probability(psi, chain, (50.0,), radius=3.0), abs=1e-12)
        bare = evolve(terms, gaussian_packet(chain, job.sigma0, center=chain.center()),
                      job.duration, tol=job.tol)
        assert sigma_f < gaussian_width(bare, chain)

    def test_multifocal_scores_the_first_focus(self, chain):
        design = Multifocal((ThinPulse(0.05, (30.0,)), ThinPulse(0.05, (70.0,))))
        job = EnsembleJob(table=chain, model=NearestNeighbor(1.0), design=design,
                          sigma0=6.0, duration=4.0, kind=Holes(0),
                          realizations=1, master_seed=3)
        p_foc, _ = run_protocol(chain, job)
        terms = build_couplings(chain, job.model)
        psi = gaussian_packet(chain, job.sigma0, center=chain.center())
        psi = phase_imprint(psi, thin_phase_profile(design, chain))
        psi = evolve(terms, psi, job.duration, tol=job.tol)
        assert p_foc == pytest.approx(
            focus_probability(psi, chain, (30.0,), radius=3.0), abs=1e-12)

    def test_thick_multifocal_applies_the_potential(self, chain):
        design = Multifocal((ThickPolynomial((V0,), (30.0,)),
                             ThickPolynomial((4.0 * V0,), (70.0,))))
        job = EnsembleJob(table=chain, model=NearestNeighbor(1.0), design=design,
                          sigma0=8.0, duration=continuum_thick(V0, 8.0).focal_time,
                          kind=Holes(0), realizations=1, master_seed=3)
        p_foc, sigma_f = run_protocol(chain, job)
        terms = build_couplings(chain, job.model)
        terms = terms.with_diagonal(potential_profile(design, chain))
        psi = gaussian_packet(chain, job.sigma0, center=chain.center())
        psi = evolve(terms, psi, job.duration, tol=job.tol)
        assert p_foc == pytest.approx(
            focus_probability(psi, chain, (30.0,), radius=3.0), abs=1e-12)
        assert sigma_f == pytest.approx(gaussian_width(psi, chain), abs=1e-12)
        # the potential acted: a free packet spreads instead
        bare = evolve(build_couplings(chain, job.model),
                      gaussian_packet(chain, job.sigma0), job.duration, tol=job.tol)
        assert sigma_f != pytest.approx(gaussian_width(bare, chain), rel=1e-3)


class TestRunEnsemble:
    def test_zero_holes_realizations_are_all_identical(self, chain, thick_job):
        stats = run_ensemble(thick_job)
        p_clean, sigma_clean = run_protocol(chain, thick_job)
        assert np.array_equal(stats.p_foc, np.full(3, p_clean))
        assert np.array_equal(stats.sigma_f, np.full(3, sigma_clean))
        summary = stats.summary()
        assert summary["p_foc"]["std"] == 0.0
        assert summary["sigma_f"]["stderr"] == 0.0

    def test_records_do_not_depend_on_realization_count(self, chain, thick_job):
        job = replace(thick_job, kind=Displacement(0.02), realizations=4)
        short = run_ensemble(job)
        long = run_ensemble(replace(job, realizations=6))
        assert np.array_equal(short.p_foc, long.p_foc[:4])
        assert np.array_equal(short.sigma_f, long.sigma_f[:4])

    def test_summary_matches_numpy_statistics(self):
        rec = np.array([0.2, 0.5, 0.35, 0.4])
        from spinlens.disorder import EnsembleStats
        summary = EnsembleStats(p_foc=rec, sigma_f=rec * 2).summary()
        assert summary["p_foc"]["mean"] == pytest.approx(rec.mean())
        assert summary["p_foc"]["std"] == pytest.approx(rec.std(ddof=1))
        assert summary["p_foc"]["stderr"] == pytest.approx(
            rec.std(ddof=1) / np.sqrt(len(rec)))
        assert summary["sigma_f"]["mean"] == pytest.approx(2 * rec.mean())

    def test_single_realization_reports_zero_spread(self):
        from spinlens.disorder import EnsembleStats
        summary = EnsembleStats(p_foc=np.array([0.4]), sigma_f=np.array([2.0])).summary()
        assert summary["p_foc"]["std"] == 0.0
        assert summary["sigma_f"]["stderr"] == 0.0

    def test_record_arrays_have_one_entry_per_realization(self, chain, thick_job):
        stats = run_ensemble(replace(thick_job, kind=Holes(5), realizations=4))
        assert stats.p_foc.shape == (4,)
        assert stats.sigma_f.shape == (4,)


ENSEMBLE_CASES = ["chain", "plane", "displacement", "thin", "powerlaw_holes",
                  "displacement_plane", "multifocal_holes"]


THICK_CASES = [name for name in ENSEMBLE_CASES if name != "thin"]


def _ensemble_case(name):
    """EnsembleJob with different bounds per realization; the thick cases
    fill more than one stacked operator (``propagator._STACK_NNZ``) and
    more than one chunk of realizations (``disorder._draws``)."""
    if name in ("plane", "displacement_plane"):
        table = build_lattice((21, 21))
        design = ThickPolynomial((4.0 ** (-8.0 / 3.0),), (10.0, 10.0))
        duration = continuum_thick(design.coefficients[0], 4.0).focal_time
        if name == "plane":
            return EnsembleJob(table=table, model=NearestNeighbor(1.0),
                               design=design, sigma0=4.0, duration=duration,
                               kind=Holes(6), realizations=30, master_seed=5)
        return EnsembleJob(table=table, model=PowerLaw(1.0, 6.0, cutoff_range=3.0),
                           design=design, sigma0=4.0, duration=duration,
                           kind=Displacement(0.02), realizations=6, master_seed=13)
    table = build_lattice((101,))
    if name == "thin":
        design = ThinPulse(0.05, (50.0,))
        return EnsembleJob(table=table, model=NearestNeighbor(1.0), design=design,
                           sigma0=8.0, duration=5.0, kind=Holes(3),
                           realizations=12, master_seed=9)
    design = ThickPolynomial((V0,), (50.0,))
    duration = continuum_thick(V0, 8.0).focal_time
    if name == "chain":
        return EnsembleJob(table=table, model=NearestNeighbor(1.0), design=design,
                           sigma0=8.0, duration=duration, kind=Holes(4),
                           realizations=180, master_seed=7)
    if name == "powerlaw_holes":
        return EnsembleJob(table=table, model=PowerLaw(1.0, 6.0), design=design,
                           sigma0=8.0, duration=duration, kind=Holes(5),
                           realizations=20, master_seed=3)
    if name == "multifocal_holes":
        design = Multifocal((ThickPolynomial((V0,), (30.0,)),
                             ThickPolynomial((4.0 * V0,), (70.0,))))
        return EnsembleJob(table=table, model=NearestNeighbor(1.0), design=design,
                           sigma0=8.0, duration=duration, kind=Holes(6),
                           realizations=180, master_seed=21)
    # displacements of 0.01 a, or of 0.1 a, where the realizations' bounds,
    # and so their phases and coefficient counts, spread the most
    delta = 0.1 if name == "wide_displacement" else 0.01
    return EnsembleJob(table=table, model=PowerLaw(1.0, 6.0), design=design,
                       sigma0=8.0, duration=duration, kind=Displacement(delta),
                       realizations=20, master_seed=11)


def _one_block_job():
    """A chain so long that its pattern fills a stacked operator
    (``propagator._STACK_NNZ``) alone: each chunk holds one block."""
    return EnsembleJob(table=build_lattice((_STACK_NNZ // 2,)), model=NearestNeighbor(1.0),
                       design=ThickPolynomial((1e-8,), (_STACK_NNZ / 4.0,)), sigma0=20.0,
                       duration=0.5, kind=Holes(3), realizations=2, master_seed=1)


def _clean_case(name):
    if name == "one_realization":
        return replace(_ensemble_case("displacement"), realizations=1)
    return _one_block_job() if name == "one_block" else _ensemble_case(name)


def _underflow_job():
    """Power-law couplings that underflow to zero (alpha = 700: the r ~ 3
    pairs) in displaced realizations."""
    return EnsembleJob(table=build_lattice((40,)),
                       model=PowerLaw(1.0, 700.0, cutoff_range=3.0),
                       design=ThickPolynomial((0.01,), (19.5,)), sigma0=4.0,
                       duration=3.0, kind=Displacement(1e-4), realizations=5,
                       master_seed=3)


def _edge_hole_job():
    """Two holes in a plane whose lens potential peaks at its far corner: a
    hole there, or beside it, moves the Gershgorin enclosure, so the
    realizations carry two phases (84 and 6 of 90), over two chunks."""
    return EnsembleJob(table=build_lattice((15, 15)), model=NearestNeighbor(1.0),
                       design=ThickPolynomial((0.05,), (4.0, 4.0)), sigma0=2.0,
                       duration=1.5, kind=Holes(2), realizations=90, master_seed=4)


def _cluster_job(extents):
    """Holes that fill almost half of a small plane or cube, with the lens
    potential peaking at its far corner: realizations whose holes touch
    each other and a lattice corner, rows that lose two or more entries,
    and active sites whose every neighbour is a hole
    (``TestBatchedEnsemble.test_hole_radii_are_spectral_bounds``)."""
    table = build_lattice(extents)
    design = ThickPolynomial((0.05,), (1.0,) * len(extents))
    return EnsembleJob(table=table, model=NearestNeighbor(1.0), design=design, sigma0=1.5,
                       duration=1.5, kind=Holes(int(0.45 * table.n_sites)),
                       realizations=40, master_seed=8)


CLUSTER_CASES = {"holes_2d_cluster": (7, 7), "holes_3d_cluster": (4, 4, 4)}


LAYOUT_CASES = ENSEMBLE_CASES + ["underflow", "underflow_plane", "underflow_holes",
                                 "edge_hole", *CLUSTER_CASES]


def _layout_case(name):
    if name in CLUSTER_CASES:
        return _cluster_job(CLUSTER_CASES[name])
    if name in ("underflow_holes", "underflow_plane"):
        # the couplings of the r ~ 3 pairs underflow, clean or displaced:
        # zeros in rows of more than 8 entries, which change how their sums
        # group, and some of those rows set the bounds
        kind, focus = ((Holes(3), 3.0) if name == "underflow_holes"
                       else (Displacement(1e-4), 1.0))
        return EnsembleJob(table=build_lattice((7, 7)),
                           model=PowerLaw(1.0, 700.0, cutoff_range=3.0),
                           design=ThickPolynomial((0.0137,), (focus, focus)), sigma0=2.0,
                           duration=1.0, kind=kind, realizations=12, master_seed=3)
    return {"underflow": _underflow_job, "edge_hole": _edge_hole_job}.get(
        name, lambda: _ensemble_case(name))()


class TestBatchedEnsemble:
    @pytest.mark.parametrize("name", ENSEMBLE_CASES + ["wide_displacement", "one_realization",
                                                      "one_block"])
    def test_equals_one_protocol_per_realization(self, name):
        """Each record, and the clean lattice's, evolved as row 0 of the
        first chunk, is bit for bit the protocol's on its lattice."""
        job = _clean_case(name)
        stats = run_ensemble(job)
        alone = [run_protocol(_realization_table(job, r), job)
                 for r in range(job.realizations)]
        assert [tuple(rec) for rec in zip(stats.p_foc, stats.sigma_f)] == alone
        assert (stats.p_clean, stats.sigma_clean) == run_protocol(job.table, job)

    @pytest.mark.parametrize("name", ["one_block", "chain"])
    def test_the_clean_lattice_rides_in_the_first_chunk(self, name):
        """The clean lattice is an extra row 0 of the first chunk: the
        realizations' chunks end where they do without it, so no chunk,
        not even one of a single block, holds it alone."""
        job = _clean_case(name)
        pattern = _CleanPattern(job)
        bare = [len(active) for active, _ in _draws(job, pattern, job.realizations)]
        chunks = list(_draws(job, pattern, job.realizations, clean=True))
        assert [len(active) for active, _ in chunks] == [bare[0] + 1] + bare[1:]
        assert np.array_equal(chunks[0][0][0], job.table.active)
        assert len(bare) > 1 and (name != "one_block" or bare == [1] * job.realizations)

    @pytest.mark.parametrize("name", ["chain", "thin", "displacement"])
    def test_zero_duration_records_the_start_packets(self, name):
        """At t = 0 every record is its start packet's, as the protocol's
        copy of it gives it (C-ordered, so the widths sum row by row)."""
        job = replace(_ensemble_case(name), duration=0.0, realizations=5)
        stats = run_ensemble(job)
        assert [tuple(rec) for rec in zip(stats.p_foc, stats.sigma_f)] == [
            run_protocol(_realization_table(job, r), job) for r in range(5)]

    @pytest.mark.parametrize("name", THICK_CASES)
    def test_thick_cases_fill_more_than_one_stack(self, monkeypatch, name):
        from spinlens import propagator

        job, sizes = _ensemble_case(name), []
        write = propagator._Layout.write

        def counted(layout, values, *args, **kwargs):
            sizes.append(len(values))
            return write(layout, values, *args, **kwargs)

        monkeypatch.setattr(propagator._Layout, "write", counted)
        run_ensemble(job)
        # the realizations, and the clean lattice as row 0 of the first chunk
        assert len(sizes) >= 2 and sum(sizes) == job.realizations + 1

    @staticmethod
    def assert_table_is_assembled(pattern, values, low, high, table, job):
        """One realization's row of a value table, with its zeros dropped,
        is bit for bit the H the protocol assembles on ``table``, and its
        bounds are that H's; returns the number of zeros dropped."""
        terms, _ = _protocol_start(table, job)
        want = terms.matrix()
        n = table.n_sites
        h = sp.csr_matrix((values, pattern.cols, pattern.indptr), shape=(n, n), copy=True)
        h.eliminate_zeros()
        for attr in ("indptr", "indices", "data"):
            assert getattr(h, attr).tobytes() == getattr(want, attr).tobytes()
        assert (float(low), float(high)) == terms.bounds()
        return values.size - h.nnz

    @pytest.mark.parametrize("name", ENSEMBLE_CASES)
    def test_pattern_cut_equals_assembled_terms(self, name):
        """Each realization's value table and bounds, written alone and in
        its chunk, are those of the H the protocol assembles."""
        job = _ensemble_case(name)
        pattern = _CleanPattern(job)
        chunks = list(_draws(job, pattern, job.realizations))
        assert len(chunks) >= (2 if name in THICK_CASES else 1)
        r = 0
        for active, positions in chunks:
            for row in zip(*pattern.table(active, positions)):
                table = _realization_table(job, r)
                alone = pattern.table(table.active[None], table.positions[None])
                for values, low, high in (row, [a[0] for a in alone]):
                    self.assert_table_is_assembled(pattern, values, low, high, table, job)
                r += 1
        assert r == job.realizations

    def test_vanishing_couplings_are_dropped_from_displaced_cuts(self):
        """Power-law couplings that underflow to zero (alpha = 700: the
        r ~ 3 pairs) are 0.0 in a displaced realization's value table, which
        is the assembled H once they are dropped, as assembly drops them."""
        job = _underflow_job()
        with np.errstate(over="ignore"):
            pattern = _CleanPattern(job)
            r = 0
            for active, positions in _draws(job, pattern, 5):
                for values, low, high in zip(*pattern.table(active, positions)):
                    table = _realization_table(job, r)
                    assert self.assert_table_is_assembled(pattern, values, low, high,
                                                          table, job) > 0
                    r += 1
            assert r == 5
            stats = run_ensemble(job)
            assert list(zip(stats.p_foc, stats.sigma_f)) == [
                run_protocol(_realization_table(job, r), job) for r in range(5)]

    @pytest.mark.parametrize("name", LAYOUT_CASES)
    def test_written_stack_multiplies_as_the_cuts_stack(self, name, rng):
        """Each chunk's values, written on the job's layout into the kept
        diagonals, multiply bit for bit as the stack of its realizations'
        assembled H, each built alone by ``_stacked_operator``, and the
        written bounds are those H's."""
        job = _layout_case(name)
        with np.errstate(over="ignore"):
            pattern, kept = _CleanPattern(job), _Kept()
            plan = _PatternPlan(pattern.cols, pattern.indptr, job.duration, job.tol)
            layout, dim, diagonals, r = plan.layout, job.table.n_sites, None, 0
            for active, positions in _draws(job, pattern, job.realizations):
                values, lows, highs = pattern.table(active, positions, kept)
                terms = [_protocol_start(_realization_table(job, r + j), job)[0]
                         for j in range(len(values))]
                r += len(values)
                assert [t.bounds() for t in terms] == list(zip(lows.tolist(), highs.tolist()))
                centers, halves = zip(*(_enclosure(t.matrix(), t.bounds()) for t in terms))
                if layout.offsets is not None and diagonals is None:
                    diagonals = np.zeros((layout.offsets.size, len(values), dim))
                got = layout.write(values, centers, halves, float, out=diagonals)
                lone = [_stacked_operator(t.matrix(), c, half, float)
                        for t, c, half in zip(terms, centers, halves)]
                x = rng.normal(size=got.shape[0])
                want = np.concatenate([h @ x[j * dim:(j + 1) * dim] for j, h in enumerate(lone)])
                assert (got @ x).tobytes() == want.tobytes()
            assert r == job.realizations

    @pytest.mark.parametrize("name", LAYOUT_CASES)
    def test_written_chunks_match_the_dense_propagator(self, name):
        """Each realization's state after a chunk's stack is within 10 tol
        of exp(-i H t) psi by a dense eigendecomposition of the H the
        protocol assembles, from the protocol's start packet."""
        job = _layout_case(name)
        with np.errstate(over="ignore"):
            pattern, kept = _CleanPattern(job), _Kept()
            plan = _PatternPlan(pattern.cols, pattern.indptr, job.duration, job.tol)
            r = 0
            for active, positions in _draws(job, pattern, job.realizations):
                values, lows, highs = pattern.table(active, positions, kept)
                tables = [_realization_table(job, r + j) for j in range(len(values))]
                r += len(values)
                starts = np.stack([_protocol_start(t, job)[1].amplitudes for t in tables])
                finals = plan.apply(values, list(zip(lows.tolist(), highs.tolist())), starts)
                for table, psi, got in zip(tables, starts, finals):
                    energies, vectors = np.linalg.eigh(
                        _protocol_start(table, job)[0].matrix().toarray())
                    want = vectors @ (np.exp(-1j * energies * job.duration)
                                      * (vectors.T @ psi))
                    assert np.linalg.norm(got - want) <= 10 * job.tol
            assert r == job.realizations

    @pytest.mark.parametrize("name", LAYOUT_CASES)
    def test_chunked_cuts_alias_no_kept_array(self, name):
        """A value table written without ``kept`` is an array of its own: a
        run of the ensemble and kept tables of the same pattern after it
        leave it as it was, and it shares no memory with a kept array."""
        job = _layout_case(name)
        with np.errstate(over="ignore"):
            pattern = _CleanPattern(job)
            tables = [pattern.table(active, positions)
                      for active, positions in _draws(job, pattern, job.realizations)]
            before = [[a.tobytes() for a in t] for t in tables]
            kept = _Kept()
            for active, positions in _draws(job, pattern, job.realizations):
                pattern.table(active, positions, kept)
            run_ensemble(job)
        assert [[a.tobytes() for a in t] for t in tables] == before
        arrays = list(kept.arrays.values()) + list(pattern.scratch.arrays.values())
        assert not any(np.shares_memory(t[0], a) for t in tables for a in arrays)

    def test_a_repeated_phase_builds_no_bessel_table(self, monkeypatch):
        """The edge-hole job's records are the protocol's, and each of its
        two phases gets one column of a Bessel table for the whole job,
        however many stacks share it."""
        job = _edge_hole_job()
        pattern = _CleanPattern(job)
        phases = {_enclosure(None, _protocol_start(_realization_table(job, r), job)[0].bounds())[1]
                  * job.duration for r in range(job.realizations)}
        assert len(phases) == 2
        columns = []
        table = propagator._bessel_table

        def counted(z, tol):
            columns.extend(np.atleast_1d(z).tolist())
            return table(z, tol)

        monkeypatch.setattr(propagator, "_bessel_table", counted)
        stats = run_ensemble(job)
        assert len(list(_draws(job, pattern, job.realizations))) >= 2
        assert sorted(columns) == sorted(phases)
        monkeypatch.undo()
        assert [tuple(rec) for rec in zip(stats.p_foc, stats.sigma_f)] == [
            run_protocol(_realization_table(job, r), job) for r in range(job.realizations)]

    @pytest.mark.parametrize("name", [*CLUSTER_CASES, "underflow_holes"])
    def test_hole_radii_are_spectral_bounds(self, name):
        """The bounds of every realization's value table are
        ``spectral_bounds`` of the H the protocol assembles, where the
        holes touch each other and a lattice corner, rows lose two or more
        entries, an active site keeps none of its neighbours, or (underflow)
        the clean pattern stores zeros; the clean pattern's row sums are
        those of the clean H."""
        job = _layout_case(name)
        with np.errstate(over="ignore"):
            pattern = _CleanPattern(job)
            clean = _protocol_start(job.table, job)[0].matrix()
            assert pattern.radii.tobytes() == np.asarray(abs(clean).sum(axis=1)).tobytes()
            adjacent = build_couplings(job.table, job.model).hopping != 0
            degree = np.diff(adjacent.indptr)
            corners = [job.table.index_of(np.array(c) * (np.array(job.table.extents) - 1))
                       for c in np.ndindex(*(2,) * job.table.dim)]
            seen, r = set(), 0
            for active, positions in _draws(job, pattern, job.realizations):
                _, lows, highs = pattern.table(active, positions)
                for low, high, alive in zip(lows, highs, active):
                    h = _protocol_start(_realization_table(job, r), job)[0].matrix()
                    assert (float(low), float(high)) == spectral_bounds(h)
                    lost = adjacent @ (~alive).astype(int)
                    seen.update(
                        shape for shape, found in (
                            ("holes touch", (~alive & (lost > 0)).any()),
                            ("corner hole touches a hole",
                             any(not alive[c] and lost[c] > 0 for c in corners)),
                            ("row loses two", (alive & (lost >= 2)).any()),
                            ("every neighbour a hole", (alive & (lost == degree)).any()))
                        if found)
                    r += 1
        assert r == job.realizations
        if name in CLUSTER_CASES:
            assert len(seen) == 4

    def test_a_hole_leaves_the_bounds(self):
        """A hole's on-site energy is no part of its realization's H: with
        the hole where the lens potential peaks, the chain's far end, the
        Gershgorin enclosure is the active sites' alone."""
        design = ThickPolynomial((0.05,), (15.0,))
        job = EnsembleJob(table=build_lattice((41,)), model=NearestNeighbor(1.0),
                          design=design, sigma0=4.0, duration=1.0, kind=Holes(1),
                          realizations=1, master_seed=1)
        table = punch_holes(job.table, [(40,)])
        _, lows, highs = _CleanPattern(job).table(table.active[None], table.positions[None])
        terms, _ = _protocol_start(table, job)
        bounds = (float(lows[0]), float(highs[0]))
        assert bounds == terms.bounds() == spectral_bounds(terms.matrix())
        peak = potential_profile(design, table)[40]
        assert bounds[1] == pytest.approx(potential_profile(design, table)[39] + 1.0)
        assert bounds[1] < peak

    @pytest.mark.parametrize("name", ["thin", "displacement"])
    def test_couplings_are_built_once_per_job(self, monkeypatch, name):
        from spinlens import disorder

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return build_couplings(*args, **kwargs)

        monkeypatch.setattr(disorder, "build_couplings", counted)
        for realizations in (1, 2, 7):
            calls.clear()
            run_ensemble(replace(_ensemble_case(name), realizations=realizations))
            assert len(calls) == 1


class TestPlaneWaveBroadening:
    def test_unperturbed_hamiltonian_gives_zero(self, chain):
        h = build_couplings(chain, NearestNeighbor(1.0)).matrix()
        assert plane_wave_broadening(h, h, 0.7, table=chain) == 0.0

    def test_diagonal_disorder_reduces_to_population_std(self):
        table = punch_holes(build_lattice((40,)), [(7,), (23,)])
        terms = build_couplings(table, NearestNeighbor(1.0))
        eta = np.random.default_rng(2).normal(0.0, 0.3, 40)
        value = plane_wave_broadening(terms.with_diagonal(eta).matrix(),
                                      terms.matrix(), 0.9, table=table)
        assert value == pytest.approx(eta[table.active].std(), abs=1e-12)

    def test_default_positions_are_the_unit_chain(self, chain):
        clean = build_couplings(chain, PowerLaw(1.0, 3.0)).matrix()
        moved = build_couplings(
            displace_sites(chain, np.random.default_rng(1).normal(0, 0.02, (101, 1))),
            PowerLaw(1.0, 3.0)).matrix()
        k = 2 * np.pi * 10 / 101
        assert plane_wave_broadening(moved, clean, k) == pytest.approx(
            plane_wave_broadening(moved, clean, k, table=chain), abs=1e-13)


class TestBroadeningScenario:
    def test_rows_equal_assembled_differences_where_couplings_vanish(self, tmp_path):
        """On the alpha = 700 job, whose r ~ 3 couplings underflow, the
        value tables the broadening reads hold those pairs as 0.0, which
        scipy's h - clean leaves out; each broadening row is still bit for
        bit the mean and spread of ``plane_wave_broadening`` of each
        realization's assembled H."""
        from spinlens.scenarios import _displacement_inputs, prepare_config, run_scenario

        cfg = prepare_config({
            "scenario": "displacement", "master_seed": 3,
            "lattice": {"extents": [40]}, "packet": {"sigma0": 4.0},
            "coupling": {"model": "powerlaw", "alpha": 700.0, "cutoff_range": 3.0},
            "disorder": {"delta": 1e-4, "realizations": 2},
            "broadening": {"ks": [0.5, 1.5], "realizations": 5}})
        with np.errstate(over="ignore"):
            job, _ = _displacement_inputs(cfg)
            model, kind = _underflow_job().model, _underflow_job().kind
            assert (job.table.extents, job.model, job.kind) == ((40,), model, kind)
            clean = build_couplings(job.table, model).matrix()
            hs = [build_couplings(_realization_table(job, r), model).matrix()
                  for r in range(5)]
            pattern = _CleanPattern(job)
            assert (pattern.data == 0.0).any()
            assert all((h - clean).nnz < pattern.data.size for h in hs)
            want = []
            for k in cfg["broadening"]["ks"]:
                k = 2.0 * math.pi * round(k * 40 / (2.0 * math.pi)) / 40
                vals = [plane_wave_broadening(h, clean, k, job.table) for h in hs]
                want.append([k, float(np.mean(vals)), float(np.std(vals, ddof=1))])
            derived, _ = run_scenario(cfg, tmp_path)
        assert derived["broadening"] == want

    @pytest.mark.parametrize("count", [1, 2, 7])
    def test_perturbations_draw_no_clean_row(self, rng, count):
        """The broadening yields one difference per realization, from
        realization 0 on: each multiplies bit for bit as scipy's difference
        of its assembled H and the clean one."""
        job = _ensemble_case("displacement")
        clean = build_couplings(job.table, job.model).matrix()
        x = rng.normal(size=job.table.n_sites)
        dhs = [dh @ x for dh in _perturbations(_CleanPattern(job), job, count)]
        assert len(dhs) == count
        for r, got in enumerate(dhs):
            h = build_couplings(_realization_table(job, r), job.model).matrix()
            assert got.tobytes() == ((h - clean) @ x).tobytes()

    def test_each_realization_is_built_once(self, tmp_path, monkeypatch):
        from spinlens import disorder, scenarios
        from spinlens.scenarios import _displacement_inputs, prepare_config, run_scenario

        cfg = prepare_config({
            "scenario": "displacement", "master_seed": 4,
            "lattice": {"extents": [40]}, "packet": {"sigma0": 4.0},
            "coupling": {"model": "powerlaw", "alpha": 6.0},
            "disorder": {"delta": 0.01, "realizations": 3},
            "broadening": {"ks": [0.5, 1.0, 1.5], "realizations": 4}})
        job, _ = _displacement_inputs(cfg)
        clean = build_couplings(job.table, job.model).matrix()
        want = []
        for k in cfg["broadening"]["ks"]:
            k = 2.0 * math.pi * round(k * 40 / (2.0 * math.pi)) / 40
            vals = [plane_wave_broadening(
                build_couplings(_realization_table(job, r), job.model).matrix(),
                clean, k, job.table) for r in range(4)]
            want.append([k, float(np.mean(vals)), float(np.std(vals, ddof=1))])

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return build_couplings(*args, **kwargs)

        monkeypatch.setattr(scenarios, "build_couplings", counted)
        monkeypatch.setattr(disorder, "build_couplings", counted)
        derived, _ = run_scenario(cfg, tmp_path)
        # one clean pattern for the clean lattice, the 3 ensemble
        # realizations and the 4 broadening realizations
        assert len(calls) == 1
        assert derived["broadening"] == want


class TestDisplacementScaling:
    def test_fixed_draw_scales_linearly_as_delta_vanishes(self, unit_chain):
        table, model, clean = unit_chain
        draw = np.random.default_rng(3).normal(0.0, 0.02, table.positions.shape)
        k = 2 * np.pi * 10 / 100
        ratio = {}
        for s in (1.0, 0.5, 0.25):
            moved = build_couplings(displace_sites(table, s * draw), model).matrix()
            ratio[s] = plane_wave_broadening(moved, clean, k, table=table) / s
        gaps = abs(ratio[0.5] - ratio[1.0]), abs(ratio[0.25] - ratio[0.5])
        assert gaps[1] < 0.6 * gaps[0]
        assert (max(ratio.values()) - min(ratio.values())) < 0.05 * ratio[0.25]

    def test_ensemble_mean_broadening_is_linear_in_delta(self, unit_chain):
        table, model, clean = unit_chain
        k = 2 * np.pi * 10 / 100
        rng = np.random.default_rng(5)
        deltas = np.array([0.01, 0.02, 0.04])
        means = []
        for delta in deltas:
            vals = [plane_wave_broadening(
                build_couplings(displace_sites(
                    table, rng.normal(0.0, delta, table.positions.shape)),
                    model).matrix(),
                clean, k, table=table) for _ in range(12)]
            means.append(np.mean(vals))
        means = np.array(means)
        exponent = np.polyfit(np.log(deltas), np.log(means), 1)[0]
        assert 0.9 < exponent < 1.2
        intercept = np.polyfit(deltas, means, 1)[1]
        assert abs(intercept) < 0.3 * means[0]

    def test_perturbation_matches_first_order_coupling_expansion(self, unit_chain):
        table, model, clean = unit_chain
        m0 = clean.toarray()
        x0 = table.positions[:, 0]
        r0 = np.abs(x0[:, None] - x0[None, :])
        bonded = (r0 > 0) & (r0 <= model.cutoff_range)
        rng = np.random.default_rng(7)
        for _ in range(4):
            draw = rng.normal(0.0, 0.004, table.positions.shape)
            moved = build_couplings(displace_sites(table, draw), model)
            dh = moved.matrix().toarray() - m0
            x1 = x0 + draw[:, 0]
            stretch = np.abs(x1[:, None] - x1[None, :]) - r0
            first = np.zeros_like(dh)
            first[bonded] = model.alpha * r0[bonded] ** (-model.alpha - 1) * stretch[bonded]
            assert np.linalg.norm(dh - first) < 0.05 * np.linalg.norm(dh)


class TestBreakdownScan:
    def test_grid_must_be_ascending(self, chain, thick_job):
        with pytest.raises(ValueError, match="ascending"):
            breakdown_scan(thick_job, [0.02, 0.01])

    def test_zero_delta_row_is_exact(self, scan):
        row = scan.rows[0]
        assert (row.delta, row.ratio_mean, row.ratio_stderr) == (0.0, 1.0, 0.0)

    def test_clean_protocol_focuses(self, scan):
        assert scan.sigma_f_clean < scan.sigma0 / 2

    @pytest.mark.parametrize("deltas", [[0.0, 0.005, 0.02], [0.0]])
    def test_clean_width_is_the_protocol(self, thick_job, deltas):
        """The clean width, read from the first nonzero delta's ensemble or,
        on a grid of zeros, from the protocol, is the protocol's bit for
        bit, and each ratio divides by it."""
        job = replace(thick_job, model=PowerLaw(1.0, 6.0), realizations=2)
        result = breakdown_scan(job, deltas)
        clean = run_protocol(job.table, job)[1]
        assert result.sigma_f_clean == clean
        for row in result.rows[1:]:
            ratio = run_ensemble(replace(job, kind=Displacement(row.delta))).sigma_f / clean
            assert row.ratio_mean == float(ratio.mean())

    def test_one_pattern_and_one_clean_row_per_scan(self, monkeypatch, thick_job):
        """Every nonzero delta's ensemble is written from one clean pattern,
        and only the first evolves the clean lattice, as an extra row of
        its first chunk: the stacks hold the realizations and one clean
        row, in as many stacks as the realizations alone fill, here one
        full chunk per delta."""
        from spinlens import disorder

        job = replace(thick_job, model=PowerLaw(1.0, 6.0))
        size = _STACK_NNZ // (_CleanPattern(job).data.size + job.table.n_sites)
        job = replace(job, realizations=size)
        deltas, blocks, patterns = [0.0, 0.005, 0.02, 0.08], [], []
        apply, init = _PatternPlan.apply, disorder._CleanPattern.__init__

        def counted_apply(plan, values, *args, **kwargs):
            blocks.append(len(values))
            return apply(plan, values, *args, **kwargs)

        def counted_init(pattern, *args, **kwargs):
            patterns.append(pattern)
            return init(pattern, *args, **kwargs)

        monkeypatch.setattr(_PatternPlan, "apply", counted_apply)
        monkeypatch.setattr(disorder._CleanPattern, "__init__", counted_init)
        result = breakdown_scan(job, deltas)
        monkeypatch.undo()
        assert len(patterns) == 1
        assert blocks == [size + 1, size, size]
        assert result.sigma_f_clean == run_protocol(job.table, job)[1]

    def test_width_ratio_grows_with_disorder(self, scan):
        means = [row.ratio_mean for row in scan.rows]
        assert means == sorted(means)
        assert all(row.ratio_stderr >= 0.0 for row in scan.rows)

    def test_critical_delta_is_the_first_doubling(self, scan):
        assert scan.rows[1].ratio_mean < 2.0 < scan.rows[2].ratio_mean
        assert scan.delta_c == 0.02

    def test_critical_delta_nan_without_breakdown(self):
        result = BreakdownResult(sigma0=8.0, sigma_f_clean=2.0, duration=10.0,
                                 rows=[BreakdownRow(0.0, 1.0, 0.0),
                                       BreakdownRow(0.005, 1.2, 0.05)])
        assert math.isnan(result.delta_c)
