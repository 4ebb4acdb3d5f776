import math
from dataclasses import replace

import numpy as np
import pytest

from spinlens.disorder import (BreakdownResult, BreakdownRow, Displacement,
                               EnsembleJob, Holes, _chunks, _CleanPattern,
                               _protocol_start, _realization_table, _Streams,
                               breakdown_scan, plane_wave_broadening,
                               run_ensemble, run_protocol)
from spinlens.lattice import (NearestNeighbor, PowerLaw, build_couplings,
                              build_lattice, displace_sites, punch_holes)
from spinlens.propagator import spectral_bounds
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
    more than one chunk of realizations (``disorder._chunks``)."""
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
    return EnsembleJob(table=table, model=PowerLaw(1.0, 6.0), design=design,
                       sigma0=8.0, duration=duration, kind=Displacement(0.01),
                       realizations=20, master_seed=11)


class TestBatchedEnsemble:
    @pytest.mark.parametrize("name", ENSEMBLE_CASES)
    def test_equals_one_protocol_per_realization(self, name):
        job = _ensemble_case(name)
        stats = run_ensemble(job)
        alone = [run_protocol(_realization_table(job, r), job)
                 for r in range(job.realizations)]
        assert [tuple(rec) for rec in zip(stats.p_foc, stats.sigma_f)] == alone

    @pytest.mark.parametrize("name", THICK_CASES)
    def test_thick_cases_fill_more_than_one_stack(self, monkeypatch, name):
        from spinlens import propagator

        job, sizes = _ensemble_case(name), []
        stacked = propagator._stacked_operator

        def counted(hs, *args):
            sizes.append(len(hs))
            return stacked(hs, *args)

        monkeypatch.setattr(propagator, "_stacked_operator", counted)
        run_ensemble(job)
        assert len(sizes) >= 2 and sum(sizes) == job.realizations

    @pytest.mark.parametrize("name", ENSEMBLE_CASES)
    def test_pattern_cut_equals_assembled_terms(self, name):
        """Each realization's H and bounds, cut alone and in its chunk."""
        job = _ensemble_case(name)
        pattern = _CleanPattern(job)
        chunks = list(_chunks(job, pattern, job.realizations))
        assert len(chunks) >= (2 if name in THICK_CASES else 1)
        cuts = [cut for *_, chunk in chunks for cut in chunk]
        assert len(cuts) == job.realizations
        for r, chunked in enumerate(cuts):
            table = _realization_table(job, r)
            terms, _ = _protocol_start(table, job)
            want = terms.matrix()
            for h, bounds in (pattern.cut(table), chunked):
                for attr in ("indptr", "indices", "data"):
                    assert getattr(h, attr).tobytes() == getattr(want, attr).tobytes()
                assert h.has_canonical_format and bounds == terms.bounds()

    def test_vanishing_couplings_are_dropped_from_displaced_cuts(self):
        """Power-law couplings that underflow to zero (alpha = 700: the
        r ~ 3 pairs) are dropped from a displaced realization as assembly
        drops them, through the masked form of the chunked cut."""
        job = EnsembleJob(table=build_lattice((40,)),
                          model=PowerLaw(1.0, 700.0, cutoff_range=3.0),
                          design=ThickPolynomial((0.01,), (19.5,)), sigma0=4.0,
                          duration=3.0, kind=Displacement(1e-4), realizations=5,
                          master_seed=3)
        with np.errstate(over="ignore"):
            pattern = _CleanPattern(job)
            cuts = [cut for *_, chunk in _chunks(job, pattern, 5) for cut in chunk]
            for r, (h, bounds) in enumerate(cuts):
                terms, _ = _protocol_start(_realization_table(job, r), job)
                want = terms.matrix()
                assert h.nnz < pattern.data.size
                for attr in ("indptr", "indices", "data"):
                    assert getattr(h, attr).tobytes() == getattr(want, attr).tobytes()
                assert bounds == terms.bounds()
            stats = run_ensemble(job)
            assert list(zip(stats.p_foc, stats.sigma_f)) == [
                run_protocol(_realization_table(job, r), job) for r in range(5)]

    def test_a_hole_leaves_the_bounds(self):
        """A hole's on-site energy is no part of its realization's H: with
        the hole where the lens potential peaks, the chain's far end, the
        Gershgorin enclosure is the active sites' alone."""
        design = ThickPolynomial((0.05,), (15.0,))
        job = EnsembleJob(table=build_lattice((41,)), model=NearestNeighbor(1.0),
                          design=design, sigma0=4.0, duration=1.0, kind=Holes(1),
                          realizations=1, master_seed=1)
        table = punch_holes(job.table, [(40,)])
        h, bounds = _CleanPattern(job).cut(table)
        terms, _ = _protocol_start(table, job)
        assert bounds == terms.bounds() == spectral_bounds(h)
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
    def test_each_realization_is_built_once(self, tmp_path, monkeypatch):
        from spinlens import disorder, scenarios
        from spinlens.scenarios import _ensemble_job, prepare_config, run_scenario

        cfg = prepare_config({
            "scenario": "displacement", "master_seed": 4,
            "lattice": {"extents": [40]}, "packet": {"sigma0": 4.0},
            "coupling": {"model": "powerlaw", "alpha": 6.0},
            "disorder": {"delta": 0.01, "realizations": 3},
            "broadening": {"ks": [0.5, 1.0, 1.5], "realizations": 4}})
        job, _ = _ensemble_job(cfg, Displacement(0.01))
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
        # the clean protocol, then one clean pattern each for the 3 ensemble
        # realizations and for the 4 broadening realizations
        assert len(calls) == 1 + 1 + 1
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
