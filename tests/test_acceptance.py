"""End-to-end checks of the headline quantitative results, one per criterion.

Each test computes its figures of merit, records a ``criterion NN PASS/FAIL``
line (printed as a section after the run, see conftest), and then asserts the
gates. Tests marked ``slow`` run whole scenarios in their fixtures (optimizer
scans at N = 800, the large few-excitation sectors, the disorder ensembles):
4 to 39 s each and about 60 s together, the largest part of the runtime;
``-m "not slow"`` keeps the quick ones.

The strong-kick thin-lens check (criterion 4) fails by design: its kick
strength sits far above the aberration optimum, where no simulation of the
defined operators can reach the continuum focal width. The weak-kick
companion test passes the same 5% gates, isolating the closed forms
themselves. README and the test docstring carry the analysis.
"""

import math

import numpy as np
import pytest

from conftest import dense_evolution, record_acceptance
from spinlens import (
    NearestNeighbor,
    ThickPolynomial,
    ThinPulse,
    blockade_radius,
    build_couplings,
    build_lattice,
    build_mb_hamiltonian,
    continuum_thick,
    continuum_thin,
    density_profile,
    enumerate_basis,
    evolve,
    evolve_mb,
    gaussian_packet,
    gaussian_width,
    optimize_lens,
    phase_imprint,
    potential_profile,
    symmetric_initial_state,
    thin_phase_profile,
    thresholds,
    wigner_lattice,
)
from spinlens.scenarios import prepare_config, run_scenario

MASTER_SEED = 20260816


def _width_scan(terms, state, table, t_lo, t_hi, n, tol=1e-8):
    """Minimum packet width over [t_lo, t_hi]: returns (t_min, w_min)."""
    times = np.linspace(t_lo, t_hi, n)
    t_prev = state.time
    best_t, best_w = None, np.inf
    for t in times:
        state = evolve(terms, state, t - t_prev, tol=tol)
        t_prev = t
        w = gaussian_width(state, table)
        if w < best_w:
            best_t, best_w = t, w
    return best_t, best_w


def _thin_focus_minimum(phi0, sigma0, t_lo_frac, t_hi_frac, n=81):
    table = build_lattice((800,))
    pred = continuum_thin(phi0, sigma0)
    design = ThinPulse(phi0=phi0, focus=tuple(table.center()))
    state = phase_imprint(gaussian_packet(table, sigma0),
                          thin_phase_profile(design, table))
    terms = build_couplings(table, NearestNeighbor(1.0))
    t_sim, w_sim = _width_scan(terms, state, table,
                               t_lo_frac * pred.focal_time,
                               t_hi_frac * pred.focal_time, n)
    return pred, t_sim, w_sim


def _peaks(density, lo, hi, min_fraction=0.2):
    """Interior local maxima of ``density`` on sites [lo, hi], ignoring bumps
    below ``min_fraction`` of the window maximum."""
    floor = min_fraction * density[lo:hi + 1].max()
    return [i for i in range(max(lo, 1), min(hi, len(density) - 2) + 1)
            if density[i] > density[i - 1] and density[i] >= density[i + 1]
            and density[i] > floor]


# --- criterion 1: continuum width oscillation -------------------------------


def test_criterion_01_thick_width_tracks_continuum():
    """A weak thick lens on a long chain reproduces the breathing curve
    sigma(t)^2 = sigma0^2 [cos^2(wt) + (l/sigma0)^4 sin^2(wt)] to 2%."""
    table = build_lattice((2048,))
    v0, sigma0 = 1.0e-5, 30.0
    pred = continuum_thick(v0, sigma0)
    design = ThickPolynomial((v0,), tuple(table.center()))
    terms = build_couplings(table, NearestNeighbor(1.0)).with_diagonal(
        potential_profile(design, table))
    state = gaussian_packet(table, sigma0)
    period = 2.0 * math.pi / pred.omega
    n = 48
    dt = period / n
    worst = abs(gaussian_width(state, table) / sigma0 - 1.0)
    for i in range(1, n + 1):
        state = evolve(terms, state, dt)
        ref = float(pred.width(i * dt))
        worst = max(worst, abs(gaussian_width(state, table) - ref) / ref)
    ok = worst <= 0.02
    record_acceptance(1, ok, "thick sigma(t) max rel dev %.4f from continuum "
                             "over one period (gate 0.02)" % worst)
    assert worst <= 0.02


# --- criterion 2: two-stage cascade ------------------------------------------


@pytest.fixture(scope="session")
def cascade_run(tmp_path_factory):
    cfg = prepare_config({"scenario": "cascade"})
    derived, _ = run_scenario(cfg, tmp_path_factory.mktemp("cascade"))
    return derived


def test_criterion_02_cascade_stage_widths(cascade_run):
    """Sixth-order optimized lens at sigma0=100a focuses to 2.7a; feeding the
    focused packet through a second optimized stage reaches 1.2a."""
    s1 = cascade_run["stage1"]["sigma_f [a]"]
    s2 = cascade_run["stage2"]["sigma_f [a]"]
    on_edge = (cascade_run["stage1"]["grid_boundary"]
               or cascade_run["stage2"]["grid_boundary"])
    ok = abs(s1 - 2.7) <= 0.4 and abs(s2 - 1.2) <= 0.3 and not on_edge
    record_acceptance(2, ok, "cascade stage widths %.2fa / %.2fa "
                             "(gates 2.7+-0.4a, 1.2+-0.3a)" % (s1, s2))
    assert not on_edge
    assert s1 == pytest.approx(2.7, abs=0.4)
    assert s2 == pytest.approx(1.2, abs=0.3)


# --- criterion 3: optimal-width scaling law ----------------------------------


@pytest.fixture(scope="session")
def scaling_run(tmp_path_factory):
    cfg = prepare_config({"scenario": "scaling_fit",
                          "scan": {"orders": [2, 4, 6]}})
    derived, _ = run_scenario(cfg, tmp_path_factory.mktemp("scaling"))
    return {(f["kind"], f["order"]): f for f in derived["fits"]}


@pytest.mark.slow
def test_criterion_03_focal_width_scaling(scaling_run):
    """Optimal focal widths follow kappa * sigma0^(1/3) for quadratic lenses
    (kappa = 0.68 thick, 0.80 thin) and flatten with lens order."""
    thick2 = scaling_run[("thick", 2)]
    thin2 = scaling_run[("thin", 2)]
    q_slopes = [scaling_run[("thick", q)]["slope"] for q in (2, 4, 6)]
    ok = (abs(thick2["slope"] - 1.0 / 3.0) <= 0.07
          and abs(thin2["slope"] - 1.0 / 3.0) <= 0.07
          and abs(thick2["kappa_mean"] / 0.68 - 1.0) <= 0.15
          and abs(thin2["kappa_mean"] / 0.80 - 1.0) <= 0.15
          and q_slopes[0] > q_slopes[1] > q_slopes[2])
    record_acceptance(
        3, ok,
        "Q2 slopes %.3f/%.3f (thick/thin, gate 1/3+-0.07), kappa %.3f/%.3f "
        "(gates 0.68/0.80 +-15%%), thick slope chain %.3f > %.3f > %.3f"
        % (thick2["slope"], thin2["slope"], thick2["kappa_mean"],
           thin2["kappa_mean"], *q_slopes))
    assert thick2["slope"] == pytest.approx(1.0 / 3.0, abs=0.07)
    assert thin2["slope"] == pytest.approx(1.0 / 3.0, abs=0.07)
    assert thick2["kappa_mean"] == pytest.approx(0.68, rel=0.15)
    assert thin2["kappa_mean"] == pytest.approx(0.80, rel=0.15)
    assert q_slopes[0] > q_slopes[1] > q_slopes[2]


# --- criterion 4: thin-lens closed forms --------------------------------------


def test_criterion_04_thin_lens_closed_forms_strong_kick():
    """Focal time and width at phi0 = phi_BO/2 against the closed forms, 5%.

    This check fails, and the failure is physical: at sigma0 = 50a the
    continuum focal width (1.0a) lies far below the lattice aberration floor
    kappa * sigma0^(1/3) ~ 3a, because phi0 = 0.01 sits ~3x above the
    aberration-balance optimum phi ~ sigma0^(-4/3). No simulation of these
    operators can reach the continuum prediction there. The weak-kick
    companion below passes the identical gates, so the closed forms and the
    simulator agree wherever the continuum description holds.
    """
    sigma0 = 50.0
    phi0 = 0.5 * thresholds(sigma0=sigma0)["phi_bo"]
    pred, t_sim, w_sim = _thin_focus_minimum(phi0, sigma0, 0.1, 2.0, n=101)
    t_err = abs(t_sim - pred.focal_time) / pred.focal_time
    w_err = abs(w_sim - pred.focal_width) / pred.focal_width
    ok = t_err <= 0.05 and w_err <= 0.05
    record_acceptance(4, ok, "strong kick (phi0=phi_BO/2) rel err: time %.3f, "
                             "width %.2f (gates 0.05); aberration floor, "
                             "weak-kick companion passes" % (t_err, w_err))
    assert t_err <= 0.05
    assert w_err <= 0.05


def test_thin_lens_closed_forms_weak_kick():
    """Same comparison in the continuum regime (phi0 well below the
    aberration optimum): both closed forms hold to 5%."""
    pred, t_sim, w_sim = _thin_focus_minimum(0.002, 50.0, 0.6, 1.4)
    assert t_sim == pytest.approx(pred.focal_time, rel=0.05)
    assert w_sim == pytest.approx(pred.focal_width, rel=0.05)


# --- criterion 5: onset of Bloch-oscillation breakdown ------------------------


def test_criterion_05_bloch_onset_blocks_focusing():
    """At v0 = 2 v_BO the packet wings Bloch-oscillate instead of focusing:
    the best width stays >= 2x the continuum focal width, and eigenvectors
    centered beyond sigma_BO carry no weight near the focus."""
    sigma0 = 30.0
    scales = thresholds(sigma0=sigma0)
    v0 = 2.0 * scales["v_bo"]
    sigma_bo = thresholds(v0=v0)["sigma_bo"]
    table = build_lattice((301,))
    pred = continuum_thick(v0, sigma0)
    design = ThickPolynomial((v0,), tuple(table.center()))
    terms = build_couplings(table, NearestNeighbor(1.0)).with_diagonal(
        potential_profile(design, table))
    state = gaussian_packet(table, sigma0)
    _, w_min = _width_scan(terms, state, table, 0.0, 2.0 * pred.focal_time, 81)
    ratio = w_min / pred.focal_width

    x = table.positions[:, 0] - table.center()[0]
    _, vecs = np.linalg.eigh(terms.matrix().toarray())
    weight = np.abs(vecs) ** 2
    centers = x @ weight
    outside = np.abs(centers) > sigma_bo
    core_weight = weight[np.abs(x) <= sigma_bo / 4.0][:, outside].sum(axis=0)
    max_core = float(core_weight.max())

    ok = ratio >= 2.0 and outside.any() and max_core < 1e-6
    record_acceptance(5, ok, "min width %.1fx continuum focal width (gate "
                             ">=2); %d outlying eigenvectors, max core "
                             "weight %.1e (gate <1e-6)"
                             % (ratio, int(outside.sum()), max_core))
    assert ratio >= 2.0
    assert outside.any()
    assert max_core < 1e-6


# --- criterion 6: long-range couplings ----------------------------------------


@pytest.fixture(scope="session")
def longrange_run(tmp_path_factory):
    cfg = prepare_config({"scenario": "longrange_alpha",
                          "scan": {"alphas": [2.0, 6.0]}})
    derived, _ = run_scenario(cfg, tmp_path_factory.mktemp("longrange"))
    return derived


def test_criterion_06_longrange_alpha(longrange_run):
    """alpha = 6 focuses like nearest-neighbor (kappa within 10%); alpha = 2
    fails to focus (more than 3x wider at sigma0 = 20a)."""
    kappa, width = longrange_run["kappa"], longrange_run["sigma_f"]
    rel = abs(kappa["alpha=6"] - kappa["nn"]) / kappa["nn"]
    ratio = width["alpha=2"] / width["alpha=6"]
    ok = rel < 0.10 and ratio > 3.0
    record_acceptance(6, ok, "kappa(alpha=6) vs NN rel diff %.3f (gate <0.10); "
                             "width ratio alpha=2 / alpha=6 = %.2f (gate >3)"
                             % (rel, ratio))
    assert rel < 0.10
    assert ratio > 3.0


# --- criterion 7: two-focus splitter ------------------------------------------


@pytest.fixture(scope="session")
def multifocal_run(tmp_path_factory):
    offset = 10.0 * math.sqrt(2.0)
    cfg = prepare_config({
        "scenario": "multifocal2d",
        "lattice": {"extents": [50, 50]},
        "lens": {"foci": [[24.5, 24.5 - offset], [24.5, 24.5 + offset]]},
    })
    derived, _ = run_scenario(cfg, tmp_path_factory.mktemp("multifocal"))
    return derived


def test_criterion_07_two_focus_split(multifocal_run):
    """A two-focus lens on a 50x50 lattice splits the packet evenly. The
    target state restricts the evolved state to each focal disk, normalizes,
    and superposes equally, so the overlap fidelity is
    (sqrt(P1) + sqrt(P2))^2 / 2."""
    p1 = multifocal_run["p_foc"]["0"]
    p2 = multifocal_run["p_foc"]["1"]
    fidelity = 0.5 * (math.sqrt(p1) + math.sqrt(p2)) ** 2
    asym = abs(p1 - p2) / (0.5 * (p1 + p2))
    ok = fidelity >= 0.7 and asym <= 0.05
    record_acceptance(7, ok, "two-focus fidelity %.3f (gate >=0.7), P_foc "
                             "asymmetry %.4f (gate <=0.05)" % (fidelity, asym))
    assert fidelity >= 0.7
    assert asym <= 0.05


# --- criterion 8: interaction-limited focusing --------------------------------

_JZ = 5.0e3


@pytest.fixture(scope="session")
def blockade_lens():
    """Optimized quadratic thick lens for sigma0 = 10a on 61 sites, shared by
    the nu = 1, 2, 3 runs."""
    table = build_lattice((61,))
    model = NearestNeighbor(1.0)
    res = optimize_lens(table, model, 10.0, kind="thick", order=2)
    terms = build_couplings(table, model).with_diagonal(
        potential_profile(res.design, table))
    return table, terms, res


def _blockade_density(table, terms, nu, t_f):
    basis = enumerate_basis(table, nu)
    sector = build_mb_hamiltonian(terms, basis, jz=_JZ, table=table)
    state = symmetric_initial_state(gaussian_packet(table, 10.0), nu, basis)
    return density_profile(evolve_mb(sector, state, t_f, tol=1e-8), basis)


@pytest.mark.slow
def test_criterion_08_blockade_peak_structure(blockade_lens):
    """With J_z = 5000 J (r_B = 4.1a) the focus cannot hold two excitations:
    nu = 1 focuses to one central peak, nu = 2 to a symmetric doublet about
    one blockade radius apart with an empty center, nu = 3 to three peaks.
    Peaks are searched on the central half of the chain; the open boundary
    reflects the far tails into spurious edge maxima."""
    table, terms, res = blockade_lens
    focus = int(round(table.center()[0]))
    lo, hi = focus - 15, focus + 15
    r_b = blockade_radius(_JZ)

    d1 = _blockade_density(table, terms, 1, res.focal_time)
    peaks1 = _peaks(d1, lo, hi)

    d2 = _blockade_density(table, terms, 2, res.focal_time)
    peaks2 = _peaks(d2, lo, hi)
    if len(peaks2) == 2:
        separation = float(peaks2[1] - peaks2[0])
        center_frac = d2[focus] / (d2[peaks2[0]] + d2[peaks2[1]])
        doublet_ok = (abs(0.5 * (peaks2[0] + peaks2[1]) - focus) <= 0.5
                      and 0.8 * r_b <= separation <= 2.0 * r_b
                      and center_frac < 0.10)
    else:
        separation, center_frac, doublet_ok = float("nan"), float("nan"), False

    d3 = _blockade_density(table, terms, 3, res.focal_time)
    peaks3 = _peaks(d3, lo, hi)
    triplet_ok = (len(peaks3) == 3 and abs(peaks3[1] - focus) <= 1
                  and abs((peaks3[2] - focus) + (peaks3[0] - focus)) <= 1)

    ok = peaks1 == [focus] and doublet_ok and triplet_ok
    record_acceptance(8, ok, "nu=1 peaks %s; nu=2 separation %.1fa (gate "
                             "[%.1f, %.1f]a), center %.3f of peak sum (gate "
                             "<0.10); nu=3 peaks %s"
                             % (peaks1, separation, 0.8 * r_b, 2.0 * r_b,
                                center_frac, peaks3))
    assert peaks1 == [focus]
    assert len(peaks2) == 2
    assert abs(0.5 * (peaks2[0] + peaks2[1]) - focus) <= 0.5
    assert 0.8 * r_b <= separation <= 2.0 * r_b
    assert center_frac < 0.10
    assert triplet_ok


# --- criterion 9: hole robustness ---------------------------------------------


@pytest.fixture(scope="session")
def holes_chain_run(tmp_path_factory):
    cfg = prepare_config({"scenario": "holes", "master_seed": MASTER_SEED})
    derived, _ = run_scenario(cfg, tmp_path_factory.mktemp("holes1d"))
    return derived


@pytest.fixture(scope="session")
def holes_plane_run(tmp_path_factory):
    cfg = prepare_config({"scenario": "holes", "master_seed": MASTER_SEED,
                          "lattice": {"extents": [70, 70]},
                          "disorder": {"count": 10, "realizations": 400}})
    derived, _ = run_scenario(cfg, tmp_path_factory.mktemp("holes2d"))
    return derived


@pytest.mark.slow
def test_criterion_09_hole_robustness(holes_chain_run, holes_plane_run):
    """One hole out of 70 sites costs >= 15% of the focal capture in 1D;
    ten holes in a 70x70 plane cost at most 20% of it."""
    drop = holes_chain_run["relative_drop"]
    ratio = holes_plane_run["mean_p_foc"] / holes_plane_run["clean_p_foc"]
    ok = drop >= 0.15 and ratio >= 0.8
    record_acceptance(9, ok, "1 hole/70 sites: mean P_foc drop %.3f (gate "
                             ">=0.15); 10 holes/70x70: mean/clean %.3f "
                             "(gate >=0.8)" % (drop, ratio))
    assert drop >= 0.15
    assert ratio >= 0.8


# --- criterion 10: displacement breakdown -------------------------------------


@pytest.fixture(scope="session")
def breakdown_run(tmp_path_factory):
    cfg = prepare_config({"scenario": "breakdown", "master_seed": MASTER_SEED})
    out = tmp_path_factory.mktemp("breakdown")
    derived, _ = run_scenario(cfg, out)
    rows = np.genfromtxt(out / "breakdown.csv", delimiter=",", skip_header=1)
    return derived, rows


@pytest.mark.slow
def test_criterion_10_displacement_breakdown(breakdown_run):
    """Width degradation under position scatter: exactly 1 at delta = 0,
    monotone in delta, and the crossover obeys delta_c ~ 1/t_foc (the product
    is constant within a factor 2 when sigma0 doubles)."""
    derived, rows = breakdown_run
    products = [c["delta_c_times_t_foc"] for c in derived["crossovers"]]
    for sigma0 in (10.0, 20.0):
        sub = rows[rows[:, 0] == sigma0]
        sub = sub[np.argsort(sub[:, 1])]
        assert sub[0, 1] == 0.0 and sub[0, 2] == 1.0
        assert np.all(np.diff(sub[:, 2]) > 0)
    assert np.isfinite(products).all()
    spread = max(products) / min(products)
    ok = spread <= 2.0
    record_acceptance(10, ok, "ratio(delta=0)=1 exactly, monotone; "
                              "delta_c*t_foc = %.3f / %.3f, spread x%.2f "
                              "(gate <=x2)" % (products[0], products[1], spread))
    assert spread <= 2.0


# --- criterion 11: propagator and Wigner oracles ------------------------------


def test_criterion_11_oracles():
    """Chebyshev evolution against dense diagonalization on 12 sites (single
    and two-excitation), norm and energy conservation, and both Wigner
    marginal identities."""
    table = build_lattice((12,))
    design = ThickPolynomial((0.04,), tuple(table.center()))
    terms = build_couplings(table, NearestNeighbor(1.0)).with_diagonal(
        potential_profile(design, table))
    psi0 = gaussian_packet(table, 2.5, k0=0.4)
    t = 7.3
    state = evolve(terms, psi0, t, tol=1e-12)
    err_single = np.abs(
        state.amplitudes - dense_evolution(terms.matrix(), psi0.amplitudes, t)
    ).max()

    basis = enumerate_basis(table, 2)
    sector = build_mb_hamiltonian(terms, basis, jz=8.0, table=table)
    mb0 = symmetric_initial_state(psi0, 2, basis)
    mb = evolve_mb(sector, mb0, t, tol=1e-12)
    err_mb = np.abs(
        mb.amplitudes - dense_evolution(sector.matrix, mb0.amplitudes, t)
    ).max()

    h = terms.matrix()
    norm_err = abs(np.linalg.norm(state.amplitudes) - 1.0)
    e0 = np.vdot(psi0.amplitudes, h @ psi0.amplitudes).real
    e1 = np.vdot(state.amplitudes, h @ state.amplitudes).real
    energy_err = abs(e1 - e0) / abs(e0)

    chain = build_lattice((64,))
    st = phase_imprint(
        gaussian_packet(chain, 6.0, k0=0.7),
        thin_phase_profile(ThinPulse(0.01, tuple(chain.center())), chain))
    grid = wigner_lattice(st, chain)
    pos_err = np.abs(grid.position_marginal()
                     - np.abs(st.amplitudes) ** 2).max()
    dk = grid.k[1] - grid.k[0]
    mom_err = abs(grid.momentum_marginal().sum() * dk - 1.0)

    ok = (err_single <= 1e-9 and err_mb <= 1e-9 and norm_err <= 1e-9
          and energy_err <= 1e-9 and pos_err <= 1e-6 and mom_err <= 1e-6)
    record_acceptance(11, ok, "evolve vs dense %.1e (single) / %.1e (nu=2), "
                              "norm %.1e, energy %.1e (gates 1e-9); Wigner "
                              "marginals %.1e / %.1e (gates 1e-6)"
                              % (err_single, err_mb, norm_err, energy_err,
                                 pos_err, mom_err))
    assert err_single <= 1e-9
    assert err_mb <= 1e-9
    assert norm_err <= 1e-9
    assert energy_err <= 1e-9
    assert pos_err <= 1e-6
    assert mom_err <= 1e-6


# --- criterion 12: physical numbers -------------------------------------------


@pytest.fixture(scope="session")
def rydberg_run(tmp_path_factory):
    cfg = prepare_config({"scenario": "rydberg_tables",
                          "focus": {"sigma0": 100.0, "lifetime": 252.0}})
    derived, _ = run_scenario(cfg, tmp_path_factory.mktemp("rydberg"))
    return derived


def test_criterion_12_dressed_rydberg_numbers(rydberg_run):
    """Dressing with Omega/2pi = 10 MHz, Delta/2pi = -20 MHz at the exchange
    peak gives J/2pi = 0.36 MHz (10%); a sigma0 = 100a packet then focuses in
    about 5 us (20%), i.e. ~2% of the 252 us zero-temperature lifetime of the
    60S Rydberg state (30%)."""
    j2pi = rydberg_run["hopping_over_2pi [E/2pi]"]
    t_f = rydberg_run["focal_time_estimate [1/E]"]
    ratio = rydberg_run["focal_time_over_lifetime"]
    ok = (abs(j2pi / 0.36 - 1.0) <= 0.10
          and abs(t_f / 5.0 - 1.0) <= 0.20
          and abs(ratio / 0.02 - 1.0) <= 0.30)
    record_acceptance(12, ok, "J/2pi = %.3f MHz (0.36 +-10%%), t_f = %.2f us "
                              "(5 +-20%%), t_f/lifetime = %.4f (0.02 +-30%%)"
                              % (j2pi, t_f, ratio))
    assert j2pi == pytest.approx(0.36, rel=0.10)
    assert t_f == pytest.approx(5.0, rel=0.20)
    assert ratio == pytest.approx(0.02, rel=0.30)
