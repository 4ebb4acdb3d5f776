"""Named experiment scenarios behind the command-line runner.

Every scenario reads a nested config (units: energies in J, lengths in a,
times in 1/J), runs the corresponding experiment, and writes plain CSV
data plus derived parameters for the manifest. Defaults are desk-scale
setups that run in seconds to minutes; any key can be overridden from the
config file, unknown keys are rejected.
"""

from __future__ import annotations

import copy
import math
from pathlib import Path

import numpy as np

from . import io_utils
from .disorder import (Displacement, EnsembleJob, Holes, _broadening, _CleanPattern, _delta_grid,
                       _perturbations, breakdown_scan, run_ensemble)
from .lattice import NearestNeighbor, PowerLaw, build_couplings, build_lattice
from .lens import (Multifocal, ThickPolynomial, ThinPulse, _check_design, _parabola_vertex,
                   clipped_thick_terms, continuum_thick, continuum_thin,
                   corrected_focal_time, optimize_lens, potential_profile,
                   thin_phase_profile, thresholds)
from .manybody import (MAX_EXCITATIONS, blockade_radius, build_mb_hamiltonian,
                       density_profile, enumerate_basis, pair_distance_distribution,
                       symmetric_initial_state)
from .propagator import TOL_RANGE, evolution_path
from .rydberg import (ChannelC6, DressingParams, dressed_couplings,
                      effective_potentials, exchange_peak, vdw_iso_aniso)
from .wavepacket import (evolve, focus_probability, gaussian_packet, gaussian_width,
                         gaussian_widths, phase_imprint)


class ConfigError(ValueError):
    """Config rejected: unknown key, bad section type, unknown scenario, or a
    value no run of the scenario can use."""


_EVOLUTION = {"t_max": None, "n_samples": 160, "tol": 1.0e-8}
_COUPLING = {"model": "nn", "hopping": 1.0, "alpha": 6.0, "cutoff_range": 20.0}

DEFAULTS = {
    "thick1d": {
        "lattice": {"extents": [1024], "spacing": 1.0},
        "coupling": dict(_COUPLING),
        "packet": {"sigma0": 100.0, "center": None, "k0": None},
        "lens": {"v0": 2.0e-6, "focus": None},
        "evolution": dict(_EVOLUTION),
    },
    "thin1d": {
        "lattice": {"extents": [1024], "spacing": 1.0},
        "coupling": dict(_COUPLING),
        "packet": {"sigma0": 50.0, "center": None, "k0": None},
        "lens": {"phi0": 2.0e-3, "profile": "parabolic", "focus": None},
        "evolution": dict(_EVOLUTION),
    },
    "cascade": {
        "lattice": {"extents": [800], "spacing": 1.0},
        "coupling": dict(_COUPLING),
        "packet": {"sigma0": 100.0},
        "lens": {"order": 6, "focus": None},
        "evolution": {"tol": 1.0e-8, "n_time": 200},
    },
    "scaling_fit": {
        "lattice": {"extents": [800], "spacing": 1.0},
        "coupling": dict(_COUPLING),
        "scan": {"sigma0": [10.0, 20.0, 40.0, 80.0],
                 "kinds": ["thick", "thin"], "orders": [2]},
        "evolution": {"tol": 1.0e-8, "n_time": 200},
    },
    "multifocal2d": {
        "lattice": {"extents": [61, 61], "spacing": 1.0},
        "coupling": dict(_COUPLING),
        "packet": {"sigma0": 10.0, "center": None},
        "lens": {"v0": 4.5e-3, "foci": [[15, 30], [45, 30]]},
        "evolution": {"t_max": None, "tol": 1.0e-8},
    },
    "longrange_alpha": {
        "lattice": {"extents": [400], "spacing": 1.0},
        "coupling": {"hopping": 1.0, "cutoff_range": 20.0},
        "packet": {"sigma0": 20.0},
        "scan": {"alphas": [2.0, 3.0, 6.0], "include_nn": True},
        "evolution": {"tol": 1.0e-8, "n_time": 200},
    },
    "nonlinear": {
        "lattice": {"extents": [61], "spacing": 1.0},
        "coupling": dict(_COUPLING),
        "packet": {"sigma0": 10.0},
        "lens": {"v0": None, "focus": None},
        "interaction": {"nu": 2, "jz": 5.0e3, "power": 6.0,
                        "literal_sigma_z": False},
        "evolution": {"n_samples": 8, "tol": 1.0e-8},
    },
    "holes": {
        "lattice": {"extents": [70], "spacing": 1.0},
        "coupling": dict(_COUPLING),
        "packet": {"sigma0": 14.0},
        "lens": {"v0": None, "focus": None},
        "disorder": {"count": 1, "realizations": 1000},
        "evolution": {"tol": 1.0e-8},
    },
    "displacement": {
        "lattice": {"extents": [200], "spacing": 1.0},
        "coupling": dict(_COUPLING, model="powerlaw"),
        "packet": {"sigma0": 20.0},
        "lens": {"v0": None, "focus": None},
        "disorder": {"delta": 0.005, "realizations": 200},
        "broadening": {"ks": [0.5, 1.0, 1.5], "realizations": 20},
        "evolution": {"tol": 1.0e-8},
    },
    "breakdown": {
        "lattice": {"extents": [320], "spacing": 1.0},
        "coupling": dict(_COUPLING, model="powerlaw"),
        "scan": {"sigma0": [10.0, 20.0],
                 "deltas": [0.0, 1.0e-3, 1.4e-3, 2.0e-3, 2.8e-3, 4.0e-3,
                            5.7e-3, 8.0e-3, 1.13e-2, 1.6e-2, 2.26e-2],
                 "realizations": 50},
        "evolution": {"tol": 1.0e-8},
    },
    "rydberg_tables": {
        "dressing": {"omega": 62.8318530717958647, "delta": -125.663706143591729,
                     "xi": 0.88, "c12": None},
        "table": {"r_tilde_max": 3.0, "n_points": 400,
                  "spacing_r_tilde": None, "max_separation": 12},
        "channels": {"c6": None},
        "focus": {"sigma0": 100.0, "lifetime": None},
    },
}

SCENARIO_NAMES = tuple(sorted(DEFAULTS))


def _merge(defaults: dict, override: dict, path: str) -> dict:
    for key in override:
        if key not in defaults:
            raise ConfigError(f"unknown key '{path}.{key}'")
    out = {}
    for key, dval in defaults.items():
        if key not in override:
            out[key] = copy.deepcopy(dval)
            continue
        oval = override[key]
        if isinstance(dval, dict):
            if not isinstance(oval, dict):
                raise ConfigError(f"'{path}.{key}' must be a mapping")
            out[key] = _merge(dval, oval, f"{path}.{key}")
        else:
            out[key] = oval
    return out


def _is_number(value) -> bool:
    """True for an int or float, bools excluded."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value, low: int) -> bool:
    """True for an integer (or integral float) >= low."""
    return _is_number(value) and float(value).is_integer() and value >= low


def _as_float(value) -> float:
    """The float a run reads from ``value``; NaN when there is none."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


def prepare_config(raw: dict) -> dict:
    """Merge a raw config over the scenario defaults; reject unknown keys, a
    lattice spacing other than 1, an excitation number, Ising strength or
    power the nonlinear scenario cannot run, a scan packet width that is not
    a positive finite number or a scaling fit over fewer than two of them,
    time grids too short to step through, a propagator
    tolerance outside ``propagator.TOL_RANGE``, an end time that is not
    positive, a packet width that is not a positive finite number, every
    value the run's first constructors reject (``_run_inputs``): lattice
    extents, coupling strengths, a thick lens's strength, an ensemble's
    realizations, hole count or displacement; and a packet centre that is
    not one number per lattice axis inside the lattice."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    name = raw.get("scenario")
    if name not in DEFAULTS:
        raise ConfigError(
            f"unknown scenario {name!r}; expected one of {', '.join(SCENARIO_NAMES)}")
    body = {k: v for k, v in raw.items() if k not in ("scenario", "master_seed")}
    cfg = _merge(DEFAULTS[name], body, name)
    cfg["scenario"] = name
    cfg["master_seed"] = int(raw.get("master_seed", 12345))
    if not 0 <= cfg["master_seed"] < 2**64:
        raise ConfigError("master_seed must fit in 64 bits")
    # lengths are in lattice spacings: lens profiles, foci and packet centres
    # use integer labels, so the recorded spacing can only be 1
    spacing = cfg.get("lattice", {}).get("spacing", 1.0)
    if not (_is_number(spacing) and spacing == 1):
        raise ConfigError(f"'{name}.lattice.spacing' is fixed at 1")
    # each packet width of a scan sets its lens, and the log-log fit of a
    # scaling run needs at least two
    if name in ("scaling_fit", "breakdown"):
        widths, least = cfg["scan"]["sigma0"], 2 if name == "scaling_fit" else 1
        if not (isinstance(widths, list) and len(widths) >= least
                and all(_is_number(w) and 0 < w < math.inf for w in widths)):
            raise ConfigError(f"'{name}.scan.sigma0' must list {least} or more widths, "
                              "each a positive finite number")
    # the pair-distance output of a nonlinear run needs at least two excitations
    if name == "nonlinear" and cfg["interaction"]["nu"] not in range(2, MAX_EXCITATIONS + 1):
        raise ConfigError(
            f"'nonlinear.interaction.nu' must be an integer 2..{MAX_EXCITATIONS}")
    # the Ising tail 4 J_z / d^power and the blockade radius (J_z/J)^(1/power);
    # YAML reads a bare 5.0e3 as a string, which a run converts
    if name == "nonlinear":
        inter = cfg["interaction"]
        if not 0 <= _as_float(inter["jz"]) < math.inf:
            raise ConfigError("'nonlinear.interaction.jz' must be a finite number >= 0")
        if not 0 < _as_float(inter["power"]) < math.inf:
            raise ConfigError("'nonlinear.interaction.power' must be a finite number > 0")
    # n_samples equal steps to t_max; n_time points span each optimizer window
    for key, low in (("n_samples", 1), ("n_time", 2)):
        if key in cfg.get("evolution", {}) and not _is_count(cfg["evolution"][key], low):
            raise ConfigError(f"'{name}.evolution.{key}' must be an integer >= {low}")
    # the propagator's accuracy per call, checked here rather than mid-run
    if "tol" in cfg.get("evolution", {}):
        tol, (lo, hi) = cfg["evolution"]["tol"], TOL_RANGE
        if not (_is_number(tol) and lo <= tol <= hi):
            raise ConfigError(f"'{name}.evolution.tol' must be a number in [{lo:g}, {hi:g}] "
                              "(YAML reads a bare 1e-8 as a string: write 1.0e-8)")
    # the end of the sampled span; null takes the scenario's own time
    t_max = cfg.get("evolution", {}).get("t_max")
    if t_max is not None and not (_is_number(t_max) and 0 < t_max < math.inf):
        raise ConfigError(f"'{name}.evolution.t_max' must be null or a positive number "
                          "(YAML reads 1.0e3 as a string: write 1000.0 or 1.0e+3)")
    # the packet width sets every prediction, profile and physics lint
    if "packet" in cfg and not 0 < _as_float(cfg["packet"]["sigma0"]) < math.inf:
        raise ConfigError(f"'{name}.packet.sigma0' must be a positive finite number")
    try:
        # the packet centre, one lattice coordinate per axis (the lint and
        # the packet read it); null takes the lattice's centre
        center = cfg.get("packet", {}).get("center")
        if center is not None:
            extents = cfg["lattice"]["extents"]
            coords = center if isinstance(center, list) else [center]
            if not (len(coords) == len(extents) and all(map(_is_number, coords))
                    and all(0 <= c <= int(n) - 1 for c, n in zip(coords, extents))):
                raise ConfigError(f"'{name}.packet.center' must be null or one number per "
                                  f"lattice axis ({len(extents)}), inside the lattice")
        _run_inputs(cfg)
    except ConfigError:
        raise
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    return cfg


def _run_inputs(cfg: dict):
    """Build what a run of ``cfg`` builds before it computes anything, with
    the run's own constructors and checks: the lattice and coupling model,
    each power law of a scan, a thick lens's continuum prediction, an
    ensemble job and a displacement run's broadening grid (on a chain), a
    breakdown scan's jobs and displacement grid, the kind and order of each
    lens an optimizer run designs, a lens design with the profile it
    imposes and the start packet centred on its focus (``_lens``), or the
    start packet of each width at the lattice's centre, a nonlinear run's
    blockade radius and a rydberg_tables run's whole computation
    (``_dressing``). It also rejects what would fail mid-run: holes that
    could take every site of the packet, a nonlinear packet on fewer sites
    than excitations, and a cascade on one site, whose focused width is 0.
    Whatever they reject, the run would fail on."""
    name = cfg["scenario"]
    if "lattice" not in cfg:
        _dressing(cfg)              # rydberg_tables, the one run without a lattice
        return
    table, model = _build_setup(cfg)
    if name == "longrange_alpha":
        c = cfg["coupling"]
        for alpha in cfg["scan"]["alphas"]:
            PowerLaw(float(c["hopping"]), float(alpha), cutoff_range=float(c["cutoff_range"]))
    elif name == "thick1d":
        continuum_thick(float(cfg["lens"]["v0"]), float(cfg["packet"]["sigma0"]),
                        model.reference_hopping())
    elif name == "holes":
        job, _ = _ensemble_job(cfg, Holes(int(cfg["disorder"]["count"])))
        on = np.flatnonzero(gaussian_packet(table, job.sigma0).amplitudes)
        if np.isin(on, job.candidates).all() and on.size <= job.kind.count:
            raise ValueError("the holes of a realization can take every site the packet is on")
    elif name == "displacement":
        _ensemble_job(cfg, Displacement(float(cfg["disorder"]["delta"])))
        _broadening_grid(cfg, table.extents)
    elif name == "breakdown":
        _breakdown_jobs(cfg, table, model)
        _delta_grid(cfg["scan"]["deltas"])
    elif name == "cascade":
        _check_design("thick", int(cfg["lens"]["order"]))
        if table.n_sites < 2:
            raise ValueError("a cascade needs 2 or more sites: its focused width sets stage 2")
    elif name == "scaling_fit":
        for kind, order in _scan_designs(cfg["scan"]):
            _check_design(kind, order)
    if name in ("holes", "displacement", "breakdown", "longrange_alpha", "scaling_fit"):
        # the start packet of each width, at the lattice's centre
        for sigma0 in cfg.get("scan", {}).get("sigma0") or [cfg["packet"]["sigma0"]]:
            gaussian_packet(table, float(sigma0))
    else:
        design, packet = _lens(cfg, table)
        if design is not None:
            (thin_phase_profile if design.thin else potential_profile)(design, table)
    if name == "nonlinear":
        inter = cfg["interaction"]
        blockade_radius(float(inter["jz"]), model.reference_hopping(), float(inter["power"]))
        if np.count_nonzero(packet.amplitudes) < int(inter["nu"]):
            raise ValueError(f"need at least {int(inter['nu'])} sites with nonzero amplitude")


def lint_config(cfg: dict) -> list:
    """Physics sanity warnings (never fatal)."""
    warnings = []
    name = cfg["scenario"]
    if name == "rydberg_tables":
        d = cfg["dressing"]
        ratio = abs(float(d["omega"]) / float(d["delta"]))
        if ratio > 0.5:
            warnings.append("dressing ratio omega/|delta| = %.3g exceeds 0.5; perturbative "
                            "couplings are unreliable" % ratio)
        return warnings

    packet = cfg.get("packet")
    lens = cfg.get("lens")
    if packet is None:
        return warnings
    sigma0 = float(packet["sigma0"])
    hopping = float(cfg.get("coupling", {}).get("hopping", 1.0))
    if lens is not None:
        scales = thresholds(sigma0=sigma0, hopping=hopping)
        # a run reads a strength written as text (YAML's 1e-3) as its number
        v0, phi0 = _as_float(lens.get("v0")), _as_float(lens.get("phi0"))
        if v0 > scales["v_bo"]:
            warnings.append(
                "v0 = %.3g exceeds the band-limited scale v_BO = %.3g; the "
                "lens will clamp at the band edge" % (v0, scales["v_bo"]))
        if phi0 > scales["phi_bo"]:
            warnings.append(
                "phi0 = %.3g exceeds phi_BO = %.3g; imprinted momenta leave "
                "the quadratic band" % (phi0, scales["phi_bo"]))
    extents = cfg.get("lattice", {}).get("extents")
    if extents is not None:
        center = packet.get("center")
        if center is None:
            center = [(n - 1) / 2.0 for n in extents]
        center = np.atleast_1d(np.asarray(center, dtype=float))
        # the density exp(-x^2/sigma0^2) at 2 sigma0 is e^-4, about 2% of
        # its peak; every shipped config sits at least 2.4 sigma0 from each edge
        for axis, n in enumerate(extents):
            margin = min(center[axis], (n - 1) - center[axis])
            if margin < 2.0 * sigma0:
                warnings.append(
                    "packet center is %.3g a from the axis-%d boundary, closer "
                    "than 2 sigma0 = %.3g a; expect reflections" %
                    (margin, axis, 2.0 * sigma0))
    return warnings


def _build_setup(cfg):
    table = build_lattice(tuple(int(n) for n in cfg["lattice"]["extents"]))
    c = cfg["coupling"]
    model_name = c.get("model", "nn")
    if model_name == "nn":
        model = NearestNeighbor(float(c["hopping"]))
    elif model_name == "powerlaw":
        model = PowerLaw(float(c["hopping"]), float(c["alpha"]),
                         cutoff_range=float(c["cutoff_range"]))
    else:
        raise ConfigError(f"unknown coupling model {model_name!r}")
    return table, model


def _focus_of(cfg, table):
    focus = cfg["lens"].get("focus")
    if focus is None:
        return table.center()
    return np.atleast_1d(np.asarray(focus, dtype=float))


def _local_minima(times, widths):
    """Interior minima of the sampled width, parabolically refined in t."""
    out = []
    for i in range(1, len(widths) - 1):
        if not (widths[i] <= widths[i - 1] and widths[i] <= widths[i + 1]):
            continue
        shift, w = _parabola_vertex(widths, i) or (0.0, widths[i])
        out.append((float(times[i] + shift * (times[i + 1] - times[i])), float(w)))
    return out


def _snapshot(path, state, table):
    return io_utils.write_csv(path, io_utils.STATE_HEADER,
                              io_utils.state_rows(state, table))


def _lens(cfg, table):
    """The lens design of a thick1d, thin1d, multifocal2d, nonlinear or
    cascade run of ``cfg`` (None where the run optimizes its own) and the
    run's start packet before any imprint: at the configured centre, else
    at the focus (the lattice's centre for multifocal2d)."""
    name, lens, packet = cfg["scenario"], cfg["lens"], cfg["packet"]
    if name == "multifocal2d":
        v0 = float(lens["v0"])
        design = Multifocal(tuple(ThickPolynomial((v0,), f) for f in lens["foci"]))
        focus = table.center()
    else:
        focus, design = _focus_of(cfg, table), None
        if name == "thin1d":
            design = ThinPulse(phi0=float(lens["phi0"]), focus=tuple(focus),
                               profile=lens["profile"])
        elif lens.get("v0") is not None:
            design = ThickPolynomial((float(lens["v0"]),), tuple(focus))
    center = packet.get("center")
    return design, gaussian_packet(table, float(packet["sigma0"]),
                                   center=focus if center is None else center,
                                   k0=packet.get("k0"))


def _write_breathing(out, terms, psi0, table, pred, t_max, ev):
    """Sample the width of psi0 in n_samples equal steps up to t_max, along
    one evolution path (``propagator.evolution_path``): a centred real or
    complex start runs in the even subspace, so the widths agree with
    stepping the full H within the propagator's 10 tol per step.

    Writes widths.csv (against the continuum curve of ``pred``) and the state
    at the predicted focal time; returns (outputs, width minima).
    """
    n_samples, tol = int(ev["n_samples"]), float(ev["tol"])
    dt = t_max / n_samples
    path = evolution_path(terms, psi0.amplitudes, dt * np.arange(1, n_samples + 1), tol)
    times, widths = [psi0.time], [gaussian_width(psi0, table)]
    for block in path.samples():
        widths.extend(gaussian_widths(block, table))
        for _ in block:
            times.append(times[-1] + dt)
    times, widths = np.array(times), np.array(widths)
    outputs = [io_utils.write_csv(out / "widths.csv",
                                  ["t [1/J]", "sigma [a]", "sigma_continuum [a]"],
                                  zip(times, widths, pred.width(times))),
               _snapshot(out / "state_focus.csv",
                         evolve(terms, psi0, pred.focal_time, tol=tol), table)]
    return outputs, _local_minima(times, widths)


def run_thick1d(cfg, out: Path):
    table, model = _build_setup(cfg)
    pred = continuum_thick(float(cfg["lens"]["v0"]), float(cfg["packet"]["sigma0"]),
                           model.reference_hopping())
    ev = cfg["evolution"]
    t_max = ev["t_max"] if ev["t_max"] is not None else 4.0 * pred.focal_time
    design, psi0 = _lens(cfg, table)
    terms = build_couplings(table, model).with_diagonal(potential_profile(design, table))
    outputs, minima = _write_breathing(out, terms, psi0, table, pred, t_max, ev)
    derived = {
        "omega [J]": pred.omega,
        "ell [a]": pred.ell,
        "focal_time [1/J]": pred.focal_time,
        "focal_width_continuum [a]": pred.focal_width,
        "width_minima [(t, sigma)]": minima,
    }
    return derived, outputs


def run_thin1d(cfg, out: Path):
    table, model = _build_setup(cfg)
    design, packet = _lens(cfg, table)
    pred = continuum_thin(design.phi0, float(cfg["packet"]["sigma0"]),
                          model.reference_hopping())
    ev = cfg["evolution"]
    t_max = ev["t_max"] if ev["t_max"] is not None else 2.0 * pred.focal_time
    psi0 = phase_imprint(packet, thin_phase_profile(design, table))
    outputs, minima = _write_breathing(out, build_couplings(table, model), psi0,
                                       table, pred, t_max, ev)
    derived = {
        "focal_time [1/J]": pred.focal_time,
        "focal_width_continuum [a]": pred.focal_width,
        "width_minima [(t, sigma)]": minima,
    }
    return derived, outputs


def _coeff_columns(design, order=8):
    coeffs = list(design.coefficients) if isinstance(design, ThickPolynomial) else []
    coeffs += [0.0] * (order // 2 - len(coeffs))
    return coeffs


def run_cascade(cfg, out: Path):
    table, model = _build_setup(cfg)
    sigma0 = float(cfg["packet"]["sigma0"])
    order = int(cfg["lens"]["order"])
    focus = _focus_of(cfg, table)
    tol = float(cfg["evolution"]["tol"])
    n_time = int(cfg["evolution"]["n_time"])
    base = build_couplings(table, model)

    rows, outputs = [], []
    _, state = _lens(cfg, table)
    sigma_in = sigma0
    derived = {}
    for stage in (1, 2):
        res = optimize_lens(table, model, sigma_in, kind="thick", order=order,
                            focus=focus, initial_state=state, n_time=n_time,
                            tol=tol)
        # Replay under the optimizer's energy clip: the reported focal time
        # and width come from clipped evolutions, and high-order corrections
        # reach +-10^13 J at the lattice edge, where the packet never goes.
        terms = clipped_thick_terms(base, res.design, table,
                                    model.reference_hopping())
        state = evolve(terms, state, res.focal_time, tol=tol)
        sigma_out = gaussian_width(state, table)
        rows.append((stage, sigma_in, *_coeff_columns(res.design),
                     res.focal_time, sigma_out))
        outputs.append(_snapshot(out / f"state_stage{stage}.csv", state, table))
        derived[f"stage{stage}"] = {
            "coefficients": list(res.design.coefficients),
            "focal_time [1/J]": res.focal_time,
            "sigma_f [a]": sigma_out,
            "grid_boundary": res.boundary,
            "optimizer_paths": res.paths,
        }
        sigma_in = sigma_out
    header = ["stage", "sigma_in [a]", "v2 [J/a^2]", "v4 [J/a^4]",
              "v6 [J/a^6]", "v8 [J/a^8]", "t_f [1/J]", "sigma_f [a]"]
    outputs.insert(0, io_utils.write_csv(out / "cascade.csv", header, rows))
    return derived, outputs


def run_scaling_fit(cfg, out: Path):
    table, model = _build_setup(cfg)
    scan = cfg["scan"]
    tol = float(cfg["evolution"]["tol"])
    n_time = int(cfg["evolution"]["n_time"])
    rows = []
    fits = []
    paths = {}
    for kind, order in _scan_designs(scan):
        sig_list, wid_list = [], []
        for sigma0 in scan["sigma0"]:
            res = optimize_lens(table, model, float(sigma0), kind=kind,
                                order=order, n_time=n_time, tol=tol)
            paths[f"{kind} order {order} sigma0 {float(sigma0):g}"] = res.paths
            strength = (res.design.coefficients[0]
                        if kind == "thick" else res.design.phi0)
            rows.append((kind, order, sigma0, strength,
                         res.focal_time, res.focal_width,
                         res.focal_width / sigma0**(1.0 / 3.0),
                         res.boundary))
            sig_list.append(sigma0)
            wid_list.append(res.focal_width)
        slope, intercept = np.polyfit(np.log(sig_list), np.log(wid_list), 1)
        fits.append({
            "kind": kind, "order": order,
            "slope": float(slope),
            "kappa_fit": float(np.exp(intercept)),
            "kappa_mean": float(np.mean(
                np.array(wid_list) / np.array(sig_list)**(1.0 / 3.0))),
        })
    header = ["kind", "order", "sigma0 [a]", "strength [J/a^order or rad/a^2]",
              "t_f [1/J]", "sigma_f [a]", "kappa [a^(2/3)]", "grid_boundary"]
    outputs = [io_utils.write_csv(out / "scaling.csv", header, rows),
               io_utils.write_json(out / "scaling_fit.json", fits)]
    return {"fits": fits, "optimizer_paths": paths}, outputs


def _scan_designs(scan):
    """The (kind, order) of each lens family a scaling fit optimizes, in
    order: every order of ``scan.orders`` for a thick lens, 2 for a thin
    one."""
    return [(kind, int(order)) for kind in scan["kinds"]
            for order in (scan["orders"] if kind == "thick" else [2])]


def run_multifocal2d(cfg, out: Path):
    table, model = _build_setup(cfg)
    sigma0 = float(cfg["packet"]["sigma0"])
    design, psi = _lens(cfg, table)
    pred = continuum_thick(float(cfg["lens"]["v0"]), sigma0, model.reference_hopping())
    ev = cfg["evolution"]
    t_max = ev["t_max"] if ev["t_max"] is not None else pred.focal_time
    terms = build_couplings(table, model).with_diagonal(
        potential_profile(design, table))
    psi = evolve(terms, psi, t_max, tol=float(ev["tol"]))
    rows = [(i, *f, focus_probability(psi, table, f)) for i, f in enumerate(design.foci)]
    header = ["focus", "x [a]", "y [a]", "p_foc [1]"]
    outputs = [io_utils.write_csv(out / "foci.csv", header, rows),
               _snapshot(out / "state_final.csv", psi, table)]
    derived = {
        "focal_time [1/J]": t_max,
        "p_foc": {str(i): float(r[-1]) for i, r in enumerate(rows)},
    }
    return derived, outputs


def run_longrange_alpha(cfg, out: Path):
    extents = tuple(int(n) for n in cfg["lattice"]["extents"])
    table = build_lattice(extents)
    hopping = float(cfg["coupling"]["hopping"])
    cutoff = float(cfg["coupling"]["cutoff_range"])
    sigma0 = float(cfg["packet"]["sigma0"])
    tol = float(cfg["evolution"]["tol"])
    n_time = int(cfg["evolution"]["n_time"])
    models = []
    if cfg["scan"]["include_nn"]:
        models.append(("nn", math.inf, NearestNeighbor(hopping)))
    for alpha in cfg["scan"]["alphas"]:
        models.append((f"alpha={alpha:g}", float(alpha),
                       PowerLaw(hopping, float(alpha), cutoff_range=cutoff)))
    rows, paths = [], {}
    for label, alpha, model in models:
        res = optimize_lens(table, model, sigma0, kind="thick", order=2,
                            n_time=n_time, tol=tol)
        paths[label] = res.paths
        rows.append((label, alpha, res.design.coefficients[0], res.focal_time,
                     res.focal_width, res.focal_width / sigma0**(1.0 / 3.0),
                     res.boundary))
    header = ["model", "alpha", "v2 [J/a^2]", "t_f [1/J]", "sigma_f [a]",
              "kappa [a^(2/3)]", "grid_boundary"]
    outputs = [io_utils.write_csv(out / "alpha_scaling.csv", header, rows)]
    derived = {"sigma_f": {row[0]: float(row[4]) for row in rows},
               "kappa": {row[0]: float(row[5]) for row in rows},
               "optimizer_paths": paths}
    return derived, outputs


def run_nonlinear(cfg, out: Path):
    table, model = _build_setup(cfg)
    sigma0 = float(cfg["packet"]["sigma0"])
    hopping = model.reference_hopping()
    inter = cfg["interaction"]
    nu = int(inter["nu"])
    jz, power = float(inter["jz"]), float(inter["power"])
    tol = float(cfg["evolution"]["tol"])

    design, psi_single = _lens(cfg, table)
    optimized = design is None
    if optimized:
        res = optimize_lens(table, model, sigma0, kind="thick", order=2,
                            focus=_focus_of(cfg, table), tol=tol)
        design, t_f = res.design, res.focal_time
    else:
        t_f = continuum_thick(design.coefficients[0], sigma0, hopping).focal_time
    terms = build_couplings(table, model).with_diagonal(
        potential_profile(design, table))

    basis = enumerate_basis(table, nu)
    sector = build_mb_hamiltonian(terms, basis, jz=jz,
                                  interaction_power=power,
                                  table=table,
                                  literal_sigma_z=bool(inter["literal_sigma_z"]))
    state = symmetric_initial_state(psi_single, nu, basis)

    n_samples = int(cfg["evolution"]["n_samples"])
    dt = t_f / n_samples
    path = evolution_path(sector, state.amplitudes, dt * np.arange(1, n_samples + 1), tol)
    t, amps, density_rows = state.time_stamp, state.amplitudes, []
    for amps in path.states():
        t = t + dt
        p = density_profile(amps, basis)
        density_rows.extend((t, n, p[n], nu) for n in range(table.n_sites))
    outputs = [io_utils.write_csv(out / "density.csv",
                                  ["t [1/J]", "site", "p [1]", "nu"],
                                  density_rows)]
    dists, weights = pair_distance_distribution(amps, basis, table)
    outputs.append(io_utils.write_csv(out / "pair_distances.csv",
                                      ["distance [a]", "weight [1]"],
                                      zip(dists, weights)))
    derived = {
        "focal_time [1/J]": t_f,
        "coefficients": list(design.coefficients),
        "blockade_radius [a]": blockade_radius(jz, hopping, power),
        "basis_dim": basis.dim,
        "evolved_dim": path.dim,
        "evolution": path.method,
    }
    if optimized:
        derived["optimizer_paths"] = res.paths
    return derived, outputs


def _ensemble_job(cfg, kind):
    table, model = _build_setup(cfg)
    sigma0 = float(cfg["packet"]["sigma0"])
    hopping = model.reference_hopping()
    focus = _focus_of(cfg, table)
    v0 = cfg["lens"]["v0"]
    if v0 is None:
        v0 = thresholds(sigma0=sigma0, hopping=hopping)["v_opt_scale"]
    pred = continuum_thick(float(v0), sigma0, hopping)
    design = ThickPolynomial((float(v0),), tuple(focus))
    job = EnsembleJob(table=table, model=model, design=design, sigma0=sigma0,
                      duration=pred.focal_time, kind=kind,
                      realizations=int(cfg["disorder"]["realizations"]),
                      master_seed=int(cfg["master_seed"]),
                      tol=float(cfg["evolution"]["tol"]))
    return job, pred


def _write_ensemble(out, job, stats, extra_summary):
    rows = [(r, stats.p_foc[r], stats.sigma_f[r])
            for r in range(len(stats.p_foc))]
    outputs = [io_utils.write_csv(out / "ensemble.csv",
                                  ["realization", "p_foc [1]", "sigma_f [a]"],
                                  rows)]
    summary = {"master_seed": job.master_seed,
               "realizations": job.realizations,
               "duration [1/J]": job.duration,
               "stats": stats.summary()}
    summary.update(extra_summary)
    outputs.append(io_utils.write_json(out / "summary.json", summary))
    return outputs


def run_holes(cfg, out: Path):
    job, pred = _ensemble_job(cfg, Holes(int(cfg["disorder"]["count"])))
    stats = run_ensemble(job)
    outputs = _write_ensemble(out, job, stats, {
        "clean": {"p_foc": stats.p_clean, "sigma_f": stats.sigma_clean},
        "holes": int(cfg["disorder"]["count"]),
    })
    derived = {
        "clean_p_foc": stats.p_clean,
        "mean_p_foc": float(stats.p_foc.mean()),
        "relative_drop": float(1.0 - stats.p_foc.mean() / stats.p_clean),
        "focal_time [1/J]": job.duration,
    }
    return derived, outputs


def _broadening_grid(cfg, extents):
    """The realization count of a displacement run's broadening and its
    wavenumbers, each rounded to the nearest one a ring of the chain's
    sites holds; ValueError for a lattice of more than one axis, no
    realization or a wavenumber that is not finite."""
    n_b, ks = int(cfg["broadening"]["realizations"]), [float(k) for k in cfg["broadening"]["ks"]]
    if len(extents) != 1:
        raise ValueError("the broadening runs on a chain: lattice.extents must have one axis")
    if n_b < 1:
        raise ValueError("need at least one broadening realization")
    if not all(map(math.isfinite, ks)):
        raise ValueError("broadening wavenumbers must be finite")
    (n,) = extents
    return n_b, [2.0 * math.pi * round(k * n / (2.0 * math.pi)) / n for k in ks]


def run_displacement(cfg, out: Path):
    delta = float(cfg["disorder"]["delta"])
    job, pred = _ensemble_job(cfg, Displacement(delta))
    # one clean pattern, and its kept arrays, for the ensemble and the broadening
    pattern = _CleanPattern(job)
    stats = run_ensemble(job, pattern)
    outputs = _write_ensemble(out, job, stats, {
        "clean": {"p_foc": stats.p_clean, "sigma_f": stats.sigma_clean},
        "delta [a]": delta,
    })

    table = job.table
    n_b, ks = _broadening_grid(cfg, table.extents)
    vals = [[] for _ in ks]
    # each realization's difference taken once, for every k
    for dh in _perturbations(pattern, job, n_b):
        for k, v in zip(ks, vals):
            v.append(_broadening(dh, k, table))
    rows = [(k, float(np.mean(v)), float(np.std(v, ddof=1)) if n_b > 1 else 0.0)
            for k, v in zip(ks, vals)]
    outputs.append(io_utils.write_csv(out / "broadening.csv",
                                      ["k [1/a]", "mean_delta_eps [J]",
                                       "std_delta_eps [J]"],
                                      rows))
    derived = {
        "clean_p_foc": stats.p_clean,
        "mean_sigma_f": float(stats.sigma_f.mean()),
        "broadening": [list(r) for r in rows],
    }
    return derived, outputs


def _breakdown_jobs(cfg, table, model):
    """The clean ensemble job of each packet width of a breakdown scan,
    the lens at its scaling strength, focused at the lattice's centre."""
    hopping, scan, jobs = model.reference_hopping(), cfg["scan"], []
    for sigma0 in map(float, scan["sigma0"]):
        v0 = thresholds(sigma0=sigma0, hopping=hopping)["v_opt_scale"]
        jobs.append(EnsembleJob(table=table, model=model,
                                design=ThickPolynomial((v0,), tuple(table.center())),
                                sigma0=sigma0,
                                duration=continuum_thick(v0, sigma0, hopping).focal_time,
                                kind=Displacement(0.0), realizations=int(scan["realizations"]),
                                master_seed=int(cfg["master_seed"]),
                                tol=float(cfg["evolution"]["tol"])))
    return jobs


def run_breakdown(cfg, out: Path):
    table, model = _build_setup(cfg)
    rows = []
    crossovers = []
    for job in _breakdown_jobs(cfg, table, model):
        result = breakdown_scan(job, cfg["scan"]["deltas"])
        for row in result.rows:
            rows.append((job.sigma0, row.delta, row.ratio_mean, row.ratio_stderr))
        crossovers.append({
            "sigma0 [a]": job.sigma0,
            "t_foc [1/J]": result.duration,
            "delta_c [a]": result.delta_c,
            "delta_c_times_t_foc": result.delta_c * result.duration,
        })
    outputs = [io_utils.write_csv(out / "breakdown.csv",
                                  ["sigma0 [a]", "delta [a]", "width_ratio [1]",
                                   "stderr [1]"],
                                  rows),
               io_utils.write_json(out / "crossover.json", crossovers)]
    return {"crossovers": crossovers}, outputs


def _dressing(cfg):
    """What a rydberg_tables run computes before it writes anything: the
    dressed shapes and couplings on the r_tilde grid, the lattice
    couplings per separation m and the derived summary, from the run's
    ``DressingParams``. ValueError or ArithmeticError where the run would
    fail: a dressing ``DressingParams`` rejects, |xi| outside (0, 1) (no
    exchange peak), a negative grid, no separation, a lattice spacing that
    is not positive and finite, or a ``focus.sigma0``, ``focus.lifetime``
    or hopping (``dressing.omega``) of 0 that the focal estimate divides
    by."""
    d, tbl = cfg["dressing"], cfg["table"]
    c12 = d["c12"] if d["c12"] is not None else abs(float(d["delta"]))
    params = DressingParams(omega=float(d["omega"]), delta=float(d["delta"]),
                            xi=float(d["xi"]), c12=float(c12))
    scale = params.length_scale()
    r_tilde = np.linspace(1e-3, float(tbl["r_tilde_max"]), int(tbl["n_points"]))
    dressed = (r_tilde, *effective_potentials(r_tilde, params.xi),
               *dressed_couplings(params, r_tilde / scale))

    r_peak, w_peak = exchange_peak(params.xi)
    spacing = tbl["spacing_r_tilde"]
    spacing = float(spacing) if spacing is not None else r_peak
    ms = np.arange(1, int(tbl["max_separation"]) + 1)
    if not (ms.size and 0.0 < spacing < math.inf):
        raise ValueError("need table.max_separation >= 1 and a positive finite "
                         "table.spacing_r_tilde")
    v_m, w_m = dressed_couplings(params, ms * spacing / scale)
    j_m = -w_m / 2.0

    derived = {
        "xi": params.xi,
        "validity_ratio": params.validity_ratio(),
        "r_tilde_peak": r_peak,
        "spacing_r_tilde": spacing,
        "hopping_j [E]": float(j_m[0]),
        "hopping_over_2pi [E/2pi]": float(j_m[0] / (2.0 * math.pi)),
    }
    foc = cfg["focus"]
    if foc["sigma0"] is not None:
        sigma0 = float(foc["sigma0"])
        if sigma0 == 0.0:
            raise ValueError("focus.sigma0 must be nonzero for the focal estimate")
        if j_m[0] == 0.0:
            raise ValueError("dressing.omega gives no hopping to divide the focal "
                             "estimate by")
        # Fastest useful single pulse: corrected profile at phi0 = 4/sigma0
        # (twice the phase-wrap scale 2a/sigma0), so t_f = sigma0 / (8 J a).
        t_f = corrected_focal_time(4.0 / sigma0, float(j_m[0]))
        derived["sigma0 [a]"] = sigma0
        derived["focal_time_estimate [1/E]"] = t_f
        if foc["lifetime"] is not None:
            if float(foc["lifetime"]) == 0.0:
                raise ValueError("focus.lifetime must be nonzero")
            derived["focal_time_over_lifetime"] = t_f / float(foc["lifetime"])
    c6 = cfg["channels"]["c6"]
    if c6 is not None:
        a, b = vdw_iso_aniso(ChannelC6(*[float(x) for x in c6]))
        derived["vdw_a"] = a
        derived["vdw_b"] = b
    return dressed, (ms, ms * spacing, j_m, v_m), derived


def run_rydberg_tables(cfg, out: Path):
    dressed, couplings, derived = _dressing(cfg)
    outputs = [
        io_utils.write_csv(out / "dressed.csv", ["r_tilde [1]", "v_tilde [1]", "w_tilde [1]",
                                                 "v_sg [E]", "w_sg [E]"], zip(*dressed)),
        io_utils.write_csv(out / "lattice_couplings.csv",
                           ["m [sites]", "r_tilde [1]", "j_m [E]", "v_m [E]"], zip(*couplings)),
        io_utils.write_json(out / "dressing_summary.json", derived)]
    return derived, outputs


SCENARIOS = {
    "thick1d": run_thick1d,
    "thin1d": run_thin1d,
    "cascade": run_cascade,
    "scaling_fit": run_scaling_fit,
    "multifocal2d": run_multifocal2d,
    "longrange_alpha": run_longrange_alpha,
    "nonlinear": run_nonlinear,
    "holes": run_holes,
    "displacement": run_displacement,
    "breakdown": run_breakdown,
    "rydberg_tables": run_rydberg_tables,
}


def run_scenario(cfg: dict, out: Path):
    """Dispatch a prepared config; returns (derived parameters, output files)."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    return SCENARIOS[cfg["scenario"]](cfg, out)
