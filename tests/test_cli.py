import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from spinlens import io_utils
from spinlens.cli import main
from spinlens.lens import continuum_thick, continuum_thin
from spinlens.scenarios import (ConfigError, SCENARIO_NAMES, lint_config,
                                prepare_config, run_scenario)

THICK_SMALL = {
    "scenario": "thick1d",
    "master_seed": 7,
    "lattice": {"extents": [257]},
    "packet": {"sigma0": 12.0},
    "lens": {"v0": 12.0 ** (-8.0 / 3.0)},
    "evolution": {"n_samples": 32},
}

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(path: Path, payload: dict) -> str:
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def thick_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("thick_run")
    cfg_path = write_config(root / "cfg.yaml", THICK_SMALL)
    out = root / "out"
    code = main(["run", "--config", cfg_path, "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    return cfg_path, out, manifest, code


class TestIoUtils:
    def test_format_value_types(self):
        assert io_utils.format_value(True) == "true"
        assert io_utils.format_value(np.bool_(False)) == "false"
        assert io_utils.format_value(np.int64(42)) == "42"
        assert io_utils.format_value("label") == "label"
        x = 0.1 + 0.2
        assert float(io_utils.format_value(x)) == x

    def test_write_csv_layout(self, tmp_path):
        path = io_utils.write_csv(tmp_path / "t.csv", ["a [1]", "b [J]"],
                                  [(1, 0.5), (2, 0.25)])
        lines = path.read_text().splitlines()
        assert lines[0] == "a [1],b [J]"
        assert lines[1] == "1,0.5"
        assert len(lines) == 3

    def test_canonical_hash_is_order_invariant(self):
        a = io_utils.canonical_hash({"x": 1, "y": [2, 3]})
        b = io_utils.canonical_hash({"y": [2, 3], "x": 1})
        assert a == b
        assert a != io_utils.canonical_hash({"x": 1, "y": [2, 4]})

    def test_file_sha256_matches_hashlib(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"spin lens" * 1000)
        assert io_utils.file_sha256(path) == hashlib.sha256(
            path.read_bytes()).hexdigest()

    def test_json_serializes_numpy_and_paths(self, tmp_path):
        path = io_utils.write_json(tmp_path / "x.json",
                                   {"a": np.float64(1.5), "b": np.arange(3),
                                    "c": Path("p.csv"), "d": np.int32(2)})
        assert json.loads(path.read_text()) == {"a": 1.5, "b": [0, 1, 2],
                                                "c": "p.csv", "d": 2}

    def test_json_rejects_unknown_types(self, tmp_path):
        with pytest.raises(TypeError):
            io_utils.write_json(tmp_path / "x.json", {"a": object()})


class TestPrepareConfig:
    def test_defaults_fill_missing_sections(self):
        cfg = prepare_config({"scenario": "thick1d"})
        assert cfg["packet"]["sigma0"] == 100.0
        assert cfg["lattice"]["extents"] == [1024]
        assert cfg["master_seed"] == 12345

    def test_override_keeps_sibling_defaults(self):
        cfg = prepare_config({"scenario": "thick1d",
                              "packet": {"sigma0": 30.0}})
        assert cfg["packet"]["sigma0"] == 30.0
        assert cfg["packet"]["center"] is None
        assert cfg["evolution"]["n_samples"] == 160

    def test_unknown_scenario_lists_choices(self):
        with pytest.raises(ConfigError) as info:
            prepare_config({"scenario": "warp_drive"})
        for name in SCENARIO_NAMES:
            assert name in str(info.value)

    def test_unknown_key_reports_dotted_path(self):
        with pytest.raises(ConfigError, match="thick1d.lens.bogus"):
            prepare_config({"scenario": "thick1d", "lens": {"bogus": 1}})

    def test_section_must_be_a_mapping(self):
        with pytest.raises(ConfigError, match="'thick1d.lattice' must be a mapping"):
            prepare_config({"scenario": "thick1d", "lattice": 5})

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_master_seed_must_fit_64_bits(self, seed):
        with pytest.raises(ConfigError, match="64"):
            prepare_config({"scenario": "thick1d", "master_seed": seed})

    def test_raw_config_must_be_a_mapping(self):
        with pytest.raises(ConfigError, match="mapping"):
            prepare_config(["scenario", "thick1d"])


class TestLintConfig:
    def test_quiet_on_a_sound_config(self):
        assert lint_config(prepare_config(THICK_SMALL)) == []

    def test_warns_when_v0_exceeds_band_scale(self):
        cfg = prepare_config({"scenario": "thick1d", "lens": {"v0": 1.0e-3}})
        warnings = lint_config(cfg)
        assert any("v_BO" in w for w in warnings)

    def test_warns_when_phi0_exceeds_band_scale(self):
        cfg = prepare_config({"scenario": "thin1d", "lens": {"phi0": 0.03}})
        warnings = lint_config(cfg)
        assert any("phi_BO" in w for w in warnings)

    def test_warns_when_packet_sits_near_a_boundary(self):
        cfg = prepare_config({"scenario": "thick1d",
                              "packet": {"center": [100.0]}})
        warnings = lint_config(cfg)
        assert any("axis-0" in w and "reflections" in w for w in warnings)

    def test_warns_on_nonperturbative_dressing(self):
        cfg = prepare_config({"scenario": "rydberg_tables",
                              "dressing": {"omega": 80.0}})
        warnings = lint_config(cfg)
        assert any("perturbative" in w for w in warnings)

    def test_default_dressing_is_within_validity(self):
        assert lint_config(prepare_config({"scenario": "rydberg_tables"})) == []


class TestValidateCommand:
    def test_valid_config_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", THICK_SMALL)
        assert main(["validate", "--config", cfg]) == 0
        assert "ok: config valid" in capsys.readouterr().out

    def test_warnings_are_printed_but_not_fatal(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml",
                           {"scenario": "thin1d", "lens": {"phi0": 0.03}})
        assert main(["validate", "--config", cfg]) == 0
        assert "warning:" in capsys.readouterr().out

    def test_unknown_scenario_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", {"scenario": "nope"})
        assert main(["validate", "--config", cfg]) == 2
        assert "error:" in capsys.readouterr().err

    def test_yaml_syntax_error_reports_location(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("scenario: thick1d\nlens: [unclosed\n")
        assert main(["validate", "--config", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "absent.yaml")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")),
                             ids=lambda p: p.name)
    def test_shipped_configs_validate(self, path):
        assert main(["validate", "--config", str(path)]) == 0
        cfg = prepare_config(yaml.safe_load(path.read_text(encoding="utf-8")))
        assert lint_config(cfg) == []


class TestRunCommand:
    def test_run_completes(self, thick_run):
        _, out, manifest, code = thick_run
        assert code == 0
        assert manifest["status"] == "complete"
        assert manifest["scenario"] == "thick1d"
        assert manifest["master_seed"] == 7
        assert manifest["wall_time_s"] > 0
        assert manifest["warnings"] == []

    def test_embedded_config_hash_is_reproducible(self, thick_run):
        _, _, manifest, _ = thick_run
        assert manifest["config_hash"] == io_utils.canonical_hash(manifest["config"])

    def test_outputs_are_hashed_and_sized(self, thick_run):
        _, out, manifest, _ = thick_run
        names = {Path(e["path"]).name for e in manifest["outputs"]}
        assert names == {"widths.csv", "state_focus.csv"}
        for entry in manifest["outputs"]:
            path = Path(entry["path"])
            assert io_utils.file_sha256(path) == entry["sha256"]
            assert path.stat().st_size == entry["bytes"]

    def test_csv_columns_carry_units(self, thick_run):
        _, out, _, _ = thick_run
        widths = (out / "widths.csv").read_text().splitlines()
        assert widths[0] == "t [1/J],sigma [a],sigma_continuum [a]"
        state = (out / "state_focus.csv").read_text().splitlines()
        assert state[0] == ("label,position [a],re_amplitude [1],"
                            "im_amplitude [1],probability [1]")

    def test_derived_parameters_match_continuum_model(self, thick_run):
        _, _, manifest, _ = thick_run
        pred = continuum_thick(12.0 ** (-8.0 / 3.0), 12.0)
        derived = manifest["derived"]
        assert derived["focal_time [1/J]"] == pytest.approx(pred.focal_time)
        minima = derived["width_minima [(t, sigma)]"]
        assert len(minima) == 2
        for m, (t_min, w_min) in enumerate(minima):
            assert t_min == pytest.approx((2 * m + 1) * pred.focal_time, rel=0.02)
            assert w_min < 12.0 / 3.0

    def test_manifest_accepted_as_config(self, thick_run, tmp_path):
        _, out, manifest, _ = thick_run
        out2 = tmp_path / "rerun"
        assert main(["run", "--config", str(out / "manifest.json"),
                     "--out", str(out2)]) == 0
        rerun = json.loads((out2 / "manifest.json").read_text())
        assert rerun["config_hash"] == manifest["config_hash"]
        first = {Path(e["path"]).name: e["sha256"] for e in manifest["outputs"]}
        second = {Path(e["path"]).name: e["sha256"] for e in rerun["outputs"]}
        assert first == second

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", {"scenario": "rydberg_tables"})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out),
                     "--seed", "99"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 99
        assert manifest["config"]["master_seed"] == 99

    def test_bad_config_exits_two_without_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml",
                           {"scenario": "thick1d", "lens": {"bogus": 1}})
        out = tmp_path / "never"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_midrun_failure_is_recorded(self, tmp_path, capsys):
        bad = dict(THICK_SMALL, lens={"v0": -1.0})
        cfg = write_config(tmp_path / "c.yaml", bad)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "ValueError" in manifest["error"]
        assert manifest["partial_outputs"] is False
        assert "scenario failed" in capsys.readouterr().err


HOLES_SMALL = {
    "scenario": "holes",
    "lattice": {"extents": [64]},
    "packet": {"sigma0": 6.0},
    "disorder": {"count": 1, "realizations": 2},
}


class TestThreadSelection:
    def test_ensemble_summary_records_run_parameters(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", HOLES_SMALL)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["realizations"] == 2
        assert summary["holes"] == 1
        assert {"mean", "std", "stderr"} <= set(summary["stats"]["p_foc"])
        header = (out / "ensemble.csv").read_text().splitlines()[0]
        assert header == "realization,p_foc [1],sigma_f [a]"


@pytest.mark.parametrize("profile", ["parabolic", "corrected"])
def test_thin1d_run_samples_widths(tmp_path, profile):
    sigma0, phi0, n_samples = 12.0, 0.01, 16
    cfg = write_config(tmp_path / "c.yaml", {
        "scenario": "thin1d",
        "lattice": {"extents": [257]},
        "packet": {"sigma0": sigma0},
        "lens": {"phi0": phi0, "profile": profile},
        "evolution": {"n_samples": n_samples},
    })
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "widths.csv").read_text().splitlines()[1:]
    assert len(rows) == n_samples + 1
    derived = json.loads((out / "manifest.json").read_text())["derived"]
    pred = continuum_thin(phi0, sigma0)
    assert derived["focal_time [1/J]"] == pytest.approx(pred.focal_time)
    assert derived["focal_width_continuum [a]"] == pytest.approx(pred.focal_width)
    assert "width_minima [(t, sigma)]" in derived


def test_nonlinear_density_sums_to_nu(tmp_path):
    n_samples = 4
    cfg = write_config(tmp_path / "c.yaml", {
        "scenario": "nonlinear",
        "lattice": {"extents": [31]},
        "packet": {"sigma0": 3.0},
        "lens": {"v0": 3.0 ** (-8.0 / 3.0)},
        "interaction": {"nu": 2, "jz": 50.0},
        "evolution": {"n_samples": n_samples},
    })
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    totals: dict = {}
    for line in (out / "density.csv").read_text().splitlines()[1:]:
        t, _, p, nu = line.split(",")
        assert int(nu) == 2
        totals[t] = totals.get(t, 0.0) + float(p)
    assert len(totals) == n_samples
    for total in totals.values():
        assert total == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("nu", [1, 4, 2.5, "two"])
def test_nonlinear_rejects_unusable_nu_before_running(tmp_path, capsys, nu):
    cfg = write_config(tmp_path / "c.yaml", {
        "scenario": "nonlinear",
        "lattice": {"extents": [31]},
        "packet": {"sigma0": 3.0},
        "interaction": {"nu": nu},
    })
    assert main(["validate", "--config", cfg]) == 2
    assert "interaction.nu" in capsys.readouterr().err
    out = tmp_path / "never"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "interaction.nu" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario, key, value", [
    ("thick1d", "n_samples", 0), ("thin1d", "n_samples", 2.5),
    ("nonlinear", "n_samples", "8"), ("scaling_fit", "n_time", 1),
    ("cascade", "n_time", 0), ("longrange_alpha", "n_time", 40.5),
])
def test_unusable_time_grid_rejected_before_running(tmp_path, capsys, scenario,
                                                    key, value):
    cfg = write_config(tmp_path / "c.yaml", {
        "scenario": scenario, "evolution": {key: value}})
    assert main(["validate", "--config", cfg]) == 2
    assert f"evolution.{key}" in capsys.readouterr().err
    out = tmp_path / "never"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert f"evolution.{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("raw, key", [
    ({"scenario": "thick1d", "lattice": {"spacing": 2}}, "lattice.spacing"),
    ({"scenario": "scaling_fit", "scan": {"sigma0": [20.0]}}, "scan.sigma0"),
    ({"scenario": "scaling_fit", "scan": {"sigma0": []}}, "scan.sigma0"),
    ({"scenario": "multifocal2d", "evolution": {"n_samples": 8}},
     "evolution.n_samples"),
], ids=["spacing-2", "one-width", "no-width", "multifocal-n-samples"])
def test_unusable_setup_rejected_before_running(tmp_path, capsys, raw, key):
    cfg = write_config(tmp_path / "c.yaml", raw)
    assert main(["validate", "--config", cfg]) == 2
    assert key in capsys.readouterr().err
    out = tmp_path / "never"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_unit_lattice_spacing_still_runs(tmp_path):
    cfg = write_config(tmp_path / "c.yaml",
                       dict(THICK_SMALL, lattice={"extents": [257], "spacing": 1.0}))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


def test_shortest_time_grids_accepted():
    for scenario, key, low in (("thick1d", "n_samples", 1), ("scaling_fit", "n_time", 2)):
        for value in (low, float(low)):
            cfg = prepare_config({"scenario": scenario, "evolution": {key: value}})
            assert cfg["evolution"][key] == low


@pytest.fixture(scope="module")
def rydberg_tables_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ryd")
    cfg = prepare_config({"scenario": "rydberg_tables",
                          "channels": {"c6": [1.0, 2.0, 3.0, 4.0]}})
    derived, files = run_scenario(cfg, out)
    return out, derived, files


class TestRydbergTablesScenario:
    def test_dressed_interaction_strength(self, rydberg_tables_run):
        _, derived, _ = rydberg_tables_run
        assert derived["hopping_over_2pi [E/2pi]"] == pytest.approx(0.3729,
                                                                    rel=1e-3)
        assert derived["validity_ratio"] == pytest.approx(0.5)

    def test_isotropic_and_anisotropic_dispersion_weights(self, rydberg_tables_run):
        _, derived, _ = rydberg_tables_run
        assert derived["vdw_a"] == pytest.approx(134.0 / 81.0)
        assert derived["vdw_b"] == pytest.approx(4.0 / 27.0)

    def test_table_headers_and_summary(self, rydberg_tables_run):
        out, derived, files = rydberg_tables_run
        assert {f.name for f in files} == {"dressed.csv", "lattice_couplings.csv",
                                           "dressing_summary.json"}
        assert (out / "dressed.csv").read_text().splitlines()[0] == \
            "r_tilde [1],v_tilde [1],w_tilde [1],v_sg [E],w_sg [E]"
        assert (out / "lattice_couplings.csv").read_text().splitlines()[0] == \
            "m [sites],r_tilde [1],j_m [E],v_m [E]"
        summary = json.loads((out / "dressing_summary.json").read_text())
        assert summary["hopping_over_2pi [E/2pi]"] == \
            pytest.approx(derived["hopping_over_2pi [E/2pi]"])

    def test_couplings_fall_off_with_separation(self, rydberg_tables_run):
        out, _, _ = rydberg_tables_run
        rows = (out / "lattice_couplings.csv").read_text().splitlines()[1:]
        j = [abs(float(r.split(",")[2])) for r in rows]
        assert j == sorted(j, reverse=True)
        assert j[0] / j[1] > 10.0
