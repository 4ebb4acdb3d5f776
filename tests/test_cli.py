import contextlib
import copy
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinlens import io_utils
from spinlens.cli import main
from spinlens.lens import continuum_thick, continuum_thin
from spinlens.propagator import TOL_RANGE
from spinlens.scenarios import (DEFAULTS, ConfigError, SCENARIO_NAMES, lint_config,
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
SRC = Path(__file__).resolve().parent.parent / "src"


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

    def test_manifest_records_the_blas_threads(self, thick_run):
        """Outside ``derived``, so the golden table's blocks do not see it."""
        _, _, manifest, _ = thick_run
        assert manifest["threads"] == {
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
            "cpu_count": os.cpu_count()}
        assert "threads" not in manifest["derived"]

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

    def test_midrun_failure_is_recorded(self, tmp_path, capsys, monkeypatch):
        # a scenario runner that raises once the run is under way, past
        # everything validation checks
        from spinlens import scenarios

        def failing(cfg, out):
            raise ValueError("the physics broke")

        monkeypatch.setitem(scenarios.SCENARIOS, "thick1d", failing)
        cfg = write_config(tmp_path / "c.yaml", THICK_SMALL)
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


class TestStartUp:
    """yaml and LAPACK load on first use, not with the CLI, and
    scipy.optimize not at all: the optimizer's bounded search is the
    package's own. An ensemble run (holes or displacement) never decomposes
    or windows a matrix, so it never loads scipy.linalg; an optimizer run
    does, which shows the check can see it.

    This process has imported all three already, so each check runs in a
    fresh interpreter.
    """

    LAZY = ("scipy.linalg", "scipy.optimize", "yaml")
    MAIN = "import sys\nfrom spinlens.cli import main\nassert main(sys.argv[1:]) == 0"

    def loaded_after(self, code: str, *args: str) -> list:
        """Which of LAZY a fresh interpreter holds after running code."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        probe = (f"{code}\nimport sys\n"
                 f"print('loaded:', *(m for m in {self.LAZY!r} if m in sys.modules))")
        done = subprocess.run([sys.executable, "-c", probe, *args], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()[-1].split()[1:]

    def run_loads(self, tmp_path, config: dict) -> list:
        """Which of LAZY a fresh interpreter holds after running a JSON
        config."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        return self.loaded_after(self.MAIN, "run", "--config", str(cfg),
                                 "--out", str(tmp_path / "out"))

    def test_import_loads_neither(self):
        assert self.loaded_after("import spinlens.cli") == []

    def test_json_ensemble_run_needs_no_optimizer(self, tmp_path):
        assert self.run_loads(tmp_path, HOLES_SMALL) == []

    def test_displacement_run_needs_no_lapack(self, tmp_path):
        assert self.run_loads(tmp_path, {
            "scenario": "displacement", "lattice": {"extents": [40]},
            "packet": {"sigma0": 4.0}, "coupling": {"model": "powerlaw", "alpha": 6.0},
            "disorder": {"delta": 0.01, "realizations": 3},
            "broadening": {"ks": [0.5, 1.0], "realizations": 4}}) == []

    def test_optimizer_run_needs_no_scipy_optimize(self, tmp_path):
        loaded = self.run_loads(tmp_path, {
            "scenario": "longrange_alpha", "lattice": {"extents": [60]},
            "packet": {"sigma0": 4.0}, "scan": {"alphas": [6.0]},
            "evolution": {"n_time": 20}})
        assert "scipy.optimize" not in loaded
        # the optimizer decomposes its designs, so LAPACK is loaded
        assert "scipy.linalg" in loaded
        derived = json.loads((tmp_path / "out" / "manifest.json").read_text())["derived"]
        assert all(sum(c.values()) > 0 for c in derived["optimizer_paths"].values())

    def test_yaml_config_loads_yaml(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", THICK_SMALL)
        assert "yaml" in self.loaded_after(self.MAIN, "validate", "--config", cfg)


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
    # a given v0 runs no optimizer, so there are no paths to count
    derived = json.loads((out / "manifest.json").read_text())["derived"]
    assert "optimizer_paths" not in derived


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


@pytest.mark.parametrize("key, value", [
    ("jz", -1.0), ("jz", math.inf), ("jz", math.nan),
    ("power", 0.0), ("power", -6.0), ("power", math.inf),
])
def test_nonlinear_rejects_unusable_interaction_before_running(tmp_path, capsys,
                                                               key, value):
    """A negative or infinite J_z, or a power that is not positive and
    finite, fails validation rather than after the basis is built."""
    cfg = write_config(tmp_path / "c.yaml", {
        "scenario": "nonlinear",
        "lattice": {"extents": [31]},
        "packet": {"sigma0": 3.0},
        "interaction": {key: value},
    })
    assert main(["validate", "--config", cfg]) == 2
    assert f"interaction.{key}" in capsys.readouterr().err
    out = tmp_path / "never"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert f"interaction.{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sigma0", [0.0, -3.0, math.nan, math.inf])
def test_packet_width_must_be_positive_and_finite(tmp_path, capsys, sigma0):
    cfg = write_config(tmp_path / "c.yaml", dict(THICK_SMALL, packet={"sigma0": sigma0}))
    assert main(["validate", "--config", cfg]) == 2
    assert "packet.sigma0" in capsys.readouterr().err
    out = tmp_path / "never"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "packet.sigma0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", [
    dict(THICK_SMALL, packet={"sigma0": 12.0, "center": "left"}),
    dict(THICK_SMALL, packet={"sigma0": 12.0, "center": [1.0, 2.0]}),
    dict(THICK_SMALL, packet={"sigma0": 12.0, "center": [300.0]}),
    {"scenario": "multifocal2d", "packet": {"center": [30.0]}},
    {"scenario": "multifocal2d", "packet": {"center": [30.0, "middle"]}},
], ids=["text", "two-on-a-chain", "outside", "one-on-a-plane", "text-on-a-plane"])
def test_packet_center_must_be_one_number_per_axis(tmp_path, capsys, config):
    """A centre that is text, has the wrong number of coordinates or lies
    outside the lattice crashed ``validate`` in the lint, or passed it and
    failed the run once the packet was built; both now exit 2."""
    cfg = write_config(tmp_path / "c.yaml", config)
    assert main(["validate", "--config", cfg]) == 2
    assert "packet.center" in capsys.readouterr().err
    out = tmp_path / "never"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "packet.center" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("center", [[128.0], 128, [0.0], [256.0]])
def test_packet_center_on_the_chain_stays_valid(tmp_path, center):
    cfg = write_config(tmp_path / "c.yaml",
                       dict(THICK_SMALL, packet={"sigma0": 12.0, "center": center}))
    assert main(["validate", "--config", cfg]) == 0


_DISPLACEMENT_SMALL = {"scenario": "displacement", "lattice": {"extents": [40]},
                       "packet": {"sigma0": 4.0}, "disorder": {"realizations": 2},
                       "broadening": {"realizations": 2}}
_THIN_SMALL = {"scenario": "thin1d", "lattice": {"extents": [200]}, "packet": {"sigma0": 10.0}}
_MULTIFOCAL_SMALL = {"scenario": "multifocal2d", "lattice": {"extents": [21, 21]},
                     "packet": {"sigma0": 3.0}}
_NONLINEAR_SMALL = {"scenario": "nonlinear", "lattice": {"extents": [21]},
                    "packet": {"sigma0": 3.0}, "interaction": {"jz": 50.0}}
_BREAKDOWN_SMALL = {"scenario": "breakdown", "lattice": {"extents": [40]},
                    "scan": {"sigma0": [4.0], "deltas": [0.0, 0.001], "realizations": 2}}
_CASCADE_SMALL = {"scenario": "cascade", "lattice": {"extents": [100]},
                  "packet": {"sigma0": 5.0}}
_SCALING_SMALL = {"scenario": "scaling_fit", "lattice": {"extents": [100]},
                  "scan": {"sigma0": [4.0, 8.0]}}


@pytest.mark.parametrize("config, message", [
    (dict(THICK_SMALL, lattice={"extents": [0]}), "extents must be positive"),
    (dict(HOLES_SMALL, disorder={"realizations": 0}), "need at least one realization"),
    (dict(_DISPLACEMENT_SMALL, disorder={"delta": -0.01, "realizations": 2}),
     "delta must be non-negative"),
    (dict(HOLES_SMALL, lattice={"extents": [40]}, disorder={"count": 500, "realizations": 2}),
     "hole count must be below the active-site count"),
    (dict(HOLES_SMALL, lattice={"extents": [40]}, disorder={"count": 40, "realizations": 2}),
     "hole count must be below the active-site count"),
    (dict(_DISPLACEMENT_SMALL, coupling={"alpha": -1.0}), "alpha and cutoff_range must be positive"),
    (dict(_DISPLACEMENT_SMALL, coupling={"cutoff_range": 0.0}),
     "alpha and cutoff_range must be positive"),
    (dict(_DISPLACEMENT_SMALL, coupling={"cutoff_range": -2.0}),
     "alpha and cutoff_range must be positive"),
    ({"scenario": "longrange_alpha", "lattice": {"extents": [40]}, "packet": {"sigma0": 4.0},
      "coupling": {"cutoff_range": 0.0}}, "alpha and cutoff_range must be positive"),
    (dict(THICK_SMALL, lens={"v0": 0.0}), "v0, sigma0, hopping must be positive"),
    (dict(_THIN_SMALL, lens={"phi0": 0.0}), "phi0 must be positive"),
    (dict(_THIN_SMALL, lens={"phi0": math.nan}), "phi0 must be positive"),
    (dict(_THIN_SMALL, lens={"focus": [500.0]}), "center [500.] outside the lattice"),
    (dict(_MULTIFOCAL_SMALL, lens={"foci": [[5], [15]]}), "focus dimension mismatch"),
    (dict(_MULTIFOCAL_SMALL, lens={"foci": []}), "a multifocal design needs at least two foci"),
    (dict(_MULTIFOCAL_SMALL, lens={"v0": -0.01}), "quadratic coefficient must be positive"),
    (dict(_NONLINEAR_SMALL, lens={"focus": [50.0], "v0": 0.01}),
     "center [50.] outside the lattice"),
    (dict(_NONLINEAR_SMALL, lens={"v0": -0.01}), "quadratic coefficient must be positive"),
    (dict(_CASCADE_SMALL, lens={"focus": [500.0]}), "center [500.] outside the lattice"),
    (dict(_CASCADE_SMALL, lens={"order": 3}), "thick order must be even, 2..8"),
    (dict(_SCALING_SMALL, scan={"sigma0": [4.0, 8.0], "orders": [3]}),
     "thick order must be even, 2..8"),
    (dict(_SCALING_SMALL, scan={"sigma0": [4.0, 8.0], "kinds": ["thin", "wide"]}),
     "kind must be 'thick' or 'thin'"),
    (dict(_BREAKDOWN_SMALL, scan={"sigma0": [4.0], "deltas": [0.01, 0.001]}),
     "delta grid must be ascending"),
    (dict(_BREAKDOWN_SMALL, scan={"sigma0": [4.0], "deltas": [-0.01, 0.001]}),
     "delta must be non-negative"),
    (dict(_BREAKDOWN_SMALL, scan={"sigma0": [4.0], "deltas": [0.0, math.nan]}),
     "delta must be non-negative and finite"),
    (dict(_BREAKDOWN_SMALL, scan={"sigma0": [4.0], "realizations": 0}),
     "need at least one realization"),
    (dict(_DISPLACEMENT_SMALL, disorder={"delta": math.inf, "realizations": 2}),
     "delta must be non-negative and finite"),
    (dict(_DISPLACEMENT_SMALL, broadening={"ks": [math.nan], "realizations": 2}),
     "broadening wavenumbers must be finite"),
    (dict(_DISPLACEMENT_SMALL, broadening={"ks": [0.5, math.inf], "realizations": 2}),
     "broadening wavenumbers must be finite"),
    (dict(_DISPLACEMENT_SMALL, broadening={"realizations": 0}),
     "need at least one broadening realization"),
    (dict(_DISPLACEMENT_SMALL, disorder={"realizations": math.inf}),
     "cannot convert float infinity to integer"),
    (dict(_BREAKDOWN_SMALL, scan={"sigma0": [4.0], "realizations": math.inf}),
     "cannot convert float infinity to integer"),
    (dict(_CASCADE_SMALL, lens={"order": math.inf}), "cannot convert float infinity to integer"),
    (dict(THICK_SMALL, packet={"sigma0": 12.0, "k0": math.nan}), "k0 must be finite"),
    (dict(_THIN_SMALL, packet={"sigma0": 10.0, "k0": [math.inf]}), "k0 must be finite"),
    ({"scenario": "rydberg_tables", "dressing": {"xi": 1.0}}, "need |xi| < 1"),
    ({"scenario": "rydberg_tables", "dressing": {"c12": -1.0}}, "c12 positive"),
    ({"scenario": "rydberg_tables", "dressing": {"delta": 0.0}}, "delta must be nonzero"),
    ({"scenario": "rydberg_tables", "table": {"max_separation": 0}},
     "need table.max_separation >= 1"),
    ({"scenario": "rydberg_tables", "table": {"spacing_r_tilde": 0.0}},
     "a positive finite table.spacing_r_tilde"),
    ({"scenario": "rydberg_tables", "focus": {"lifetime": 0.0}}, "focus.lifetime"),
    (dict(_DISPLACEMENT_SMALL, lattice={"extents": [15, 15]}),
     "lattice.extents must have one axis"),
    (dict(_DISPLACEMENT_SMALL, coupling={"alpha": math.inf}), "must be positive and finite"),
    (dict(_BREAKDOWN_SMALL, coupling={"cutoff_range": math.nan}),
     "must be positive and finite"),
    (dict(_CASCADE_SMALL, coupling={"hopping": math.inf}), "must be positive and finite"),
    (dict(_NONLINEAR_SMALL, packet={"sigma0": 0.001}, lens={"v0": 0.05}),
     "need at least 2 sites with nonzero amplitude"),
    (dict(_NONLINEAR_SMALL, lens={"v0": 0.05}, interaction={"jz": 20.0, "power": 1e-3}),
     "Numerical result out of range"),
    (dict(THICK_SMALL, lens={"focus": math.nan}), "outside the lattice"),
    (dict(_DISPLACEMENT_SMALL, lens={"focus": -math.inf}), "outside extents"),
    (dict(HOLES_SMALL, packet={"sigma0": 0.001}), "zero weight on active sites"),
    (dict(HOLES_SMALL, lattice={"extents": [21]}, packet={"sigma0": 0.001},
          lens={"focus": [3.0]}), "the holes of a realization can take every site"),
    ({"scenario": "longrange_alpha", "lattice": {"extents": [24]},
      "packet": {"sigma0": 0.001}}, "zero weight on active sites"),
    (dict(_CASCADE_SMALL, lattice={"extents": [1]}), "a cascade needs 2 or more sites"),
    (dict(_THIN_SMALL, lens={"phi0": math.inf}), "phi0 must be positive and finite"),
    (dict(_MULTIFOCAL_SMALL, lens={"v0": math.inf}), "must be positive and finite"),
    (dict(_BREAKDOWN_SMALL, scan={"sigma0": [4.0], "deltas": [0.0, 1.0]}),
     "at most 0.1 a"),
    (dict(_DISPLACEMENT_SMALL, disorder={"delta": 2.0, "realizations": 2}),
     "at most 0.1 a"),
    ({"scenario": "rydberg_tables", "focus": {"sigma0": 0.0}}, "focus.sigma0"),
    ({"scenario": "rydberg_tables", "dressing": {"omega": 0.0}}, "dressing.omega"),
])
def test_what_a_run_rejects_fails_validation(tmp_path, capsys, config, message):
    """Each of these passed ``validate`` and then failed the run at its
    first constructor, or ran without end (a displacement scatter of 1 or
    2 a), or crashed ``validate`` itself (a rydberg_tables detuning of 0);
    both now exit 2 with the run's message, and the run makes no output
    directory."""
    cfg = write_config(tmp_path / "c.yaml", config)
    assert main(["validate", "--config", cfg]) == 2
    assert message in capsys.readouterr().err
    out = tmp_path / "never"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# A tiny, fast run of each scenario, which the property below overrides.
_TINY = {
    "thick1d": {"lattice": {"extents": [31]}, "packet": {"sigma0": 3.0},
                "evolution": {"n_samples": 2}},
    "thin1d": {"lattice": {"extents": [31]}, "packet": {"sigma0": 3.0},
               "evolution": {"n_samples": 2}},
    "cascade": {"lattice": {"extents": [24]}, "packet": {"sigma0": 3.0}, "lens": {"order": 2},
                "evolution": {"n_time": 4}},
    "scaling_fit": {"lattice": {"extents": [24]}, "scan": {"sigma0": [2.0, 3.0], "kinds": ["thick"]},
                    "evolution": {"n_time": 4}},
    "multifocal2d": {"lattice": {"extents": [9, 9]}, "packet": {"sigma0": 1.5},
                     "lens": {"foci": [[2, 4], [6, 4]]}},
    "longrange_alpha": {"lattice": {"extents": [24]}, "packet": {"sigma0": 3.0},
                        "scan": {"alphas": [6.0], "include_nn": False}, "evolution": {"n_time": 4}},
    "nonlinear": {"lattice": {"extents": [13]}, "packet": {"sigma0": 2.0}, "lens": {"v0": 0.05},
                  "interaction": {"jz": 20.0}, "evolution": {"n_samples": 2}},
    "holes": {"lattice": {"extents": [20]}, "packet": {"sigma0": 3.0},
              "disorder": {"realizations": 2}},
    "displacement": {"lattice": {"extents": [20]}, "packet": {"sigma0": 3.0},
                     "disorder": {"realizations": 2}, "broadening": {"realizations": 2}},
    "breakdown": {"lattice": {"extents": [20]},
                  "scan": {"sigma0": [3.0], "deltas": [0.0, 0.01], "realizations": 2}},
    "rydberg_tables": {"table": {"n_points": 20}},
}
# Values at and past the edges of the schema, for any key ...
_EDGES = [0, 1, 2, -1, 0.5, -0.5, 1e-3, math.nan, math.inf, -math.inf, "x", "1.0e-3", None,
          True, [], [1.0], [1.0, 2.0], [[1.0, 2.0], [3.0, 4.0]], {"a": 1}]
# ... and for the keys whose values have a shape of their own (lattices of 1-3
# axes, and a fourth), each kept tiny.
_KEYED = {
    "extents": [[1], [2], [5], [12], [3, 3], [7, 7], [2, 2, 2], [0], [4, 0], [-3], [2.5],
                [3, 3, 3, 3]],
    "center": [[0.0], [30.0], [2.0, 2.0], [1.0, 1.0, 1.0]],
    "focus": [[0.0], [30.0], [2.0, 2.0], [5.0], [1.5]],
    "foci": [[[1, 1], [3, 3]], [[1, 1]], [[1, 1, 1], [2, 2, 2]], [[50, 50], [1, 1]]],
    "model": ["nn", "powerlaw", "x"], "profile": ["parabolic", "corrected", "x"],
    "kinds": [["thick", "thin"], ["x"], ["thin"]], "orders": [[2], [4], [3], [0]],
    "alphas": [[2.0], [0.5], [-1.0], [6.0, 3.0]], "deltas": [[0.0, 0.01], [0.01], [0.5], [0.0]],
    "c6": [[1, 2, 3, 4], [1, 2]], "nu": [2, 3], "literal_sigma_z": [True, False],
    "sigma0": [[2.0, 3.0], [3.0], [0.0, 2.0], 2.0, 1e-3, 1e3],
    "k0": [[0.5], [0.5, 0.5], 0.3, [math.nan]],
}
_SCHEMA = (CONFIGS / "SCHEMA.md").read_text(encoding="utf-8")


@st.composite
def _edge_configs(draw):
    """One tiny config of a scenario with one to three keys that
    configs/SCHEMA.md documents set to values at or past their edges."""
    name = draw(st.sampled_from(SCENARIO_NAMES))
    cfg = copy.deepcopy(_TINY[name])
    keys = [(section, key) for section, keys in DEFAULTS[name].items() for key in keys
            if key in _SCHEMA]
    for section, key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3)):
        cfg.setdefault(section, {})[key] = draw(st.sampled_from(_KEYED.get(key, []) + _EDGES))
    return dict(cfg, scenario=name)


def _cli(*argv) -> tuple:
    """(exit code, stderr) of one command, run in this process: an uncaught
    exception, which the console would print as a traceback, fails the
    test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=500, deadline=None, derandomize=True)
@given(config=_edge_configs())
@example(config={"scenario": "rydberg_tables", "dressing": {"xi": 1.0}})
@example(config={"scenario": "rydberg_tables", "dressing": {"c12": -1.0}})
@example(config={"scenario": "rydberg_tables", "dressing": {"delta": 0.0}})
@example(config={"scenario": "rydberg_tables", "table": {"max_separation": 0}})
@example(config={"scenario": "rydberg_tables", "table": {"spacing_r_tilde": 0.0}})
@example(config={"scenario": "rydberg_tables", "focus": {"lifetime": 0.0}})
@example(config=dict(_TINY["displacement"], scenario="displacement", lattice={"extents": [7, 7]}))
@example(config=dict(_TINY["thin1d"], scenario="thin1d", lens={"phi0": "1.0e-3"}))
@example(config=dict(_TINY["thick1d"], scenario="thick1d", lens={"v0": "1.0e-3"}))
@example(config=dict(_TINY["holes"], scenario="holes", lattice={"extents": [21]},
                     packet={"sigma0": 1e-3}, lens={"focus": [3.0]}))
def test_what_validate_accepts_runs(config):
    """``validate`` exit 0 means ``run`` exits 0 and writes every file its
    manifest lists; exit 2 means ``run`` exits 2 and makes no output
    directory; neither raises (prints a traceback)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp) / "c.yaml", config)
        code, err = _cli("validate", "--config", path)
        assert code in (0, 2), err
        out = Path(tmp) / "out"
        ran, err = _cli("run", "--config", path, "--out", str(out))
        assert ran == code, err
        if code == 0:
            listed = json.loads((out / "manifest.json").read_text())["outputs"]
            assert listed and all(Path(entry["path"]).is_file() for entry in listed)
        else:
            assert not out.exists()
        assert "Traceback" not in err


def test_every_benchmark_task_config_validates():
    """Every distinct task config of the benchmark's workloads (all three,
    full and tiny, seeds 0-39 at 30 s) passes ``prepare_config``, so a
    stricter validation cannot quietly fail benchmark tasks. The task
    generator is loaded from its file; nothing else under perfbench/ is
    imported or run."""
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", CONFIGS.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads         # dataclasses resolve their module
    try:
        spec.loader.exec_module(workloads)
        configs = {json.dumps(task.config, sort_keys=True): task.config
                   for workload in workloads.WORKLOADS for size in workloads.SIZES
                   for seed in range(40)
                   for task in workloads.make_tasks(workload, seed, 30.0, size)}
    finally:
        del sys.modules[spec.name]
    assert len(configs) > 100
    for config in configs.values():
        prepare_config(config)


@pytest.mark.parametrize("count", [0, 38])
def test_hole_counts_below_the_free_sites_stay_valid(tmp_path, capsys, count):
    cfg = write_config(tmp_path / "c.yaml", dict(HOLES_SMALL, lattice={"extents": [40]},
                                                 packet={"sigma0": 4.0},
                                                 disorder={"count": count, "realizations": 2}))
    assert main(["validate", "--config", cfg]) == 0


def test_nonlinear_blockade_radius_uses_the_configured_power(tmp_path):
    jz, power = 50.0, 3.0
    cfg = write_config(tmp_path / "c.yaml", {
        "scenario": "nonlinear",
        "lattice": {"extents": [21]},
        "packet": {"sigma0": 3.0},
        "lens": {"v0": 3.0 ** (-8.0 / 3.0)},
        "interaction": {"nu": 2, "jz": jz, "power": power},
        "evolution": {"n_samples": 2},
    })
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    derived = json.loads((out / "manifest.json").read_text())["derived"]
    assert derived["blockade_radius [a]"] == pytest.approx(jz ** (1.0 / power))


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
    ({"scenario": "scaling_fit", "scan": {"sigma0": [-4.0, 8.0]}}, "scan.sigma0"),
    ({"scenario": "breakdown", "scan": {"sigma0": [0.0]}}, "scan.sigma0"),
    ({"scenario": "breakdown", "scan": {"sigma0": []}}, "scan.sigma0"),
], ids=["spacing-2", "one-width", "no-width", "multifocal-n-samples", "negative-width",
        "zero-breakdown-width", "no-breakdown-width"])
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


@pytest.mark.parametrize("tol", [1e-3, 1e-15, 0.0, "1e-8", True, None])
def test_unusable_tol_rejected_before_running(tmp_path, capsys, tol):
    cfg = write_config(tmp_path / "c.yaml", {
        "scenario": "thick1d", "evolution": {"tol": tol}})
    assert main(["validate", "--config", cfg]) == 2
    assert "evolution.tol" in capsys.readouterr().err
    out = tmp_path / "never"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "evolution.tol" in capsys.readouterr().err
    assert not out.exists()


def test_tol_range_ends_accepted():
    for tol in TOL_RANGE:
        cfg = prepare_config({"scenario": "thick1d", "evolution": {"tol": tol}})
        assert cfg["evolution"]["tol"] == tol


@pytest.mark.parametrize("t_max", ["abc", -5.0, 0, True, "1.0e3"])
def test_unusable_t_max_rejected_before_running(tmp_path, capsys, t_max):
    """A string (YAML reads a bare 1.0e3 as one), a bool or a time that is
    not positive fails validation, before any evolution."""
    cfg = write_config(tmp_path / "c.yaml", {
        "scenario": "thick1d", "evolution": {"t_max": t_max}})
    assert main(["validate", "--config", cfg]) == 2
    assert "evolution.t_max" in capsys.readouterr().err
    out = tmp_path / "never"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "evolution.t_max" in capsys.readouterr().err
    assert not out.exists()


def test_positive_t_max_accepted_and_run(tmp_path):
    cfg = write_config(tmp_path / "c.yaml",
                       dict(THICK_SMALL, evolution={"n_samples": 4, "t_max": 1.0e3}))
    assert main(["validate", "--config", cfg]) == 0
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    times = np.loadtxt(out / "widths.csv", delimiter=",", skiprows=1, usecols=0)
    assert times[-1] == pytest.approx(1.0e3)
    assert np.all(np.diff(times) > 0)


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


_OPTIMIZER_RUNS = {
    "longrange_alpha": ({"packet": {"sigma0": 4.0}, "scan": {"alphas": [6.0]}},
                        lambda d: d["optimizer_paths"].values()),
    "scaling_fit": ({"scan": {"sigma0": [4.0, 5.0], "kinds": ["thick", "thin"]}},
                    lambda d: d["optimizer_paths"].values()),
    "cascade": ({"packet": {"sigma0": 5.0}, "lens": {"order": 2}},
                lambda d: [d[f"stage{s}"]["optimizer_paths"] for s in (1, 2)]),
    "nonlinear": ({"packet": {"sigma0": 4.0}, "interaction": {"nu": 2},
                   "evolution": {"n_samples": 2}},
                  lambda d: [d["optimizer_paths"]]),
}


@pytest.mark.parametrize("scenario", sorted(_OPTIMIZER_RUNS))
def test_manifest_counts_optimizer_paths(tmp_path, scenario):
    """Each optimize_lens call's designs per sampling path are in the
    manifest, a nonlinear run's when its v0 is null; a centred run on a
    small chain takes only the even path, a cascade's second stage too,
    though it starts from an evolved state."""
    raw, read = _OPTIMIZER_RUNS[scenario]
    raw = {"scenario": scenario, "lattice": {"extents": [60]},
           "evolution": {"n_time": 20}, **raw}
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path / "c.yaml", raw),
                 "--out", str(out)]) == 0
    counts = list(read(json.loads((out / "manifest.json").read_text())["derived"]))
    assert counts
    for c in counts:
        assert set(c) == {"even", "dense", "chebyshev"}
        assert c["even"] > 0 and c["dense"] == c["chebyshev"] == 0
