"""Tests for the experiment harness: reports, determinism, CLI."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from multiscale_spde.cell import Coefficients, solve_cell
from multiscale_spde.cli import main
from multiscale_spde.errors import FitFailed, SolveFailed
from multiscale_spde.experiments import (
    ENHANCEMENT_MIN_FACTOR,
    ExperimentReport,
    _check_config,
    batch_mean_se,
    config_hash,
    emit_report,
    fit_rate_with_exclusion,
    load_config,
    run_cell_study,
    run_coupling_convergence,
    run_noise_check,
    run_semigroup_study,
    run_simulate,
    run_study,
    run_variance_study,
)
from multiscale_spde.limit import LimitModel, limit_model, ou_variance
from multiscale_spde.noise import NoiseSpec

REPO = Path(__file__).resolve().parent.parent
DEMO_CONFIG = REPO / "configs" / "demo-variance.json"
GOLDEN = Path(__file__).resolve().parent / "golden" / "demo_report.json"

SMALL_VARIANCE = {
    "coefficients": {"name": "cosine-potential", "amplitude": 1.0},
    "noise": {"family": "white", "cutoff": 8},
    "solver": {"eps": [0.25, 0.125], "t_final": 5.0, "watch": [1]},
    "study": {"kind": "variance", "target": "enhanced", "seed": 9,
              "tolerances": {"final_gap": 0.5}},
}


class TestFitting:
    def test_plain_rate_fit(self):
        eps = [0.25, 0.125, 0.0625, 0.03125]
        vals = [0.1 * e**1.5 for e in eps]
        fit = fit_rate_with_exclusion(eps, vals)
        assert_allclose(fit["theta"], 1.5, rtol=1e-12)
        assert not fit["excluded_coarsest"]

    def test_pre_asymptotic_point_is_dropped(self):
        eps = [0.25, 0.125, 0.0625, 0.03125]
        vals = [0.1 * e**1.5 for e in eps]
        vals[0] *= 30.0
        fit = fit_rate_with_exclusion(eps, vals)
        assert fit["excluded_coarsest"]
        assert_allclose(fit["theta"], 1.5, rtol=1e-12)

    def test_too_few_points(self):
        with pytest.raises(FitFailed):
            fit_rate_with_exclusion([0.25, 0.125], [1.0, 0.5])

    def test_batch_mean_se(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(3.0, 1.0, 400)
        mean, se = batch_mean_se(vals)
        assert_allclose(mean, vals.mean())
        assert 0.0 < se < 0.2


class TestReports:
    def test_bitwise_determinism(self):
        a = run_study(SMALL_VARIANCE).to_json_bytes()
        b = run_study(SMALL_VARIANCE).to_json_bytes()
        assert a == b

    def test_emit_round_trip_and_idempotence(self, tmp_path):
        report = run_study(SMALL_VARIANCE)
        files = emit_report(report, tmp_path)
        names = {f.name for f in files}
        assert "report.json" in names and "rows.csv" in names
        again = emit_report(report, tmp_path)
        for f, g in zip(files, again):
            assert f.read_bytes() == g.read_bytes()
        loaded = json.loads((tmp_path / "report.json").read_text())
        assert loaded == report.to_dict()

    def test_empty_report_gives_header_only_csv(self, tmp_path):
        report = ExperimentReport(study="empty", config={}, seed=0)
        report.tables["table"] = (["a", "b"], [])
        files = emit_report(report, tmp_path)
        content = (tmp_path / "table.csv").read_bytes()
        assert content == b"a,b\n"

    def test_csv_format(self, tmp_path):
        report = ExperimentReport(study="fmt", config={}, seed=0)
        report.tables["t"] = (["x", "y"], [[0.5, 1], [1.5, 2],
                                           [np.float64(6.983938917678365), np.int64(3)]])
        emit_report(report, tmp_path)
        text = (tmp_path / "t.csv").read_bytes()
        assert b"\r" not in text
        assert text.decode().splitlines() == ["x,y", "0.5,1", "1.5,2", "6.983938917678365,3"]

    def test_config_hash_is_order_insensitive(self):
        a = {"x": 1, "y": {"b": 2.0, "a": [1, 2]}}
        b = {"y": {"a": [1, 2], "b": 2.0}, "x": 1}
        assert config_hash(a) == config_hash(b)


class TestStudies:
    def test_cell_study_passes(self):
        report = run_cell_study({
            "coefficients": {"name": "cosine-potential", "amplitude": 1.0},
            "study": {"kind": "cell", "seed": 3},
        })
        assert report.passed
        row = report.rows[0]
        assert_allclose(row["mu"], 0.096218, atol=5e-7)
        assert row["rho_norm"] > 1.0
        sol = solve_cell(Coefficients.cosine_potential(1.0))
        assert (row["rho_residual"], row["chi_residual"]) == (sol.rho_residual,
                                                              sol.chi_residual)

    def test_cell_report_reads_what_solve_cell_measured(self, tmp_path):
        """The row's rho, sigma and centering columns and the density table are the
        values solve_cell checked; zero flux is the one verdict no contract covers."""
        config = {"coefficients": {"b": [[1, 0.0, -0.125], [-1, 0.0, 0.125]],
                                   "sigma": [[0, 1.0, 0.0], [1, 0.25, 0.0], [-1, 0.25, 0.0]]},
                  "study": {"kind": "cell", "seed": 0}}
        report = run_cell_study(config)
        sol = solve_cell(Coefficients.from_modes({1: -0.125j, -1: 0.125j},
                                                 {0: 1.0, 1: 0.25, -1: 0.25}))
        assert [v["name"] for v in report.verdicts] == ["<b rho, 1> = 0"]
        assert report.passed
        row = report.rows[0]
        assert list(row) == ["mu", "omega", "rho_norm", "rho_min", "rho_at_0", "rho_mean",
                             "rho_residual", "chi_residual", "sigma_min", "centering"]
        assert (row["sigma_min"], row["centering"]) == (sol.sigma_min, sol.centering)
        assert (row["rho_min"], row["rho_at_0"]) == (sol.rho_grid.min(), sol.rho_grid[0])
        header, density = report.tables["density"]
        assert header == ["x", "rho"] and len(density) == sol.rho_grid.size == 512
        assert [v for _, v in density] == sol.rho_grid.tolist()
        emit_report(report, tmp_path)
        columns = (tmp_path / "rows.csv").read_text().splitlines()[0].split(",")
        assert columns[-2:] == ["sigma_min", "centering"]

    def test_noise_check_report(self):
        report = run_noise_check({
            "noise": {"family": "tail", "tail": "one-plus-cos", "tail_rate": 1.0,
                      "ripple": "cos", "cutoff": 256, "eta": 0.0},
            "study": {"kind": "noise-check", "seed": 0},
        })
        assert report.passed
        assert len(report.verdicts) == 3

    def test_trivial_cell_convergence_hits_floor(self):
        report = run_coupling_convergence({
            "coefficients": {"name": "heat"},
            "noise": {"family": "power", "alpha": 0.75, "profile": "one",
                      "cutoff_factor": 2.0},
            "solver": {"eps": [0.25, 0.125, 0.0625], "t_final": 0.3},
            "study": {"kind": "converge", "seed": 4, "paths": 8, "mode_cutoff": 3},
        })
        assert report.passed
        assert report.fit is None
        assert all(r["error"] == 0.0 for r in report.rows)

    def test_converge_with_an_undriven_watched_mode_fails_before_any_solve(self, monkeypatch):
        import multiscale_spde.experiments as experiments

        def no_solve(*args, **kwargs):
            raise AssertionError("the cell was solved before the config was checked")

        monkeypatch.setattr(experiments, "solve_cell", no_solve)
        # cutoff_factor 1 drives |k| <= 4 at eps = 1/4, below mode_cutoff 8
        with pytest.raises(ValueError,
                           match=r"at eps = 0.25 the noise cutoff 4 is below mode_cutoff 8"):
            run_coupling_convergence({
                "coefficients": {"name": "cosine-potential", "amplitude": 1.0},
                "noise": {"family": "power", "alpha": 0.75, "profile": "one",
                          "cutoff_factor": 1.0},
                "solver": {"eps": [0.25, 0.125, 0.0625], "t_final": 0.01},
                "study": {"kind": "converge", "seed": 1, "paths": 8, "mode_cutoff": 8},
            })

    def test_converge_with_a_target_other_than_averaged_fails_before_any_solve(
            self, monkeypatch):
        import multiscale_spde.experiments as experiments

        def no_solve(*args, **kwargs):
            raise AssertionError("the cell was solved before the target was checked")

        monkeypatch.setattr(experiments, "solve_cell", no_solve)
        with pytest.raises(ValueError, match=r"converge compares with the averaged limit only; "
                                             r"study target 'enhanced' is not 'averaged'"):
            run_coupling_convergence({
                "coefficients": {"name": "cosine-potential", "amplitude": 1.0},
                "noise": {"family": "power", "alpha": 0.75, "profile": "one",
                          "cutoff_factor": 2.0},
                "solver": {"eps": [0.25, 0.125, 0.0625], "t_final": 0.01},
                "study": {"kind": "converge", "target": "enhanced", "seed": 1, "paths": 8},
            })

    @pytest.mark.parametrize("path", [*sorted((REPO / "configs").glob("*.json")), GOLDEN],
                             ids=lambda p: p.name)
    def test_shipped_configs_pass_the_config_check(self, path):
        config = load_config(path)
        _check_config(config["provenance"]["config"] if path == GOLDEN else config)

    @pytest.mark.parametrize("kind", ["simulate", "converge", "variance", "semigroup"])
    @pytest.mark.parametrize("eps, message", [
        ([0.125, 0.25], r"strictly decreasing: eps = 0.25 follows 0.125"),
        ([0.25, 0.25], r"strictly decreasing: eps = 0.25 follows 0.25"),
        ([0.25, 0.3], r"eps = 0.3 is not the reciprocal of a positive integer"),
    ])
    def test_bad_eps_fails_before_any_solve(self, monkeypatch, kind, eps, message):
        import multiscale_spde.experiments as experiments

        def no_solve(*args, **kwargs):
            raise AssertionError("the cell was solved before eps was checked")

        monkeypatch.setattr(experiments, "solve_cell", no_solve)
        config = json.loads(json.dumps(SMALL_VARIANCE))
        config["solver"]["eps"] = eps
        config["study"]["kind"] = kind
        with pytest.raises(ValueError, match=message):
            run_study(config)

    @pytest.mark.parametrize("kind", ["cell", "simulate", "converge", "variance", "semigroup",
                                      "noise-check"])
    @pytest.mark.parametrize("section, key, value, message", [
        ("solver", "scheme", "imex-cn", r"unknown solver key\(s\) scheme;"),
        ("solver", "dt_factr", 1e-3, r"unknown solver key\(s\) dt_factr;"),
        ("solver", "dt_factor", 1e-3, r"unknown solver key\(s\) dt_factor;"),
        ("solver", "dt", 0.0, r"solver dt = 0.0 must be positive"),
        ("solver", "t_final", -1.0, r"solver t_final = -1.0 must be positive"),
        ("solver", "n_modes", 0, r"solver n_modes = 0 must be positive"),
        ("noise", "cutoff_factor", 2.0, r"noise gives both cutoff and cutoff_factor"),
        ("solver", "n_modes", 0.5, r"solver n_modes = 0.5 must be an integer"),
        ("study", "target", "enhancd", r"unknown study target 'enhancd'; the limit regimes "
                                       r"are averaged, fluctuation, enhanced, smoothed"),
        ("sovler", "eps", 0.25, r"unknown config key\(s\) sovler; the studies read "
                                r"coefficients, noise, solver, study$"),
        ("coefficients", "amplitud", 2.0, r"unknown coefficients key\(s\) amplitud; "
                                          r"the studies read name, amplitude, sigma, b$"),
        ("noise", "cutof", 16, r"unknown noise key\(s\) cutof; the studies read family, "
                               r"cutoff, cutoff_factor,"),
        ("study", "pahts", 4, r"unknown study key\(s\) pahts; the studies read kind,"),
        ("study", "tolerances", {"theta_mn": 0.5}, r"unknown tolerances key\(s\) theta_mn; "
                                                   r"the studies read theta_min,"),
        ("noise", "mollifier", {"kind": "tent", "radus": 3.0},
         r"unknown mollifier key\(s\) radus; the studies read kind, radius$"),
        ("study", "paths", 0, r"study paths = 0 must be at least 1"),
        ("study", "paths", -4, r"study paths = -4 must be at least 1"),
        ("study", "mode_cutoff", 0, r"study mode_cutoff = 0 must be at least 1"),
        ("solver", "watch", [], r"solver watch is empty; give at least one mode"),
        ("study", "k_test", 64, r"unknown study key\(s\) k_test; the studies read kind,"),
        ("study", "tolerances", {"enhancement_min_factor": 0.9},
         r"unknown tolerances key\(s\) enhancement_min_factor; the studies read theta_min,"),
    ])
    def test_bad_solver_key_fails_before_any_solve(self, monkeypatch, kind, section, key,
                                                   value, message):
        import multiscale_spde.experiments as experiments

        def no_solve(*args, **kwargs):
            raise AssertionError("the cell was solved before the solver keys were checked")

        monkeypatch.setattr(experiments, "solve_cell", no_solve)
        config = json.loads(json.dumps(SMALL_VARIANCE))
        config.setdefault(section, {})[key] = value
        config["study"]["kind"] = kind
        with pytest.raises(ValueError, match=message):
            run_study(config)

    @pytest.mark.parametrize("kind", ["cell", "converge", "variance"])
    @pytest.mark.parametrize("coefficients, message", [
        ({"b": [[0, 0.5, 0.0], [1, 0.0, -0.5], [-1, 0.0, 0.5]], "sigma": "one"},
         r"cell is not centred: \|mean\(b/sigma\^2\)\| = 5\.000e-01"),
        ({"b": "sin", "sigma": "one-plus-cos"},
         r"sigma is not positive on the grid: min sigma = 0\.000e\+00"),
    ], ids=["uncentred", "sigma-touches-zero"])
    def test_bad_cell_fails_before_any_block(self, monkeypatch, kind, coefficients, message):
        from multiscale_spde import solver

        def no_blocks(*args, **kwargs):
            raise AssertionError("blocks were built for a cell without a solution")

        monkeypatch.setattr(solver, "build_blocks", no_blocks)
        config = json.loads(json.dumps(SMALL_VARIANCE))
        config["coefficients"] = coefficients
        config["study"]["kind"] = kind
        if kind == "converge":
            del config["study"]["target"]  # converge compares with the averaged limit
        with pytest.raises(SolveFailed, match=message):
            run_study(config)

    def test_zero_limit_variance_fails_before_the_covariance(self, monkeypatch):
        """Centred noise has a zero averaged limit, so no relative gap exists."""
        import multiscale_spde.experiments as experiments

        def no_covariance(*args, **kwargs):
            raise AssertionError("the covariance was computed for a zero target")

        monkeypatch.setattr(experiments, "exact_mode_covariance", no_covariance)
        config = json.loads(json.dumps(SMALL_VARIANCE))
        config["noise"] = {"family": "power", "alpha": 0.5, "profile": "one-plus-cos",
                           "cutoff": 8, "centered": True}
        config["study"]["target"] = "averaged"
        with pytest.raises(ValueError, match=r"the averaged limit predicts variance 0 for "
                                             r"mode 1 at eps = 0.25"):
            run_variance_study(config)

    @pytest.mark.parametrize("mode, eps, message", [
        (0, [0.25, 0.125], r"mode m = 0 does not decay at eps = 0.25"),
        (8, [0.125, 0.0625], r"mode m = 8 is not resolved at eps = 0.125: "
                             r"need eps \* \|m\| < 1/2"),
        (-2, [0.25, 0.125], r"mode m = -2 is not resolved at eps = 0.25"),
    ])
    def test_semigroup_mode_must_be_slow_before_any_solve(self, monkeypatch, mode, eps,
                                                          message):
        """Mode 0 once gave remainder 0.0 and R^2 = 1; mode 8 at eps = 1/8 passed
        both verdicts with eps m = 1.  Both are rejected at the largest eps."""
        import multiscale_spde.experiments as experiments

        def no_solve(*args, **kwargs):
            raise AssertionError("the cell was solved before the mode was checked")

        monkeypatch.setattr(experiments, "solve_cell", no_solve)
        config = {"coefficients": {"name": "cosine-potential", "amplitude": 1.0},
                  "solver": {"eps": eps, "t_final": 1.0},
                  "study": {"kind": "semigroup", "mode": mode}}
        with pytest.raises(ValueError, match=message):
            run_semigroup_study(config)

    def test_variance_target_is_taken_at_the_recorded_time(self):
        """With t_final / dt = 3.33 the covariance is recorded at 3 dt = 0.9: the
        target and the classical prediction are OU variances at 0.9, not 1.0."""
        config = {"coefficients": {"name": "cosine-potential", "amplitude": 1.0},
                  "noise": {"family": "white", "cutoff": 8},
                  "solver": {"eps": [0.25, 0.125], "t_final": 1.0, "dt": 0.3, "watch": [1]},
                  "study": {"kind": "variance", "target": "enhanced", "seed": 0,
                            "tolerances": {"final_gap": 1.0}}}
        report = run_variance_study(config)
        cell = solve_cell(Coefficients.cosine_potential(1.0))
        model = limit_model("enhanced", NoiseSpec.white(8), cell, 1)
        t_recorded = 3 * 0.3
        for row in report.rows:
            assert row["target"] == ou_variance(model, 1, t_recorded)
            assert report.tables[f"covariance_eps_{row['eps']:g}"][1][-1][0] == t_recorded
        classical = ou_variance(LimitModel(cell.mu, {1: 1.0}, 1), 1, t_recorded)
        enhancement = report.verdicts[-1]
        assert enhancement["name"] == "variance enhancement over the classical prediction"
        assert enhancement["value"] == report.rows[-1]["variance"] / classical
        assert enhancement["threshold"] == ENHANCEMENT_MIN_FACTOR * cell.enhancement**2

    def test_variance_study_rows_and_tables(self):
        report = run_variance_study(SMALL_VARIANCE)
        assert {r["eps"] for r in report.rows} == {0.25, 0.125}
        assert any(name.startswith("covariance_eps") for name in report.tables)

    def test_simulate_study_emits_per_path_tables(self, tmp_path):
        report = run_simulate({
            "coefficients": {"name": "heat"},
            "noise": {"family": "white", "cutoff": 2},
            "solver": {"eps": [0.5], "t_final": 0.05, "watch": [1]},
            "study": {"kind": "simulate", "seed": 1, "paths": 2},
        })
        files = emit_report(report, tmp_path)
        names = {f.name for f in files}
        assert {"path_000.csv", "path_001.csv"} <= names
        header = (tmp_path / "path_000.csv").read_text().splitlines()[0]
        assert header == "t,m,re,im"


class TestConfigBuilders:
    def test_explicit_mode_lists_match_builtin(self):
        from multiscale_spde.experiments import build_coefficients
        from multiscale_spde.cell import Coefficients
        from multiscale_spde.fourier import l2_norm

        explicit = build_coefficients({
            "b": [[1, 0.0, -0.5], [-1, 0.0, 0.5]],
            "sigma": [[0, 1.0, 0.0]],
        })
        builtin = Coefficients.cosine_potential(1.0)
        assert l2_norm(explicit.b - builtin.b) == 0.0
        assert l2_norm(explicit.sigma - builtin.sigma) == 0.0

    def test_solver_overrides_are_honoured(self):
        from multiscale_spde.experiments import _solver_config
        from multiscale_spde.cell import Coefficients

        c = Coefficients.cosine_potential(1.0)
        sc = _solver_config({"dt": 5e-4, "n_modes": 96, "track_norm": True},
                            c, 0.25, 8, seed=1, default_t=2.0, watch=(1,))
        assert sc.dt == 5e-4 and sc.n_modes == 96 and sc.track_norm
        assert sc.t_final == 2.0

    def test_cutoff_factor_scales_with_eps(self):
        from multiscale_spde.experiments import resolve_cutoff
        assert resolve_cutoff({"cutoff_factor": 2.0}, 0.125) == 16
        assert resolve_cutoff({"cutoff": 12}, 0.125) == 12
        with pytest.raises(ValueError):
            resolve_cutoff({}, None)


# Runs studies with every import of SciPy failing, and prints each report's hash.
NO_SCIPY = """
import hashlib, json, sys
sys.modules["scipy"] = None  # import scipy, and any scipy submodule, now raises
from multiscale_spde.experiments import run_study
for config in json.loads(sys.stdin.read()):
    print(hashlib.sha256(run_study(config).to_json_bytes()).hexdigest())
"""


def test_studies_run_without_scipy():
    """The demo cell and variance studies, a short simulate and a smoke converge
    import nothing from SciPy, and give the same report bytes as in process."""
    demo = json.loads(DEMO_CONFIG.read_text())
    short = {"eps": [0.25, 0.125, 0.0625], "t_final": 0.01}
    configs = [
        {**demo, "study": {**demo["study"], "kind": "cell"}},
        demo,
        {**demo, "solver": {**demo["solver"], "t_final": 0.01},
         "study": {"kind": "simulate", "seed": 1, "paths": 2}},
        {**demo, "solver": short, "study": {"kind": "converge", "seed": 1, "paths": 4,
                                            "mode_cutoff": 2}},
    ]
    src = str(REPO / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", NO_SCIPY], input=json.dumps(configs),
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    expected = [hashlib.sha256(run_study(c).to_json_bytes()).hexdigest() for c in configs]
    assert done.stdout.split() == expected


class TestCli:
    def test_cell_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "coefficients": {"name": "heat"},
            "study": {"seed": 1},
        }))
        code = main(["cell", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--quiet"])
        assert code == 0
        assert (tmp_path / "out" / "report.json").exists()

    def test_seed_override_changes_provenance(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "coefficients": {"name": "heat"},
            "study": {"seed": 1},
        }))
        out = tmp_path / "out"
        main(["cell", "--config", str(cfg), "--out", str(out), "--seed", "42",
              "--quiet"])
        loaded = json.loads((out / "report.json").read_text())
        assert loaded["provenance"]["seed"] == 42


# The golden report was recorded on Python 3.10.12.  Recomputed with
# Python 3.11.7, NumPy 2.4.6, SciPy 1.17.1 and scipy-openblas 0.3.31, every
# key, string, bool, int, the config_hash and every verdict's "passed" are
# identical, while floats differ by at most 1.9e-12 relative
# (rows[1].rel_gap and the verdict value that repeats it): BLAS/LAPACK
# rounding accumulated over the covariance recursion.  One and two BLAS
# threads give identical bytes, so bytes are reproducible within one
# NumPy/BLAS build only; across builds floats are held to
# GOLDEN_RTOL, 50x the measured drift.
GOLDEN_RTOL = 1e-10


def report_mismatch(actual, expected, path="$"):
    """First JSON path where two parsed reports differ, or None.

    Floats agree within GOLDEN_RTOL; everything else must be identical,
    including its JSON type.
    """
    if type(actual) is not type(expected):
        return f"{path}: {type(actual).__name__} {actual!r} != " \
               f"{type(expected).__name__} {expected!r}"
    if isinstance(actual, dict):
        if actual.keys() != expected.keys():
            return f"{path}: keys {sorted(actual)} != {sorted(expected)}"
        items = ((f"{path}.{k}", actual[k], expected[k]) for k in sorted(actual))
    elif isinstance(actual, list):
        if len(actual) != len(expected):
            return f"{path}: length {len(actual)} != {len(expected)}"
        items = ((f"{path}[{i}]", a, e)
                 for i, (a, e) in enumerate(zip(actual, expected)))
    elif isinstance(actual, float):
        if math.isclose(actual, expected, rel_tol=GOLDEN_RTOL, abs_tol=0.0):
            return None
        return f"{path}: {actual!r} != {expected!r} (rtol {GOLDEN_RTOL:g})"
    else:
        return None if actual == expected else f"{path}: {actual!r} != {expected!r}"
    for sub_path, a, e in items:
        found = report_mismatch(a, e, sub_path)
        if found is not None:
            return found
    return None


def assert_matches_golden(report_bytes: bytes) -> None:
    mismatch = report_mismatch(json.loads(report_bytes), json.loads(GOLDEN.read_bytes()))
    assert mismatch is None, f"report differs from {GOLDEN.name} at {mismatch}"


class TestGolden:
    def test_demo_config_matches_frozen_report(self):
        """The shipped demo study reproduces its frozen report up to rounding."""
        config = json.loads(DEMO_CONFIG.read_text())
        assert_matches_golden(run_study(config).to_json_bytes())

    def test_cli_emission_is_location_independent(self, tmp_path):
        """The emitted report does not depend on the output directory."""
        expected = run_study(json.loads(DEMO_CONFIG.read_text())).to_json_bytes()
        for name in ("anywhere", "else/nested"):
            code = main(["variance", "--config", str(DEMO_CONFIG),
                         "--out", str(tmp_path / name), "--quiet"])
            assert code == 0
            emitted = (tmp_path / name / "report.json").read_bytes()
            assert emitted == expected
        assert_matches_golden(emitted)
