"""Tests for the experiment harness: reports, determinism, CLI."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from multiscale_spde.cell import Coefficients, solve_cell
from multiscale_spde.cli import main
from multiscale_spde.errors import FitFailed
from multiscale_spde.experiments import (
    ENHANCEMENT_MIN_FACTOR,
    ExperimentReport,
    _fit_log_decay,
    batch_mean_se,
    config_hash,
    emit_report,
    fit_rate_with_exclusion,
    load_config,
    parse_config,
    run_study,
)
from multiscale_spde.fourier import SpectralField, l2_norm
from multiscale_spde.limit import LimitModel, limit_model, ou_variance
from multiscale_spde.noise import NoiseSpec, bump_mollifier, tent_mollifier

REPO = Path(__file__).resolve().parent.parent
DEMO_CONFIG = REPO / "configs" / "demo-variance.json"
GOLDEN = Path(__file__).resolve().parent / "golden" / "demo_report.json"

# watched mode 0, white noise: the measured rel_gap at eps = 1/4, 1/8 and 1/16
MODE_ZERO_GAPS = [0.06669421851018463, 0.016673600027845903, 0.00416840000820309]

SMALL_VARIANCE = {
    "coefficients": {"name": "cosine-potential", "amplitude": 1.0},
    "noise": {"family": "white", "cutoff": 8},
    "solver": {"eps": [0.25, 0.125], "t_final": 5.0, "watch": [1]},
    "study": {"kind": "variance", "target": "enhanced", "seed": 9,
              "tolerances": {"final_gap": 0.5}},
}


# One refusal row per (noise family, family key it does not read), for the table of
# test_unread_variant_key_or_second_form_is_refused: the family with the keys it needs,
# then the key.
FAMILY_READS = {"white": ({}, ()), "power": ({"alpha": 0.5}, ("alpha", "profile")),
                "tail": ({}, ("tail", "tail_rate", "ripple", "eta")),
                "custom": ({"table": {"1": "one"}}, ("table", "alpha", "tail", "eta"))}
FAMILY_KEYS = {"alpha": 0.5, "profile": "cos", "eta": 0.5, "tail": "one", "tail_rate": 2.0,
               "ripple": "cos", "table": {"1": "one"}}
UNREAD_FAMILY_KEYS = [
    ("noise", None, {"family": family, **needs, key: value},
     rf"^noise {key} given to the {family} family, which reads "
     rf"{'only ' + ', '.join(reads) if reads else 'no family key'}$")
    for family, (needs, reads) in FAMILY_READS.items()
    for key, value in FAMILY_KEYS.items() if key not in reads]


ABSENT = object()  # in a dict amend merges into a section: leave this key out


def amend(config: dict, section: str, key, value) -> dict:
    """config with the section's key set to value.  key None merges value, a dict, into
    the section, where an ABSENT entry removes its key, and puts any other value, null
    included, in the section's place."""
    if key is None and isinstance(value, dict):
        config[section].update(value)
        config[section] = {k: v for k, v in config[section].items() if v is not ABSENT}
    elif key is None:
        config[section] = value
    else:
        config.setdefault(section, {})[key] = value
    return config


def small_config(kind: str) -> dict:
    """SMALL_VARIANCE as a `kind` study; for converge, which watches 1 .. study mode_cutoff
    and refuses a solver watch, without its watch."""
    config = json.loads(json.dumps(SMALL_VARIANCE))
    config["study"]["kind"] = kind
    if kind == "converge":
        del config["solver"]["watch"]
    return config


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

    @pytest.mark.parametrize("ts, values, message", [
        (np.arange(7.0), np.exp(-np.arange(7.0)), r"only 7 samples in the fit window$"),
        (np.arange(12.0), np.exp(-np.arange(12.0)) * (1.0 + 0.9 * (-1.0) ** np.arange(12)),
         r"fit R\^2 = 0\.\d+ below 0\.99$"),
    ])
    def test_boundary_layer_fit_failures(self, ts, values, message):
        with pytest.raises(FitFailed, match=rf"boundary layer: {message}"):
            _fit_log_decay(ts, values)

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

    def test_summary_lines(self):
        report = ExperimentReport(study="demo", config={}, seed=0)
        report.verdict("rate", True, 0.5, 0.3)
        report.verdict("decreasing", False, None)
        report.fit = {"theta": 0.123456, "r_squared": 1.0, "note": "text"}
        assert report.summary_lines() == [
            "study: demo  (FAIL)",
            "  pass rate = 0.5  (threshold 0.3)",
            "  FAIL decreasing",
            "  fit: theta = 0.1235, r_squared = 1",
        ]

    def test_summary_lines_print_booleans_as_booleans(self):
        """Not as 0 and 1: bool is an int, and the number formats would print it as one."""
        report = ExperimentReport(study="demo", config={}, seed=0)
        report.fit = {"excluded_coarsest": False, "kept": np.bool_(True), "theta": 0.5}
        assert report.summary_lines() == [
            "study: demo  (pass)",
            "  fit: excluded_coarsest = false, kept = true, theta = 0.5",
        ]

    def test_config_hash_is_order_insensitive(self):
        a = {"x": 1, "y": {"b": 2.0, "a": [1, 2]}}
        b = {"y": {"a": [1, 2], "b": 2.0}, "x": 1}
        assert config_hash(a) == config_hash(b)


@pytest.fixture
def solves(monkeypatch):
    """The arguments of every solve_cell call the studies make; the solve still runs."""
    import multiscale_spde.experiments as experiments

    calls = []
    real = experiments.solve_cell

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "solve_cell", counting)
    return calls


class TestRunStudy:
    @pytest.mark.parametrize("kind", ["cell", "noise-check", "simulate", "converge",
                                      "variance", "semigroup"])
    def test_run_study_parses_once(self, monkeypatch, kind):
        """One parse of the whole document per study, whatever the kind, and the report
        keeps the raw config as its provenance."""
        import multiscale_spde.experiments as experiments

        parses, real = [], experiments._parse

        def counting(cls, name, raw):
            if cls is experiments.Config:
                parses.append(name)
            return real(cls, name, raw)

        monkeypatch.setattr(experiments, "_parse", counting)
        config = small_config(kind)
        config["solver"].update({"eps": [0.25, 0.125, 0.0625], "t_final": 0.01})
        if kind == "converge":
            del config["study"]["target"]
            config["study"].update({"paths": 2, "mode_cutoff": 2})
        report = run_study(config)
        assert parses == ["config"]
        assert report.config is config and report.seed == 9
        assert report.study == ("variance-enhanced" if kind == "variance" else kind)


class TestStudies:
    def test_cell_study_passes(self):
        report = run_study({
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
        report = run_study(config)
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
        report = run_study({
            "noise": {"family": "tail", "tail": "one-plus-cos", "tail_rate": 1.0,
                      "ripple": "cos", "cutoff": 256, "eta": 0.0},
            "study": {"kind": "noise-check", "seed": 0},
        })
        assert report.passed
        assert len(report.verdicts) == 3
        assert report.notes == []

    def test_noise_check_skips_summability_of_a_decaying_family(self):
        """A power family converges to zero, not to its tail: no summability verdict, a note."""
        report = run_study({
            "noise": {"family": "power", "alpha": 0.75, "profile": "one-plus-cos",
                      "cutoff": 256},
            "study": {"kind": "noise-check", "seed": 0},
        })
        assert report.passed
        assert [v["name"] for v in report.verdicts] == ["decay check (power(alpha=0.75))",
                                                        "tail convergence check "
                                                        "(power(alpha=0.75))"]
        assert report.notes == ["tail summability skipped: decaying family"]

    def test_noise_check_checks_the_centred_noise(self, solves):
        """With centered = true, noise-check checks the noise the studies drive: centred
        against the cell's density, as converge's noise decay assumption is."""
        report = run_study({
            "coefficients": {"name": "cosine-potential", "amplitude": 1.0},
            "noise": {"family": "power", "alpha": 0.5, "profile": "one-plus-cos",
                      "cutoff": 64, "centered": True},
            "study": {"kind": "noise-check"},
        })
        assert [v["name"] for v in report.verdicts] == [
            "decay check (power(alpha=0.5)+centred)",
            "tail convergence check (power(alpha=0.5)+centred)"]
        assert len(solves) == 1

    def test_centred_noise_check_without_coefficients_is_refused(self, solves):
        with pytest.raises(ValueError, match=r"^noise centered = true centres against the "
                                             r"cell's density; the config has no "
                                             r"coefficients section$"):
            run_study({"noise": {"family": "power", "alpha": 0.5, "cutoff": 8,
                                 "centered": True},
                       "study": {"kind": "noise-check"}})
        assert solves == []

    def test_converge_default_s_reads_the_alpha_of_the_driven_noise(self):
        """A custom family reads alpha, so s = max(0, 1.5 (1 - 2 alpha)) + 1/2 = 1.25
        at alpha = 0.25; a white family does not, and refuses it."""
        config = {
            "coefficients": {"name": "cosine-potential", "amplitude": 1.0},
            "noise": {"family": "custom", "alpha": 0.25, "cutoff": 8,
                      "table": {str(k): "one" for k in range(9)}},
            "solver": {"eps": [0.25, 0.125, 0.0625], "t_final": 0.01},
            "study": {"kind": "converge", "seed": 1, "paths": 2, "mode_cutoff": 2},
        }
        assert run_study(config).notes[0] == "H^-s proxy with s = 1.25, modes 1..2"
        config["noise"] = {"family": "white", "alpha": 0.25, "cutoff": 8}
        with pytest.raises(ValueError, match=r"^noise alpha given to the white family, "
                                             r"which reads no family key$"):
            run_study(config)

    def test_trivial_cell_convergence_hits_floor(self):
        report = run_study({
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
            run_study({
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
            run_study({
                "coefficients": {"name": "cosine-potential", "amplitude": 1.0},
                "noise": {"family": "power", "alpha": 0.75, "profile": "one",
                          "cutoff_factor": 2.0},
                "solver": {"eps": [0.25, 0.125, 0.0625], "t_final": 0.01},
                "study": {"kind": "converge", "target": "enhanced", "seed": 1, "paths": 8},
            })

    @pytest.mark.parametrize("kind", ["converge", "simulate"])
    def test_dt_above_the_default_horizon_fails_before_any_solve(self, monkeypatch, kind):
        """Both studies default to t_final = 1, so dt = 2 is refused by the config check."""
        import multiscale_spde.experiments as experiments

        def no_solve(*args, **kwargs):
            raise AssertionError("the cell was solved before dt was checked")

        monkeypatch.setattr(experiments, "solve_cell", no_solve)
        config = json.loads(json.dumps(SMALL_VARIANCE))
        config["solver"] = {"eps": [0.25, 0.125, 0.0625], "dt": 2.0}
        config["study"] = {"kind": kind, "seed": 1, "paths": 2}
        with pytest.raises(ValueError, match=rf"solver dt = 2.0 is above t_final = 1, the "
                                             rf"{kind} study's default horizon \(the config "
                                             rf"gives no solver t_final\)$"):
            run_study(config)

    @pytest.mark.parametrize("kind", ["converge", "simulate"])
    def test_t_final_below_the_default_dt_fails_before_any_solve(self, monkeypatch, kind):
        """With no dt both studies step on default_dt(eps), 1e-3 at eps = 1/4, so
        t_final = 1e-4 is refused by the config check, naming t_final, eps and that dt."""
        import multiscale_spde.experiments as experiments

        def no_solve(*args, **kwargs):
            raise AssertionError("the cell was solved before t_final was checked")

        monkeypatch.setattr(experiments, "solve_cell", no_solve)
        config = json.loads(json.dumps(SMALL_VARIANCE))
        config["solver"] = {"eps": [0.25, 0.125, 0.0625], "t_final": 1e-4}
        config["study"] = {"kind": kind, "seed": 1, "paths": 2}
        with pytest.raises(ValueError, match=rf"solver t_final = 0.0001 is below 0.001, the "
                                             rf"{kind} study's default dt at eps = 0.25 \(the "
                                             rf"config gives no solver dt\)$"):
            run_study(config)
        config["solver"]["dt"] = 5e-5  # an explicit dt below t_final passes the check
        parse_config(config)

    def test_variance_t_final_below_its_default_dt_fails_before_any_covariance(
            self, monkeypatch):
        """The variance study steps on min(1e-3, eps^2 / 4) when no dt is given."""
        import multiscale_spde.experiments as experiments

        def no_covariance(*args, **kwargs):
            raise AssertionError("a covariance was computed before t_final was checked")

        monkeypatch.setattr(experiments, "exact_mode_covariance", no_covariance)
        config = json.loads(json.dumps(SMALL_VARIANCE))
        config["solver"]["t_final"] = 5e-4
        with pytest.raises(ValueError, match=r"solver t_final = 0.0005 is below 0.001, the "
                                             r"variance study's default dt at eps = 0.25 \(the "
                                             r"config gives no solver dt\)$"):
            run_study(config)

    def test_variance_dt_above_the_default_horizon_fails_before_any_covariance(
            self, monkeypatch):
        """The variance study's default horizon, 3 / mu (31.2 on this cell), is known
        only after the cell solve; dt above it is refused before any block is built."""
        import multiscale_spde.experiments as experiments

        def no_covariance(*args, **kwargs):
            raise AssertionError("a covariance was computed before dt was checked")

        monkeypatch.setattr(experiments, "exact_mode_covariance", no_covariance)
        config = json.loads(json.dumps(SMALL_VARIANCE))
        del config["solver"]["t_final"]
        config["solver"]["dt"] = 100.0
        with pytest.raises(ValueError, match=r"solver dt = 100.0 is above t_final = 31\.\d+, "
                                             r"the variance study's default horizon \(the "
                                             r"config gives no solver t_final\)$"):
            run_study(config)

    @pytest.mark.parametrize("kind", [None, "noise-check"], ids=["own-kind", "noise-check"])
    @pytest.mark.parametrize("path", [*sorted((REPO / "configs").glob("*.json")), GOLDEN],
                             ids=lambda p: p.name)
    def test_shipped_configs_pass_the_config_check(self, path, kind):
        """Each shipped config parses as its own study kind, and noise-check, which reads
        the first eps, passes every verdict on it."""
        config = load_config(path)
        config = config["provenance"]["config"] if path == GOLDEN else config
        if kind is None:
            parse_config(config)
        else:  # track_norm, which only simulate reads, is refused for noise-check
            config["study"]["kind"] = kind
            config["solver"].pop("track_norm", None)
            assert run_study(config).passed

    @pytest.mark.parametrize("kind", ["simulate", "converge", "variance", "semigroup"])
    @pytest.mark.parametrize("eps, message", [
        ([0.125, 0.25], r"strictly decreasing: eps = 0.25 follows 0.125"),
        ([0.25, 0.25], r"strictly decreasing: eps = 0.25 follows 0.25"),
        ([0.25, 0.3], r"eps = 0.3 is not the reciprocal of a positive integer"),
        (None, r"study needs at least \d solver eps value\(s\); the config gives 0$"),
    ])
    def test_bad_eps_fails_before_any_solve(self, monkeypatch, kind, eps, message):
        import multiscale_spde.experiments as experiments

        def no_solve(*args, **kwargs):
            raise AssertionError("the cell was solved before eps was checked")

        monkeypatch.setattr(experiments, "solve_cell", no_solve)
        config = small_config(kind)
        config["solver"]["eps"] = eps
        with pytest.raises(ValueError, match=message):
            run_study(config)

    @pytest.mark.parametrize("kind, eps, message", [
        ("converge", [0.25, 0.125], r"the converge study needs at least 3 solver eps value\(s\); "
                                    r"the config gives 2$"),
        ("semigroup", [0.25], r"the semigroup study needs at least 2 solver eps value\(s\); "
                              r"the config gives 1$"),
        ("simulate", [], r"^solver eps is empty; give at least one eps$"),
        ("variance", [], r"^solver eps is empty; give at least one eps$"),
    ])
    def test_too_few_eps_fails_before_any_solve(self, monkeypatch, kind, eps, message):
        """converge fits a rate to at least 3 eps and semigroup an exponent to at least 2;
        fewer are refused before the cell solve, not after the Monte Carlo."""
        import multiscale_spde.experiments as experiments

        def no_solve(*args, **kwargs):
            raise AssertionError("the cell was solved before the eps count was checked")

        monkeypatch.setattr(experiments, "solve_cell", no_solve)
        config = small_config(kind)
        config["solver"]["eps"] = eps
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
        ("solver", "dt", 10.0, r"solver dt = 10.0 is above solver t_final = 5.0$"),
        ("solver", "n_modes", 8, r"solver n_modes = 8 is below 32, the band minimum "
                                 r"2 \(1/eps\) \(J \+ 1\) \+ 2 cutoff at eps = 0.25$"),
        ("solver", "n_modes", 65, r"solver n_modes = 65 must be even: the band "),
        ("noise", None, {"family": "custom", "table": {"1": "one", "-1": "cos"}},
         r"noise table gives q_1 and q_-1 different profiles; the profiles must obey "
         r"q_k = q_-k$"),
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
        ("solver", "watch", [2, 1, 1], r"solver watch repeats mode 1; give each mode once$"),
        ("study", "k_test", 64, r"unknown study key\(s\) k_test; the studies read kind,"),
        ("study", "tolerances", {"enhancement_min_factor": 0.9},
         r"unknown tolerances key\(s\) enhancement_min_factor; the studies read theta_min,"),
        ("noise", "family", "whit", r"unknown noise family 'whit'; the families are white, "
                                    r"power, tail, custom$"),
        ("noise", "mollifier", {"kind": "tnet"},
         r"^unknown mollifier kind 'tnet'; the kinds are tent, bump$"),
        ("noise", "mollifier", {"kind": "tent", "radius": 0},
         r"^mollifier radius = 0 must be positive$"),
        ("noise", "cutoff", None, r"noise gives neither cutoff nor cutoff_factor; give one$"),
        ("noise", None, {"family": "power", "alpha": 1.5},
         r"noise decay exponent alpha = 1.5 must lie in \(0, 1\)$"),
        ("noise", "centered", True, r"noise centered = true: the white family centres to zero"),
        ("noise", "centered", "false", r"noise centered = 'false' must be true or false$"),
        ("solver", "track_norm", "false", r"solver track_norm = 'false' must be true or false$"),
        ("noise", "cutoff", 8.5, r"noise cutoff = 8.5 must be an integer$"),
        ("solver", "watch", [1.5], r"solver watch entry = 1.5 must be an integer$"),
        ("study", "paths", 2.5, r"study paths = 2.5 must be an integer$"),
        ("study", "mode", 1.5, r"study mode = 1.5 must be an integer$"),
        ("study", "mode_cutoff", 2.5, r"study mode_cutoff = 2.5 must be an integer$"),
        ("study", "seed", 1.5, r"study seed = 1.5 must be an integer$"),
        ("study", "target", "smoothed", r"study target 'smoothed' needs a noise mollifier$"),
        ("noise", None, {"family": "power"},
         r"noise key alpha is missing; family 'power' needs it$"),
        ("noise", None, {"family": "custom"},
         r"noise key table is missing; family 'custom' needs it$"),
        ("noise", None, {"family": "power", "alpha": 0.5, "profile": "ones"},
         r"^unknown noise profile 'ones'; the profile names are one, cos, sin, one-plus-cos$"),
        ("noise", None, "white", r"^noise = 'white' must be an object$"),
        ("solver", None, None, r"^solver = None must be an object$"),
        ("study", None, None, r"^study = None must be an object$"),
        ("study", "tolerances", [0.5], r"^tolerances = \[0.5\] must be an object$"),
        ("study", "tolerances", None, r"^tolerances = None must be an object$"),
        ("noise", "mollifier", "tent", r"^mollifier = 'tent' must be an object$"),
        ("solver", "watch", 1, r"^solver watch = 1 must be a list of modes$"),
        ("study", "tolerances", {"final_gap": "0.5"},
         r"^tolerances final_gap = '0.5' must be a real number$"),
        ("study", "tolerances", {"theta_min": None},
         r"^tolerances theta_min = None must be a real number$"),
        ("study", "tolerances", {"theta_min": "0.3"},
         r"^tolerances theta_min = '0.3' must be a real number$"),
        ("study", "tolerances", {"r2_min": True},
         r"^tolerances r2_min = True must be a real number$"),
        ("study", "tolerances", {"exponent_range": [0.8]},
         r"^tolerances exponent_range = \[0.8\] must be a list of two real numbers$"),
        ("study", "tolerances", {"exponent_range": [0.8, "1.2"]},
         r"^tolerances exponent_range = \[0.8, '1.2'\] must be a list of two real numbers$"),
        ("solver", "dt", [1], r"^solver dt = \[1\] must be a real number$"),
        ("coefficients", "amplitude", None, r"^coefficients amplitude = None must be a real "
                                            r"number$"),
        ("noise", "alpha", None, r"^noise alpha = None must be a real number$"),
        ("noise", None, {"family": "power", "alpha": 0.5, "profile": 5},
         r"^noise profile = 5 must be a profile name or a list of \[k, re, im\] triples$"),
        ("study", "kind", [1], r"^unknown study kind \[1\]; the kinds are cell, noise-check, "
                               r"simulate, converge, variance, semigroup$"),
        ("solver", "t_final", True, r"^solver t_final = True must be a real number$"),
        ("solver", "t_final", "1", r"^solver t_final = '1' must be a real number$"),
        ("solver", "eps", "x", r"^solver eps = 'x' must be a list of eps values$"),
        ("solver", "eps", [0.25, "x"], r"^solver eps entry = 'x' must be a real number$"),
        ("noise", "cutoff_factor", "x", r"^noise cutoff_factor = 'x' must be a real number$"),
        ("coefficients", "amplitude", "x", r"^coefficients amplitude = 'x' must be a real "
                                           r"number$"),
        ("study", "s", "x", r"^study s = 'x' must be a real number$"),
        ("noise", "mollifier", {"kind": "tent", "radius": "x"},
         r"^mollifier radius = 'x' must be a real number$"),
        ("solver", "eps", [], r"^solver eps is empty; give at least one eps$"),
        ("noise", None, {"family": "power", "alpha": 0.5, "profile": []},
         r"^noise power\(alpha=0.5\) drives nothing: every profile q_k with \|k\| <= 8 "
         r"vanishes$"),
        ("noise", None, {"family": "power", "alpha": 0.5,
                         "profile": [[0, 0.0, 0.0], [1, 0.0, 0.0], [-1, 0.0, 0.0]]},
         r"^noise power\(alpha=0.5\) drives nothing: every profile q_k with \|k\| <= 8 "
         r"vanishes$"),
        ("noise", None, {"family": "custom", "table": {"2": [[0, 0.0, 0.0]], "12": "one"}},
         r"^noise custom drives nothing: every profile q_k with \|k\| <= 8 vanishes$"),
        ("coefficients", None, {"name": None, "amplitude": ABSENT, "b": [[1, 0.0, -0.5]],
                                "sigma": "one"},
         r"^coefficients b is not a real field: \|c_-k - conj c_k\| = 5\.000e-01 at k = 1, "
         r"above 1e-12 max \|c_k\|$"),
        ("coefficients", None, {"name": None, "amplitude": ABSENT, "b": "sin",
                                "sigma": [[0, 1.0, 0.0], [2, 0.1, 0.0]]},
         r"^coefficients sigma is not a real field: \|c_-k - conj c_k\| = 1\.000e-01 at k = 2, "
         r"above 1e-12 max \|c_k\|$"),
    ])
    def test_bad_solver_key_fails_before_any_solve(self, solves, kind, section, key,
                                                   value, message):
        with pytest.raises(ValueError, match=message):
            run_study(amend(small_config(kind), section, key, value))
        assert solves == []

    @pytest.mark.parametrize("section, key, value, message", [
        ("coefficients", None, {"name": None, "b": "sin", "sigma": "one"},
         r"^coefficients amplitude given to the unnamed set, which reads only b, sigma$"),
        ("coefficients", "b", "sin",
         r"^coefficients b given to the cosine-potential set, which reads only amplitude$"),
        ("coefficients", "sigma", "one",
         r"^coefficients sigma given to the cosine-potential set, which reads only "
         r"amplitude$"),
        ("coefficients", None, {"name": "heat"},
         r"^coefficients amplitude given to the heat set, which reads no set key$"),
        ("coefficients", None, {"name": "heat", "amplitude": ABSENT, "b": "sin"},
         r"^coefficients b given to the heat set, which reads no set key$"),
        ("coefficients", None, {"name": "heat", "amplitude": ABSENT, "sigma": "one"},
         r"^coefficients sigma given to the heat set, which reads no set key$"),
        ("coefficients", None, {"name": "heat", "amplitude": ABSENT, "sigma": 2.0},
         r"^coefficients sigma = 2.0 must be a profile name or a list of \[k, re, im\] "
         r"triples$"),
        ("coefficients", None, {"name": None, "amplitude": ABSENT, "b": "sin", "sigma": 2.0},
         r"^coefficients sigma = 2.0 must be a profile name or a list of \[k, re, im\] "
         r"triples$"),
        ("solver", "eps", 0.25, r"^solver eps = 0.25 must be a list of eps values$"),
        *UNREAD_FAMILY_KEYS,
    ])
    def test_unread_variant_key_or_second_form_is_refused(self, section, key, value,
                                                          message):
        """A key the set or family does not read, heat's scalar sigma and a bare eps:
        refused as the config is parsed, which reads no study kind."""
        with pytest.raises(ValueError, match=message):
            parse_config(amend(small_config("variance"), section, key, value))

    @pytest.mark.parametrize("kind, section", [
        ("simulate", "noise"), ("converge", "noise"), ("variance", "noise"),
        ("noise-check", "noise"), ("cell", "coefficients"), ("simulate", "coefficients"),
        ("converge", "coefficients"), ("variance", "coefficients"),
        ("semigroup", "coefficients"),
    ])
    def test_missing_section_fails_before_any_solve(self, solves, kind, section):
        config = json.loads(json.dumps(SMALL_VARIANCE))
        del config[section]
        config["study"]["kind"] = kind
        with pytest.raises(ValueError, match=rf"the {kind} study needs a {section} section; "
                                             r"the config has none$"):
            run_study(config)
        assert solves == []

    @pytest.mark.parametrize("kind", ["cell", "noise-check", "converge", "variance",
                                      "semigroup"])
    def test_track_norm_is_refused_but_for_simulate(self, solves, kind):
        """Only simulate reads |u|^2; every other kind refuses track_norm before any solve
        (coupled_sup_errors, converge's engine, refuses it too: TestCoupled)."""
        config = small_config(kind)
        if kind == "converge":
            del config["study"]["target"]
            config["solver"]["eps"] = [0.25, 0.125, 0.0625]
        config["solver"]["track_norm"] = True
        with pytest.raises(ValueError, match=rf"^solver track_norm = true: only the simulate "
                                             rf"study reads \|u\|\^2, not the {kind} study$"):
            parse_config(config)
        assert solves == []
        config["solver"]["track_norm"] = False
        parse_config(config)

    @pytest.mark.parametrize("watch", [[3], [1, 2, 3, 4, 5, 6, 7, 8]])
    def test_converge_refuses_a_solver_watch(self, solves, watch):
        """converge watches 1 .. study mode_cutoff whatever the config says, so a given
        solver watch, even that one, is refused before any solve."""
        config = json.loads((REPO / "configs" / "demo-converge.json").read_text())
        config["solver"]["watch"] = watch
        with pytest.raises(ValueError, match=rf"^solver watch = {re.escape(str(watch))}: the "
                                             r"converge study watches modes 1 \.\. study "
                                             r"mode_cutoff = 8; give study mode_cutoff instead$"):
            run_study(config)
        assert solves == []

    @pytest.mark.parametrize("kind", ["variance", "simulate", "converge"])
    def test_centred_noise_that_drives_nothing_is_refused(self, kind):
        """A tail family with tail and ripple both one centres to zero against the
        density: refused once it is centred, after the cell solve, not run to a
        report of zero errors."""
        config = small_config(kind)
        config["noise"] = {"family": "tail", "tail": "one", "ripple": "one", "cutoff": 8,
                           "centered": True}
        if kind == "converge":
            del config["study"]["target"]
            config["solver"]["eps"] = [0.25, 0.125, 0.0625]
        parse_config(config)  # uncentred it drives every mode
        with pytest.raises(ValueError, match=r"^noise tail\(rate=1\)\+centred drives nothing: "
                                             r"every profile q_k with \|k\| <= 8 vanishes$"):
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
        config = small_config(kind)
        config["coefficients"] = coefficients
        if kind == "converge":
            del config["study"]["target"]  # converge compares with the averaged limit
            config["solver"]["eps"] = [0.25, 0.125, 0.0625]  # and fits a rate to >= 3 eps
        with pytest.raises(ValueError, match=message):
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
            run_study(config)

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
            run_study(config)

    def test_variance_target_is_taken_at_the_recorded_time(self):
        """With t_final / dt = 3.33 the covariance is recorded at 3 dt = 0.9: the
        target and the classical prediction are OU variances at 0.9, not 1.0."""
        config = {"coefficients": {"name": "cosine-potential", "amplitude": 1.0},
                  "noise": {"family": "white", "cutoff": 8},
                  "solver": {"eps": [0.25, 0.125], "t_final": 1.0, "dt": 0.3, "watch": [1]},
                  "study": {"kind": "variance", "target": "enhanced", "seed": 0,
                            "tolerances": {"final_gap": 1.0}}}
        report = run_study(config)
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
        report = run_study(SMALL_VARIANCE)
        assert {r["eps"] for r in report.rows} == {0.25, 0.125}
        assert any(name.startswith("covariance_eps") for name in report.tables)

    def test_whole_floats_read_as_integers(self):
        """A JSON 2.0 is a whole number: watch [1.0], seed 9.0 and cutoff 8.0 give the
        rows and tables of watch [1], seed 9 and cutoff 8."""
        config = json.loads(json.dumps(SMALL_VARIANCE))
        config["solver"]["watch"] = [1.0]
        config["study"]["seed"] = 9.0
        config["noise"]["cutoff"] = 8.0
        floats, ints = run_study(config), run_study(SMALL_VARIANCE)
        assert (floats.rows, floats.tables) == (ints.rows, ints.tables)
        assert floats.verdicts == ints.verdicts and floats.seed == 9
        config["study"].update({"kind": "simulate", "paths": 1.0})
        ints = json.loads(json.dumps(config))
        ints["solver"]["watch"], ints["study"]["paths"] = [1], 1
        assert run_study(config).tables == run_study(ints).tables

    @pytest.mark.parametrize("mollifier", [{"kind": "tent", "radius": 3}, {"kind": "bump"}],
                             ids=["tent-3", "bump"])
    def test_smoothed_target_end_to_end(self, mollifier):
        """The demo config against the smoothed limit: each row's target is the OU
        variance of that limit at the recorded time.  No verdict is asserted; with
        tent radius 3 the demo's verdicts fail, and that is a scientific result."""
        config = json.loads(DEMO_CONFIG.read_text())
        config["noise"]["mollifier"] = mollifier
        config["study"]["target"] = "smoothed"
        report = run_study(config)
        cell = solve_cell(Coefficients.cosine_potential(1.0))
        make = {"tent": tent_mollifier, "bump": bump_mollifier}[mollifier["kind"]]
        phi = make(float(mollifier.get("radius", 2.0)))
        assert [row["eps"] for row in report.rows] == [0.25, 0.125]
        for row in report.rows:
            spec = NoiseSpec.white(int(round(4.0 / row["eps"])), mollifier=phi)
            t_recorded = round(5.0 / row["dt"]) * row["dt"]
            model = limit_model("smoothed", spec, cell, 1)
            assert row["target"] == ou_variance(model, 1, t_recorded)

    def test_watched_mode_zero_variance(self):
        """Mode 0 is Brownian in the limit; its exact variance still converges to it."""
        report = run_study({
            "coefficients": {"name": "cosine-potential", "amplitude": 1.0},
            "noise": {"family": "white", "cutoff_factor": 8.0},
            "solver": {"eps": [0.25, 0.125, 0.0625], "t_final": 1.0, "watch": [0]},
            "study": {"kind": "variance", "seed": 0},
        })
        assert report.passed and len(report.verdicts) == 3
        assert_allclose([row["rel_gap"] for row in report.rows], MODE_ZERO_GAPS, rtol=1e-9)

    def test_watched_mode_zero_path_stays_real(self):
        """u is real, so <u, e_0> is: its imaginary part stays at rounding."""
        config = json.loads(DEMO_CONFIG.read_text())
        config["solver"].update({"eps": [0.125], "t_final": 0.25, "watch": [-1, 0, 1]})
        config["study"] = {"kind": "simulate", "seed": 3, "paths": 1}
        _, rows = run_study(config).tables["path_000"]
        scale = max(abs(complex(re, im)) for _, _, re, im in rows)
        worst = max(abs(im) for _, m, _, im in rows if m == 0)
        assert scale > 0.01 and worst <= 1e-10 * scale

    def test_simulate_study_emits_per_path_tables(self, tmp_path):
        report = run_study({
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

    def test_simulate_null_watch_watches_mode_one(self):
        """A null watch list is the default (1,), as the variance study reads it."""
        config = {
            "coefficients": {"name": "heat"},
            "noise": {"family": "white", "cutoff": 2},
            "solver": {"eps": [0.5], "t_final": 0.05, "watch": [1]},
            "study": {"kind": "simulate", "seed": 1, "paths": 2},
        }
        want = run_study(json.loads(json.dumps(config))).tables
        config["solver"]["watch"] = None
        assert run_study(config).tables == want

    def test_simulate_norm_tables_sum_the_driven_modes(self, tmp_path):
        """On the heat flow only the driven modes |k| <= 2 move, and all are watched."""
        report = run_study({
            "coefficients": {"name": "heat"},
            "noise": {"family": "white", "cutoff": 2},
            "solver": {"eps": [0.5], "t_final": 0.05, "watch": [-2, -1, 0, 1, 2],
                       "track_norm": True},
            "study": {"kind": "simulate", "seed": 1, "paths": 2},
        })
        emit_report(report, tmp_path)
        for p in range(2):
            path = tmp_path / f"norm_path_{p:03d}.csv"
            assert path.read_text().startswith("t,norm_squared\n")
            norm = np.loadtxt(path, delimiter=",", skiprows=1)[:, 1]
            _, rows = report.tables[f"path_{p:03d}"]
            power = np.zeros(norm.size)
            for i, (_, _, re, im) in enumerate(rows):  # mode by mode, each over the time grid
                power[i % norm.size] += re * re + im * im
            assert norm[0] == 0.0 and norm[-1] > 0.0
            assert np.abs(norm - power).max() <= 1e-12 * norm.max()

    def test_simulate_builds_blocks_and_plans_once(self, monkeypatch):
        """Every path of one simulate study shares the blocks and the class plans."""
        from multiscale_spde import solver

        calls = {"build_blocks": 0, "_class_plans": 0}
        for name in calls:
            def counting(*args, _real=getattr(solver, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(solver, name, counting)
        report = run_study({
            "coefficients": {"name": "cosine-potential", "amplitude": 1.0},
            "noise": {"family": "white", "cutoff": 4},
            "solver": {"eps": [0.25], "t_final": 0.01, "watch": [1]},
            "study": {"kind": "simulate", "seed": 1, "paths": 3},
        })
        assert sorted(report.tables) == ["path_000", "path_001", "path_002"]
        assert calls == {"build_blocks": 1, "_class_plans": 1}


class TestConfigBuilders:
    def test_explicit_mode_lists_match_builtin(self):
        from multiscale_spde.cell import Coefficients
        from multiscale_spde.fourier import l2_norm

        explicit = parse_config({
            "coefficients": {"b": [[1, 0.0, -0.5], [-1, 0.0, 0.5]], "sigma": [[0, 1.0, 0.0]]},
            "study": {"kind": "cell"},
        }).coefficients.build()
        builtin = Coefficients.cosine_potential(1.0)
        assert l2_norm(explicit.b - builtin.b) == 0.0
        assert l2_norm(explicit.sigma - builtin.sigma) == 0.0

    def test_solver_overrides_are_honoured(self):
        from multiscale_spde.cell import Coefficients

        c = Coefficients.cosine_potential(1.0)
        cfg = parse_config({"coefficients": {"name": "cosine-potential"},
                            "noise": {"family": "white", "cutoff": 8},
                            "solver": {"eps": [0.25], "dt": 5e-4, "n_modes": 96,
                                       "track_norm": True, "t_final": 2.0, "watch": [1]},
                            "study": {"kind": "simulate", "seed": 1}})
        sc = cfg.engine(c, 0.25, 8)
        assert sc.dt == 5e-4 and sc.n_modes == 96 and sc.track_norm
        assert sc.t_final == 2.0 and sc.watch == (1,) and sc.seed == 1

    def test_custom_noise_table(self):
        spec = parse_config({"noise": {"family": "custom", "cutoff": 4, "alpha": 0.5,
                                       "eta": 0.25, "table": {"0": "one", "-2": "cos", "2": "cos"},
                                       "tail": "one-plus-cos"},
                             "study": {"kind": "noise-check"}}).noise.spec()
        assert (spec.family, spec.cutoff, spec.alpha, spec.eta) == ("custom", 4, 0.5, 0.25)
        cos = SpectralField.from_modes({1: 0.5, -1: 0.5})
        assert l2_norm(spec.profile(0) - SpectralField.constant(1.0)) == 0.0
        assert l2_norm(spec.profile(-2) - cos) == 0.0 and l2_norm(spec.profile(2) - cos) == 0.0
        assert l2_norm(spec.profile(1)) == 0.0 and l2_norm(spec.profile(3)) == 0.0
        assert l2_norm(spec.tail - SpectralField.from_modes({0: 1.0, 1: 0.5, -1: 0.5})) == 0.0

    def test_cutoff_factor_scales_with_eps(self):
        def noise(section, eps=None):
            solver = {} if eps is None else {"eps": [eps]}
            return parse_config({"noise": section, "solver": solver,
                                 "study": {"kind": "noise-check"}}).noise

        assert noise({"cutoff_factor": 2.0}, 0.125).cutoff_at(0.125) == 16
        assert noise({"cutoff": 12}, 0.125).cutoff_at(0.125) == 12
        with pytest.raises(ValueError):
            noise({})
        with pytest.raises(ValueError, match=r"noise cutoff_factor = 2.0 needs an eps to scale; "
                                             r"give cutoff for a study that reads no eps$"):
            noise({"cutoff_factor": 2.0})

    @pytest.mark.parametrize("cfg, message", [
        ({"name": "cosine"}, r"^unknown coefficients name 'cosine'; the sets are heat, "
                             r"cosine-potential$"),
        ({"b": "sine", "sigma": "one"}, r"^unknown coefficients b 'sine'; the profile names are "
                                        r"one, cos, sin, one-plus-cos$"),
    ], ids=["set", "profile"])
    def test_unknown_coefficient_names_are_rejected(self, cfg, message):
        with pytest.raises(ValueError, match=message):
            parse_config({"coefficients": cfg, "study": {"kind": "cell"}})

    def test_unknown_study_kind_is_rejected(self):
        config = json.loads(json.dumps(SMALL_VARIANCE))
        config["study"]["kind"] = "variance-exact"
        with pytest.raises(ValueError, match=r"^unknown study kind 'variance-exact'; the kinds "
                                             r"are cell, noise-check, simulate, converge, "
                                             r"variance, semigroup$"):
            run_study(config)


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

    def test_summary_is_printed_unless_quiet(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"coefficients": {"name": "heat"}, "study": {"seed": 1}}))
        out = tmp_path / "out"
        assert main(["cell", "--config", str(cfg), "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[:4] == [f"wrote {out / name}"
                               for name in ("report.json", "rows.csv", "density.csv")] + [
            "study: cell  (pass)"]
        assert printed[4].startswith("  pass <b rho, 1> = 0 = ")
        assert printed[4].endswith("  (threshold 1e-08)") and len(printed) == 5

    def test_paths_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "coefficients": {"name": "heat"},
            "noise": {"family": "white", "cutoff": 2},
            "solver": {"eps": [0.5], "t_final": 0.01, "watch": [1]},
            "study": {"seed": 1, "paths": 2},
        }))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--paths", "3",
                     "--quiet"]) == 0
        assert sorted(f.name for f in out.glob("path_*.csv")) == [
            "path_000.csv", "path_001.csv", "path_002.csv"]
        report = json.loads((out / "report.json").read_text())
        assert report["rows"][0]["paths"] == 3
        assert report["provenance"]["config"]["study"]["paths"] == 3

    @pytest.mark.parametrize("profile", [[], [[0, 0.0, 0.0], [1, 0.0, 0.0], [-1, 0.0, 0.0]]],
                             ids=["empty", "zeros"])
    def test_noise_that_drives_nothing_exits_2(self, tmp_path, capsys, profile):
        """The converge demo driven by nothing is refused, not reported as errors at the
        floor."""
        config = json.loads((REPO / "configs" / "demo-converge.json").read_text())
        config["noise"]["profile"] = profile
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["converge", "--config", str(cfg), "--quiet"]) == 2
        assert capsys.readouterr().err == ("multiscale-spde: error: noise power(alpha=0.75) "
                                           "drives nothing: every profile q_k with |k| <= 8 "
                                           "vanishes\n")

    @pytest.mark.parametrize("kind, config, message", [
        ("cell", {"coefficients": {"b": [[1, 0.0, -0.5]], "sigma": "one"}},
         "coefficients b is not a real field: |c_-k - conj c_k| = 5.000e-01 at k = 1, "
         "above 1e-12 max |c_k|"),
        ("cell", {"coefficients": {"name": "heat", "sigma": "one"}},
         "coefficients sigma given to the heat set, which reads no set key"),
        ("semigroup", {"coefficients": {"name": "heat"}, "solver": {"eps": 0.25}},
         "solver eps = 0.25 must be a list of eps values"),
        ("noise-check", {"noise": {"family": "white", "alpha": 0.75, "cutoff": 8}},
         "noise alpha given to the white family, which reads no family key"),
        ("cell", {"coefficients": {"b": [[0, 0.5, 0.0], [1, 0.0, -0.5], [-1, 0.0, 0.5]],
                                   "sigma": "one"}},
         "cell is not centred: |mean(b/sigma^2)| = 5.000e-01 above 8.660e-11"),
    ], ids=["not-real-b", "heat-sigma", "bare-eps", "white-alpha", "uncentred-cell"])
    def test_refused_input_exits_2_with_one_line(self, tmp_path, capsys, kind, config,
                                                 message):
        """A b that is not a real field (b = -0.5i e^{ix} alone, no k = -1 mode), a key
        the variant does not read, a key in a second form and a cell the closed form does
        not admit are each refused with one line, not solved, run or failed."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main([kind, "--config", str(cfg), "--quiet"]) == 2
        assert capsys.readouterr().err == f"multiscale-spde: error: {message}\n"

    def test_refused_config_exits_2_with_one_line(self, tmp_path):
        """A config the studies refuse exits 2, not 1 (a failed verdict), and prints
        one error line, no traceback; the message is the ValueError's."""
        config = json.loads(DEMO_CONFIG.read_text())
        config["solver"]["watch"] = [1, 1]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        src = str(REPO / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-m", "multiscale_spde", "variance", "--config",
                               str(cfg), "--quiet"], capture_output=True, text=True, env=env,
                              timeout=300)
        assert done.returncode == 2
        assert done.stderr == ("multiscale-spde: error: solver watch repeats mode 1; "
                               "give each mode once\n")
        assert "Traceback" not in done.stderr and done.stdout == ""

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read config file {path}: No such file or directory"),
        ("[1]", "config file {path} holds [1]; a config is a JSON object"),
        ('"x"', "config file {path} holds 'x'; a config is a JSON object"),
    ], ids=["missing", "list", "string"])
    def test_unreadable_config_exits_2_with_one_line(self, tmp_path, content, message):
        """A config file that cannot be read or holds no JSON object exits 2, not 1,
        with one error line that names the file, and no traceback."""
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        src = str(REPO / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-m", "multiscale_spde", "cell", "--config",
                               str(cfg), "--quiet"], capture_output=True, text=True, env=env,
                              timeout=300)
        assert done.returncode == 2
        assert done.stderr == f"multiscale-spde: error: {message.format(path=cfg)}\n"
        assert "Traceback" not in done.stderr and done.stdout == ""

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
