"""Config-driven experiment harness: convergence, variance and remainder studies.

A single JSON document with sections ``coefficients``, ``noise``,
``solver`` and ``study`` declares an experiment; every study returns an
ExperimentReport whose JSON and CSV renderings are bit-for-bit
reproducible given (config, seed) within one NumPy/BLAS build.  Across
builds, floats agree to about 1e-12 relative; everything else is
identical.  The package needs NumPy alone: every eigen-decomposition,
the semigroup flows' included, is cell.eigenbasis.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import cell as cell_mod
from . import noise as noise_mod
from .cell import (Coefficients, eigenbasis, generator_matrix, require_slow_mode, solve_cell,
                   spectral_gap)
from .errors import FitFailed
from .fourier import SpectralField, cells, inner_product, l2_norm, multiply
from .limit import REGIMES, LimitModel, limit_model, ou_variance
from .noise import NoiseSpec, bump_mollifier, tent_mollifier
from .solver import (
    SolverConfig,
    coupled_sup_errors,
    default_dt,
    exact_mode_covariance,
    require_driven,
    simulate_path,
    suggest_modes,
)

__all__ = [
    "ExperimentReport",
    "load_config",
    "config_hash",
    "build_coefficients",
    "build_noise",
    "run_cell_study",
    "run_noise_check",
    "run_simulate",
    "run_coupling_convergence",
    "run_variance_study",
    "run_semigroup_study",
    "STUDIES",
    "run_study",
    "emit_report",
]

ERROR_FLOOR = 1e-25
CONFIG_KEYS = {  # the sections of a config, then every key the studies read in each
    "config": ("coefficients", "noise", "solver", "study"),
    "coefficients": ("name", "amplitude", "sigma", "b"),
    "noise": ("family", "cutoff", "cutoff_factor", "alpha", "profile", "eta", "tail",
              "tail_rate", "ripple", "table", "centered", "mollifier"),
    "solver": ("eps", "t_final", "dt", "n_modes", "watch", "track_norm"),
    "study": ("kind", "seed", "out", "paths", "target", "tolerances", "mode", "mode_cutoff",
              "s"),
    "tolerances": ("theta_min", "r2_min", "final_gap", "exponent_range", "bl_rate_rtol"),
    "mollifier": ("kind", "radius"),
}
BL_FIT_MIN_R2 = 0.99  # the boundary-layer decay must be log-linear to this R^2
ENHANCEMENT_MIN_FACTOR = 0.9  # measured / classical variance at least this times |rho|^2


# -- configuration -----------------------------------------------------------------


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _canonical(obj):
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def config_hash(config: dict) -> str:
    blob = json.dumps(_canonical(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _field_from_spec(spec) -> SpectralField:
    """Profile declarations: a name or a list of [k, re, im] triples."""
    named = {
        "one": {0: 1.0},
        "cos": {1: 0.5, -1: 0.5},
        "sin": {1: -0.5j, -1: 0.5j},
        "one-plus-cos": {0: 1.0, 1: 0.5, -1: 0.5},
    }
    if isinstance(spec, str):
        if spec not in named:
            raise ValueError(f"unknown profile name {spec!r}")
        return SpectralField.from_modes(named[spec])
    modes = spec["modes"] if isinstance(spec, dict) else spec
    return SpectralField.from_modes({int(k): re + 1j * im for k, re, im in modes})


def build_coefficients(cfg: dict) -> Coefficients:
    name = cfg.get("name")
    if name == "heat":
        return Coefficients.heat(float(cfg.get("sigma", np.sqrt(2.0))))
    if name == "cosine-potential":
        return Coefficients.cosine_potential(float(cfg.get("amplitude", 1.0)))
    if name is not None:
        raise ValueError(f"unknown coefficient set {name!r}")
    return Coefficients(_field_from_spec(cfg["b"]), _field_from_spec(cfg["sigma"]))


def _mollifier_from(cfg):
    if cfg is None:
        return None
    kind = cfg.get("kind", "tent")
    radius = float(cfg.get("radius", 2.0))
    if kind == "tent":
        return tent_mollifier(radius)
    if kind == "bump":
        return bump_mollifier(radius)
    raise ValueError(f"unknown mollifier {kind!r}")


def resolve_cutoff(cfg: dict, eps: float | None) -> int:
    if cfg.get("cutoff") is not None:
        return int(cfg["cutoff"])
    factor = cfg.get("cutoff_factor")
    if factor is None or eps is None:
        raise ValueError("noise config needs 'cutoff' or 'cutoff_factor' with eps")
    return int(round(float(factor) / eps))


def build_noise(cfg: dict, eps: float | None = None,
                rho: SpectralField | None = None) -> NoiseSpec:
    cutoff = resolve_cutoff(cfg, eps)
    family = cfg.get("family", "white")
    moll = _mollifier_from(cfg.get("mollifier"))
    if family == "white":
        spec = NoiseSpec.white(cutoff, mollifier=moll)
    elif family == "power":
        spec = NoiseSpec.power_decay(
            float(cfg["alpha"]), cutoff,
            profile=_field_from_spec(cfg.get("profile", "one")),
            eta=float(cfg.get("eta", 0.0)), mollifier=moll)
    elif family == "tail":
        spec = NoiseSpec.tail_convergent(
            _field_from_spec(cfg.get("tail", "one")), float(cfg.get("tail_rate", 1.0)),
            cutoff, ripple=_field_from_spec(cfg.get("ripple", "one")),
            eta=float(cfg.get("eta", 0.0)), mollifier=moll)
    elif family == "custom":
        table = {int(k): _field_from_spec(v) for k, v in cfg["table"].items()}
        tail = _field_from_spec(cfg["tail"]) if "tail" in cfg else None
        spec = NoiseSpec.custom(table, cutoff, alpha=float(cfg.get("alpha", 0.0)),
                                tail=tail, eta=float(cfg.get("eta", 0.0)),
                                mollifier=moll)
    else:
        raise ValueError(f"unknown noise family {family!r}")
    if cfg.get("centered"):
        if rho is None:
            raise ValueError("centering requires the invariant density")
        spec = spec.centered(rho)
    return spec


def _eps_list(solver_cfg: dict) -> list[float]:
    """``solver.eps`` as a list, each the reciprocal of an integer, strictly decreasing."""
    value = solver_cfg["eps"]
    eps_list = [float(e) for e in (value if isinstance(value, (list, tuple)) else [value])]
    for i, eps in enumerate(eps_list):
        cells(eps)
        if i > 0 and eps >= eps_list[i - 1]:
            raise ValueError(f"eps list must be strictly decreasing: eps = {eps:g} "
                             f"follows {eps_list[i - 1]:g}")
    return eps_list


def _check_config(config: dict) -> None:
    """The checks every study makes before any work; each failure is a ValueError.

    Rejected: a section or key no study reads, an explicit dt, t_final or
    n_modes <= 0, a non-integer n_modes, an empty watch list, a path count
    or mode_cutoff below 1, a noise section with both cutoff and
    cutoff_factor, and a study target that names no limit regime.
    """
    sections = {**config, "config": config,
                "tolerances": config.get("study", {}).get("tolerances"),
                "mollifier": config.get("noise", {}).get("mollifier")}
    for section, keys in CONFIG_KEYS.items():
        unknown = sorted(set(sections.get(section) or {}) - set(keys))
        if unknown:
            raise ValueError(f"unknown {section} key(s) {', '.join(unknown)}; "
                             f"the studies read {', '.join(keys)}")
    solver_cfg = config.get("solver", {})
    for key in ("dt", "t_final", "n_modes"):
        if solver_cfg.get(key) is not None and not float(solver_cfg[key]) > 0.0:
            raise ValueError(f"solver {key} = {solver_cfg[key]!r} must be positive")
    n_modes = solver_cfg.get("n_modes")
    if n_modes is not None and float(n_modes) != int(float(n_modes)):
        raise ValueError(f"solver n_modes = {n_modes!r} must be an integer")
    if solver_cfg.get("watch") is not None and len(solver_cfg["watch"]) == 0:
        raise ValueError("solver watch is empty; give at least one mode")
    study = config.get("study", {})
    for key in ("paths", "mode_cutoff"):
        if study.get(key) is not None and not float(study[key]) >= 1.0:
            raise ValueError(f"study {key} = {study[key]!r} must be at least 1")
    noise_cfg = config.get("noise", {})
    if noise_cfg.get("cutoff") is not None and noise_cfg.get("cutoff_factor") is not None:
        raise ValueError("noise gives both cutoff and cutoff_factor; give one")
    target = study.get("target")
    if target is not None and target not in REGIMES:
        raise ValueError(f"unknown study target {target!r}; "
                         f"the limit regimes are {', '.join(REGIMES)}")


def _prologue(config: dict, reads_eps: bool = True, before_solve=None):
    """What every cell-based study starts with, the config checks first.

    Returns (study section, seed, coefficients, cell solution, eps list);
    the eps list is validated, or None when the study reads no eps.
    ``before_solve``, given the eps list, runs further checks before the
    cell solve.
    """
    _check_config(config)
    study = config.get("study", {})
    solver_cfg = config.get("solver", {})
    eps_list = _eps_list(solver_cfg) if reads_eps else None
    if before_solve is not None:
        before_solve(eps_list)
    c = build_coefficients(config["coefficients"])
    return study, int(study.get("seed", 0)), c, solve_cell(c), eps_list


# -- reports -----------------------------------------------------------------------


@dataclass
class ExperimentReport:
    study: str
    config: dict
    seed: int
    rows: list = field(default_factory=list)
    fit: dict | None = None
    verdicts: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)  # name -> (header, rows); CSV only

    def verdict(self, name: str, passed: bool, value, threshold=None) -> None:
        self.verdicts.append({
            "name": name,
            "passed": bool(passed),
            "value": None if value is None else float(value),
            "threshold": None if threshold is None else float(threshold),
        })

    @property
    def passed(self) -> bool:
        return all(v["passed"] for v in self.verdicts)

    def to_dict(self) -> dict:
        cfg = _canonical(self.config)
        cfg.get("study", {}).pop("out", None)  # a sink path, not an input
        return {
            "study": self.study,
            "provenance": {"config": cfg, "config_hash": config_hash(cfg),
                           "seed": self.seed},
            "rows": _canonical(self.rows),
            "fit": _canonical(self.fit) if self.fit is not None else None,
            "verdicts": _canonical(self.verdicts),
            "notes": list(self.notes),
            "passed": self.passed,
        }

    def to_json_bytes(self) -> bytes:
        return (json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n").encode()

    def summary_lines(self) -> list[str]:
        lines = [f"study: {self.study}  ({'pass' if self.passed else 'FAIL'})"]
        for v in self.verdicts:
            status = "pass" if v["passed"] else "FAIL"
            thr = "" if v["threshold"] is None else f"  (threshold {v['threshold']:g})"
            val = "" if v["value"] is None else f" = {v['value']:.6g}"
            lines.append(f"  {status:4s} {v['name']}{val}{thr}")
        if self.fit:
            pieces = ", ".join(f"{k} = {v:.4g}" for k, v in self.fit.items()
                               if isinstance(v, (int, float)))
            lines.append(f"  fit: {pieces}")
        return lines


def _csv_bytes(header, rows) -> bytes:
    def cell(v):
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return str(v)

    lines = [",".join(header)]
    lines += [",".join(cell(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def emit_report(report: ExperimentReport, out_dir) -> list[Path]:
    """Write report.json plus one CSV per table; idempotent."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    path = out / "report.json"
    path.write_bytes(report.to_json_bytes())
    written.append(path)
    if report.rows:
        header = list(report.rows[0])
        rows = [[r.get(h) for h in header] for r in report.rows]
        path = out / "rows.csv"
        path.write_bytes(_csv_bytes(header, rows))
        written.append(path)
    for name, (header, rows) in sorted(report.tables.items()):
        path = out / f"{name}.csv"
        path.write_bytes(_csv_bytes(header, rows))
        written.append(path)
    return written


# -- fitting helpers ---------------------------------------------------------------


def _line_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line y = slope x + intercept, and its R^2."""
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), float(r2)


def loglog_fit(xs, ys) -> tuple[float, float, float]:
    return _line_fit(np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float)))


def fit_rate_with_exclusion(eps_list, values) -> dict:
    """Log-log rate fit, dropping the coarsest eps when it is pre-asymptotic.

    The largest eps point is excluded when its deviation from the fit of
    the remaining points exceeds twice that fit's residual RMS (an end
    point pulls an ordinary joint fit towards itself, so the comparison
    must leave it out); the exclusion is recorded in the result.
    """
    eps_arr = np.asarray(eps_list, float)
    vals = np.asarray(values, float)
    if eps_arr.size < 3:
        raise FitFailed("need at least 3 eps points for a rate fit")
    slope, intercept, r2 = loglog_fit(eps_arr, vals)
    excluded = False
    if eps_arr.size > 3:
        coarse = int(np.argmax(eps_arr))
        keep = np.arange(eps_arr.size) != coarse
        s2, i2, _ = loglog_fit(eps_arr[keep], vals[keep])
        sub_resid = np.log(vals[keep]) - (s2 * np.log(eps_arr[keep]) + i2)
        rms = float(np.sqrt(np.mean(sub_resid**2)))
        gap = abs(np.log(vals[coarse]) - (s2 * np.log(eps_arr[coarse]) + i2))
        if gap > 2.0 * max(rms, 1e-12):
            slope, intercept, r2 = loglog_fit(eps_arr[keep], vals[keep])
            excluded = True
    return {"theta": slope, "intercept": intercept, "r_squared": r2,
            "excluded_coarsest": excluded}


def batch_mean_se(values) -> tuple[float, float]:
    """Mean and its standard error via 10 batch means over the path axis."""
    vals = np.asarray(values, float)
    n_batches = min(10, vals.size)
    splits = np.array_split(vals, n_batches)
    means = np.array([s.mean() for s in splits])
    se = means.std(ddof=1) / np.sqrt(n_batches) if n_batches > 1 else 0.0
    return float(vals.mean()), float(se)


# -- basic studies -----------------------------------------------------------------


def run_cell_study(config: dict) -> ExperimentReport:
    """Cell problem summary: rho diagnostics, mu, omega.

    The row and the density table read what solve_cell measured for its
    contracts; the one verdict is zero flux, which no contract checks.
    """
    _, seed, c, sol, _ = _prologue(config, reads_eps=False)
    report = ExperimentReport(study="cell", config=config, seed=seed)
    rho_grid = sol.rho_grid
    report.rows.append({
        "mu": sol.mu,
        "omega": spectral_gap(c),
        "rho_norm": l2_norm(sol.rho),
        "rho_min": float(rho_grid.min()),
        "rho_at_0": float(rho_grid[0]),
        "rho_mean": float(sol.rho.coeff(0).real),
        "rho_residual": sol.rho_residual,
        "chi_residual": sol.chi_residual,
        "sigma_min": sol.sigma_min,
        "centering": sol.centering,
    })
    drift_mean = abs(multiply(c.b, sol.rho).coeff(0))
    report.verdict("<b rho, 1> = 0", drift_mean <= 1e-8, drift_mean, 1e-8)
    report.tables["density"] = (
        ["x", "rho"],
        [[float(2 * np.pi * i / rho_grid.size), float(v)] for i, v in enumerate(rho_grid)],
    )
    return report


def run_noise_check(config: dict) -> ExperimentReport:
    """Run the decay, tail-convergence and summability validators."""
    _check_config(config)
    study = config.get("study", {})
    seed = int(study.get("seed", 0))
    report = ExperimentReport(study="noise-check", config=config, seed=seed)
    spec = build_noise(config["noise"], eps=None, rho=None)

    reports = [noise_mod.check_decay(spec)]
    if spec.tail is not None:
        reports.append(noise_mod.check_tail_convergence(spec))
        if spec.family == "power":
            # decaying profiles converge to zero, not to the declared tail;
            # the H1 summability condition targets the no-decay regime
            report.notes.append("tail summability skipped: decaying family")
        else:
            reports.append(noise_mod.check_tail_summability(spec))
    for chk in reports:
        for row in chk.as_rows():
            report.rows.append(row)
        report.verdict(chk.title, chk.passed, None)
    return report


def run_simulate(config: dict) -> ExperimentReport:
    """Sample paths of the multiscale equation; trajectories become CSV tables."""
    study, seed, c, cell, eps_list = _prologue(config)
    n_paths = int(study.get("paths", 2))
    solver_cfg = config["solver"]
    eps = eps_list[0]
    spec = build_noise(config["noise"], eps=eps, rho=cell.rho)
    sc = _solver_config(solver_cfg, c, eps, spec.cutoff, seed,
                        default_t=1.0, watch=tuple(solver_cfg.get("watch", (1,))))
    report = ExperimentReport(study="simulate", config=config, seed=seed)
    for p in range(n_paths):
        out = simulate_path(c, spec, sc, path_index=p)
        rows = []
        for m, traj in sorted(out.modes.items()):
            for t, z in zip(out.times, traj):
                rows.append([float(t), int(m), float(z.real), float(z.imag)])
        report.tables[f"path_{p:03d}"] = (["t", "m", "re", "im"], rows)
        if out.norm_squared is not None:
            report.tables[f"norm_path_{p:03d}"] = (
                ["t", "norm_squared"],
                [[float(t), float(v)] for t, v in zip(out.times, out.norm_squared)],
            )
    report.rows.append({"paths": n_paths, "eps": eps, "dt": sc.dt,
                        "n_modes": sc.n_modes, "cutoff": spec.cutoff,
                        "steps": sc.n_steps})
    report.notes.append("trajectory CSVs: one file per path, columns (t, m, re, im)")
    return report


def _solver_config(solver_cfg: dict, c: Coefficients, eps: float, cutoff: int,
                   seed: int, default_t: float, watch,
                   dt: float | None = None) -> SolverConfig:
    t_final = float(solver_cfg.get("t_final") or default_t)
    if dt is None:
        dt = solver_cfg.get("dt") or default_dt(eps)
    n_modes = int(solver_cfg.get("n_modes") or suggest_modes(c, eps, cutoff))
    return SolverConfig(
        eps=eps, n_modes=n_modes, dt=float(dt), t_final=t_final,
        watch=tuple(watch), seed=seed,
        track_norm=bool(solver_cfg.get("track_norm", False)),
    )


# -- convergence study ---------------------------------------------------------------


def run_coupling_convergence(config: dict) -> ExperimentReport:
    """Pathwise comparison of u_eps with its homogenised limit as eps shrinks.

    For each eps the multiscale solver and the limit recursion consume
    identical increments; the Monte Carlo average of the per-path sup
    error is fitted against eps to produce the empirical rate theta.  The
    limit is the averaged one, and s defaults to max(0, 1.5 (1 - 2 alpha)) + 1/2.
    """
    study = config.get("study", {})
    mode_cutoff = int(study.get("mode_cutoff", 8))
    watch = tuple(range(1, mode_cutoff + 1))

    def check_target_and_driven(eps_list):
        if study.get("target") not in (None, "averaged"):
            raise ValueError(f"converge compares with the averaged limit only; "
                             f"study target {study['target']!r} is not 'averaged'")
        for eps in eps_list:
            require_driven(eps, resolve_cutoff(config["noise"], eps), watch, "mode_cutoff")

    _, seed, c, cell, eps_list = _prologue(config, before_solve=check_target_and_driven)
    n_paths = int(study.get("paths", 200))
    tol = study.get("tolerances", {})
    alpha = float(config["noise"].get("alpha", 0.0))
    s = max(0.0, 1.5 * (1.0 - 2.0 * alpha)) + 0.5 if study.get("s") is None else float(study["s"])
    report = ExperimentReport(study="converge", config=config, seed=seed)
    report.notes.append(f"H^-s proxy with s = {s:g}, modes 1..{mode_cutoff}")

    for eps in eps_list:
        spec = build_noise(config["noise"], eps=eps, rho=cell.rho)
        if eps == eps_list[0]:
            report.verdict("noise decay assumption", noise_mod.check_decay(spec).passed, None)
        sc = _solver_config(config.get("solver", {}), c, eps, spec.cutoff, seed,
                            default_t=1.0, watch=watch)
        model = limit_model("averaged", spec, cell, mode_cutoff)
        sups = coupled_sup_errors(c, spec, sc, model, s, n_paths)
        mean, se = batch_mean_se(sups["full"])
        report.rows.append({"eps": eps, "error": mean, "stderr": se,
                            "error_half_modes": float(sups["half_modes"].mean()),
                            "error_coarse_grid": float(sups["coarse_grid"].mean()),
                            "paths": n_paths, "dt": sc.dt, "n_modes": sc.n_modes,
                            "cutoff": spec.cutoff})

    errors = [r["error"] for r in report.rows]
    if max(errors) <= ERROR_FLOOR:
        report.notes.append("errors at the discretisation floor; rate fit skipped")
        report.verdict("errors at floor (degenerate noise)", True, max(errors))
        return report

    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    report.verdict("errors strictly decreasing in eps", decreasing, errors[-1])
    report.fit = fit_rate_with_exclusion(eps_list, errors)
    # truncation sensitivity of the sup-error proxy, per row and as rates
    half = [r["error_half_modes"] for r in report.rows]
    coarse = [r["error_coarse_grid"] for r in report.rows]
    if min(half) > ERROR_FLOOR:
        report.fit["theta_half_modes"] = fit_rate_with_exclusion(eps_list, half)["theta"]
    if min(coarse) > ERROR_FLOOR:
        report.fit["theta_coarse_grid"] = fit_rate_with_exclusion(eps_list, coarse)["theta"]
    report.verdict("fitted rate theta", report.fit["theta"] >= tol.get("theta_min", 0.3),
                   report.fit["theta"], tol.get("theta_min", 0.3))
    report.verdict("rate fit R^2", report.fit["r_squared"] >= tol.get("r2_min", 0.9),
                   report.fit["r_squared"], tol.get("r2_min", 0.9))
    return report


# -- variance study -------------------------------------------------------------------


def run_variance_study(config: dict) -> ExperimentReport:
    """Exact mode variances against the limiting OU prediction.

    Variances of <u_eps(T), e_m> come from the block Lyapunov equations
    (no Monte Carlo error): the implicit-trapezoid iterate with step dt,
    which exact_mode_covariance evaluates in closed form.  The limit
    prediction is |c_m|^2 times the finite-horizon OU factor.  Both are
    taken at the last recorded time n_steps dt, which is not t_final when
    t_final / dt is not a whole number.  For the fluctuation target the
    measured variance is rescaled by eps^(-2 alpha) and the noise must be
    centred.
    """
    study, seed, c, cell, eps_list = _prologue(config)
    target = study.get("target", "enhanced")
    tol = study.get("tolerances", {})
    watch = tuple(config.get("solver", {}).get("watch") or (int(study.get("mode", 1)),))

    report = ExperimentReport(study=f"variance-{target}", config=config, seed=seed)
    t_final = float(config.get("solver", {}).get("t_final") or 3.0 / cell.mu)

    gaps_by_mode = {m: [] for m in watch}
    for eps in eps_list:
        spec = build_noise(config["noise"], eps=eps, rho=cell.rho)
        if target == "fluctuation":
            worst = max(abs(inner_product(spec.profile(k), cell.rho))
                        for k in range(0, min(spec.cutoff, 64) + 1))
            report.verdict(f"centred profiles at eps = {eps:g}", worst <= 1e-8, worst, 1e-8)
        dt = config.get("solver", {}).get("dt") or min(1e-3, eps * eps / 4.0)
        sc = _solver_config(config.get("solver", {}), c, eps, spec.cutoff, seed,
                            default_t=t_final, watch=watch, dt=dt)
        model = limit_model(target, spec, cell, max(abs(m) for m in watch))
        t_recorded = sc.n_steps * sc.dt  # the covariance's last time, cov.times[-1]
        predicted = {m: ou_variance(model, m, t_recorded) for m in watch}
        for m, value in predicted.items():
            if not value > 0.0:
                raise ValueError(f"the {target} limit predicts variance {value:g} for mode "
                                 f"{m} at eps = {eps:g}; a relative gap needs a positive "
                                 "target (centred noise has a zero averaged limit)")
        t_grid = np.linspace(0.0, sc.t_final, 33)
        cov = exact_mode_covariance(c, spec, sc, t_grid, modes=watch)
        scale = eps ** (-2.0 * spec.alpha) if target == "fluctuation" else 1.0

        table_rows = []
        for m in watch:
            for t, v in zip(cov.times, cov.variances[m]):
                table_rows.append([float(t), int(m), float(v)])
        report.tables[f"covariance_eps_{eps:g}"] = (["t", "m", "variance"], table_rows)

        for m in watch:
            measured = cov.at_final(m) * scale
            gap = abs(measured - predicted[m]) / predicted[m]
            gaps_by_mode[m].append(gap)
            report.rows.append({"eps": eps, "m": m, "variance": cov.at_final(m),
                                "scaled_variance": measured, "target": predicted[m],
                                "rel_gap": gap, "dt": sc.dt, "n_modes": sc.n_modes,
                                "cutoff": spec.cutoff})

    final_tol = tol.get("final_gap", 0.15 if target == "fluctuation" else 0.10)
    for m in watch:
        gaps = gaps_by_mode[m]
        monotone = all(a > b for a, b in zip(gaps, gaps[1:]))
        report.verdict(f"relative gap decreasing (m = {m})", monotone, gaps[-1])
        report.verdict(f"final relative gap (m = {m})", gaps[-1] <= final_tol,
                       gaps[-1], final_tol)

    if target in ("enhanced", "smoothed"):
        m0 = watch[0]
        # c = 1, at the finest eps's recorded time
        classical = ou_variance(LimitModel(cell.mu, {m0: 1.0}, abs(m0)), m0, t_recorded)
        measured = next(r["variance"] for r in report.rows
                        if r["eps"] == eps_list[-1] and r["m"] == m0)
        factor_needed = ENHANCEMENT_MIN_FACTOR * cell.enhancement**2
        report.verdict("variance enhancement over the classical prediction",
                       measured / classical >= factor_needed, measured / classical,
                       factor_needed)
    return report


# -- semigroup remainder study ---------------------------------------------------------


def _adjoint_flow(c: Coefficients, ks: np.ndarray, eps: float, f0: np.ndarray):
    """ts -> exp(t L_eps*) f0 on the wavenumbers ks, one column per time."""
    evals, vecs = eigenbasis(generator_matrix(c, ks, eps=eps, adjoint=True),
                             f"adjoint flow on k = {ks[0]} .. {ks[-1]} at eps = {eps:g}")
    coef = np.linalg.solve(vecs, f0)
    return lambda ts: vecs @ (np.exp(np.multiply.outer(evals, ts)) * coef[:, None])


def _fit_log_decay(ts: np.ndarray, values: np.ndarray) -> float:
    """Exponential decay rate fitted from a log-linear window."""
    if ts.size < 8:
        raise FitFailed(f"boundary layer: only {ts.size} samples in the fit window")
    slope, _, r2 = _line_fit(ts, np.log(values))
    if r2 < BL_FIT_MIN_R2:
        raise FitFailed(f"boundary layer: fit R^2 = {r2:.6f} below {BL_FIT_MIN_R2}")
    return -slope


def run_semigroup_study(config: dict) -> ExperimentReport:
    """Scaling of the slow-mode approximation remainder of the adjoint flow.

    Evolving e_m under the adjoint multiscale flow and subtracting the
    slow pattern rho(x/eps) e_m exp(-mu m^2 t) plus the evolved boundary
    layer leaves a remainder whose sup norm should scale like eps.  The
    boundary layer is the unit-cell flow of 1 - rho at s = t / eps^2; its
    decay rate is fitted in L^2(1/rho), where the eigenvectors of a
    reversible L* are orthogonal, and should match the spectral gap omega.
    All flows are eigen-decomposed on the class offsets |l| <= CLASS_OFFSETS.
    The mode must be a slow one at the largest eps (nonzero, eps |m| < 1/2);
    that is checked before the cell solve.
    """
    m = int(config.get("study", {}).get("mode", 1))
    study, seed, c, cell, eps_list = _prologue(
        config, before_solve=lambda eps_list: require_slow_mode(eps_list[0], m))
    tol = study.get("tolerances", {})
    omega = spectral_gap(c)
    report = ExperimentReport(study="semigroup", config=config, seed=seed)

    t_final = float(config.get("solver", {}).get("t_final") or 1.0)
    offsets = np.arange(-cell_mod.CLASS_OFFSETS, cell_mod.CLASS_OFFSETS + 1)
    pattern = np.array([cell.rho.coeff(int(j)) for j in offsets], dtype=complex)
    centre = (offsets == 0).astype(complex)  # 1 on the unit cell, e_m on m's class
    h_at = _adjoint_flow(c, offsets, 1.0, centre - pattern)

    # Boundary-layer relaxation rate: |h(s)| in L^2(1/rho) on rho's grid.
    s_grid = np.linspace(0.25, 6.0 / max(omega, 1e-3), 200)
    n = cell.rho.n
    h_coeffs = np.zeros((n, s_grid.size), dtype=complex)
    h_coeffs[offsets % n] = h_at(s_grid)
    h_grid = np.fft.ifft(h_coeffs, axis=0) * n
    rho_grid = np.real(cell.rho.to_grid())
    h_norms = np.sqrt(np.mean(np.abs(h_grid) ** 2 / rho_grid[:, None], axis=0))
    alive = h_norms > h_norms[0] * 1e-12
    bl_rate = _fit_log_decay(s_grid[alive], h_norms[alive])

    sup_norms = []
    for eps in eps_list:
        ks = m + cells(eps) * offsets
        f_at = _adjoint_flow(c, ks, eps, centre)
        early = np.linspace(0.0, min(20.0 * eps * eps, t_final), 81)
        late = np.linspace(0.0, t_final, 201)
        ts = np.unique(np.concatenate([early, late]))[1:]
        approx = (np.multiply.outer(pattern, np.exp(-cell.mu * m * m * ts))
                  + h_at(ts / eps**2))
        sup_r = float(np.linalg.norm(f_at(ts) - approx, axis=0).max())
        sup_norms.append(sup_r)
        report.rows.append({"eps": eps, "m": m, "sup_remainder": sup_r,
                            "bl_rate_slow_units": bl_rate / eps**2,
                            "omega_over_eps2": omega / eps**2})

    slope, _, r2 = loglog_fit(eps_list, sup_norms)
    report.fit = {"exponent": slope, "r_squared": r2,
                  "bl_rate_unit_cell": bl_rate, "omega": omega}
    lo, hi = tol.get("exponent_range", [0.8, 1.2])
    report.verdict("remainder scaling exponent", lo <= slope <= hi, slope)
    rate_rtol = tol.get("bl_rate_rtol", 0.10)
    rel = abs(bl_rate - omega) / omega
    report.verdict("boundary-layer rate matches the spectral gap", rel <= rate_rtol,
                   rel, rate_rtol)
    return report


# -- dispatch ---------------------------------------------------------------------------


STUDIES = {
    "cell": run_cell_study,
    "noise-check": run_noise_check,
    "simulate": run_simulate,
    "converge": run_coupling_convergence,
    "variance": run_variance_study,
    "semigroup": run_semigroup_study,
}  # study kind -> runner; the command line has one subcommand per kind


def run_study(config: dict) -> ExperimentReport:
    kind = config.get("study", {}).get("kind")
    if kind not in STUDIES:
        raise ValueError(f"unknown study kind {kind!r}")
    return STUDIES[kind](config)
