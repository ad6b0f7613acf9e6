"""Config-driven experiment harness: convergence, variance and remainder studies.

A single JSON document with sections ``coefficients``, ``noise``,
``solver`` and ``study`` declares an experiment; every study returns an
ExperimentReport whose JSON and CSV renderings are bit-for-bit
reproducible given (config, seed) within one NumPy/SciPy/BLAS build.
Across builds, floats agree to about 1e-12 relative; everything else is
identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import cell as cell_mod
from . import noise as noise_mod
from .cell import CellSolution, Coefficients, generator_matrix, solve_cell
from .errors import FitFailed
from .fourier import SpectralField, inner_product, l2_norm, multiply
from .limit import (
    LimitModel,
    averaged_model,
    enhanced_model,
    fluctuation_model,
    ou_variance,
    smoothed_model,
)
from .noise import NoiseSpec, bump_mollifier, tent_mollifier
from .solver import (
    SolverConfig,
    build_blocks,
    default_dt,
    exact_mode_covariance,
    simulate_path,
    suggest_modes,
    _run_engine,
    _watch_lookup,
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
    "run_study",
    "emit_report",
]

ERROR_FLOOR = 1e-25


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


def default_sobolev_index(study: dict, noise_cfg: dict) -> float:
    """Per-regime default for the negative Sobolev index of the error norm."""
    if study.get("s") is not None:
        return float(study["s"])
    alpha = float(noise_cfg.get("alpha", 0.0))
    eta = float(noise_cfg.get("eta", 0.0))
    kind = study.get("target", "averaged")
    if kind == "fluctuation":
        return 1.5 * max(alpha, 1.0 - alpha) + 0.5
    if kind in ("enhanced", "smoothed"):
        s_eta = 1.0 if eta <= 0.5 else 1.5 / (2.0 - eta)
        return s_eta + 0.5
    return max(0.0, 1.5 * (1.0 - 2.0 * alpha)) + 0.5


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
        if isinstance(v, float):
            return repr(v)
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


def loglog_fit(xs, ys) -> tuple[float, float, float]:
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), float(r2)


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


def batch_mean_se(values, n_batches: int = 10) -> tuple[float, float]:
    """Mean and its standard error via batch means over the path axis."""
    vals = np.asarray(values, float)
    n_batches = min(n_batches, vals.size)
    splits = np.array_split(vals, n_batches)
    means = np.array([s.mean() for s in splits])
    se = means.std(ddof=1) / np.sqrt(n_batches) if n_batches > 1 else 0.0
    return float(vals.mean()), float(se)


# -- basic studies -----------------------------------------------------------------


def run_cell_study(config: dict) -> ExperimentReport:
    """Cell problem summary: rho diagnostics, mu, omega."""
    study = config.get("study", {})
    seed = int(study.get("seed", 0))
    c = build_coefficients(config["coefficients"])
    report = ExperimentReport(study="cell", config=config, seed=seed)

    checks = cell_mod.validate_coefficients(c)
    for row in checks.as_rows():
        report.verdict(f"assumption: {row['item']}", row["passed"], row["value"],
                       row["threshold"])

    sol = solve_cell(c)
    n = sol.rho.n
    ks = np.arange(-n // 2, n // 2)
    adj = generator_matrix(c, ks, adjoint=True)
    fwd = generator_matrix(c, ks, adjoint=False)
    rho_residual = l2_norm(SpectralField(adj @ sol.rho.coeffs))
    chi_residual = l2_norm(SpectralField(fwd @ sol.chi.pad_to(n).coeffs) + c.b.pad_to(n))
    rho_grid = np.real(sol.rho.to_grid(512))

    report.rows.append({
        "mu": sol.mu,
        "omega": sol.omega,
        "omega_r_squared": sol.omega_r_squared,
        "rho_norm": l2_norm(sol.rho),
        "rho_min": float(rho_grid.min()),
        "rho_at_0": float(rho_grid[0]),
        "rho_mean": float(sol.rho.coeff(0).real),
        "rho_residual": rho_residual,
        "chi_residual": chi_residual,
    })
    report.verdict("<rho, 1> = 1", abs(sol.rho.coeff(0) - 1.0) <= 1e-10,
                   abs(sol.rho.coeff(0) - 1.0), 1e-10)
    report.verdict("rho positive on the grid", rho_grid.min() > 0, float(rho_grid.min()), 0.0)
    report.verdict("|rho| >= 1", l2_norm(sol.rho) >= 1.0 - 1e-8, l2_norm(sol.rho), 1.0)
    drift_mean = abs(multiply(c.b, sol.rho).coeff(0))
    report.verdict("<b rho, 1> = 0", drift_mean <= 1e-8, drift_mean, 1e-8)
    report.tables["density"] = (
        ["x", "rho"],
        [[float(2 * np.pi * i / 512), float(v)] for i, v in enumerate(rho_grid)],
    )
    return report


def run_noise_check(config: dict) -> ExperimentReport:
    """Run the decay, tail-convergence and summability validators."""
    study = config.get("study", {})
    seed = int(study.get("seed", 0))
    report = ExperimentReport(study="noise-check", config=config, seed=seed)
    spec = build_noise(config["noise"], eps=None, rho=None)
    k_test = int(study.get("k_test", min(64, spec.cutoff)))

    reports = [noise_mod.check_decay(spec, k_test)]
    if spec.tail is not None:
        reports.append(noise_mod.check_tail_convergence(spec, k_test))
        if spec.family == "power":
            # decaying profiles converge to zero, not to the declared tail;
            # the H1 summability condition targets the no-decay regime
            report.notes.append("tail summability skipped: decaying family")
        else:
            reports.append(noise_mod.check_tail_summability(spec, min(256, spec.cutoff)))
    for chk in reports:
        for row in chk.as_rows():
            report.rows.append(row)
        report.verdict(chk.title, chk.passed, None)
    return report


def run_simulate(config: dict) -> ExperimentReport:
    """Sample paths of the multiscale equation; trajectories become CSV tables."""
    study = config.get("study", {})
    seed = int(study.get("seed", 0))
    n_paths = int(study.get("paths", 2))
    c = build_coefficients(config["coefficients"])
    cell = solve_cell(c, with_gap=False)
    solver_cfg = config.get("solver", {})
    eps = float(solver_cfg["eps"][0] if isinstance(solver_cfg["eps"], list)
                else solver_cfg["eps"])
    spec = build_noise(config["noise"], eps=eps,
                       rho=cell.rho if config["noise"].get("centered") else None)
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
                        "n_modes": sc.n_modes, "cutoff": sc.cutoff,
                        "steps": sc.n_steps})
    report.notes.append("trajectory CSVs: one file per path, columns (t, m, re, im)")
    return report


def _solver_config(solver_cfg: dict, c: Coefficients, eps: float, cutoff: int,
                   seed: int, default_t: float, watch, scheme=None,
                   dt: float | None = None) -> SolverConfig:
    t_final = float(solver_cfg.get("t_final") or default_t)
    if dt is None:
        dt = solver_cfg.get("dt") or default_dt(eps, float(solver_cfg.get("dt_factor", 1e-3)))
    n_modes = int(solver_cfg.get("n_modes") or
                  suggest_modes(c, eps, cutoff, int(solver_cfg.get("cell_band", 8))))
    return SolverConfig(
        eps=eps, n_modes=n_modes, dt=float(dt), t_final=t_final, cutoff=cutoff,
        watch=tuple(watch), seed=seed,
        scheme=scheme or solver_cfg.get("scheme", "block-exponential"),
        track_norm=bool(solver_cfg.get("track_norm", False)),
    )


# -- convergence study ---------------------------------------------------------------


def _coupled_sup_errors(c: Coefficients, spec: NoiseSpec, sc: SolverConfig,
                        model: LimitModel, s: float, n_paths: int,
                        batch: int = 64, sensitivities: bool = False):
    """Per-path sup_t sum_m (1+m^2)^-s |<u_eps - u, e_m>|^2, coupled noise.

    With sensitivities=True also accumulates the same statistic with the
    mode sum cut at half the watch range and with the time grid thinned
    by two, so the proxy's truncation effects can be reported.
    """
    op = build_blocks(c, spec, sc)
    lookup = _watch_lookup(op, sc.watch)
    residues = sorted({res for _, res, _ in lookup})
    weights = {m: (1.0 + m * m) ** (-s) for m, _, _ in lookup}
    decays = {m: np.exp(-model.mu * m * m * sc.dt) for m, _, _ in lookup}
    coeffs = {m: model.coeff(m) for m, _, _ in lookup}
    k_cut = sc.cutoff
    half_cut = max(abs(m) for m in sc.watch) // 2

    keys = ("full", "half_modes", "coarse_grid") if sensitivities else ("full",)
    sups = {key: np.zeros(n_paths) for key in keys}
    for start in range(0, n_paths, batch):
        idx = list(range(start, min(start + batch, n_paths)))
        p = len(idx)
        lim = {m: np.zeros(p, dtype=complex) for m, _, _ in lookup}
        running = {key: np.zeros(p) for key in keys}

        def on_step(step, t, dw, states):
            current = np.zeros(p)
            current_half = np.zeros(p) if sensitivities else None
            for m, res, row in lookup:
                lim[m] = decays[m] * (lim[m] + coeffs[m] * dw[m + k_cut])
                term = weights[m] * np.abs(states[res][row] - lim[m]) ** 2
                current += term
                if sensitivities and abs(m) <= half_cut:
                    current_half += term
            np.maximum(running["full"], current, out=running["full"])
            if sensitivities:
                np.maximum(running["half_modes"], current_half,
                           out=running["half_modes"])
                if step % 2 == 1:
                    np.maximum(running["coarse_grid"], current,
                               out=running["coarse_grid"])

        _run_engine(op, sc, idx, on_step, residues=residues)
        for key in keys:
            sups[key][start : start + p] = running[key]
    return sups if sensitivities else sups["full"]


def run_coupling_convergence(config: dict) -> ExperimentReport:
    """Pathwise comparison of u_eps with its homogenised limit as eps shrinks.

    For each eps the multiscale solver and the limit recursion consume
    identical increments; the Monte Carlo average of the per-path sup
    error is fitted against eps to produce the empirical rate theta.
    """
    study = config.get("study", {})
    seed = int(study.get("seed", 0))
    n_paths = int(study.get("paths", 200))
    mode_cutoff = int(study.get("mode_cutoff", 8))
    tol = study.get("tolerances", {})
    s = default_sobolev_index(study, config["noise"])

    c = build_coefficients(config["coefficients"])
    cell = solve_cell(c, with_gap=False)
    report = ExperimentReport(study="converge", config=config, seed=seed)
    report.notes.append(f"H^-s proxy with s = {s:g}, modes 1..{mode_cutoff}")

    eps_list = [float(e) for e in config["solver"]["eps"]]
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError("eps list must be strictly decreasing")
    watch = tuple(range(1, mode_cutoff + 1))

    first_spec = None
    for eps in eps_list:
        spec = build_noise(config["noise"], eps=eps,
                           rho=cell.rho if config["noise"].get("centered") else None)
        if first_spec is None:
            first_spec = spec
        sc = _solver_config(config.get("solver", {}), c, eps, spec.cutoff, seed,
                            default_t=1.0, watch=watch)
        model = averaged_model(spec, cell, mode_cutoff)
        sups = _coupled_sup_errors(c, spec, sc, model, s, n_paths,
                                   sensitivities=True)
        mean, se = batch_mean_se(sups["full"])
        report.rows.append({"eps": eps, "error": mean, "stderr": se,
                            "error_half_modes": float(sups["half_modes"].mean()),
                            "error_coarse_grid": float(sups["coarse_grid"].mean()),
                            "paths": n_paths, "dt": sc.dt, "n_modes": sc.n_modes,
                            "cutoff": sc.cutoff})

    decay_check = noise_mod.check_decay(first_spec)
    report.verdict("noise decay assumption", decay_check.passed, None)

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


def _limit_model_for(target: str, spec: NoiseSpec, cell: CellSolution,
                     mode_cutoff: int) -> LimitModel:
    if target == "fluctuation":
        return fluctuation_model(spec, cell, mode_cutoff)
    if target == "enhanced":
        return enhanced_model(spec, cell, mode_cutoff)
    if target == "smoothed":
        return smoothed_model(spec, cell, mode_cutoff)
    if target == "averaged":
        return averaged_model(spec, cell, mode_cutoff)
    raise ValueError(f"unknown variance target {target!r}")


def run_variance_study(config: dict, target: str | None = None) -> ExperimentReport:
    """Exact mode variances against the limiting OU prediction.

    Variances of <u_eps(T), e_m> come from the block Lyapunov equations
    (no Monte Carlo error): the implicit-trapezoid iterate with step dt,
    which exact_mode_covariance evaluates in closed form.  The limit
    prediction is |c_m|^2 times the finite-horizon OU factor.  For the
    fluctuation target the measured variance is rescaled by
    eps^(-2 alpha) and the noise must be centred.
    """
    study = config.get("study", {})
    target = target or study.get("target", "enhanced")
    seed = int(study.get("seed", 0))
    tol = study.get("tolerances", {})
    c = build_coefficients(config["coefficients"])
    cell = solve_cell(c, with_gap=False)
    watch = tuple(config.get("solver", {}).get("watch") or (int(study.get("mode", 1)),))

    report = ExperimentReport(study=f"variance-{target}", config=config, seed=seed)
    t_final = float(config.get("solver", {}).get("t_final") or 3.0 / cell.mu)
    eps_list = [float(e) for e in config["solver"]["eps"]]

    needs_centred = target == "fluctuation"
    gaps_by_mode = {m: [] for m in watch}
    for eps in eps_list:
        spec = build_noise(config["noise"], eps=eps,
                           rho=cell.rho if config["noise"].get("centered") else None)
        if needs_centred:
            worst = max(abs(inner_product(spec.profile(k), cell.rho))
                        for k in range(0, min(spec.cutoff, 64) + 1))
            report.verdict(f"centred profiles at eps = {eps:g}", worst <= 1e-8, worst, 1e-8)
        dt = config.get("solver", {}).get("dt") or min(1e-3, eps * eps / 4.0)
        sc = _solver_config(config.get("solver", {}), c, eps, spec.cutoff, seed,
                            default_t=t_final, watch=watch, dt=dt)
        t_grid = np.linspace(0.0, sc.t_final, 33)
        cov = exact_mode_covariance(c, spec, sc, t_grid, modes=watch)
        model = _limit_model_for(target, spec, cell, max(abs(m) for m in watch))
        scale = eps ** (-2.0 * spec.alpha) if target == "fluctuation" else 1.0

        table_rows = []
        for m in watch:
            for t, v in zip(cov.times, cov.variances[m]):
                table_rows.append([float(t), int(m), float(v)])
        report.tables[f"covariance_eps_{eps:g}"] = (["t", "m", "variance"], table_rows)

        for m in watch:
            measured = cov.at_final(m) * scale
            predicted = ou_variance(model, m, sc.t_final)
            gap = abs(measured - predicted) / predicted
            gaps_by_mode[m].append(gap)
            report.rows.append({"eps": eps, "m": m, "variance": cov.at_final(m),
                                "scaled_variance": measured, "target": predicted,
                                "rel_gap": gap, "dt": sc.dt, "n_modes": sc.n_modes,
                                "cutoff": sc.cutoff})

    final_tol = tol.get("final_gap", 0.15 if target == "fluctuation" else 0.10)
    for m in watch:
        gaps = gaps_by_mode[m]
        monotone = all(a > b for a, b in zip(gaps, gaps[1:]))
        report.verdict(f"relative gap decreasing (m = {m})", monotone, gaps[-1])
        report.verdict(f"final relative gap (m = {m})", gaps[-1] <= final_tol,
                       gaps[-1], final_tol)

    if target in ("enhanced", "smoothed"):
        m0 = watch[0]
        classical = (1.0 - np.exp(-2.0 * cell.mu * m0 * m0 * t_final)) / (2.0 * cell.mu * m0 * m0)
        measured = next(r["variance"] for r in report.rows
                        if r["eps"] == eps_list[-1] and r["m"] == m0)
        factor_needed = tol.get("enhancement_min_factor", 0.9) * cell.enhancement**2
        report.verdict("variance enhancement over the classical prediction",
                       measured / classical >= factor_needed, measured / classical,
                       factor_needed)
    return report


# -- semigroup remainder study ---------------------------------------------------------


def _unit_cell_flow(c: Coefficients, rho: SpectralField, offsets: int):
    """Eigen-decomposed adjoint flow on the unit cell, seeded with 1 - rho."""
    ks = np.arange(-offsets, offsets + 1)
    a = generator_matrix(c, ks, eps=1.0, adjoint=True)
    evals, vecs = np.linalg.eig(a)
    h0 = np.array([-rho.coeff(int(j)) for j in ks], dtype=complex)
    h0[offsets] += 1.0  # 1 - rho
    coef = np.linalg.solve(vecs, h0)

    def h_at(s: float) -> np.ndarray:
        return vecs @ (np.exp(evals * s) * coef)

    return h_at


def run_semigroup_study(config: dict) -> ExperimentReport:
    """Scaling of the slow-mode approximation remainder of the adjoint flow.

    Evolving e_m under the adjoint multiscale flow and subtracting the
    slow pattern rho(x/eps) e_m exp(-mu m^2 t) plus the evolved boundary
    layer leaves a remainder whose sup norm should scale like eps; the
    boundary layer itself should relax at rate omega / eps^2.
    """
    study = config.get("study", {})
    seed = int(study.get("seed", 0))
    m = int(study.get("mode", 1))
    tol = study.get("tolerances", {})
    c = build_coefficients(config["coefficients"])
    cell = solve_cell(c)
    report = ExperimentReport(study="semigroup", config=config, seed=seed)

    t_final = float(config.get("solver", {}).get("t_final") or 1.0)
    eps_list = [float(e) for e in config["solver"]["eps"]]
    offsets = int(study.get("offsets", 12))
    h_at = _unit_cell_flow(c, cell.rho, offsets)

    # Boundary-layer relaxation rate, from the unit-cell decay itself.
    s_grid = np.linspace(0.25, 6.0 / max(cell.omega, 1e-3), 200)
    h_norms = np.array([np.linalg.norm(h_at(s)) for s in s_grid])
    alive = h_norms > h_norms[0] * 1e-12
    bl_fit = cell_mod._fit_log_decay(s_grid[alive], h_norms[alive], 0.99, "boundary layer")

    sup_norms = []
    for eps in eps_list:
        r = int(round(1.0 / eps))
        ks = m + r * np.arange(-offsets, offsets + 1)
        a = generator_matrix(c, ks, eps=eps, adjoint=True)
        evals, vecs = np.linalg.eig(a)
        f0 = np.zeros(ks.size, dtype=complex)
        f0[offsets] = 1.0
        coef = np.linalg.solve(vecs, f0)
        pattern = np.array([cell.rho.coeff(int(j)) for j in
                            range(-offsets, offsets + 1)], dtype=complex)

        early = np.linspace(0.0, min(20.0 * eps * eps, t_final), 81)
        late = np.linspace(0.0, t_final, 201)
        ts = np.unique(np.concatenate([early, late]))
        sup_r = 0.0
        for t in ts[1:]:
            f_t = vecs @ (np.exp(evals * t) * coef)
            approx = pattern * np.exp(-cell.mu * m * m * t) + h_at(t / eps**2)
            sup_r = max(sup_r, float(np.linalg.norm(f_t - approx)))
        sup_norms.append(sup_r)
        report.rows.append({"eps": eps, "m": m, "sup_remainder": sup_r,
                            "bl_rate_slow_units": bl_fit.rate / eps**2,
                            "omega_over_eps2": cell.omega / eps**2})

    slope, _, r2 = loglog_fit(eps_list, sup_norms)
    report.fit = {"exponent": slope, "r_squared": r2,
                  "bl_rate_unit_cell": bl_fit.rate, "omega": cell.omega}
    lo, hi = tol.get("exponent_range", [0.8, 1.2])
    report.verdict("remainder scaling exponent", lo <= slope <= hi, slope)
    rate_rtol = tol.get("bl_rate_rtol", 0.10)
    rel = abs(bl_fit.rate - cell.omega) / cell.omega
    report.verdict("boundary-layer rate matches the spectral gap", rel <= rate_rtol,
                   rel, rate_rtol)
    return report


# -- dispatch ---------------------------------------------------------------------------


def run_study(config: dict) -> ExperimentReport:
    kind = config.get("study", {}).get("kind")
    if kind == "cell":
        return run_cell_study(config)
    if kind == "noise-check":
        return run_noise_check(config)
    if kind == "simulate":
        return run_simulate(config)
    if kind == "converge":
        return run_coupling_convergence(config)
    if kind == "variance":
        return run_variance_study(config)
    if kind == "semigroup":
        return run_semigroup_study(config)
    raise ValueError(f"unknown study kind {kind!r}")
