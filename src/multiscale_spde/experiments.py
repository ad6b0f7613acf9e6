"""Config-driven experiment harness: convergence, variance and remainder studies.

A single JSON document with sections ``coefficients``, ``noise``,
``solver`` and ``study`` declares an experiment.  run_study is the one
entry point: parse_config reads the document once, for the kind its own
study section names, into frozen dataclasses, one per section (each
key's type, default and bound is declared on its field, and every
refusal is a ValueError that names the section, the key and the value),
and one table keyed by study kind holds each kind's defaults and the
runner that fills its report.  The runners read those sections, never
the raw document, which each report keeps as its provenance.  The
report's JSON and CSV renderings are bit-for-bit reproducible given
(config, seed) within one NumPy/BLAS build, at any core count.  Across
builds, the studies without Monte Carlo agree to about 1e-12 relative in
their floats and exactly in everything else; converge and simulate are only statistically
equivalent, since the engine's draws go through eigenvectors of each
class's transition covariance whose signs and repeated-eigenvalue bases
a LAPACK build does not fix.  The package needs NumPy alone: every
eigen-decomposition, the semigroup flows' included, is cell.eigenbasis.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from numbers import Real
from pathlib import Path
from sys import float_info
from typing import Callable

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
    min_modes,
    require_driven,
    simulate_paths,
    suggest_modes,
)

__all__ = [
    "ExperimentReport",
    "load_config",
    "parse_config",
    "config_hash",
    "run_study",
    "emit_report",
]

ERROR_FLOOR = 1e-25
BL_FIT_MIN_R2 = 0.99  # the boundary-layer decay must be log-linear to this R^2
ENHANCEMENT_MIN_FACTOR = 0.9  # measured / classical variance at least this times |rho|^2


# -- configuration: reading one key ------------------------------------------------


def load_config(path) -> dict:
    """The JSON object in the file at path; a ValueError when the file cannot be read, is
    not JSON, or holds anything but an object."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:
        raise ValueError(f"cannot read config file {path}: {err.strerror}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} holds {raw!r}; a config is a JSON object")
    return raw


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


# Each reader below takes a key's label ("solver dt") and its given value, and returns the
# value typed, or raises a ValueError naming both.


def _need(ok: bool, label: str, value, what: str) -> None:
    if not ok:
        raise ValueError(f"{label} = {value!r} must be {what}")


def _is_real(value) -> bool:
    """Whether value is a real number: an int or a float within the float range, not a
    bool, inf or nan."""
    return isinstance(value, Real) and not isinstance(value, bool) and abs(value) <= float_info.max


def _real(label: str, value) -> float:
    _need(_is_real(value), label, value, "a real number")
    return float(value)


def _positive(label: str, value) -> float:
    _need(_real(label, value) > 0.0, label, value, "positive")
    return float(value)


def _whole(label: str, value) -> int:
    """A whole number; a JSON 2.0 is one."""
    _need(_is_real(value) and float(value).is_integer(), label, value, "an integer")
    return int(value)


def _count(label: str, value) -> int:
    _need(_whole(label, value) >= 1, label, value, "at least 1")
    return int(value)


def _band(label: str, value) -> int:
    """A positive even whole number: build_blocks' band is symmetric only for an even one."""
    _need(_whole(label, value) > 0, label, value, "positive")
    _need(int(value) % 2 == 0, label, value, "even: the band -n_modes/2 < k < n_modes/2 is "
          "symmetric, and the fields real, only then")
    return int(value)


def _flag(label: str, value) -> bool:
    """true or false; the string "false" is not read as true."""
    _need(isinstance(value, bool), label, value, "true or false")
    return value


def _text(label: str, value) -> str:
    _need(isinstance(value, str), label, value, "a string")
    return value


def _choice(*options: str, plural: str):
    """The reader of a key that takes one of options."""
    def read(label: str, value) -> str:
        if value not in options:
            raise ValueError(f"unknown {label} {value!r}; the {plural} are {', '.join(options)}")
        return value
    return read


def _pair(label: str, value) -> tuple[float, float]:
    _need(isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_real, value)),
          label, value, "a list of two real numbers")
    return float(value[0]), float(value[1])


def _watch(label: str, value) -> tuple[int, ...]:
    """A non-empty list of distinct whole modes."""
    _need(isinstance(value, (list, tuple)), label, value, "a list of modes")
    modes = tuple(_whole(f"{label} entry", m) for m in value)
    if not modes:
        raise ValueError(f"{label} is empty; give at least one mode")
    for m in modes:
        if modes.count(m) > 1:
            raise ValueError(f"{label} repeats mode {m}; give each mode once")
    return modes


def _eps(label: str, value) -> tuple[float, ...]:
    """A non-empty list, each entry the reciprocal of an integer, strictly decreasing."""
    _need(isinstance(value, (list, tuple)), label, value, "a list of eps values")
    eps_list = tuple(_real(f"{label} entry", eps) for eps in value)
    if not eps_list:
        raise ValueError(f"{label} is empty; give at least one eps")
    for i, eps in enumerate(eps_list):
        cells(eps)
        if i > 0 and eps >= eps_list[i - 1]:
            raise ValueError(f"eps list must be strictly decreasing: eps = {eps:g} "
                             f"follows {eps_list[i - 1]:g}")
    return eps_list


def _profile(label: str, value) -> SpectralField:
    """A profile: a name below, or a list of [k, re, im] triples, one per Fourier mode."""
    named = {
        "one": {0: 1.0},
        "cos": {1: 0.5, -1: 0.5},
        "sin": {1: -0.5j, -1: 0.5j},
        "one-plus-cos": {0: 1.0, 1: 0.5, -1: 0.5},
    }
    if isinstance(value, str):
        name = _choice(*named, plural="profile names")(label, value)
        return SpectralField.from_modes(named[name])
    _need(isinstance(value, (list, tuple))
          and all(isinstance(mode, (list, tuple)) and len(mode) == 3 for mode in value),
          label, value, "a profile name or a list of [k, re, im] triples")
    return SpectralField.from_modes({
        _whole(f"{label} wavenumber", k): _real(f"{label} re", re) + 1j * _real(f"{label} im", im)
        for k, re, im in value})


def _table(label: str, value) -> dict[int, SpectralField]:
    """An object from wavenumbers k to the profiles q_k."""
    _need(isinstance(value, dict), label, value, "an object from wavenumbers to profiles")
    for k in value:
        _need(str(k).removeprefix("-").isdecimal(), f"{label} wavenumber", k, "an integer")
    return {int(k): _profile(f"{label} {k}", spec) for k, spec in value.items()}


def _variance_dt(eps: float) -> float:
    """The variance study's default dt: the trapezoid recursion's step, finer than default_dt."""
    return min(1e-3, eps * eps / 4.0)


# -- configuration: the sections ---------------------------------------------------


def _key(default, read, null: bool = False):
    """A config key: the JSON value it takes when left out (None: it stays absent) and
    its reader, or the section class that reads it as a nested object.  With null, a
    JSON null leaves the key out too; elsewhere the reader refuses it."""
    return field(metadata={"default": default, "read": read, "null": null})


def _parse(cls, name: str, raw):
    """raw, the config's `name` object, as cls: each key read by its field's reader."""
    _need(isinstance(raw, dict), name, raw, "an object")
    keys = [f.name for f in fields(cls)]
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ValueError(f"unknown {name} key(s) {', '.join(unknown)}; "
                         f"the studies read {', '.join(keys)}")
    values = {}
    for f in fields(cls):
        value = raw.get(f.name, f.metadata["default"])
        read = f.metadata["read"]
        if value is None and (f.metadata["null"] or f.name not in raw):
            values[f.name] = None
        elif isinstance(read, type):
            values[f.name] = _parse(read, f.name, value)
        else:
            values[f.name] = read(f"{name} {f.name}", value)
    return cls(**values)


def _reads_only(section, name: str, noun: str, table: dict, variant) -> None:
    """Refuse a key of section that some variant in table (variant -> (constructor, keys
    read)) reads, but variant, the section's own set or family, does not."""
    reads = table[variant][1]
    unread = [f.name for f in fields(section) if getattr(section, f.name) is not None
              and f.name not in reads and any(f.name in keys for _, keys in table.values())]
    if unread:
        only = f"only {', '.join(reads)}" if reads else f"no {noun} key"
        raise ValueError(f"{name} {', '.join(unread)} given to the {variant or 'unnamed'} "
                         f"{noun}, which reads {only}")


_SETS = {  # each coefficient set's constructor and the keys it reads
    None: (Coefficients, ("b", "sigma")),
    "heat": (Coefficients.heat, ()),
    "cosine-potential": (Coefficients.cosine_potential, ("amplitude",)),
}


@dataclass(frozen=True)
class CoefficientsSection:
    """A named set (heat: b = 0 and sigma = sqrt(2), so L = d2/dx2; cosine-potential:
    b = A sin x and sigma = 1, A = 1 left out), or b and sigma as profiles."""

    name: str | None = _key(None, _choice(*filter(None, _SETS), plural="sets"), null=True)
    amplitude: float | None = _key(None, _real)
    sigma: SpectralField | None = _key(None, _profile)
    b: SpectralField | None = _key(None, _profile)

    def __post_init__(self):
        _reads_only(self, "coefficients", "set", _SETS, self.name)
        for key in ("b", "sigma") if self.name is None else ():
            _need(getattr(self, key) is not None, f"coefficients {key}", None,
                  "a profile: the coefficients name no set")
            cell_mod.require_real(key, getattr(self, key))

    def build(self) -> Coefficients:
        """The set's constructor on the keys it reads; one left out takes its default."""
        make, reads = _SETS[self.name]
        return make(**{key: getattr(self, key) for key in reads if getattr(self, key) is not None})


@dataclass(frozen=True)
class MollifierSection:
    """The smooth symbol phi, phi(0) = 1, of the smoothed limit."""

    kind: str = _key("tent", _choice("tent", "bump", plural="kinds"))
    radius: float = _key(2.0, _positive)

    def build(self):
        return (tent_mollifier if self.kind == "tent" else bump_mollifier)(self.radius)


_FAMILIES = {  # each noise family's constructor and the family keys it reads
    "white": (NoiseSpec.white, ()),
    "power": (NoiseSpec.power_decay, ("alpha", "profile")),
    "tail": (NoiseSpec.tail_convergent, ("tail", "tail_rate", "ripple", "eta")),
    "custom": (NoiseSpec.custom, ("table", "alpha", "tail", "eta")),
}


@dataclass(frozen=True)
class NoiseSection:
    """The noise family and its driven cutoff: cutoff, or cutoff_factor / eps at each eps.

    Each family reads its keys in _FAMILIES, with NoiseSpec's defaults: power needs alpha
    and custom its table.  centered subtracts <q_k, rho> from every profile.
    """

    family: str = _key("white", _choice(*_FAMILIES, plural="families"))
    cutoff: int | None = _key(None, _count, null=True)
    cutoff_factor: float | None = _key(None, _positive, null=True)
    alpha: float | None = _key(None, _real)
    profile: SpectralField | None = _key(None, _profile)
    eta: float | None = _key(None, _real)
    tail: SpectralField | None = _key(None, _profile)
    tail_rate: float | None = _key(None, _real)
    ripple: SpectralField | None = _key(None, _profile)
    table: dict | None = _key(None, _table)
    centered: bool = _key(False, _flag)
    mollifier: MollifierSection | None = _key(None, MollifierSection)

    def __post_init__(self):
        _reads_only(self, "noise", "family", _FAMILIES, self.family)
        if (self.cutoff is None) == (self.cutoff_factor is None):
            given = "both cutoff and" if self.cutoff is not None else "neither cutoff nor"
            raise ValueError(f"noise gives {given} cutoff_factor; give one")
        needed = {"power": "alpha", "custom": "table"}.get(self.family)
        if needed is not None and getattr(self, needed) is None:
            raise ValueError(f"noise key {needed} is missing; family {self.family!r} needs it")
        if self.centered and self.family == "white":
            raise ValueError("noise centered = true: the white family centres to zero; "
                             "nothing left to drive")

    def cutoff_at(self, eps: float | None) -> int:
        if self.cutoff is not None:
            return self.cutoff
        if eps is None:
            raise ValueError(f"noise cutoff_factor = {self.cutoff_factor!r} needs an eps to "
                             "scale; give cutoff for a study that reads no eps")
        cutoff = int(round(self.cutoff_factor / eps))
        _need(cutoff >= 1, "noise cutoff_factor", self.cutoff_factor,
              f"large enough to drive a mode: it gives cutoff {cutoff} at eps = {eps:g}")
        return cutoff

    def spec(self, eps: float | None = None) -> NoiseSpec:
        """The spec at eps, not yet centred (see _driving_noise): the family's constructor
        on the keys it reads, each left out taking NoiseSpec's default."""
        make, reads = _FAMILIES[self.family]
        moll = None if self.mollifier is None else self.mollifier.build()
        return make(cutoff=self.cutoff_at(eps), mollifier=moll,
                    **{key: getattr(self, key) for key in reads if getattr(self, key) is not None})


@dataclass(frozen=True)
class SolverSection:
    """The eps ladder, the horizon and time step, the band and the recorded modes.

    Left out, t_final, dt and watch take the study's defaults (_KINDS) and n_modes
    suggest_modes' band.
    """

    eps: tuple[float, ...] | None = _key(None, _eps, null=True)
    t_final: float | None = _key(None, _positive, null=True)
    dt: float | None = _key(None, _positive, null=True)
    n_modes: int | None = _key(None, _band, null=True)
    watch: tuple[int, ...] | None = _key(None, _watch, null=True)
    track_norm: bool = _key(False, _flag)


@dataclass(frozen=True)
class TolerancesSection:
    """The verdicts' thresholds; final_gap defaults to 0.15 on the fluctuation target,
    0.10 on the others."""

    theta_min: float = _key(0.3, _real)
    r2_min: float = _key(0.9, _real)
    final_gap: float | None = _key(None, _real)
    exponent_range: tuple[float, float] = _key([0.8, 1.2], _pair)
    bl_rate_rtol: float = _key(0.10, _real)


def _cell(cfg: Config):
    """The config's coefficients and their cell solution."""
    c = cfg.coefficients.build()
    return c, solve_cell(c)


def _driving_noise(cfg: Config, eps: float | None, cell) -> NoiseSpec:
    """The noise at eps, centred against the cell's density when the config asks (cell
    may be None when it does not)."""
    spec = cfg.noise.spec(eps)
    return spec.centered(cell.rho) if cfg.noise.centered else spec


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
        if "study" in cfg:
            cfg["study"].pop("out", None)  # a sink path, not an input
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
        """The report as text; a bool in the fit prints as report.json spells it."""
        def show(v) -> str:
            return ("true" if v else "false") if isinstance(v, (bool, np.bool_)) else f"{v:.4g}"

        lines = [f"study: {self.study}  ({'pass' if self.passed else 'FAIL'})"]
        for v in self.verdicts:
            status = "pass" if v["passed"] else "FAIL"
            thr = "" if v["threshold"] is None else f"  (threshold {v['threshold']:g})"
            val = "" if v["value"] is None else f" = {v['value']:.6g}"
            lines.append(f"  {status:4s} {v['name']}{val}{thr}")
        if self.fit:
            pieces = ", ".join(f"{k} = {show(v)}" for k, v in self.fit.items()
                               if isinstance(v, (int, float, np.bool_)))
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
    tables = sorted(report.tables.items())
    if report.rows:
        header = list(report.rows[0])
        tables.insert(0, ("rows", (header, [[r.get(h) for h in header] for r in report.rows])))
    (out / "report.json").write_bytes(report.to_json_bytes())
    for name, (header, rows) in tables:
        (out / f"{name}.csv").write_bytes(_csv_bytes(header, rows))
    return [out / "report.json", *(out / f"{name}.csv" for name, _ in tables)]


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


def _cell_study(cfg: Config, report: ExperimentReport) -> None:
    """Cell problem summary: rho diagnostics, mu, omega.

    The row and the density table read what solve_cell measured for its
    contracts; the one verdict is zero flux, which no contract checks.
    """
    c, sol = _cell(cfg)
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


def _noise_check_study(cfg: Config, report: ExperimentReport) -> None:
    """Run the decay, tail-convergence and summability validators.

    The noise is the one the studies drive, built at the first solver eps
    when the config gives one (converge checks its decay assumption there
    too) and centred against the cell's density when the config asks.
    Their rows become the report's rows, and each check one verdict: all
    of its items passed.
    """
    eps = cfg.solver.eps[0] if cfg.solver.eps else None
    spec = _driving_noise(cfg, eps, _cell(cfg)[1] if cfg.noise.centered else None)

    checks = [noise_mod.check_decay(spec)]
    if spec.tail is not None:
        checks.append(noise_mod.check_tail_convergence(spec))
        if spec.family == "power":
            # decaying profiles converge to zero, not to the declared tail;
            # the H1 summability condition targets the no-decay regime
            report.notes.append("tail summability skipped: decaying family")
        else:
            checks.append(noise_mod.check_tail_summability(spec))
    for rows in checks:
        report.rows.extend(rows)
        report.verdict(rows[0]["check"], all(r["passed"] for r in rows), None)


def _simulate_study(cfg: Config, report: ExperimentReport) -> None:
    """Sample paths of the multiscale equation at the first eps; trajectories become CSV tables.

    One simulate_paths call runs every path; path p's table path_{p:03d}
    holds its watched modes, and with track_norm its norm_path_{p:03d}
    holds |u|^2, both at every recorded step.
    """
    eps = cfg.solver.eps[0]
    c, cell = _cell(cfg)
    n_paths = cfg.study.paths
    spec = _driving_noise(cfg, eps, cell)
    sc = cfg.engine(c, eps, spec.cutoff)
    out = simulate_paths(c, spec, sc, n_paths)
    for p in range(n_paths):
        report.tables[f"path_{p:03d}"] = (["t", "m", "re", "im"], [
            [float(t), int(m), float(z.real), float(z.imag)]
            for m, traj in sorted(out.modes.items()) for t, z in zip(out.times, traj[p])])
        if out.norm_squared is not None:
            report.tables[f"norm_path_{p:03d}"] = (["t", "norm_squared"], [
                [float(t), float(v)] for t, v in zip(out.times, out.norm_squared[p])])
    report.rows.append({"paths": n_paths, "eps": eps, "dt": sc.dt,
                        "n_modes": sc.n_modes, "cutoff": spec.cutoff,
                        "steps": sc.n_steps})
    report.notes.append("trajectory CSVs: one file per path, columns (t, m, re, im)")


# -- convergence study ---------------------------------------------------------------


def _converge_study(cfg: Config, report: ExperimentReport) -> None:
    """Pathwise comparison of u_eps with its homogenised limit as eps shrinks.

    For each eps the engine steps u_eps and its limit by their exact
    joint transition, both driven by the same Wiener increments
    (coupled_sup_errors); the Monte Carlo average of the per-path sup
    error is fitted against eps to produce the empirical rate theta.  The
    limit is the averaged one, and s defaults to max(0, 1.5 (1 - 2 alpha)) + 1/2
    with the alpha of the noise it drives.
    """
    study = cfg.study
    eps_list = cfg.solver.eps
    mode_cutoff = study.mode_cutoff
    n_paths = study.paths
    tol = study.tolerances
    for eps in eps_list:
        require_driven(eps, cfg.noise.cutoff_at(eps), cfg.solver.watch, "mode_cutoff")
    c, cell = _cell(cfg)

    for eps in eps_list:
        spec = _driving_noise(cfg, eps, cell)
        if eps == eps_list[0]:
            s = max(0.0, 1.5 * (1.0 - 2.0 * spec.alpha)) + 0.5 if study.s is None else study.s
            report.notes.append(f"H^-s proxy with s = {s:g}, modes 1..{mode_cutoff}")
            report.verdict("noise decay assumption",
                           all(r["passed"] for r in noise_mod.check_decay(spec)), None)
        sc = cfg.engine(c, eps, spec.cutoff)
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
        return

    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    report.verdict("errors strictly decreasing in eps", decreasing, errors[-1])
    report.fit = fit_rate_with_exclusion(eps_list, errors)
    for proxy in ("half_modes", "coarse_grid"):  # truncation sensitivity, per row and as rates
        errors = [r[f"error_{proxy}"] for r in report.rows]
        if min(errors) > ERROR_FLOOR:
            report.fit[f"theta_{proxy}"] = fit_rate_with_exclusion(eps_list, errors)["theta"]
    report.verdict("fitted rate theta", report.fit["theta"] >= tol.theta_min,
                   report.fit["theta"], tol.theta_min)
    report.verdict("rate fit R^2", report.fit["r_squared"] >= tol.r2_min,
                   report.fit["r_squared"], tol.r2_min)


# -- variance study -------------------------------------------------------------------


def _variance_study(cfg: Config, report: ExperimentReport) -> None:
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
    c, cell = _cell(cfg)
    if cfg.solver.t_final is None:  # the default horizon 3 / mu is known only now
        _check_dt(cfg.solver, "variance", 3.0 / cell.mu, _variance_dt)
        cfg = replace(cfg, solver=replace(cfg.solver, t_final=3.0 / cell.mu))
    eps_list = cfg.solver.eps
    watch = cfg.solver.watch
    target = cfg.study.target
    final_tol = cfg.study.tolerances.final_gap
    report.study = f"variance-{target}"

    for eps in eps_list:
        spec = _driving_noise(cfg, eps, cell)
        if target == "fluctuation":
            worst = max(abs(inner_product(spec.profile(k), cell.rho))
                        for k in range(0, min(spec.cutoff, 64) + 1))
            report.verdict(f"centred profiles at eps = {eps:g}", worst <= 1e-8, worst, 1e-8)
        sc = cfg.engine(c, eps, spec.cutoff)
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

        report.tables[f"covariance_eps_{eps:g}"] = (["t", "m", "variance"], [
            [float(t), int(m), float(v)]
            for m in watch for t, v in zip(cov.times, cov.variances[m])])

        for m in watch:
            measured = cov.at_final(m) * scale
            gap = abs(measured - predicted[m]) / predicted[m]
            report.rows.append({"eps": eps, "m": m, "variance": cov.at_final(m),
                                "scaled_variance": measured, "target": predicted[m],
                                "rel_gap": gap, "dt": sc.dt, "n_modes": sc.n_modes,
                                "cutoff": spec.cutoff})

    for m in watch:
        gaps = [r["rel_gap"] for r in report.rows if r["m"] == m]
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


# -- semigroup remainder study ---------------------------------------------------------


def _adjoint_flow(c: Coefficients, ks: np.ndarray, eps: float, f0: np.ndarray):
    """ts -> exp(t L_eps*) f0 on the wavenumbers ks, one column per time."""
    evals, vecs, inv = eigenbasis(generator_matrix(c, ks, eps=eps, adjoint=True),
                                  f"adjoint flow on k = {ks[0]} .. {ks[-1]} at eps = {eps:g}")
    coef = inv @ f0
    return lambda ts: vecs @ (np.exp(np.multiply.outer(evals, ts)) * coef[:, None])


def _fit_log_decay(ts: np.ndarray, values: np.ndarray) -> float:
    """Exponential decay rate fitted from a log-linear window."""
    if ts.size < 8:
        raise FitFailed(f"boundary layer: only {ts.size} samples in the fit window")
    slope, _, r2 = _line_fit(ts, np.log(values))
    if r2 < BL_FIT_MIN_R2:
        raise FitFailed(f"boundary layer: fit R^2 = {r2:.6f} below {BL_FIT_MIN_R2}")
    return -slope


def _semigroup_study(cfg: Config, report: ExperimentReport) -> None:
    """Scaling of the slow-mode approximation remainder of the adjoint flow.

    Evolving e_m under the adjoint multiscale flow and subtracting the
    slow pattern rho(x/eps) e_m exp(-mu m^2 t) plus the evolved boundary
    layer leaves a remainder whose sup norm should scale like eps.  The
    boundary layer is the unit-cell flow of 1 - rho at s = t / eps^2; its
    decay rate is fitted in L^2(1/rho), where the eigenvectors of a
    reversible L* are orthogonal, and should match the spectral gap omega.
    All flows are eigen-decomposed on the class offsets |l| <= CLASS_OFFSETS.
    The mode must be a slow one at the largest eps (nonzero, eps |m| < 1/2),
    and the exponent fit needs at least two eps; both are checked before
    the cell solve.
    """
    eps_list = cfg.solver.eps
    t_final = cfg.solver.t_final
    m = cfg.study.mode
    require_slow_mode(eps_list[0], m)
    c, cell = _cell(cfg)
    tol = cfg.study.tolerances
    omega = spectral_gap(c)

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
    lo, hi = tol.exponent_range
    report.verdict("remainder scaling exponent", lo <= slope <= hi, slope)
    rate_rtol = tol.bl_rate_rtol
    rel = abs(bl_rate - omega) / omega
    report.verdict("boundary-layer rate matches the spectral gap", rel <= rate_rtol,
                   rel, rate_rtol)


# -- the study kinds: their rules and runners, and the one entry point ----------------


@dataclass(frozen=True)
class _Kind:
    """One study kind: its runner, what it reads, and what it takes for the keys a config
    leaves out."""

    run: Callable[[Config, ExperimentReport], None]  # fills the report from the parsed config
    needs: tuple[str, ...]  # the sections it reads
    least_eps: int = 0  # the fewest solver eps it runs on
    paths: int | None = None  # study paths
    t_final: float | None = 1.0  # solver t_final; None: 3 / mu, known after the cell solve
    dt_of: Callable[[float], float] | None = None  # solver dt at eps; None: takes no steps
    watch: Callable = lambda given, study: given  # solver watch, from the given one and study
    target: str | None = None  # study target
    targets: tuple[str, ...] = REGIMES  # the targets it compares with


_KINDS = {  # the command line has one subcommand per kind
    "cell": _Kind(_cell_study, ("coefficients",)),
    "noise-check": _Kind(_noise_check_study, ("noise",)),
    "simulate": _Kind(_simulate_study, ("coefficients", "noise"), 1, paths=2,
                      dt_of=default_dt, watch=lambda given, study: given or (1,)),
    "converge": _Kind(_converge_study, ("coefficients", "noise"), 3, paths=200,
                      dt_of=default_dt,
                      watch=lambda given, study: tuple(range(1, study.mode_cutoff + 1)),
                      target="averaged", targets=("averaged",)),
    "variance": _Kind(_variance_study, ("coefficients", "noise"), 1, t_final=None,
                      dt_of=_variance_dt,
                      watch=lambda given, study: given or (study.mode,), target="enhanced"),
    "semigroup": _Kind(_semigroup_study, ("coefficients",), 2),
}


@dataclass(frozen=True)
class StudySection:
    """The study kind, its seed, sink and sizes, its limit target and its tolerances."""

    kind: str | None = _key(None, _choice(*_KINDS, plural="kinds"))
    seed: int = _key(0, _whole)
    out: str | None = _key(None, _text, null=True)
    paths: int | None = _key(None, _count)
    target: str | None = _key(None, _choice(*REGIMES, plural="limit regimes"), null=True)
    tolerances: TolerancesSection = _key({}, TolerancesSection)
    mode: int = _key(1, _whole)
    mode_cutoff: int = _key(8, _count)
    s: float | None = _key(None, _real, null=True)


@dataclass(frozen=True)
class Config:
    """A config as parse_config returns it: one section per key of the JSON document."""

    coefficients: CoefficientsSection | None = _key(None, CoefficientsSection)
    noise: NoiseSection | None = _key(None, NoiseSection)
    solver: SolverSection = _key({}, SolverSection)
    study: StudySection = _key({}, StudySection)

    def engine(self, c: Coefficients, eps: float, cutoff: int) -> SolverConfig:
        """The engine's SolverConfig at eps: the given band and dt, else the study's."""
        solver = self.solver
        dt = _KINDS[self.study.kind].dt_of(eps) if solver.dt is None else solver.dt
        n_modes = suggest_modes(c, eps, cutoff) if solver.n_modes is None else solver.n_modes
        return SolverConfig(eps=eps, n_modes=n_modes, dt=dt, t_final=solver.t_final,
                            watch=solver.watch, seed=self.study.seed,
                            track_norm=solver.track_norm)


def _check_dt(solver: SolverSection, kind: str, horizon: float | None, dt_of) -> None:
    """Refuse a dt above the horizon: a given dt above the given t_final, else above the
    study's horizon if known; without a given dt, a given t_final below the study's
    default dt, dt_of(eps), at any eps of the list.  dt_of None: the study takes no
    time steps, and only a given dt above a given t_final is refused."""
    dt, t_final = solver.dt, solver.t_final
    if dt is None:
        for eps in (solver.eps or ()) if t_final is not None and dt_of is not None else ():
            if dt_of(eps) > t_final:
                raise ValueError(f"solver t_final = {t_final!r} is below {dt_of(eps):g}, the "
                                 f"{kind} study's default dt at eps = {eps:g} (the config "
                                 "gives no solver dt)")
        return
    if t_final is not None:
        if dt > t_final:
            raise ValueError(f"solver dt = {dt!r} is above solver t_final = {t_final!r}")
    elif dt_of is not None and horizon is not None and dt > horizon:
        raise ValueError(f"solver dt = {dt!r} is above t_final = {horizon:g}, the {kind} "
                         "study's default horizon (the config gives no solver t_final)")


def parse_config(raw) -> Config:
    """raw, a JSON config, read once for the study its study kind names, before any work.

    Refused, each with a ValueError: a config or section that is not an object (null
    included), a key no study reads, a value of the wrong type or out of its bound (see
    the sections' readers), a variant key the coefficient set or noise family does not
    read (_SETS, _FAMILIES), a missing study kind, a cutoff and a noise family that do
    not fit (NoiseSection), a section the study needs and the config lacks, a centred
    noise without coefficients to centre against, track_norm for any study but
    simulate, a solver watch for converge (it watches 1 .. study mode_cutoff), the
    smoothed target without a mollifier, a dt that does not fit the
    horizon (_check_dt), a b or sigma that is not a real field (cell.require_real), a
    noise that does not build, or drives nothing (NoiseSpec), at every eps (at no eps
    when the config gives none), a given n_modes below the band minimum (min_modes) at
    an eps, fewer eps than the study needs and a target it does not compare with.
    Returns the config with the study's defaults (_KINDS) filled in; the variance
    study's t_final stays None until its cell solve.
    """
    cfg = _parse(Config, "config", raw)
    kind = cfg.study.kind
    if kind is None:
        raise ValueError(f"study kind is missing; the kinds are {', '.join(_KINDS)}")
    rules = _KINDS[kind]
    for section in rules.needs:
        if getattr(cfg, section) is None:
            raise ValueError(f"the {kind} study needs a {section} section; the config has none")
    if cfg.noise is not None and cfg.noise.centered and cfg.coefficients is None:
        raise ValueError("noise centered = true centres against the cell's density; the "
                         "config has no coefficients section")
    solver = cfg.solver
    study = cfg.study
    if solver.track_norm and kind != "simulate":
        raise ValueError(f"solver track_norm = true: only the simulate study reads |u|^2, "
                         f"not the {kind} study")
    if kind == "converge" and solver.watch is not None:
        raise ValueError(f"solver watch = {list(solver.watch)}: the converge study watches "
                         f"modes 1 .. study mode_cutoff = {study.mode_cutoff}; give "
                         "study mode_cutoff instead")
    if study.target == "smoothed" and (cfg.noise is None or cfg.noise.mollifier is None):
        raise ValueError("study target 'smoothed' needs a noise mollifier")
    _check_dt(solver, kind, rules.t_final, rules.dt_of)
    if cfg.noise is not None:
        c = None
        if solver.n_modes is not None and cfg.coefficients is not None:
            c = cfg.coefficients.build()
        for eps in solver.eps or [None]:
            cutoff = cfg.noise.spec(eps).cutoff  # each spec a study builds, so bad values fail here
            if c is not None and eps is not None and solver.n_modes < min_modes(c, eps, cutoff):
                raise ValueError(f"solver n_modes = {solver.n_modes!r} is below "
                                 f"{min_modes(c, eps, cutoff)}, the band minimum "
                                 f"2 (1/eps) (J + 1) + 2 cutoff at eps = {eps:g}")
    given = 0 if solver.eps is None else len(solver.eps)
    if given < rules.least_eps:
        raise ValueError(f"the {kind} study needs at least {rules.least_eps} solver eps "
                         f"value(s); the config gives {given}")
    if study.target is not None and study.target not in rules.targets:
        raise ValueError(f"{kind} compares with the {rules.target} limit only; "
                         f"study target {study.target!r} is not {rules.target!r}")
    target = rules.target if study.target is None else study.target
    tolerances = study.tolerances
    if tolerances.final_gap is None:
        tolerances = replace(tolerances, final_gap=0.15 if target == "fluctuation" else 0.10)
    study = replace(study, target=target, tolerances=tolerances,
                    paths=rules.paths if study.paths is None else study.paths)
    solver = replace(solver, watch=rules.watch(solver.watch, study),
                     t_final=rules.t_final if solver.t_final is None else solver.t_final)
    return replace(cfg, solver=solver, study=study)


def run_study(raw: dict) -> ExperimentReport:
    """The report of the study that raw's study kind names: raw is parsed once
    (parse_config), and the kind's runner fills the report, which keeps raw as its
    provenance."""
    cfg = parse_config(raw)
    report = ExperimentReport(study=cfg.study.kind, config=raw, seed=cfg.study.seed)
    _KINDS[cfg.study.kind].run(cfg, report)
    return report
