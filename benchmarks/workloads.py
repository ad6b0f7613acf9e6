"""Benchmark workloads: the study configs each one runs, and their output checks.

A workload is a list of operations. One operation is one study call made
the way the command line makes it: ``run_study`` on a config, then
``emit_report`` into a temporary directory. An operation fails when it
raises, or when its emitted output fails the check attached to it.

The checks do not depend on the rounding of one platform: Monte Carlo
errors are compared with a reference in standard errors, exact variances
with a relative bound, and cell results with closed forms and an
eigenvalue oracle.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("converge-mc", "variance-exact", "simulate-path", "cell-sweep")

# converge-mc: a row fails when its mean sup error is further than this many
# standard errors (of a mean over the same path count) from the reference.
CONVERGE_SE_BOUND = 5.0
# variance-exact: wide enough for a closed-form covariance that moves the
# variances by 1e-9 relative, tight enough for any modelling change.
VARIANCE_RTOL = 1e-7
# cell-sweep: mu against its closed form, omega against the eigenvalue
# oracle (the tolerance test_cosine_gap_matches_eigenvalue_oracle uses).
MU_RTOL = 1e-6
OMEGA_RTOL = 0.02
# simulate-path: conjugate symmetry and realness, relative to the path scale.
SYMMETRY_RTOL = 1e-10


class OutputMismatch(Exception):
    """An operation's output disagrees with what the benchmark expects."""

    def __init__(self, error_class: str, detail: str):
        super().__init__(detail)
        self.error_class = error_class


@dataclass(frozen=True)
class Operation:
    label: str
    config: dict
    check: Callable[[Path], None]  # reads the emitted files; raises OutputMismatch


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def operations(workload: str, seed: int, smoke: bool = False,
               reference: dict | None = None) -> list[Operation]:
    """The operations of one repetition of a workload; inputs depend only on seed."""
    ref = (reference or load_reference())[workload]["smoke" if smoke else "full"]
    if workload == "converge-mc":
        return [Operation("converge", converge_config(seed, smoke),
                          lambda out: check_converge(out, ref))]
    if workload == "variance-exact":
        return [Operation("variance", variance_config(seed, smoke),
                          lambda out: check_variance(out, ref))]
    if workload == "simulate-path":
        return [Operation("simulate", simulate_config(seed, smoke), check_simulate)]
    if workload == "cell-sweep":
        amplitudes = list(ref["amplitudes"])
        random.Random(seed).shuffle(amplitudes)  # the set is fixed; the order is not
        ops = []
        for a in amplitudes:
            ops.append(Operation(f"cell A={a:g}", cell_config("cell", a, seed),
                                 lambda out, a=a: check_cell(out, a)))
            ops.append(Operation(f"semigroup A={a:g}", cell_config("semigroup", a, seed),
                                 lambda out, a=a: check_semigroup(out, a)))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def known_failures(workload: str, smoke: bool = False,
                   reference: dict | None = None) -> set[tuple[str, str]]:
    """(operation, error class) pairs that fail at the seed by a recorded defect."""
    ref = (reference or load_reference())[workload]["smoke" if smoke else "full"]
    return {tuple(pair) for pair in ref.get("known_failures", [])}


# -- configs -----------------------------------------------------------------------


def converge_config(seed: int, smoke: bool) -> dict:
    """Acceptance criterion 4 on eps {1/4, 1/8, 1/16}, with a shorter horizon."""
    return {
        "coefficients": {"name": "cosine-potential", "amplitude": 1.0},
        "noise": {"family": "power", "alpha": 0.75, "profile": "one",
                  "cutoff_factor": 2.0},
        "solver": {"eps": [0.25, 0.125, 0.0625], "t_final": 0.01 if smoke else 0.25},
        "study": {"kind": "converge", "seed": seed, "paths": 8 if smoke else 64,
                  "s": 1.0, "mode_cutoff": 8,
                  "tolerances": {"theta_min": 0.3, "r2_min": 0.9}},
    }


def variance_config(seed: int, smoke: bool) -> dict:
    """Acceptance criterion 5 (centred power noise, fluctuation target), shorter horizon."""
    return {
        "coefficients": {"name": "cosine-potential", "amplitude": 1.0},
        "noise": {"family": "power", "alpha": 0.5, "profile": "one-plus-cos",
                  "cutoff_factor": 2.0 if smoke else 6.0, "centered": True},
        "solver": {"eps": [0.25, 0.125, 0.0625], "watch": [1],
                   "t_final": 0.1 if smoke else 2.0},
        "study": {"kind": "variance", "target": "fluctuation", "seed": seed,
                  "tolerances": {"final_gap": 0.15}},
    }


def simulate_config(seed: int, smoke: bool) -> dict:
    """Two white-noise paths at eps = 1/16 with their trajectory CSVs."""
    return {
        "coefficients": {"name": "cosine-potential", "amplitude": 1.0},
        "noise": {"family": "white", "cutoff_factor": 4.0},
        "solver": {"eps": [0.0625], "t_final": 0.005 if smoke else 0.25,
                   "watch": [-1, 0, 1, 2, 3], "track_norm": True},
        "study": {"kind": "simulate", "seed": seed, "paths": 2},
    }


def cell_config(kind: str, amplitude: float, seed: int) -> dict:
    """Cosine potential of the given amplitude; criterion-7 semigroup settings."""
    return {
        "coefficients": {"name": "cosine-potential", "amplitude": float(amplitude)},
        "noise": {"family": "white", "cutoff": 4},
        "solver": {"eps": [0.125, 0.0625, 0.03125], "t_final": 1.0},
        "study": {"kind": kind, "seed": seed, "mode": 1,
                  "tolerances": {"exponent_range": [0.8, 1.2], "bl_rate_rtol": 0.10}},
    }


# -- oracles -------------------------------------------------------------------------


def cosine_mu(amplitude: float) -> float:
    """Closed-form effective diffusivity 1 / (2 I0(2A)^2) of b = A sin x, sigma = 1."""
    return 1.0 / (2.0 * float(np.i0(2.0 * amplitude)) ** 2)


def cosine_gap_oracle(amplitude: float, n: int = 128) -> float:
    """-max Re(lambda) over the nonzero spectrum of the dense adjoint cell generator.

    For b = A sin x and sigma = 1, (L* f)_k = -(k A / 2)(f_{k-1} - f_{k+1}) - k^2 f_k / 2,
    built here independently of the package.
    """
    ks = np.arange(-n // 2, n // 2).astype(float)
    a = np.diag(-0.5 * ks**2)
    i = np.arange(1, n)
    a[i, i - 1] = -0.5 * amplitude * ks[i]
    a[i - 1, i] = 0.5 * amplitude * ks[i - 1]
    rates = -np.linalg.eigvals(a).real
    return float(rates[rates > 1e-6].min())


# -- checks --------------------------------------------------------------------------


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())


def _csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_converge(out: Path, ref: dict) -> None:
    rows = _report(out)["rows"]
    if [r["eps"] for r in rows] != ref["eps"]:
        raise OutputMismatch("RowsMismatch", f"eps rows {[r['eps'] for r in rows]}")
    for row, mean, se in zip(rows, ref["error_mean"], ref["error_se"]):
        err = row["error"]
        if not (math.isfinite(err) and err > 0.0):
            raise OutputMismatch("NonFinite", f"eps {row['eps']:g}: error {err!r}")
        if abs(err - mean) > CONVERGE_SE_BOUND * se:
            raise OutputMismatch(
                "ErrorOutsideReference",
                f"eps {row['eps']:g}: error {err:.5g}, reference {mean:.5g} "
                f"+- {CONVERGE_SE_BOUND:g} x {se:.3g}")


def check_variance(out: Path, ref: dict) -> None:
    for name, want in sorted(ref["tables"].items()):
        path = out / f"{name}.csv"
        if not path.exists():
            raise OutputMismatch("MissingOutput", f"{name}.csv not written")
        got = _csv(path)[:, 2]
        want = np.asarray(want)
        if got.shape != want.shape:
            raise OutputMismatch("VarianceMismatch", f"{name}: {got.size} values, "
                                 f"reference has {want.size}")
        dev = float(np.abs(got - want).max() / np.abs(want).max())
        if not dev <= VARIANCE_RTOL:
            raise OutputMismatch("VarianceMismatch",
                                 f"{name}: relative deviation {dev:.3g} > {VARIANCE_RTOL:g}")


def check_simulate(out: Path) -> None:
    report = _report(out)
    watch = report["provenance"]["config"]["solver"]["watch"]
    row = report["rows"][0]
    for p in range(row["paths"]):
        data = _csv(out / f"path_{p:03d}.csv")
        if data.shape[0] != (row["steps"] + 1) * len(watch):
            raise OutputMismatch("RowsMismatch", f"path {p}: {data.shape[0]} rows")
        if not np.isfinite(data).all():
            raise OutputMismatch("NonFinite", f"path {p}: non-finite trajectory value")
        m = data[:, 1].astype(int)
        z = {k: data[m == k, 2] + 1j * data[m == k, 3] for k in watch}
        scale = max(max(float(np.abs(v).max(initial=0.0)) for v in z.values()), 1e-300)
        for k in watch:
            if k > 0 and -k in z:
                defect = float(np.abs(z[-k] - np.conj(z[k])).max())
                if defect > SYMMETRY_RTOL * scale:
                    raise OutputMismatch("NotConjugate",
                                         f"path {p}: modes +-{k} defect {defect:.3g}")
        if 0 in z and float(np.abs(z[0].imag).max()) > SYMMETRY_RTOL * scale:
            raise OutputMismatch("Mode0NotReal", f"path {p}: mode 0 has an imaginary part")
        norm = _csv(out / f"norm_path_{p:03d}.csv")[:, 1]
        if not (np.isfinite(norm).all() and (norm >= 0.0).all()):
            raise OutputMismatch("NonFinite", f"path {p}: bad squared norm")


def _check_omega(omega: float, amplitude: float) -> None:
    oracle = cosine_gap_oracle(amplitude)
    rel = abs(omega - oracle) / oracle
    if not rel <= OMEGA_RTOL:
        raise OutputMismatch("OmegaDrift", f"A = {amplitude:g}: omega {omega:.6g}, "
                             f"eigenvalue oracle {oracle:.6g}, rel err {rel:.3%}")


def check_cell(out: Path, amplitude: float) -> None:
    row = _report(out)["rows"][0]
    mu_ref = cosine_mu(amplitude)
    if not abs(row["mu"] - mu_ref) <= MU_RTOL * mu_ref:
        raise OutputMismatch("MuMismatch", f"A = {amplitude:g}: mu {row['mu']:.10g}, "
                             f"closed form {mu_ref:.10g}")
    _check_omega(row["omega"], amplitude)


def check_semigroup(out: Path, amplitude: float) -> None:
    fit = _report(out)["fit"]
    if not math.isfinite(fit["exponent"]):
        raise OutputMismatch("NonFinite", f"A = {amplitude:g}: remainder exponent")
    _check_omega(fit["omega"], amplitude)
