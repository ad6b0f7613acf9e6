"""Tests of the benchmark itself, on the tiny smoke size of every workload.

    PYTHONPATH=src python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import OutputMismatch  # noqa: E402

experiments = worker.import_package()


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke(workload: str, seed: int, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]) | {"stdout": proc.stdout}


def emitted(tmp_path: Path, config: dict) -> Path:
    experiments.emit_report(experiments.run_study(config), tmp_path)
    return tmp_path


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_the_end_to_end_line(workload):
    line = smoke(workload, seed=3, trace=0)
    assert set(line) == {"correct", "attempted", "failed", "metrics", "stdout"}
    assert set(line["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb", "ok_frac"}
    assert line["correct"] is True
    assert line["attempted"] >= 1
    assert all(m["value"] > 0 for m in line["metrics"].values())
    if workload == "cell-sweep":
        # A = 3 raises FitFailed today, in the cell study and in the semigroup
        # study: both are counted as failures, and reported as known ones.
        assert line["failed"] == line["attempted"] // 2
        assert "failure [known] cell A=3: FitFailed" in line["stdout"]
        assert "failure [known] semigroup A=3: FitFailed" in line["stdout"]
    else:
        assert line["failed"] == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = smoke(workload, 5, trace=1), smoke(workload, 6, trace=1)
    names = set(tracing.METRICS) | {"trace.overhead_frac"}
    assert set(first["metrics"]) == names == set(second["metrics"])
    for name in tracing.EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    if workload == "cell-sweep":
        assert first["metrics"]["cell.gap_failed"]["value"] == 2
        assert first["metrics"]["cell.solves"]["value"] == 4


def test_unexpected_failure_makes_the_run_incorrect():
    result = {"attempted": 4, "repetitions_s": [1.0], "setup_samples_s": [0.5],
              "peak_rss_mb": 100.0, "env": {}, "known_failures": [["cell A=3", "FitFailed"]],
              "failures": [{"op": "cell A=3", "class": "FitFailed", "detail": "", "count": 1}]}
    known_only = run.summarize("cell-sweep", result, trace=False)["line"]
    assert known_only["correct"] is True and known_only["failed"] == 1
    assert known_only["metrics"]["ok_frac"]["value"] == 0.75
    result["failures"].append({"op": "cell A=1", "class": "OmegaDrift", "detail": "",
                               "count": 1})
    assert run.summarize("cell-sweep", result, trace=False)["line"]["correct"] is False


def test_cell_checks_catch_wrong_mu_and_omega(tmp_path):
    out = emitted(tmp_path, workloads.cell_config("cell", 1.0, 0))
    workloads.check_cell(out, 1.0)
    with pytest.raises(OutputMismatch) as exc:
        workloads.check_cell(out, 1.01)  # mu and omega of another amplitude
    assert exc.value.error_class == "MuMismatch"
    report = json.loads((out / "report.json").read_text())
    report["rows"][0]["omega"] *= 1.03
    (out / "report.json").write_text(json.dumps(report))
    with pytest.raises(OutputMismatch) as exc:
        workloads.check_cell(out, 1.0)
    assert exc.value.error_class == "OmegaDrift"


def test_gap_oracle_matches_the_package_generator():
    from multiscale_spde.cell import Coefficients, generator_matrix

    for amplitude in (0.5, 2.5):
        ks = np.arange(-64, 64)
        ev = np.linalg.eigvals(generator_matrix(Coefficients.cosine_potential(amplitude),
                                                ks, adjoint=True))
        rates = -ev.real
        want = rates[rates > 1e-6].min()
        assert abs(workloads.cosine_gap_oracle(amplitude) - want) <= 1e-10 * want


def test_variance_check_catches_a_changed_table(tmp_path):
    ref = workloads.load_reference()["variance-exact"]["smoke"]
    out = emitted(tmp_path, workloads.variance_config(0, smoke=True))
    workloads.check_variance(out, ref)
    name = sorted(ref["tables"])[0]
    text = (out / f"{name}.csv").read_text().splitlines()
    t, m, v = text[-1].split(",")
    text[-1] = f"{t},{m},{float(v) * (1 + 1e-6)!r}"
    (out / f"{name}.csv").write_text("\n".join(text) + "\n")
    with pytest.raises(OutputMismatch) as exc:
        workloads.check_variance(out, ref)
    assert exc.value.error_class == "VarianceMismatch"


def test_converge_check_is_statistical(tmp_path):
    ref = workloads.load_reference()["converge-mc"]["smoke"]
    out = emitted(tmp_path, workloads.converge_config(11, smoke=True))
    workloads.check_converge(out, ref)
    far = dict(ref, error_mean=[e * 3.0 for e in ref["error_mean"]])
    with pytest.raises(OutputMismatch) as exc:
        workloads.check_converge(out, far)
    assert exc.value.error_class == "ErrorOutsideReference"


def test_simulate_check_catches_broken_symmetry(tmp_path):
    out = emitted(tmp_path, workloads.simulate_config(0, smoke=True))
    workloads.check_simulate(out)
    path = out / "path_000.csv"
    lines = path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines[1:], 1)
               if line.split(",")[1] == "1" and float(line.split(",")[3]) != 0.0)
    t, m, re, im = lines[row].split(",")
    lines[row] = f"{t},{m},{re},{-float(im)!r}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(OutputMismatch) as exc:
        workloads.check_simulate(out)
    assert exc.value.error_class == "NotConjugate"


def test_removed_name_is_reported_absent(tmp_path, monkeypatch):
    from multiscale_spde import cell

    monkeypatch.setattr(cell, "__all__", [n for n in cell.__all__ if n != "spectral_gap"])
    tracer = tracing.Tracer()
    op = workloads.operations("cell-sweep", 0, smoke=True)[0]
    with tracer.repetition() as root:
        worker.run_operation(experiments, op, tmp_path, tracer)
    assert cell.solve_cell.__name__ == "solve_cell" and not hasattr(cell.solve_cell,
                                                                    "__wrapped__")
    metrics = tracer.layer_metrics(root, workloads.cosine_gap_oracle)
    assert {"cell.gap_s", "cell.gap_failed", "cell.omega_rel_err_max"} <= set(tracer.absent())
    assert "cell.solve_s" not in tracer.absent()
    assert metrics["cell.solves"] == 1 and metrics["cell.gap_s"] == 0.0


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "cell-sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
