"""Record the reference values the benchmark checks outputs against.

    python3 benchmarks/make_reference.py

Run it only at a commit whose study output is trusted; it rewrites
reference.json.

- converge-mc: the mean sup error per eps over REFERENCE_RUNS runs with seeds
  the benchmark does not use, and the standard error of one run's mean
  (their spread, widened by the reference mean's own uncertainty).
- variance-exact: the emitted covariance tables.
- cell-sweep: the amplitudes, and the (operation, error class) pairs that
  fail at this commit; the benchmark counts them as failures and reports
  them as known.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from pathlib import Path

import worker
import workloads

REFERENCE_RUNS = 48
REFERENCE_SEED0 = 10_000_000
AMPLITUDES = {"full": [0.25 * i for i in range(1, 13)], "smoke": [1.0, 3.0]}


def converge_reference(experiments, smoke: bool) -> dict:
    errors = []
    for i in range(REFERENCE_RUNS):
        report = experiments.run_study(workloads.converge_config(REFERENCE_SEED0 + i, smoke))
        errors.append([row["error"] for row in report.rows])
    per_eps = list(zip(*errors))
    widen = math.sqrt(1.0 + 1.0 / REFERENCE_RUNS)
    config = workloads.converge_config(0, smoke)
    return {"eps": config["solver"]["eps"], "paths": config["study"]["paths"],
            "runs": REFERENCE_RUNS,
            "error_mean": [statistics.fmean(v) for v in per_eps],
            "error_se": [statistics.stdev(v) * widen for v in per_eps]}


def variance_reference(experiments, smoke: bool) -> dict:
    report = experiments.run_study(workloads.variance_config(0, smoke))
    return {"tables": {name: [row[2] for row in rows]
                       for name, (_, rows) in sorted(report.tables.items())}}


def cell_reference(experiments, smoke: bool, root: Path) -> dict:
    size = "smoke" if smoke else "full"
    ref = {"amplitudes": AMPLITUDES[size]}
    ops = workloads.operations("cell-sweep", 0, smoke, {"cell-sweep": {size: ref}})
    failures = []
    for op in sorted(ops, key=lambda o: o.label):
        _, error = worker.run_operation(experiments, op, root)
        if error is not None:
            failures.append([op.label, error[0]])
    return {**ref, "known_failures": failures}


def main() -> None:
    experiments = worker.import_package()
    root = worker.ROOT / ".bench_tmp"
    root.mkdir(exist_ok=True)
    reference = {name: {} for name in workloads.WORKLOADS}
    for size, smoke in (("smoke", True), ("full", False)):
        reference["converge-mc"][size] = converge_reference(experiments, smoke)
        reference["variance-exact"][size] = variance_reference(experiments, smoke)
        reference["simulate-path"][size] = {}
        reference["cell-sweep"][size] = cell_reference(experiments, smoke, root)
    reference["recorded_with"] = worker.environment(os.environ.get("OPENBLAS_NUM_THREADS", "unset"))
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    root.rmdir()


if __name__ == "__main__":
    main()
