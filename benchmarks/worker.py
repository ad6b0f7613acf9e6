"""Run one benchmark workload in a fresh process; print "ready", then a JSON result.

run.py starts this file once per workload run and once per set-up probe,
so that set-up time and peak memory belong to one workload. Usage:

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S
                                 [--trace] [--smoke] [--setup-only]

"ready <wall-clock time>" is printed once the package is imported and one small operation
of the workload has run (first SciPy/LAPACK use). With --setup-only the
process exits there. Otherwise repetitions of the workload run until S
seconds have passed; with --trace, untraced and traced repetitions
alternate, so that the tracing overhead is measured under the same load.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import workloads
from tracing import EXACT_COUNTS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package():
    """Import the package from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import multiscale_spde
    from multiscale_spde import cli, experiments  # noqa: F401  (cli: part of set-up)

    if not Path(multiscale_spde.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"multiscale_spde imported from {multiscale_spde.__file__}")
    return experiments


def environment(blas_threads: str) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_name, "blas_threads": blas_threads,
            "nproc": os.cpu_count(), "cpu": cpu}


def run_operation(experiments, op, tmp_root: Path, tracer=None):
    """Time one operation; return (seconds, None or (error class, detail))."""
    config = copy.deepcopy(op.config)
    with tempfile.TemporaryDirectory(dir=tmp_root) as out:
        error = None
        span = tracer.span("bench.operation") if tracer else nullcontext()
        start = time.perf_counter()
        try:
            with span:
                report = experiments.run_study(config)
                experiments.emit_report(report, out)
        except Exception as exc:  # every exception is a counted failure
            error = (type(exc).__name__, str(exc))
        elapsed = time.perf_counter() - start
        if error is None:
            try:
                op.check(Path(out))
            except workloads.OutputMismatch as exc:
                error = (exc.error_class, str(exc))
    return elapsed, error


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    experiments = import_package()
    reference = workloads.load_reference()
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    # the same small operation for every seed, so set-up time does not depend on it
    warm = workloads.operations(args.workload, 0, smoke=True, reference=reference)[0]
    run_operation(experiments, warm, tmp_root)
    print(f"ready {time.time()!r}", flush=True)  # wall clock: run.py compares it with the spawn
    if args.setup_only:
        return 0

    ops = workloads.operations(args.workload, args.seed, smoke=args.smoke,
                               reference=reference)
    tracer = Tracer() if args.trace else None
    plain, traced, roots, failures = [], [], [], {}
    attempted = 0
    deadline = time.perf_counter() + args.seconds
    while (time.perf_counter() < deadline or not plain
           or (tracer is not None and not traced)):
        use_trace = tracer is not None and len(traced) < len(plain)
        total = 0.0
        with tracer.repetition() if use_trace else nullcontext() as root:
            for op in ops:
                elapsed, error = run_operation(experiments, op, tmp_root,
                                               tracer if use_trace else None)
                total += elapsed
                attempted += 1
                if error is not None:
                    entry = failures.setdefault((op.label, error[0]), {
                        "op": op.label, "class": error[0], "detail": error[1], "count": 0})
                    entry["count"] += 1
        if use_trace:
            traced.append(total)
            roots.append(root)
        else:
            plain.append(total)

    result = {
        "repetitions_s": plain,
        "attempted": attempted,
        "failures": sorted(failures.values(), key=lambda f: (f["op"], f["class"])),
        "known_failures": sorted(workloads.known_failures(args.workload, args.smoke,
                                                          reference)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # KiB on Linux
        "env": environment(os.environ.get("OPENBLAS_NUM_THREADS", "unset")),
    }
    if tracer is not None:
        per_rep = [tracer.layer_metrics(r, workloads.cosine_gap_oracle) for r in roots]
        layers = {name: float(statistics.median(rep[name] for rep in per_rep))
                  for name in per_rep[0]}
        mismatch = [name for name in EXACT_COUNTS
                    if len({rep[name] for rep in per_rep}) > 1]
        base = statistics.median(plain)
        layers["trace.overhead_frac"] = (statistics.median(traced) - base) / base
        result.update(traced_repetitions_s=traced, layers=layers,
                      absent=tracer.absent(), count_mismatch=mismatch)
    try:
        tmp_root.rmdir()
    except OSError:  # another run still uses it
        pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
