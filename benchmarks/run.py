"""Benchmark of the multiscale-spde studies, end to end and per layer.

    python3 benchmarks/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--smoke]

Each workload runs in its own fresh worker process (worker.py) with the
BLAS thread count fixed through the environment. With --trace 0 the last
line of standard output is a JSON object whose metrics are the end-to-end
ones:

    wall_s       median wall time of one repetition of the workload's operations
    setup_s      median time for a fresh process to import the package and run
                 one small operation (first SciPy/LAPACK use), over several processes
    peak_rss_mb  peak resident memory of the workload's process
    ok_frac      operations that neither raised nor failed their output check,
                 over operations attempted (1 - failed_frac)

With --trace 1 the metrics are the per-layer ones from tracing.py plus
trace.overhead_frac. --workload all runs every workload and prints one
table. --smoke runs every workload at a tiny size (for the benchmark's own
tests). The lines before the last give the sample counts, each failure
with its error class, and the environment fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("converge-mc", "variance-exact", "simulate-path", "cell-sweep")
SETUP_PROBES = 3      # fresh processes that only set up; the worker is one more
BLAS_THREADS = 2      # capped by the processors this process may use
RUN_BUDGET_S = 170.0  # one workload run, set-up probes included

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}


class BenchError(RuntimeError):
    pass


def child_env() -> tuple[dict, int]:
    threads = max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env, threads


def start_worker(args: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Run worker.py to completion; return (seconds from spawn to ready, stdout)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    spawned = time.time()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker {' '.join(args)} ran past the time budget")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    ready = [line for line in out.splitlines() if line.startswith("ready ")]
    if not ready:
        raise BenchError(f"worker {' '.join(args)} never became ready")
    return float(ready[0].split()[1]) - spawned, out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    env, _ = child_env()
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:  # set-up time is an end-to-end metric only
        for _ in range(SETUP_PROBES):
            setups.append(start_worker([*base, "--seconds", "0", "--setup-only"],
                                       env, deadline)[0])
    flags = ["--trace"] * trace + ["--smoke"] * smoke
    setup, out = start_worker([*base, "--seconds", str(seconds), *flags], env, deadline)
    setups.append(setup)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_samples_s"] = setups
    return result


def summarize(workload: str, result: dict, trace: bool) -> dict:
    """The contract line for one workload, and the human-readable lines before it."""
    attempted = result["attempted"]
    failed = sum(f["count"] for f in result["failures"])
    known = {tuple(pair) for pair in result["known_failures"]}
    unexpected = [f for f in result["failures"] if (f["op"], f["class"]) not in known]
    reps = result["repetitions_s"]
    lines = [f"== {workload}"]
    if trace:
        metrics = {name: {"value": value, "unit": METRICS.get(name, ("ratio",))[0]}
                   for name, value in result["layers"].items()}
        for name, m in metrics.items():
            mark = "  (absent)" if name in result["absent"] else ""
            lines.append(f"  {name:28s} {m['value']:<14.6g} {m['unit']}{mark}")
        lines.append(f"  repetitions: {len(reps)} untraced, "
                     f"{len(result['traced_repetitions_s'])} traced")
    else:
        values = {"wall_s": statistics.median(reps),
                  "setup_s": statistics.median(result["setup_samples_s"]),
                  "peak_rss_mb": result["peak_rss_mb"],
                  "ok_frac": 1.0 - failed / attempted}
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}
        lines.append(f"  wall_s       {values['wall_s']:.4f} s   median of {len(reps)} "
                     f"repetitions (min {min(reps):.4f}, max {max(reps):.4f})")
        lines.append(f"  setup_s      {values['setup_s']:.4f} s   median of "
                     f"{len(result['setup_samples_s'])} fresh processes")
        lines.append(f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
        lines.append(f"  failed_frac  {failed}/{attempted} = {failed / attempted:.4f} "
                     f"(ok_frac {values['ok_frac']:.4f})")
    for f in result["failures"]:
        tag = "known" if (f["op"], f["class"]) in known else "UNEXPECTED"
        lines.append(f"  failure [{tag}] {f['op']}: {f['class']} x{f['count']}: {f['detail']}")
    mismatch = result.get("count_mismatch", [])
    if mismatch:
        lines.append(f"  counts that differ between repetitions: {', '.join(mismatch)}")
    env = result["env"]
    lines.append("  env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    line = {"correct": not unexpected and not mismatch, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    return {"lines": lines, "line": line}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "multiscale_spde" / "__init__.py", HERE / "reference.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"benchmark: not a multiscale-spde checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    _, threads = child_env()
    print(f"seed {args.seed}, {args.seconds:g} s per workload, BLAS threads {threads}, "
          f"trace {args.trace}{', smoke' if args.smoke else ''}", flush=True)
    summaries = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  args.smoke)
        except BenchError as exc:
            print(f"benchmark: {name}: {exc}", file=sys.stderr)
            return 1
        summaries[name] = summarize(name, result, bool(args.trace))
        print("\n".join(summaries[name]["lines"]), flush=True)
    if len(names) == 1:
        print(json.dumps(summaries[names[0]]["line"]))
    else:
        print(json.dumps({name: s["line"] for name, s in summaries.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
