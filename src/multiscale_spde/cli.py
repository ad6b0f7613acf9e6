"""Command line entry point.

Subcommands map one-to-one onto the studies: ``cell`` summarises the
unit-cell solution, ``noise-check`` runs the assumption validators,
``simulate`` dumps sample paths, ``converge`` runs the coupled
convergence study, ``variance`` the exact-variance comparison and
``semigroup`` the remainder-scaling study.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import _KINDS, emit_report, load_config, run_study


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiscale-spde",
        description="Numerical laboratory for periodic homogenisation of "
                    "stochastic heat equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _KINDS:
        p = sub.add_parser(name, help=f"run the {name} study")
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override study seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--paths", type=int, default=None,
                       help="override Monte Carlo path count")
        p.add_argument("--quiet", action="store_true", help="suppress stdout summary")
    return parser


def main(argv=None) -> int:
    """Run one study.  Exit status 0: every verdict passed; 1: a verdict failed;
    2: the config was refused, reported as one line on stderr.  A refusal is any
    ValueError: a config file that cannot be read, is not JSON or holds no JSON
    object (load_config), a section, key or value that parse_config refuses, and
    a check the study makes before its paths or covariances (an undriven
    mode_cutoff, a cell the closed-form solve does not admit, a centred noise that
    drives nothing, a semigroup mode that is not slow, a zero limit variance, a band
    too small for the cell)."""
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        study = config.setdefault("study", {})
        if isinstance(study, dict):  # run_study refuses any other
            study["kind"] = args.command
            for key in ("seed", "paths", "out"):
                if getattr(args, key) is not None:
                    study[key] = getattr(args, key)
        report = run_study(config)
    except ValueError as err:
        print(f"multiscale-spde: error: {err}", file=sys.stderr)
        return 2
    out_dir = study.get("out")
    if out_dir:
        files = emit_report(report, out_dir)
        if not args.quiet:
            for f in files:
                print(f"wrote {f}")
    if not args.quiet:
        for line in report.summary_lines():
            print(line)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
