"""Tracing shim: spans around the public functions of each package module.

The benchmark measures the layers from outside the program.
``Tracer.install`` replaces every public function of each
``multiscale_spde`` module (its ``__all__``, plus the few names listed in
EXTRA_NAMES) with a wrapper that records a span, in every module namespace
that binds it: ``experiments`` imports ``solve_cell``, ``build_blocks`` and
others by name, so wrapping only the defining module would miss those
calls. The ``scipy.linalg`` functions the solver calls are wrapped in the
solver's namespace only.

A span is ``[label, parent, start, end, error class, info]``; ``info``
holds counts taken only from the call's arguments and return value.
Spans stay in memory until the run ends; ``layer_metrics`` turns the spans
under one repetition into per-layer metrics. A name that a later version
of the package no longer has is simply not wrapped, and the metrics that
need it are reported as absent.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from contextlib import contextmanager
from pathlib import Path

import scipy.linalg

PACKAGE = "multiscale_spde"
LABEL, PARENT, START, END, ERROR, INFO = range(6)

# Public functions that the modules leave out of __all__.
EXTRA_NAMES = {"solver": ("sample_final_modes",)}
METHODS = (("noise", "WienerStream", "increments"),)
LINALG = ("expm", "solve")  # scipy.linalg calls made by the solver


def _sizes(args, result):
    return {"sizes": {int(res): int(blk.ks.size) for res, blk in result.blocks.items()}}


def _covariance(args, result):
    modes = args["modes"]
    return {"cells": int(round(1.0 / args["config"].eps)),
            "modes": None if modes is None else [int(m) for m in modes]}


PROBES = {
    "noise.WienerStream.increments":
        lambda a, r: {"normals": int(a["n_steps"]) * (2 * int(a["k_cut"]) + 1)},
    "solver.build_blocks": _sizes,
    "solver.exact_mode_covariance": _covariance,
    "solver.simulate_path": lambda a, r: {"steps": int(a["config"].n_steps)},
    "solver.simulate_coupled": lambda a, r: {"steps": int(a["config"].n_steps)},
    "solver.sample_final_modes":
        lambda a, r: {"steps": int(a["n_paths"]) * int(a["config"].n_steps)},
    # b = A sin x is stored as {1: -A/2 i, -1: A/2 i}
    "cell.spectral_gap": lambda a, r: {"amplitude": -2.0 * a["c"].b.coeff(1).imag,
                                       "rate": float(r.rate)},
    "experiments.emit_report":
        lambda a, r: {"bytes": sum(Path(p).stat().st_size for p in r)},
}

# metric -> the span labels it needs; absent when none of them was wrapped
METRICS = {
    "experiments.study_s": ("s", ("experiments.run_study",)),
    "experiments.self_s": ("s", ("experiments.run_study",)),
    "experiments.emit_s": ("s", ("experiments.emit_report",)),
    "experiments.emit_bytes": ("bytes", ("experiments.emit_report",)),
    "noise.increments_s": ("s", ("noise.WienerStream.increments",)),
    "noise.normals_drawn": ("count", ("noise.WienerStream.increments",)),
    "noise.normals_per_s": ("1/s", ("noise.WienerStream.increments",)),
    "solver.build_blocks_s": ("s", ("solver.build_blocks",)),
    "solver.blocks": ("count", ("solver.build_blocks",)),
    "solver.block_dim_max": ("count", ("solver.build_blocks",)),
    "solver.propagator_s": ("s", ("solver.linalg.expm", "solver.linalg.solve")),
    "solver.propagators": ("count", ("solver.linalg.expm", "solver.linalg.solve")),
    "solver.covariance_s": ("s", ("solver.exact_mode_covariance",)),
    "solver.cov_bytes_computed": ("bytes", ("solver.exact_mode_covariance",)),
    "solver.path_s": ("s", ("solver.simulate_path", "solver.simulate_coupled",
                            "solver.sample_final_modes")),
    "solver.path_steps": ("count", ("solver.simulate_path", "solver.simulate_coupled",
                                    "solver.sample_final_modes")),
    "cell.solve_s": ("s", ("cell.solve_cell",)),
    "cell.solves": ("count", ("cell.solve_cell",)),
    "cell.gap_s": ("s", ("cell.spectral_gap",)),
    "cell.gap_failed": ("count", ("cell.spectral_gap",)),
    "cell.omega_rel_err_max": ("ratio", ("cell.spectral_gap",)),
    "limit.model_s": ("s", ("limit.*",)),
    "fourier.multiply_calls": ("count", ("fourier.multiply",)),
}

# Metrics read from the arguments and return values, not from spans alone.
FROM_PROBES = ("experiments.emit_bytes", "noise.normals_drawn", "noise.normals_per_s",
               "solver.blocks", "solver.block_dim_max", "solver.cov_bytes_computed",
               "solver.path_steps", "cell.omega_rel_err_max")

# Counts that must repeat exactly between repetitions and between runs.
EXACT_COUNTS = ("noise.normals_drawn", "solver.blocks", "solver.block_dim_max",
                "solver.propagators", "solver.cov_bytes_computed", "solver.path_steps",
                "cell.solves", "cell.gap_failed", "fourier.multiply_calls")


def _matches(label: str, wanted) -> bool:
    """label is one of wanted, where "module.*" stands for every label of the module."""
    return any(label == w or (w.endswith(".*") and label.startswith(w[:-1])) for w in wanted)


class _LinalgProxy(types.ModuleType):
    """scipy.linalg as the solver sees it, with some functions wrapped."""

    def __init__(self, real, overrides: dict):
        super().__init__(real.__name__)
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Records spans around the package's public functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.wrapped: set[str] = set()       # labels installed at least once
        self.probe_failed: set[str] = set()  # labels whose counts could not be read
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, label: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([label, parent, 0.0, 0.0, None, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.spans[idx][START] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, label: str):
        idx = self._open(label)
        try:
            yield idx
        finally:
            self._close(idx)

    @contextmanager
    def repetition(self):
        """Trace one repetition: install the wrappers, open its root span."""
        self.install()
        try:
            with self.span("bench.repetition") as root:
                yield root
        finally:
            self.uninstall()

    def _wrap(self, label: str, fn):
        probe = PROBES.get(label)
        sig = inspect.signature(fn) if probe else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(label)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.spans[idx][ERROR] = type(exc).__name__
                raise
            finally:
                tracer._close(idx)
            if probe is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    tracer.spans[idx][INFO] = probe(bound.arguments, result)
                except (AttributeError, KeyError, TypeError, ValueError, OSError):
                    tracer.probe_failed.add(label)
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def _set(self, owner, name: str, value, *labels: str) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)
        self.wrapped.update(labels)

    def install(self) -> None:
        """Wrap the package's public functions in every namespace that binds them."""
        modules = {name[len(PACKAGE) + 1:]: mod for name, mod in list(sys.modules.items())
                   if name.startswith(PACKAGE + ".") and mod is not None}
        wrappers = {}  # id(original) -> (original, wrapper, label)
        for short, mod in modules.items():
            for name in (*getattr(mod, "__all__", ()), *EXTRA_NAMES.get(short, ())):
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    label = f"{short}.{name}"
                    wrappers[id(fn)] = (fn, self._wrap(label, fn), label)
        namespaces = [*modules.values(), sys.modules.get(PACKAGE)]
        for mod in namespaces:
            if mod is None:
                continue
            for name, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, name, hit[1], hit[2])
        for short, cls_name, meth in METHODS:
            cls = getattr(modules.get(short), cls_name, None)
            fn = vars(cls).get(meth) if isinstance(cls, type) else None
            if inspect.isfunction(fn):
                label = f"{short}.{cls_name}.{meth}"
                self._set(cls, meth, self._wrap(label, fn), label)
        self._install_linalg(modules.get("solver"))

    def _install_linalg(self, solver) -> None:
        if solver is None:
            return
        real = {name: getattr(scipy.linalg, name) for name in LINALG}
        labels = {name: f"solver.linalg.{name}" for name in LINALG}
        wrapped = {name: self._wrap(labels[name], fn) for name, fn in real.items()}
        for attr, value in list(vars(solver).items()):
            if value is scipy.linalg:
                self._set(solver, attr, _LinalgProxy(scipy.linalg, wrapped), *labels.values())
            for name, fn in real.items():
                if value is fn:
                    self._set(solver, attr, wrapped[name], labels[name])

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- metrics ---------------------------------------------------------------

    def absent(self) -> list[str]:
        """Metrics whose spans were never wrapped, or whose counts could not be read."""
        out = []
        for metric, (_, labels) in METRICS.items():
            found = [lab for lab in self.wrapped if _matches(lab, labels)]
            unread = metric in FROM_PROBES and all(lab in self.probe_failed for lab in found)
            if not found or unread:
                out.append(metric)
        return out

    def layer_metrics(self, root: int, gap_oracle) -> dict:
        """Per-layer metrics of the spans under the repetition span ``root``."""
        spans = self.spans
        children: dict[int, list[int]] = {}
        below = [root]
        for i in range(root + 1, len(spans)):
            parent = spans[i][PARENT]
            if parent in children or parent == root:
                children.setdefault(parent, []).append(i)
                children.setdefault(i, [])
                below.append(i)
        children.setdefault(root, [])

        def dur(i):
            return spans[i][END] - spans[i][START]

        def outermost(labels, i=root):
            """Indices of the spans matching labels that no matching span encloses."""
            if i != root and _matches(spans[i][LABEL], labels):
                return [i]
            return [j for c in children[i] for j in outermost(labels, c)]

        def inclusive(*labels):
            return sum(dur(i) for i in outermost(labels))

        def every(*labels):
            return [i for i in below if i != root and _matches(spans[i][LABEL], labels)]

        def info_sum(key, *labels):
            return sum(spans[i][INFO][key] for i in every(*labels) if spans[i][INFO])

        def experiments_self(i):
            if not spans[i][LABEL].startswith("experiments."):
                return 0.0
            own = dur(i) - sum(dur(c) for c in children[i])
            return own + sum(experiments_self(c) for c in children[i])

        m = {}
        m["experiments.study_s"] = inclusive("experiments.run_study")
        m["experiments.self_s"] = sum(experiments_self(i)
                                      for i in outermost(("experiments.run_study",)))
        m["experiments.emit_s"] = inclusive("experiments.emit_report")
        m["experiments.emit_bytes"] = info_sum("bytes", "experiments.emit_report")

        m["noise.increments_s"] = inclusive("noise.WienerStream.increments")
        m["noise.normals_drawn"] = info_sum("normals", "noise.WienerStream.increments")
        m["noise.normals_per_s"] = (m["noise.normals_drawn"] / m["noise.increments_s"]
                                    if m["noise.increments_s"] > 0 else 0.0)

        blocks = every("solver.build_blocks")
        sizes = [spans[i][INFO]["sizes"] for i in blocks if spans[i][INFO]]
        m["solver.build_blocks_s"] = inclusive("solver.build_blocks")
        m["solver.blocks"] = sum(len(s) for s in sizes)
        m["solver.block_dim_max"] = max((n for s in sizes for n in s.values()), default=0)
        m["solver.propagator_s"] = inclusive("solver.linalg.*")
        m["solver.propagators"] = len(every("solver.linalg.*"))
        m["solver.covariance_s"] = inclusive("solver.exact_mode_covariance")
        cov_bytes = 0
        for i in every("solver.exact_mode_covariance"):
            info = spans[i][INFO]
            built = [spans[c][INFO] for c in children[i]
                     if spans[c][LABEL] == "solver.build_blocks" and spans[c][INFO]]
            if not info or not built:
                continue
            block_sizes = built[0]["sizes"]
            classes = (set(block_sizes) if info["modes"] is None
                       else {m_ % info["cells"] for m_ in info["modes"]})
            cov_bytes += sum(16 * block_sizes[r] ** 4 for r in classes)
        m["solver.cov_bytes_computed"] = cov_bytes
        path_labels = ("solver.simulate_path", "solver.simulate_coupled",
                       "solver.sample_final_modes")
        m["solver.path_s"] = inclusive(*path_labels)
        m["solver.path_steps"] = info_sum("steps", *path_labels)

        m["cell.solve_s"] = inclusive("cell.solve_cell")
        m["cell.solves"] = len(every("cell.solve_cell"))
        gaps = every("cell.spectral_gap")
        m["cell.gap_s"] = inclusive("cell.spectral_gap")
        m["cell.gap_failed"] = sum(spans[i][ERROR] == "FitFailed" for i in gaps)
        errs = []
        for i in gaps:
            info = spans[i][INFO]
            if info:
                oracle = gap_oracle(info["amplitude"])
                errs.append(abs(info["rate"] - oracle) / oracle)
        m["cell.omega_rel_err_max"] = max(errs, default=0.0)

        m["limit.model_s"] = inclusive("limit.*")
        m["fourier.multiply_calls"] = len(every("fourier.multiply"))
        return m
