"""Noise families q_k, their assumption validators and Wiener sampling.

The driving signal is sum_k q_k(x/eps) e_k(x) dW_k(t) with real periodic
profiles q_k = q_{-k}.  Wiener modes are normalised so E|W_k(t)|^2 = t,
which makes q_k = 1 reproduce cylindrical space-time white noise under
the 1/(2*pi)-normalised inner product.  The limit coefficients built
from these profiles live in ``limit``.

Per-mode increments come from counter-based Philox streams keyed by
(seed, path index), so parallel path generation is reproducible no
matter how paths are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .errors import TruncationTooSmall
from .fourier import (SpectralField, cells, conjugation_defect, inner_product, l2_norm,
                      require_resolved, sobolev_norm)

__all__ = [
    "NoiseSpec",
    "WienerStream",
    "CouplingSeries",
    "CheckReport",
    "tent_mollifier",
    "bump_mollifier",
    "check_decay",
    "check_tail_convergence",
    "check_tail_summability",
    "coupling_series",
]

MAX_PROFILE_HARMONIC = 16  # keeps oscillate() exact for every profile
SUMMABILITY_INCREMENT_TOL = 0.1  # last dyadic increment of the summability partial sums
COUPLING_TAIL_TOL = 0.01  # dyadic tail of the coupling series, relative to Lambda


def _check_profile(f: SpectralField, name: str) -> SpectralField:
    f = f.compress(0.0) if f.n > 2 * (MAX_PROFILE_HARMONIC + 1) else f
    if f.max_harmonic() > MAX_PROFILE_HARMONIC:
        raise ValueError(f"{name} profile exceeds {MAX_PROFILE_HARMONIC} harmonics")
    if conjugation_defect(f) > 1e-12 * max(1.0, l2_norm(f)):
        raise ValueError(f"{name} profile must be real-valued")
    return f


class NoiseSpec:
    """A rule giving the real periodic profile q_k for each |k| <= cutoff.

    Every family but ``custom`` (an explicit table by |k|) follows one
    formula, q_k = (1 v |k|)^-alpha (tail + (1 v |k|)^-tail_rate ripple),
    with the ripple term absent when ``ripple`` is None:
      white   tail = 1, alpha = 0        (no decay)
      power   tail = p, no ripple        (algebraic decay)
      tail    alpha = 0                  (q_k -> tail at the rate)

    ``tail`` is the common large-k profile: the limit of |k|^alpha q_k
    for the power family, of q_k itself for the others.  ``eta`` weights
    the summability check of |q_k - tail|_{H1}.  ``mollifier`` is an
    optional smooth symbol phi with phi(0) = 1 used by the smoothed
    limit coefficient.
    """

    def __init__(self, family: str, cutoff: int, *, alpha: float = 0.0,
                 tail: SpectralField | None = None,
                 tail_rate: float = 1.0,
                 ripple: SpectralField | None = None,
                 table: dict | None = None,
                 eta: float = 0.0, mollifier=None, label: str = ""):
        if family not in ("white", "power", "tail", "custom"):
            raise ValueError(f"unknown noise family {family!r}")
        if cutoff < 1:
            raise ValueError("cutoff must be at least 1")
        self.family = family
        self.cutoff = int(cutoff)
        self.alpha = float(alpha)
        self.tail = tail
        self.tail_rate = float(tail_rate)
        self.ripple = ripple
        self.table = table
        self.eta = float(eta)
        self.mollifier = mollifier
        self.label = label or family

    # -- constructors ------------------------------------------------------

    @classmethod
    def white(cls, cutoff: int, mollifier=None) -> "NoiseSpec":
        one = SpectralField.constant(1.0)
        return cls("white", cutoff, alpha=0.0, tail=one, mollifier=mollifier,
                   label="white")

    @classmethod
    def power_decay(cls, alpha: float, cutoff: int,
                    profile: SpectralField | None = None, eta: float = 0.0,
                    mollifier=None) -> "NoiseSpec":
        if not 0.0 < alpha < 1.0:
            raise ValueError("decay exponent must lie in (0, 1)")
        p = _check_profile(profile or SpectralField.constant(1.0), "power")
        return cls("power", cutoff, alpha=alpha, tail=p, eta=eta,
                   mollifier=mollifier, label=f"power(alpha={alpha:g})")

    @classmethod
    def tail_convergent(cls, tail: SpectralField, rate: float, cutoff: int,
                        ripple: SpectralField | None = None, eta: float = 0.0,
                        mollifier=None) -> "NoiseSpec":
        tail = _check_profile(tail, "tail")
        ripple = _check_profile(ripple or SpectralField.constant(1.0), "ripple")
        return cls("tail", cutoff, alpha=0.0, tail=tail, tail_rate=rate,
                   ripple=ripple, eta=eta, mollifier=mollifier,
                   label=f"tail(rate={rate:g})")

    @classmethod
    def custom(cls, table: dict, cutoff: int, *, alpha: float = 0.0,
               tail: SpectralField | None = None, eta: float = 0.0,
               mollifier=None) -> "NoiseSpec":
        table = {abs(int(k)): _check_profile(f, f"q_{k}") for k, f in table.items()}
        return cls("custom", cutoff, alpha=alpha, table=table, tail=tail, eta=eta,
                   mollifier=mollifier, label="custom")

    # -- the profile rule ---------------------------------------------------

    def profile(self, k: int) -> SpectralField:
        """q_k; symmetric in k by construction (q_{-k} = q_k)."""
        k = abs(int(k))
        if self.family == "custom":
            return self.table.get(k, SpectralField.zero(2))
        q = self.tail
        if self.ripple is not None:
            q = q + max(1, k) ** (-self.tail_rate) * self.ripple
        return max(1, k) ** (-self.alpha) * q

    def centered(self, rho: SpectralField) -> "NoiseSpec":
        """Same family with every profile centred against rho: <q_k, rho> = 0."""
        if self.family == "white":
            raise ValueError("the white family centres to zero; nothing left to drive")

        def center(f: SpectralField | None) -> SpectralField | None:
            if f is None:
                return None
            return f - SpectralField.constant(inner_product(f, rho).real, 2)

        tail = center(self.tail)
        if self.family == "power" and l2_norm(tail) < 1e-14:
            raise ValueError("centred profile vanishes; nothing left to drive")
        table = None if self.table is None else {k: center(f) for k, f in self.table.items()}
        return NoiseSpec(self.family, self.cutoff, alpha=self.alpha, tail=tail,
                         tail_rate=self.tail_rate, ripple=center(self.ripple), table=table,
                         eta=self.eta, mollifier=self.mollifier,
                         label=self.label + "+centred")

    def __repr__(self) -> str:
        return f"NoiseSpec({self.label}, cutoff={self.cutoff})"


# -- mollifier symbols -------------------------------------------------------


def tent_mollifier(radius: float = 2.0):
    """Piecewise-linear symbol with phi(0) = 1, support [-radius, radius]."""
    def phi(xi: float) -> float:
        return max(0.0, 1.0 - abs(xi) / radius)
    return phi


def bump_mollifier(radius: float = 2.0):
    """Smooth compactly supported symbol exp(1 - 1/(1 - (xi/r)^2))."""
    def phi(xi: float) -> float:
        u = xi / radius
        if abs(u) >= 1.0:
            return 0.0
        return float(np.exp(1.0 - 1.0 / (1.0 - u * u)))
    return phi


# -- assumption validators ----------------------------------------------------


@dataclass
class CheckItem:
    name: str
    passed: bool
    value: float
    threshold: float | None = None
    note: str = ""


@dataclass
class CheckReport:
    """What a validator measured, item by item, each with a verdict.

    Validators never throw on a failed condition: the conditions they probe
    are asymptotic statements, and at a finite truncation only evidence is
    available.
    """

    title: str
    items: list[CheckItem] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def add(self, *args, **kwargs) -> None:
        self.items.append(CheckItem(*args, **kwargs))

    def as_rows(self) -> list[dict]:
        return [{"check": self.title, "item": it.name, "passed": it.passed, "value": it.value,
                 "threshold": it.threshold, "note": it.note} for it in self.items]


def _dyadic(k_max: int) -> list[int]:
    ks = []
    k = 1
    while k <= k_max:
        ks.append(k)
        k *= 2
    return ks


def check_decay(spec: NoiseSpec, k_test: int = 64) -> CheckReport:
    """Evidence for |q_k| <~ (1 v |k|)^-alpha with the declared alpha.

    Reports the constant sup_k |q_k| (1 v |k|)^alpha and the log-log
    growth slope of that sequence at dyadic k; a positive slope means
    the declared decay is not really there.
    """
    report = CheckReport(f"decay check ({spec.label})")
    ks = _dyadic(min(k_test, spec.cutoff))
    ratios = np.array([l2_norm(spec.profile(k)) * max(1, k) ** spec.alpha for k in ks])
    live = ratios > 0
    report.add("decay constant sup |q_k| (1 v |k|)^alpha", True, float(ratios.max()))
    if live.sum() >= 2:
        slope = np.polyfit(np.log([k for k, a in zip(ks, live) if a]),
                           np.log(ratios[live]), 1)[0]
        report.add("log-log growth slope of |q_k| |k|^alpha", bool(slope <= 0.05),
                   float(slope), 0.05)
    if spec.alpha <= 0.5:
        h1 = [sobolev_norm(spec.profile(k), 1.0) / l2_norm(spec.profile(k))
              for k in ks if l2_norm(spec.profile(k)) > 0]
        if h1:
            report.add("sup |q_k/|q_k||_H1 (needed for alpha <= 1/2)", True,
                       float(max(h1)))
    return report


def check_tail_convergence(spec: NoiseSpec, k_test: int = 64) -> CheckReport:
    """Evidence for |k|^alpha q_k -> tail in L2 at dyadic k."""
    if spec.tail is None:
        raise ValueError("spec declares no tail profile")
    report = CheckReport(f"tail convergence check ({spec.label})")
    ks = _dyadic(min(k_test, spec.cutoff))
    gaps = np.array([
        l2_norm(max(1, k) ** spec.alpha * spec.profile(k) - spec.tail) for k in ks
    ])
    report.add("final gap ||k|^alpha q_k - tail|", True, float(gaps[-1]))
    scale = max(l2_norm(spec.tail), 1e-30)
    nonincreasing = bool(np.all(np.diff(gaps) <= 1e-12 * scale))
    vanishing = bool(gaps[-1] <= max(0.5 * gaps[0], 1e-10 * scale))
    report.add("gaps non-increasing at dyadic k", nonincreasing, float(np.max(np.diff(gaps), initial=0.0)))
    report.add("gaps heading to zero", vanishing, float(gaps[-1]), 0.5 * float(gaps[0]))
    return report


def check_tail_summability(spec: NoiseSpec, k_test: int = 256) -> CheckReport:
    """Evidence for sum_k (1 v |k|)^-eta |q_k - tail|_H1^2 < infinity.

    Partial sums are tabulated at dyadic cutoffs; the verdict is a
    Cauchy criterion on the last dyadic increment, at most
    SUMMABILITY_INCREMENT_TOL of the total.
    """
    if spec.tail is None:
        raise ValueError("spec declares no tail profile")
    report = CheckReport(f"tail summability check ({spec.label}, eta={spec.eta:g})")
    k_test = min(k_test, spec.cutoff)
    terms = np.zeros(k_test + 1)
    for k in range(0, k_test + 1):
        diff = sobolev_norm(spec.profile(k) - spec.tail, 1.0) ** 2
        weight = max(1, k) ** (-spec.eta)
        terms[k] = weight * diff * (1 if k == 0 else 2)  # k and -k
    partial = np.cumsum(terms)
    dyads = _dyadic(k_test)
    for k in dyads:
        report.add(f"partial sum through |k| <= {k}", True, float(partial[k]))
    total = float(partial[dyads[-1]])
    inc = float(partial[dyads[-1]] - partial[dyads[-1] // 2]) / total if total else 0.0
    report.add("last dyadic increment / total", bool(inc <= SUMMABILITY_INCREMENT_TOL), inc,
               SUMMABILITY_INCREMENT_TOL)
    return report


@dataclass(frozen=True)
class CouplingSeries:
    """Per-offset couplings lambda^l of fast Wiener modes into a slow mode."""

    lambdas: dict
    total: float
    tail_estimate: float
    max_offset: int


def coupling_series(spec: NoiseSpec, rho: SpectralField, eps: float, m: int,
                    rescaled: bool = False, max_offset: int | None = None) -> CouplingSeries:
    """The series Lambda over offsets l of the couplings at k = m + l/eps.

    lambda^l = <q_{m+l/eps} e_l, rho>, optionally rescaled by eps^-alpha.
    Offsets run over every l with |m + l/eps| <= cutoff (and optionally
    |l| <= max_offset).  m must be resolved, eps |m| < 1/2; m = 0 is
    allowed.  Raises TruncationTooSmall when the last dyadic increment of
    the partial sums exceeds COUPLING_TAIL_TOL * Lambda.
    """
    r = cells(eps)
    require_resolved(eps, m)
    scale = eps ** (-spec.alpha) if rescaled else 1.0

    l_lo = int(np.floor((-spec.cutoff - m) / r))
    l_hi = int(np.floor((spec.cutoff - m) / r))
    if max_offset is not None:
        l_lo, l_hi = max(l_lo, -max_offset), min(l_hi, max_offset)

    lambdas = {}
    for l in range(l_lo, l_hi + 1):
        q = spec.profile(m + l * r)
        # <q e_l, rho> = sum_j q_j conj(rho_{j+l})
        lam = sum(q.coeff(int(j)) * np.conj(rho.coeff(int(j) + l)) for j in q.wavenumbers)
        lambdas[l] = scale * lam

    total = float(np.sqrt(sum(abs(v) ** 2 for v in lambdas.values())))
    big_l = max(abs(l_lo), abs(l_hi), 1)
    half = max(1, big_l // 2)
    tail = total - float(np.sqrt(sum(
        abs(v) ** 2 for l, v in lambdas.items() if abs(l) <= half
    )))
    series = CouplingSeries(lambdas=lambdas, total=total, tail_estimate=tail,
                            max_offset=big_l)
    if total > 0 and tail > COUPLING_TAIL_TOL * total:
        raise TruncationTooSmall(f"dyadic tail {tail:.3e} exceeds {COUPLING_TAIL_TOL:g} * "
                                 f"Lambda = {COUPLING_TAIL_TOL * total:.3e}")
    return series


# -- Wiener sampling -----------------------------------------------------------


class WienerStream:
    """Counter-based Gaussian stream for one sample path.

    Philox keyed by (seed, path index): reproducible for any scheduling
    of paths, since each path owns its stream.  Increments for step s and
    mode k sit at a fixed position in the draw order, so stepwise and
    chunked generation agree.
    """

    def __init__(self, seed: int, path_index: int = 0):
        self.seed = int(seed)
        self.path_index = int(path_index)
        self._gen = Generator(Philox(key=np.array(
            [self.seed & 0xFFFFFFFFFFFFFFFF, self.path_index & 0xFFFFFFFFFFFFFFFF],
            dtype=np.uint64,
        )))

    def increments(self, n_steps: int, k_cut: int, dt: float) -> np.ndarray:
        """Complex increments, shape (n_steps, 2*k_cut + 1), index k + k_cut.

        Mode 0 is real with variance dt; modes k > 0 have independent
        real and imaginary parts of variance dt/2; mode -k is the
        conjugate of mode k.
        """
        z = self._gen.normal(size=(n_steps, 2 * k_cut + 1))
        dw = np.empty((n_steps, 2 * k_cut + 1), dtype=complex)
        re, im = dw.real, dw.imag
        np.multiply(z[:, 0], np.sqrt(dt), out=re[:, k_cut])
        im[:, k_cut] = 0.0
        if k_cut > 0:
            scale = np.sqrt(dt / 2.0)
            np.multiply(z[:, 1 : 2 * k_cut : 2], scale, out=re[:, k_cut + 1 :])
            np.multiply(z[:, 2 : 2 * k_cut + 1 : 2], scale, out=im[:, k_cut + 1 :])
            re[:, :k_cut] = re[:, :k_cut:-1]
            np.negative(im[:, :k_cut:-1], out=im[:, :k_cut])
        return dw
