"""Noise families q_k, their assumption validators and Wiener sampling.

The driving signal is sum_k q_k(x/eps) e_k(x) dW_k(t) with real periodic
profiles q_k = q_{-k}.  Wiener modes are normalised so E|W_k(t)|^2 = t,
which makes q_k = 1 reproduce cylindrical space-time white noise under
the 1/(2*pi)-normalised inner product.  The limit coefficients built
from these profiles live in ``limit``.

The path engine's standard normals come from SFC64 streams addressed by
(seed, path index, residue class), so parallel path generation is
reproducible no matter how paths are scheduled, and a class's draws do
not depend on which other classes are evolved.  Each is SFC64 on a
SeedSequence child, but seeded without building one: wiener_streams
evaluates SeedSequence's hash for every key of an engine run in one
vectorised pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import SFC64, Generator
from numpy.random.bit_generator import ISeedSequence

from .errors import TruncationTooSmall
from .fourier import (SpectralField, cells, conjugation_defect, inner_product, l2_norm,
                      require_resolved, sobolev_norm)

__all__ = [
    "NoiseSpec",
    "wiener_streams",
    "CouplingSeries",
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
K_TEST = 64  # largest |k| the decay and tail-convergence checks probe
SUMMABILITY_K_TEST = 256  # largest |k| the summability partial sums reach


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
    limit coefficient.  A spec whose every q_k with |k| <= cutoff
    vanishes (L2 norm below 1e-14) drives nothing and is refused.
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
        if not any(l2_norm(self.profile(k)) >= 1e-14 for k in range(self.cutoff + 1)):
            raise ValueError(f"noise {self.label} drives nothing: every profile q_k with "
                             f"|k| <= {self.cutoff} vanishes")

    # -- constructors ------------------------------------------------------

    @classmethod
    def white(cls, cutoff: int, mollifier=None) -> "NoiseSpec":
        one = SpectralField.constant(1.0)
        return cls("white", cutoff, alpha=0.0, tail=one, mollifier=mollifier,
                   label="white")

    @classmethod
    def power_decay(cls, alpha: float, cutoff: int,
                    profile: SpectralField | None = None, mollifier=None) -> "NoiseSpec":
        """Decay at (1 v |k|)^-alpha; noise-check skips its summability, so no eta."""
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"noise decay exponent alpha = {alpha!r} must lie in (0, 1)")
        p = _check_profile(profile or SpectralField.constant(1.0), "power")
        return cls("power", cutoff, alpha=alpha, tail=p,
                   mollifier=mollifier, label=f"power(alpha={alpha:g})")

    @classmethod
    def tail_convergent(cls, tail: SpectralField | None = None, tail_rate: float = 1.0, *,
                        cutoff: int, ripple: SpectralField | None = None, eta: float = 0.0,
                        mollifier=None) -> "NoiseSpec":
        """q_k -> tail (1 left out) at the rate, with ripple (1 left out)."""
        tail = _check_profile(tail or SpectralField.constant(1.0), "tail")
        ripple = _check_profile(ripple or SpectralField.constant(1.0), "ripple")
        return cls("tail", cutoff, alpha=0.0, tail=tail, tail_rate=tail_rate,
                   ripple=ripple, eta=eta, mollifier=mollifier,
                   label=f"tail(rate={tail_rate:g})")

    @classmethod
    def custom(cls, table: dict, cutoff: int, *, alpha: float = 0.0,
               tail: SpectralField | None = None, eta: float = 0.0,
               mollifier=None) -> "NoiseSpec":
        """q_k from table, keyed by k or -k; giving k and -k different profiles is an error."""
        checked = {}  # |k| -> (the first key given for it, its profile)
        for k, f in table.items():
            f = _check_profile(f, f"q_{k}")
            first, g = checked.setdefault(abs(int(k)), (k, f))
            if l2_norm(f - g) > 0.0:
                raise ValueError(f"noise table gives q_{first} and q_{k} different profiles; "
                                 "the profiles must obey q_k = q_-k")
        table = {j: f for j, (_, f) in checked.items()}
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
        def center(f: SpectralField | None) -> SpectralField | None:
            if f is None:
                return None
            return f - SpectralField.constant(inner_product(f, rho).real, 2)

        table = None if self.table is None else {k: center(f) for k, f in self.table.items()}
        return NoiseSpec(self.family, self.cutoff, alpha=self.alpha, tail=center(self.tail),
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
#
# Each validator returns its report rows, one per measured item, each with a
# verdict.  Validators never throw on a failed condition: the conditions they
# probe are asymptotic statements, and at a finite truncation only evidence
# is available.


def _row(check: str, item: str, passed: bool, value: float, threshold: float | None = None,
         note: str = "") -> dict:
    return {"check": check, "item": item, "passed": passed, "value": value,
            "threshold": threshold, "note": note}


def _dyadic(k_max: int) -> list[int]:
    ks = []
    k = 1
    while k <= k_max:
        ks.append(k)
        k *= 2
    return ks


def check_decay(spec: NoiseSpec) -> list[dict]:
    """Evidence for |q_k| <~ (1 v |k|)^-alpha with the declared alpha.

    Reports the constant sup_k |q_k| (1 v |k|)^alpha and the log-log
    growth slope of that sequence at dyadic k <= K_TEST; a positive slope
    means the declared decay is not really there.
    """
    check = f"decay check ({spec.label})"
    ks = _dyadic(min(K_TEST, spec.cutoff))
    ratios = np.array([l2_norm(spec.profile(k)) * max(1, k) ** spec.alpha for k in ks])
    live = ratios > 0
    rows = [_row(check, "decay constant sup |q_k| (1 v |k|)^alpha", True, float(ratios.max()))]
    if live.sum() >= 2:
        slope = np.polyfit(np.log([k for k, a in zip(ks, live) if a]),
                           np.log(ratios[live]), 1)[0]
        rows.append(_row(check, "log-log growth slope of |q_k| |k|^alpha", bool(slope <= 0.05),
                         float(slope), 0.05))
    if spec.alpha <= 0.5:
        h1 = [sobolev_norm(spec.profile(k), 1.0) / l2_norm(spec.profile(k))
              for k in ks if l2_norm(spec.profile(k)) > 0]
        if h1:
            rows.append(_row(check, "sup |q_k/|q_k||_H1 (needed for alpha <= 1/2)", True,
                             float(max(h1))))
    return rows


def check_tail_convergence(spec: NoiseSpec) -> list[dict]:
    """Evidence for |k|^alpha q_k -> tail in L2 at dyadic k <= K_TEST."""
    if spec.tail is None:
        raise ValueError("spec declares no tail profile")
    check = f"tail convergence check ({spec.label})"
    ks = _dyadic(min(K_TEST, spec.cutoff))
    gaps = np.array([
        l2_norm(max(1, k) ** spec.alpha * spec.profile(k) - spec.tail) for k in ks
    ])
    scale = max(l2_norm(spec.tail), 1e-30)
    nonincreasing = bool(np.all(np.diff(gaps) <= 1e-12 * scale))
    vanishing = bool(gaps[-1] <= max(0.5 * gaps[0], 1e-10 * scale))
    return [
        _row(check, "final gap ||k|^alpha q_k - tail|", True, float(gaps[-1])),
        _row(check, "gaps non-increasing at dyadic k", nonincreasing,
             float(np.max(np.diff(gaps), initial=0.0))),
        _row(check, "gaps heading to zero", vanishing, float(gaps[-1]), 0.5 * float(gaps[0])),
    ]


def check_tail_summability(spec: NoiseSpec) -> list[dict]:
    """Evidence for sum_k (1 v |k|)^-eta |q_k - tail|_H1^2 < infinity.

    Partial sums are tabulated at dyadic cutoffs up to SUMMABILITY_K_TEST;
    the verdict is a Cauchy criterion on the last dyadic increment, at
    most SUMMABILITY_INCREMENT_TOL of the total.
    """
    if spec.tail is None:
        raise ValueError("spec declares no tail profile")
    check = f"tail summability check ({spec.label}, eta={spec.eta:g})"
    k_max = min(SUMMABILITY_K_TEST, spec.cutoff)
    terms = np.zeros(k_max + 1)
    for k in range(0, k_max + 1):
        diff = sobolev_norm(spec.profile(k) - spec.tail, 1.0) ** 2
        weight = max(1, k) ** (-spec.eta)
        terms[k] = weight * diff * (1 if k == 0 else 2)  # k and -k
    partial = np.cumsum(terms)
    dyads = _dyadic(k_max)
    rows = [_row(check, f"partial sum through |k| <= {k}", True, float(partial[k]))
            for k in dyads]
    total = float(partial[dyads[-1]])
    inc = float(partial[dyads[-1]] - partial[dyads[-1] // 2]) / total if total else 0.0
    rows.append(_row(check, "last dyadic increment / total", bool(inc <= SUMMABILITY_INCREMENT_TOL),
                     inc, SUMMABILITY_INCREMENT_TOL))
    return rows


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

    l_lo = -((spec.cutoff + m) // r)  # ceil((-cutoff - m) / r)
    l_hi = (spec.cutoff - m) // r
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
#
# NumPy builds each SeedSequence in Python, so _stream_seeds transcribes its
# hash, generate_state(3, uint64), to NumPy arrays and seeds every key of an
# engine run in one pass; SFC64 then mixes the three words in itself, as it
# does a SeedSequence's.


def _hash(value, const, mult: int):
    """SeedSequence's hashmix on Python ints or uint32 arrays: (hashed value, next constant)."""
    nxt = const * mult & 0xFFFFFFFF
    value = (value ^ const) * nxt & 0xFFFFFFFF
    return value ^ value >> 16, nxt


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words, Python ints or uint32 arrays."""
    v = ((0xCA01F9DD * x & 0xFFFFFFFF) - (0x4973F715 * y & 0xFFFFFFFF)) & 0xFFFFFFFF
    return v ^ v >> 16


def _stream_seeds(seed: int, paths, residues) -> np.ndarray:
    """SeedSequence(seed mod 2^64, spawn_key=(p, r)).generate_state(3, uint64) for every
    r in residues and p in paths, as an array of shape (len(residues), len(paths), 3).

    The entropy is the seed's two 32-bit words zero-padded to the pool
    size 4, then p and r, one word each.  The seed's words fill and mix
    the pool once, as Python ints; p and r are then hashed into all four
    pool words of every key at once.  A key of 2^32 or more, which
    SeedSequence would spread over two words, is refused.
    """
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    keys = []
    for name, key in (("path index", paths), ("residue", residues)):
        key = [int(k) for k in key]
        bad = [k for k in key if not 0 <= k <= 0xFFFFFFFF]
        if bad:
            raise ValueError(f"stream {name} {bad[0]} must lie in [0, 2^32): "
                             "each key of a Wiener stream is one 32-bit word")
        keys.append(np.array(key, dtype=np.uint32))
    a, mult_a = 0x43B0D7E5, 0x931E8875
    pool = []
    for word in (seed & 0xFFFFFFFF, seed >> 32, 0, 0):
        word, a = _hash(word, a, mult_a)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                word, a = _hash(pool[src], a, mult_a)
                pool[dst] = _mix(pool[dst], word)
    consts = [a]  # the hash constants of the 8 key words, 4 per key
    for _ in range(7):
        consts.append(consts[-1] * mult_a & 0xFFFFFFFF)
    consts = np.array(consts, dtype=np.uint32).reshape(2, 4, 1, 1)
    pool = np.array(pool, dtype=np.uint32).reshape(4, 1, 1)
    for key, const in zip((keys[0][None, :], keys[1][:, None]), consts):
        pool = _mix(pool, _hash(key, const, mult_a)[0])
    b, mult_b = [0x8B51F9DD], 0x58F38DED  # generate_state: 6 words cycling the pool
    for _ in range(5):
        b.append(b[-1] * mult_b & 0xFFFFFFFF)
    words, _ = _hash(pool[[0, 1, 2, 3, 0, 1]], np.array(b, dtype=np.uint32).reshape(6, 1, 1),
                     mult_b)
    # NumPy's own pairing of the words: little-endian uint32 pairs viewed as uint64
    return np.ascontiguousarray(np.moveaxis(words, 0, -1), dtype="<u4").view("<u8").astype(
        np.uint64)


class _SeedWords(ISeedSequence):
    """One stream's words from _stream_seeds, standing in for its SeedSequence:
    SFC64 seeds from them as from that SeedSequence's generate_state(3, uint64)."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def wiener_streams(seed: int, paths, residues):
    """Per residue in order, the Gaussian stream (seed, p, residue) of every p in paths.

    Yields a list of NumPy Generators per residue, entry p the stream of
    residue class `residue` of sample path p: SFC64 seeded as by
    SeedSequence(seed mod 2^64, spawn_key=(p, residue)), the child (p,
    residue) of the seed's SeedSequence tree, so each class of each path
    owns a stream, reproducible for any scheduling of paths and
    independent of which other classes are evolved.  Every path index
    and residue must lie in [0, 2^32), else ValueError before the first
    list.  Every key is seeded in one vectorised pass (_stream_seeds)
    without building a SeedSequence, about 1.5 us a stream for 64 paths x
    16 classes against 13.8 us for a SeedSequence and its SFC64 (2-vCPU
    Xeon); one key alone pays for a whole pass, about 60 us.  Each list's
    generators are built only when it is reached.  The normals come in
    draw order, so stepwise, chunked and in-place draws
    (standard_normal(out=...)) of the same stream agree; the engine fills
    each chunk of a class's normals in place, one block after another.
    """
    for row in _stream_seeds(seed, paths, residues):
        yield [Generator(SFC64(_SeedWords(words))) for words in row]
