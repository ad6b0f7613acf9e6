"""Spectral fields on the periodic interval [0, 2*pi].

A field is a vector of complex Fourier amplitudes over the integer
wavenumbers -N/2 .. N/2 - 1.  The L2 inner product carries the 1/(2*pi)
normalisation, so the exponentials e_k(x) = exp(i*k*x) are orthonormal
and <f, g> = sum_k f_k conj(g_k).  Negative frequencies are stored
explicitly; no real-to-complex packing is done anywhere, which keeps the
conjugate-symmetry invariant of real fields directly auditable.
"""

from __future__ import annotations

import numpy as np

from .errors import MeanNotZero, ResolutionTooSmall

__all__ = [
    "SpectralField",
    "inner_product",
    "l2_norm",
    "sobolev_norm",
    "seminorm_neg",
    "multiply",
    "cells",
    "require_resolved",
    "oscillate",
    "conjugation_defect",
]


def _fit_band(lo: int, hi: int) -> int:
    """Smallest even mode count whose band [-N/2, N/2) contains [lo, hi]."""
    return 2 * max(-lo, hi + 1, 1)


class SpectralField:
    """Complex Fourier amplitudes over the wavenumbers -N/2 .. N/2 - 1.

    The entry at index k + N/2 is the amplitude of exp(i*k*x).  A field
    is `real` when coeff(-k) == conj(coeff(k)) for all k, the mean is
    real, and the unpaired -N/2 amplitude is real.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 1 or coeffs.size < 2 or coeffs.size % 2:
            raise ValueError("coefficients must be a 1-D vector of even length >= 2")
        self.coeffs = coeffs

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "SpectralField":
        return cls(np.zeros(n, dtype=complex))

    @classmethod
    def constant(cls, value: complex = 1.0, n: int = 2) -> "SpectralField":
        f = cls.zero(n)
        f.coeffs[n // 2] = value
        return f

    @classmethod
    def basis(cls, k: int, n: int | None = None) -> "SpectralField":
        """The exponential e_k."""
        if n is None:
            n = _fit_band(k, k)
        f = cls.zero(n)
        f.coeffs[k + n // 2] = 1.0
        return f

    @classmethod
    def from_modes(cls, modes: dict, n: int | None = None) -> "SpectralField":
        """Field with prescribed amplitudes, e.g. {1: -0.5j, -1: 0.5j}."""
        ks = list(modes)
        if n is None:
            n = _fit_band(min(ks), max(ks)) if ks else 2
        f = cls.zero(n)
        for k, amp in modes.items():
            if not -n // 2 <= k < n // 2:
                raise ResolutionTooSmall(f"wavenumber {k} outside band of n={n}")
            f.coeffs[k + n // 2] = amp
        return f

    @classmethod
    def from_grid(cls, values) -> "SpectralField":
        """Collocation values on the uniform grid x_j = 2*pi*j/len(values)."""
        values = np.asarray(values, dtype=complex)
        n = values.size
        if n % 2:
            raise ValueError("grid size must be even")
        return cls(np.fft.fftshift(np.fft.fft(values)) / n)

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return self.coeffs.size

    @property
    def wavenumbers(self) -> np.ndarray:
        return np.arange(-self.n // 2, self.n // 2)

    def coeff(self, k: int) -> complex:
        """Amplitude of e_k; zero outside the stored band."""
        if -self.n // 2 <= k < self.n // 2:
            return complex(self.coeffs[k + self.n // 2])
        return 0j

    def support(self, rel_tol: float = 0.0) -> np.ndarray:
        """Wavenumbers whose amplitude exceeds rel_tol times the largest."""
        mags = np.abs(self.coeffs)
        cut = rel_tol * mags.max() if mags.max() > 0 else 0.0
        return self.wavenumbers[mags > cut]

    def max_harmonic(self) -> int:
        sup = self.support()
        return int(np.abs(sup).max()) if sup.size else 0

    # -- reshaping --------------------------------------------------------

    def pad_to(self, n: int) -> "SpectralField":
        if n < self.n:
            raise ValueError("pad_to cannot shrink; use truncate")
        if n == self.n:
            return self.copy()
        out = SpectralField.zero(n)
        off = n // 2 - self.n // 2
        out.coeffs[off : off + self.n] = self.coeffs
        return out

    def truncate(self, n: int) -> "SpectralField":
        if n >= self.n:
            return self.pad_to(n)
        off = self.n // 2 - n // 2
        return SpectralField(self.coeffs[off : off + n].copy())

    def compress(self, rel_tol: float = 1e-14) -> "SpectralField":
        """Smallest band keeping every amplitude above rel_tol * max."""
        sup = self.support(rel_tol)
        if sup.size == 0:
            return SpectralField.zero(2)
        return self.truncate(_fit_band(int(sup.min()), int(sup.max())))

    def copy(self) -> "SpectralField":
        return SpectralField(self.coeffs.copy())

    # -- transforms and calculus ------------------------------------------

    def to_grid(self, m: int | None = None) -> np.ndarray:
        """Values on the uniform grid of m >= n points."""
        if m is None:
            m = self.n
        if m < self.n:
            raise ResolutionTooSmall("grid coarser than the stored band")
        std = np.zeros(m, dtype=complex)
        std[self.wavenumbers % m] = self.coeffs
        return np.fft.ifft(std) * m

    def derivative(self, order: int = 1) -> "SpectralField":
        return SpectralField(self.coeffs * (1j * self.wavenumbers) ** order)

    # -- arithmetic --------------------------------------------------------

    def _aligned(self, other: "SpectralField"):
        n = max(self.n, other.n)
        return self.pad_to(n).coeffs, other.pad_to(n).coeffs

    def __add__(self, other: "SpectralField") -> "SpectralField":
        a, b = self._aligned(other)
        return SpectralField(a + b)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        a, b = self._aligned(other)
        return SpectralField(a - b)

    def __mul__(self, scalar: complex) -> "SpectralField":
        return SpectralField(self.coeffs * scalar)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"SpectralField(n={self.n}, |f|={l2_norm(self):.6g})"


# -- norms and products ----------------------------------------------------


def inner_product(f: SpectralField, g: SpectralField) -> complex:
    """<f, g> = sum_k f_k conj(g_k) = (1/2pi) integral of f g*."""
    a, b = f._aligned(g)
    return complex(np.vdot(b, a))  # vdot conjugates its first argument


def l2_norm(f: SpectralField) -> float:
    return float(np.linalg.norm(f.coeffs))


def sobolev_norm(f: SpectralField, s: float) -> float:
    """H^s norm (sum_k (1 + k^2)^s |f_k|^2)^(1/2)."""
    w = (1.0 + f.wavenumbers.astype(float) ** 2) ** s
    return float(np.sqrt(np.sum(w * np.abs(f.coeffs) ** 2)))


def seminorm_neg(f: SpectralField, s: float) -> float:
    """Negative seminorm (sum_{k != 0} |k|^(-2s) |f_k|^2)^(1/2).

    Defined only on mean-zero fields; the k = 0 term is excluded by
    convention.  Raises MeanNotZero when |<f, 1>| > 1e-10 |f|.
    """
    mean = abs(f.coeff(0))
    if mean > 1e-10 * l2_norm(f):
        raise MeanNotZero(f"|<f,1>| = {mean:.3e} exceeds 1e-10 * |f|")
    ks = f.wavenumbers.astype(float)
    nz = ks != 0
    w = np.abs(ks[nz]) ** (-2.0 * s)
    return float(np.sqrt(np.sum(w * np.abs(f.coeffs[nz]) ** 2)))


def multiply(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise product, dealiased by 3/2 zero padding.

    The result is truncated to max(f.n, g.n); with that grid none of the
    dropped high harmonics can alias back into the retained band.
    """
    n = max(f.n, g.n)
    m = 3 * n // 2
    if m % 2:
        m += 1
    prod = f.to_grid(m) * g.to_grid(m)
    return SpectralField.from_grid(prod).truncate(n)


def cells(eps: float) -> int:
    """1/eps, the number of cells in [0, 2*pi]; ValueError unless an integer >= 1 to 1e-9."""
    ratio = 1.0 / float(eps) if eps > 0.0 else 0.0
    r = float(np.rint(ratio))
    if not (r >= 1 and abs(ratio - r) <= 1e-9):
        raise ValueError(f"eps = {eps:g} is not the reciprocal of a positive integer")
    return int(r)


def require_resolved(eps: float, m: int) -> None:
    """ValueError, naming m and eps, unless the slow mode m is resolved: eps |m| < 1/2."""
    if not abs(eps * m) < 0.5:
        raise ValueError(f"mode m = {m} is not resolved at eps = {eps:g}: "
                         "need eps * |m| < 1/2")


def oscillate(q: SpectralField, eps: float, k: int, n: int | None = None) -> SpectralField:
    """The cell-oscillation transform q(x) -> q(x/eps) * exp(i*k*x).

    The output amplitude at wavenumber k + j/eps equals coeff(q, j) and
    every other amplitude is zero, so the result is supported on the
    residue class of k modulo 1/eps.  Requires 1/eps to be an integer.
    """
    r = cells(eps)
    js = q.wavenumbers
    lo = k + r * int(js.min())
    hi = k + r * int(js.max())
    if n is None:
        n = _fit_band(lo, hi)
    if not (-n // 2 <= lo and hi < n // 2):
        raise ResolutionTooSmall(
            f"band of n={n} cannot hold oscillated support [{lo}, {hi}]"
        )
    out = SpectralField.zero(n)
    out.coeffs[k + r * js + n // 2] = q.coeffs
    return out


def conjugation_defect(f: SpectralField) -> float:
    """Largest violation of the real-field symmetry coeff(-k) = conj(coeff(k)).

    The unpaired -N/2 amplitude must be real for the grid values to be
    real, so its imaginary part counts as a defect too.
    """
    half = f.n // 2
    pos = f.coeffs[half + 1 :]            # k = 1 .. N/2 - 1
    neg = f.coeffs[half - 1 : 0 : -1]     # k = -1 .. -(N/2 - 1)
    d = float(np.max(np.abs(neg - np.conj(pos)))) if pos.size else 0.0
    d = max(d, abs(float(f.coeffs[half].imag)))
    d = max(d, abs(float(f.coeffs[0].imag)))
    return d
