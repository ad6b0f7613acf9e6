"""Unit-cell problems for the periodic generator L = b d/dx + (sigma^2/2) d2/dx2.

Solves the stationary adjoint problem L* rho = 0 for the invariant
density, the corrector problem L chi = -b, and derives the effective
diffusivity mu (the decay rate of slow modes, exp(-mu m^2 t)) and the
spectral gap omega of the fast dynamics.  Everything is spectral: the
generator restricted to a uniformly spaced set of wavenumbers is a small
dense matrix built from the coefficient convolutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolveFailed
from .fourier import SpectralField, cells, inner_product, l2_norm, multiply, sobolev_norm
from .reporting import CheckReport

__all__ = [
    "Coefficients",
    "CellSolution",
    "validate_coefficients",
    "generator_matrix",
    "invariant_density",
    "corrector",
    "effective_diffusivity",
    "diffusivity_from_decay",
    "spectral_gap",
    "solve_cell",
]

DEFAULT_CELL_MODES = 128

# Residual contracts for the two cell solves.
RHO_RESIDUAL_TOL = 1e-8
CHI_RESIDUAL_TOL = 1e-8
# The adjoint generator's kernel eigenvalue, relative to its spectral radius.
KERNEL_TOL = 1e-10
# Residue-class offsets |l| <= CLASS_OFFSETS of the slow-mode and unit-cell flows.
CLASS_OFFSETS = 12
# The slow eigenvalue's isolation: the next real part this many times further left.
ISOLATION = 4.0


class Coefficients:
    """Drift b and diffusion sigma, periodic on [0, 2*pi].

    Both are real trigonometric polynomials, which guarantees the
    smoothness the cell problems need.  delta and delta_prime, the
    ellipticity bounds min sigma and max sigma, are measured on a grid of
    max(256, 4 n) points; validate_coefficients checks them on a finer one.
    """

    def __init__(self, b: SpectralField, sigma: SpectralField):
        self.b = b
        self.sigma = sigma
        grid = np.real(sigma.to_grid(max(256, 4 * sigma.n)))
        self.delta = float(grid.min())
        self.delta_prime = float(grid.max())

    @classmethod
    def heat(cls, sigma_value: float = np.sqrt(2.0)) -> "Coefficients":
        """Pure diffusion, b = 0; sigma = sqrt(2) gives L = d2/dx2."""
        return cls(SpectralField.zero(2), SpectralField.constant(sigma_value))

    @classmethod
    def cosine_potential(cls, amplitude: float = 1.0) -> "Coefficients":
        """Gradient drift in the potential A cos(x): b = A sin(x), sigma = 1."""
        b = SpectralField.from_modes({1: -0.5j * amplitude, -1: 0.5j * amplitude})
        return cls(b, SpectralField.constant(1.0))

    @classmethod
    def from_modes(cls, b_modes: dict, sigma_modes: dict) -> "Coefficients":
        return cls(SpectralField.from_modes(b_modes), SpectralField.from_modes(sigma_modes))

    @property
    def max_harmonic(self) -> int:
        return max(self.b.max_harmonic(), self.sigma.max_harmonic(), 1)

    def sigma_squared(self) -> SpectralField:
        # pad first: the square's band is twice sigma's and must be exact
        return multiply(self.sigma.pad_to(2 * self.sigma.n), self.sigma)

    def __repr__(self) -> str:
        return (f"Coefficients(J={self.max_harmonic}, delta={self.delta:.4g}, "
                f"delta_prime={self.delta_prime:.4g})")


def validate_coefficients(c: Coefficients, n_grid: int = 2048) -> CheckReport:
    """Check ellipticity, the centering condition, and smoothness.

    Report-style: every condition is listed with its measured residual.
    """
    report = CheckReport("coefficient assumptions")
    sig = np.real(c.sigma.to_grid(n_grid))
    report.add("ellipticity: min sigma > 0", bool(sig.min() > 0.0), float(sig.min()), 0.0)
    report.add("ellipticity: delta <= sigma", bool(sig.min() >= c.delta - 1e-12),
               float(sig.min()), c.delta)
    report.add("ellipticity: sigma <= delta_prime", bool(sig.max() <= c.delta_prime + 1e-12),
               float(sig.max()), c.delta_prime)

    if sig.min() > 0.0:
        bg = np.real(c.b.to_grid(n_grid))
        ratio = bg / sig**2
        mean = abs(float(np.mean(ratio)))
        scale = float(np.sqrt(np.mean(ratio**2)))
        ok = mean <= 1e-10 * scale or (mean == 0.0 and scale == 0.0)
        report.add("centering: |mean(b/sigma^2)| <= 1e-10 |b/sigma^2|", ok, mean,
                   1e-10 * scale)
    else:
        report.add("centering: |mean(b/sigma^2)|", False, float("nan"),
                   note="sigma touches zero; ratio undefined")

    band = max(c.b.max_harmonic(), c.sigma.max_harmonic())
    report.add("smoothness: trig-polynomial coefficients", True, float(band),
               note="finite band implies two continuous derivatives")
    return report


def generator_matrix(c: Coefficients, ks, eps: float = 1.0, adjoint: bool = False) -> np.ndarray:
    """Dense matrix of L_eps (or its adjoint) on uniformly spaced wavenumbers.

    L_eps = (1/eps) b(x/eps) d/dx + (1/2) sigma^2(x/eps) d2/dx2.  The
    rows and columns are the given wavenumbers, which must be an
    arithmetic progression with spacing 1/eps; multiplication by an
    oscillated coefficient only couples within such a progression, so
    the matrix is exact (Galerkin truncation at the band edge).
    """
    ks = np.asarray(ks, dtype=int)
    r = cells(eps)
    if ks.size > 1 and np.any(np.diff(ks) != r):
        raise ValueError("wavenumbers must be consecutive in steps of 1/eps")

    m = ks.size
    # amplitudes at the offsets -(m-1) .. m-1: the band -m .. m-1 without its first entry
    b_off = c.b.truncate(2 * m).coeffs[1:]
    s2_off = c.sigma_squared().truncate(2 * m).coeffs[1:]
    idx = (np.arange(m)[:, None] - np.arange(m)[None, :]) + (m - 1)
    bmat = b_off[idx]
    smat = s2_off[idx]

    kf = ks.astype(float)
    if adjoint:
        # L* f = -(1/eps)((b^eps) f)' + (1/2)((sigma^2)^eps f)''
        return (-1j * kf[:, None]) * bmat / eps + (-0.5 * kf[:, None] ** 2) * smat
    return (1j * kf[None, :]) * bmat / eps + (-0.5 * kf[None, :] ** 2) * smat


def _hermitize(f: SpectralField) -> SpectralField:
    """Project onto the real-field symmetry coeff(-k) = conj(coeff(k))."""
    out = f.coeffs.copy()
    half = f.n // 2
    pos = out[half + 1 :]
    neg = out[half - 1 : 0 : -1]
    avg = 0.5 * (pos + np.conj(neg))
    out[half + 1 :] = avg
    out[half - 1 : 0 : -1] = np.conj(avg)
    out[half] = out[half].real
    out[0] = out[0].real
    return SpectralField(out)


def invariant_density(c: Coefficients, n: int = DEFAULT_CELL_MODES) -> SpectralField:
    """Solve L* rho = 0, normalised to <rho, 1> = 1.

    The kernel vector is extracted by four steps of shifted inverse
    iteration on the dense spectral matrix, then normalised by its mean
    amplitude.  The solve runs on the symmetric band |k| <= N/2 - 1 so the
    truncation preserves the conjugate symmetry of the real density.

    Each step is one np.linalg.solve, which re-factors the matrix (about
    0.3 ms on the 127-point band), so the solve runs on NumPy's LAPACK like
    the products around it.  SciPy's LU would run on SciPy's own OpenBLAS,
    whose idle worker threads spin against NumPy's: with two BLAS threads a
    NumPy product followed by a SciPy LU took 8 ms, against 0.5 ms for
    np.linalg.solve.
    """
    ks = np.arange(-n // 2 + 1, n // 2)
    centre = n // 2 - 1
    a = generator_matrix(c, ks, adjoint=True)
    shift = 1e-12 * max(1.0, np.abs(a).max())
    shifted = a - shift * np.eye(ks.size)

    v = np.zeros(ks.size, dtype=complex)
    v[centre] = 1.0  # the constant mode overlaps the kernel
    try:
        for _ in range(4):
            v = np.linalg.solve(shifted, v)
            v /= np.linalg.norm(v)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological input
        raise SolveFailed("adjoint generator could not be factorised") from exc

    mean_amp = v[centre]
    if abs(mean_amp) < 1e-8:
        raise SolveFailed("kernel vector has no mean component; kernel degenerate?")
    coeffs = np.zeros(n, dtype=complex)
    coeffs[1:] = v / mean_amp
    rho = _hermitize(SpectralField(coeffs))

    residual = float(np.linalg.norm(a @ rho.coeffs[1:]))
    if residual > RHO_RESIDUAL_TOL * sobolev_norm(rho, 2):
        raise SolveFailed(f"stationarity residual {residual:.3e} above tolerance")
    grid = np.real(rho.to_grid(max(4 * n, 256)))
    if grid.min() <= 0.0:
        raise SolveFailed("computed density is not positive on the grid")
    return rho


def corrector(c: Coefficients, rho: SpectralField, n: int | None = None) -> SpectralField:
    """Solve L chi = -b with periodic chi, normalised to <chi, rho> = 0."""
    if n is None:
        n = rho.n
    ks = np.arange(-n // 2 + 1, n // 2)  # symmetric band, as for the density
    a = generator_matrix(c, ks, adjoint=False)
    rhs = -c.b.pad_to(n).coeffs[1:]
    keep = ks != 0  # constants span the kernel of L; fix the mean to zero
    sol, *_ = np.linalg.lstsq(a[:, keep], rhs, rcond=None)
    coeffs = np.zeros(n, dtype=complex)
    coeffs[1:][keep] = sol
    chi = _hermitize(SpectralField(coeffs))

    # Any constant shift is admissible; pick the one orthogonal to rho.
    chi = chi - SpectralField.constant(inner_product(chi, rho).real, 2).pad_to(n)
    residual = float(np.linalg.norm(a @ chi.coeffs[1:] + c.b.pad_to(n).coeffs[1:]))
    bnorm = l2_norm(c.b)
    if bnorm > 0 and residual > CHI_RESIDUAL_TOL * bnorm:
        raise SolveFailed(f"corrector residual {residual:.3e} above tolerance")
    return chi


def effective_diffusivity(c: Coefficients, rho: SpectralField, chi: SpectralField) -> float:
    """mu = <(sigma^2/2) (1 + chi')^2, rho>, the slow-mode decay rate.

    For gradient drift b = -V' with sigma = 1 this reduces to
    1 / (2 <exp(2V)> <exp(-2V)>).
    """
    w = chi.derivative() + SpectralField.constant(1.0, 2)
    integrand = multiply(c.sigma_squared(), multiply(w, w))
    mu = 0.5 * inner_product(integrand, rho).real
    if mu <= 0:
        raise SolveFailed(f"effective diffusivity {mu:.3e} not positive")
    return float(mu)


def diffusivity_from_decay(c: Coefficients, eps: float, m: int) -> float:
    """mu at finite eps: the decay rate of the slow mode e_m over m^2.

    The rate is -max Re(lambda) over the eigenvalues of the adjoint
    generator L_eps* on the residue class m + (1/eps) l, |l| <= CLASS_OFFSETS.
    It comes from the spectrum alone, independently of the corrector
    route to mu, and differs from mu by O((eps m)^2) (about -2.8 (eps m)^2 mu
    for the A = 1 cosine potential), so a cross-validation of mu has to
    extrapolate to eps -> 0, e.g. (4 rate(eps / 2) - rate(eps)) / 3.  The
    slow eigenvalue must be real to KERNEL_TOL of the spectral radius and
    isolated, the next real part at least ISOLATION times further left,
    else SolveFailed.
    """
    if abs(eps * m) >= 0.5:
        raise ValueError("need eps * |m| < 1/2 for a resolved slow mode")
    ks = m + cells(eps) * np.arange(-CLASS_OFFSETS, CLASS_OFFSETS + 1)
    evals = np.linalg.eigvals(generator_matrix(c, ks, eps=eps, adjoint=True))
    slow, following = evals[np.argsort(-evals.real)[:2]]
    if abs(slow.imag) > KERNEL_TOL * np.abs(evals).max():
        raise SolveFailed(f"slow eigenvalue {slow:.3e} is not real")
    if following.real > ISOLATION * slow.real:
        raise SolveFailed(f"slow eigenvalue {slow.real:.3e} is not isolated: the next "
                          f"real part is {following.real:.3e}")
    return float(-slow.real / m**2)


def spectral_gap(c: Coefficients, n: int = 96) -> float:
    """Spectral gap omega: the forgetting rate of the fast flow d/dt g = L* g.

    omega = -max Re(lambda) over the nonzero spectrum of the adjoint
    generator on the wavenumbers -n/2 .. n/2 - 1.  The kernel, spanned by
    the invariant density, is the eigenvalue of smallest modulus; it must
    vanish to KERNEL_TOL of the spectral radius, else SolveFailed.
    """
    evals = np.linalg.eigvals(generator_matrix(c, np.arange(-n // 2, n // 2), adjoint=True))
    kernel = int(np.argmin(np.abs(evals)))
    if abs(evals[kernel]) > KERNEL_TOL * np.abs(evals).max():
        raise SolveFailed(f"adjoint generator kernel eigenvalue {evals[kernel]:.3e} "
                          "is not zero")
    return float(-np.delete(evals, kernel).real.max())


@dataclass(frozen=True)
class CellSolution:
    """Invariant density, corrector and effective diffusivity."""

    rho: SpectralField
    chi: SpectralField
    mu: float

    @property
    def enhancement(self) -> float:
        """|rho|, the white-noise amplification factor (>= 1)."""
        return l2_norm(self.rho)


def solve_cell(c: Coefficients, n: int = DEFAULT_CELL_MODES) -> CellSolution:
    rho = invariant_density(c, n)
    chi = corrector(c, rho, n)
    return CellSolution(rho=rho, chi=chi, mu=effective_diffusivity(c, rho, chi))
