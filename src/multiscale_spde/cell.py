"""Unit-cell problems for the periodic generator L = b d/dx + (sigma^2/2) d2/dx2.

The invariant density rho (L* rho = 0), the corrector chi (L chi = -b)
and the effective diffusivity mu (the decay rate of slow modes,
exp(-mu m^2 t)) have a closed form in 1-D: centering makes the cell
reversible, and solve_cell evaluates that form by one FFT quadrature.
solve_cell is the one place the cell is measured: it checks ellipticity,
centering, the Galerkin residuals and the density's positivity, and its
CellSolution carries each measured value for the reports to read.
The spectral gap omega of the fast dynamics, and the finite-eps decay
rates that cross-check mu, come from the spectrum of the generator
restricted to a uniformly spaced set of wavenumbers, a small dense
matrix built from the coefficient convolutions.  eigenbasis is the one
checked eigen-decomposition of such a matrix, A = V diag(lam) V^-1, and
returns V^-1 with it; every flow exp(A t) in the package (the path
propagators, the semigroup flows) is V diag(exp(lam t)) V^-1 on it, with
NumPy's LAPACK alone.  gram is the one formula for a Gaussian second
moment on that basis: the covariance int_0^t e^{A s} G G* e^{A* s} ds of
dx = A x dt + G dW is V gram(lam, V^-1 G, t) V*, so the path engine's
one-step covariance, the exact variance tables and the limit's OU
variance are each a call to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResolutionTooSmall, SolveFailed
from .fourier import (SpectralField, cells, inner_product, l2_norm, multiply, require_resolved,
                      sobolev_norm)

__all__ = [
    "Coefficients",
    "CellSolution",
    "require_real",
    "generator_matrix",
    "eigenbasis",
    "gram",
    "require_slow_mode",
    "diffusivity_from_decay",
    "spectral_gap",
    "solve_cell",
]

DEFAULT_CELL_MODES = 128
# Points of the quadrature grid on which solve_cell evaluates the closed form.
CELL_GRID = 4096

# Residual contracts of the cell solution against the Galerkin generator.
RHO_RESIDUAL_TOL = 1e-8
CHI_RESIDUAL_TOL = 1e-8
# Centering: |mean(b/sigma^2)| at most this fraction of the rms of b/sigma^2.
CENTERING_RTOL = 1e-10
# The adjoint generator's kernel eigenvalue, relative to its spectral radius.
KERNEL_TOL = 1e-10
# Residue-class offsets |l| <= CLASS_OFFSETS of the slow-mode and unit-cell flows.
CLASS_OFFSETS = 12
# The slow eigenvalue's isolation: the next real part this many times further left.
ISOLATION = 4.0
# Contract of eigenbasis: |A V - V diag(lam)| at most EIGEN_RESIDUAL_TOL |A| |V|
# (Frobenius norms), and cond(V) at most EIGENBASIS_COND_MAX.  A flow
# V exp(lam t) V^-1 loses about log10 cond(V) digits, so at the bound it
# still holds ten.
EIGEN_RESIDUAL_TOL = 1e-12
EIGENBASIS_COND_MAX = 1e6


class Coefficients:
    """Drift b and diffusion sigma, periodic on [0, 2*pi], and sigma^2.

    Both are real trigonometric polynomials, which guarantees the
    smoothness the cell problems need; require_real refuses either field
    if it is not.  sigma^2 is formed once, here, as an exact dealiased
    product on twice sigma's band; nothing reassigns b or sigma.
    solve_cell checks ellipticity (min sigma > 0) and centering on its
    quadrature grid and refuses a cell that fails either (ValueError).
    """

    def __init__(self, b: SpectralField, sigma: SpectralField):
        require_real("b", b)
        require_real("sigma", sigma)
        self.b = b
        self.sigma = sigma
        # pad first: the square's band is twice sigma's and must be exact
        self.sigma_squared = multiply(sigma.pad_to(2 * sigma.n), sigma)
        # the largest |k| at which b or sigma^2 stores a nonzero amplitude, exactly
        self.reach = max(b.max_harmonic(), self.sigma_squared.max_harmonic())

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

    def __repr__(self) -> str:
        return f"Coefficients(J={self.max_harmonic})"


def require_real(name: str, f: SpectralField) -> None:
    """ValueError, naming coefficient `name` and the first k >= 0, where the amplitudes
    c_-k and conj c_k of f differ by more than 1e-12 of its largest amplitude (an
    unpaired -N/2 amplitude counts, against a zero at N/2).

    generator_matrix reads the complex amplitudes of b and sigma^2, solve_cell only the
    real part of their grid values, and spectral_gap's real form needs a real operator,
    so a b or sigma that is not a real field is refused before any of them runs.  The
    products of real fields are conjugate-symmetric to rounding only, which passes.
    """
    amps = f.pad_to(f.n + 2).coeffs[1:]  # -n/2 .. n/2: each k opposite its -k
    defect = np.abs(amps - amps[::-1].conj())[f.n // 2 :]
    bad = np.flatnonzero(defect > 1e-12 * np.abs(amps).max())
    if bad.size:
        raise ValueError(f"coefficients {name} is not a real field: |c_-k - conj c_k| = "
                         f"{defect[bad[0]]:.3e} at k = {bad[0]}, above 1e-12 max |c_k|")


def generator_matrix(c: Coefficients, ks, eps: float = 1.0, adjoint: bool = False) -> np.ndarray:
    """Dense matrix of L_eps (or its adjoint) on uniformly spaced wavenumbers.

    L_eps = (1/eps) b(x/eps) d/dx + (1/2) sigma^2(x/eps) d2/dx2.  The
    rows and columns are the given wavenumbers, which must be an
    arithmetic progression with spacing 1/eps; multiplication by an
    oscillated coefficient only couples within such a progression, so
    the matrix is exact (Galerkin truncation at the band edge).

    Entry (i, j) is zero unless |i - j| <= w, the largest offset at which
    b or sigma^2 stores a nonzero amplitude (read exactly, no tolerance),
    so only those 2w + 1 diagonals are computed, each entry by the
    expression the whole m x m symbol would use: one m x (2w + 1) band
    array (row i of the adjoint's, column j of the forward matrix's),
    written in one strided assignment along the diagonals of a zero
    buffer padded by w columns (rows) on each side, whose middle m x m is
    the matrix.
    """
    ks = np.asarray(ks, dtype=int)
    if (ks[1:] - ks[:-1] != cells(eps)).any():
        raise ValueError("wavenumbers must be consecutive in steps of 1/eps")

    m = ks.size
    w = min(c.reach, m - 1)
    # the symbols at the offsets -w .. w: the band -(w + 1) .. w without its first entry
    b_band, s2_band = (f.truncate(2 * w + 2).coeffs[1:] for f in (c.b, c.sigma_squared))
    if adjoint:
        # L* f = -(1/eps)((b^eps) f)' + (1/2)((sigma^2)^eps f)''
        band = (-1j * ks[:, None]) * b_band[::-1] / eps + (-0.5 * ks[:, None]**2) * s2_band[::-1]
        shape, steps = (m, m + 2 * w), (m + 2 * w + 1, 1)  # row i: offsets w .. -w
    else:
        band = (1j * ks[:, None]) * b_band / eps + (-0.5 * ks[:, None]**2) * s2_band
        shape, steps = (m + 2 * w, m), (m + 1, m)  # column j: offsets -w .. w
    out = np.zeros(shape, dtype=complex)
    np.ndarray(band.shape, complex, out, 0, tuple(out.itemsize * k for k in steps))[...] = band
    return np.ascontiguousarray(out[:, w : w + m] if adjoint else out[w : w + m])


def eigenbasis(matrix: np.ndarray, block: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lam, V, V^-1) of a generator block, A = V diag(lam) V^-1.

    Every flow exp(A t) of the package is V diag(exp(lam t)) V^-1 on this
    basis, and every second moment V gram(lam, V^-1 G, t) V*, so no caller
    inverts or solves with V itself.  SolveFailed, naming the block, unless
    the eigen-residual and cond(V) meet EIGEN_RESIDUAL_TOL and
    EIGENBASIS_COND_MAX.
    """
    lam, vecs = np.linalg.eig(matrix)
    norm = np.linalg.norm
    residual = norm(matrix @ vecs - vecs * lam)
    scale = norm(matrix) * norm(vecs)
    if not residual <= EIGEN_RESIDUAL_TOL * scale:
        raise SolveFailed(f"{block}: eigen-residual {residual:.3e} above "
                          f"{EIGEN_RESIDUAL_TOL:g} x {scale:.3e}")
    cond = np.linalg.cond(vecs)
    if not cond <= EIGENBASIS_COND_MAX:
        raise SolveFailed(f"{block}: eigenvector condition number {cond:.3e} above "
                          f"{EIGENBASIS_COND_MAX:g}")
    return lam, vecs, np.linalg.inv(vecs)


def gram(lam: np.ndarray, h: np.ndarray, t, rate=None) -> np.ndarray:
    """(H H*) o expm1(t rate(s)) / s with s = lam_i + conj lam_j, and t H H* where s = 0.

    With rate(s) = s (rate None) this is int_0^t e^{lam_i u} (H H*)_ij
    e^{conj lam_j u} du, so for dx = A x dt + G dW on the eigenbasis
    (lam, V, V^-1) of A, the covariance of x(t) from x(0) = 0 is
    V gram(lam, V^-1 G, t) V*.  A 1 x 1 lam = -a, h = c is the OU variance
    |c|^2 (1 - e^{-2 a t}) / (2 a), t |c|^2 at a = 0, |c|^2 / (2 a) at
    t = inf.  Another rate gives another scheme's iterate: rate(s) =
    2 atanh(dt s / 2) / dt is the implicit trapezoid rule's at t = k dt.
    An array t gives one matrix per time, stacked along a leading axis.
    """
    s = lam[:, None] + lam.conj()[None, :]
    still = s == 0
    t = np.asarray(t, dtype=float)[..., None, None]
    phi = np.where(still, t, np.expm1(t * (s if rate is None else rate(s)))
                   / np.where(still, 1.0, s))
    return (h @ h.conj().T) * phi


def require_slow_mode(eps: float, m: int) -> None:
    """ValueError unless m is nonzero (mode 0 does not decay) and resolved at eps."""
    if m == 0:
        raise ValueError(f"mode m = 0 does not decay at eps = {eps:g}; give a mode m != 0")
    require_resolved(eps, m)


def diffusivity_from_decay(c: Coefficients, eps: float, m: int) -> float:
    """mu at finite eps: the decay rate of the slow mode e_m over m^2.

    The rate is -max Re(lambda) over the eigenvalues of the adjoint
    generator L_eps* on the residue class m + (1/eps) l, |l| <= CLASS_OFFSETS.
    It comes from the spectrum alone, independently of solve_cell's
    closed form, and differs from mu by O((eps m)^2) (about -2.8 (eps m)^2 mu
    for the A = 1 cosine potential), so a cross-validation of mu has to
    extrapolate to eps -> 0, e.g. (4 rate(eps / 2) - rate(eps)) / 3.  The
    slow eigenvalue must be real to KERNEL_TOL of the spectral radius and
    isolated, the next real part at least ISOLATION times further left,
    else SolveFailed.
    """
    require_slow_mode(eps, m)
    ks = m + cells(eps) * np.arange(-CLASS_OFFSETS, CLASS_OFFSETS + 1)
    evals = np.linalg.eigvals(generator_matrix(c, ks, eps=eps, adjoint=True))
    slow, following = evals[np.argsort(-evals.real)[:2]]
    if abs(slow.imag) > KERNEL_TOL * np.abs(evals).max():
        raise SolveFailed(f"slow eigenvalue {slow:.3e} is not real")
    if following.real > ISOLATION * slow.real:
        raise SolveFailed(f"slow eigenvalue {slow.real:.3e} is not isolated: the next "
                          f"real part is {following.real:.3e}")
    return float(-slow.real / m**2)


def _gather(m: np.ndarray, partner: np.ndarray, first: np.ndarray, paired: np.ndarray,
            w: float) -> np.ndarray:
    """U^-1 M U (w = 1) or U^-1 M U^-* (w = 1/2) of a conjugate-symmetric M.

    U is the cos/sin change of basis of solver._real_form: coordinate j is
    real when partner[j] = j, and j, j' = partner[j] are a conjugate pair
    (first: j <= partner[j], paired: j < partner[j]); the real coordinates
    are Re X_j for every first j, then Im X_j for every paired j.
    spectral_gap uses it on the mirror pairs k <-> -k of its band.

    The columns of M U (of M U^-*) are M_j for a real j, w (M_j + M_j')
    for the cos and 1j w (M_j - M_j') for the sin coordinate of a pair
    j, j' = partner[j].  Conjugate symmetry makes row i' of those the
    conjugate of row i, so U^-1 takes the real part of row i for its cos
    coordinate and the imaginary part for its sin coordinate.
    """
    pair_of_first = paired[first]
    cos_cols = m[:, first]
    cos_cols[:, pair_of_first] = w * (cos_cols[:, pair_of_first]
                                      + m[:, partner[first][pair_of_first]])
    sin_cols = w * (m[:, paired] - m[:, partner[paired]])  # 1j times these
    return np.block([[cos_cols[first].real, -sin_cols[first].imag],
                     [cos_cols[paired].imag, sin_cols[paired].real]])


def spectral_gap(c: Coefficients) -> float:
    """Spectral gap omega: the forgetting rate of the fast flow d/dt g = L* g.

    omega = -max Re(lambda) over the nonzero spectrum of the adjoint
    generator on the 95 wavenumbers -47 .. 47, build_blocks' band
    -N/2 < k < N/2 at N = 96.  The operator is real (Coefficients), so its
    matrix is conjugate-symmetric under the mirror k <-> -k, row i <-> 94 - i,
    and its eigenvalues are those of the real 95 x 95 matrix U^-1 A U on
    the cos/sin coordinates of those pairs (_gather), which costs about
    half of the complex problem.  The kernel, spanned by the invariant
    density, is the eigenvalue of smallest modulus; it must vanish to
    KERNEL_TOL of the spectral radius, else SolveFailed.
    """
    idx = np.arange(95)
    a = generator_matrix(c, idx - 47, adjoint=True)  # row i is k = i - 47, row 94 - i is -k
    evals = np.linalg.eigvals(_gather(a, idx[::-1], idx <= 47, idx < 47, 1.0))
    kernel = int(np.argmin(np.abs(evals)))
    if abs(evals[kernel]) > KERNEL_TOL * np.abs(evals).max():
        raise SolveFailed(f"adjoint generator kernel eigenvalue {evals[kernel]:.3e} "
                          "is not zero")
    return float(-np.delete(evals, kernel).real.max())


@dataclass(frozen=True, eq=False)  # compared by identity: == on an array field is ambiguous
class CellSolution:
    """Invariant density, corrector and effective diffusivity, with what
    solve_cell checked: the Galerkin residuals |L* rho| and |L chi + b|, min
    sigma and |mean(b/sigma^2)| on CELL_GRID points, and rho on the
    max(4n, 256) points where its positivity was checked."""

    rho: SpectralField
    chi: SpectralField
    mu: float
    rho_residual: float
    chi_residual: float
    sigma_min: float
    centering: float
    rho_grid: np.ndarray

    @property
    def enhancement(self) -> float:
        """|rho|, the white-noise amplification factor (>= 1)."""
        return l2_norm(self.rho)


def _real_field(positive: np.ndarray, mean: float, n: int) -> SpectralField:
    """The real field on -n/2 .. n/2 - 1 with amplitudes mean at k = 0 and positive
    at k = 1 .. n/2 - 1; the negative half is their conjugate, the unpaired -n/2 zero."""
    coeffs = np.zeros(n, dtype=complex)
    coeffs[n // 2] = mean
    coeffs[n // 2 + 1 :] = positive
    coeffs[n // 2 - 1 : 0 : -1] = np.conj(positive)
    return SpectralField(coeffs)


def solve_cell(c: Coefficients, n: int = DEFAULT_CELL_MODES) -> CellSolution:
    """Invariant density, corrector and mu of a centred cell, in closed form.

    Centering, mean(b/sigma^2) = 0, makes the 1-D cell reversible.  With
    the periodic Phi(x) = integral_0^x 2b/sigma^2:

      sigma^2 rho is proportional to exp(Phi)   (zero flux, so L* rho = 0),
      1 + chi' = K / (sigma^2 rho)              (L chi = -b), K = 1 / <1/(sigma^2 rho)>,
      mu = <(sigma^2/2)(1 + chi')^2, rho> = K / 2.

    Each is one FFT quadrature of a smooth periodic integrand on CELL_GRID
    points, exact to rounding.  rho and chi keep the wavenumbers |k| < n/2,
    the negative half the conjugate of the positive one, so both are real
    by construction; rho is divided by its own k = 0 amplitude, so
    <rho, 1> = 1 exactly, and chi's mean makes <chi, rho> = 0.

    Contracts against the Galerkin generator on that band: the stationarity
    residual |L* rho| at most RHO_RESIDUAL_TOL |rho|_{H^2}, the corrector
    residual |L chi + b| at most CHI_RESIDUAL_TOL |b|, and rho positive on
    max(4n, 256) points; SolveFailed if one fails.  The closed form admits
    only an elliptic, centred cell, which is checked first, on the
    quadrature grid: a ValueError if sigma is not positive there or
    |mean(b/sigma^2)| is above CENTERING_RTOL times the rms of b/sigma^2.
    The solution carries each measured value.
    """
    sig = np.real(c.sigma.to_grid(CELL_GRID))
    sigma_min = float(sig.min())
    if not sigma_min > 0.0:
        raise ValueError(f"sigma is not positive on the grid: min sigma = {sigma_min:.3e}")
    s2 = sig**2
    ratio = np.real(c.b.to_grid(CELL_GRID)) / s2
    centering = abs(float(np.mean(ratio)))
    bound = CENTERING_RTOL * float(np.sqrt(np.mean(ratio**2)))
    if not centering <= bound:
        raise ValueError(f"cell is not centred: |mean(b/sigma^2)| = {centering:.3e} "
                         f"above {bound:.3e}")
    if n > CELL_GRID:
        raise ResolutionTooSmall(f"n = {n} modes exceed the {CELL_GRID}-point quadrature grid")

    ks = np.arange(1, CELL_GRID // 2 + 1)
    phi_hat = np.fft.rfft(2.0 * ratio)
    phi_hat[0] = 0.0
    phi_hat[1:] /= 1j * ks
    phi = np.fft.irfft(phi_hat, CELL_GRID)
    p_hat = np.fft.rfft(np.exp(phi) / s2)  # rho up to its normalisation
    q_hat = np.fft.rfft(np.exp(-phi))  # 1 + chi' up to its normalisation
    half = n // 2
    rho = _real_field(p_hat[1:half] / p_hat[0].real, 1.0, n)
    chi = _real_field(q_hat[1:half] / (1j * ks[: half - 1] * q_hat[0].real), 0.0, n)
    chi.coeffs[half] = -inner_product(chi, rho).real
    # K / 2, where <1/(sigma^2 rho)> = <exp(-Phi)> <exp(Phi)/sigma^2>
    mu = 0.5 * CELL_GRID**2 / (p_hat[0].real * q_hat[0].real)

    adj = generator_matrix(c, np.arange(-half + 1, half), adjoint=True)
    rho_residual = float(np.linalg.norm(adj @ rho.coeffs[1:]))
    if not rho_residual <= RHO_RESIDUAL_TOL * sobolev_norm(rho, 2):
        raise SolveFailed(f"stationarity residual {rho_residual:.3e} above tolerance")
    chi_residual = float(np.linalg.norm(adj.conj().T @ chi.coeffs[1:]
                                        + c.b.truncate(n).coeffs[1:]))
    if not chi_residual <= CHI_RESIDUAL_TOL * l2_norm(c.b):
        raise SolveFailed(f"corrector residual {chi_residual:.3e} above tolerance")
    rho_grid = np.real(rho.to_grid(max(4 * n, 256)))
    if not rho_grid.min() > 0.0:
        raise SolveFailed("computed density is not positive on the grid")
    return CellSolution(rho=rho, chi=chi, mu=float(mu), rho_residual=rho_residual,
                        chi_residual=chi_residual, sigma_min=sigma_min, centering=centering,
                        rho_grid=rho_grid)
