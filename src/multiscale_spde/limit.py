"""The limiting stochastic heat equations, their noise coefficients and OU moments.

Every Fourier mode of a constant-coefficient stochastic heat equation
du = mu u_xx dt + sum_k c_k e_k dW_k is an independent complex OU
process, so its second moments are available in closed form: its
variance is cell.gram on the 1 x 1 generator -mu m^2, the same formula
the path engine's class transitions (solver._transition) step it by.
The regime fixes the coefficient rule c_m,
and ``limit_model(regime, ...)`` is the one place that chooses it:

  averaged     c_m = <q_m, rho>            (mode-wise weighted mean)
  fluctuation  c_m = |tail rho|_{-alpha}   (rescaled, centred noise)
  enhanced     c_m = (|<q_m,rho>|^2 - |<tail,rho>|^2 + |tail rho|^2)^(1/2)
  smoothed     enhanced with tail rho filtered by the mollifier symbol
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cell import CellSolution, gram
from .errors import NegativeRadicand
from .fourier import SpectralField, inner_product, l2_norm, multiply, seminorm_neg
from .noise import NoiseSpec

__all__ = [
    "REGIMES",
    "LimitModel",
    "limit_model",
    "averaged_coefficient",
    "fluctuation_coefficient",
    "enhanced_coefficient",
    "smoothed_coefficient",
    "ou_variance",
]

REGIMES = ("averaged", "fluctuation", "enhanced", "smoothed")


@dataclass(frozen=True)
class LimitModel:
    """Effective diffusivity plus a per-mode noise coefficient rule."""

    mu: float
    coeffs: dict
    mode_cutoff: int

    def coeff(self, m: int) -> complex:
        try:
            return self.coeffs[int(m)]
        except KeyError:
            raise KeyError(f"mode {m} beyond the model cutoff {self.mode_cutoff}")


# -- limit noise coefficients --------------------------------------------------


def averaged_coefficient(spec: NoiseSpec, rho: SpectralField, m: int) -> complex:
    """<q_m, rho>: the density-weighted mean of the mode-m profile."""
    return inner_product(spec.profile(m), rho)


def fluctuation_coefficient(spec: NoiseSpec, rho: SpectralField) -> float:
    """|tail * rho|_{-alpha}, the flat coefficient of the rescaled limit.

    Requires the product to be mean-zero (automatic for profiles centred
    against rho); raises MeanNotZero otherwise.
    """
    if spec.tail is None:
        raise ValueError("spec declares no tail profile")
    return seminorm_neg(multiply(spec.tail, rho), spec.alpha)


def _root_radicand(spec: NoiseSpec, rho: SpectralField, m: int, phi) -> float:
    """(|<q_m, rho>|^2 - |<tail, rho>|^2 + sum_l |phi(l)|^2 |<tail rho, e_l>|^2)^(1/2)."""
    if spec.tail is None:
        raise ValueError("spec declares no tail profile")
    prod = multiply(spec.tail, rho)
    band = SpectralField(prod.coeffs * np.abs([phi(float(l)) for l in prod.wavenumbers]))
    radicand = (abs(averaged_coefficient(spec, rho, m)) ** 2
                - abs(inner_product(spec.tail, rho)) ** 2 + l2_norm(band) ** 2)
    if radicand < -1e-12:
        raise NegativeRadicand(f"coefficient radicand {radicand:.3e} < 0")
    return float(np.sqrt(max(radicand, 0.0)))


def enhanced_coefficient(spec: NoiseSpec, rho: SpectralField, m: int) -> float:
    """(|<q_m, rho>|^2 - |<tail, rho>|^2 + |tail rho|^2)^(1/2).

    For q_k identically 1 this equals |rho|: the white-noise
    amplification produced by a non-trivial cell.
    """
    return _root_radicand(spec, rho, m, lambda l: 1.0)


def smoothed_coefficient(spec: NoiseSpec, rho: SpectralField, m: int) -> float:
    """Enhanced coefficient with the tail energy filtered by the mollifier.

    The |tail rho|^2 term becomes sum_l |phi(l)|^2 |<tail rho, e_l>|^2;
    phi = 1 on the active band recovers the enhanced coefficient, a
    symbol concentrated at 0 recovers the averaged one.
    """
    if spec.mollifier is None:
        raise ValueError("spec declares no mollifier symbol")
    return _root_radicand(spec, rho, m, spec.mollifier)


def limit_model(regime: str, spec: NoiseSpec, cell: CellSolution,
                mode_cutoff: int) -> LimitModel:
    """The limit equation of `regime`: mu and c_m for |m| <= mode_cutoff, c_-m = conj(c_m)."""
    if regime == "fluctuation":
        flat = fluctuation_coefficient(spec, cell.rho)
        rule = lambda m: flat
    elif regime in REGIMES:
        coefficient = {"averaged": averaged_coefficient, "enhanced": enhanced_coefficient,
                       "smoothed": smoothed_coefficient}[regime]
        rule = lambda m: coefficient(spec, cell.rho, m)
    else:
        raise ValueError(f"unknown limit regime {regime!r}; "
                         f"the regimes are {', '.join(REGIMES)}")
    coeffs = {}
    for m in range(0, mode_cutoff + 1):
        coeffs[m] = rule(m)
        coeffs[-m] = np.conj(coeffs[m])
    return LimitModel(mu=float(cell.mu), coeffs=coeffs, mode_cutoff=mode_cutoff)


# -- exact OU moments -----------------------------------------------------------


def ou_variance(model: LimitModel, m: int, t: float) -> float:
    """E |x_m(t)|^2 for the zero-started mode: gram(-mu m^2, c_m, t).

    That is |c_m|^2 (1 - e^{-2 mu m^2 t}) / (2 mu m^2), and t = np.inf
    gives the stationary variance |c_m|^2 / (2 mu m^2); a mode with
    mu m^2 = 0 (the Brownian mode 0) has variance |c_m|^2 t and no
    stationary one, and asking for it at a non-finite t is a ValueError.
    """
    a = model.mu * m * m
    if a == 0.0 and not np.isfinite(t):
        raise ValueError(f"mode {m} has no stationary variance: its decay rate mu m^2 is 0")
    return float(gram(np.array([-a]), np.array([[model.coeff(m)]]), t)[0, 0].real)
