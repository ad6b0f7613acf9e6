"""The limiting stochastic heat equations and their closed-form OU moments.

Every Fourier mode of a constant-coefficient stochastic heat equation
du = mu u_xx dt + sum_k c_k e_k dW_k is an independent complex OU
process, so its exact one-step transition and its second moments are
available in closed form.  The coefficient rule c_m distinguishes the
limit regimes:

  averaged     c_m = <q_m, rho>            (mode-wise weighted mean)
  fluctuation  c_m = |tail rho|_{-alpha}   (rescaled, centred noise)
  enhanced     c_m = (|<q_m,rho>|^2 - |<tail,rho>|^2 + |tail rho|^2)^(1/2)
  smoothed     enhanced with a mollified tail term
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cell import CellSolution
from .errors import ZeroMode
from .noise import (
    NoiseSpec,
    averaged_coefficient,
    enhanced_coefficient,
    fluctuation_coefficient,
    smoothed_coefficient,
)

__all__ = [
    "LimitModel",
    "averaged_model",
    "fluctuation_model",
    "enhanced_model",
    "smoothed_model",
    "ou_step_params",
    "ou_variance",
    "stationary_variance",
]


@dataclass(frozen=True)
class LimitModel:
    """Effective diffusivity plus a per-mode noise coefficient rule."""

    mu: float
    kind: str
    coeffs: dict
    mode_cutoff: int

    def coeff(self, m: int) -> complex:
        try:
            return self.coeffs[int(m)]
        except KeyError:
            raise KeyError(f"mode {m} beyond the model cutoff {self.mode_cutoff}")


def _build(kind: str, mu: float, cutoff: int, rule) -> LimitModel:
    coeffs = {}
    for m in range(0, cutoff + 1):
        c = rule(m)
        coeffs[m] = c
        coeffs[-m] = np.conj(c) if kind == "averaged" else c
    return LimitModel(mu=float(mu), kind=kind, coeffs=coeffs, mode_cutoff=cutoff)


def averaged_model(spec: NoiseSpec, cell: CellSolution, mode_cutoff: int) -> LimitModel:
    return _build("averaged", cell.mu, mode_cutoff,
                  lambda m: averaged_coefficient(spec, cell.rho, m))


def fluctuation_model(spec: NoiseSpec, cell: CellSolution, mode_cutoff: int) -> LimitModel:
    c = fluctuation_coefficient(spec, cell.rho)
    return _build("fluctuation", cell.mu, mode_cutoff, lambda m: c)


def enhanced_model(spec: NoiseSpec, cell: CellSolution, mode_cutoff: int) -> LimitModel:
    return _build("enhanced", cell.mu, mode_cutoff,
                  lambda m: enhanced_coefficient(spec, cell.rho, m))


def smoothed_model(spec: NoiseSpec, cell: CellSolution, mode_cutoff: int) -> LimitModel:
    return _build("smoothed", cell.mu, mode_cutoff,
                  lambda m: smoothed_coefficient(spec, cell.rho, m))


# -- exact OU moments -----------------------------------------------------------


def ou_step_params(model: LimitModel, m: int, delta: float) -> tuple[float, float]:
    """(decay factor, innovation variance E|xi|^2) for one exact step."""
    a = model.mu * m * m
    c2 = abs(model.coeff(m)) ** 2
    if a == 0.0:
        return 1.0, c2 * delta
    decay = np.exp(-a * delta)
    return float(decay), float(c2 * (1.0 - decay * decay) / (2.0 * a))


def ou_variance(model: LimitModel, m: int, t: float) -> float:
    """E |x_m(t)|^2 for the zero-started mode, in closed form."""
    a = model.mu * m * m
    c2 = abs(model.coeff(m)) ** 2
    if a == 0.0:
        return c2 * t
    return c2 * (1.0 - np.exp(-2.0 * a * t)) / (2.0 * a)


def stationary_variance(model: LimitModel, m: int) -> float:
    """|c_m|^2 / (2 mu m^2); undefined for the Brownian mode m = 0."""
    if m == 0:
        raise ZeroMode("mode 0 is Brownian and has no stationary variance")
    return abs(model.coeff(m)) ** 2 / (2.0 * model.mu * m * m)
