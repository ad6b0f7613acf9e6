"""Numerical laboratory for spatial homogenisation of stochastic heat equations.

Simulates du = L_eps u dt + sum_k q_k(x/eps) e_k dW_k on the periodic
interval, solves the associated unit-cell problems, and verifies the
homogenised limits (averaged, rescaled-fluctuation, white-noise-enhanced
and mollified) by exact covariance computation and Monte Carlo.
"""

from .cell import (
    CellSolution,
    Coefficients,
    diffusivity_from_decay,
    solve_cell,
    spectral_gap,
)
from .fourier import (
    SpectralField,
    inner_product,
    l2_norm,
    multiply,
    oscillate,
    seminorm_neg,
    sobolev_norm,
)
from .limit import (
    REGIMES,
    LimitModel,
    averaged_coefficient,
    enhanced_coefficient,
    fluctuation_coefficient,
    limit_model,
    ou_variance,
    smoothed_coefficient,
)
from .noise import NoiseSpec, coupling_series, wiener_streams
from .solver import (
    BlockOperator,
    PathOutput,
    SolverConfig,
    apply_generator,
    build_blocks,
    exact_mode_covariance,
    simulate_paths,
    suggest_modes,
)

__version__ = "0.1.0"
