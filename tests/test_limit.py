"""Tests for the limit models, their noise coefficients and closed-form OU moments."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import iv

from multiscale_spde.fourier import SpectralField
from multiscale_spde.limit import (
    REGIMES,
    LimitModel,
    limit_model,
    ou_variance,
)
from multiscale_spde.noise import NoiseSpec, tent_mollifier

I0_2, I0_4 = iv(0, 2.0), iv(0, 4.0)


def scalar_model(mu=1.0, coeff=1.0, cutoff=4):
    coeffs = {m: coeff for m in range(-cutoff, cutoff + 1)}
    return LimitModel(mu=mu, coeffs=coeffs, mode_cutoff=cutoff)


class TestExactSampler:
    def test_variance_identity_against_scalar_lyapunov(self):
        """v(t + h) = e^{-2 mu m^2 h} v(t) + v(h), propagated over the grid, at 1e-12."""
        model = scalar_model(mu=0.7, coeff=1.3)
        t_grid = np.concatenate([[0.0], np.sort(np.random.default_rng(0).uniform(
            0.05, 3.0, 40))])
        for m in (1, 3):
            var = 0.0
            for i in range(1, t_grid.size):
                h = t_grid[i] - t_grid[i - 1]
                var = np.exp(-2.0 * model.mu * m * m * h) * var + ou_variance(model, m, h)
                assert abs(var - ou_variance(model, m, t_grid[i])) <= 1e-12

    def test_mode_zero_is_real_brownian(self):
        model = scalar_model()
        assert abs(ou_variance(model, 0, 0.7) - 0.7) <= 1e-14


class TestStationaryVariance:
    def test_scalar_values(self):
        model = scalar_model()
        assert_allclose(ou_variance(model, 1, np.inf), 0.5)
        assert_allclose(ou_variance(model, 2, np.inf), 0.125)

    @pytest.mark.parametrize("c0", [0.0, 0.8])
    def test_zero_rate_has_no_stationary_variance(self, c0):
        model = LimitModel(1.0, {0: c0, 1: 0.0}, 1)
        with pytest.raises(ValueError, match="mode 0 has no stationary variance"):
            ou_variance(model, 0, np.inf)
        assert ou_variance(model, 0, 0.7) == abs(c0) ** 2 * 0.7

    @pytest.mark.parametrize("mu, m, t", [(0.7, 2, 0.3), (0.7, 2, 40.0), (0.7, -2, np.inf),
                                          (0.7, 0, 2.5), (0.0, 3, 0.3)],
                             ids=["finite", "long", "stationary", "mode-0", "mu-0"])
    def test_is_the_ou_closed_form(self, mu, m, t):
        """c^2 (1 - e^{-2 a t}) / (2 a), a = mu m^2, its t = inf limit, and c^2 t at a = 0."""
        c = 0.8 - 0.3j
        model = LimitModel(mu, {m: c}, abs(m))
        a = mu * m * m
        want = abs(c) ** 2 * (t if a == 0.0 else (1.0 - np.exp(-2.0 * a * t)) / (2.0 * a))
        assert abs(ou_variance(model, m, t) - want) <= 1e-15 * want

    def test_enhanced_cosine_value(self, cosine_cell):
        """|rho|^2 / (2 mu) collapses to I0(4) for the unit cosine potential."""
        model = limit_model("enhanced", NoiseSpec.white(4), cosine_cell, 2)
        got = ou_variance(model, 1, np.inf)
        assert_allclose(got, (I0_4 / I0_2**2) / (2.0 * cosine_cell.mu), rtol=1e-10)
        assert_allclose(got, I0_4, rtol=1e-9)
        assert_allclose(got, 11.302, atol=1e-3)


class TestModels:
    def test_averaged_white_reproduces_classical_coefficients(self, cosine_cell):
        model = limit_model("averaged", NoiseSpec.white(8), cosine_cell, 4)
        for m in range(-4, 5):
            assert_allclose(model.coeff(m), 1.0)

    @pytest.mark.parametrize("regime", REGIMES)
    def test_negative_modes_carry_the_conjugate(self, cosine_cell, regime):
        spec = NoiseSpec.power_decay(0.5, 16, profile=SpectralField.from_modes(
            {0: 1.0, 1: 0.5 - 0.2j, -1: 0.5 + 0.2j}), mollifier=tent_mollifier(3.0))
        model = limit_model(regime, spec.centered(cosine_cell.rho), cosine_cell, 3)
        assert model.mu == cosine_cell.mu and model.mode_cutoff == 3
        for m in range(0, 4):
            assert model.coeff(-m) == np.conj(model.coeff(m))

    def test_mode_beyond_the_cutoff_is_rejected(self):
        with pytest.raises(KeyError, match=r"mode 5 beyond the model cutoff 4"):
            scalar_model(cutoff=4).coeff(5)

    def test_unknown_regime_is_rejected(self, cosine_cell):
        with pytest.raises(ValueError, match=r"unknown limit regime 'enhancd'; the regimes "
                                             r"are averaged, fluctuation, enhanced, smoothed"):
            limit_model("enhancd", NoiseSpec.white(8), cosine_cell, 2)
