"""Tests for the spectral field layer: norms, products, oscillation."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from multiscale_spde.errors import MeanNotZero, ResolutionTooSmall
from multiscale_spde.fourier import (
    SpectralField,
    cells,
    conjugation_defect,
    inner_product,
    l2_norm,
    multiply,
    oscillate,
    seminorm_neg,
    sobolev_norm,
)


def random_real_field(rng, band, n):
    f = SpectralField.zero(n)
    f.coeffs[n // 2] = rng.standard_normal()
    for k in range(1, band + 1):
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        f.coeffs[n // 2 + k] = amp
        f.coeffs[n // 2 - k] = np.conj(amp)
    return f


class TestBasics:
    @pytest.mark.parametrize("make, error, message", [
        (lambda: SpectralField(np.zeros(3)), ValueError,
         r"^coefficients must be a 1-D vector of even length >= 2$"),
        (lambda: SpectralField(np.zeros(0)), ValueError,
         r"^coefficients must be a 1-D vector of even length >= 2$"),
        (lambda: SpectralField.from_modes({4: 1.0}, n=8), ResolutionTooSmall,
         r"^wavenumber 4 outside band of n=8$"),
        (lambda: SpectralField.from_grid(np.ones(5)), ValueError, r"^grid size must be even$"),
        (lambda: SpectralField.zero(8).pad_to(4), ValueError,
         r"^pad_to cannot shrink; use truncate$"),
        (lambda: SpectralField.zero(8).to_grid(4), ResolutionTooSmall,
         r"^grid coarser than the stored band$"),
    ], ids=["odd-vector", "short-vector", "outside-band", "odd-grid", "pad-shrinks",
            "coarse-grid"])
    def test_guards(self, make, error, message):
        with pytest.raises(error, match=message):
            make()

    def test_grid_round_trip(self):
        rng = np.random.default_rng(0)
        f = random_real_field(rng, 10, 64)
        back = SpectralField.from_grid(f.to_grid())
        assert l2_norm(back - f) <= 1e-12 * l2_norm(f)

    def test_real_field_has_real_grid_values(self):
        rng = np.random.default_rng(1)
        f = random_real_field(rng, 12, 64)
        assert conjugation_defect(f) == 0.0
        assert np.abs(f.to_grid().imag).max() < 1e-13

    def test_coeff_outside_band_is_zero(self):
        f = SpectralField.basis(3, 16)
        assert f.coeff(100) == 0j

    def test_inner_product_orthonormality(self):
        e1 = SpectralField.basis(1, 8)
        e2 = SpectralField.basis(2, 8)
        assert_allclose(inner_product(e1, e1), 1.0)
        assert_allclose(inner_product(e1, e2), 0.0)

    def test_inner_product_pads_mismatched_resolutions(self):
        a = SpectralField.basis(1, 4)
        b = SpectralField.basis(1, 32)
        assert_allclose(inner_product(a, b), 1.0)


class TestNorms:
    def test_sobolev_examples(self):
        assert_allclose(sobolev_norm(SpectralField.basis(2, 8), 1.0), np.sqrt(5.0))
        for s in (-2.0, 0.0, 1.5):
            assert_allclose(sobolev_norm(SpectralField.basis(0, 8), s), 1.0)
        f = SpectralField.from_modes({1: 1.0, -1: 1.0})
        assert_allclose(sobolev_norm(f, -1.0), 1.0)

    def test_seminorm_examples(self):
        f = SpectralField.from_modes({2: 1.0, -2: 1.0})
        assert_allclose(seminorm_neg(f, 0.5), 1.0)
        with pytest.raises(MeanNotZero):
            seminorm_neg(SpectralField.constant(1.0, 8), 0.5)

    def test_seminorm_of_centred_density(self, cosine_cell, gibbs_grid):
        """At s = 0 the seminorm of rho - 1 equals sqrt(|rho|^2 - 1)."""
        rho = cosine_cell.rho
        centred = rho - SpectralField.constant(1.0, 2)
        # quadrature oracle for |rho|^2
        rho_sq = float(np.mean(gibbs_grid(1.0) ** 2))
        assert_allclose(seminorm_neg(centred, 0.0), np.sqrt(rho_sq - 1.0), rtol=1e-10)
        assert_allclose(seminorm_neg(centred, 0.0), 1.08393108, rtol=1e-7)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_parseval(self, seed):
        rng = np.random.default_rng(seed)
        f = random_real_field(rng, 10, 64)
        grid_mean_sq = float(np.mean(np.abs(f.to_grid()) ** 2))
        assert_allclose(grid_mean_sq, l2_norm(f) ** 2, rtol=1e-12, atol=1e-300)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_seminorm_mean_split(self, seed):
        """seminorm(f - mean, 0)^2 + |<f,1>|^2 = |f|^2."""
        rng = np.random.default_rng(seed)
        f = random_real_field(rng, 8, 32)
        mean = f.coeff(0)
        centred = f - SpectralField.constant(mean, 2)
        assert_allclose(seminorm_neg(centred, 0.0) ** 2 + abs(mean) ** 2,
                        l2_norm(f) ** 2, rtol=1e-12)


class TestMultiply:
    def test_exponential_product(self):
        e1 = SpectralField.basis(1, 16)
        e2 = SpectralField.basis(2, 16)
        prod = multiply(e1, e2)
        assert_allclose(prod.coeff(3), 1.0, atol=1e-14)
        assert l2_norm(prod - SpectralField.basis(3, 16)) < 1e-13

    def test_identity(self):
        rng = np.random.default_rng(3)
        f = random_real_field(rng, 8, 32)
        assert l2_norm(multiply(f, SpectralField.constant(1.0, 32)) - f) < 1e-13

    def test_square_expansion(self):
        f = SpectralField.from_modes({1: 1.0, -1: 1.0}, 16)
        sq = multiply(f, f)
        expected = SpectralField.from_modes({2: 1.0, 0: 2.0, -2: 1.0}, 16)
        assert l2_norm(sq - expected) < 1e-13

    def test_realness_preserved(self):
        rng = np.random.default_rng(4)
        f = random_real_field(rng, 6, 32)
        g = random_real_field(rng, 6, 32)
        assert conjugation_defect(multiply(f, g)) < 1e-13

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_direct_convolution(self, seed):
        """Dealiased product equals coefficient convolution on small bands."""
        rng = np.random.default_rng(seed)
        f = random_real_field(rng, 4, 32)
        g = random_real_field(rng, 4, 32)
        prod = multiply(f, g)
        for k in range(-10, 11):
            direct = sum(f.coeff(j) * g.coeff(k - j) for j in range(-4, 5))
            assert abs(prod.coeff(k) - direct) < 1e-12


class TestOscillate:
    def test_constant_becomes_plane_wave(self):
        out = oscillate(SpectralField.constant(1.0), 0.25, 2)
        assert_allclose(out.coeff(2), 1.0)
        assert_allclose(l2_norm(out), 1.0)

    def test_single_harmonic(self):
        out = oscillate(SpectralField.basis(1, 4), 0.25, 0)
        assert_allclose(out.coeff(4), 1.0)
        assert_allclose(l2_norm(out), 1.0)

    def test_against_direct_grid_evaluation(self):
        """q = 2 cos(y), eps = 1/8, k = 3 lands on wavenumbers 11 and -5."""
        q = SpectralField.from_modes({1: 1.0, -1: 1.0})
        out = oscillate(q, 1.0 / 8.0, 3)
        assert_allclose(out.coeff(11), 1.0)
        assert_allclose(out.coeff(-5), 1.0)
        n = 64
        x = 2.0 * np.pi * np.arange(n) / n
        direct = SpectralField.from_grid(2.0 * np.cos(8.0 * x) * np.exp(3j * x))
        assert l2_norm(out.pad_to(n) - direct) < 1e-12

    def test_support_is_residue_class(self):
        rng = np.random.default_rng(7)
        q = random_real_field(rng, 5, 16)
        out = oscillate(q, 1.0 / 4.0, 3)
        allowed = {3 + 4 * j for j in range(-8, 9)}
        for k in out.wavenumbers:
            if int(k) not in allowed:
                assert abs(out.coeff(int(k))) == 0.0

    def test_resolution_guard(self):
        with pytest.raises(ResolutionTooSmall):
            oscillate(SpectralField.basis(1, 4), 0.125, 0, n=8)

    def test_requires_integer_cells(self):
        with pytest.raises(ValueError):
            oscillate(SpectralField.constant(1.0), 0.3, 0)


class TestCells:
    @pytest.mark.parametrize("eps, count", [(1.0, 1), (0.5, 2), (1 / 16, 16), (1 / 1024, 1024)])
    def test_reciprocal_integers_are_accepted(self, eps, count):
        assert cells(eps) == count and type(cells(eps)) is int

    @pytest.mark.parametrize("eps, shown", [
        (0.3, "0.3"), (0.0, "0"), (-0.25, "-0.25"), (2.0, "2"), (np.nan, "nan"),
        (np.inf, "inf"), (5e-324, "4.94066e-324"),  # 1/eps overflows to inf
    ])
    def test_everything_else_is_rejected(self, eps, shown):
        message = f"eps = {shown} is not the reciprocal of a positive integer"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cells(eps)
