"""Tests for noise families, validators, limit coefficients and sampling."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import iv

from multiscale_spde.errors import MeanNotZero, TruncationTooSmall
from multiscale_spde.fourier import (
    SpectralField,
    conjugation_defect,
    inner_product,
    l2_norm,
)
from multiscale_spde.limit import (
    averaged_coefficient,
    enhanced_coefficient,
    fluctuation_coefficient,
    smoothed_coefficient,
)
from multiscale_spde.noise import (
    NoiseSpec,
    WienerStream,
    bump_mollifier,
    check_decay,
    check_tail_convergence,
    check_tail_summability,
    coupling_series,
    tent_mollifier,
)

I0_2 = iv(0, 2.0)
I0_4 = iv(0, 4.0)
I1_2 = iv(1, 2.0)

ONE_PLUS_COS = SpectralField.from_modes({0: 1.0, 1: 0.5, -1: 0.5})


class TestFamilies:
    def test_profiles_are_symmetric_and_real(self):
        spec = NoiseSpec.power_decay(0.6, 32, profile=ONE_PLUS_COS)
        for k in (0, 1, 5, 17):
            assert l2_norm(spec.profile(k) - spec.profile(-k)) == 0.0
            assert conjugation_defect(spec.profile(k)) < 1e-14

    def test_white_centering_is_rejected(self, cosine_cell):
        with pytest.raises(ValueError):
            NoiseSpec.white(8).centered(cosine_cell.rho)

    def test_centred_family(self, cosine_cell):
        spec = NoiseSpec.power_decay(0.5, 32, profile=ONE_PLUS_COS)
        centred = spec.centered(cosine_cell.rho)
        for k in (0, 1, 3, 9):
            assert abs(inner_product(centred.profile(k), cosine_cell.rho)) <= 1e-12
        # the common tail then also has vanishing density mean
        assert abs(inner_product(centred.tail, cosine_cell.rho)) <= 1e-8


def branch_profile(family, k, alpha=0.0, tail=None, tail_rate=1.0, ripple=None,
                   table=None):
    """q_k by the per-family branches that the one profile formula replaced."""
    k = abs(k)
    if family == "white":
        return SpectralField.constant(1.0)
    if family == "power":
        return max(1, k) ** (-alpha) * tail
    if family == "tail":
        return tail + max(1, k) ** (-tail_rate) * ripple
    return table[k] if k in table else SpectralField.zero(2)


class TestProfileFormula:
    COS = SpectralField.from_modes({1: 0.5, -1: 0.5})

    @pytest.mark.parametrize("centred", [False, True])
    def test_formula_is_bitwise_the_family_branches(self, cosine_cell, centred):
        rho = cosine_cell.rho

        def center(f):
            if not centred or f is None:
                return f
            return f - SpectralField.constant(inner_product(f, rho).real, 2)

        specs = [
            NoiseSpec.power_decay(0.6, 64, profile=ONE_PLUS_COS),
            NoiseSpec.tail_convergent(ONE_PLUS_COS, 0.75, 64, ripple=self.COS),
            NoiseSpec.custom({0: ONE_PLUS_COS, 5: self.COS, 17: ONE_PLUS_COS}, 64,
                             alpha=0.5, tail=ONE_PLUS_COS),
        ]
        if not centred:
            specs.append(NoiseSpec.white(64))
        for spec in specs:
            fields = {"family": spec.family, "alpha": spec.alpha, "tail": center(spec.tail),
                      "tail_rate": spec.tail_rate, "ripple": center(spec.ripple),
                      "table": spec.table and {k: center(f) for k, f in spec.table.items()}}
            got_spec = spec.centered(rho) if centred else spec
            for k in (0, 1, 5, 17, 64):
                want = branch_profile(k=k, **fields).coeffs.view(np.uint64)
                for signed_k in (k, -k):
                    got = got_spec.profile(signed_k).coeffs.view(np.uint64)
                    assert np.array_equal(got, want), (spec.label, centred, signed_k)


class TestValidators:
    def test_power_decay_passes(self):
        report = check_decay(NoiseSpec.power_decay(0.75, 64), 64)
        assert report.passed
        const = next(it.value for it in report.items if "constant" in it.name)
        assert_allclose(const, 1.0)

    def test_flat_profiles_with_declared_decay_fail(self):
        flat = {k: SpectralField.constant(1.0) for k in range(0, 65)}
        spec = NoiseSpec.custom(flat, 64, alpha=0.5, tail=SpectralField.constant(1.0))
        assert not check_decay(spec, 64).passed

    def test_half_decay_reports_h1_bound(self):
        report = check_decay(NoiseSpec.power_decay(0.5, 64, profile=ONE_PLUS_COS), 64)
        assert report.passed
        assert any("H1" in it.name for it in report.items)

    def test_tail_convergence_cases(self):
        white = NoiseSpec.white(64)
        assert check_tail_convergence(white, 64).passed
        tail = NoiseSpec.tail_convergent(ONE_PLUS_COS, 1.0, 64,
                                         ripple=SpectralField.from_modes({1: 0.5, -1: 0.5}))
        report = check_tail_convergence(tail, 64)
        assert report.passed
        gaps = [it.value for it in report.items if "final gap" in it.name]
        assert gaps[0] < 0.02  # ~ |ripple| / 64
        power = NoiseSpec.power_decay(0.4, 64, profile=ONE_PLUS_COS)
        assert check_tail_convergence(power, 64).passed

    def test_summability_cases(self):
        assert check_tail_summability(NoiseSpec.white(256), 256).passed
        convergent = NoiseSpec.tail_convergent(ONE_PLUS_COS, 1.0, 256, eta=0.0)
        assert check_tail_summability(convergent, 256).passed
        divergent = NoiseSpec.tail_convergent(ONE_PLUS_COS, 0.25, 256, eta=0.0)
        assert not check_tail_summability(divergent, 256).passed


class TestLimitCoefficients:
    def test_averaged_white_is_one(self, cosine_cell):
        assert_allclose(averaged_coefficient(NoiseSpec.white(8), cosine_cell.rho, 3), 1.0)

    def test_averaged_mean_zero_profile(self):
        spec = NoiseSpec.power_decay(0.5, 8, profile=SpectralField.from_modes(
            {1: 0.5, -1: 0.5}))
        flat = SpectralField.constant(1.0)
        assert abs(averaged_coefficient(spec, flat, 1)) <= 1e-14

    def test_averaged_bessel_oracle(self, cosine_cell, gibbs_grid):
        spec = NoiseSpec.power_decay(0.75, 8, profile=ONE_PLUS_COS)
        got = averaged_coefficient(spec, cosine_cell.rho, 0)
        oracle = float(np.mean((1.0 + np.cos(
            2.0 * np.pi * np.arange(2048) / 2048)) * gibbs_grid(1.0)))
        assert_allclose(got.real, oracle, rtol=1e-12)
        assert_allclose(got.real, 1.0 - I1_2 / I0_2, rtol=1e-12)
        assert_allclose(got.real, 0.30223, atol=5e-6)

    def test_fluctuation_requires_mean_zero(self, cosine_cell):
        spec = NoiseSpec.power_decay(0.5, 8, profile=ONE_PLUS_COS)
        with pytest.raises(MeanNotZero):
            fluctuation_coefficient(spec, cosine_cell.rho)

    def test_fluctuation_flat_density(self):
        spec = NoiseSpec.power_decay(0.5, 8, profile=SpectralField.from_modes(
            {1: -0.5j, -1: 0.5j}))
        flat = SpectralField.constant(1.0)
        # |sin|_{-1/2} = sqrt(2 * (1/2)^2) = 1/sqrt(2)
        assert_allclose(fluctuation_coefficient(spec, flat), np.sqrt(0.5), rtol=1e-12)

    def test_fluctuation_unit_amplitude_pair(self):
        """tail * rho = e_1 + e_-1 at alpha = 1/2 gives sqrt(1 + 1) = sqrt(2)."""
        spec = NoiseSpec.power_decay(0.5, 8, profile=SpectralField.from_modes(
            {1: 1.0, -1: 1.0}))
        flat = SpectralField.constant(1.0)
        assert_allclose(fluctuation_coefficient(spec, flat), np.sqrt(2.0), rtol=1e-12)

    def test_fluctuation_against_direct_series(self, cosine_cell, gibbs_grid):
        spec = NoiseSpec.power_decay(0.5, 64, profile=ONE_PLUS_COS).centered(
            cosine_cell.rho)
        got = fluctuation_coefficient(spec, cosine_cell.rho)
        n = 4096
        x = 2.0 * np.pi * np.arange(n) / n
        qbar = np.cos(x) + I1_2 / I0_2
        coeffs = np.fft.fft(qbar * gibbs_grid(1.0, n)) / n
        oracle = np.sqrt(sum(
            (abs(coeffs[k]) ** 2 + abs(coeffs[-k]) ** 2) / abs(k) for k in range(1, 65)))
        assert_allclose(got, oracle, rtol=1e-10)

    def test_enhanced_identity(self, cosine_cell):
        got = enhanced_coefficient(NoiseSpec.white(8), cosine_cell.rho, 1)
        assert_allclose(got, l2_norm(cosine_cell.rho), rtol=1e-14)
        assert_allclose(got, np.sqrt(I0_4) / I0_2, rtol=1e-12)
        assert_allclose(got, 1.47476, atol=5e-6)

    def test_enhanced_flat_density_recovers_classical(self):
        assert_allclose(enhanced_coefficient(NoiseSpec.white(8),
                                             SpectralField.constant(1.0), 2), 1.0)

    def test_smoothed_limits(self, cosine_cell):
        flat = NoiseSpec.white(8, mollifier=lambda xi: 1.0)  # phi = 1 on the band
        assert_allclose(smoothed_coefficient(flat, cosine_cell.rho, 1),
                        enhanced_coefficient(flat, cosine_cell.rho, 1), rtol=1e-12)
        narrow = NoiseSpec.white(8, mollifier=tent_mollifier(1.0))  # phi(l) = 0, l != 0
        assert_allclose(smoothed_coefficient(narrow, cosine_cell.rho, 1),
                        abs(averaged_coefficient(narrow, cosine_cell.rho, 1)), rtol=1e-12)

    def test_smoothed_tent_radicand(self):
        """tail * rho = 1 + e_1 + e_-1; tent phi(+-1) = 1/2 quarters the band term."""
        tail = SpectralField.from_modes({0: 1.0, 1: 1.0, -1: 1.0})
        flat = SpectralField.constant(1.0)
        spec = NoiseSpec.custom({0: tail}, 4, tail=tail, mollifier=tent_mollifier(2.0))
        got = smoothed_coefficient(spec, flat, 0)
        # radicand: |<q_0, 1>|^2 - |<tail, 1>|^2 + (1 + 2 * (1/2)^2 * 1)
        assert_allclose(got**2, 1.0 - 1.0 + 1.5, rtol=1e-12)
        enh = enhanced_coefficient(spec, flat, 0)
        assert_allclose(enh**2, 1.0 - 1.0 + 3.0, rtol=1e-12)

    def test_bump_mollifier_shape(self):
        phi = bump_mollifier(2.0)
        assert phi(0.0) == 1.0
        assert phi(2.1) == 0.0
        assert 0.0 < phi(1.0) < 1.0


class TestCouplingSeries:
    def test_flat_case_single_offset(self):
        flat = SpectralField.constant(1.0)
        for eps in (0.25, 0.125):
            series = coupling_series(NoiseSpec.white(32), flat, eps, 1)
            assert_allclose(series.total, 1.0, rtol=1e-14)
            nonzero = {l for l, v in series.lambdas.items() if abs(v) > 1e-14}
            assert nonzero == {0}

    def test_definition_total_is_root_sum_of_squares(self, cosine_cell):
        series = coupling_series(NoiseSpec.white(64), cosine_cell.rho, 0.125, 1)
        assert_allclose(series.total,
                        np.sqrt(sum(abs(v) ** 2 for v in series.lambdas.values())),
                        rtol=1e-14)

    def test_white_series_approaches_enhanced_coefficient(self, cosine_cell):
        target = enhanced_coefficient(NoiseSpec.white(8), cosine_cell.rho, 1)
        gaps = []
        for eps_inv, max_l in ((4, 4), (8, 8)):
            spec = NoiseSpec.white(max_l * eps_inv)
            series = coupling_series(spec, cosine_cell.rho, 1.0 / eps_inv, 1,
                                     max_offset=max_l)
            assert series.tail_estimate <= 0.01 * series.total
            gaps.append(abs(series.total - target))
        assert gaps[1] < gaps[0] / 1.5

    def test_rescaled_series_approaches_fluctuation_coefficient(self, cosine_cell):
        spec = NoiseSpec.power_decay(0.5, 512, profile=ONE_PLUS_COS).centered(
            cosine_cell.rho)
        target = fluctuation_coefficient(spec, cosine_cell.rho)
        gaps = []
        for eps_inv in (8, 16, 32):
            series = coupling_series(spec, cosine_cell.rho, 1.0 / eps_inv, 1,
                                     rescaled=True, max_offset=8)
            gaps.append(abs(series.total - target))
        assert gaps[2] < gaps[1] < gaps[0]

    def test_truncation_guard(self, cosine_cell):
        with pytest.raises(TruncationTooSmall):
            coupling_series(NoiseSpec.white(8), cosine_cell.rho, 0.25, 1, max_offset=2)

    def test_mode_zero_is_accepted_and_unresolved_modes_are_not(self, cosine_cell):
        """Mode 0 has couplings like any resolved mode; eps |m| >= 1/2 is a ValueError
        naming m and eps, the shared check of the decay oracle."""
        series = coupling_series(NoiseSpec.white(32), cosine_cell.rho, 0.125, 0)
        assert_allclose(series.lambdas[0], 1.0, rtol=1e-14)  # <1, rho> = 1
        for eps, m in ((0.25, 2), (0.125, -4), (1.0, 1)):
            with pytest.raises(ValueError, match=rf"mode m = {m} is not resolved at "
                                                 rf"eps = {eps:g}: need eps \* \|m\| < 1/2"):
                coupling_series(NoiseSpec.white(32), cosine_cell.rho, eps, m)


def assembled_increments(gen, n_steps, k_cut, dt):
    """The complex assembly that the in-place increments replaced."""
    z = gen.normal(size=(n_steps, 2 * k_cut + 1))
    dw = np.empty((n_steps, 2 * k_cut + 1), dtype=complex)
    dw[:, k_cut] = np.sqrt(dt) * z[:, 0]
    if k_cut > 0:
        a = z[:, 1 : 2 * k_cut : 2]
        b = z[:, 2 : 2 * k_cut + 1 : 2]
        pos = np.sqrt(dt / 2.0) * (a + 1j * b)
        dw[:, k_cut + 1 :] = pos
        dw[:, :k_cut] = np.conj(pos[:, ::-1])
    return dw


class TestWienerSampling:
    @pytest.mark.parametrize("k_cut", [0, 1, 32, 64, 128])
    def test_in_place_assembly_is_bitwise_the_complex_formula(self, k_cut):
        stream, oracle = WienerStream(5, 3), WienerStream(5, 3)
        for _ in range(2):  # the second call checks the stream position too
            got = stream.increments(256, k_cut, 0.003)
            want = assembled_increments(oracle._gen, 256, k_cut, 0.003)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_conjugate_symmetry_is_exact(self):
        row = WienerStream(11, 0).increments(1, 5, 0.01)[0]
        for k in range(0, 6):
            assert row[5 - k] == np.conj(row[5 + k])

    def test_determinism_across_batching(self):
        a = WienerStream(3, 7).increments(64, 4, 0.5)
        stream = WienerStream(3, 7)
        b = np.vstack([stream.increments(16, 4, 0.5) for _ in range(4)])
        assert np.array_equal(a, b)

    def test_moments(self):
        n = 100_000
        dt = 0.2
        dw = WienerStream(123, 0).increments(n, 4, dt)
        mode3 = dw[:, 4 + 3]
        se_mean = np.sqrt(dt / n)
        assert abs(mode3.real.mean()) <= 4 * se_mean
        assert abs(mode3.imag.mean()) <= 4 * se_mean
        second = np.abs(mode3) ** 2
        se_second = second.std(ddof=1) / np.sqrt(n)
        assert abs(second.mean() - dt) <= 3 * se_second
        mode0 = dw[:, 4]
        assert np.abs(mode0.imag).max() == 0.0
        assert abs((mode0.real**2).mean() - dt) <= 3 * se_second * 2
