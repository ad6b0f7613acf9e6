"""Tests for the unit cell: its contracts, generator matrices, rho, chi, mu, omega."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import iv

from multiscale_spde.cell import (
    CELL_GRID,
    CENTERING_RTOL,
    CHI_RESIDUAL_TOL,
    EIGENBASIS_COND_MAX,
    RHO_RESIDUAL_TOL,
    Coefficients,
    diffusivity_from_decay,
    eigenbasis,
    generator_matrix,
    solve_cell,
    spectral_gap,
)
from multiscale_spde.errors import ResolutionTooSmall, SolveFailed
from multiscale_spde.fourier import (
    SpectralField,
    cells,
    conjugation_defect,
    inner_product,
    l2_norm,
    multiply,
    oscillate,
    sobolev_norm,
)
from multiscale_spde.noise import NoiseSpec
from multiscale_spde.solver import SolverConfig, build_blocks

I0_2 = iv(0, 2.0)
I0_4 = iv(0, 4.0)
SWEEP_AMPLITUDES = [0.25 * i for i in range(1, 13)]  # the cell-sweep benchmark's 0.25 .. 3


def per_entry_generator_matrix(c, ks, eps=1.0, adjoint=False):
    """generator_matrix with its Toeplitz symbols looked up one coeff call per offset."""
    ks = np.asarray(ks, dtype=int)
    m = ks.size
    s2 = c.sigma_squared
    offsets = np.arange(-(m - 1), m)
    b_off = np.array([c.b.coeff(int(l)) for l in offsets])
    s2_off = np.array([s2.coeff(int(l)) for l in offsets])
    idx = (np.arange(m)[:, None] - np.arange(m)[None, :]) + (m - 1)
    bmat = b_off[idx]
    smat = s2_off[idx]
    kf = ks.astype(float)
    if adjoint:
        return (-1j * kf[:, None]) * bmat / eps + (-0.5 * kf[:, None] ** 2) * smat
    return (1j * kf[None, :]) * bmat / eps + (-0.5 * kf[None, :] ** 2) * smat


def random_band_limited(seed, wide):
    """Real b and sigma with harmonics 1 .. J, J in 1..3, and min sigma >= 0.15.

    wide stores both fields on a 512-point band, wider than 2m for every
    progression the tests use.
    """
    rng = np.random.default_rng(seed)
    harmonics = int(rng.integers(1, 4))
    b = rng.uniform(-0.5, 0.5, (2, harmonics))
    s = rng.uniform(-0.3, 0.3, (2, harmonics)) / harmonics  # sum of 2|s_j| <= 0.85
    b_modes, sigma_modes = {}, {0: rng.uniform(1.0, 1.5)}
    for j in range(1, harmonics + 1):
        b_modes[j] = complex(b[0, j - 1], b[1, j - 1])
        sigma_modes[j] = complex(s[0, j - 1], s[1, j - 1])
        b_modes[-j], sigma_modes[-j] = np.conj(b_modes[j]), np.conj(sigma_modes[j])
    n = 512 if wide else None
    return Coefficients(SpectralField.from_modes(b_modes, n),
                        SpectralField.from_modes(sigma_modes, n))


def random_reversible(seed):
    """A centred cell b = sigma^2 h': sigma from random_band_limited, h real with
    harmonics 1 .. J, J in 1..3, and real and imaginary amplitudes below 1/4.

    Its density is proportional to exp(2h) / sigma^2.  With min sigma down to
    0.15 that can reach past 128 modes (|rho_63| = 8.9e-13 at seed 369), so
    the property below runs on 256.
    """
    rng = np.random.default_rng([seed, 1])
    sigma = random_band_limited(seed, wide=False).sigma
    harmonics = int(rng.integers(1, 4))
    h = rng.uniform(-0.25, 0.25, (2, harmonics))
    h_modes = {}
    for j in range(1, harmonics + 1):
        h_modes[j] = complex(h[0, j - 1], h[1, j - 1])
        h_modes[-j] = np.conj(h_modes[j])
    # sigma^2 h' has harmonics <= 9: both products are exact on 32 modes
    b = multiply(multiply(sigma.pad_to(32), sigma), SpectralField.from_modes(h_modes).derivative())
    return Coefficients(b, sigma)


def spectral_density(c, n):
    """Oracle for rho: the kernel of the adjoint Galerkin generator on |k| < n/2.

    The last right singular vector of generator_matrix(c, ks, adjoint=True),
    scaled to amplitude 1 at k = 0.  Row k is first divided by 1 + k^2: that
    leaves the kernel as it is and keeps the k^2 growth of the entries from
    amplifying their rounding into the vector.
    """
    ks = np.arange(-n // 2 + 1, n // 2)
    a = generator_matrix(c, ks, adjoint=True) / (1.0 + ks.astype(float) ** 2)[:, None]
    v = np.linalg.svd(a)[2][-1].conj()
    coeffs = np.zeros(n, dtype=complex)
    coeffs[1:] = v / v[n // 2 - 1]
    return SpectralField(coeffs)


def mu_identity(c, sol):
    """Oracle for mu: <(sigma^2/2) (1 + chi')^2, rho> from the solution's rho and chi."""
    w = sol.chi.derivative() + SpectralField.constant(1.0, 2)
    return 0.5 * inner_product(multiply(c.sigma_squared, multiply(w, w)), sol.rho).real


def galerkin_residuals(c, sol):
    """|L* rho| and |L chi + b|, with the Galerkin generator on rho's band."""
    n = sol.rho.n
    ks = np.arange(-n // 2, n // 2)
    rho_residual = l2_norm(SpectralField(generator_matrix(c, ks, adjoint=True) @ sol.rho.coeffs))
    chi_residual = l2_norm(SpectralField(generator_matrix(c, ks) @ sol.chi.coeffs)
                           + c.b.truncate(n))
    return rho_residual, chi_residual


class TestEigenbasis:
    def test_jordan_block_fails_the_condition_bound(self):
        """A defective matrix has no eigenbasis: eig returns two parallel vectors."""
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        assert np.linalg.cond(np.linalg.eig(jordan)[1]) > EIGENBASIS_COND_MAX
        with pytest.raises(SolveFailed, match=r"jordan: eigenvector condition number .* "
                                              r"above 1e\+06"):
            eigenbasis(jordan, "jordan")


class TestValidation:
    """The assumptions on the cell, as solve_cell checks them on CELL_GRID points."""

    def test_gradient_drift_passes(self):
        sol = solve_cell(Coefficients.cosine_potential(1.0))
        assert sol.sigma_min == 1.0
        assert sol.centering <= CENTERING_RTOL

    def test_uncentred_drift_fails(self):
        c = Coefficients.from_modes({0: 1.0}, {0: 1.0})
        with pytest.raises(SolveFailed, match=r"cell is not centred: \|mean\(b/sigma\^2\)\| "
                                              r"= 1\.000e\+00"):
            solve_cell(c)

    @pytest.mark.parametrize("amplitude, minimum", [(0.75, r"-5\.000e-01"),
                                                    (0.5, r"0\.000e\+00")],
                             ids=["sign-change", "touches-zero"])
    def test_degenerate_diffusion_fails(self, amplitude, minimum):
        """sigma = 1 + 2 amplitude cos x: it changes sign, or touches 0 at x = pi."""
        c = Coefficients.from_modes({1: -0.5j, -1: 0.5j},
                                    {0: 1.0, 1: amplitude, -1: amplitude})
        with pytest.raises(SolveFailed, match=r"sigma is not positive on the grid: "
                                              rf"min sigma = {minimum}"):
            solve_cell(c)


class TestGeneratorMatrix:
    def test_adjoint_is_conjugate_transpose(self, cosine):
        ks = np.arange(-8, 8)
        fwd = generator_matrix(cosine, ks, adjoint=False)
        adj = generator_matrix(cosine, ks, adjoint=True)
        assert np.abs(adj - fwd.conj().T).max() == 0.0

    def test_heat_is_diagonal(self, heat):
        ks = np.arange(-4, 4)
        a = generator_matrix(heat, ks)
        assert_allclose(a, np.diag(-ks.astype(float) ** 2), atol=1e-14)

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([1.0, 0.5, 0.25, 0.125]), st.sampled_from([1, 2, 25, 127]),
           st.booleans(), st.booleans(), st.integers(min_value=-40, max_value=40))
    @example(seed=3, eps=0.125, length=127, adjoint=True, wide=True, start=-5)
    @example(seed=3, eps=0.125, length=25, adjoint=False, wide=True, start=1)
    @settings(max_examples=60, deadline=None)
    def test_symbols_are_bitwise_the_per_entry_lookups(self, seed, eps, length, adjoint,
                                                        wide, start):
        c = random_band_limited(seed, wide)
        ks = start + cells(eps) * np.arange(length)
        got = generator_matrix(c, ks, eps=eps, adjoint=adjoint)
        ref = per_entry_generator_matrix(c, ks, eps=eps, adjoint=adjoint)
        assert got.shape == ref.shape == (length, length)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_sigma_squared_is_bitwise_the_padded_product(self, seed, wide):
        """Coefficients forms sigma^2 once, as the dealiased product on twice sigma's band."""
        c = random_band_limited(seed, wide)
        product = multiply(c.sigma.pad_to(2 * c.sigma.n), c.sigma)
        assert c.sigma_squared.n == product.n == 2 * c.sigma.n
        assert np.array_equal(c.sigma_squared.coeffs.view(np.uint64),
                              product.coeffs.view(np.uint64))

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([1.0, 0.5, 0.25, 0.125]), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_blocks_reassemble_the_full_band_generator(self, seed, eps, wide):
        """The class blocks fill the matrix of L_eps on -N/2+1 .. N/2-1.

        The reference is generator_matrix at eps = 1 of the oscillated
        coefficients b(x/eps)/eps and sigma(x/eps) (1/eps is a power of two,
        so the scaling is exact); their sigma^2 is a product on another FFT
        grid, hence the rounding tolerance.
        """
        c = random_band_limited(seed, wide)
        r = cells(eps)
        n = 2 * r * (c.max_harmonic + 1) + 4
        cfg = SolverConfig(eps=eps, n_modes=n, dt=1e-3, t_final=1.0, watch=(1,), seed=0)
        dense = build_blocks(c, NoiseSpec.white(1), cfg).dense()
        assert not dense[0].any() and not dense[:, 0].any()  # the unpaired -N/2 is left out
        fast = Coefficients(oscillate(c.b, eps, 0) * float(r), oscillate(c.sigma, eps, 0))
        full = generator_matrix(fast, np.arange(-n // 2 + 1, n // 2))
        assert_allclose(dense[1:, 1:], full, rtol=1e-12, atol=1e-13 * np.abs(full).max())


class TestInvariantDensity:
    def test_constant_coefficients_give_flat_density(self, heat):
        rho = solve_cell(heat, 32).rho
        assert l2_norm(rho - SpectralField.constant(1.0)) < 1e-12

    def test_matches_gibbs_closed_form(self, cosine, cosine_cell, gibbs_grid):
        rho_ref = SpectralField.from_grid(gibbs_grid(1.0, 2048)).truncate(128)
        assert l2_norm(cosine_cell.rho - rho_ref) <= 1e-8

    def test_point_value_and_norm(self, cosine_cell):
        rho = cosine_cell.rho
        assert_allclose(np.real(rho.to_grid(1024)[0]), np.exp(-2.0) / I0_2, rtol=1e-10)
        assert_allclose(np.real(rho.to_grid(1024)[0]), 0.059368, atol=5e-7)
        assert_allclose(l2_norm(rho) ** 2, I0_4 / I0_2**2, rtol=1e-12)
        assert_allclose(l2_norm(rho) ** 2, 2.17491, atol=5e-6)

    def test_gibbs_match_across_amplitudes(self, gibbs_grid):
        for amplitude in (0.5, 1.5):
            c = Coefficients.cosine_potential(amplitude)
            rho = solve_cell(c, 128).rho
            ref = SpectralField.from_grid(gibbs_grid(amplitude, 2048)).truncate(128)
            assert l2_norm(rho - ref) <= 1e-8

    def test_normalisation_and_positivity(self, cosine_cell):
        rho = cosine_cell.rho
        assert abs(rho.coeff(0) - 1.0) <= 1e-10
        assert np.real(rho.to_grid(512)).min() > 0.0

    def test_norm_at_least_one_iff_constant(self, heat, cosine_cell):
        flat = solve_cell(heat, 32).rho
        assert abs(l2_norm(flat) - 1.0) <= 1e-8
        assert l2_norm(cosine_cell.rho) > 1.0 + 1e-3

    def test_drift_mean_against_density_vanishes(self, cosine, cosine_cell):
        assert abs(multiply(cosine.b, cosine_cell.rho).coeff(0)) <= 1e-8

    def test_nongradient_drift_density(self):
        """The centering identity <b rho, 1> = 0 holds beyond gradient drift."""
        c = Coefficients.from_modes(
            {1: -0.125j, -1: 0.125j}, {0: 1.0, 1: 0.25, -1: 0.25})
        rho = solve_cell(c, 128).rho
        assert abs(multiply(c.b, rho).coeff(0)) <= 1e-8


class TestCorrector:
    def test_zero_drift_gives_zero_corrector(self, heat):
        assert l2_norm(solve_cell(heat, 32).chi) < 1e-12

    def test_residual_contract(self):
        c = Coefficients.cosine_potential(-1.0)  # b = -sin x
        sol = solve_cell(c, 128)
        rho_residual, chi_residual = galerkin_residuals(c, sol)
        assert rho_residual <= 1e-8 * sobolev_norm(sol.rho, 2)
        assert chi_residual <= 1e-8 * l2_norm(c.b)
        assert abs(inner_product(sol.chi, sol.rho)) <= 1e-12

    def test_solution_carries_the_residuals_its_contracts_measured(self, cosine):
        """rho_residual and chi_residual are |L* rho| and |L chi + b| on the band
        -n/2 + 1 .. n/2 - 1 that solve_cell checks, to rounding; sigma_min,
        centering and rho_grid are exactly the values its other checks compared."""
        sol = solve_cell(cosine, 128)
        ks = np.arange(-63, 64)
        rho_residual = np.linalg.norm(generator_matrix(cosine, ks, adjoint=True)
                                      @ sol.rho.coeffs[1:])
        chi_residual = np.linalg.norm(generator_matrix(cosine, ks) @ sol.chi.coeffs[1:]
                                      + cosine.b.truncate(128).coeffs[1:])
        assert sol.rho_residual == rho_residual
        assert abs(sol.chi_residual - chi_residual) <= 1e-14 * l2_norm(cosine.b)
        assert sol.rho_residual <= RHO_RESIDUAL_TOL * sobolev_norm(sol.rho, 2)
        assert sol.chi_residual <= CHI_RESIDUAL_TOL * l2_norm(cosine.b)
        nongradient = Coefficients.from_modes({1: -0.125j, -1: 0.125j},
                                              {0: 1.0, 1: 0.25, -1: 0.25})
        for c, n in ((cosine, 128), (nongradient, 128), (random_reversible(7), 256)):
            sol = solve_cell(c, n)
            sig = np.real(c.sigma.to_grid(CELL_GRID))
            ratio = np.real(c.b.to_grid(CELL_GRID)) / sig**2
            assert sol.sigma_min == sig.min() > 0.0
            assert sol.centering == abs(np.mean(ratio))
            assert sol.centering <= CENTERING_RTOL * np.sqrt(np.mean(ratio**2))
            rho_grid = np.real(sol.rho.to_grid(max(4 * n, 256)))
            assert sol.rho_grid.shape == rho_grid.shape
            assert np.array_equal(sol.rho_grid.view(np.uint64), rho_grid.view(np.uint64))
            assert sol.rho_grid.min() > 0.0
        assert abs(solve_cell(nongradient).sigma_min - 0.5) <= 1e-15

    def test_derivative_closed_form(self, cosine, cosine_cell):
        """For V = cos x, sigma = 1: 1 + chi' = exp(2V) / <exp(2V)>."""
        chi = cosine_cell.chi
        w = chi.derivative() + SpectralField.constant(1.0, 2)
        x = 2.0 * np.pi * np.arange(2048) / 2048
        ref_vals = np.exp(2.0 * np.cos(x))
        ref = SpectralField.from_grid(ref_vals / ref_vals.mean()).truncate(chi.n)
        assert l2_norm(w - ref) <= 1e-8


class TestEffectiveDiffusivity:
    def test_constant_cases(self, heat):
        assert_allclose(solve_cell(heat, 32).mu, 1.0, rtol=1e-12)
        assert_allclose(solve_cell(Coefficients.heat(1.0), 32).mu, 0.5, rtol=1e-12)

    def test_cosine_closed_form(self, cosine_cell):
        """mu = 1 / (2 I0(2A)^2) to rounding at every cell-sweep amplitude."""
        for amplitude in SWEEP_AMPLITUDES:
            mu = solve_cell(Coefficients.cosine_potential(amplitude)).mu
            assert_allclose(mu, 1.0 / (2.0 * iv(0, 2.0 * amplitude) ** 2), rtol=1e-13,
                            err_msg=f"A = {amplitude}")
        assert_allclose(cosine_cell.mu, 0.096218, atol=5e-7)


class TestSpectralOracle:
    """solve_cell's closed form against the spectral route, kept here as its oracle."""

    def test_density_on_cosine_and_varied_sigma_cells(self):
        """rho against the kernel oracle at A = 0.5 .. 3, for b = A sin x, sigma = 1
        and for b = A sigma^2 sin x, sigma = 1 + 0.4 cos x.

        mu is held to its exact value in TestEffectiveDiffusivity: here the
        identity mu_identity cancels like exp(4A) and misses it by up to 4e-12.
        """
        sigma = SpectralField.from_modes({0: 1.0, 1: 0.2, -1: 0.2})
        for amplitude in SWEEP_AMPLITUDES[1:]:
            drift = SpectralField.from_modes({1: -0.5j * amplitude, -1: 0.5j * amplitude})
            varied = Coefficients(multiply(multiply(sigma.pad_to(8), sigma), drift), sigma)
            for c in (Coefficients.cosine_potential(amplitude), varied):
                sol = solve_cell(c)
                assert l2_norm(sol.rho - spectral_density(c, sol.rho.n)) <= 1e-12, amplitude

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @example(seed=369)
    @settings(max_examples=25, deadline=None)
    def test_random_reversible_cells(self, seed):
        """rho and mu against both oracles, both residual contracts and <chi, rho> = 0."""
        c = random_reversible(seed)
        sol = solve_cell(c, 256)
        assert l2_norm(sol.rho - spectral_density(c, 256)) <= 1e-12
        assert abs(sol.mu - mu_identity(c, sol)) <= 1e-12 * sol.mu
        rho_residual, chi_residual = galerkin_residuals(c, sol)
        assert rho_residual <= RHO_RESIDUAL_TOL * sobolev_norm(sol.rho, 2)
        assert chi_residual <= CHI_RESIDUAL_TOL * l2_norm(c.b)
        assert abs(inner_product(sol.chi, sol.rho)) <= 1e-12 * l2_norm(sol.chi)


class TestSolveCell:
    def test_fields_are_real_by_construction(self, cosine_cell):
        for sol in (cosine_cell, solve_cell(random_reversible(3))):
            assert conjugation_defect(sol.rho) == 0.0
            assert conjugation_defect(sol.chi) == 0.0
            assert sol.rho.coeff(0) == 1.0

    def test_band_wider_than_the_quadrature_grid_is_rejected(self, heat):
        with pytest.raises(ResolutionTooSmall, match="exceed the 4096-point quadrature grid"):
            solve_cell(heat, 2 * CELL_GRID)


class TestDecayOracle:
    def test_heat_exact_rate(self, heat):
        mu_hat = diffusivity_from_decay(heat, 0.25, 1)
        assert abs(mu_hat - 1.0) <= 1e-12

    def test_heat_mode_scaling(self, heat):
        r1 = diffusivity_from_decay(heat, 0.125, 1)
        r2 = diffusivity_from_decay(heat, 0.125, 2)
        assert abs(4.0 * r2 / (4.0 * r1) - 1.0) <= 1e-12

    def test_cosine_cross_validation(self, cosine, cosine_cell):
        mu_hat = diffusivity_from_decay(cosine, 1.0 / 16.0, 1)
        assert abs(mu_hat - cosine_cell.mu) <= 0.02 * cosine_cell.mu

    def test_cross_validation_other_amplitude(self):
        c = Coefficients.cosine_potential(0.5)
        mu = solve_cell(c, 128).mu
        mu_hat = diffusivity_from_decay(c, 1.0 / 16.0, 1)
        assert abs(mu_hat - mu) <= 0.02 * mu

    @pytest.mark.parametrize("eps, m", [(0.5, 1), (0.25, 2), (0.125, -4), (0.125, 8)])
    def test_rejects_unresolved_mode(self, cosine, eps, m):
        with pytest.raises(ValueError, match=rf"mode m = {m} is not resolved at eps = {eps:g}: "
                                             r"need eps \* \|m\| < 1/2"):
            diffusivity_from_decay(cosine, eps, m)

    def test_rejects_mode_zero(self, cosine):
        """Mode 0 does not decay: its rate over m^2 is 0/0, once a nan with a warning."""
        with pytest.raises(ValueError, match=r"mode m = 0 does not decay at eps = 0.25"):
            diffusivity_from_decay(cosine, 0.25, 0)

    @pytest.mark.parametrize("perturb, message", [
        # a second eigenvalue at twice the slow one: only 2x further left
        (lambda ev: np.append(ev, 2.0 * ev[np.argmax(ev.real)]), "not isolated"),
        (lambda ev: ev + 1e-3j, "not real"),
    ])
    def test_slow_eigenvalue_contract(self, cosine, monkeypatch, perturb, message):
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: perturb(eigvals(a)))
        with pytest.raises(SolveFailed, match=message):
            diffusivity_from_decay(cosine, 1.0 / 16.0, 1)


def tridiagonal_gap_oracle(amplitude: float, n: int = 128) -> float:
    """-max Re(lambda) over the nonzero spectrum, for b = A sin x and sigma = 1.

    The adjoint generator is written out by hand as the tridiagonal
    (L* f)_k = -(k A / 2)(f_{k-1} - f_{k+1}) - k^2 f_k / 2, independently
    of generator_matrix, on a wider band than spectral_gap's default.
    """
    ks = np.arange(-n // 2, n // 2).astype(float)
    a = np.diag(-0.5 * ks**2)
    i = np.arange(1, n)
    a[i, i - 1] = -0.5 * amplitude * ks[i]
    a[i - 1, i] = 0.5 * amplitude * ks[i - 1]
    rates = -np.linalg.eigvals(a).real
    return float(rates[rates > 1e-6].min())


class TestSpectralGap:
    def test_heat_gap(self, heat):
        omega = spectral_gap(heat)
        assert abs(omega - 1.0) <= 1e-12

    def test_gap_scales_with_diffusion(self):
        c = Coefficients.heat(np.sqrt(2.0) * 1.3)
        omega = spectral_gap(c)
        assert abs(omega - 1.69) <= 1e-12

    def test_cosine_gap_matches_eigenvalue_oracle(self, cosine):
        omega = spectral_gap(cosine)
        assert omega > 0.0
        ks = np.arange(-32, 32)
        ev = np.linalg.eigvals(generator_matrix(cosine, ks, adjoint=True))
        omega_ref = min(-e.real for e in ev if -e.real > 1e-6)
        assert abs(omega - omega_ref) <= 0.02 * omega_ref

    @pytest.mark.parametrize("amplitude", [0.25, 1.0, 1.75, 2.5, 3.0])
    def test_cosine_gap_matches_tridiagonal_oracle(self, amplitude):
        omega = spectral_gap(Coefficients.cosine_potential(amplitude))
        oracle = tridiagonal_gap_oracle(amplitude)
        assert abs(omega - oracle) <= 1e-10 * oracle

    def test_nonzero_kernel_eigenvalue_fails(self, cosine, monkeypatch):
        eigvals = np.linalg.eigvals

        def shifted(a):
            return eigvals(a) - 1e-6  # moves the kernel off zero

        monkeypatch.setattr(np.linalg, "eigvals", shifted)
        with pytest.raises(SolveFailed, match="kernel"):
            spectral_gap(cosine)


class TestRescalingIdentity:
    def test_fast_flow_equals_rescaled_unit_cell_flow(self, cosine, cosine_cell):
        """Stepping L_eps* on oscillatory data matches L* run at t / eps^2."""
        eps, cells, offsets = 0.25, 4, 10
        ks_fast = cells * np.arange(-offsets, offsets + 1)
        ks_unit = np.arange(-offsets, offsets + 1)
        a_fast = generator_matrix(cosine, ks_fast, eps=eps, adjoint=True)
        a_unit = generator_matrix(cosine, ks_unit, adjoint=True)
        dt = 1e-4
        eye = np.eye(ks_fast.size)
        p_fast = sla.solve(eye - 0.5 * dt * a_fast, eye + 0.5 * dt * a_fast)
        p_unit = sla.solve(eye - 0.5 * (dt / eps**2) * a_unit,
                           eye + 0.5 * (dt / eps**2) * a_unit)
        h = np.array([-cosine_cell.rho.coeff(j) for j in range(-offsets, offsets + 1)])
        h[offsets] += 1.0
        f, g = h.copy(), h.copy()
        for _ in range(1000):
            f = p_fast @ f
            g = p_unit @ g
        assert np.abs(f - g).max() <= 1e-10
