"""Tests for the block-structured multiscale solver."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from multiscale_spde.cell import Coefficients
from multiscale_spde.errors import ResolutionTooSmall, SolveFailed, UnstableStep
from multiscale_spde.fourier import SpectralField, l2_norm, oscillate
from multiscale_spde.noise import NoiseSpec, WienerStream
from multiscale_spde.solver import (
    SolverConfig,
    apply_generator,
    build_blocks,
    exact_mode_covariance,
    sample_final_modes,
    simulate_coupled,
    simulate_path,
    suggest_modes,
)

DELTA_ONE = NoiseSpec.custom({1: SpectralField.constant(1.0)}, cutoff=1)
# b = cos x, sigma = 1 + 0.4 sin x: drift that is not a gradient against sigma^2
NONGRADIENT = Coefficients.from_modes({1: 0.5, -1: 0.5}, {0: 1.0, 1: -0.2j, -1: 0.2j})


def dense_entrywise_oracle(c, eps, n):
    """Matrix of L_eps from pointwise grid evaluation, column by column."""
    m = 4 * n
    x = 2.0 * np.pi * np.arange(m) / m
    b = np.real(c.b.to_grid(m)[np.arange(m) * int(round(1 / eps)) % m])
    s2 = np.real(c.sigma.to_grid(m)[np.arange(m) * int(round(1 / eps)) % m]) ** 2
    out = np.zeros((n, n), dtype=complex)
    for j in range(-n // 2, n // 2):
        col_vals = (1.0 / eps) * b * 1j * j * np.exp(1j * j * x) \
            + 0.5 * s2 * (-j * j) * np.exp(1j * j * x)
        col = SpectralField.from_grid(col_vals).truncate(n)
        out[:, j + n // 2] = col.coeffs
    return out


def kronecker_trapezoid_oracle(c, spec, config, t_grid, modes=None):
    """Reference: the implicit-trapezoid covariance recursion, stepped.

    vec(S) <- P vec(S) + q per step, with K = I (x) A + conj(A) (x) I,
    P = (I - dt K / 2)^-1 (I + dt K / 2) and q = (I - dt K / 2)^-1 dt vec(G G*),
    from S = 0.  Returns mode -> variance at each recorded step.
    """
    op = build_blocks(c, spec, config)
    steps = np.unique(np.round(np.asarray(t_grid) / config.dt).astype(int))
    if modes is None:
        modes = [int(k) for blk in op.blocks.values() for k in blk.ks]
    out = {}
    for res in sorted({m % op.cells for m in modes}):
        blk = op.blocks[res]
        n = blk.ks.size
        key = np.kron(np.eye(n), blk.matrix) + np.kron(np.conj(blk.matrix), np.eye(n))
        eye = np.eye(n * n)
        lhs = eye - 0.5 * config.dt * key
        prop = sla.solve(lhs, eye + 0.5 * config.dt * key)
        gg = blk.noise_map @ blk.noise_map.conj().T
        const = sla.solve(lhs, config.dt * gg.reshape(-1, order="F"))
        v = np.zeros(n * n, dtype=complex)
        diagonals = []
        for _ in range(int(steps[-1]) + 1):
            diagonals.append(v[:: n + 1].real)  # column-major diagonal
            v = prop @ v + const
        diagonals = np.array(diagonals)[steps]
        for i, k in enumerate(blk.ks):
            if int(k) in modes:
                out[int(k)] = diagonals[:, i]
    return out


def assert_matches_oracle(c, spec, config, t_grid, modes=None):
    """exact_mode_covariance agrees with the stepped recursion to 1e-10 relative.

    The absolute floor is 1e-14 of the largest variance: a diagonal entry
    carries round-off relative to the whole covariance, which decides for
    band-edge modes whose variance is ~1e-15 of the driven ones.
    """
    got = exact_mode_covariance(c, spec, config, t_grid, modes)
    ref = kronecker_trapezoid_oracle(c, spec, config, t_grid, modes)
    assert sorted(got.variances) == sorted(ref)
    peak = max(np.abs(v).max() for v in ref.values())
    for m, v in ref.items():
        assert_allclose(got.variances[m], v, rtol=1e-10, atol=1e-14 * peak,
                        err_msg=f"mode {m}")


class TestApplyGenerator:
    def test_pure_diffusion_mode(self, heat):
        out = apply_generator(heat, 1.0, SpectralField.basis(3, 16))
        assert l2_norm(out - (-9.0) * SpectralField.basis(3, 16)) < 1e-12

    def test_constants_in_kernel(self, cosine):
        out = apply_generator(cosine, 0.25, SpectralField.constant(1.0).pad_to(32))
        assert l2_norm(out) < 1e-13

    def test_matches_entrywise_dense_oracle(self, cosine):
        n, eps = 32, 0.5
        dense = dense_entrywise_oracle(cosine, eps, n)
        rng = np.random.default_rng(2)
        u = SpectralField(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        got = apply_generator(cosine, eps, u)
        assert l2_norm(got - SpectralField(dense @ u.coeffs)) <= 1e-10 * l2_norm(u)

    def test_resolution_guard(self, cosine):
        with pytest.raises(ResolutionTooSmall):
            apply_generator(cosine, 1.0 / 16.0, SpectralField.basis(1, 8))


class TestBlocks:
    def test_constant_coefficients_give_diagonal_blocks(self, heat):
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(heat, 0.25, 4), dt=1e-3,
                           t_final=1.0, cutoff=4, watch=(1,), seed=0)
        op = build_blocks(heat, NoiseSpec.white(4), cfg)
        for blk in op.blocks.values():
            off_diag = blk.matrix - np.diag(np.diag(blk.matrix))
            assert np.abs(off_diag).max() == 0.0

    def test_single_cell_is_one_block(self, cosine):
        cfg = SolverConfig(eps=1.0, n_modes=32, dt=1e-3, t_final=1.0, cutoff=4,
                           watch=(1,), seed=0)
        op = build_blocks(cosine, NoiseSpec.white(4), cfg)
        assert list(op.blocks) == [0]
        dense = dense_entrywise_oracle(cosine, 1.0, 32)
        blk = op.blocks[0]
        idx = blk.ks + 16
        assert np.abs(blk.matrix - dense[np.ix_(idx, idx)]).max() <= 1e-10

    def test_block_assembly_matches_pseudospectral(self, cosine):
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 4), dt=1e-3,
                           t_final=1.0, cutoff=4, watch=(1,), seed=0)
        op = build_blocks(cosine, NoiseSpec.white(4), cfg)
        dense = op.dense()
        rng = np.random.default_rng(5)
        n = cfg.n_modes
        u = SpectralField(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        u.coeffs[0] = 0.0  # blocks exclude the unpaired -N/2 row
        got = SpectralField(dense @ u.coeffs)
        ref = apply_generator(cosine, 0.25, u)
        ref.coeffs[0] = 0.0
        assert l2_norm(got - ref) <= 1e-10 * l2_norm(u)

    def test_drift_couples_at_cell_offsets(self, cosine):
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 4), dt=1e-3,
                           t_final=1.0, cutoff=4, watch=(1,), seed=0)
        op = build_blocks(cosine, NoiseSpec.white(4), cfg)
        blk = op.blocks[1]
        nontrivial = np.abs(blk.matrix) > 1e-14
        rows, cols = np.nonzero(nontrivial)
        assert set(np.abs(rows - cols)) <= {0, 1}  # offsets 0 and +-1/eps only

    def test_conjugate_classes_mirror(self, cosine):
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 4), dt=1e-3,
                           t_final=1.0, cutoff=4, watch=(1,), seed=0)
        op = build_blocks(cosine, NoiseSpec.white(4), cfg)
        a1 = op.blocks[1]
        a3 = op.blocks[3]
        assert np.array_equal(a1.ks, -a3.ks[::-1])
        assert np.abs(a3.matrix - np.conj(a1.matrix[::-1, ::-1])).max() <= 1e-14


class TestSimulatePath:
    def test_zero_noise_stays_zero(self, cosine):
        spec = NoiseSpec.custom({}, cutoff=2)
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 2), dt=1e-3,
                           t_final=0.1, cutoff=2, watch=(1, 2), seed=0)
        out = simulate_path(cosine, spec, cfg)
        assert max(np.abs(out.mode(m)).max() for m in (1, 2)) == 0.0

    def test_single_mode_ou_statistics(self, heat):
        """Driven mode 1 of the pure heat flow is an exact OU process."""
        cfg = SolverConfig(eps=1.0, n_modes=16, dt=1e-3, t_final=8.0, cutoff=1,
                           watch=(1,), seed=7)
        vals = sample_final_modes(heat, DELTA_ONE, cfg, 2000)
        samples = np.abs(vals[1]) ** 2
        se = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(samples.mean() - 0.5) <= 3.0 * se

    def test_batched_sampler_reproduces_single_paths(self, heat):
        cfg = SolverConfig(eps=1.0, n_modes=16, dt=1e-3, t_final=0.5, cutoff=1,
                           watch=(1,), seed=7)
        vals = sample_final_modes(heat, DELTA_ONE, cfg, 3)
        for p in range(3):
            ref = simulate_path(heat, DELTA_ONE, cfg, path_index=p).mode(1)[-1]
            assert vals[1][p] == ref

    def test_realness_and_conjugacy(self, cosine):
        cfg = SolverConfig(eps=0.125, n_modes=suggest_modes(cosine, 0.125, 4),
                           dt=1e-3, t_final=0.2, cutoff=4,
                           watch=(-3, -2, -1, 0, 1, 2, 3), seed=3)
        out = simulate_path(cosine, NoiseSpec.white(4), cfg)
        scale = max(np.abs(out.mode(1)).max(), 1e-30)
        for m in (1, 2, 3):
            assert np.abs(out.mode(-m) - np.conj(out.mode(m))).max() <= 1e-10 * scale
        assert np.abs(out.mode(0).imag).max() <= 1e-10 * scale
        assert out.times[0] == 0.0 and np.abs(out.mode(1)[0]) == 0.0

    def test_both_schemes_agree_for_small_dt(self, cosine):
        outs = {}
        for scheme in ("imex-cn", "block-exponential"):
            cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 2),
                               dt=2e-4, t_final=0.2, cutoff=2, watch=(1,), seed=9,
                               scheme=scheme)
            outs[scheme] = simulate_path(cosine, NoiseSpec.white(2), cfg).mode(1)
        diff = np.abs(outs["imex-cn"] - outs["block-exponential"]).max()
        assert diff < 5e-3 * np.abs(outs["block-exponential"]).max()

    def test_overflow_guard(self, heat):
        big = NoiseSpec.custom({1: 1e13 * SpectralField.constant(1.0)}, cutoff=1)
        cfg = SolverConfig(eps=1.0, n_modes=8, dt=1e-3, t_final=1.0, cutoff=1,
                           watch=(1,), seed=0)
        with pytest.raises(UnstableStep):
            simulate_path(heat, big, cfg)

    def test_norm_tracking(self, heat):
        """With only modes +-1 driven, |u|^2 is twice the watched mode power."""
        cfg = SolverConfig(eps=1.0, n_modes=16, dt=1e-3, t_final=0.5, cutoff=1,
                           watch=(1,), seed=4, track_norm=True)
        out = simulate_path(heat, DELTA_ONE, cfg)
        expected = 2.0 * np.abs(out.mode(1)) ** 2
        assert np.abs(out.norm_squared - expected).max() <= 1e-12

    def test_record_stride_thins_the_grid(self, heat):
        dense_cfg = SolverConfig(eps=1.0, n_modes=16, dt=1e-3, t_final=0.1,
                                 cutoff=1, watch=(1,), seed=4)
        thin_cfg = SolverConfig(eps=1.0, n_modes=16, dt=1e-3, t_final=0.1,
                                cutoff=1, watch=(1,), seed=4, record_stride=10)
        dense = simulate_path(heat, DELTA_ONE, dense_cfg)
        thin = simulate_path(heat, DELTA_ONE, thin_cfg)
        assert thin.times.size == dense.times.size // 10 + 1
        assert np.array_equal(thin.mode(1), dense.mode(1)[::10])


class TestCoupled:
    def test_zero_noise_gives_zero_difference(self, cosine, cosine_cell):
        spec = NoiseSpec.custom({}, cutoff=2)
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 2), dt=1e-3,
                           t_final=0.1, cutoff=2, watch=(1,), seed=0)
        u_eps, u_lim = simulate_coupled(cosine, spec, cfg, cell=cosine_cell)
        assert np.abs(u_eps.mode(1) - u_lim.mode(1)).max() == 0.0

    def test_trivial_cell_coincides_with_limit(self, heat):
        """With flat cell structure the two updates are algebraically equal."""
        spec = NoiseSpec.power_decay(0.75, 16)
        cfg = SolverConfig(eps=0.125, n_modes=suggest_modes(heat, 0.125, 16),
                           dt=1e-3, t_final=0.5, cutoff=16, watch=(1, 2), seed=5)
        u_eps, u_lim = simulate_coupled(heat, spec, cfg)
        for m in (1, 2):
            assert np.abs(u_eps.mode(m) - u_lim.mode(m)).max() <= 1e-12

    def test_difference_shrinks_with_eps(self, cosine, cosine_cell):
        """Mean sup difference over a path ensemble halves when eps halves."""
        from multiscale_spde.experiments import _coupled_sup_errors
        from multiscale_spde.limit import averaged_model

        spec64 = NoiseSpec.power_decay(0.75, 64)
        model = averaged_model(spec64, cosine_cell, 1)
        means = []
        for eps in (0.25, 0.125):
            cfg = SolverConfig(eps=eps, n_modes=suggest_modes(cosine, eps, 64),
                               dt=5e-4, t_final=0.5, cutoff=64, watch=(1,), seed=2)
            sups = _coupled_sup_errors(cosine, spec64, cfg, model, 1.0, 32)
            means.append(sups.mean())
        assert means[1] < means[0] / 1.3


class TestExactCovariance:
    def test_scalar_ou_closed_form(self):
        """Diagonal block: variance (1 - exp(-2 a t)) / (2 a), a = m^2 s^2/2."""
        for sigma, rate in ((np.sqrt(2.0), 1.0), (2.0, 2.0)):
            c = Coefficients.heat(sigma)
            cfg = SolverConfig(eps=1.0, n_modes=16, dt=1e-4, t_final=2.0, cutoff=1,
                               watch=(1,), seed=0)
            cov = exact_mode_covariance(c, DELTA_ONE, cfg, t_grid=[0.5, 1.0, 2.0],
                                        modes=[1])
            for t, v in zip(cov.times, cov.variances[1]):
                assert_allclose(v, (1.0 - np.exp(-2.0 * rate * t)) / (2.0 * rate),
                                atol=5e-9)

    def test_monte_carlo_cross_check(self, cosine):
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 8), dt=1e-3,
                           t_final=2.0, cutoff=8, watch=(1,), seed=11)
        spec = NoiseSpec.white(8)
        mc = np.abs(sample_final_modes(cosine, spec, cfg, 2000)[1]) ** 2
        cov = exact_mode_covariance(cosine, spec, cfg, t_grid=[2.0], modes=[1])
        se = mc.std(ddof=1) / np.sqrt(mc.size)
        assert abs(mc.mean() - cov.at_final(1)) <= 4.0 * se

    def test_dt_refinement_is_second_order(self, cosine):
        vals = {}
        for dt in (4e-3, 2e-3, 1e-3):
            cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 4),
                               dt=dt, t_final=1.0, cutoff=4, watch=(1,), seed=1)
            vals[dt] = exact_mode_covariance(cosine, NoiseSpec.white(4), cfg,
                                             t_grid=[1.0], modes=[1]).at_final(1)
        ratio = (vals[4e-3] - vals[2e-3]) / (vals[2e-3] - vals[1e-3])
        assert 3.0 <= ratio <= 5.0

    def test_energy_identity_for_pure_diffusion(self, heat):
        cfg = SolverConfig(eps=1.0, n_modes=32, dt=1e-3, t_final=8.0, cutoff=4,
                           watch=tuple(range(5)), seed=1)
        cov = exact_mode_covariance(heat, NoiseSpec.white(4), cfg, t_grid=[8.0],
                                    modes=list(range(5)))
        assert_allclose(cov.at_final(0), 8.0, rtol=1e-9)
        for m in range(1, 5):
            assert abs(cov.at_final(m) - 1.0 / (2.0 * m * m)) <= 1e-6



class TestClosedFormCovariance:
    """The closed-form covariance against the stepped Kronecker recursion."""

    @pytest.mark.parametrize("amplitude", [1.0, 3.0])
    @pytest.mark.parametrize("eps", [0.25, 1.0 / 16.0])
    def test_cosine_matches_kronecker_recursion(self, amplitude, eps):
        c = Coefficients.cosine_potential(amplitude)
        cfg = SolverConfig(eps=eps, n_modes=suggest_modes(c, eps, 8),
                           dt=min(1e-3, eps * eps / 4.0), t_final=1.0, cutoff=8,
                           watch=(1,), seed=0)
        assert_matches_oracle(c, NoiseSpec.white(8), cfg, np.linspace(0.0, 1.0, 11),
                              modes=[1, 2])

    def test_heat_with_brownian_mode_matches(self, heat):
        cfg = SolverConfig(eps=1.0, n_modes=32, dt=1e-3, t_final=2.0, cutoff=4,
                           watch=(1,), seed=0)
        assert_matches_oracle(heat, NoiseSpec.white(4), cfg, np.linspace(0.0, 2.0, 9),
                              modes=list(range(5)))

    def test_step_with_zero_ratio_matches(self):
        """dt (lam_0 + lam_2) / 2 = -1 exactly: r = 0, where log r is -inf."""
        c = Coefficients.heat(2.0)  # lam_k = -2 k^2
        cfg = SolverConfig(eps=1.0, n_modes=16, dt=0.25, t_final=1.0, cutoff=4,
                           watch=(1,), seed=0)
        assert_matches_oracle(c, NoiseSpec.white(4), cfg, [0.0, 0.25, 0.5, 1.0],
                              modes=[0, 1, 2])

    def test_every_class_matches(self, cosine):
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 4), dt=1e-3,
                           t_final=0.5, cutoff=4, watch=(1,), seed=0)
        assert_matches_oracle(cosine, NoiseSpec.white(4), cfg, np.linspace(0.0, 0.5, 6))

    def test_nongradient_drift_matches(self):
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(NONGRADIENT, 0.25, 4),
                           dt=1e-3, t_final=1.0, cutoff=4, watch=(1,), seed=0)
        assert_matches_oracle(NONGRADIENT, NoiseSpec.white(4), cfg,
                              np.linspace(0.0, 1.0, 6))

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([0.5, 0.25]), st.sampled_from([1e-3, 2.5e-3, 5e-3]))
    @settings(max_examples=15, deadline=None)
    def test_random_band_limited_coefficients_match(self, seed, eps, dt):
        rng = np.random.default_rng(seed)
        b = rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
        s = 0.15 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        c = Coefficients.from_modes(
            {1: b[0], -1: np.conj(b[0]), 2: b[1], -2: np.conj(b[1])},
            {0: rng.uniform(0.8, 1.5), 1: s[0], -1: np.conj(s[0]),
             2: s[1], -2: np.conj(s[1])})
        cfg = SolverConfig(eps=eps, n_modes=suggest_modes(c, eps, 4), dt=dt,
                           t_final=0.5, cutoff=4, watch=(1,), seed=0)
        assert_matches_oracle(c, NoiseSpec.white(4), cfg, [0.1, 0.25, 0.5])

    def test_inaccurate_eigenbasis_fails_the_residual_contract(self, cosine, monkeypatch):
        real_eig = sla.eig

        def perturbed(a):
            lam, vecs = real_eig(a)
            return lam, vecs + 1e-6 * np.random.default_rng(0).standard_normal(vecs.shape)

        monkeypatch.setattr(sla, "eig", perturbed)
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 4), dt=1e-3,
                           t_final=1.0, cutoff=4, watch=(1,), seed=0)
        with pytest.raises(SolveFailed, match="trapezoid residual"):
            exact_mode_covariance(cosine, NoiseSpec.white(4), cfg, t_grid=[1.0], modes=[1])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_non_finite_covariance_raises_unstable_step(self, heat):
        huge = NoiseSpec.custom({1: 1e200 * SpectralField.constant(1.0)}, cutoff=1)
        cfg = SolverConfig(eps=1.0, n_modes=16, dt=1e-3, t_final=1.0, cutoff=1,
                           watch=(1,), seed=0)
        with pytest.raises(UnstableStep):
            exact_mode_covariance(heat, huge, cfg, t_grid=[1.0], modes=[1])

    @pytest.mark.parametrize("t_grid, message", [
        ([], "t_grid is empty"),
        ([0.5, np.nan], "non-finite"),
        ([np.inf], "non-finite"),
    ])
    def test_bad_time_grid_fails_before_blocks(self, heat, t_grid, message):
        # n_modes is too small for build_blocks, so the t_grid message shows
        # the grid was rejected before any block was built
        cfg = SolverConfig(eps=1.0, n_modes=2, dt=1e-3, t_final=1.0, cutoff=4,
                           watch=(1,), seed=0)
        with pytest.raises(ValueError, match=message):
            exact_mode_covariance(heat, NoiseSpec.white(4), cfg, t_grid=t_grid)


class TestBlockVsDensePathwise:
    def test_block_solver_matches_dense_stepping(self, cosine):
        """Full dense exponential stepping reproduces the per-class solver."""
        eps, n, cutoff, dt, t_final, seed = 0.25, 64, 8, 1e-3, 0.5, 21
        spec = NoiseSpec.white(cutoff)
        cfg = SolverConfig(eps=eps, n_modes=n, dt=dt, t_final=t_final, cutoff=cutoff,
                           watch=(1, 2, 3), seed=seed)
        out = simulate_path(cosine, spec, cfg)

        dense = np.zeros((n, n), dtype=complex)
        for j in range(-n // 2 + 1, n // 2):
            col = apply_generator(cosine, eps, SpectralField.basis(j, n))
            dense[:, j + n // 2] = col.coeffs
        dense[0, :] = dense[:, 0] = 0.0  # match the solver's symmetric band
        prop = sla.expm(dense * dt)
        noise_cols = np.zeros((n, 2 * cutoff + 1), dtype=complex)
        for k in range(-cutoff, cutoff + 1):
            noise_cols[:, k + cutoff] = oscillate(
                spec.profile(k), eps, k, n).coeffs
        dw = WienerStream(seed, 0).increments(cfg.n_steps, cutoff, dt)
        x = np.zeros(n, dtype=complex)
        worst = 0.0
        for i in range(cfg.n_steps):
            x = prop @ (x + noise_cols @ dw[i])
            for m in (1, 2, 3):
                worst = max(worst, abs(x[m + n // 2] - out.mode(m)[i + 1]))
        assert worst <= 1e-8
