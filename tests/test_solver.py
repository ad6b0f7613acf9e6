"""Tests for the block-structured multiscale solver."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from multiscale_spde import solver
from multiscale_spde.cell import Coefficients, solve_cell
from multiscale_spde.errors import ResolutionTooSmall, SolveFailed, UnstableStep
from multiscale_spde.fourier import SpectralField, l2_norm, oscillate
from multiscale_spde.limit import LimitModel, limit_model
from multiscale_spde.noise import NoiseSpec, WienerStream
from multiscale_spde.solver import (
    SolverConfig,
    apply_generator,
    build_blocks,
    coupled_sup_errors,
    exact_mode_covariance,
    simulate_path,
    suggest_modes,
)
from test_cell import random_band_limited

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


def random_coefficients(rng) -> Coefficients:
    """b and sigma with harmonics |j| <= 2 and sigma bounded away from zero."""
    b = rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
    s = 0.15 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
    return Coefficients.from_modes(
        {1: b[0], -1: np.conj(b[0]), 2: b[1], -2: np.conj(b[1])},
        {0: rng.uniform(0.8, 1.5), 1: s[0], -1: np.conj(s[0]),
         2: s[1], -2: np.conj(s[1])})


def stepped_reference(c, spec, config, path_index=0, model=None):
    """Reference: the per-step recursion that the blocked engine replaces.

    Every class steps one increment at a time, x <- P (x + F w) with
    P = expm(A dt), on the path's own Wiener stream; each watched limit
    mode follows l <- exp(-mu m^2 dt) (l + c_m w_m).  Returns the watched modes, |u|^2
    and the limit modes at every step, step 0 included.
    """
    op = build_blocks(c, spec, config)
    n_steps, dt, k_cut = config.n_steps, config.dt, spec.cutoff
    dw = WienerStream(config.seed, path_index).increments(n_steps, k_cut, dt)
    props = {res: sla.expm(blk.matrix * dt) for res, blk in op.blocks.items()}
    states = {res: np.zeros(blk.ks.size, dtype=complex) for res, blk in op.blocks.items()}
    modes = {m: np.zeros(n_steps + 1, dtype=complex) for m in config.watch}
    limit = {m: np.zeros(n_steps + 1, dtype=complex) for m in config.watch}
    norm2 = np.zeros(n_steps + 1)
    for i in range(n_steps):
        for res, blk in op.blocks.items():
            states[res] = props[res] @ (states[res] + blk.noise_map @ dw[i, blk.driven + k_cut])
        for m in config.watch:
            blk = op.block_of(m)
            modes[m][i + 1] = states[blk.residue][np.searchsorted(blk.ks, m)]
            if model is not None:
                decay = np.exp(-model.mu * m * m * dt)
                limit[m][i + 1] = decay * (limit[m][i] + model.coeff(m) * dw[i, m + k_cut])
        norm2[i + 1] = sum(float(np.sum(np.abs(x) ** 2)) for x in states.values())
    return {"modes": modes, "limit": limit, "norm2": norm2}


def final_values(c, spec, config, n_paths, batch):
    """Final-time watched-mode values of paths 0 .. n_paths - 1, batch paths per engine run."""
    op = build_blocks(c, spec, config)
    lookup = solver._watch_lookup(op, config.watch)
    observe = solver._class_rows(lookup)
    out = {m: np.zeros(n_paths, dtype=complex) for m, _, _ in lookup}
    for start in range(0, n_paths, batch):
        idx = range(start, min(start + batch, n_paths))
        for _, _, obs in solver._engine(op, config, idx, observe):
            pass  # only the last chunk's final step is kept
        for m, res, row in lookup:
            out[m][idx.start : idx.stop] = obs[res][:, -1, observe[res].index(row)]
    return out


def assert_matches_stepping(got, ref, label):
    """Equal to 1e-12 of the reference's largest magnitude, at every recorded step."""
    assert got.shape == ref.shape, label
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), label


# P = V e^{lam dt} V^-1 against expm, 2.5x the largest deviation measured
PROPAGATOR_RTOL = 5e-14

ENGINE_CASES = {
    "cosine A=1": Coefficients.cosine_potential(1.0),
    "cosine A=3": Coefficients.cosine_potential(3.0),
    "heat": Coefficients.heat(),
    "non-gradient": NONGRADIENT,
}


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


def per_entry_noise_map(ks, spec, r):
    """The noise columns of one class, by one search of ks and one coeff call per entry."""
    driven = ks[np.abs(ks) <= spec.cutoff]
    noise_map = np.zeros((ks.size, driven.size), dtype=complex)
    for col, k in enumerate(driven):
        q = spec.profile(int(k))
        for j in q.wavenumbers:
            row = np.searchsorted(ks, k + j * r)
            if row < ks.size and ks[row] == k + j * r:
                noise_map[row, col] = q.coeff(int(j))
    return noise_map


def random_profile(rng, harmonics):
    """A real profile with a real mean and random amplitudes at 1 .. harmonics."""
    modes = {0: rng.uniform(-1.0, 1.0)}
    for j in range(1, harmonics + 1):
        modes[j] = complex(*rng.uniform(-1.0, 1.0, 2))
        modes[-j] = np.conj(modes[j])
    return SpectralField.from_modes(modes)


class TestBlocks:
    def test_constant_coefficients_give_diagonal_blocks(self, heat):
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(heat, 0.25, 4), dt=1e-3,
                           t_final=1.0, watch=(1,), seed=0)
        op = build_blocks(heat, NoiseSpec.white(4), cfg)
        for blk in op.blocks.values():
            off_diag = blk.matrix - np.diag(np.diag(blk.matrix))
            assert np.abs(off_diag).max() == 0.0

    def test_single_cell_is_one_block(self, cosine):
        cfg = SolverConfig(eps=1.0, n_modes=32, dt=1e-3, t_final=1.0, watch=(1,), seed=0)
        op = build_blocks(cosine, NoiseSpec.white(4), cfg)
        assert list(op.blocks) == [0]
        dense = dense_entrywise_oracle(cosine, 1.0, 32)
        blk = op.blocks[0]
        idx = blk.ks + 16
        assert np.abs(blk.matrix - dense[np.ix_(idx, idx)]).max() <= 1e-10

    def test_block_assembly_matches_pseudospectral(self, cosine):
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 4), dt=1e-3,
                           t_final=1.0, watch=(1,), seed=0)
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
                           t_final=1.0, watch=(1,), seed=0)
        op = build_blocks(cosine, NoiseSpec.white(4), cfg)
        blk = op.blocks[1]
        nontrivial = np.abs(blk.matrix) > 1e-14
        rows, cols = np.nonzero(nontrivial)
        assert set(np.abs(rows - cols)) <= {0, 1}  # offsets 0 and +-1/eps only

    def test_conjugate_classes_mirror(self, cosine):
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 4), dt=1e-3,
                           t_final=1.0, watch=(1,), seed=0)
        op = build_blocks(cosine, NoiseSpec.white(4), cfg)
        a1 = op.blocks[1]
        a3 = op.blocks[3]
        assert np.array_equal(a1.ks, -a3.ks[::-1])
        assert np.abs(a3.matrix - np.conj(a1.matrix[::-1, ::-1])).max() <= 1e-14

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([1.0, 0.5, 0.25, 0.125]), st.integers(min_value=0, max_value=16),
           st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2))
    @example(seed=1, eps=0.125, harmonics=16, cutoff=4, extra=0)
    @settings(max_examples=40, deadline=None)
    def test_noise_maps_are_bitwise_the_per_entry_search(self, seed, eps, harmonics, cutoff,
                                                          extra):
        """Profiles up to 16 harmonics, most wider than their class: the entries that
        fall outside the class are dropped, the rest placed by index."""
        rng = np.random.default_rng(seed)
        c = random_band_limited(seed, wide=False)
        spec = NoiseSpec.tail_convergent(random_profile(rng, harmonics), 1.0, cutoff,
                                         ripple=random_profile(rng, int(rng.integers(0, 17))))
        r = int(round(1.0 / eps))
        n = 2 * r * (c.max_harmonic + 1 + extra) + 2 * cutoff
        cfg = SolverConfig(eps=eps, n_modes=n, dt=1e-3, t_final=1.0, watch=(1,), seed=0)
        op = build_blocks(c, spec, cfg)
        for blk in op.blocks.values():
            ref = per_entry_noise_map(blk.ks, spec, r)
            assert blk.noise_map.shape == ref.shape
            assert np.array_equal(blk.noise_map.view(np.uint64), ref.view(np.uint64))

    def test_eps_must_be_a_reciprocal_integer(self, cosine):
        cfg = SolverConfig(eps=0.3, n_modes=60, dt=1e-3, t_final=1.0, watch=(1,), seed=0)
        with pytest.raises(ValueError, match="eps = 0.3 is not the reciprocal of a positive"):
            build_blocks(cosine, NoiseSpec.white(4), cfg)


class TestSimulatePath:
    def test_zero_noise_stays_zero(self, cosine):
        spec = NoiseSpec.custom({}, cutoff=2)
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 2), dt=1e-3,
                           t_final=0.1, watch=(1, 2), seed=0)
        out = simulate_path(cosine, spec, cfg)
        assert max(np.abs(out.mode(m)).max() for m in (1, 2)) == 0.0

    def test_single_mode_ou_statistics(self, heat):
        """Driven mode 1 of the pure heat flow is an exact OU process."""
        cfg = SolverConfig(eps=1.0, n_modes=16, dt=1e-3, t_final=8.0, watch=(1,), seed=7)
        vals = final_values(heat, DELTA_ONE, cfg, 2000, batch=256)
        samples = np.abs(vals[1]) ** 2
        se = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(samples.mean() - 0.5) <= 3.0 * se

    def test_batched_sampler_reproduces_single_paths(self, heat):
        cfg = SolverConfig(eps=1.0, n_modes=16, dt=1e-3, t_final=0.5, watch=(1,), seed=7)
        vals = final_values(heat, DELTA_ONE, cfg, 3, batch=256)
        for p in range(3):
            ref = simulate_path(heat, DELTA_ONE, cfg, path_index=p).mode(1)[-1]
            assert vals[1][p] == ref

    def test_realness_and_conjugacy(self, cosine):
        cfg = SolverConfig(eps=0.125, n_modes=suggest_modes(cosine, 0.125, 4),
                           dt=1e-3, t_final=0.2, watch=(-3, -2, -1, 0, 1, 2, 3), seed=3)
        out = simulate_path(cosine, NoiseSpec.white(4), cfg)
        scale = max(np.abs(out.mode(1)).max(), 1e-30)
        for m in (1, 2, 3):
            assert np.abs(out.mode(-m) - np.conj(out.mode(m))).max() <= 1e-10 * scale
        assert np.abs(out.mode(0).imag).max() <= 1e-10 * scale
        assert out.times[0] == 0.0 and np.abs(out.mode(1)[0]) == 0.0

    def test_overflow_guard(self, heat):
        big = NoiseSpec.custom({1: 1e13 * SpectralField.constant(1.0)}, cutoff=1)
        cfg = SolverConfig(eps=1.0, n_modes=8, dt=1e-3, t_final=1.0, watch=(1,), seed=0)
        with pytest.raises(UnstableStep):
            simulate_path(heat, big, cfg)

    def test_overflow_guard_sees_unwatched_classes(self, heat):
        """Mode 2 sits in the other class of eps = 1/2; watching mode 1 still trips."""
        big = NoiseSpec.custom({1: SpectralField.constant(1.0),
                                2: 1e13 * SpectralField.constant(1.0)}, cutoff=2)
        cfg = SolverConfig(eps=0.5, n_modes=16, dt=1e-3, t_final=1.0, watch=(1,), seed=0)
        with pytest.raises(UnstableStep):
            simulate_path(heat, big, cfg)

    def test_norm_tracking(self, heat):
        """With only modes +-1 driven, |u|^2 is twice the watched mode power."""
        cfg = SolverConfig(eps=1.0, n_modes=16, dt=1e-3, t_final=0.5, watch=(1,), seed=4,
                           track_norm=True)
        out = simulate_path(heat, DELTA_ONE, cfg)
        expected = 2.0 * np.abs(out.mode(1)) ** 2
        assert np.abs(out.norm_squared - expected).max() <= 1e-12


class TestCoupled:
    KEYS = ("full", "half_modes", "coarse_grid")

    def test_zero_noise_gives_zero_difference(self, cosine, cosine_cell):
        spec = NoiseSpec.custom({}, cutoff=2)
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 2), dt=1e-3,
                           t_final=0.1, watch=(1,), seed=0)
        sups = coupled_sup_errors(cosine, spec, cfg, limit_model("averaged", spec, cosine_cell, 1),
                                  1.0, 3)
        for key in self.KEYS:
            assert np.array_equal(sups[key], np.zeros(3)), key

    def test_trivial_cell_coincides_with_limit(self, heat):
        """With flat cell structure the two updates are algebraically equal."""
        spec = NoiseSpec.power_decay(0.75, 16)
        cfg = SolverConfig(eps=0.125, n_modes=suggest_modes(heat, 0.125, 16),
                           dt=1e-3, t_final=0.5, watch=(1, 2), seed=5)
        model = limit_model("averaged", spec, solve_cell(heat), 2)
        sups = coupled_sup_errors(heat, spec, cfg, model, 1.0, 3)
        for key in self.KEYS:
            assert np.array_equal(sups[key], np.zeros(3)), key

    def test_difference_shrinks_with_eps(self, cosine, cosine_cell):
        """Mean sup difference over a path ensemble halves when eps halves."""
        spec64 = NoiseSpec.power_decay(0.75, 64)
        model = limit_model("averaged", spec64, cosine_cell, 1)
        means = []
        for eps in (0.25, 0.125):
            cfg = SolverConfig(eps=eps, n_modes=suggest_modes(cosine, eps, 64),
                               dt=5e-4, t_final=0.5, watch=(1,), seed=2)
            sups = coupled_sup_errors(cosine, spec64, cfg, model, 1.0, 32)
            means.append(sups["full"].mean())
        assert means[1] < means[0] / 1.3


class TestBlockedEngine:
    """The engine advances B steps per product; stepping one at a time is the oracle."""

    @pytest.mark.parametrize("name", sorted(ENGINE_CASES))
    def test_propagator_matches_expm(self, name):
        """P = V e^{lam dt} V^-1 against SciPy's expm, on every class block.

        Measured: at most 1.9e-14 of max |expm| (cosine A = 3, cond(V) 344),
        1.6e-15 for the others; diagonal heat blocks are bitwise equal.
        """
        c = ENGINE_CASES[name]
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(c, 0.25, 8), dt=1e-3,
                           t_final=0.3, watch=(1,), seed=5)
        for blk in build_blocks(c, NoiseSpec.white(8), cfg).blocks.values():
            p, _ = solver._recursion(blk, cfg, ())
            ref = sla.expm(blk.matrix * cfg.dt)
            if name == "heat":
                assert np.array_equal(p, ref), blk.residue
            assert np.abs(p - ref).max() <= PROPAGATOR_RTOL * np.abs(ref).max(), blk.residue

    @pytest.mark.parametrize("name", sorted(ENGINE_CASES))
    def test_paths_match_stepping(self, name):
        c = ENGINE_CASES[name]
        # 300 steps: one full chunk of increments and a partial one
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(c, 0.25, 8), dt=1e-3,
                           t_final=0.3, watch=(-3, 0, 1, 2, 5), seed=5)
        out = simulate_path(c, NoiseSpec.white(8), cfg, path_index=2)
        ref = stepped_reference(c, NoiseSpec.white(8), cfg, path_index=2)
        for m in cfg.watch:
            assert_matches_stepping(out.mode(m), ref["modes"][m], f"{name}, m = {m}")

    def test_norm_matches_stepping(self, cosine):
        cfg = SolverConfig(eps=0.125, n_modes=suggest_modes(cosine, 0.125, 8), dt=1e-3,
                           t_final=0.3, watch=(1, 4), seed=8, track_norm=True)
        out = simulate_path(cosine, NoiseSpec.white(8), cfg)
        ref = stepped_reference(cosine, NoiseSpec.white(8), cfg)
        assert np.array_equal(out.times, np.arange(301) * cfg.dt)
        for m in cfg.watch:
            assert_matches_stepping(out.mode(m), ref["modes"][m], f"m = {m}")
        assert_matches_stepping(out.norm_squared, ref["norm2"], "norm")

    def test_sup_errors_match_stepping(self, cosine, cosine_cell):
        spec = NoiseSpec.power_decay(0.75, 8)
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 8), dt=1e-3,
                           t_final=0.3, watch=(1, 2, 3, 4), seed=3)
        model = limit_model("averaged", spec, cosine_cell, 4)
        sups = coupled_sup_errors(cosine, spec, cfg, model, 1.0, 3, batch=2)
        for p in range(3):
            ref = stepped_reference(cosine, spec, cfg, path_index=p, model=model)
            terms = {m: (1.0 + m * m) ** -1.0 * np.abs(ref["modes"][m] - ref["limit"][m]) ** 2
                     for m in cfg.watch}
            full = sum(terms.values())
            want = {"full": full.max(), "half_modes": (terms[1] + terms[2]).max(),
                    "coarse_grid": full[::2].max()}  # states after an even step count
            for key, value in want.items():
                assert abs(sups[key][p] - value) <= 1e-12 * value, (key, p)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=6, deadline=None)
    def test_batch_size_does_not_change_any_path(self, seed):
        """Bitwise, within one NumPy/BLAS build: products run per path."""
        rng = np.random.default_rng(seed)
        c = random_coefficients(rng)
        spec = NoiseSpec.power_decay(0.75, 4)
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(c, 0.25, 4), dt=1e-3,
                           t_final=0.3, watch=(1, 2), seed=int(rng.integers(100)))
        # random drifts need not admit a corrector, so the limit is drawn too
        coeffs = rng.uniform(0.5, 1.5, 3) + 1j * rng.uniform(-0.5, 0.5, 3)
        model = LimitModel(mu=float(rng.uniform(0.1, 1.0)), mode_cutoff=2,
                           coeffs={m: coeffs[abs(m)] if m >= 0 else np.conj(coeffs[-m])
                                   for m in range(-2, 3)})
        finals = [final_values(c, spec, cfg, 5, batch=b) for b in (1, 3, 64)]
        sups = [coupled_sup_errors(c, spec, cfg, model, 1.0, 5, batch=b) for b in (1, 3, 64)]
        for other in finals[1:]:
            for m in cfg.watch:
                assert np.array_equal(other[m], finals[0][m])
        for other in sups[1:]:
            for key in other:
                assert np.array_equal(other[key], sups[0][key])
        for p in range(5):
            out = simulate_path(c, spec, cfg, path_index=p)
            for m in cfg.watch:
                assert out.mode(m)[-1] == finals[0][m][p]

    def test_undriven_watched_mode_is_a_value_error(self, cosine, cosine_cell):
        spec = NoiseSpec.power_decay(0.75, 2)
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 2), dt=1e-3,
                           t_final=0.01, watch=(1, 2, 3), seed=0)
        model = limit_model("averaged", spec, cosine_cell, 3)
        with pytest.raises(ValueError, match="eps = 0.25 the noise cutoff 2 is below"):
            coupled_sup_errors(cosine, spec, cfg, model, 1.0, 2)


class TestExactCovariance:
    def test_scalar_ou_closed_form(self):
        """Diagonal block: variance (1 - exp(-2 a t)) / (2 a), a = m^2 s^2/2."""
        for sigma, rate in ((np.sqrt(2.0), 1.0), (2.0, 2.0)):
            c = Coefficients.heat(sigma)
            cfg = SolverConfig(eps=1.0, n_modes=16, dt=1e-4, t_final=2.0, watch=(1,), seed=0)
            cov = exact_mode_covariance(c, DELTA_ONE, cfg, t_grid=[0.5, 1.0, 2.0],
                                        modes=[1])
            for t, v in zip(cov.times, cov.variances[1]):
                assert_allclose(v, (1.0 - np.exp(-2.0 * rate * t)) / (2.0 * rate),
                                atol=5e-9)

    def test_monte_carlo_cross_check(self, cosine):
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 8), dt=1e-3,
                           t_final=2.0, watch=(1,), seed=11)
        spec = NoiseSpec.white(8)
        mc = np.abs(final_values(cosine, spec, cfg, 2000, batch=256)[1]) ** 2
        cov = exact_mode_covariance(cosine, spec, cfg, t_grid=[2.0], modes=[1])
        se = mc.std(ddof=1) / np.sqrt(mc.size)
        assert abs(mc.mean() - cov.at_final(1)) <= 4.0 * se

    def test_dt_refinement_is_second_order(self, cosine):
        vals = {}
        for dt in (4e-3, 2e-3, 1e-3):
            cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 4),
                               dt=dt, t_final=1.0, watch=(1,), seed=1)
            vals[dt] = exact_mode_covariance(cosine, NoiseSpec.white(4), cfg,
                                             t_grid=[1.0], modes=[1]).at_final(1)
        ratio = (vals[4e-3] - vals[2e-3]) / (vals[2e-3] - vals[1e-3])
        assert 3.0 <= ratio <= 5.0

    def test_energy_identity_for_pure_diffusion(self, heat):
        cfg = SolverConfig(eps=1.0, n_modes=32, dt=1e-3, t_final=8.0, watch=tuple(range(5)),
                           seed=1)
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
                           dt=min(1e-3, eps * eps / 4.0), t_final=1.0, watch=(1,), seed=0)
        assert_matches_oracle(c, NoiseSpec.white(8), cfg, np.linspace(0.0, 1.0, 11),
                              modes=[1, 2])

    def test_heat_with_brownian_mode_matches(self, heat):
        cfg = SolverConfig(eps=1.0, n_modes=32, dt=1e-3, t_final=2.0, watch=(1,), seed=0)
        assert_matches_oracle(heat, NoiseSpec.white(4), cfg, np.linspace(0.0, 2.0, 9),
                              modes=list(range(5)))

    def test_step_with_zero_ratio_matches(self):
        """dt (lam_0 + lam_2) / 2 = -1 exactly: r = 0, where log r is -inf."""
        c = Coefficients.heat(2.0)  # lam_k = -2 k^2
        cfg = SolverConfig(eps=1.0, n_modes=16, dt=0.25, t_final=1.0, watch=(1,), seed=0)
        assert_matches_oracle(c, NoiseSpec.white(4), cfg, [0.0, 0.25, 0.5, 1.0],
                              modes=[0, 1, 2])

    def test_every_class_matches(self, cosine):
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 4), dt=1e-3,
                           t_final=0.5, watch=(1,), seed=0)
        assert_matches_oracle(cosine, NoiseSpec.white(4), cfg, np.linspace(0.0, 0.5, 6))

    def test_nongradient_drift_matches(self):
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(NONGRADIENT, 0.25, 4),
                           dt=1e-3, t_final=1.0, watch=(1,), seed=0)
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
                           t_final=0.5, watch=(1,), seed=0)
        assert_matches_oracle(c, NoiseSpec.white(4), cfg, [0.1, 0.25, 0.5])

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([0.5, 0.25]),
           st.booleans())
    @settings(max_examples=8, deadline=None)
    def test_random_band_limited_variances_are_nonnegative(self, seed, eps, wide):
        """Every variance is a diagonal entry of a covariance: finite and >= 0 to rounding."""
        c = random_band_limited(seed, wide)
        cfg = SolverConfig(eps=eps, n_modes=suggest_modes(c, eps, 4), dt=1e-3,
                           t_final=0.5, watch=(1,), seed=0)
        cov = exact_mode_covariance(c, NoiseSpec.white(4), cfg, [0.0, 0.1, 0.25, 0.5])
        values = np.concatenate(list(cov.variances.values()))
        assert np.isfinite(values).all()
        assert values.min() >= -1e-12 * values.max()

    @pytest.mark.parametrize("flow, unchecked, message", [
        ("covariance", False, r"class 1: eigen-residual"),
        ("engine", False, r"class \d: eigen-residual"),
        ("semigroup", False, r"adjoint flow on k = -12 .. 12 at eps = 1: eigen-residual"),
        # past an unchecked basis, the covariance's own contract still fires
        ("covariance", True, r"class 1: trapezoid residual"),
    ], ids=["covariance", "engine", "semigroup", "covariance-unchecked"])
    def test_inaccurate_eigenbasis_fails_the_residual_contract(self, cosine, monkeypatch,
                                                                flow, unchecked, message):
        """V + 1e-6 noise: every flow on the eigenbasis raises SolveFailed."""
        from multiscale_spde import experiments

        real_eig = np.linalg.eig

        def perturbed(a):
            lam, vecs = real_eig(a)
            return lam, vecs + 1e-6 * np.random.default_rng(0).standard_normal(vecs.shape)

        monkeypatch.setattr(np.linalg, "eig", perturbed)
        if unchecked:
            monkeypatch.setattr(solver, "eigenbasis", lambda a, block: np.linalg.eig(a))
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 4), dt=1e-3,
                           t_final=1.0, watch=(1,), seed=0)
        with pytest.raises(SolveFailed, match=message):
            if flow == "covariance":
                exact_mode_covariance(cosine, NoiseSpec.white(4), cfg, t_grid=[1.0], modes=[1])
            elif flow == "engine":
                simulate_path(cosine, NoiseSpec.white(4), cfg)
            else:
                experiments.run_semigroup_study({
                    "coefficients": {"name": "cosine-potential", "amplitude": 1.0},
                    "solver": {"eps": [0.125, 0.0625, 0.03125]},
                    "study": {"kind": "semigroup", "mode": 1},
                })

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_non_finite_covariance_raises_unstable_step(self, heat):
        huge = NoiseSpec.custom({1: 1e200 * SpectralField.constant(1.0)}, cutoff=1)
        cfg = SolverConfig(eps=1.0, n_modes=16, dt=1e-3, t_final=1.0, watch=(1,), seed=0)
        with pytest.raises(UnstableStep):
            exact_mode_covariance(heat, huge, cfg, t_grid=[1.0], modes=[1])

    def test_mode_outside_the_band_is_rejected(self, heat):
        cfg = SolverConfig(eps=1.0, n_modes=16, dt=1e-3, t_final=1.0, watch=(1,), seed=0)
        with pytest.raises(ResolutionTooSmall, match="mode 100 outside the band"):
            exact_mode_covariance(heat, NoiseSpec.white(4), cfg, t_grid=[1.0], modes=[1, 100])

    @pytest.mark.parametrize("t_grid, message", [
        ([], "t_grid is empty"),
        ([0.5, np.nan], "non-finite"),
        ([np.inf], "non-finite"),
    ])
    def test_bad_time_grid_fails_before_blocks(self, heat, t_grid, message):
        # n_modes is too small for build_blocks, so the t_grid message shows
        # the grid was rejected before any block was built
        cfg = SolverConfig(eps=1.0, n_modes=2, dt=1e-3, t_final=1.0, watch=(1,), seed=0)
        with pytest.raises(ValueError, match=message):
            exact_mode_covariance(heat, NoiseSpec.white(4), cfg, t_grid=t_grid)


class TestBlockVsDensePathwise:
    def test_block_solver_matches_dense_stepping(self, cosine):
        """Full dense exponential stepping reproduces the per-class solver."""
        eps, n, cutoff, dt, t_final, seed = 0.25, 64, 8, 1e-3, 0.5, 21
        spec = NoiseSpec.white(cutoff)
        cfg = SolverConfig(eps=eps, n_modes=n, dt=dt, t_final=t_final, watch=(1, 2, 3), seed=seed)
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
