"""Tests for the block-structured multiscale solver."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from multiscale_spde import solver
from multiscale_spde.cell import Coefficients, solve_cell
from multiscale_spde.errors import ResolutionTooSmall, SolveFailed, UnstableStep
from multiscale_spde.experiments import parse_config
from multiscale_spde.fourier import SpectralField, l2_norm
from multiscale_spde.limit import LimitModel, limit_model
from multiscale_spde.noise import NoiseSpec
from multiscale_spde.solver import (
    SolverConfig,
    apply_generator,
    build_blocks,
    coupled_sup_errors,
    exact_mode_covariance,
    simulate_paths,
    suggest_modes,
)
from test_cell import random_band_limited
from test_noise import drawn, key_stream

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


def read_mode(obs, c, s, sgn):
    """The complex coordinate y[c] + 1j sgn y[s] of a plan's read (m, c, s, sgn), from its
    observed rows, the last axis of obs; y[c] alone when sgn = 0."""
    return obs[..., c] + 1j * sgn * obs[..., s] if sgn else obs[..., c] + 0j


def plan_coords(plan, blk, cells):
    """(cos, sin, sgn) of every complex coordinate X_i = y[cos_i] + 1j sgn_i y[sin_i] of a
    plan's state [x; delta], rebuilt from the layout rules alone.

    _real_form's coordinates of the state (a paired class with its
    conjugate class's state after it), reordered so that the real
    coordinates of the complex ones read after every step come first:
    every one when the plan observes all n, else the differences (with a
    model) or the rows of the modes read.  Each of the plan's reads is
    checked against them: mode m sits at the row of m, or of -m read
    through its conjugate, with the sign flipped.
    """
    n_x, k = blk.ks.size, blk.ks.size + len(plan.limits)
    rows = [row for row, *_ in plan.limits]
    if (2 * blk.residue) % cells == 0:
        partner = np.array([n_x - 1 - i for i in range(n_x)]
                           + [n_x + rows.index(n_x - 1 - row) for row in rows])
    else:
        partner = np.concatenate([np.arange(k, 2 * k), np.arange(k)])
    zero = np.zeros((partner.size, partner.size))
    _, _, (cos, sin, sgn) = solver._real_form(zero, zero, partner)
    sources = [(m, 1) if m % cells == blk.residue else (-m, -1) for m, *_ in plan.reads]
    at = [int(np.flatnonzero(blk.ks == source)[0]) for source, _ in sources]
    at = [n_x + rows.index(i) if rows else i for i in at]
    seen = range(k) if plan.o == plan.n else range(n_x, k) if rows else at
    first = np.isin(np.arange(plan.n), np.concatenate([cos[seen], sin[seen]]))
    slot = np.argsort(np.argsort(~first, kind="stable"))
    cos, sin, sgn = slot[cos[:k]], slot[sin[:k]], sgn[:k]
    for (_, c, s, sign), i, (_, flip) in zip(plan.reads, at, sources):
        assert (c, s, sign) == (cos[i], sin[i], flip * sgn[i]), (blk.residue, i)
    return cos, sin, sgn


def stepped_reference(c, spec, config, path_index=0, model=None):
    """Reference: each block replayed from the plan's P and f, one step at a time.

    Each evolved class (residues 0 .. r/2 with track_norm, else the
    watched classes, with their difference coordinates when a model is
    given) is planned as the engine plans it, observing every coordinate
    when config.track_norm.
    Block b reads the class's own normals w_b, its plan.r next ones from
    stream (seed, path, residue): after step i of the block the
    observed rows are (P^i y_0)[:o] plus rows (i-1) o .. i o of f w_b,
    and the block ends in P^B y_0 plus f's last n rows times w_b (its
    last o observed rows, then the state's other n - o), P^i y_0 stepped
    by P alone.  Returns under "watched" each watched mode (with a
    model, its difference u_eps - u), and with track_norm |u|^2 summed
    over every class (a paired class counts twice, once for its
    conjugate), at every step, step 0 included.
    """
    op = build_blocks(c, spec, config)
    plans = solver._class_plans(c, spec, config, model)
    n_steps = config.n_steps
    obs = {}
    for res, plan in plans.items():
        n, o, length = plan.n, plan.o, plan.length
        n_blocks = -(-n_steps // length)
        w = drawn(key_stream(config.seed, path_index, res), n_blocks, plan.r)
        rows = np.zeros((n_blocks * length + 1, o))
        y = np.zeros(n)
        for b in range(n_blocks):
            kick, free = plan.f @ w[b], y
            for i in range(1, length + 1):
                free = plan.p @ free
                rows[b * length + i] = free[:o] + kick[(i - 1) * o : i * o]
            y = free + kick[(length - 1) * o :]
        obs[res] = rows[: n_steps + 1]
    out = {"watched": {m: read_mode(obs[res], *read)
                       for res, plan in plans.items() for m, *read in plan.reads}}
    if config.track_norm:
        norm2 = 0.0
        for res, plan in plans.items():
            cos, sin, sgn = plan_coords(plan, op.blocks[res], op.cells)
            y = obs[res]
            power = sum(y[:, cos[k]] ** 2 + y[:, sin[k]] ** 2 if sgn[k] else y[:, cos[k]] ** 2
                        for k in range(op.blocks[res].ks.size))
            norm2 = norm2 + (1.0 if (2 * res) % op.cells == 0 else 2.0) * power
        out["norm2"] = norm2
    return out


def final_values(c, spec, config, n_paths, batch):
    """Final-time watched-mode values of paths 0 .. n_paths - 1, batch paths per engine run.

    The classes and observed rows are simulate_paths', and batch is a
    whole number of path groups, as in _map_paths, so path p's values are
    its values bit for bit.
    """
    assert batch % solver.PATH_GROUP == 0
    plans = solver._class_plans(c, spec, config)
    out = {m: np.zeros(n_paths, dtype=complex) for m in config.watch}
    for start in range(0, n_paths, batch):
        idx = range(start, min(start + batch, n_paths))
        # each class's last chunk ends at the final step, and is read last
        for plan, _, _, obs in solver._engine(plans, config, idx):
            for m, *read in plan.reads:
                out[m][idx.start : idx.stop] = read_mode(obs[:, -1], *read)
    return out


def final_differences(c, spec, config, model, n_paths):
    """Final-time u_eps - u of each watched mode, set up as coupled_sup_errors sets it up."""
    plans = solver._class_plans(c, spec, config, model)
    out = {}
    for plan, _, _, obs in solver._engine(plans, config, range(n_paths)):
        for m, *read in plan.reads:  # a class's last chunk, read last, ends at the final step
            out[m] = read_mode(obs[:, -1], *read)
    return out


def exact_second_moments(op, config, limits):
    """E|X_i(t_f)|^2 of every complex coordinate of each class, by S <- P S P* + Q.

    limits maps residue -> the (row, driven column, rate, coeff) of each
    limit mode appended to that class (_transition).
    """
    out = {}
    for res, terms in limits.items():
        p, q = solver._transition(op.blocks[res], config.dt, terms)
        s = np.zeros_like(q)
        for _ in range(config.n_steps):
            s = p @ s @ p.conj().T + q
        out[res] = s.diagonal().real
    return out


def assert_matches_stepping(got, ref, label):
    """Equal to 1e-12 of the reference's largest magnitude, at every recorded step."""
    assert got.shape == ref.shape, label
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), label


def stepped_kicks(plan, l):
    """K: each step's normals L z_j carried through the block by P one step at a time.

    Rows are the block's outputs (the observed rows, the state's first
    plan.o, after each of its plan.length steps, then the state's other
    n - o at its end, so its last n rows are the state), columns the steps'
    normals, L L^T the step's Q(dt) on the plan's real coordinates; K K^T
    is the stepped chain's joint covariance of the outputs.
    """
    (n, d), o, length = l.shape, plan.o, plan.length
    out = np.zeros((length * o + n - o, length * d))
    for j in range(length):
        v = l
        for i in range(j + 1, length + 1):
            out[(i - 1) * o : i * o, j * d : (j + 1) * d] = v[:o]
            if i < length:
                v = plan.p @ v
        out[(length - 1) * o :, j * d : (j + 1) * d] = v
    return out


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
        spec = NoiseSpec.tail_convergent(random_profile(rng, harmonics), 1.0, cutoff=cutoff,
                                         ripple=random_profile(rng, int(rng.integers(0, 17))))
        r = int(round(1.0 / eps))
        n = 2 * r * (c.max_harmonic + 1 + extra) + 2 * cutoff
        cfg = SolverConfig(eps=eps, n_modes=n, dt=1e-3, t_final=1.0, watch=(1,), seed=0)
        op = build_blocks(c, spec, cfg)
        for blk in op.blocks.values():
            ref = per_entry_noise_map(blk.ks, spec, r)
            assert blk.noise_map.shape == ref.shape
            assert np.array_equal(blk.noise_map.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("changes, error, message", [
        ({"dt": 0.0}, ValueError, r"need 0 < dt <= t_final"),
        ({"dt": 2.0}, ValueError, r"need 0 < dt <= t_final"),
        ({"n_modes": 30}, ResolutionTooSmall, r"n_modes = 30 below the required 32$"),
        ({"n_modes": 65}, ResolutionTooSmall, r"n_modes = 65 is odd; the band -N/2 < k < N/2"),
    ], ids=["dt-zero", "dt-above-t_final", "below-minimum", "odd"])
    def test_bad_config_is_refused(self, cosine, changes, error, message):
        """An odd band -N/2 < k < N/2 is not symmetric, so no class would mirror its
        conjugate; at N = 65 the simulated mode 0 would not be real."""
        cfg = SolverConfig(eps=0.25, n_modes=64, dt=1e-3, t_final=1.0, watch=(1,), seed=0)
        with pytest.raises(error, match=message):
            build_blocks(cosine, NoiseSpec.white(8), replace(cfg, **changes))

    def test_eps_must_be_a_reciprocal_integer(self, cosine):
        cfg = SolverConfig(eps=0.3, n_modes=60, dt=1e-3, t_final=1.0, watch=(1,), seed=0)
        with pytest.raises(ValueError, match="eps = 0.3 is not the reciprocal of a positive"):
            build_blocks(cosine, NoiseSpec.white(4), cfg)


class TestSimulatePath:
    def test_zero_noise_stays_zero(self, cosine):
        """q_4 alone drives only class 0 at eps = 1/4: the watched classes 1 and 2 get
        zero noise and stay exactly zero (a noise that drives nothing is refused)."""
        spec = NoiseSpec.custom({4: SpectralField.constant(1.0)}, cutoff=4)
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 4), dt=1e-3,
                           t_final=0.1, watch=(1, 2), seed=0)
        out = simulate_paths(cosine, spec, cfg, 1)
        assert max(np.abs(out.modes[m][0]).max() for m in (1, 2)) == 0.0

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
        out = simulate_paths(heat, DELTA_ONE, cfg, 3)
        for p in range(3):
            assert vals[1][p] == out.modes[1][p][-1]

    def test_realness_and_conjugacy(self, cosine):
        cfg = SolverConfig(eps=0.125, n_modes=suggest_modes(cosine, 0.125, 4),
                           dt=1e-3, t_final=0.2, watch=(-3, -2, -1, 0, 1, 2, 3), seed=3)
        out = simulate_paths(cosine, NoiseSpec.white(4), cfg, 1)
        scale = max(np.abs(out.modes[1][0]).max(), 1e-30)
        for m in (1, 2, 3):
            assert np.abs(out.modes[-m][0] - np.conj(out.modes[m][0])).max() <= 1e-10 * scale
        assert np.abs(out.modes[0][0].imag).max() <= 1e-10 * scale
        assert out.times[0] == 0.0 and np.abs(out.modes[1][0][0]) == 0.0

    def test_watch_order_does_not_change_any_mode(self, cosine):
        """Bitwise: the evolved classes and their observed rows do not depend on watch order."""
        watch = (-3, -1, 0, 1, 2, 5)
        outs = []
        for order in (watch, watch[::-1]):
            cfg = SolverConfig(eps=0.125, n_modes=suggest_modes(cosine, 0.125, 8), dt=1e-3,
                               t_final=0.1, watch=order, seed=3)
            outs.append(simulate_paths(cosine, NoiseSpec.white(8), cfg, 1))
        assert np.abs(outs[0].modes[1][0]).max() > 0.0
        for m in watch:
            assert np.array_equal(outs[0].modes[m][0], outs[1].modes[m][0]), m

    def test_only_the_classes_read_are_planned(self, cosine, monkeypatch):
        """Without track_norm simulate plans, and builds the blocks of, exactly the
        classes its watched modes are read in; with it, every class 0 .. r/2.

        eps = 1/8: 1 and 4 are read in their own classes, -3 (residue 5) and 6
        (residue 6) through the conjugates of 3 and -6, in classes 3 and 2.
        """
        planned, built = [], []
        class_plans, build = solver._class_plans, solver.build_blocks

        def recording_plans(*args, **kwargs):
            plans = class_plans(*args, **kwargs)
            planned.append(list(plans))
            return plans

        def recording_build(*args, **kwargs):
            op = build(*args, **kwargs)
            built.append(list(op.blocks))
            return op

        monkeypatch.setattr(solver, "_class_plans", recording_plans)
        monkeypatch.setattr(solver, "build_blocks", recording_build)
        cfg = SolverConfig(eps=0.125, n_modes=suggest_modes(cosine, 0.125, 8), dt=1e-3,
                           t_final=0.01, watch=(-3, 1, 4, 6), seed=2)
        for tracked in (False, True):
            simulate_paths(cosine, NoiseSpec.white(8), replace(cfg, track_norm=tracked), 1)
        assert planned == built == [[1, 2, 3, 4], [0, 1, 2, 3, 4]]

    def test_a_watched_mode_from_another_class_leaves_mode_one_as_it_was(self, cosine):
        """Bitwise: watching 2 too plans class 2 and leaves mode 1's trajectories alone."""
        outs = []
        for watch in ((1,), (1, 2)):
            cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 8), dt=1e-3,
                               t_final=0.1, watch=watch, seed=6)
            outs.append(simulate_paths(cosine, NoiseSpec.white(8), cfg, 3))
        assert np.abs(outs[0].modes[1][:, -1]).min() > 0.0
        assert np.array_equal(outs[1].modes[1], outs[0].modes[1])

    def test_overflow_guard(self, heat):
        big = NoiseSpec.custom({1: 1e13 * SpectralField.constant(1.0)}, cutoff=1)
        cfg = SolverConfig(eps=1.0, n_modes=8, dt=1e-3, t_final=1.0, watch=(1,), seed=0)
        with pytest.raises(UnstableStep):
            simulate_paths(heat, big, cfg, 1)

    def test_overflow_guard_sees_unwatched_classes(self, heat):
        """Mode 2 sits in the other class of eps = 1/2; watching mode 1 with track_norm,
        which evolves every class, still trips.  Without it class 0 is not evolved."""
        big = NoiseSpec.custom({1: SpectralField.constant(1.0),
                                2: 1e13 * SpectralField.constant(1.0)}, cutoff=2)
        cfg = SolverConfig(eps=0.5, n_modes=16, dt=1e-3, t_final=1.0, watch=(1,), seed=0,
                           track_norm=True)
        with pytest.raises(UnstableStep):
            simulate_paths(heat, big, cfg, 1)
        out = simulate_paths(heat, big, replace(cfg, track_norm=False), 1)
        assert np.isfinite(out.modes[1]).all() and np.abs(out.modes[1]).max() < 10.0

    def test_norm_tracking(self, heat):
        """With only modes +-1 driven, |u|^2 is twice the watched mode power."""
        cfg = SolverConfig(eps=1.0, n_modes=16, dt=1e-3, t_final=0.5, watch=(1,), seed=4,
                           track_norm=True)
        out = simulate_paths(heat, DELTA_ONE, cfg, 1)
        expected = 2.0 * np.abs(out.modes[1][0]) ** 2
        assert np.abs(out.norm_squared[0] - expected).max() <= 1e-12


class TestCoupled:
    KEYS = ("full", "half_modes", "coarse_grid")

    def test_zero_noise_gives_zero_difference(self, cosine, cosine_cell):
        """q_4 alone drives only class 0 at eps = 1/4: the watched class 1 gets zero
        noise, so u_eps and its limit stay exactly zero there."""
        spec = NoiseSpec.custom({4: SpectralField.constant(1.0)}, cutoff=4)
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 4), dt=1e-3,
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


def van_loan(a, g, dt):
    """P = e^{a dt} and Q = int_0^dt e^{a s} g g* e^{a* s} ds from one SciPy expm.

    expm([[a, g g*], [0, -a*]] dt) = [[P, F], [0, e^{-a* dt}]] with F P* = Q.
    """
    n = a.shape[0]
    big = np.zeros((2 * n, 2 * n), dtype=complex)
    big[:n, :n], big[:n, n:], big[n:, n:] = a, g @ g.conj().T, -a.conj().T
    e = sla.expm(big * dt)
    return e[:n, :n], e[:n, n:] @ e[:n, :n].conj().T


def extended_system(blk, limits):
    """Generator and noise columns of [x; delta], delta_i = x_row - l_i, built directly."""
    n, q = blk.ks.size, len(limits)
    a = np.zeros((n + q, n + q), dtype=complex)
    g = np.zeros((n + q, blk.driven.size), dtype=complex)
    a[:n, :n], g[:n] = blk.matrix, blk.noise_map
    t = np.eye(n + q)
    for i, (row, col, rate, coeff) in enumerate(limits):
        a[n + i, n + i], g[n + i, col] = -rate, coeff
        t[n + i, row], t[n + i, n + i] = 1.0, -1.0
    return t @ a @ t, t @ g  # t is its own inverse


def coordinate_map(coords, n, size):
    """U with X = U y for the class's first size complex coordinates X and the plan's n
    real ones y, coords = plan_coords(...)."""
    u = np.zeros((size, n), dtype=complex)
    for i in range(size):
        c, s, sgn = coords[0][i], coords[1][i], coords[2][i]
        u[i, c] += 1.0
        u[i, s] += 1j * sgn
    return u


def real_step_covariance(plan, coords, q, self_conjugate):
    """Q_y = U^-1 Q U^-* of a class's complex Q(dt), U^-1 built densely from the plan's
    coordinates, coords = plan_coords(...).

    A paired class's state is [x; conj x] (_ClassPlan), whose conjugate
    half reads the same real coordinates with the opposite sign; its Q is
    blockdiag(Q, conj Q).  An exactly zero row of Q stays exactly zero.
    """
    cos, sin, sgn = coords
    if not self_conjugate:
        cos, sin, sgn = np.tile(cos, 2), np.tile(sin, 2), np.concatenate([sgn, -sgn])
        q = sla.block_diag(q, q.conj())
    idx = np.arange(q.shape[0])
    u_inv = np.zeros((plan.n, idx.size), dtype=complex)
    u_inv[cos, idx] = np.where(sgn == 0, 1.0, 0.5)
    u_inv[sin, idx] += -0.5j * sgn
    return (u_inv @ q @ u_inv.conj().T).real


def dense_real_form(p, cov, partner):
    """U^-1 P U and U^-1 Q U^-* by dense complex products, with _real_form's coordinates."""
    _, _, (cos, sin, sgn) = solver._real_form(p, cov, partner)
    k = partner.size
    idx = np.arange(k)
    u = np.zeros((k, k), dtype=complex)
    u_inv = np.zeros((k, k), dtype=complex)
    u[idx, cos] = 1.0
    u[idx, sin] += 1j * sgn
    u_inv[cos, idx] = np.where(sgn == 0, 1.0, 0.5)
    u_inv[sin, idx] += -0.5j * sgn
    q_y = (u_inv @ cov @ u_inv.conj().T).real
    return (u_inv @ p @ u).real, 0.5 * (q_y + q_y.T)


def conjugate_symmetric(rng, partner):
    """A random M with M[partner i, partner j] = conj M[i, j] exactly."""
    k = partner.size
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return 0.5 * (a + a[np.ix_(partner, partner)].conj())


# a limit with its own rate and coefficients (c_-m = conj c_m), whatever the cell
DRAWN_LIMIT = LimitModel(mu=0.37, mode_cutoff=4,
                         coeffs={m: (0.9 - 0.1 * abs(m)) + 0.05j * m for m in range(-4, 5)})


def written_out_transition(blk, dt, limits):
    """_transition with V^-1 from its own inv call and the Van Loan integral's
    entrywise factor (e^{z dt} - 1) / z, z = lam_i + conj lam_j, formed inline."""
    lam, vecs, _ = solver.eigenbasis(blk.matrix, "written out")
    inv = np.linalg.inv(vecs)
    p = (vecs * np.exp(lam * dt)) @ inv
    n, q = p.shape[0], len(limits)
    v_ext = np.eye(n + q, dtype=complex)
    v_ext[:n, :n] = vecs
    h = np.zeros((n + q, blk.driven.size), dtype=complex)
    h[:n] = inv @ blk.noise_map
    lam_ext = np.concatenate([lam, [-rate for _, _, rate, _ in limits]])
    for i, (_, col, _, coeff) in enumerate(limits):
        h[n + i, col] = coeff
    z = lam_ext[:, None] + lam_ext.conj()[None, :]
    still = z == 0
    phi = np.where(still, dt, np.expm1(z * dt) / np.where(still, 1.0, z))
    cov = v_ext @ ((h @ h.conj().T) * phi) @ v_ext.conj().T
    p_ext = np.zeros((n + q, n + q), dtype=complex)
    p_ext[:n, :n] = p
    terms = cov.diagonal().real.copy()
    for i, (row, _, rate, _) in enumerate(limits):
        decay = np.exp(-rate * dt)
        p_ext[n + i, :n] = p[row]
        p_ext[n + i, row] -= decay
        p_ext[n + i, n + i] = decay
        cov[n + i] = cov[row] - cov[n + i]
    for i, (row, *_) in enumerate(limits):
        cov[:, n + i] = cov[:, row] - cov[:, n + i]
        if abs(cov[n + i, n + i]) <= solver.DELTA_CANCEL_TOL * (terms[row] + terms[n + i]):
            cov[n + i] = cov[:, n + i] = 0.0
    return p_ext, cov


class TestTransition:
    """Each class's exact step against SciPy's Van Loan expm, on the engine's own coordinates."""

    @pytest.mark.parametrize("with_limits", [False, True], ids=["x", "x-delta"])
    @pytest.mark.parametrize("name", sorted(ENGINE_CASES))
    def test_step_matches_van_loan(self, name, with_limits):
        """U P_y = P U, U Q_y U* = Q and U Q_y U^T = E[X X^T] to 1e-12 of the largest entry.

        eps = 1/4: class 0 and class 2 are self-conjugate, class 1 is paired
        (its pseudo-covariance is zero).  U is X = U y, rebuilt from the
        plan's coordinate map, so the three identities fix P_y and Q_y.  An
        every-row plan's block is one step (B = 1) that outputs y_1 alone,
        so Q_y is its f f^T.
        """
        c = ENGINE_CASES[name]
        spec = NoiseSpec.power_decay(0.75, 8)
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(c, 0.25, 8), dt=1e-3,
                           t_final=0.3, watch=(1, 2, 3, 4), seed=5)
        op = build_blocks(c, spec, cfg)
        plans = solver._class_plans(c, spec, replace(cfg, track_norm=True),
                                    DRAWN_LIMIT if with_limits else None)
        assert sorted(plans) == [0, 1, 2]  # every evolved class, with or without the limit
        for res, plan in plans.items():
            blk, terms = op.blocks[res], plan.limits
            p, q = van_loan(*extended_system(blk, terms), cfg.dt)
            size = p.shape[0]
            u = coordinate_map(plan_coords(plan, blk, op.cells), plan.n, size)
            waves = np.concatenate([blk.ks, [blk.ks[row] for row, *_ in terms]])
            kinds = np.arange(size) >= blk.ks.size
            if (2 * res) % op.cells == 0:  # X_partner = conj X: E[X X^T] = Q[:, partner]
                partner = [int(np.flatnonzero((waves == -k) & (kinds == kind))[0])
                           for k, kind in zip(waves, kinds)]
                pseudo = q[:, partner]
            else:
                pseudo = np.zeros_like(q)
            assert plan.length == 1, res
            cov = plan.f @ plan.f.T
            assert np.abs(u @ plan.p - p @ u).max() <= 1e-12 * np.abs(p).max(), res
            assert np.abs(u @ cov @ u.conj().T - q).max() <= 1e-12 * np.abs(q).max(), res
            assert np.abs(u @ cov @ u.T - pseudo).max() <= 1e-12 * np.abs(q).max(), res
            assert plan.r < plan.n  # the rank clip drops the unresolved directions

    @pytest.mark.parametrize("eps", [0.25, 0.125])
    def test_step_is_bitwise_the_written_out_formula(self, eps):
        """P and Q from cell.gram equal the inline Van Loan formula bit for bit, on
        every evolved cosine class with its limit coordinates, so the engine's
        transitions, and with them every Monte Carlo path, do not depend on who
        forms the integral."""
        c = Coefficients.cosine_potential(1.0)
        spec = NoiseSpec.power_decay(0.75, 8)
        cfg = SolverConfig(eps=eps, n_modes=suggest_modes(c, eps, 8), dt=1e-3,
                           t_final=0.3, watch=(1, 2, 3, 4), seed=5)
        op = build_blocks(c, spec, cfg)
        plans = solver._class_plans(c, spec, cfg, DRAWN_LIMIT)
        assert any(plan.limits for plan in plans.values())
        for res, plan in plans.items():
            got = solver._transition(op.blocks[res], cfg.dt, plan.limits)
            want = written_out_transition(op.blocks[res], cfg.dt, plan.limits)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), res

    @given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_real_form_is_the_dense_change_of_basis(self, seed, pairs, real):
        """Bitwise: the gathered P_y and Q_y equal the dense U^-1 P U and U^-1 Q U^-*.

        Any layout of conjugate pairs and real coordinates, on exactly
        conjugate-symmetric P and Q.  The engine's self-conjugate classes
        are conjugate-symmetric only to rounding; U L L^T U* = Q holds there
        (test_step_matches_van_loan).
        """
        rng = np.random.default_rng(seed)
        k = 2 * pairs + real
        if k == 0:
            return
        order = rng.permutation(k)
        partner = np.arange(k)
        partner[order[:pairs]], partner[order[pairs : 2 * pairs]] = (order[pairs : 2 * pairs],
                                                                     order[:pairs])
        p, cov = conjugate_symmetric(rng, partner), conjugate_symmetric(rng, partner)
        p_y, q_y, _ = solver._real_form(p, cov, partner)
        want_p, want_q = dense_real_form(p, cov, partner)
        assert np.array_equal(p_y, want_p)
        assert np.array_equal(q_y, want_q)

    def test_indefinite_covariance_fails_the_psd_contract(self):
        q = np.diag([1.0, -1e-6, 0.0])
        with pytest.raises(SolveFailed, match=r"class 7: transition covariance eigenvalue"):
            solver._factor(q, "class 7")

    @pytest.mark.parametrize("track_norm", [False, True], ids=["watched", "every-row"])
    def test_indefinite_step_covariance_fails_through_the_plan(self, cosine, monkeypatch,
                                                               track_norm):
        """Q(dt) is checked on every plan, before its block's G: a Q(dt) shifted by
        -1e-6 of its largest entry fails naming the class alone, the first evolved one:
        class 1, the watched mode's, or with track_norm class 0."""
        transition = solver._transition

        def indefinite(blk, dt, limits):
            p, q = transition(blk, dt, limits)
            return p, q - 1e-6 * np.abs(q).max() * np.eye(q.shape[0])

        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 8), dt=1e-3,
                           t_final=0.3, watch=(1,), seed=5, track_norm=track_norm)
        monkeypatch.setattr(solver, "_transition", indefinite)
        with pytest.raises(SolveFailed, match=rf"^class {0 if track_norm else 1}: transition "
                                              r"covariance eigenvalue"):
            solver._class_plans(cosine, NoiseSpec.white(8), cfg)

    def test_indefinite_block_covariance_fails_through_the_plan(self, cosine, monkeypatch):
        """A block's G shifted by -1e-6 of its largest entry fails naming the class,
        the watched mode's, and the block's step count."""
        block_law = solver._block_law

        def indefinite(p, q, o, length):
            mean, g = block_law(p, q, o, length)
            return mean, g - 1e-6 * np.abs(g).max() * np.eye(g.shape[0])

        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 8), dt=1e-3,
                           t_final=0.3, watch=(1,), seed=5)
        plans = solver._class_plans(cosine, NoiseSpec.white(8), cfg)  # unshifted, it passes
        assert list(plans) == [1]
        length = plans[1].length
        assert length > 1
        monkeypatch.setattr(solver, "_block_law", indefinite)
        with pytest.raises(SolveFailed, match=rf"^class 1 \({length}-step block\): "
                                              r"transition covariance eigenvalue"):
            solver._class_plans(cosine, NoiseSpec.white(8), cfg)

    def test_factor_keeps_zero_variance_rows_exactly_zero(self):
        """Q_ii = 0 gives an exactly zero row of L; eigenvalues below the clip are dropped."""
        rng = np.random.default_rng(3)
        b = rng.standard_normal((4, 2))
        q = np.zeros((5, 5))
        q[np.ix_([0, 1, 3, 4], [0, 1, 3, 4])] = b @ b.T
        l = solver._factor(q, "class 0")
        assert l.shape == (5, 2)
        assert np.array_equal(l[2], np.zeros(2))
        assert np.abs(l @ l.T - q).max() <= 1e-14 * np.abs(q).max()


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
            p, _ = solver._transition(blk, cfg.dt, ())
            ref = sla.expm(blk.matrix * cfg.dt)
            if name == "heat":
                assert np.array_equal(p, ref), blk.residue
            assert np.abs(p - ref).max() <= PROPAGATOR_RTOL * np.abs(ref).max(), blk.residue

    @pytest.mark.parametrize("track_norm", [False, True], ids=["watched", "every-row"])
    @pytest.mark.parametrize("with_limits", [False, True], ids=["x", "x-delta"])
    @pytest.mark.parametrize("name", sorted(ENGINE_CASES))
    def test_block_factor_is_the_stepped_law(self, name, with_limits, track_norm):
        """f f^T = K K^T, the stepped chain's joint covariance of a block's outputs.

        To 1e-12 of its largest entry, and each observed row's variance to
        1e-8 of its own where it is at least 1e-6 of the largest, as on
        every watched plan (measured: 2.6e-14, and 2.3e-13 on watched and
        5.9e-11 on every-row plans at worst); a row of zero variance stays
        exactly zero.  A block outputs every coordinate once, B o + n - o
        values, and draws at most that many normals; every coordinate read
        is one of the o observed rows, which lead the state.  An every-row
        plan's f f^T is Q_y itself, to the same 1e-12 (measured 2.4e-14).
        K steps the test's own factor L of the dense real form of
        _transition's Q(dt) (real_step_covariance), not the plan's Q_y.
        """
        c = ENGINE_CASES[name]
        spec = NoiseSpec.power_decay(0.75, 8)
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(c, 0.25, 8), dt=1e-3,
                           t_final=0.3, watch=(1, 2, 3, 4), seed=5)
        op = build_blocks(c, spec, cfg)
        plans = solver._class_plans(c, spec, replace(cfg, track_norm=track_norm),
                                    DRAWN_LIMIT if with_limits else None)
        for res, plan in plans.items():
            outputs = plan.length * plan.o + plan.n - plan.o
            assert plan.map_t.shape == (plan.n + plan.r, outputs), res
            assert all(re < plan.o and im < plan.o for _, re, im, _ in plan.reads), res
            assert plan.o == plan.n or not track_norm, res
            _, q = solver._transition(op.blocks[res], cfg.dt, plan.limits)
            coords = plan_coords(plan, op.blocks[res], op.cells)
            q_y = real_step_covariance(plan, coords, q, (2 * res) % op.cells == 0)
            k = stepped_kicks(plan, solver._factor(q_y, f"class {res}"))
            want, got = k @ k.T, plan.f @ plan.f.T
            top = np.abs(want).max()
            assert np.abs(got - want).max() <= 1e-12 * top, res
            if track_norm:  # one step, outputs y_1: G is Q(dt)
                assert np.abs(got - q_y).max() <= 1e-12 * np.abs(q_y).max(), res
            var = np.diag(want)[: plan.length * plan.o]
            # an every-row plan observes rows down to 1e-36 of top, where any
            # eigen-factor is exact to about 1e-14 of top only; watched plans
            # observe none below 1e-6 of it (measured 3e-3)
            tiny = (var > 0) & (var < 1e-6 * top)
            assert track_norm or not tiny.any(), res
            gap = np.abs(np.diag(got)[: var.size] - var)
            assert np.all(gap[~tiny] <= 1e-8 * var[~tiny]), res
            assert plan.r <= outputs, res
            assert (plan.length == 1) == track_norm, res  # every row observed: o = n

    @pytest.mark.parametrize("amplitude", [1.0, 3.0])
    def test_watched_plans_draw_fewer_normals_than_steps(self, amplitude):
        """Counts, on criterion 4's converge classes: each block of a watched-only plan
        draws fewer normals than its B steps' B d, and an every-row plan exactly B d,
        d = rank Q(dt) read as the every-row plan's r (one step per block)."""
        c = Coefficients.cosine_potential(amplitude)
        cell = solve_cell(c)
        eps_list = [0.25, 0.125, 0.0625, 0.03125]
        noise = parse_config({"noise": {"family": "power", "alpha": 0.75, "profile": "one",
                                        "cutoff_factor": 2.0},
                              "solver": {"eps": eps_list}, "study": {"kind": "noise-check"}}).noise
        watch = tuple(range(1, 9))
        for eps in eps_list:
            spec = noise.spec(eps)
            cfg = SolverConfig(eps=eps, n_modes=suggest_modes(c, eps, spec.cutoff),
                               dt=solver.default_dt(eps), t_final=1.0, watch=watch, seed=0)
            model = limit_model("averaged", spec, cell, 8)
            watched = solver._class_plans(c, spec, cfg, model)
            every = solver._class_plans(c, spec, replace(cfg, track_norm=True))
            for res, plan in watched.items():
                d = every[res].r
                assert plan.r < plan.length * d, (eps, res, plan.r, plan.length, d)
            for res, plan in every.items():
                assert plan.length == 1, (eps, res)

    @pytest.mark.parametrize("name", sorted(ENGINE_CASES))
    def test_paths_match_stepping(self, name):
        c = ENGINE_CASES[name]
        # 300 steps: class 1 runs a full chunk and a partial one, and in most
        # classes the last block passes the final step
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(c, 0.25, 8), dt=1e-3,
                           t_final=0.3, watch=(-3, 0, 1, 2, 5), seed=5)
        out = simulate_paths(c, NoiseSpec.white(8), cfg, 3)
        ref = stepped_reference(c, NoiseSpec.white(8), cfg, path_index=2)
        for m in cfg.watch:
            assert_matches_stepping(out.modes[m][2], ref["watched"][m], f"{name}, m = {m}")

    def test_paths_match_stepping_over_many_chunks(self, cosine, monkeypatch):
        """CHUNK_NORMALS 1 makes every chunk one block, so each class runs at least 3
        chunks per batch and every path's generator continues its stream between them;
        paths 0, 15 and 16 of 17 are seeded in one pass with their batch's other paths."""
        monkeypatch.setattr(solver, "CHUNK_NORMALS", 1)
        engine, chunks = solver._engine, {}

        def counting_engine(plans, config, path_indices):
            for item in engine(plans, config, path_indices):
                key = (path_indices.start, item[0])
                chunks[key] = chunks.get(key, 0) + 1
                yield item

        monkeypatch.setattr(solver, "_engine", counting_engine)
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 8), dt=1e-3,
                           t_final=0.3, watch=(-3, 0, 1, 2, 5), seed=7)
        out = simulate_paths(cosine, NoiseSpec.white(8), cfg, 17)
        assert chunks and min(chunks.values()) >= 3, chunks
        for p in (0, 15, 16):
            ref = stepped_reference(cosine, NoiseSpec.white(8), cfg, path_index=p)
            for m in cfg.watch:
                assert_matches_stepping(out.modes[m][p], ref["watched"][m], f"p = {p}, m = {m}")

    def test_norm_matches_stepping(self, cosine):
        cfg = SolverConfig(eps=0.125, n_modes=suggest_modes(cosine, 0.125, 8), dt=1e-3,
                           t_final=0.3, watch=(1, 4), seed=8, track_norm=True)
        out = simulate_paths(cosine, NoiseSpec.white(8), cfg, 1)
        ref = stepped_reference(cosine, NoiseSpec.white(8), cfg)
        assert np.array_equal(out.times, np.arange(301) * cfg.dt)
        for m in cfg.watch:
            assert_matches_stepping(out.modes[m][0], ref["watched"][m], f"m = {m}")
        assert_matches_stepping(out.norm_squared[0], ref["norm2"], "norm")

    def test_sup_errors_match_stepping(self, cosine, cosine_cell, monkeypatch):
        spec = NoiseSpec.power_decay(0.75, 8)
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 8), dt=1e-3,
                           t_final=0.3, watch=(1, 2, 3, 4), seed=3)
        model = limit_model("averaged", spec, cosine_cell, 4)
        # batches of 16: paths 0 and 15 in a full group, 16 alone in a padded one
        monkeypatch.setattr(solver, "PATH_BATCH", 2)
        sups = coupled_sup_errors(cosine, spec, cfg, model, 1.0, 17)
        for p in (0, 15, 16):
            ref = stepped_reference(cosine, spec, cfg, path_index=p, model=model)
            terms = {m: (1.0 + m * m) ** -1.0 * np.abs(ref["watched"][m]) ** 2
                     for m in cfg.watch}
            full = sum(terms.values())
            want = {"full": full.max(), "half_modes": (terms[1] + terms[2]).max(),
                    "coarse_grid": full[::2].max()}  # states after an even step count
            for key, value in want.items():
                assert abs(sups[key][p] - value) <= 1e-12 * value, (key, p)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=6, deadline=None)
    def test_batch_size_does_not_change_any_path(self, seed):
        """Bitwise, within one NumPy/BLAS build: every product is one fixed-shape group.

        40 paths on one worker: PATH_BATCH 1, 17 and 64 give batches of 16,
        32 and 48 paths, so the engine runs three different schedules, the
        last group padded with zeros in each.
        """
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
        finals = [final_values(c, spec, cfg, 40, batch=b) for b in (16, 32, 48)]
        engine, sups, schedules = solver._engine, [], []

        def recording_engine(plans, config, path_indices):
            schedules[-1].append(path_indices)
            return engine(plans, config, path_indices)

        for b in (1, 17, 64):
            schedules.append([])
            with mock.patch.object(solver, "PATH_BATCH", b), \
                    mock.patch.object(solver, "_workers", lambda: 1), \
                    mock.patch.object(solver, "_engine", recording_engine):
                sups.append(coupled_sup_errors(c, spec, cfg, model, 1.0, 40))
        assert schedules == [[range(0, 16), range(16, 32), range(32, 40)],
                             [range(0, 32), range(32, 40)], [range(0, 40)]]
        for other in finals[1:]:
            for m in cfg.watch:
                assert np.array_equal(other[m], finals[0][m])
        for other in sups[1:]:
            for key in other:
                assert np.array_equal(other[key], sups[0][key])
        out = simulate_paths(c, spec, cfg, 40)
        for p in range(40):
            for m in cfg.watch:
                assert out.modes[m][p][-1] == finals[0][m][p]

    @staticmethod
    def threaded_case(cosine, cosine_cell):
        spec = NoiseSpec.power_decay(0.75, 8)
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 8), dt=1e-3,
                           t_final=0.3, watch=(1, 2, 3, 4), seed=6)
        return spec, cfg, limit_model("averaged", spec, cosine_cell, 4)

    @pytest.mark.parametrize("n_paths", [1, 7, 40])
    def test_thread_count_does_not_change_any_path(self, cosine, cosine_cell, n_paths):
        """Bitwise, within one NumPy/BLAS build, for 1-3 workers and every batch size.

        Both entry points: coupled_sup_errors' sups, and simulate_paths'
        trajectories and |u|^2.  n_paths 1 and 7 fill one padded group and
        leave workers without a batch; 40 paths run in one to three batches.
        """
        spec, cfg, model = self.threaded_case(cosine, cosine_cell)
        tracked = replace(cfg, track_norm=True)
        runs, paths = {}, {}
        for workers in (1, 2, 3):
            for batch in (1, 3, 64):
                with mock.patch.object(solver, "_workers", lambda w=workers: w), \
                        mock.patch.object(solver, "PATH_BATCH", batch):
                    runs[workers, batch] = coupled_sup_errors(cosine, spec, cfg, model, 1.0,
                                                              n_paths)
                    paths[workers, batch] = simulate_paths(cosine, spec, tracked, n_paths)
        serial = runs[1, 64]
        assert serial["full"].min() > 0.0
        for (workers, batch), sups in runs.items():
            for key in serial:
                assert np.array_equal(sups[key], serial[key]), (workers, batch, key)
        serial = paths[1, 64]
        assert np.abs(serial.modes[1][:, -1]).min() > 0.0
        for (workers, batch), out in paths.items():
            for m in cfg.watch:
                assert np.array_equal(out.modes[m], serial.modes[m]), (workers, batch, m)
            assert np.array_equal(out.norm_squared, serial.norm_squared), (workers, batch)

    def test_unstable_step_in_a_worker_reaches_the_caller(self, cosine, cosine_cell,
                                                         monkeypatch):
        """Every batch trips the lowered guard; no pool thread outlives the call."""
        import threading

        spec, cfg, model = self.threaded_case(cosine, cosine_cell)
        monkeypatch.setattr(solver, "_workers", lambda: 3)
        monkeypatch.setattr(solver, "PATH_BATCH", 2)
        monkeypatch.setattr(solver, "OVERFLOW_GUARD", 1e-12)
        before = threading.active_count()
        with pytest.raises(UnstableStep, match="beyond guard"):
            coupled_sup_errors(cosine, spec, cfg, model, 1.0, 40)
        assert threading.active_count() == before

    def test_worker_exception_reaches_the_caller(self, cosine, cosine_cell, monkeypatch):
        """Only the last of three batches fails, on a pool thread; the others run clean.

        40 paths on three workers run in batches of 16, 16 and 8 paths (three
        groups).  No batch runs on the calling thread, and no pool thread
        outlives the call.
        """
        import threading

        spec, cfg, model = self.threaded_case(cosine, cosine_cell)
        engine, ran_on = solver._engine, []

        def engine_failing_last(plans, config, path_indices):
            ran_on.append(threading.current_thread())
            if path_indices.start == 32:
                raise UnstableStep("raised in a worker")
            yield from engine(plans, config, path_indices)

        monkeypatch.setattr(solver, "_workers", lambda: 3)
        monkeypatch.setattr(solver, "_engine", engine_failing_last)
        before = threading.active_count()
        with pytest.raises(UnstableStep, match="raised in a worker"):
            coupled_sup_errors(cosine, spec, cfg, model, 1.0, 40)
        assert threading.active_count() == before
        assert len(ran_on) == 3 and threading.main_thread() not in ran_on

    def test_path_count_does_not_change_any_path(self, cosine, cosine_cell):
        """Bitwise: paths 0 .. 6 have the same sups, trajectories and |u|^2 out of 7 or 64.

        Seven paths fill one padded group; 64 run in full groups over
        several batches.
        """
        spec, cfg, model = self.threaded_case(cosine, cosine_cell)
        tracked = replace(cfg, track_norm=True)
        few, many = (coupled_sup_errors(cosine, spec, cfg, model, 1.0, n) for n in (7, 64))
        assert few["full"].min() > 0.0
        for key in few:
            assert np.array_equal(many[key][:7], few[key]), key
        few, many = (simulate_paths(cosine, spec, tracked, n) for n in (7, 64))
        assert np.abs(few.modes[1][:, -1]).min() > 0.0
        for m in cfg.watch:
            assert np.array_equal(many.modes[m][:7], few.modes[m]), m
        assert np.array_equal(many.norm_squared[:7], few.norm_squared)

    def test_conjugate_watch_gives_the_same_sups(self, cosine, cosine_cell):
        """Watching -1 .. -8, or 1 .. 8 in a mixed order and sign: same sups as 1 .. 8.

        At eps = 1/8 the residues of -1 .. -8 are 7 .. 0: six are read from
        the mirrored class, and 4 and 8 (residues 4 and 0) from the
        self-conjugate ones.  The class layout depends on the set of
        evolved rows alone, not on the watch order.
        """
        spec = NoiseSpec.power_decay(0.75, 16)
        model = limit_model("averaged", spec, cosine_cell, 8)
        watches = {"positive": tuple(range(1, 9)), "negative": tuple(range(-1, -9, -1)),
                   "mixed": (5, -2, 8, 1, -7, 3, 6, 4)}
        sups = {}
        for name, watch in watches.items():
            cfg = SolverConfig(eps=0.125, n_modes=suggest_modes(cosine, 0.125, 16), dt=1e-3,
                               t_final=0.1, watch=watch, seed=9)
            sups[name] = coupled_sup_errors(cosine, spec, cfg, model, 1.0, 4)
        assert sups["positive"]["full"].min() > 0.0
        for name in ("negative", "mixed"):
            for key, value in sups["positive"].items():
                assert_allclose(sups[name][key], value, rtol=1e-12, atol=0.0,
                                err_msg=f"{name}, {key}")

    def test_a_class_does_not_depend_on_the_other_evolved_classes(self, cosine, cosine_cell):
        """Bitwise: watching 3 too evolves class 3 and leaves classes 1 and 2 as they were.

        A class draws from its stream (seed, path, residue) and runs on its
        own plan, so its values do not change when another class joins.
        """
        spec = NoiseSpec.power_decay(0.75, 16)
        model = limit_model("averaged", spec, cosine_cell, 3)
        finals = []
        for watch in ((1, 2), (1, 2, 3)):
            cfg = SolverConfig(eps=0.125, n_modes=suggest_modes(cosine, 0.125, 16), dt=1e-3,
                               t_final=0.1, watch=watch, seed=4)
            finals.append(final_differences(cosine, spec, cfg, model, 3))
        for m in (1, 2):
            assert np.abs(finals[0][m]).min() > 0.0, m
            assert np.array_equal(finals[1][m], finals[0][m]), m

    def test_track_norm_is_refused(self, cosine, cosine_cell):
        """The sups read no |u|^2, so a config that asks for it is refused before any plan."""
        spec = NoiseSpec.power_decay(0.75, 8)
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 8), dt=1e-3,
                           t_final=0.01, watch=(1,), seed=0, track_norm=True)
        model = limit_model("averaged", spec, cosine_cell, 1)
        with pytest.raises(ValueError, match=r"^coupled_sup_errors reads no \|u\|\^2; give a "
                                             r"config without track_norm$"):
            coupled_sup_errors(cosine, spec, cfg, model, 1.0, 2)

    def test_undriven_watched_mode_is_a_value_error(self, cosine, cosine_cell):
        spec = NoiseSpec.power_decay(0.75, 2)
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 2), dt=1e-3,
                           t_final=0.01, watch=(1, 2, 3), seed=0)
        model = limit_model("averaged", spec, cosine_cell, 3)
        with pytest.raises(ValueError, match="eps = 0.25 the noise cutoff 2 is below"):
            coupled_sup_errors(cosine, spec, cfg, model, 1.0, 2)


class TestEngineLaw:
    """Monte Carlo second moments of the engine against S <- P S P* + Q stepped exactly.

    eps = 1/4 with watch 1, 2, 3: class 1 is paired, class 2 self-conjugate,
    and mode 3 is read as the conjugate of -3 in class 1; the exact moments
    are stepped in each mode's own class, class 3 for mode 3.  dt = 0.02 is
    a step no exponential-Euler scheme would resolve at this band.
    """

    N_PATHS = 4000  # measured: Q scaled by 1.1 moves the three means by 4.0-6.3 SE

    @staticmethod
    def config(cosine, seed):
        return SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 8), dt=0.02,
                            t_final=0.4, watch=(1, 2, 3), seed=seed)

    def test_difference_second_moment(self, cosine, cosine_cell):
        spec = NoiseSpec.power_decay(0.75, 8)
        cfg = self.config(cosine, 17)
        model = limit_model("averaged", spec, cosine_cell, 3)
        finals = final_differences(cosine, spec, cfg, model, self.N_PATHS)
        # each mode differenced in its own class, 3 in class 3 rather than as conj of -3
        op = build_blocks(cosine, spec, cfg)
        rows = {m: int(np.searchsorted(op.blocks[m % op.cells].ks, m)) for m in cfg.watch}
        limits = {m % op.cells: [(rows[m], int(np.searchsorted(op.blocks[m % op.cells].driven, m)),
                                  model.mu * m * m, model.coeff(m))] for m in cfg.watch}
        exact = exact_second_moments(op, cfg, limits)
        for m in cfg.watch:
            want = exact[m % op.cells][op.blocks[m % op.cells].ks.size]
            samples = np.abs(finals[m]) ** 2
            se = samples.std(ddof=1) / np.sqrt(samples.size)
            assert abs(samples.mean() - want) <= 4.0 * se, (m, samples.mean(), want, se)

    def test_path_second_moment(self, cosine):
        spec = NoiseSpec.white(8)
        cfg = self.config(cosine, 19)
        op = build_blocks(cosine, spec, cfg)
        finals = final_values(cosine, spec, cfg, self.N_PATHS, batch=256)
        # each mode in its own class: 3 in class 3 rather than as the conjugate of -3
        exact = exact_second_moments(op, cfg, {res: () for res in range(op.cells)})
        for m in cfg.watch:
            want = exact[m % op.cells][int(np.searchsorted(op.blocks[m % op.cells].ks, m))]
            samples = np.abs(finals[m]) ** 2
            se = samples.std(ddof=1) / np.sqrt(samples.size)
            assert abs(samples.mean() - want) <= 4.0 * se, m


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

        def unchecked_basis(a, block):
            lam, vecs = np.linalg.eig(a)
            return lam, vecs, np.linalg.inv(vecs)

        monkeypatch.setattr(np.linalg, "eig", perturbed)
        if unchecked:
            monkeypatch.setattr(solver, "eigenbasis", unchecked_basis)
        cfg = SolverConfig(eps=0.25, n_modes=suggest_modes(cosine, 0.25, 4), dt=1e-3,
                           t_final=1.0, watch=(1,), seed=0)
        with pytest.raises(SolveFailed, match=message):
            if flow == "covariance":
                exact_mode_covariance(cosine, NoiseSpec.white(4), cfg, t_grid=[1.0], modes=[1])
            elif flow == "engine":
                simulate_paths(cosine, NoiseSpec.white(4), cfg, 1)
            else:
                experiments.run_study({
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
        ([-0.5, 0.5], r"t_grid must lie inside \[0, t_final\]$"),
        ([0.5, 1.5], r"t_grid must lie inside \[0, t_final\]$"),
    ])
    def test_bad_time_grid_fails_before_blocks(self, heat, t_grid, message):
        # n_modes is too small for build_blocks, so the t_grid message shows
        # the grid was rejected before any block was built
        cfg = SolverConfig(eps=1.0, n_modes=2, dt=1e-3, t_final=1.0, watch=(1,), seed=0)
        with pytest.raises(ValueError, match=message):
            exact_mode_covariance(heat, NoiseSpec.white(4), cfg, t_grid=t_grid)

