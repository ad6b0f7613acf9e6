"""Acceptance suite: every top-level criterion at its stated tolerance.

Each check prints one pass/fail line so the suite doubles as a summary
when run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.special import iv

from multiscale_spde.cell import Coefficients, diffusivity_from_decay, solve_cell
from multiscale_spde.experiments import run_study
from multiscale_spde.fourier import SpectralField, l2_norm, oscillate
from multiscale_spde.limit import enhanced_coefficient, limit_model, ou_variance
from multiscale_spde.noise import NoiseSpec, coupling_series
from multiscale_spde import solver
from multiscale_spde.solver import (
    SolverConfig,
    apply_generator,
    build_blocks,
    simulate_paths,
    suggest_modes,
)
from test_noise import drawn, key_stream
from test_solver import plan_coords

I0_2, I0_4 = iv(0, 2.0), iv(0, 4.0)


def check(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {label}: {status}  {detail}")
    assert ok, f"{label}: {detail}"


# -- criterion 1: cell-problem closed forms -------------------------------------


def test_criterion1_cell_closed_forms(gibbs_grid):
    start = time.perf_counter()
    sol = solve_cell(Coefficients.cosine_potential(1.0), 128)
    elapsed = time.perf_counter() - start

    rho_ref = SpectralField.from_grid(gibbs_grid(1.0, 2048)).truncate(128)
    rho_err = l2_norm(sol.rho - rho_ref)
    mu_target = 1.0 / (2.0 * I0_2**2)
    mu_err = abs(sol.mu - mu_target)
    check("1a density closed form", rho_err <= 1e-8,
          f"|rho - exp(-2cos)/I0(2)| = {rho_err:.2e} (tol 1e-8)")
    check("1b diffusivity closed form", mu_err <= 1e-13 * sol.mu,
          f"|mu - {mu_target:.6f}| = {mu_err:.2e} (tol 1e-13 mu)")
    check("1c runtime", elapsed < 1.0, f"{elapsed:.3f} s (limit 1 s)")


# -- criterion 2: mu cross-validation --------------------------------------------


@pytest.fixture(scope="module")
def mu_hats(cosine):
    """eps -> 0 estimates of mu from the decay oracle, for m = 1, 2.

    The oracle returns the finite-eps slow rate / m^2, which is
    mu (1 - 2.8 (eps m)^2 + O((eps m)^4)); the Richardson combination
    (4 rate(1/32) - rate(1/16)) / 3 cancels the (eps m)^2 term.
    """
    def rate(eps, m):
        return diffusivity_from_decay(cosine, eps, m)

    return {m: (4.0 * rate(1.0 / 32.0, m) - rate(1.0 / 16.0, m)) / 3.0
            for m in (1, 2)}


def test_criterion2_cross_validation_m1(cosine_cell, mu_hats):
    rel = abs(mu_hats[1] - cosine_cell.mu) / cosine_cell.mu
    check("2a decay oracle m=1", rel <= 0.02,
          f"rel dev {rel:.2e} at eps -> 0 from eps = 1/16, 1/32 (tol 0.02)")


def test_criterion2_cross_validation_m2(cosine_cell, mu_hats):
    """The finite-eps rate alone misses mu by 2.8 (eps m)^2, 4.4% at
    eps = 1/16, m = 2, so mu is compared with the eps -> 0 extrapolation."""
    rel = abs(mu_hats[2] - cosine_cell.mu) / cosine_cell.mu
    check("2b decay oracle m=2", rel <= 0.02,
          f"rel dev {rel:.2e} at eps -> 0 from eps = 1/16, 1/32 (tol 0.02)")


def test_criterion2_mode_scaling(mu_hats):
    """The m^2 scaling of the eps -> 0 rates; at a single finite eps the
    ratio carries the (eps m)^2 bias of 2b (0.967 at eps = 1/16)."""
    ratio = (4.0 * mu_hats[2]) / (4.0 * mu_hats[1])
    check("2c m^2 scaling", abs(ratio - 1.0) <= 0.02,
          f"rate ratio / 4 = {ratio:.5f} (tol 0.02)")


# -- criterion 3: white-noise enhancement ----------------------------------------


@pytest.fixture(scope="module")
def enhancement_report():
    return run_study({
        "coefficients": {"name": "cosine-potential", "amplitude": 1.0},
        "noise": {"family": "white", "cutoff_factor": 8.0},
        "solver": {"eps": [0.25, 0.125, 0.0625], "watch": [1]},
        "study": {"kind": "variance", "target": "enhanced", "seed": 1,
                  "tolerances": {"final_gap": 0.10}},
    })


def test_criterion3_final_gap_and_enhancement(cosine_cell, enhancement_report):
    """3b reads the report's own ratio of the finest variance to the classical
    prediction, both at the recorded time, against 0.9 |rho|^2 from the cell."""
    gaps = [r["rel_gap"] for r in enhancement_report.rows]
    check("3a final gap", gaps[-1] <= 0.10,
          f"gaps over eps {{1/4,1/8,1/16}} = {[f'{g:.4f}' for g in gaps]} (tol 0.10)")
    factor = next(v["value"] for v in enhancement_report.verdicts
                  if v["name"] == "variance enhancement over the classical prediction")
    needed = 0.9 * l2_norm(cosine_cell.rho) ** 2
    check("3b enhancement factor", factor >= needed,
          f"variance / classical = {factor:.3f} >= 0.9 |rho|^2 = {needed:.3f}")


def test_criterion3_monotone_gap(enhancement_report):
    """White noise reaches the enhanced limit only if the cutoff grows like
    1/eps: a cutoff pinned at 32 keeps the offsets l = -2 .. 1 of mode 1's
    class at eps = 1/16, 95% of |rho|^2, so the gap would rise again there.
    The fixture drives with cutoff 8 / eps (32 at eps = 1/4)."""
    gaps = [r["rel_gap"] for r in enhancement_report.rows]
    monotone = all(a > b for a, b in zip(gaps, gaps[1:]))
    check("3c gap decreases monotonically", monotone,
          f"gaps = {[f'{g:.4f}' for g in gaps]}")


# -- criterion 4: pathwise convergence to the averaged limit ----------------------


def test_criterion4_coupling_convergence():
    config = {
        "coefficients": {"name": "cosine-potential", "amplitude": 1.0},
        "noise": {"family": "power", "alpha": 0.75, "profile": "one",
                  "cutoff_factor": 2.0},
        "solver": {"eps": [0.25, 0.125, 0.0625, 0.03125], "t_final": 1.0},
        "study": {"kind": "converge", "seed": 2024, "paths": 200, "s": 1.0,
                  "mode_cutoff": 8,
                  "tolerances": {"theta_min": 0.3, "r2_min": 0.9}},
    }
    start = time.perf_counter()
    report = run_study(config)
    elapsed = time.perf_counter() - start

    errors = [r["error"] for r in report.rows]
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    check("4a errors strictly decreasing", decreasing,
          f"errors = {[f'{e:.3e}' for e in errors]}")
    check("4b fitted rate", report.fit["theta"] >= 0.3,
          f"theta = {report.fit['theta']:.3f} (floor 0.3)")
    check("4c fit quality", report.fit["r_squared"] >= 0.9,
          f"R^2 = {report.fit['r_squared']:.4f} (floor 0.9)")
    check("4d runtime", elapsed <= 900.0, f"{elapsed:.1f} s (limit 900 s)")


# -- criterion 5: rescaled variance of a centred family ---------------------------


def test_criterion5_scaled_variance():
    config = {
        "coefficients": {"name": "cosine-potential", "amplitude": 1.0},
        "noise": {"family": "power", "alpha": 0.5, "profile": "one-plus-cos",
                  "cutoff_factor": 6.0, "centered": True},
        "solver": {"eps": [0.25, 0.125, 0.0625], "watch": [1]},
        "study": {"kind": "variance", "target": "fluctuation", "seed": 1,
                  "tolerances": {"final_gap": 0.15}},
    }
    report = run_study(config)
    gaps = [r["rel_gap"] for r in report.rows]
    monotone = all(a > b for a, b in zip(gaps, gaps[1:]))
    check("5a scaled gaps decrease", monotone,
          f"gaps = {[f'{g:.4f}' for g in gaps]}")
    check("5b final gap", gaps[-1] <= 0.15, f"final gap = {gaps[-1]:.4f} (tol 0.15)")


# -- criterion 6: coupling-series convergence --------------------------------------


def test_criterion6_coupling_series(cosine_cell):
    target = enhanced_coefficient(NoiseSpec.white(8), cosine_cell.rho, 1)
    gaps, tails = [], []
    for eps_inv, max_l in ((4, 4), (8, 8), (16, 16)):
        spec = NoiseSpec.white(eps_inv * max_l)
        series = coupling_series(spec, cosine_cell.rho, 1.0 / eps_inv, 1,
                                 max_offset=max_l)
        gaps.append(abs(series.total - target))
        tails.append(series.tail_estimate / series.total)
    ratio_ok = all(g2 <= g1 / 1.5 for g1, g2 in zip(gaps, gaps[1:]))
    check("6a gap shrinks by >= 1.5 per halving", ratio_ok,
          f"gaps = {[f'{g:.3e}' for g in gaps]}")
    check("6b truncation tails below 1%", max(tails) < 0.01,
          f"tails = {[f'{t:.4%}' for t in tails]}")


# -- criterion 7: remainder scaling and boundary layer ------------------------------


def test_criterion7_semigroup_remainder():
    config = {
        "coefficients": {"name": "cosine-potential", "amplitude": 1.0},
        "noise": {"family": "white", "cutoff": 4},
        "solver": {"eps": [0.125, 0.0625, 0.03125], "t_final": 1.0},
        "study": {"kind": "semigroup", "seed": 1, "mode": 1,
                  "tolerances": {"exponent_range": [0.8, 1.2], "bl_rate_rtol": 0.10}},
    }
    report = run_study(config)
    exponent = report.fit["exponent"]
    check("7a remainder exponent", 0.8 <= exponent <= 1.2,
          f"exponent = {exponent:.3f} (range [0.8, 1.2])")
    rel = abs(report.fit["bl_rate_unit_cell"] - report.fit["omega"]) / report.fit["omega"]
    check("7b boundary-layer rate", rel <= 0.10,
          f"|rate - omega| / omega = {rel:.4f} (tol 0.10)")


@pytest.mark.parametrize("amplitude", [0.25, 1.0, 2.0, 2.75, 3.0])
def test_criterion7b_rate_across_amplitudes(amplitude):
    """The boundary-layer rate, fitted in L^2(1/rho), meets omega to 1% up
    to A = 3, where the next eigenvalue is only 1.7 omega away."""
    report = run_study({
        "coefficients": {"name": "cosine-potential", "amplitude": amplitude},
        "solver": {"eps": [0.125, 0.0625, 0.03125], "t_final": 1.0},
        "study": {"kind": "semigroup", "seed": 1, "mode": 1},
    })
    rel = abs(report.fit["bl_rate_unit_cell"] - report.fit["omega"]) / report.fit["omega"]
    check(f"7b boundary-layer rate at A = {amplitude:g}", rel <= 0.01,
          f"|rate - omega| / omega = {rel:.2e} (tol 0.01)")


# -- criterion 8: always-on invariant suites -----------------------------------------


def test_criterion8a_realness_and_conjugacy(cosine):
    cfg = SolverConfig(eps=0.125, n_modes=suggest_modes(cosine, 0.125, 4), dt=1e-3,
                       t_final=0.2, watch=(-2, -1, 0, 1, 2), seed=3)
    out = simulate_paths(cosine, NoiseSpec.white(4), cfg, 1)
    scale = max(np.abs(out.modes[1][0]).max(), 1e-30)
    worst = max(np.abs(out.modes[-m][0] - np.conj(out.modes[m][0])).max() for m in (1, 2))
    worst = max(worst, np.abs(out.modes[0][0].imag).max())
    check("8a conjugate symmetry / realness", worst <= 1e-10 * scale,
          f"defect = {worst:.2e} (tol 1e-10 relative)")


def test_criterion8b_density_normalisation(cosine_cell):
    dev = abs(cosine_cell.rho.coeff(0) - 1.0)
    check("8b <rho, 1> = 1", dev <= 1e-10, f"deviation = {dev:.2e} (tol 1e-10)")


def test_criterion8c_density_norm_dichotomy(heat, cosine_cell):
    flat = solve_cell(heat, 32).rho
    flat_dev = abs(l2_norm(flat) - 1.0)
    grown = l2_norm(cosine_cell.rho) - 1.0
    check("8c |rho| >= 1, equality iff constant",
          flat_dev <= 1e-8 and grown > 1e-3,
          f"flat dev = {flat_dev:.2e}, cosine excess = {grown:.4f}")


def test_criterion8d_block_vs_dense_pathwise(cosine):
    """The dense band against the engine's classes, both built independently.

    The dense propagator expm(dense dt), built from apply_generator, steps
    each class's state through its blocks, and the engine's own block
    normals w enter through the U-mapped factor f: U f w at the block's
    end, and f's observed rows after each step.  That reproduces
    simulate_paths.  The dense Van Loan Q, built from the independently
    oscillated noise columns, is each class's U Q_y U*, Q_y the f f^T of
    the class's every-row plan (one step per block, whose outputs are y_1),
    and the dense joint covariance of a block's outputs (S_i <- prop S
    prop* + Q, the cross terms prop^(i-j) S_j) is U f f^T U*.
    """
    eps, n, cutoff, dt, seed = 0.25, 64, 8, 1e-3, 21
    spec = NoiseSpec.white(cutoff)
    cfg = SolverConfig(eps=eps, n_modes=n, dt=dt, t_final=0.5, watch=(1, 2, 3), seed=seed)
    out = simulate_paths(cosine, spec, cfg, 1)
    dense = np.zeros((n, n), dtype=complex)
    for j in range(-n // 2 + 1, n // 2):
        dense[:, j + n // 2] = apply_generator(cosine, eps,
                                               SpectralField.basis(j, n)).coeffs
    dense[0, :] = dense[:, 0] = 0.0
    prop = sla.expm(dense * dt)
    cols = np.zeros((n, 2 * cutoff + 1), dtype=complex)
    for k in range(-cutoff, cutoff + 1):
        cols[:, k + cutoff] = oscillate(spec.profile(k), eps, k, n).coeffs
    big = np.block([[dense, cols @ cols.conj().T], [np.zeros((n, n)), -dense.conj().T]])
    vl = sla.expm(big * dt)
    q_dense = vl[:n, n:] @ vl[:n, :n].conj().T

    # the engine's classes and their maps X = U y on the dense band: with track_norm every
    # class 0 .. r/2, the others their conjugates, and without it the watched classes
    op = build_blocks(cosine, spec, cfg)
    plans = solver._class_plans(cosine, spec, cfg)
    every = solver._class_plans(cosine, spec, replace(cfg, track_norm=True))
    assert sorted(plans) == [1, 2] and sorted(every) == [0, 1, 2]
    q_blocks = np.zeros((n, n), dtype=complex)
    worst = g_gap = 0.0

    def coordinate_map(plan, res):
        """U with X = U y: the plan's real coordinates y, its observed ones first."""
        size = op.blocks[res].ks.size
        cos, sin, sgn = plan_coords(plan, op.blocks[res], op.cells)
        u = np.zeros((size, plan.n), dtype=complex)
        u[np.arange(size), cos[:size]] += 1.0
        u[np.arange(size), sin[:size]] += 1j * sgn[:size]
        return u

    for res, plan in every.items():
        ks = op.blocks[res].ks
        u_every = coordinate_map(plan, res)
        q_class = u_every @ plan.f @ plan.f.T @ u_every.conj().T
        q_blocks[np.ix_(ks + n // 2, ks + n // 2)] = q_class
        if (2 * res) % op.cells != 0:  # the conjugate class: X_-k = conj X_k
            q_blocks[np.ix_(n // 2 - ks, n // 2 - ks)] = q_class.conj()

    for res, plan in plans.items():
        ks = op.blocks[res].ks
        u = coordinate_map(plan, res)
        mirror = (2 * res) % op.cells != 0

        # complex outputs of a block: each mode read in the class after each step, its
        # conjugation folded into the read's sign, then U y_B, y_B the last n real outputs
        length, o, reads = plan.length, plan.o, plan.reads
        outputs = np.zeros((length * len(reads) + ks.size, length * o + plan.n - o),
                           dtype=complex)
        for i in range(length):
            for a, (_, re, im, sgn) in enumerate(reads):
                outputs[i * len(reads) + a, i * o + re] += 1.0
                outputs[i * len(reads) + a, i * o + im] += 1j * sgn
        outputs[length * len(reads):, (length - 1) * o:] = u
        mapped = outputs @ plan.f

        idx = [m + n // 2 for m, *_ in reads]
        joint = np.zeros((length * len(reads) + ks.size,) * 2, dtype=complex)
        s_i, cross = np.zeros((n, n), dtype=complex), []
        for i in range(length):
            s_i = prop @ s_i @ prop.conj().T + q_dense
            cross = [prop @ c for c in cross] + [s_i]  # prop^(i-j) S_j, j = 0 .. i
            for j, c in enumerate(cross):
                rows = slice(i * len(reads), (i + 1) * len(reads))
                joint[rows, j * len(reads) : (j + 1) * len(reads)] = c[np.ix_(idx, idx)]
        for j, c in enumerate(cross):
            joint[length * len(reads):, j * len(reads) : (j + 1) * len(reads)] = (
                c[np.ix_(ks + n // 2, idx)])
        joint[length * len(reads):, length * len(reads):] = (
            s_i[np.ix_(ks + n // 2, ks + n // 2)])
        joint = np.tril(joint) + np.tril(joint, -1).conj().T
        g_gap = max(g_gap, np.abs(mapped @ mapped.conj().T - joint).max() / np.abs(joint).max())

        # the path: dense free flow of the class's state plus the mapped kicks
        w = drawn(key_stream(seed, 0, res), -(-cfg.n_steps // length), plan.r)
        x = np.zeros(n, dtype=complex)
        for b, wb in enumerate(w):
            kick = mapped @ wb
            for i in range(1, length + 1):
                x = prop @ x
                step = b * length + i
                if step > cfg.n_steps:
                    continue
                for a, (m, *_) in enumerate(reads):
                    got = x[m + n // 2] + kick[(i - 1) * len(reads) + a]
                    worst = max(worst, abs(got - out.modes[m][0][step]))
            x[ks + n // 2] += kick[length * len(reads):]
            if mirror:
                x[n // 2 - ks] += kick[length * len(reads):].conj()
    q_gap = np.abs(q_blocks - q_dense).max() / np.abs(q_dense).max()
    check("8d block vs dense pathwise", worst <= 1e-8 and q_gap <= 1e-12 and g_gap <= 1e-12,
          f"max pathwise gap = {worst:.2e} (tol 1e-8, N = 64), "
          f"Q(dt) gap = {q_gap:.2e} (tol 1e-12 relative), "
          f"block covariance gap = {g_gap:.2e} (tol 1e-12 relative)")


def test_criterion8e_parseval():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        f = SpectralField.zero(64)
        f.coeffs[32] = rng.standard_normal()
        for k in range(1, 11):
            amp = rng.standard_normal() + 1j * rng.standard_normal()
            f.coeffs[32 + k] = amp
            f.coeffs[32 - k] = np.conj(amp)
        gap = abs(float(np.mean(np.abs(f.to_grid()) ** 2)) - l2_norm(f) ** 2)
        worst = max(worst, gap / l2_norm(f) ** 2)
    check("8e Parseval", worst <= 1e-12, f"worst relative gap = {worst:.2e}")


def test_criterion8f_exact_sampler_identity(cosine_cell):
    """The closed-form OU variance propagated by v(t + h) = e^{-2 mu m^2 h} v(t) + v(h)."""
    model = limit_model("enhanced", NoiseSpec.white(4), cosine_cell, 2)
    t_grid = np.linspace(0.0, 3.0, 61)
    worst = 0.0
    for m in (1, 2):
        var = 0.0
        for i in range(1, t_grid.size):
            h = t_grid[i] - t_grid[i - 1]
            var = np.exp(-2.0 * model.mu * m * m * h) * var + ou_variance(model, m, h)
            worst = max(worst, abs(var - ou_variance(model, m, t_grid[i])))
    check("8f OU variance one-step identity", worst <= 1e-12,
          f"worst gap = {worst:.2e} (tol 1e-12)")


def test_criterion8g_report_determinism():
    config = {
        "coefficients": {"name": "cosine-potential", "amplitude": 1.0},
        "noise": {"family": "white", "cutoff": 8},
        "solver": {"eps": [0.25, 0.125], "t_final": 5.0, "watch": [1]},
        "study": {"kind": "variance", "target": "enhanced", "seed": 9,
                  "tolerances": {"final_gap": 0.5}},
    }
    same = run_study(config).to_json_bytes() == run_study(config).to_json_bytes()
    check("8g report reproducibility", same, "two runs, identical bytes")
