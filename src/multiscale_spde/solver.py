"""Block-structured time stepping for the multiscale stochastic heat equation.

du = L_eps u dt + sum_k q_k(x/eps) e_k dW_k on [0, 2*pi], u(0) = 0.

In Fourier space both the generator and the noise couple wavenumbers
only within a residue class modulo 1/eps, so the dynamics splits into
independent dense blocks of size ~ N eps.  Each block is stepped either
by Crank-Nicolson with the noise added after the solve (imex-cn) or by
the exact matrix exponential with the noise propagated through it
(block-exponential).  Second moments follow the per-block Lyapunov
equation, discretised by the implicit trapezoid rule; that recursion is
evaluated in closed form in each block's eigenbasis at every recorded
step, with no time loop, so limit variances can be verified without
Monte Carlo error at O(n^3) cost per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .cell import CellSolution, Coefficients, generator_matrix
from .errors import ResolutionTooSmall, SolveFailed, UnstableStep
from .fourier import SpectralField, multiply, oscillate
from .limit import LimitModel, averaged_model
from .noise import NoiseSpec, WienerStream

__all__ = [
    "SolverConfig",
    "PathOutput",
    "ClassBlock",
    "BlockOperator",
    "CovarianceTable",
    "suggest_modes",
    "validate_config",
    "apply_generator",
    "build_blocks",
    "simulate_path",
    "simulate_coupled",
    "exact_mode_covariance",
]

OVERFLOW_GUARD = 1e12
COVARIANCE_RESIDUAL_TOL = 1e-12  # one trapezoid step, relative to its terms
LOG_TINY = float(np.log(np.finfo(float).tiny))
DEFAULT_DT_FACTOR = 1e-3  # dt = factor * min(1, 16 eps^2) resolves the eps^2 layer


@dataclass(frozen=True)
class SolverConfig:
    """Discretisation of one multiscale run.

    eps must be the reciprocal of an integer so the domain holds a whole
    number of cells.  n_modes is the total spectral band; cutoff is the
    largest driven wavenumber; watch lists the recorded modes.
    """

    eps: float
    n_modes: int
    dt: float
    t_final: float
    cutoff: int
    watch: tuple
    seed: int
    scheme: str = "block-exponential"
    record_stride: int = 1
    track_norm: bool = False

    @property
    def cells(self) -> int:
        return int(round(1.0 / self.eps))

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_final / self.dt)))


def default_dt(eps: float, factor: float = DEFAULT_DT_FACTOR) -> float:
    return factor * min(1.0, 16.0 * eps * eps)


def suggest_modes(c: Coefficients, eps: float, cutoff: int, cell_band: int = 8) -> int:
    """Band (a multiple of 2/eps) meeting the invariant with cell headroom.

    The minimum 2 (1/eps) (J+1) + 2 cutoff only fits the operator; each
    residue class must also hold the harmonics of the invariant density,
    so the per-class offset range is widened to at least cell_band.
    """
    r = int(round(1.0 / eps))
    need = 2 * r * max(c.max_harmonic + 1, cell_band) + 2 * cutoff
    blocks = -(-need // (2 * r))  # ceil
    return 2 * r * blocks


def validate_config(config: SolverConfig, c: Coefficients) -> None:
    ratio = 1.0 / config.eps
    if abs(ratio - round(ratio)) > 1e-9:
        raise ValueError("1/eps must be an integer")
    if config.scheme not in ("imex-cn", "block-exponential"):
        raise ValueError(f"unknown scheme {config.scheme!r}")
    if config.dt <= 0 or config.dt > config.t_final:
        raise ValueError("need 0 < dt <= t_final")
    need = 2 * config.cells * (c.max_harmonic + 1) + 2 * config.cutoff
    if config.n_modes < need:
        raise ResolutionTooSmall(
            f"n_modes = {config.n_modes} below the required {need}"
        )


# -- operators -------------------------------------------------------------------


def apply_generator(c: Coefficients, eps: float, u: SpectralField) -> SpectralField:
    """Pseudospectral L_eps u with dealiased products, at u's resolution."""
    r = int(round(1.0 / eps))
    if u.n < 2 * (r * c.max_harmonic + 1):
        raise ResolutionTooSmall("band cannot even hold the oscillated coefficients")
    b_eps = oscillate(c.b.compress(), eps, 0, u.n)
    s2_eps = oscillate(c.sigma_squared().compress(), eps, 0, u.n)
    drift = (1.0 / eps) * multiply(b_eps, u.derivative(1))
    diffusion = 0.5 * multiply(s2_eps, u.derivative(2))
    return drift + diffusion


@dataclass(frozen=True)
class ClassBlock:
    """One residue class: its wavenumbers, generator block and noise columns."""

    residue: int
    ks: np.ndarray
    matrix: np.ndarray
    driven: np.ndarray         # driven wavenumbers |k| <= cutoff in this class
    noise_map: np.ndarray      # (len(ks), len(driven)) profile coefficients


@dataclass
class BlockOperator:
    eps: float
    n_modes: int
    cutoff: int
    blocks: dict = field(default_factory=dict)  # residue -> ClassBlock

    @property
    def cells(self) -> int:
        return int(round(1.0 / self.eps))

    def block_of(self, m: int) -> ClassBlock:
        return self.blocks[m % self.cells]

    def dense(self) -> np.ndarray:
        """Full band matrix reassembled from the blocks (diagnostic)."""
        n = self.n_modes
        out = np.zeros((n, n), dtype=complex)
        for blk in self.blocks.values():
            idx = blk.ks + n // 2
            out[np.ix_(idx, idx)] = blk.matrix
        return out


def build_blocks(c: Coefficients, spec: NoiseSpec, config: SolverConfig) -> BlockOperator:
    """Assemble the per-residue generator blocks and their noise columns.

    The unpaired wavenumber -N/2 is left out so that every class is
    mirror-symmetric to its conjugate class; keeping it would break the
    realness of simulated fields at the band edge.
    """
    validate_config(config, c)
    r = config.cells
    n = config.n_modes
    op = BlockOperator(eps=config.eps, n_modes=n, cutoff=config.cutoff)
    all_ks = np.arange(-n // 2 + 1, n // 2)
    for residue in range(r):
        ks = all_ks[all_ks % r == residue]
        a = generator_matrix(c, ks, eps=config.eps, adjoint=False)
        driven = ks[np.abs(ks) <= config.cutoff]
        noise_map = np.zeros((ks.size, driven.size), dtype=complex)
        for col, k in enumerate(driven):
            q = spec.profile(int(k))
            for j in q.wavenumbers:
                row = np.searchsorted(ks, k + j * r)
                if row < ks.size and ks[row] == k + j * r:
                    noise_map[row, col] = q.coeff(int(j))
        op.blocks[residue] = ClassBlock(residue=residue, ks=ks, matrix=a,
                                        driven=driven, noise_map=noise_map)
    return op


# -- path engine -----------------------------------------------------------------


@dataclass(frozen=True)
class PathOutput:
    """Recorded trajectories of the watched modes for one path."""

    times: np.ndarray
    modes: dict
    seed: int
    path_index: int
    norm_squared: np.ndarray | None = None

    def mode(self, m: int) -> np.ndarray:
        return self.modes[m]


class _ClassStepper:
    """Propagators for a subset of residue classes, vectorised over paths."""

    def __init__(self, op: BlockOperator, config: SolverConfig, residues=None):
        self.config = config
        self.k_cut = config.cutoff
        self.residues = sorted(set(residues if residues is not None
                                   else op.blocks.keys()))
        self.props = {}
        self.noise_idx = {}
        self.noise_map = {}
        self.sizes = {}
        dt = config.dt
        for r_ in self.residues:
            blk = op.blocks[r_]
            a = blk.matrix
            if config.scheme == "block-exponential":
                prop = sla.expm(a * dt)
                post = False
            else:  # imex-cn: noise added after the solve
                eye = np.eye(a.shape[0])
                prop = sla.solve(eye - 0.5 * dt * a, eye + 0.5 * dt * a)
                post = True
            self.props[r_] = (prop, post)
            self.noise_idx[r_] = blk.driven + self.k_cut
            self.noise_map[r_] = blk.noise_map
            self.sizes[r_] = blk.ks.size

    def zero_states(self, n_paths: int) -> dict:
        return {r_: np.zeros((self.sizes[r_], n_paths), dtype=complex)
                for r_ in self.residues}

    def step(self, states: dict, dw: np.ndarray) -> None:
        """Advance all classes one step; dw has shape (2*k_cut + 1, n_paths)."""
        for r_ in self.residues:
            prop, post = self.props[r_]
            forced = self.noise_map[r_] @ dw[self.noise_idx[r_]]
            if post:
                states[r_] = prop @ states[r_] + forced
            else:
                states[r_] = prop @ (states[r_] + forced)


def _run_engine(op: BlockOperator, config: SolverConfig, path_indices,
                on_step, residues=None, chunk: int = 256) -> None:
    """Drive the stepper, handing each step's increments and states to on_step.

    on_step(step_index, t, dw, states): dw is (2*cutoff + 1, n_paths),
    states maps residue -> (block size, n_paths).  Deterministic given
    (seed, path index) regardless of batching.
    """
    stepper = _ClassStepper(op, config, residues)
    paths = list(path_indices)
    streams = [WienerStream(config.seed, p) for p in paths]
    states = stepper.zero_states(len(paths))
    n_steps = config.n_steps
    k_cut = config.cutoff
    done = 0
    while done < n_steps:
        m = min(chunk, n_steps - done)
        dw_chunk = np.empty((m, 2 * k_cut + 1, len(paths)), dtype=complex)
        for pi, stream in enumerate(streams):
            dw_chunk[:, :, pi] = stream.increments(m, k_cut, config.dt)
        for i in range(m):
            step = done + i
            stepper.step(states, dw_chunk[i])
            if (step + 1) % 64 == 0 or step + 1 == n_steps:
                peak = max(np.abs(s).max(initial=0.0) for s in states.values())
                if not np.isfinite(peak) or peak > OVERFLOW_GUARD:
                    raise UnstableStep(
                        f"mode amplitude {peak:.3e} beyond guard at t = {(step + 1) * config.dt:g}"
                    )
            on_step(step, (step + 1) * config.dt, dw_chunk[i], states)
        done += m


def _watch_lookup(op: BlockOperator, watch) -> list:
    out = []
    for m in watch:
        blk = op.block_of(m)
        row = int(np.searchsorted(blk.ks, m))
        if row >= blk.ks.size or blk.ks[row] != m:
            raise ResolutionTooSmall(f"watched mode {m} outside the band")
        out.append((m, blk.residue, row))
    return out


def simulate_path(c: Coefficients, spec: NoiseSpec, config: SolverConfig,
                  path_index: int = 0) -> PathOutput:
    """One sample path of the multiscale equation from u = 0."""
    op = build_blocks(c, spec, config)
    lookup = _watch_lookup(op, config.watch)
    stride = config.record_stride
    n_rec = config.n_steps // stride + 1
    times = np.zeros(n_rec)
    trajs = {m: np.zeros(n_rec, dtype=complex) for m, _, _ in lookup}
    norm2 = np.zeros(n_rec) if config.track_norm else None
    pos = [0]

    def on_step(step, t, dw, states):
        if (step + 1) % stride:
            return
        i = pos[0] + 1
        times[i] = t
        for m, res, row in lookup:
            trajs[m][i] = states[res][row, 0]
        if norm2 is not None:
            norm2[i] = sum(float(np.sum(np.abs(s[:, 0]) ** 2)) for s in states.values())
        pos[0] = i

    _run_engine(op, config, [path_index], on_step)
    return PathOutput(times=times, modes=trajs, seed=config.seed,
                      path_index=path_index, norm_squared=norm2)


def sample_final_modes(c: Coefficients, spec: NoiseSpec, config: SolverConfig,
                       n_paths: int, batch: int = 256) -> dict:
    """Final-time watched-mode values over many paths, batched for speed.

    Path p reproduces simulate_path(..., path_index=p) exactly; only the
    vectorisation differs.
    """
    op = build_blocks(c, spec, config)
    lookup = _watch_lookup(op, config.watch)
    residues = sorted({res for _, res, _ in lookup})
    out = {m: np.zeros(n_paths, dtype=complex) for m, _, _ in lookup}
    last = config.n_steps - 1
    for start in range(0, n_paths, batch):
        idx = list(range(start, min(start + batch, n_paths)))

        def on_step(step, t, dw, states):
            if step == last:
                for m, res, row in lookup:
                    out[m][idx[0] : idx[0] + len(idx)] = states[res][row]

        _run_engine(op, config, idx, on_step, residues=residues)
    return out


def simulate_coupled(c: Coefficients, spec: NoiseSpec, config: SolverConfig,
                     cell: CellSolution | None = None, model: LimitModel | None = None,
                     path_index: int = 0) -> tuple[PathOutput, PathOutput]:
    """Multiscale path and its averaged-limit partner on the same increments.

    The limit modes are advanced by exponential Euler,
    x <- exp(-mu m^2 dt) (x + c_m dW_m), consuming exactly the dW_m the
    multiscale solver consumes, so the pathwise difference measures the
    homogenisation error rather than scheme mismatch.  Only the residue
    classes of watched modes are evolved; the others never feed them.
    """
    worst = max(abs(m) for m in config.watch)
    if config.eps * worst >= 0.5:
        raise ValueError("comparison with the limit needs eps * |m| < 1/2")
    if worst > config.cutoff:
        raise ValueError("watched modes must be driven (|m| <= cutoff)")
    if model is None:
        if cell is None:
            from .cell import solve_cell
            cell = solve_cell(c, with_gap=False)
        model = averaged_model(spec, cell, max(abs(m) for m in config.watch))
    op = build_blocks(c, spec, config)
    lookup = _watch_lookup(op, config.watch)
    residues = sorted({res for _, res, _ in lookup})
    stride = config.record_stride
    n_rec = config.n_steps // stride + 1
    times = np.zeros(n_rec)
    eps_trajs = {m: np.zeros(n_rec, dtype=complex) for m, _, _ in lookup}
    lim_trajs = {m: np.zeros(n_rec, dtype=complex) for m, _, _ in lookup}

    decays = {m: np.exp(-model.mu * m * m * config.dt) for m, _, _ in lookup}
    coeffs = {m: model.coeff(m) for m, _, _ in lookup}
    lim_state = {m: 0j for m, _, _ in lookup}
    k_cut = config.cutoff
    pos = [0]

    def on_step(step, t, dw, states):
        for m, _, _ in lookup:
            lim_state[m] = decays[m] * (lim_state[m] + coeffs[m] * dw[m + k_cut, 0])
        if (step + 1) % stride:
            return
        i = pos[0] + 1
        times[i] = t
        for m, res, row in lookup:
            eps_trajs[m][i] = states[res][row, 0]
            lim_trajs[m][i] = lim_state[m]
        pos[0] = i

    _run_engine(op, config, [path_index], on_step, residues=residues)
    u_eps = PathOutput(times=times, modes=eps_trajs, seed=config.seed,
                       path_index=path_index)
    u_lim = PathOutput(times=times, modes=lim_trajs, seed=config.seed,
                       path_index=path_index)
    return u_eps, u_lim


# -- exact second moments ----------------------------------------------------------


@dataclass(frozen=True)
class CovarianceTable:
    """E |<u_eps(t), e_m>|^2 on a time grid, one column per mode."""

    times: np.ndarray
    variances: dict

    def at_final(self, m: int) -> float:
        return float(self.variances[m][-1])


def exact_mode_covariance(c: Coefficients, spec: NoiseSpec, config: SolverConfig,
                          t_grid, modes=None) -> CovarianceTable:
    """Per-mode variances from the block Lyapunov equations, no Monte Carlo.

    Each class covariance solves S' = A S + S A* + G G* from S(0) = 0 by
    the implicit trapezoid rule with step dt; the fixed point of that
    recursion is the exact stationary covariance, so long-horizon values
    do not drift.  The recursion is not stepped: in the eigenbasis of A it
    decouples into scalar geometric series, and its iterate at every
    recorded step is evaluated at once in closed form (_class_variances).
    An empty or non-finite t_grid is rejected before any block is built.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("t_grid is empty: give at least one time in [0, t_final]")
    if not np.isfinite(t_grid).all():
        raise ValueError(f"t_grid holds non-finite times: {t_grid[~np.isfinite(t_grid)]}")
    if np.any(t_grid < 0) or np.any(t_grid > config.t_final + 1e-9):
        raise ValueError("t_grid must lie inside [0, t_final]")
    op = build_blocks(c, spec, config)
    rec_steps = np.unique(np.round(t_grid / config.dt).astype(int))
    times = rec_steps * config.dt

    if modes is None:
        wanted = {int(k) for blk in op.blocks.values() for k in blk.ks}
    else:
        wanted = {int(m) for m in modes}
    residues = sorted({m % op.cells for m in wanted})

    variances = {m: np.zeros(times.size) for m in wanted}
    for res in residues:
        blk = op.blocks[res]
        rows = {int(k): i for i, k in enumerate(blk.ks) if int(k) in wanted}
        table = _class_variances(blk, config.dt, rec_steps, list(rows.values()))
        for col, k in enumerate(rows):
            variances[k][:] = table[:, col]
    return CovarianceTable(times=times, variances=variances)


def _class_variances(blk: ClassBlock, dt: float, steps: np.ndarray, rows: list) -> np.ndarray:
    """Trapezoid covariance iterates of one class, in closed form.

    The recursion (S_{k+1} - S_k) / dt = (A Sig + Sig A*) / 2 + G G*, with
    Sig = S_{k+1} + S_k and S_0 = 0, decouples entrywise in the basis
    A = V diag(lam) V^-1.  With W = V^-1 G and z_ij = dt (lam_i + conj lam_j) / 2,
    the entries of V^-1 S V^-* follow s <- r s + dt (W W*)_ij / (1 - z),
    r = (1 + z) / (1 - z), so S_k = V [dt W W* / (1 - z) * (r^k - 1) / (r - 1)] V*.
    log r = 2 atanh(z) equals log1p(z) - log1p(-z) but stays accurate for
    small complex z, where NumPy's complex log1p loses digits; where
    log r = 0 (the Brownian k = 0 mode) the geometric factor is exactly k.

    Returns Re(v_m S_k v_m*) for each step k (rows of the result) and each
    block row m in rows (columns).  Raises UnstableStep if the result is
    not finite, and SolveFailed if the last two recorded iterates miss one
    trapezoid step by more than COVARIANCE_RESIDUAL_TOL relative, which
    flags an inaccurate eigenbasis.
    """
    a = blk.matrix
    lam, vecs = sla.eig(a)
    w = np.linalg.solve(vecs, blk.noise_map)
    z = 0.5 * dt * (lam[:, None] + lam.conj()[None, :])
    # z = -1 gives r = 0 (one step forgets S) where atanh is -inf; there
    # log r is the log of the smallest normal float, so r^k < 1e-307
    one_step = z == -1
    log_r = np.where(one_step, LOG_TINY, 2.0 * np.arctanh(np.where(one_step, 0.0, z)))
    brownian = log_r == 0
    weight = (w @ w.conj().T) * (dt / (1.0 - z))
    denominator = np.where(brownian, 1.0, np.expm1(log_r))

    def iterates(ks) -> np.ndarray:
        k = np.asarray(ks, dtype=float)[:, None, None]
        return weight * np.where(brownian, k, np.expm1(k * log_r) / denominator)

    v_rows = vecs[rows]
    table = np.einsum("mi,kij,mj->km", v_rows, iterates(steps), v_rows.conj(),
                      optimize=True).real
    k_f = max(int(steps[-1]), 1)
    s_prev, s_last = vecs @ iterates([k_f - 1, k_f]) @ vecs.conj().T
    if not (np.isfinite(table).all() and np.isfinite(s_last).all()):
        raise UnstableStep("covariance lost finiteness")

    sig = s_last + s_prev
    gg = blk.noise_map @ blk.noise_map.conj().T
    resid = s_last - s_prev - 0.5 * dt * (a @ sig + sig @ a.conj().T) - dt * gg
    norm = np.linalg.norm
    scale = norm(s_last - s_prev) + dt * norm(a) * norm(sig) + dt * norm(gg)
    if not norm(resid) <= COVARIANCE_RESIDUAL_TOL * scale:
        raise SolveFailed(
            f"class {blk.residue}: trapezoid residual {norm(resid):.3e} above "
            f"{COVARIANCE_RESIDUAL_TOL:g} x {scale:.3e} at step {k_f}"
        )
    return table
