"""Block-structured time stepping for the multiscale stochastic heat equation.

du = L_eps u dt + sum_k q_k(x/eps) e_k dW_k on [0, 2*pi], u(0) = 0.

In Fourier space both the generator and the noise couple wavenumbers
only within a residue class modulo 1/eps, so the dynamics splits into
independent dense blocks of size ~ N eps.  Each block steps by its
exact matrix exponential with the noise propagated through it,
x <- e^{A dt} (x + F w); the Monte Carlo engine advances that recursion
several steps per product and carries the averaged limit as a
difference coordinate.  Second moments follow the per-block Lyapunov
equation, discretised by the implicit trapezoid rule; that recursion is
evaluated in closed form at every recorded step, with no time loop, so
limit variances can be verified without Monte Carlo error at O(n^3)
cost per block.  The propagator and the covariance both work in the
block's checked eigenbasis (cell.eigenbasis), so every dense kernel
runs on NumPy alone.  coupled_sup_errors, the converge study's engine,
runs its path batches on one thread per usable CPU; every product runs
per path, so within one NumPy/BLAS build its results are bit-for-bit
the same whatever the core count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .cell import Coefficients, eigenbasis, generator_matrix
from .errors import ResolutionTooSmall, SolveFailed, UnstableStep
from .fourier import SpectralField, cells, multiply, oscillate
from .limit import LimitModel
from .noise import NoiseSpec, WienerStream

__all__ = [
    "SolverConfig",
    "PathOutput",
    "ClassBlock",
    "BlockOperator",
    "CovarianceTable",
    "suggest_modes",
    "apply_generator",
    "build_blocks",
    "simulate_path",
    "coupled_sup_errors",
    "require_driven",
    "exact_mode_covariance",
]

OVERFLOW_GUARD = 1e12
COVARIANCE_RESIDUAL_TOL = 1e-12  # one trapezoid step, relative to its terms
LOG_TINY = float(np.log(np.finfo(float).tiny))
DEFAULT_DT_FACTOR = 1e-3  # dt = factor * min(1, 16 eps^2) resolves the eps^2 layer
CELL_BAND = 8  # class offsets every suggested band holds, for the density's harmonics
CHUNK_STEPS = 256  # steps of Wiener increments drawn per path at a time
MAX_BLOCK_STEPS = 64  # cap on the steps one product advances
PATH_BATCH = 64  # most paths per engine run in coupled_sup_errors; no path's values depend on it


@dataclass(frozen=True)
class SolverConfig:
    """Discretisation of one multiscale run.

    eps must be the reciprocal of an integer so the domain holds a whole
    number of cells.  n_modes is the total spectral band, watch lists the
    recorded modes; the driven cutoff is the noise spec's.
    """

    eps: float
    n_modes: int
    dt: float
    t_final: float
    watch: tuple
    seed: int
    track_norm: bool = False

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_final / self.dt)))


def default_dt(eps: float) -> float:
    return DEFAULT_DT_FACTOR * min(1.0, 16.0 * eps * eps)


def suggest_modes(c: Coefficients, eps: float, cutoff: int) -> int:
    """Band (a multiple of 2/eps) meeting the invariant with cell headroom.

    The minimum 2 (1/eps) (J+1) + 2 cutoff only fits the operator; each
    residue class must also hold the harmonics of the invariant density,
    so the per-class offset range is widened to at least CELL_BAND.
    """
    r = cells(eps)
    need = 2 * r * max(c.max_harmonic + 1, CELL_BAND) + 2 * cutoff
    blocks = -(-need // (2 * r))  # ceil
    return 2 * r * blocks


# -- operators -------------------------------------------------------------------


def apply_generator(c: Coefficients, eps: float, u: SpectralField) -> SpectralField:
    """Pseudospectral L_eps u with dealiased products, at u's resolution."""
    if u.n < 2 * (cells(eps) * c.max_harmonic + 1):
        raise ResolutionTooSmall("band cannot even hold the oscillated coefficients")
    b_eps = oscillate(c.b.compress(), eps, 0, u.n)
    s2_eps = oscillate(c.sigma_squared.compress(), eps, 0, u.n)
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
    cells: int
    n_modes: int
    cutoff: int  # the noise spec's: the largest driven wavenumber
    blocks: dict = field(default_factory=dict)  # residue -> ClassBlock

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
    if config.dt <= 0 or config.dt > config.t_final:
        raise ValueError("need 0 < dt <= t_final")
    r = cells(config.eps)
    n = config.n_modes
    need = 2 * r * (c.max_harmonic + 1) + 2 * spec.cutoff
    if n < need:
        raise ResolutionTooSmall(f"n_modes = {n} below the required {need}")
    op = BlockOperator(cells=r, n_modes=n, cutoff=spec.cutoff)
    all_ks = np.arange(-n // 2 + 1, n // 2)
    for residue in range(r):
        ks = all_ks[all_ks % r == residue]
        a = generator_matrix(c, ks, eps=config.eps, adjoint=False)
        driven = ks[np.abs(ks) <= spec.cutoff]
        noise_map = np.zeros((ks.size, driven.size), dtype=complex)
        for col, k in enumerate(driven):
            # q_j e_{k + j r} sits at row (k - ks[0]) / r + j of the progression ks
            q = spec.profile(int(k))
            rows = (k - ks[0]) // r + q.wavenumbers
            inside = (rows >= 0) & (rows < ks.size)
            noise_map[rows[inside], col] = q.coeffs[inside]
        op.blocks[residue] = ClassBlock(residue=residue, ks=ks, matrix=a,
                                        driven=driven, noise_map=noise_map)
    return op


# -- path engine -----------------------------------------------------------------


@dataclass(frozen=True)
class PathOutput:
    """Recorded trajectories of the watched modes for one path."""

    times: np.ndarray
    modes: dict
    norm_squared: np.ndarray | None = None

    def mode(self, m: int) -> np.ndarray:
        return self.modes[m]


def _watch_lookup(op: BlockOperator, watch) -> list:
    out = []
    for m in watch:
        blk = op.block_of(m)
        row = int(np.searchsorted(blk.ks, m))
        if row >= blk.ks.size or blk.ks[row] != m:
            raise ResolutionTooSmall(
                f"watched mode {m} outside the band |k| < {op.n_modes // 2}")
        out.append((m, blk.residue, row))
    return out


def require_driven(eps: float, cutoff: int, watch, name: str = "largest watched mode") -> None:
    """Raise ValueError unless every watched mode is driven (|m| <= cutoff)."""
    worst = max(abs(m) for m in watch)
    if worst > cutoff:
        raise ValueError(f"watched modes must be driven (|m| <= cutoff): at eps = {eps:g} "
                         f"the noise cutoff {cutoff} is below {name} {worst}")


def _recursion(blk: ClassBlock, config: SolverConfig, limits) -> tuple:
    """P = e^{A dt} and G = P F of one class's step x_{k+1} = P x_k + G w_k.

    P = V diag(e^{lam dt}) V^-1 on the class's eigenbasis; w_k are the
    class's driven increments and F its noise map.  Each
    (row, col, decay, coeff) in limits appends the coordinate
    delta = x_row - l, where the limit mode l <- decay (l + coeff w_col)
    consumes the same increment.  Its rows are formed entrywise, so on a
    flat cell, where x_row follows the same update, they are exactly zero.
    """
    lam, vecs = eigenbasis(blk.matrix, f"class {blk.residue}")
    p = (vecs * np.exp(lam * config.dt)) @ np.linalg.inv(vecs)
    g = p @ blk.noise_map
    n, q = p.shape[0], len(limits)
    p_ext = np.zeros((n + q, n + q), dtype=complex)
    g_ext = np.zeros((n + q, g.shape[1]), dtype=complex)
    p_ext[:n, :n] = p
    g_ext[:n] = g
    for i, (row, col, decay, coeff) in enumerate(limits):
        p_ext[n + i, :n] = p[row]
        p_ext[n + i, row] -= decay
        p_ext[n + i, n + i] = decay
        g_ext[n + i] = g[row]
        g_ext[n + i, col] -= decay * coeff
    return p_ext, g_ext


def _block_map(p: np.ndarray, g: np.ndarray, rows, length: int) -> np.ndarray:
    """One product advancing `length` steps and observing `rows` after each.

    Applied to [x_0; w_0; ...; w_{L-1}], its first L*o rows are C x_i,
    i = 1..L (C P^i and the Toeplitz blocks C P^(i-1-j) G, j < i), and its
    last n rows are x_L (P^L and P^(L-1-j) G).
    """
    n, d = g.shape
    o = len(rows)
    powers = [np.eye(n), p]
    for _ in range(length - 1):
        powers.append(p @ powers[-1])
    kicks = [g] + [pw @ g for pw in powers[1:length]]  # P^k G
    out = np.zeros((length * o + n, n + length * d), dtype=complex)
    for i in range(1, length + 1):
        out[(i - 1) * o : i * o, :n] = powers[i][rows]
        for j in range(i):
            out[(i - 1) * o : i * o, n + j * d : n + (j + 1) * d] = kicks[i - 1 - j][rows]
    out[length * o :, :n] = powers[length]
    for j in range(length):
        out[length * o :, n + j * d : n + (j + 1) * d] = kicks[length - 1 - j]
    return out


def _block_lengths(n_steps: int, length: int) -> set:
    """Every block length _ClassRun.advance uses over n_steps in chunks of CHUNK_STEPS."""
    out = set()
    for m in {min(CHUNK_STEPS, n_steps), n_steps % CHUNK_STEPS} - {0}:
        out |= {min(length, m), m % length} - {0}
    return out


class _ClassPlan:
    """One class's step maps, built once per run and shared read-only by every batch.

    B = clip(round(n / sqrt(o d)), 1, MAX_BLOCK_STEPS) for n carried
    coordinates, o observed rows and d driven columns minimises the
    multiplies per step, o n + o d B + n^2 / B + n d; B = 1 is plain
    stepping.  maps holds the _block_map of every block length the run
    takes: B, and the remainders of the chunks.
    """

    def __init__(self, op: BlockOperator, res: int, config: SolverConfig, rows, limits):
        blk = op.blocks[res]
        p, g = _recursion(blk, config, limits)
        (n, d), rows = g.shape, list(rows)
        o = len(rows)
        self.n, self.d, self.o = n, d, o
        self.length = (MAX_BLOCK_STEPS if o * d == 0 else
                       int(np.clip(round(n / np.sqrt(o * d)), 1, MAX_BLOCK_STEPS)))
        self.maps = {length: _block_map(p, g, rows, length)
                     for length in _block_lengths(config.n_steps, self.length)}
        cols = blk.driven + op.cutoff  # an arithmetic progression with step 1/eps
        self.cols = slice(cols[0], cols[-1] + 1, op.cells) if d else slice(0, 0)


def _class_plans(op: BlockOperator, config: SolverConfig, observe: dict,
                 limits: dict | None = None) -> dict:
    """residue -> _ClassPlan of each class in observe, limits[residue] appended."""
    limits = limits or {}
    return {res: _ClassPlan(op, res, config, rows, limits.get(res, ()))
            for res, rows in sorted(observe.items())}


class _ClassRun:
    """One class advanced for one batch of paths, with buffers reused for the whole run."""

    def __init__(self, plan: _ClassPlan, n_paths: int):
        self.plan = plan
        n, d, o = plan.n, plan.d, plan.o
        # [state slot | the chunk's increments]: the block from step s reads
        # x_s at s*d, over increments already consumed, then w_s, w_s+1, ...
        self.buf = np.zeros((n_paths, n + CHUNK_STEPS * d), dtype=complex)
        self.out = np.empty((n_paths, plan.length * o + n, 1), dtype=complex)
        self.obs = np.empty((n_paths, CHUNK_STEPS, o), dtype=complex)
        self.peak = np.empty((n_paths, n))

    def load(self, path: int, dw: np.ndarray) -> None:
        """Copy one path's increments for the coming chunk (dw: steps x all modes)."""
        m, n, d = dw.shape[0], self.plan.n, self.plan.d
        self.buf[path, n : n + m * d].reshape(m, d)[...] = dw[:, self.plan.cols]

    def advance(self, first: int, m: int, dt: float) -> np.ndarray:
        """Run the m loaded steps; return the observed rows after each."""
        plan, buf = self.plan, self.buf
        n, d, o = plan.n, plan.d, plan.o
        s = 0
        while s < m:
            length = min(plan.length, m - s)
            out = self.out[:, : length * o + n]
            np.matmul(plan.maps[length], buf[:, s * d : s * d + n + length * d, None], out=out)
            self.obs[:, s : s + length] = out[:, : length * o, 0].reshape(len(buf), length, o)
            state = out[:, length * o :, 0]
            s += length
            peak = np.abs(state, out=self.peak).max(initial=0.0)
            if not np.isfinite(peak) or peak > OVERFLOW_GUARD:
                raise UnstableStep(
                    f"mode amplitude {peak:.3e} beyond guard at t = {(first + s) * dt:g}")
            (buf[:, s * d : s * d + n] if s < m else buf[:, :n])[...] = state
        return self.obs[:, :m]


def _engine(op: BlockOperator, plans: dict, config: SolverConfig, path_indices):
    """Advance the planned classes from u = 0 for one batch of paths; yield their observed rows.

    plans (from _class_plans) maps residue -> the class's shared step maps
    and the rows to record after every step, where row n + i (n the class
    size) is the difference coordinate of its i-th limit term (see
    _recursion).  Yields (first step, count, obs) once per chunk of
    `count` steps of increments, obs[residue] of shape (paths, count,
    rows); the buffers are the batch's own and reused, so consume them
    before the next iteration.  Raises UnstableStep when the carried
    state at a block boundary is non-finite or beyond OVERFLOW_GUARD.

    Every product runs per path (np.matmul with paths as the batch axis),
    so within one NumPy/BLAS build a path's values depend on (seed, path
    index) and the config, not on which other paths share its batch, in
    what order batches run, or on which thread or core.  Batches share
    nothing writable, so coupled_sup_errors runs them on one thread per
    usable CPU.
    """
    streams = [WienerStream(config.seed, p) for p in path_indices]
    runs = {res: _ClassRun(plan, len(streams)) for res, plan in plans.items()}
    for first in range(0, config.n_steps, CHUNK_STEPS):
        m = min(CHUNK_STEPS, config.n_steps - first)
        for pi, stream in enumerate(streams):
            dw = stream.increments(m, op.cutoff, config.dt)
            for run in runs.values():
                run.load(pi, dw)
        yield first, m, {res: run.advance(first, m, config.dt) for res, run in runs.items()}


def _workers() -> int:
    """The CPUs this process may run on: its affinity set, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _class_rows(lookup) -> dict:
    """residue -> block rows of its watched modes, in watch order."""
    rows = {}
    for _, res, row in lookup:
        rows.setdefault(res, []).append(row)
    return rows


def _limit_terms(op: BlockOperator, config: SolverConfig, model: LimitModel,
                 lookup) -> dict:
    """residue -> (row, driven column, decay, coeff) of each watched limit mode."""
    terms = {}
    for m, res, row in lookup:
        col = int(np.searchsorted(op.blocks[res].driven, m))
        decay = np.exp(-model.mu * m * m * config.dt)
        terms.setdefault(res, []).append((row, col, decay, model.coeff(m)))
    return terms


def simulate_path(c: Coefficients, spec: NoiseSpec, config: SolverConfig,
                  path_index: int = 0) -> PathOutput:
    """One sample path of the multiscale equation from u = 0.

    Every class is evolved, so OVERFLOW_GUARD sees the whole state; only
    watched rows are observed unless track_norm asks for |u|^2, which
    observes every row of every class.
    """
    op = build_blocks(c, spec, config)
    lookup = _watch_lookup(op, config.watch)
    if config.track_norm:
        observe = {res: list(range(blk.ks.size)) for res, blk in op.blocks.items()}
    else:
        observe = {res: [] for res in op.blocks} | _class_rows(lookup)
    where = {m: (res, observe[res].index(row)) for m, res, row in lookup}
    n_rec = config.n_steps + 1
    trajs = {m: np.zeros(n_rec, dtype=complex) for m in where}
    norm2 = np.zeros(n_rec) if config.track_norm else None
    for first, count, obs in _engine(op, _class_plans(op, config, observe), config,
                                     [path_index]):
        slots = slice(first + 1, first + 1 + count)
        for m, (res, k) in where.items():
            trajs[m][slots] = obs[res][0, :, k]
        if norm2 is not None:
            norm2[slots] = sum(np.sum(np.abs(x[0]) ** 2, axis=1) for x in obs.values())
    return PathOutput(times=np.arange(n_rec) * config.dt, modes=trajs, norm_squared=norm2)


def coupled_sup_errors(c: Coefficients, spec: NoiseSpec, config: SolverConfig,
                       model: LimitModel, s: float, n_paths: int) -> dict:
    """Per-path sup_t sum_m (1+m^2)^-s |<u_eps - u, e_m>|^2, coupled noise.

    u is the averaged limit advanced by exponential Euler,
    u_m <- exp(-mu m^2 dt) (u_m + c_m dW_m), consuming exactly the dW_m
    that u_eps consumes, so the difference measures the homogenisation
    error rather than a mismatch between schemes.  The engine carries
    u_eps - u of each watched mode as a difference coordinate; only the
    residue classes of watched modes are evolved, since the others never
    feed them.  Returns path arrays under "full", and under "half_modes"
    and "coarse_grid" the same statistic with the mode sum cut at half the
    watch range and with the time grid thinned by two, so the proxy's
    truncation effects can be reported.

    The paths run in batches of min(PATH_BATCH, ceil(n_paths / workers)),
    one thread per usable CPU (_workers): the calling thread runs one
    lane of batches and a pool opened for this call runs the others; on
    one CPU no thread is started.  The classes' step maps are built once
    here and shared, and each batch owns its buffers.  Philox draws and
    the products release the GIL.  Path p's values depend on neither the
    batch size nor the thread count, so within one NumPy/BLAS build the
    result is bit-for-bit the same on any number of cores.  An exception
    in any batch (UnstableStep, say) reaches the caller once every lane
    has stopped.
    """
    require_driven(config.eps, spec.cutoff, config.watch)
    op = build_blocks(c, spec, config)
    lookup = _watch_lookup(op, config.watch)
    rows = _class_rows(lookup)
    # the difference coordinates follow the class's own rows in its state
    observe = {res: [op.blocks[res].ks.size + i for i in range(len(r))]
               for res, r in rows.items()}
    plans = _class_plans(op, config, observe, _limit_terms(op, config, model, lookup))
    # (m, weight, residue, column of its difference in obs)
    terms = [(m, (1.0 + m * m) ** (-s), res, rows[res].index(row)) for m, res, row in lookup]
    half_cut = max(abs(m) for m in config.watch) // 2

    keys = ("full", "half_modes", "coarse_grid")
    sups = {key: np.zeros(n_paths) for key in keys}

    def run_batch(idx: range) -> None:
        running = {key: sups[key][idx.start : idx.stop] for key in keys}
        for first, count, obs in _engine(op, plans, config, idx):
            current, current_half = np.zeros((len(idx), count)), np.zeros((len(idx), count))
            for m, weight, res, k in terms:
                term = weight * np.abs(obs[res][:, :, k]) ** 2
                current += term
                if abs(m) <= half_cut:
                    current_half += term
            np.maximum(running["full"], current.max(axis=1), out=running["full"])
            np.maximum(running["half_modes"], current_half.max(axis=1),
                       out=running["half_modes"])
            # odd step indices: the grid thinned by two
            odd = current[:, (first + 1) % 2 :: 2]
            if odd.shape[1]:
                np.maximum(running["coarse_grid"], odd.max(axis=1), out=running["coarse_grid"])

    workers = _workers()
    size = max(1, min(PATH_BATCH, -(-n_paths // workers)))
    batches = [range(a, min(a + size, n_paths)) for a in range(0, n_paths, size)]
    lanes = max(1, min(workers, len(batches)))  # n_paths = 0 runs one empty lane

    def run_lane(lane: int) -> None:
        for idx in batches[lane::lanes]:
            run_batch(idx)

    if lanes == 1:
        run_lane(0)
        return sups
    with ThreadPoolExecutor(lanes - 1) as pool:
        others = [pool.submit(run_lane, lane) for lane in range(1, lanes)]
        run_lane(0)
        for future in others:
            future.result()
    return sups


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
    An empty or non-finite t_grid is rejected before any block is built; a
    requested mode outside the band raises ResolutionTooSmall.
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
        modes = [k for blk in op.blocks.values() for k in blk.ks]
    variances = {}
    for res, rows in sorted(_class_rows(_watch_lookup(op, [int(m) for m in modes])).items()):
        blk = op.blocks[res]
        table = _class_variances(blk, config.dt, rec_steps, rows)
        for col, row in enumerate(rows):
            variances[int(blk.ks[row])] = table[:, col]
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

    The eigenbasis is cell.eigenbasis, checked before it is used.

    Returns Re(v_m S_k v_m*) for each step k (rows of the result) and each
    block row m in rows (columns).  Raises UnstableStep if the result is
    not finite, and SolveFailed if the last two recorded iterates miss one
    trapezoid step by more than COVARIANCE_RESIDUAL_TOL relative, which
    flags an inaccurate eigenbasis.
    """
    a = blk.matrix
    lam, vecs = eigenbasis(a, f"class {blk.residue}")
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
