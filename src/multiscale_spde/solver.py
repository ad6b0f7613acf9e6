"""Block-structured time stepping for the multiscale stochastic heat equation.

du = L_eps u dt + sum_k q_k(x/eps) e_k dW_k on [0, 2*pi], u(0) = 0.

In Fourier space both the generator and the noise couple wavenumbers
only within a residue class modulo 1/eps, so the dynamics splits into
independent dense blocks of size ~ N eps.  Each block's exact step is
a joint Gaussian transition on real coordinates: y <- P y plus a
Gaussian of covariance Q(dt), P = e^{A dt} and Q(dt) the Van Loan
covariance of one step.  No step is an approximation,
so dt only sets the time grid a path is recorded on.  The averaged limit
rides along as a difference coordinate, and only residues 0 .. r/2 are
evolved, the others being their conjugates: all of them when |u|^2 is
tracked, else only those a watched mode is read in.  The engine
advances a block of B steps per product and reads only what it records,
a class's observed rows after each step and its state at the block's
end, each coordinate once: the observed rows lead the state, so a block outputs
them after every step and then the state's other coordinates, and its
last n outputs are the state.  Given the state at the block's start,
those are a linear map of it plus a Gaussian of the block's joint
covariance G, both built from P and Q(dt) in one walk over the B steps,
and each block draws rank(G) normals through G's eigen-factor, fewer
than B rank Q(dt) when few rows are observed; a plan that observes
every row has B = 1, and its G is Q(dt) itself.  Second moments follow
the per-block Lyapunov
equation, discretised by the implicit trapezoid rule; that recursion is
evaluated in closed form at every recorded step, with no time loop, so
limit variances can be verified without Monte Carlo error at O(n^3)
cost per block.  The propagator and the covariance both work in the
block's checked eigenbasis (lam, V, V^-1 from cell.eigenbasis), and
both second moments, the step's Q(dt) and the trapezoid iterate, are
cell.gram on it with two rates, so every dense kernel runs on NumPy
alone.  Each evolved class of each path draws from its own
SFC64 stream, addressed by (seed, path, residue); an engine run seeds
all of its streams in one vectorised pass of SeedSequence's hash
(noise.wiener_streams), bit for bit the SeedSequence children, and
builds no SeedSequence.  The classes of a batch run one after another,
each on its own chunk of steps.  Both Monte Carlo entry points,
simulate_paths (the simulate study's trajectories)
and coupled_sup_errors (the converge study's sup errors), are per-batch
reductions over one scheduler, _map_paths, which builds the evolved
classes' plans once and runs the path batches on one thread per usable
CPU; every product is one GEMM over a fixed group of PATH_GROUP paths,
so within one NumPy/BLAS build their results are bit-for-bit the same
whatever the core count, the BLAS thread count or the number of paths.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .cell import Coefficients, _gather, eigenbasis, generator_matrix, gram
from .errors import ResolutionTooSmall, SolveFailed, UnstableStep
from .fourier import SpectralField, cells, multiply, oscillate
from .limit import LimitModel
from .noise import NoiseSpec, wiener_streams

__all__ = [
    "SolverConfig",
    "PathOutput",
    "ClassBlock",
    "BlockOperator",
    "CovarianceTable",
    "suggest_modes",
    "apply_generator",
    "build_blocks",
    "simulate_paths",
    "coupled_sup_errors",
    "require_driven",
    "exact_mode_covariance",
]

OVERFLOW_GUARD = 1e12
COVARIANCE_RESIDUAL_TOL = 1e-12  # one trapezoid step, relative to its terms
LOG_TINY = float(np.log(np.finfo(float).tiny))
CELL_BAND = 8  # class offsets every suggested band holds, for the density's harmonics
CHUNK_NORMALS = 2048  # normals per path and class drawn at a time: sets each class's chunk
# eigenvalues of a block's covariance G below this fraction of the largest are
# dropped from its factor, the normals a block draws
Q_RANK_CLIP = 1e-14
Q_PSD_TOL = 1e-10  # most negative eigenvalue of a transition covariance allowed, relative
# to the largest (measured at worst -1.7e-13 for Q(dt) and -1.2e-14 for G on the
# cosine A <= 3 converge classes, watched and every-row plans)
DELTA_CANCEL_TOL = 1e-13  # a difference's variance this close to its terms' is rounding
MAX_BLOCK_STEPS = 64  # cap on the steps one product advances
# paths per block product: index-aligned groups, the last padded with zeros, so a
# run of fewer than PATH_GROUP paths pays for a whole group's product on one thread
PATH_GROUP = 16
PATH_BATCH = 64  # paths per engine run in _map_paths, at most, rounded up to whole groups


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
    """The time grid the Monte Carlo sup is taken on; the engine's steps are exact at any dt."""
    return min(1e-3, 0.5 * eps * eps)


def min_modes(c: Coefficients, eps: float, cutoff: int) -> int:
    """The smallest band build_blocks accepts: 2 (1/eps) (J+1) + 2 cutoff."""
    return 2 * cells(eps) * (c.max_harmonic + 1) + 2 * cutoff


def suggest_modes(c: Coefficients, eps: float, cutoff: int) -> int:
    """Band (a multiple of 2/eps) meeting the invariant with cell headroom.

    The minimum (min_modes) only fits the operator; each residue class
    must also hold the harmonics of the invariant density, so the
    per-class offset range is widened to at least CELL_BAND.
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
    blocks: dict = field(default_factory=dict)  # residue -> ClassBlock

    def dense(self) -> np.ndarray:
        """Full band matrix reassembled from the blocks (diagnostic)."""
        n = self.n_modes
        out = np.zeros((n, n), dtype=complex)
        for blk in self.blocks.values():
            idx = blk.ks + n // 2
            out[np.ix_(idx, idx)] = blk.matrix
        return out


def build_blocks(c: Coefficients, spec: NoiseSpec, config: SolverConfig,
                 residues=None) -> BlockOperator:
    """Assemble the generator blocks and noise columns of the given residues (default all).

    Each class's block depends on its residue alone, so building a subset
    gives those classes exactly as building them all does.  The band is
    -N/2 < k < N/2: the unpaired wavenumber -N/2 is left out so that every
    class is mirror-symmetric to its conjugate class, which needs N even
    (ResolutionTooSmall otherwise); an asymmetric band would break the
    realness of simulated fields.
    """
    if config.dt <= 0 or config.dt > config.t_final:
        raise ValueError("need 0 < dt <= t_final")
    r = cells(config.eps)
    n = config.n_modes
    need = min_modes(c, config.eps, spec.cutoff)
    if n < need:
        raise ResolutionTooSmall(f"n_modes = {n} below the required {need}")
    if n % 2:
        raise ResolutionTooSmall(f"n_modes = {n} is odd; the band -N/2 < k < N/2 is "
                                 "symmetric only for an even N")
    op = BlockOperator(cells=r, n_modes=n)
    all_ks = np.arange(-n // 2 + 1, n // 2)
    for residue in sorted(set(range(r) if residues is None else residues)):
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
    """Recorded trajectories of the watched modes, one row per path.

    modes[m] is (paths, steps + 1) complex, norm_squared (paths, steps + 1)
    or None; column j is the state at times[j].
    """

    times: np.ndarray
    modes: dict
    norm_squared: np.ndarray | None = None


def _watch_lookup(op: BlockOperator, watch) -> list:
    """(m, residue, row) of each mode: its class and its row in the class's ks.

    The band is -N/2 < k < N/2 (build_blocks), so the rows of a class
    follow from N and r alone, whether or not its block is built.
    """
    lowest = -op.n_modes // 2 + 1
    out = []
    for m in watch:
        if not lowest <= m < op.n_modes // 2:
            raise ResolutionTooSmall(
                f"watched mode {m} outside the band |k| < {op.n_modes // 2}")
        out.append((m, m % op.cells, (m - lowest) // op.cells))
    return out


def require_driven(eps: float, cutoff: int, watch, name: str = "largest watched mode") -> None:
    """Raise ValueError unless every watched mode is driven (|m| <= cutoff)."""
    worst = max(abs(m) for m in watch)
    if worst > cutoff:
        raise ValueError(f"watched modes must be driven (|m| <= cutoff): at eps = {eps:g} "
                         f"the noise cutoff {cutoff} is below {name} {worst}")


def _transition(blk: ClassBlock, dt: float, limits) -> tuple:
    """P = e^{A~ dt} and Q(dt) of one class's state [x; delta], both exact.

    x is the class's block of u_eps, dx = A x dt + F dW with E dW dW* = dt I.
    Each (row, col, rate, coeff) in limits appends the coordinate
    delta = x_row - l of a limit mode dl = -rate l dt + coeff dW_col, driven
    by the same increment.  In [x; l] the generator is block-diagonal, so
    on the class's eigenbasis (cell.eigenbasis), V_ext = blockdiag(V, I),
    Q(dt) = int_0^dt e^{A~ s} G~ G~* e^{A~* s} ds is the Van Loan integral
    V_ext gram(lam_ext, H, dt) V_ext* (cell.gram) with H = V_ext^-1 G~;
    delta is then substituted in its rows and columns.  The coupled
    generator is never diagonalised: its slow eigenvalue and the limit's
    rate merge as eps -> 0.  P's delta rows
    are formed entrywise, so on a flat cell, where x_row follows l, they
    are exactly zero off the diagonal.  delta's variance in Q is a
    difference of O(|x_row|^2) terms; where it is within
    DELTA_CANCEL_TOL of them it holds rounding only (a flat cell whose mu
    and sigma^2 / 2 differ in the last bits), and delta's row and column
    of Q are set to exactly zero.
    """
    lam, vecs, inv = eigenbasis(blk.matrix, f"class {blk.residue}")
    p = (vecs * np.exp(lam * dt)) @ inv
    n, q = p.shape[0], len(limits)
    v_ext = np.eye(n + q, dtype=complex)
    v_ext[:n, :n] = vecs
    h = np.zeros((n + q, blk.driven.size), dtype=complex)
    h[:n] = inv @ blk.noise_map
    lam_ext = np.concatenate([lam, [-rate for _, _, rate, _ in limits]])
    for i, (_, col, _, coeff) in enumerate(limits):
        h[n + i, col] = coeff
    cov = v_ext @ gram(lam_ext, h, dt) @ v_ext.conj().T

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
        if abs(cov[n + i, n + i]) <= DELTA_CANCEL_TOL * (terms[row] + terms[n + i]):
            cov[n + i] = cov[:, n + i] = 0.0
    return p_ext, cov


def _real_form(p: np.ndarray, cov: np.ndarray, partner: np.ndarray) -> tuple:
    """P and Q(dt) of a conjugate-symmetric state X on real coordinates y.

    partner[i] is the coordinate with X_partner = conj X_i (i itself for
    a real one).  y holds Re X_i for every i <= partner[i], then Im X_i for
    every i < partner[i], so X = U y with X_i = y[cos_i] + 1j sgn_i y[sin_i]
    (sgn_i = 1, -1 for the two of a pair, 0 for a real X_i), and
    P_y = U^-1 P U, Q_y = U^-1 Q U^-*.  U is a signed permutation up to
    the factors 1/2 and 1j, so both are gathered and added entrywise, with
    no dense U and no matrix product (_gather).  A paired class, X = [x;
    conj x], gives P_y = [[Re P, -Im P], [Im P, Re P]].  Returns (P_y, Q_y,
    (cos, sin, sgn)).
    """
    k = partner.size
    idx = np.arange(k)
    first = idx <= partner
    cos = np.empty(k, dtype=int)
    cos[first] = np.arange(first.sum())
    cos[~first] = cos[partner[~first]]
    paired = idx < partner
    sin = cos.copy()
    sin[paired] = first.sum() + np.arange(paired.sum())
    sin[partner[paired]] = sin[paired]
    sgn = np.where(paired, 1, np.where(idx == partner, 0, -1))
    q_y = _gather(cov, partner, first, paired, 0.5)
    return _gather(p, partner, first, paired, 1.0), 0.5 * (q_y + q_y.T), (cos, sin, sgn)


def _spectrum(q: np.ndarray, name: str, vectors: bool = False) -> tuple:
    """The PSD contract of a transition covariance Q: one step's Q(dt) or a block's G.

    The eigen-problem is posed on Q's live rows, those whose variance Q_ii
    is not exactly zero.  Raises SolveFailed, naming the class, when an
    eigenvalue lies below -Q_PSD_TOL times the largest.  Returns (live, w, vecs): the
    live mask, the eigenvalues and, with vectors, the eigenvectors (else
    None, and only eigvalsh runs).
    """
    live = np.diag(q) != 0.0
    block = q[np.ix_(live, live)]
    w, vecs = np.linalg.eigh(block) if vectors else (np.linalg.eigvalsh(block), None)
    top = w.max(initial=0.0)
    if w.min(initial=0.0) < -Q_PSD_TOL * top:
        raise SolveFailed(f"{name}: transition covariance eigenvalue {w.min():.3e} "
                          f"below -{Q_PSD_TOL:g} x {top:.3e}")
    return live, w, vecs


def _factor(g: np.ndarray, name: str) -> np.ndarray:
    """F with F F^T = G, from the eigen-square-root of the PSD matrix G (_spectrum's contract).

    Eigenvalues below Q_RANK_CLIP times the largest are dropped, so F has
    one column per kept eigenvalue.  A coordinate whose variance G_ii is
    exactly zero gets an exactly zero row of F.
    """
    live, w, vecs = _spectrum(g, name, vectors=True)
    keep = w > Q_RANK_CLIP * w.max(initial=0.0)
    out = np.zeros((g.shape[0], int(keep.sum())))
    out[live] = vecs[:, keep] * np.sqrt(w[keep])
    return out


def _block_law(p: np.ndarray, q: np.ndarray, o: int, length: int) -> tuple:
    """The law of a block's outputs given its first state y_0: their mean map and covariance G.

    The state's first o coordinates are the observed ones, C y = y[:o].
    The block outputs every coordinate once: C y_i after each step i =
    1 .. length, then the other n - o coordinates of y_length, so its last
    n outputs are y_length, where y_i = P y_(i-1) + a step's Gaussian of
    covariance Q(dt) = q.  Their mean is [C P; ..; C P^length; P^length
    without its first o rows] y_0.  With S_i = Cov y_i from y_0 = 0, S_i =
    P S_(i-1) P^T + Q, and Cov(y_i, y_j) = P^(i-j) S_j for i >= j: G's
    observed blocks are C P^(i-j) S_j C^T, the tail's rows of P^(length-j)
    S_j C^T and of S_length.  One walk over the steps forms both; cross
    holds P^(i-j) S_j C^T for j <= i after step i, one column block per j.
    Only G's lower triangle is formed; the upper is its mirror.  With o =
    n and length = 1 the outputs are y_1 alone, mean P and G = Q.
    """
    n = p.shape[0]
    mean = np.empty((length * o + n - o, n))
    g = np.zeros((mean.shape[0], mean.shape[0]))
    cross = np.empty((n, length * o))
    power, s = p, q
    for i in range(length):
        if i:
            power, s = p @ power, p @ s @ p.T + q
        mean[i * o : (i + 1) * o] = power[:o]
        cross[:, : i * o] = p @ cross[:, : i * o]
        cross[:, i * o : (i + 1) * o] = s[:, :o]
        g[i * o : (i + 1) * o, : (i + 1) * o] = cross[:o, : (i + 1) * o]
    mean[length * o :] = power[o:]
    g[length * o :, : length * o] = cross[o:]
    g[length * o :, length * o :] = s[o:, o:]
    return mean, np.tril(g) + np.tril(g, -1).T


class _ClassPlan:
    """One class's exact transition on real coordinates, built once per run.

    reads holds (m, row, conj) of each mode read in the class, in watch
    order: mode m is the class's row, conjugated when conj.  The state is
    [x; delta] (_transition).  With a model, each read row carries its
    difference coordinate delta = x_row - l, and a self-conjugate class
    (2 residue = 0 mod r) carries the mirror row's too, so its state stays
    conjugate-symmetric; limits holds the (row, driven column, rate,
    coeff) of each, sorted by row, so the layout depends on the set of
    read rows alone, not on the order or the sign of the watched modes.

    A self-conjugate class is carried in the cos/sin coordinates of its
    conjugate pairs k <-> -k, so mode 0 is real and x_-k = conj x_k by
    construction; any other class is carried as [Re x; Im x], and its
    conjugate class is its mirror (_real_form on the pair of them).  One
    step is y <- P y plus a Gaussian of covariance Q(dt), whose PSD
    contract (_spectrum) is checked here.  The complex coordinates read
    after every step are every one with track_norm, else the read rows'
    differences (with a model) or the read rows themselves; the o real
    coordinates they hold are put first, in their order, and the others
    after them, in theirs, so C y = y[:o].  self.reads holds (m, c, s,
    sgn) of each read: mode m is obs[..., c] + 1j sgn obs[..., s] of the
    observed rows obs, with the conjugation folded into sgn, and obs[...,
    c] alone when sgn = 0 (a real coordinate).  weight, 1 for a real and 2
    for a paired observed row, sums |X|^2 over the class and its conjugate
    class.

    The engine advances blocks of `length` = B = clip(round(n / o), 1,
    MAX_BLOCK_STEPS) steps, at most n_steps, for n real coordinates, and
    reads only the block's B o + n - o outputs, every coordinate once: C
    y_i after each step i, then the other n - o coordinates of y_B, so y_B
    is the last n.  They are a mean map of y_0 plus a Gaussian of
    covariance G, both from _block_law.  f is G's eigen-factor (_factor),
    whose r = rank G <= B o + n - o columns are the normals a block draws;
    a plan that observes every row has B = 1 and o = n, so it outputs y_1
    alone, its G is Q(dt) and r = rank Q(dt).  map_t is [mean map | f]
    transposed, the right factor of the engine's (paths x [y_0; w])
    products.  The class runs in chunks of `chunk` steps, a whole number of
    blocks of about CHUNK_NORMALS normals, at most n_steps rounded up to
    whole blocks; the last block of a run may pass n_steps, and its extra
    outputs are dropped.
    """

    def __init__(self, blk: ClassBlock, n_cells: int, config: SolverConfig, reads: list,
                 model: LimitModel | None):
        n_x = blk.ks.size
        self_conjugate = (2 * blk.residue) % n_cells == 0
        rows = set() if model is None else {row for _, row, _ in reads}
        if self_conjugate:
            rows |= {n_x - 1 - row for row in rows}
        self.limits = []
        for row in sorted(rows):
            m = int(blk.ks[row])
            col = int(np.searchsorted(blk.driven, m))
            self.limits.append((row, col, model.mu * m * m, model.coeff(m)))
        delta = {row: n_x + i for i, (row, *_) in enumerate(self.limits)}
        p, cov = _transition(blk, config.dt, self.limits)
        k = p.shape[0]
        if self_conjugate:
            partner = np.array([n_x - 1 - i for i in range(n_x)]
                               + [delta[n_x - 1 - row] for row, *_ in self.limits])
        else:
            zero = np.zeros((k, k))
            p, cov = np.block([[p, zero], [zero, p.conj()]]), np.block([[cov, zero],
                                                                        [zero, cov.conj()]])
            partner = np.concatenate([np.arange(k, 2 * k), np.arange(k)])
        p_y, q_y, (cos, sin, sgn) = _real_form(p, cov, partner)
        self.n = p_y.shape[0]
        at = [(m, delta.get(row, row), conj) for m, row, conj in reads]  # complex coordinates
        seen = range(k) if config.track_norm else [i for _, i, _ in at]
        observed = np.isin(np.arange(self.n), np.concatenate([cos[seen], sin[seen]]))
        order = np.argsort(~observed, kind="stable")  # the o observed coordinates first
        self.p, q = p_y[np.ix_(order, order)], q_y[np.ix_(order, order)]
        _spectrum(q, f"class {blk.residue}")  # G's contract does not imply Q(dt)'s when B > 1
        slot = np.argsort(order)
        self.reads = [(m, int(slot[cos[i]]), int(slot[sin[i]]), int(-sgn[i] if conj else sgn[i]))
                      for m, i, conj in at]
        self.o = int(observed.sum())
        self.weight = np.where(np.isin(np.arange(self.o), slot[cos[sgn == 0]]), 1.0, 2.0)
        self.length = min(config.n_steps, int(np.clip(round(self.n / self.o), 1, MAX_BLOCK_STEPS)))
        mean, g = _block_law(self.p, q, self.o, self.length)
        self.f = _factor(g, f"class {blk.residue} ({self.length}-step block)")
        self.r = self.f.shape[1]
        blocks = min(max(1, CHUNK_NORMALS // max(self.r, 1)), -(-config.n_steps // self.length))
        self.chunk = blocks * self.length
        self.map_t = np.ascontiguousarray(np.hstack([mean, self.f]).T)


def _class_plans(c: Coefficients, spec: NoiseSpec, config: SolverConfig,
                 model: LimitModel | None = None) -> dict:
    """The evolved classes' blocks and plans: residue -> _ClassPlan, in residue order.

    The engine evolves residues 0 .. r/2 only; a watched mode m whose
    residue lies above r/2 is read as the conjugate of -m, at the row of
    -m in class r - residue (build_blocks keeps every class the mirror of
    its conjugate class).  With track_norm every class 0 .. r/2 is
    evolved, since |u|^2 reads them all, and OVERFLOW_GUARD sees the whole
    state; otherwise only the classes a watched mode is read in, since the
    others never feed them.  With a model, a mode is read at its difference
    coordinate x_m - l_m.  Only the evolved classes' blocks are built, and
    a class's plan depends on its own reads alone, not on which other
    classes are evolved.
    """
    r = cells(config.eps)
    sources = [-m if 2 * (m % r) > r else m for m in config.watch]
    evolved = range(r // 2 + 1) if config.track_norm else sorted({m % r for m in sources})
    op = build_blocks(c, spec, config, evolved)
    _watch_lookup(op, config.watch)  # raises if a watched mode lies outside the band
    reads = {}
    for m, (source, res, row) in zip(config.watch, _watch_lookup(op, sources)):
        reads.setdefault(res, []).append((m, row, source != m))
    return {res: _ClassPlan(op.blocks[res], r, config, reads.get(res, []), model)
            for res in evolved}


def _engine(plans: dict, config: SolverConfig, path_indices):
    """Advance the planned classes from u = 0 for one batch of paths; yield their observed rows.

    plans (from _class_plans) maps residue -> the class's shared block
    map and the count o of real rows, the state's first, to record after
    every step.  The classes run
    one after another, in residue order, each over the whole time grid in
    chunks of its own plan.chunk steps: per chunk, every path fills its
    row of the class's buffer in place with the normals of the chunk's
    blocks, plan.r per block, from its own stream (seed, path, residue).
    The run seeds the streams of all its (path, residue) keys in one vectorised pass
    (wiener_streams), about 1.5 us a stream, and builds each class's
    generators when the class starts.  Each block writes its length o +
    n - o outputs (_block_law) into obs, whose last n are the state it
    copies back into buf.  Yields (plan, first step,
    count, obs) once per chunk of `count` steps, obs of shape (paths,
    count, o); a block that passes n_steps has its extra rows
    dropped.  The buffers are reused, so
    consume obs before the next iteration.  Raises UnstableStep when a
    carried coordinate at a block boundary is non-finite or beyond
    OVERFLOW_GUARD.  Only one class's buffers are live at a time.

    The batch's paths sit in groups of PATH_GROUP rows, the last padded
    with rows of zeros, and each block is one (PATH_GROUP x [y_0; w])
    product per group (np.matmul with plan.map_t).  Every product has the
    same shape whatever the batch, so within one NumPy/BLAS build a
    class's values depend on (seed, path index, residue), the path's row
    in its group, the config and the class's own plan, not on which other
    classes are planned, which other paths share its group or batch, in
    what order batches run, or on which thread or core.  _map_paths starts
    every batch at a multiple of PATH_GROUP, so path p always sits in row
    p mod PATH_GROUP.  Batches share nothing writable, so _map_paths runs
    them on one thread per usable CPU.
    """
    n_paths = len(path_indices)
    rows = -(-n_paths // PATH_GROUP) * PATH_GROUP
    streams = wiener_streams(config.seed, path_indices, plans)  # one seeding pass per run
    for plan, gens in zip(plans.values(), streams):
        n, r, o, length = plan.n, plan.r, plan.o, plan.length
        # [state slot | the chunk's normals]: block b reads y_0 at b*r, over
        # normals already consumed, then its own r normals w_b
        buf = np.zeros((rows, n + plan.chunk // length * r))
        # [observed rows of each step | n - o spare]: block b writes its
        # length*o observed rows at b*length*o, then the rest of its last
        # state, which the next block overwrites once the state, its last n
        # outputs, is copied back into buf
        obs = np.empty((rows, plan.chunk * o + n - o))
        peak = np.empty((rows, n))
        for first in range(0, config.n_steps, plan.chunk):
            m = min(plan.chunk, config.n_steps - first)
            count = -(-m // length)  # blocks; the last may pass n_steps
            for pi, gen in enumerate(gens):
                gen.standard_normal(out=buf[pi, n : n + count * r])
            for b in range(count):
                x = buf[:, b * r : (b + 1) * r + n]
                block = obs[:, b * length * o : (b + 1) * length * o + n - o]
                for g in range(0, rows, PATH_GROUP):
                    np.matmul(x[g : g + PATH_GROUP], plan.map_t, out=block[g : g + PATH_GROUP])
                state = block[:, (length - 1) * o :]
                top = np.abs(state, out=peak).max(initial=0.0)
                if not np.isfinite(top) or top > OVERFLOW_GUARD:
                    raise UnstableStep(f"mode amplitude {top:.3e} beyond guard at "
                                       f"t = {(first + (b + 1) * length) * config.dt:g}")
                at = (b + 1) * r if b + 1 < count else 0
                buf[:, at : at + n] = state
            yield plan, first, m, obs[:n_paths, : m * o].reshape(n_paths, m, o)


def _workers() -> int:
    """The CPUs this process may run on: its affinity set, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_paths(c: Coefficients, spec: NoiseSpec, config: SolverConfig, n_paths: int,
               reduce_batch, model: LimitModel | None = None) -> None:
    """Run paths 0 .. n_paths - 1 in batches and hand each batch to reduce_batch.

    The evolved classes' blocks and plans (_class_plans) are built once
    here and shared by every batch.  The paths run in batches of
    min(PATH_BATCH, ceil(n_paths / workers)) rounded up to whole groups of
    PATH_GROUP, so every batch starts at a multiple of PATH_GROUP, mapped
    over a pool of min(workers, batches) threads (_workers counts the
    usable CPUs) that lives for this call.  reduce_batch(idx, chunks) gets
    the batch's path indices, a range, and the engine's chunks for them
    (_engine), each as (plan, first, count, obs); it owns its buffers and
    writes only the rows idx of its outputs, so batches share nothing
    writable.  The draws and the products release
    the GIL.  Path p's values depend on neither the worker count,
    PATH_BATCH nor n_paths (_engine), so within one NumPy/BLAS build every
    result is bit for bit the same on any number of cores.  An exception in any batch
    (UnstableStep, say) reaches the caller once every running batch has
    stopped; batches not yet started are cancelled.
    """
    plans = _class_plans(c, spec, config, model)

    def run_batch(idx: range) -> None:
        reduce_batch(idx, _engine(plans, config, idx))

    workers = _workers()
    size = max(1, min(PATH_BATCH, -(-n_paths // workers)))
    size = -(-size // PATH_GROUP) * PATH_GROUP
    batches = [range(a, min(a + size, n_paths)) for a in range(0, n_paths, size)]
    with ThreadPoolExecutor(min(workers, len(batches))) as pool:
        list(pool.map(run_batch, batches))


def simulate_paths(c: Coefficients, spec: NoiseSpec, config: SolverConfig,
                   n_paths: int) -> PathOutput:
    """Sample paths 0 .. n_paths - 1 of the multiscale equation from u = 0.

    Each evolved class is stepped by its exact transition (_class_plans):
    the classes the watched modes are read in, or with track_norm, which
    asks for |u|^2, every class with residue 0 .. r/2, observing every
    coordinate and counting each paired class twice, once for its
    conjugate.  The classes above r/2 are their conjugates, so the field
    is real by construction.  The paths run in
    batches on one thread per usable CPU (_map_paths); in each batch the
    classes run one after another (_engine), each filling its own watched
    modes and adding its share of |u|^2 at every recorded step.
    """
    n_rec = config.n_steps + 1
    trajs = {m: np.zeros((n_paths, n_rec), dtype=complex) for m in config.watch}
    norm2 = np.zeros((n_paths, n_rec)) if config.track_norm else None

    def reduce_batch(idx: range, chunks) -> None:
        for plan, first, count, obs in chunks:
            at = (slice(idx.start, idx.stop), slice(first + 1, first + 1 + count))
            for m, re, im, sgn in plan.reads:
                value = obs[..., re] + 1j * sgn * obs[..., im] if sgn else obs[..., re] + 0j
                trajs[m][at] = value
            if norm2 is not None:
                norm2[at] += obs ** 2 @ plan.weight

    _map_paths(c, spec, config, n_paths, reduce_batch)
    return PathOutput(times=np.arange(n_rec) * config.dt, modes=trajs, norm_squared=norm2)


def coupled_sup_errors(c: Coefficients, spec: NoiseSpec, config: SolverConfig,
                       model: LimitModel, s: float, n_paths: int) -> dict:
    """Per-path sup_t sum_m (1+m^2)^-s |<u_eps - u, e_m>|^2, coupled noise.

    u is the averaged limit, each mode the OU process
    du_m = -mu m^2 u_m dt + c_m dW_m driven by exactly the dW_m that u_eps
    consumes, so the difference measures the homogenisation error rather
    than a mismatch between schemes.  The engine carries u_eps - u of each
    watched mode as a difference coordinate and steps the pair by their
    exact joint Gaussian transition, so dt only sets the time grid the sup
    is taken on.  Only the classes of watched modes are evolved
    (_class_plans); a mode whose residue lies above r/2 is read from its
    conjugate -m, with |delta_-m| = |delta_m|.  A config with track_norm is
    refused: no |u|^2 is read here.  Returns path
    arrays under "full", and under "half_modes" and "coarse_grid" the same
    statistic with the mode sum cut at half the watch range and with the
    time grid thinned by two, so the proxy's truncation effects can be
    reported.

    The paths run in batches on one thread per usable CPU (_map_paths).
    The classes of a batch run one after another (_engine), each adding
    its weighted |delta_m|^2 into two (paths x n_steps) sums, over all
    watched modes and over the half range; the three sups are taken from
    them at the end, the coarse grid from the odd columns (states after an
    even step count).  The sums hold 2 x batch x n_steps floats per batch,
    one batch per thread at a time: 128 KB for 32 paths of 250 steps, 2 MB
    for 64 paths of 2,048 steps (eps = 1/32, t_final = 1).
    """
    if config.track_norm:
        raise ValueError("coupled_sup_errors reads no |u|^2; give a config without track_norm")
    require_driven(config.eps, spec.cutoff, config.watch)
    half_cut = max(abs(m) for m in config.watch) // 2
    sups = {key: np.zeros(n_paths) for key in ("full", "half_modes", "coarse_grid")}

    def reduce_batch(idx: range, chunks) -> None:
        full, half = np.zeros((2, len(idx), config.n_steps))
        for plan, first, count, obs in chunks:
            for m, re, im, sgn in plan.reads:
                power = obs[..., re] ** 2 + obs[..., im] ** 2 if sgn else obs[..., re] ** 2
                term = (1.0 + m * m) ** (-s) * power
                for total in (full, half) if abs(m) <= half_cut else (full,):
                    total[:, first : first + count] += term
        # column j holds the state after step j + 1: odd columns are the grid thinned by two
        for key, total in (("full", full), ("half_modes", half), ("coarse_grid", full[:, 1::2])):
            sups[key][idx.start : idx.stop] = total.max(axis=1, initial=0.0)

    _map_paths(c, spec, config, n_paths, reduce_batch, model)
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
    recorded step k is V gram(lam, V^-1 G, k dt, rate) V* (cell.gram),
    rate(s) = 2 atanh(dt s / 2) / dt, evaluated at once (_class_variances);
    with gram's default rate the same call is the continuous covariance.
    Only the classes of the requested modes are built (all without
    modes).  An empty or non-finite t_grid is rejected before any block is
    built; a requested mode outside the band raises ResolutionTooSmall.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("t_grid is empty: give at least one time in [0, t_final]")
    if not np.isfinite(t_grid).all():
        raise ValueError(f"t_grid holds non-finite times: {t_grid[~np.isfinite(t_grid)]}")
    if np.any(t_grid < 0) or np.any(t_grid > config.t_final + 1e-9):
        raise ValueError("t_grid must lie inside [0, t_final]")
    r = cells(config.eps)
    op = build_blocks(c, spec, config, None if modes is None else {int(m) % r for m in modes})
    rec_steps = np.unique(np.round(t_grid / config.dt).astype(int))
    times = rec_steps * config.dt

    if modes is None:
        modes = [k for blk in op.blocks.values() for k in blk.ks]
    class_rows, variances = {}, {}
    for _, res, row in _watch_lookup(op, [int(m) for m in modes]):
        class_rows.setdefault(res, []).append(row)
    for res, rows in sorted(class_rows.items()):
        blk = op.blocks[res]
        table = _class_variances(blk, config.dt, rec_steps, rows)
        for col, row in enumerate(rows):
            variances[int(blk.ks[row])] = table[:, col]
    return CovarianceTable(times=times, variances=variances)


def _class_variances(blk: ClassBlock, dt: float, steps: np.ndarray, rows: list) -> np.ndarray:
    """Trapezoid covariance iterates of one class, in closed form.

    The recursion (S_{k+1} - S_k) / dt = (A Sig + Sig A*) / 2 + G G*, with
    Sig = S_{k+1} + S_k and S_0 = 0, decouples entrywise in the basis
    A = V diag(lam) V^-1.  With W = V^-1 G and z_ij = dt s / 2, s = lam_i +
    conj lam_j, the entries e of V^-1 S_k V^-* follow e <- r e + dt
    (W W*)_ij / (1 - z), r = (1 + z) / (1 - z), whose sum is (W W*)_ij
    (r^k - 1) / s: S_k = V gram(lam, W, k dt, rate) V* (cell.gram) with
    rate(s) = log(r) / dt.  log r = 2 atanh(z) equals log1p(z) - log1p(-z)
    but stays accurate for small complex z, where NumPy's complex log1p
    loses digits; at z = -1, r = 0 (one step forgets S) where atanh is
    -inf, so log r is the log of the smallest normal float there, and
    r^k < 1e-307.

    The eigenbasis is cell.eigenbasis, checked before it is used.

    Returns Re(v_m S_k v_m*) for each step k (rows of the result) and each
    block row m in rows (columns).  Raises UnstableStep if the result is
    not finite, and SolveFailed if the last two recorded iterates miss one
    trapezoid step by more than COVARIANCE_RESIDUAL_TOL relative, which
    flags an inaccurate eigenbasis.
    """
    a = blk.matrix
    lam, vecs, inv = eigenbasis(a, f"class {blk.residue}")
    w = inv @ blk.noise_map

    def rate(s: np.ndarray) -> np.ndarray:
        z = 0.5 * dt * s
        one_step = z == -1
        return np.where(one_step, LOG_TINY, 2.0 * np.arctanh(np.where(one_step, 0.0, z))) / dt

    k_f = max(int(steps[-1]), 1)
    moments = gram(lam, w, np.concatenate([steps, [k_f - 1, k_f]]) * dt, rate)
    v_rows = vecs[rows]
    table = np.einsum("mi,kij,mj->km", v_rows, moments[:-2], v_rows.conj(), optimize=True).real
    s_prev, s_last = vecs @ moments[-2:] @ vecs.conj().T
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
