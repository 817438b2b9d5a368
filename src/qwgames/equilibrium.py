"""Strategy-space analysis: surfaces, best responses, stationary points,
Jacobian stability, and gradient learning dynamics.

All searches work through a payoff evaluator with the interface

    evaluate(theta_a, theta_b) -> (u_a, u_b)
    points(thetas)             -> (u_a, u_b, aux)   # (B,) arrays, aux by name

WalkEvaluator backs this with the quantum-walk simulation (averaged over
the walk's noise ensemble for noisy interactions, and built from two
single-walker walks when the interaction is inert).  Any object with these
two methods serves: the synthetic-game tests drive the same searches with an
analytic payoff function.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import WalkConfig, chunk_profiles, evolve_batch, evolve_singles
from .games import GameSpec, payoffs
from .hilbert import ValidationError, born, born_single, check_distributions, reach

PI = np.pi


@dataclass(frozen=True)
class StrategyGrid:
    """Uniform grid on [0, pi] including both endpoints."""

    n: int = 61

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError(f"grid needs at least 2 points, got {self.n}")

    @property
    def values(self) -> np.ndarray:
        return np.linspace(0.0, PI, self.n)

    @property
    def spacing(self) -> float:
        return PI / (self.n - 1)

    @property
    def profiles(self) -> np.ndarray:
        """Every (theta_A, theta_B) pair, shape (n*n, 2), theta_A-major."""
        ta, tb = np.meshgrid(self.values, self.values, indexing="ij")
        return np.column_stack([ta.ravel(), tb.ravel()])


@dataclass(frozen=True)
class PayoffSurface:
    grid: StrategyGrid
    u_a: np.ndarray  # (n, n), rows theta_A, cols theta_B
    u_b: np.ndarray
    aux: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StationaryPoint:
    theta_a: float
    theta_b: float
    u_a: float
    u_b: float
    status: str  # "refined" | "unrefined" | "boundary"
    grad_residual: tuple

    @property
    def interior(self) -> bool:
        return self.status != "boundary"


@dataclass(frozen=True)
class JacobianReport:
    matrix: np.ndarray  # 2x2
    eigenvalues: np.ndarray  # complex pair
    verdict: str  # "stable" | "unstable" | "marginal"
    spectral_radius: float  # rho(I + eta J) for the eta used
    eta: float
    boundary_caveat: bool

    @property
    def stable(self) -> bool:
        return self.verdict == "stable"


@dataclass(frozen=True)
class LearnResult:
    trajectory: np.ndarray  # (k+1, 2) iterates including the start
    payoffs: np.ndarray  # (k+1, 2)
    converged: bool
    diverged: bool
    clamp_events: int
    message: str


def distributions(walk: WalkConfig, thetas: np.ndarray) -> np.ndarray:
    """P(x_A, x_B) per profile of one noise realization on the n `reach`
    sites of each walker, shape (B, n, n); P is zero on the rest of the
    lattice.  Each cache-sized chunk is reduced and validated as soon as it
    is evolved, so the amplitudes of the whole batch never exist at once."""
    geom = walk.geometry
    n = len(range(geom.size)[reach(geom, walk.steps)])
    size = chunk_profiles(geom, walk.steps)
    probs = np.empty((len(thetas), n, n))
    for lo in range(0, len(thetas), size):
        block = probs[lo : lo + size]
        block[:] = born(evolve_batch(walk, thetas[lo : lo + size]))
        check_distributions(block)
    return probs


def product_distributions(walk: WalkConfig, thetas: np.ndarray) -> np.ndarray:
    """P = p_A (x) p_B per profile on the `reach` sites, shape (B, n, n): the
    walk without its interaction, from one single-walker walk per distinct
    angle of each player, or of both players when their coins are equal.
    When the interaction is inert this is `distributions` up to rounding, at
    the cost of one single walk per distinct angle instead of one joint walk
    per profile.  A walker's row does not depend on the batch it runs in, so
    sharing the walks changes no bit."""
    thetas = np.asarray(thetas, dtype=float)
    window = reach(walk.geometry, walk.steps)

    def walkers(columns: list, coin) -> list:
        """p(x) of each listed player's walker at each profile's angle, (B, n)."""
        angles, inverse = np.unique(thetas[:, columns], return_inverse=True)
        amps = evolve_singles(walk.geometry, walk.steps, angles, coin)
        p = born_single(amps[:, window])
        return [p[k] for k in inverse.reshape(len(thetas), len(columns)).T]

    if walk.coin_a == walk.coin_b:
        p_a, p_b = walkers([0, 1], walk.coin_a)
    else:
        (p_a,), (p_b,) = walkers([0], walk.coin_a), walkers([1], walk.coin_b)
    probs = p_a[:, :, None] * p_b[:, None, :]
    check_distributions(probs)
    return probs


def realizations(walk: WalkConfig) -> list[WalkConfig]:
    """The walk's noise realizations, seeded walk.seed, walk.seed+1, ...; a
    deterministic walk is its own one realization, not a copy."""
    if not walk.interaction.noisy:
        return [walk]
    return [replace(walk, seed=walk.seed + k) for k in range(walk.ensemble)]


def _ensemble_points(walk: WalkConfig, games, thetas) -> list[tuple]:
    """`points(thetas)` of each game on one walk: every noise realization is
    evolved once, reduced for each game, and dropped before the next."""
    thetas = np.asarray(thetas, dtype=float)
    per_walk = []  # [realization][game] -> (u_a, u_b, aux)
    for real in realizations(walk):
        if real.interaction.inert:
            probs = product_distributions(real, thetas)
            per_walk.append([payoffs(probs, real.geometry, game) for game in games])
        else:
            per_walk.append(_joint_points(real, thetas, games))
    return [_ensemble_mean([cols[k] for cols in per_walk]) for k in range(len(games))]


def _mirrors(walk: WalkConfig, thetas: np.ndarray):
    """The rows with theta_A > theta_B whose mirror (theta_B, theta_A) is in
    the batch, and the row of each mirror; empty unless the walkers' coins
    are equal.

    Every phase table and coupling of the catalog is unchanged by swapping
    the walkers (tests/test_interactions.py pins this), so with equal coins
    P(theta_B, theta_A) is P(theta_A, theta_B) transposed.  Only a mirror in
    the same batch is reused, so every other row is evolved as given and
    keeps its bits."""
    if thetas.ndim != 2 or thetas.shape[1] != 2 or walk.coin_a != walk.coin_b:
        return np.empty((2, 0), dtype=int)
    rows = thetas.tolist()
    lower = {(a, b): k for k, (a, b) in enumerate(rows) if a < b}
    pairs = [(k, lower[b, a]) for k, (a, b) in enumerate(rows) if a > b and (b, a) in lower]
    return np.array(pairs, dtype=int).reshape(-1, 2).T


def _joint_points(walk: WalkConfig, thetas: np.ndarray, games) -> list[tuple]:
    """(u_a, u_b, aux) of each game on the joint kernel.  A row with a mirror
    in the batch is not evolved: its columns are reduced from the mirror's
    transposed P, a view of the evolved stack."""
    geom = walk.geometry
    mirrored, partner = _mirrors(walk, thetas)
    if not mirrored.size:
        probs = distributions(walk, thetas)
        return [payoffs(probs, geom, game) for game in games]
    evolved = np.ones(len(thetas), dtype=bool)
    evolved[mirrored] = False
    probs = distributions(walk, thetas[evolved])
    slot = (np.cumsum(evolved) - 1)[partner]  # each mirror's row in probs

    def scatter(direct, swapped):
        column = np.empty(len(thetas))
        column[evolved], column[mirrored] = direct, swapped[slot]
        return column

    per_game = []
    for game in games:
        (u_a, u_b, aux), (s_a, s_b, s_aux) = (
            payoffs(p, geom, game) for p in (probs, probs.transpose(0, 2, 1))
        )
        per_game.append((
            scatter(u_a, s_a), scatter(u_b, s_b),
            {key: scatter(aux[key], s_aux[key]) for key in aux},
        ))
    return per_game


def _ensemble_mean(per_walk: list[tuple]) -> tuple:
    """The (u_a, u_b, aux) columns averaged over the realizations."""
    if len(per_walk) == 1:
        # taken as is, because a sum would turn -0.0 into 0.0
        return per_walk[0]
    # (profile, u_A | u_B | aux..., realization), averaged over the ensemble
    table = np.stack(
        [np.column_stack([u_a, u_b, *aux.values()]) for u_a, u_b, aux in per_walk],
        axis=-1,
    ).mean(axis=-1)
    return table[:, 0], table[:, 1], dict(zip(per_walk[0][2], table[:, 2:].T))


class WalkEvaluator:
    """Payoff of the T-step walk as a function of the strategy pair.

    For a noisy interaction the payoff is the mean over the config's
    `ensemble` realizations, seeded config.seed, config.seed+1, ...; the
    same realizations serve every strategy pair, so finite differences see
    common random numbers.  A deterministic walk is its own one realization.
    A walk whose interaction is inert takes the product path,
    `product_distributions`; one with equal coins evolves a profile once
    when its mirror is in the same batch (`_mirrors`).
    """

    def __init__(self, config: WalkConfig, game: GameSpec):
        self.config = config
        self.game = game

    def points(self, thetas) -> tuple[np.ndarray, np.ndarray, dict]:
        """u_A, u_B and the named diagnostics of each profile, each (B,)."""
        return _ensemble_points(self.config, [self.game], thetas)[0]

    def evaluate(self, theta_a: float, theta_b: float) -> tuple[float, float]:
        u_a, u_b, _ = self.points([[theta_a, theta_b]])
        return float(u_a[0]), float(u_b[0])


def _as_surface(grid: StrategyGrid, points: tuple) -> PayoffSurface:
    """The (u_a, u_b, aux) columns over grid.profiles as (n, n) surfaces."""
    shape = (grid.n, grid.n)
    u_a, u_b, aux = points
    return PayoffSurface(
        grid, u_a.reshape(shape), u_b.reshape(shape),
        {key: v.reshape(shape) for key, v in aux.items()},
    )


def surface_from_evaluator(evaluator, grid: StrategyGrid) -> PayoffSurface:
    return _as_surface(grid, evaluator.points(grid.profiles))


def shared_surfaces(walk: WalkConfig, games, grid: StrategyGrid) -> list[PayoffSurface]:
    """The payoff surface of each game on one walk, bitwise each game's
    `surface_from_evaluator`, from one evolution of the grid per noise
    realization."""
    return [_as_surface(grid, pts) for pts in _ensemble_points(walk, games, grid.profiles)]


TIE_TOL = 1e-9


def _best_response_masks(surface: PayoffSurface, tol: float):
    """(n, n) masks of the best responses, ties within tol kept: mask_a[i, j]
    when row i maximizes u_a in column j, mask_b[i, j] when column j
    maximizes u_b in row i."""
    u_a, u_b = surface.u_a, surface.u_b
    return u_a >= u_a.max(axis=0) - tol, u_b >= u_b.max(axis=1, keepdims=True) - tol


def best_responses(surface: PayoffSurface, tol: float = TIE_TOL):
    """Argmax sets: br_a[j] = rows maximizing u_a in column j (ties kept),
    br_b[i] = columns maximizing u_b in row i."""
    mask_a, mask_b = _best_response_masks(surface, tol)
    return [np.flatnonzero(col) for col in mask_a.T], [np.flatnonzero(row) for row in mask_b]


BOUNDARY_TOL = 1e-6


# Finite-difference steps, and the tolerances and budgets of the searches
GRAD_H = 1e-3  # step of every gradient: residuals, learning, vector fields
GRAD_TOL = 1e-3  # a point whose gradient is below this in both axes is stationary
JACOBIAN_H = 1e-2
CURVATURE_TOL = 1e-8  # Jacobian eigenvalues below this in size count as zero
MAX_ROUNDS = 200  # refinement rounds of find_stationary
MAX_CANDIDATES = 64  # best-response intersections find_stationary refines

# 3-point stencils that stay inside [0, pi], one row each: forward (within h
# of 0), central, backward (within h of pi).  Row k probes at offsets
# _OFFSETS[k] * h, whose zero sits at index k; _SECOND serves every row.
_OFFSETS = np.array([[0.0, 1.0, 2.0], [-1.0, 0.0, 1.0], [-2.0, -1.0, 0.0]])
_FIRST = np.array([[-1.5, 2.0, -0.5], [-0.5, 0.0, 0.5], [0.5, -2.0, 1.5]])
_SECOND = np.array([1.0, -2.0, 1.0])


def _stencil(theta: np.ndarray, h: float):
    """Stencil row, probe offsets and first-derivative weights of each
    angle, shaped theta.shape, (*theta.shape, 3) and (*theta.shape, 3)."""
    row = np.where(theta - h < 0.0, 0, np.where(theta + h > PI, 2, 1))
    return row, _OFFSETS[row] * h, _FIRST[row] / h


def gradients(evaluator, pts) -> np.ndarray:
    """Own-payoff gradients (dU_A/dtheta_A, dU_B/dtheta_B) at each point.

    One-sided stencils are used within GRAD_H of the domain boundary.  Every
    probe with a nonzero weight goes through one batched call.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    _, offs, w1 = _stencil(pts, GRAD_H)
    # probes[k, i, j] moves point k by offs[k, i, j] along player i's angle
    probes = np.broadcast_to(pts[:, None, None, :], (len(pts), 2, 3, 2)).copy()
    probes[:, 0, :, 0] += offs[:, 0]
    probes[:, 1, :, 1] += offs[:, 1]
    used = w1 != 0.0
    u_a, u_b, _ = evaluator.points(probes[used])
    u = np.zeros(w1.shape)
    u[used] = np.where(np.nonzero(used)[1] == 0, u_a, u_b)
    return np.vecdot(u, w1)


def vector_field(evaluator, grid: StrategyGrid):
    """Gradient pairs over the whole grid, shaped (n, n) each."""
    g = gradients(evaluator, grid.profiles)
    n = grid.n
    return g[:, 0].reshape(n, n), g[:, 1].reshape(n, n)


def _golden_max(f, lo, hi, tol: float = 1e-6) -> np.ndarray:
    """Golden-section maximization of unimodal functions on [lo[k], hi[k]],
    one lane per interval.  f(t, lanes) returns the values at probes t of
    lanes `lanes`; each round probes every live lane through one call.  Each
    lane runs the scalar recurrence, so it ends where a search of its own would."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    lanes = np.arange(len(a))
    fc, fd = np.split(f(np.concatenate([c, d]), np.concatenate([lanes, lanes])), 2)
    live = lanes[b - a > tol]
    while live.size:
        left = fc[live] >= fd[live]
        k, m = live[left], live[~left]
        b[k], d[k], fd[k] = d[k], c[k], fc[k]
        c[k] = b[k] - invphi * (b[k] - a[k])
        a[m], c[m], fc[m] = c[m], d[m], fd[m]
        d[m] = a[m] + invphi * (b[m] - a[m])
        probes = f(np.where(left, c[live], d[live]), live)
        fc[k], fd[m] = probes[left], probes[~left]
        live = live[b[live] - a[live] > tol]
    return 0.5 * (a + b)


def _classify_position(ta: float, tb: float) -> bool:
    return (
        min(ta, PI - ta) < BOUNDARY_TOL or min(tb, PI - tb) < BOUNDARY_TOL
    )


def find_stationary(surface: PayoffSurface, evaluator) -> list[StationaryPoint]:
    """Best-response intersections on the grid, polished by alternating
    coordinate ascent with golden-section line searches.

    All candidates are refined in lockstep: every probe round of the
    golden searches and every gradient check is one `points` call over
    the candidates still moving, each on the iterates a lone refinement takes.

    Only the first MAX_CANDIDATES intersections, column by column, are
    refined, with a warning when more were found.

    Non-convergent refinements are reported with status "unrefined"; points
    that end up on the domain boundary are flagged "boundary" and exempt from
    the interior first-order residual bound.
    """
    vals = surface.grid.values
    mask_a, mask_b = _best_response_masks(surface, TIE_TOL)
    # best-response intersections, read column by column (theta_B-major)
    cols, rows = np.argwhere((mask_a & mask_b).T).T
    if len(cols) > MAX_CANDIDATES:
        warnings.warn(
            f"{len(cols)} best-response intersections, refining the first {MAX_CANDIDATES}",
            stacklevel=2,
        )
    cols, rows = cols[:MAX_CANDIDATES], rows[:MAX_CANDIDATES]
    if not cols.size:
        return []
    w = surface.grid.spacing
    ta, tb = vals[rows], vals[cols]
    grad = np.full((len(cols), 2), np.inf)
    live = np.arange(len(cols))  # lanes still refining
    for _ in range(MAX_ROUNDS):
        ta[live] = _golden_max(
            lambda t, k: evaluator.points(np.column_stack([t, tb[live[k]]]))[0],
            np.maximum(0.0, ta[live] - w),
            np.minimum(PI, ta[live] + w),
        )
        tb[live] = _golden_max(
            lambda t, k: evaluator.points(np.column_stack([ta[live[k]], t]))[1],
            np.maximum(0.0, tb[live] - w),
            np.minimum(PI, tb[live] + w),
        )
        grad[live] = gradients(evaluator, np.column_stack([ta[live], tb[live]]))
        live = live[~np.all(np.abs(grad[live]) < GRAD_TOL, axis=1)]
        if not live.size:
            break
    u_a, u_b, _ = evaluator.points(np.column_stack([ta, tb]))
    results = [
        StationaryPoint(
            float(ta[k]), float(tb[k]), float(u_a[k]), float(u_b[k]),
            "boundary" if _classify_position(ta[k], tb[k]) else
            ("refined" if np.all(np.abs(grad[k]) < GRAD_TOL) else "unrefined"),
            (float(grad[k, 0]), float(grad[k, 1])),
        )
        for k in range(len(cols))
    ]

    # merge near-duplicates, keeping the smallest gradient residual
    merged: list[StationaryPoint] = []
    for pt in sorted(results, key=lambda p: max(np.abs(p.grad_residual))):
        if all(
            np.hypot(pt.theta_a - q.theta_a, pt.theta_b - q.theta_b) > 5e-3
            for q in merged
        ):
            merged.append(pt)
    return merged


def jacobian_at(point, evaluator, eta: float = 0.05) -> JacobianReport:
    """Jacobian of the gradient dynamics at the strategy pair
    point = (theta_A, theta_B), from a 9-point second-difference stencil,
    with eigenvalue stability classification.

    Points within JACOBIAN_H of the boundary fall back to one-sided stencils
    and carry a caveat flag.
    """
    ta, tb = float(point[0]), float(point[1])
    (row_a, row_b), (offs_a, offs_b), (w1a, w1b) = _stencil(np.array([ta, tb]), JACOBIAN_H)
    w2 = _SECOND / JACOBIAN_H**2
    caveat = bool(row_a != 1 or row_b != 1)  # a one-sided stencil

    pts = np.array([[ta + oa, tb + ob] for oa in offs_a for ob in offs_b])
    # columns of a (9, 2) array: contiguous ones change the sums' last bits
    u = np.column_stack(evaluator.points(pts)[:2])
    u_a = u[:, 0].reshape(3, 3)
    u_b = u[:, 1].reshape(3, 3)
    # u_x[i, j] samples (ta + offs_a[i], tb + offs_b[j]); row k centres at k
    j11 = float(w2 @ u_a[:, row_b])
    j22 = float(w2 @ u_b[row_a, :])
    j12 = float(w1a @ u_a @ w1b)
    j21 = float(w1a @ u_b @ w1b)
    J = np.array([[j11, j12], [j21, j22]])

    eigs = np.linalg.eigvals(J)
    if np.all(eigs.real < -CURVATURE_TOL):
        verdict = "stable"
    elif np.any(eigs.real > CURVATURE_TOL):
        verdict = "unstable"
    else:
        verdict = "marginal"
    # I + eta J has the eigenvalues 1 + eta lambda; inf when eta overflows them
    with np.errstate(over="ignore"):
        rho = float(np.max(np.abs(1.0 + eta * eigs)))
    return JacobianReport(J, eigs, verdict, rho, eta, caveat)


def learn(evaluator, start, eta: float = 0.05, max_iters: int = 1000) -> LearnResult:
    """Simultaneous gradient ascent theta_i <- theta_i + eta dU_i/dtheta_i,
    clamped to [0, pi], with oscillation-divergence detection."""
    ta, tb = float(start[0]), float(start[1])
    traj = [(ta, tb)]
    pays = [evaluator.evaluate(ta, tb)]
    clamps = 0
    deltas: list[np.ndarray] = []
    converged = False
    diverged = False
    message = "max_iters reached"
    for _ in range(max_iters):
        g = gradients(evaluator, [[ta, tb]])[0]
        if abs(g[0]) < GRAD_TOL and abs(g[1]) < GRAD_TOL:
            converged = True
            message = "gradient below tolerance"
            break
        na = ta + eta * g[0]
        nb = tb + eta * g[1]
        ca, cb = min(max(na, 0.0), PI), min(max(nb, 0.0), PI)
        if ca != na or cb != nb:
            clamps += 1
        deltas.append(np.array([ca - ta, cb - tb]))
        ta, tb = ca, cb
        traj.append((ta, tb))
        pays.append(evaluator.evaluate(ta, tb))
        if _oscillation_growing(deltas):
            diverged = True
            message = "divergence: growing oscillation over 20-step window"
            break
    return LearnResult(
        np.array(traj), np.array(pays), converged, diverged, clamps, message
    )


def _oscillation_growing(deltas, window: int = 20) -> bool:
    """Growing sign-alternating iterate steps over the trailing window."""
    if len(deltas) < 2 * window:
        return False
    recent = np.array(deltas[-window:])
    previous = np.array(deltas[-2 * window : -window])
    flips = np.mean(np.sign(recent[1:]) * np.sign(recent[:-1]) < 0)
    amp_recent = np.mean(np.abs(recent))
    amp_prev = np.mean(np.abs(previous))
    return flips > 0.8 and amp_recent > 1.5 * amp_prev and amp_recent > 1e-8
