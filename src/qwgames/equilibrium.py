"""Strategy-space analysis: surfaces, best responses, stationary points,
Jacobian stability, and gradient learning dynamics.

All searches work through a payoff evaluator with the interface

    evaluate(theta_a, theta_b) -> (u_a, u_b)
    points(thetas)             -> list[PayoffPoint]   # batched

WalkEvaluator backs this with the quantum-walk simulation (optionally
ensemble-averaged over seeds for noisy interactions); FunctionEvaluator wraps
a plain callable, which is how the synthetic-game tests exercise the same
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import WalkConfig, chunk_profiles, evolve_batch
from .games import GameSpec, PayoffPoint, payoffs
from .hilbert import ValidationError, check_distributions
from .interactions import InteractionKind

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


class WalkEvaluator:
    """Payoff of the T-step walk as a function of the strategy pair.

    For noisy interactions the payoff is averaged over `ensemble` seeds
    (seed, seed+1, ...); the same seed schedule is reused for every strategy
    pair, so finite differences see common random numbers.
    """

    def __init__(self, config: WalkConfig, game: GameSpec, seed: int = 0, ensemble: int = 1):
        if ensemble < 1:
            raise ValidationError(f"ensemble must be >= 1, got {ensemble}")
        noisy = (
            config.interaction.kind is InteractionKind.NOISY_COLLISION
            and config.interaction.noise_sigma > 0
        )
        self.config = config
        self.game = game
        self.seeds = list(range(seed, seed + ensemble)) if noisy else [seed]

    def distributions(self, thetas: np.ndarray, seed: int) -> np.ndarray:
        """P(x_A, x_B) per profile, shape (B, L, L).  Each cache-sized chunk
        is reduced and validated as soon as it is evolved, so the amplitudes
        of the whole batch never exist at once."""
        geom = self.config.geometry
        size = chunk_profiles(geom)
        probs = np.empty((len(thetas), geom.size, geom.size))
        for lo in range(0, len(thetas), size):
            amps = evolve_batch(self.config, thetas[lo : lo + size], seed)
            block = probs[lo : lo + size]
            block[:] = np.sum(np.abs(amps) ** 2, axis=(2, 4))
            check_distributions(block)
        return probs

    def points(self, thetas) -> list[PayoffPoint]:
        thetas = np.asarray(thetas, dtype=float)
        geom = self.config.geometry
        per_seed = [payoffs(self.distributions(thetas, s), geom, self.game) for s in self.seeds]
        keys = list(per_seed[0][2])
        # (profile, u_A | u_B | aux..., seed), averaged over the seed ensemble;
        # one seed is taken as is, because a sum would turn -0.0 into 0.0
        table = np.stack(
            [np.column_stack([u_a, u_b, *aux.values()]) for u_a, u_b, aux in per_seed],
            axis=-1,
        )
        rows = table[..., 0] if len(per_seed) == 1 else table.mean(axis=-1)
        return [PayoffPoint(r[0], r[1], dict(zip(keys, r[2:]))) for r in rows.tolist()]

    def evaluate_many(self, thetas) -> np.ndarray:
        pts = self.points(thetas)
        return np.array([[p.u_a, p.u_b] for p in pts])

    def evaluate(self, theta_a: float, theta_b: float) -> tuple[float, float]:
        u = self.evaluate_many([[theta_a, theta_b]])[0]
        return float(u[0]), float(u[1])


class FunctionEvaluator:
    """Adapter for an analytic payoff function (theta_a, theta_b) -> (u_a, u_b)."""

    def __init__(self, fn):
        self.fn = fn

    def evaluate(self, theta_a, theta_b):
        u_a, u_b = self.fn(theta_a, theta_b)
        return float(u_a), float(u_b)

    def evaluate_many(self, thetas) -> np.ndarray:
        return np.array([self.evaluate(ta, tb) for ta, tb in np.asarray(thetas)])

    def points(self, thetas) -> list[PayoffPoint]:
        return [PayoffPoint(u[0], u[1]) for u in self.evaluate_many(thetas)]


def surface_from_evaluator(evaluator, grid: StrategyGrid) -> PayoffSurface:
    vals = grid.values
    n = grid.n
    ta, tb = np.meshgrid(vals, vals, indexing="ij")
    thetas = np.column_stack([ta.ravel(), tb.ravel()])
    pts = evaluator.points(thetas)
    u_a = np.array([p.u_a for p in pts]).reshape(n, n)
    u_b = np.array([p.u_b for p in pts]).reshape(n, n)
    aux = {}
    if pts[0].aux:
        for key in pts[0].aux:
            aux[key] = np.array([p.aux[key] for p in pts]).reshape(n, n)
    return PayoffSurface(grid, u_a, u_b, aux)


def sweep_surface(
    config: WalkConfig,
    game: GameSpec,
    grid: StrategyGrid,
    seed: int = 0,
    ensemble: int = 1,
) -> PayoffSurface:
    """Payoff of both players at every grid strategy pair (deterministic in seed)."""
    return surface_from_evaluator(WalkEvaluator(config, game, seed, ensemble), grid)


TIE_TOL = 1e-9


def best_responses(surface: PayoffSurface, tol: float = TIE_TOL):
    """Argmax sets: br_a[j] = rows maximizing u_a in column j (ties kept),
    br_b[i] = columns maximizing u_b in row i."""
    br_a = []
    for j in range(surface.grid.n):
        col = surface.u_a[:, j]
        br_a.append(np.flatnonzero(col >= col.max() - tol))
    br_b = []
    for i in range(surface.grid.n):
        row = surface.u_b[i, :]
        br_b.append(np.flatnonzero(row >= row.max() - tol))
    return br_a, br_b


BOUNDARY_TOL = 1e-6


def _stencil_1d(p: float, h: float, lo: float = 0.0, hi: float = PI):
    """First/second derivative stencils that stay inside [lo, hi].

    Returns (offsets, w1, w2): offsets to sample at, first-derivative weights,
    second-derivative weights.
    """
    if p - h < lo:
        offs = np.array([0.0, h, 2 * h])
        w1 = np.array([-1.5, 2.0, -0.5]) / h
    elif p + h > hi:
        offs = np.array([-2 * h, -h, 0.0])
        w1 = np.array([0.5, -2.0, 1.5]) / h
    else:
        offs = np.array([-h, 0.0, h])
        w1 = np.array([-0.5, 0.0, 0.5]) / h
    w2 = np.array([1.0, -2.0, 1.0]) / h**2
    return offs, w1, w2


def gradients(evaluator, pts, h: float = 1e-3) -> np.ndarray:
    """Own-payoff gradients (dU_A/dtheta_A, dU_B/dtheta_B) at each point.

    One-sided stencils are used within h of the domain boundary.  All
    evaluations go through one batched call.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    evals = []
    plans = []
    for ta, tb in pts:
        offs_a, w1a, _ = _stencil_1d(ta, h)
        offs_b, w1b, _ = _stencil_1d(tb, h)
        ia = [len(evals) + k for k in range(3)]
        evals.extend([[ta + o, tb] for o in offs_a])
        ib = [len(evals) + k for k in range(3)]
        evals.extend([[ta, tb + o] for o in offs_b])
        plans.append((ia, w1a, ib, w1b))
    u = evaluator.evaluate_many(np.array(evals))
    out = np.empty_like(pts)
    for k, (ia, w1a, ib, w1b) in enumerate(plans):
        out[k, 0] = float(w1a @ u[ia, 0])
        out[k, 1] = float(w1b @ u[ib, 1])
    return out


def vector_field(evaluator, grid: StrategyGrid, h: float = 1e-3):
    """Gradient pairs over the whole grid, shaped (n, n) each."""
    vals = grid.values
    ta, tb = np.meshgrid(vals, vals, indexing="ij")
    pts = np.column_stack([ta.ravel(), tb.ravel()])
    g = gradients(evaluator, pts, h)
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


def find_stationary(
    surface: PayoffSurface,
    evaluator,
    refine: bool = True,
    grad_h: float = 1e-3,
    grad_tol: float = 1e-3,
    max_iters: int = 200,
    max_candidates: int = 64,
) -> list[StationaryPoint]:
    """Best-response intersections on the grid, optionally polished by
    alternating coordinate ascent with golden-section line searches.

    All candidates are refined in lockstep: every probe round of the
    golden searches and every gradient check is one `evaluate_many` call over
    the candidates still moving, each on the iterates a lone refinement takes.

    Non-convergent refinements are reported with status "unrefined"; points
    that end up on the domain boundary are flagged "boundary" and exempt from
    the interior first-order residual bound.
    """
    vals = surface.grid.values
    br_a, br_b = best_responses(surface)
    candidates = []
    for j in range(surface.grid.n):
        for i in br_a[j]:
            if j in br_b[i]:
                candidates.append((i, j))
            if len(candidates) >= max_candidates:
                break
        if len(candidates) >= max_candidates:
            break

    if not candidates:
        return []
    w = surface.grid.spacing
    ta, tb = vals[np.array(candidates).T]
    grad = np.full((len(candidates), 2), np.inf)
    # lanes still refining; refine=False takes one residual check instead
    live = np.arange(len(candidates))
    for _ in range(max_iters if refine else 1):
        if refine:
            ta[live] = _golden_max(
                lambda t, k: evaluator.evaluate_many(np.column_stack([t, tb[live[k]]]))[:, 0],
                np.maximum(0.0, ta[live] - w),
                np.minimum(PI, ta[live] + w),
            )
            tb[live] = _golden_max(
                lambda t, k: evaluator.evaluate_many(np.column_stack([ta[live[k]], t]))[:, 1],
                np.maximum(0.0, tb[live] - w),
                np.minimum(PI, tb[live] + w),
            )
        grad[live] = gradients(evaluator, np.column_stack([ta[live], tb[live]]), grad_h)
        live = live[~np.all(np.abs(grad[live]) < grad_tol, axis=1)]
        if not live.size:
            break
    u = evaluator.evaluate_many(np.column_stack([ta, tb]))
    results = [
        StationaryPoint(
            float(ta[k]), float(tb[k]), float(u[k, 0]), float(u[k, 1]),
            "boundary" if _classify_position(ta[k], tb[k]) else
            ("refined" if np.all(np.abs(grad[k]) < grad_tol) else "unrefined"),
            (float(grad[k, 0]), float(grad[k, 1])),
        )
        for k in range(len(candidates))
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


def jacobian_at(
    point,
    evaluator,
    h: float = 1e-2,
    eta: float = 0.05,
    curvature_tol: float = 1e-8,
) -> JacobianReport:
    """Jacobian of the gradient dynamics at a strategy pair, from a 9-point
    second-difference stencil, with eigenvalue stability classification.

    Points within h of the boundary fall back to one-sided stencils and carry
    a caveat flag.
    """
    if isinstance(point, StationaryPoint):
        ta, tb = point.theta_a, point.theta_b
    else:
        ta, tb = float(point[0]), float(point[1])
    offs_a, w1a, w2a = _stencil_1d(ta, h)
    offs_b, w1b, w2b = _stencil_1d(tb, h)
    caveat = bool(ta - h < 0 or ta + h > PI or tb - h < 0 or tb + h > PI)

    pts = np.array([[ta + oa, tb + ob] for oa in offs_a for ob in offs_b])
    u = evaluator.evaluate_many(pts)
    u_a = u[:, 0].reshape(3, 3)
    u_b = u[:, 1].reshape(3, 3)
    # u_x[i, j] samples (ta + offs_a[i], tb + offs_b[j])
    center_b = int(np.argmin(np.abs(offs_b)))
    center_a = int(np.argmin(np.abs(offs_a)))
    j11 = float(w2a @ u_a[:, center_b])
    j22 = float(w2b @ u_b[center_a, :])
    j12 = float(w1a @ u_a @ w1b)
    j21 = float(w1a @ u_b @ w1b)
    J = np.array([[j11, j12], [j21, j22]])

    eigs = np.linalg.eigvals(J)
    if np.max(np.abs(eigs)) < curvature_tol:
        verdict = "marginal"
    elif np.all(eigs.real < -curvature_tol):
        verdict = "stable"
    elif np.any(eigs.real > curvature_tol):
        verdict = "unstable"
    else:
        verdict = "marginal"
    rho = float(np.max(np.abs(np.linalg.eigvals(np.eye(2) + eta * J))))
    return JacobianReport(J, eigs, verdict, rho, eta, caveat)


def learn(
    evaluator,
    start,
    eta: float = 0.05,
    grad_h: float = 1e-3,
    grad_tol: float = 1e-3,
    max_iters: int = 1000,
) -> LearnResult:
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
        g = gradients(evaluator, [[ta, tb]], grad_h)[0]
        if abs(g[0]) < grad_tol and abs(g[1]) < grad_tol:
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
