"""Strategy-space analysis: surfaces, best responses, stationary points,
Jacobian stability, and gradient learning dynamics.

All searches work through a payoff evaluator with the interface

    evaluate(theta_a, theta_b) -> (u_a, u_b)
    evaluate_many(thetas)      -> (B, 2) array of (u_a, u_b)
    points(thetas)             -> (u_a, u_b, aux)   # (B,) arrays, aux by name

WalkEvaluator backs this with the quantum-walk simulation (averaged over
the walk's noise ensemble for noisy interactions); FunctionEvaluator wraps
a plain callable, which is how the synthetic-game tests exercise the same
machinery.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import WalkConfig, chunk_profiles, evolve_batch
from .games import GameSpec, payoffs
from .hilbert import ValidationError, check_distributions

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
    """P(x_A, x_B) per profile of one noise realization, shape (B, L, L).
    Each cache-sized chunk is reduced and validated as soon as it is evolved,
    so the amplitudes of the whole batch never exist at once."""
    geom = walk.geometry
    size = chunk_profiles(geom)
    probs = np.empty((len(thetas), geom.size, geom.size))
    for lo in range(0, len(thetas), size):
        amps = evolve_batch(walk, thetas[lo : lo + size])
        block = probs[lo : lo + size]
        block[:] = np.sum(np.abs(amps) ** 2, axis=(2, 4))
        check_distributions(block)
    return probs


class WalkEvaluator:
    """Payoff of the T-step walk as a function of the strategy pair.

    For a noisy interaction the payoff is the mean over the config's
    `ensemble` realizations, seeded config.seed, config.seed+1, ...; the
    same realizations serve every strategy pair, so finite differences see
    common random numbers.  A deterministic walk is its own one realization.
    """

    def __init__(self, config: WalkConfig, game: GameSpec):
        self.config = config
        self.game = game
        self.realizations = (
            [replace(config, seed=config.seed + k) for k in range(config.ensemble)]
            if config.interaction.noisy
            else [config]
        )

    def points(self, thetas) -> tuple[np.ndarray, np.ndarray, dict]:
        """u_A, u_B and the named diagnostics of each profile, each (B,)."""
        thetas = np.asarray(thetas, dtype=float)
        geom = self.config.geometry
        per_walk = [
            payoffs(distributions(walk, thetas), geom, self.game) for walk in self.realizations
        ]
        if len(per_walk) == 1:
            # taken as is, because a sum would turn -0.0 into 0.0
            return per_walk[0]
        # (profile, u_A | u_B | aux..., realization), averaged over the ensemble
        table = np.stack(
            [np.column_stack([u_a, u_b, *aux.values()]) for u_a, u_b, aux in per_walk],
            axis=-1,
        ).mean(axis=-1)
        return table[:, 0], table[:, 1], dict(zip(per_walk[0][2], table[:, 2:].T))

    def evaluate_many(self, thetas) -> np.ndarray:
        u_a, u_b, _ = self.points(thetas)
        return np.column_stack([u_a, u_b])

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

    def points(self, thetas) -> tuple[np.ndarray, np.ndarray, dict]:
        u = self.evaluate_many(thetas)
        return u[:, 0], u[:, 1], {}


def surface_from_evaluator(evaluator, grid: StrategyGrid) -> PayoffSurface:
    shape = (grid.n, grid.n)
    u_a, u_b, aux = evaluator.points(grid.profiles)
    return PayoffSurface(
        grid, u_a.reshape(shape), u_b.reshape(shape),
        {key: v.reshape(shape) for key, v in aux.items()},
    )


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
    g = gradients(evaluator, grid.profiles, h)
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

    Only the first `max_candidates` intersections, column by column, are
    refined, with a warning when more were found.

    Non-convergent refinements are reported with status "unrefined"; points
    that end up on the domain boundary are flagged "boundary" and exempt from
    the interior first-order residual bound.
    """
    vals = surface.grid.values
    mask_a, mask_b = _best_response_masks(surface, TIE_TOL)
    # best-response intersections, read column by column (theta_B-major)
    cols, rows = np.argwhere((mask_a & mask_b).T).T
    if len(cols) > max_candidates:
        warnings.warn(
            f"{len(cols)} best-response intersections, refining the first {max_candidates}",
            stacklevel=2,
        )
    cols, rows = cols[:max_candidates], rows[:max_candidates]
    if not cols.size:
        return []
    w = surface.grid.spacing
    ta, tb = vals[rows], vals[cols]
    grad = np.full((len(cols), 2), np.inf)
    # lanes still refining; refine=False takes one residual check instead
    live = np.arange(len(cols))
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
