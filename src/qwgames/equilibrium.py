"""Strategy-space analysis: surfaces, best responses, stationary points,
Jacobian stability, and gradient learning dynamics.

All searches work through a payoff evaluator with the interface

    evaluate(theta_a, theta_b) -> (u_a, u_b)
    points(thetas)             -> (u_a, u_b, aux)   # (B,) arrays, aux by name

and call only `points`, one batch at a time; `evaluate` is for callers that
want one profile.  Every theta-derivative is the one `_stencil` of `points`:
`gradients` of the payoffs, and `jacobian_at` of `gradients`.

WalkEvaluator backs this with the quantum-walk simulation: every payoff
reduces the walk's one P(x_A, x_B) (averaged over the walk's noise ensemble
for noisy interactions, and built from two single-walker walks when the
interaction is inert), streamed one cache-sized block at a time (`_blocks`)
and reduced to payoff columns as it is evolved; its aux holds the transport
diagnostics only when a caller asks for them.  `walk_distributions` is the
stack of the same blocks, the P a distribution file writes.  Any object
with these two methods serves: the synthetic-game tests drive the same
searches with an analytic payoff function.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dynamics import WalkConfig, check_profiles, chunk_profiles, evolve_batch, evolve_singles
from .dynamics import jitters
from .games import DIAGNOSTICS, GameSpec, payoffs
from .games import diagnostics as transport
from .hilbert import ValidationError, born, check_distributions, reach

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


def _joint_blocks(walk: WalkConfig, thetas: np.ndarray):
    """The P of the joint walk averaged over the rows of its jitter table
    (`jitters`, drawn once for the batch), one `chunk_profiles` chunk of
    thetas at a time, each a (b, n, n) block on the `reach` sites.  Each
    chunk is evolved under every row, checked, and summed into the first
    row's in seed order, and the sum is divided by their count (by 1,
    exactly, for one row).  The amplitudes of a whole batch never exist at
    once."""
    draws = jitters(walk)
    size = chunk_profiles(walk.geometry, walk.steps)
    for lo in range(0, len(thetas), size):
        chunk = thetas[lo : lo + size]
        block = None
        for etas in draws:
            probs = born(evolve_batch(walk, chunk, etas))
            check_distributions(probs)
            if block is None:
                block = probs
            else:
                block += probs
        block /= len(draws)
        yield block


def _product_blocks(walk: WalkConfig, thetas: np.ndarray):
    """P = p_A (x) p_B of the walk without its interaction, one
    `chunk_profiles` chunk of thetas at a time, each block checked.  Each
    player's p on the `reach` sites comes from one single-walker walk per
    distinct angle, walked once for the whole batch.  A walker's row does
    not depend on the batch it runs in, so sharing the walks changes no
    bit."""
    thetas = np.asarray(thetas, dtype=float)

    def walker(column: int, coin) -> np.ndarray:
        """p(x) of one player's walker at each profile's angle, (B, n)."""
        angles, inverse = np.unique(thetas[:, column], return_inverse=True)
        return born(evolve_singles(walk.geometry, walk.steps, angles, coin))[inverse]

    p_a, p_b = walker(0, walk.coin_a), walker(1, walk.coin_b)
    size = chunk_profiles(walk.geometry, walk.steps)
    for lo in range(0, len(thetas), size):
        block = p_a[lo : lo + size, :, None] * p_b[lo : lo + size, None, :]
        check_distributions(block)
        yield block


def _blocks(walk: WalkConfig, thetas: np.ndarray):
    """The P every payoff of the walk reduces, one block at a time:
    `_product_blocks` for an inert walk, else `_joint_blocks`."""
    if walk.interaction.inert:
        return _product_blocks(walk, thetas)
    return _joint_blocks(walk, thetas)


def walk_distributions(walk: WalkConfig, thetas: np.ndarray) -> np.ndarray:
    """The P every payoff of the walk reduces, (B, n, n) on the walk's n
    `reach` sites: the stack of `_blocks`, which the payoffs reduce a block
    at a time."""
    n = len(range(walk.geometry.size)[reach(walk.geometry, walk.steps)])
    return np.concatenate([np.empty((0, n, n)), *_blocks(walk, thetas)])


def _mirrors(walk: WalkConfig, thetas: np.ndarray):
    """The rows with theta_A > theta_B whose mirror (theta_B, theta_A) is in
    the batch, and the row of each mirror; empty unless the walkers' coins
    are equal and the walk is evolved jointly.

    Every phase and coupling of the catalog is unchanged by swapping
    the walkers (tests/test_interactions.py pins this), so with equal coins
    P(theta_B, theta_A) is P(theta_A, theta_B) transposed.  Only a mirror in
    the same batch is reused, so every other row is evolved as given and
    keeps its bits.  An inert walk's single walks already serve each angle
    once."""
    lower = np.flatnonzero(thetas[:, 0] < thetas[:, 1])
    if walk.coin_a != walk.coin_b or walk.interaction.inert or not lower.size:
        return np.empty((2, 0), dtype=int)
    upper = np.flatnonzero(thetas[:, 0] > thetas[:, 1])
    # a (theta_A, theta_B) row viewed as one complex number sorts and
    # compares as the pair does; of equal rows, the last one is the mirror
    keys = thetas[lower].view(complex)[:, 0]
    order = np.argsort(keys, kind="stable")
    wanted = np.ascontiguousarray(thetas[upper, ::-1]).view(complex)[:, 0]
    at = np.searchsorted(keys[order], wanted, side="right") - 1
    found = keys[order[at]] == wanted
    return np.stack([upper[found], lower[order[at[found]]]])


def _ensemble_points(walk: WalkConfig, games, thetas, diagnostics: bool = False) -> list:
    """`points(thetas)` of each game on one walk, each reduced from the
    walk's one P a block at a time (`_blocks`): every block is reduced to
    each game's (u_a, u_b) columns, and to the `games.diagnostics` columns
    when asked, and then dropped, so no (B, n, n) stack exists.  The
    diagnostics do not depend on the game: every game's aux holds the same
    arrays.  A row with a mirror in the batch is not evolved: its columns
    are reduced from its mirror's rows of the block alone, transposed, so
    every row of the batch is reduced once."""
    thetas = check_profiles(thetas)
    geom = walk.geometry
    mirrored, partner = _mirrors(walk, thetas)
    evolved = np.ones(len(thetas), dtype=bool)
    evolved[mirrored] = False
    rows = np.flatnonzero(evolved)
    slot = (np.cumsum(evolved) - 1)[partner]  # each mirror's row among the evolved
    names = DIAGNOSTICS if diagnostics else ()
    out = np.empty((2 * len(games) + len(names), len(thetas)))
    lo = 0
    for block in _blocks(walk, thetas[evolved]):
        hi = lo + len(block)
        here = (lo <= slot) & (slot < hi)
        parts = [(block, rows[lo:hi])]
        if here.any():
            parts.append((block[slot[here] - lo].transpose(0, 2, 1), mirrored[here]))
        for probs, at in parts:
            columns = [u for game in games for u in payoffs(probs, geom, game)]
            if diagnostics:
                columns += transport(probs, geom).values()
            out[:, at] = columns
        lo = hi
    aux = dict(zip(names, out[2 * len(games) :]))
    return [(out[2 * k], out[2 * k + 1], aux) for k in range(len(games))]


class WalkEvaluator:
    """Payoff of the T-step walk as a function of the strategy pair.

    Every payoff reduces the walk's P a block at a time (`_blocks`): for a
    noisy interaction P is the mean over the config's `ensemble`
    realizations, seeded config.seed, config.seed+1, ...; the same
    realizations serve every strategy pair, so finite differences see common
    random numbers.  A deterministic walk is its own one realization.  A
    walk whose interaction is inert takes the product path,
    `_product_blocks`; one with equal coins evolves a profile once when its
    mirror is in the same batch (`_mirrors`).
    """

    def __init__(self, config: WalkConfig, game: GameSpec):
        self.config = config
        self.game = game

    def points(self, thetas, diagnostics: bool = False) -> tuple[np.ndarray, np.ndarray, dict]:
        """u_A, u_B and, when asked, the named `games.diagnostics` of each
        profile, each (B,); aux is empty otherwise."""
        return _ensemble_points(self.config, [self.game], thetas, diagnostics)[0]

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


def shared_surfaces(
    walk: WalkConfig, games, grid: StrategyGrid, diagnostics: bool = False
) -> list[PayoffSurface]:
    """The payoff surface of each game on one walk, bitwise each game's
    `surface_from_evaluator`, from one evolution of the grid per noise
    realization; with the `games.diagnostics` surfaces in aux when asked."""
    return [
        _as_surface(grid, pts)
        for pts in _ensemble_points(walk, games, grid.profiles, diagnostics)
    ]


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
GRAD_H = 1e-3  # step of every derivative: gradients, and the Jacobian of them
GRAD_TOL = 1e-3  # a point whose gradient is below this in both axes is stationary
CURVATURE_TOL = 1e-8  # Jacobian eigenvalues below this in size count as zero
MAX_ROUNDS = 200  # refinement rounds of find_stationary
MAX_CANDIDATES = 64  # best-response intersections find_stationary refines

# 3-point first-derivative stencils that stay inside [0, pi], one row each:
# forward (within h of 0), central, backward (within h of pi).  Row k probes
# at offsets _OFFSETS[k] * h, whose zero sits at index k.
_OFFSETS = np.array([[0.0, 1.0, 2.0], [-1.0, 0.0, 1.0], [-2.0, -1.0, 0.0]])
_FIRST = np.array([[-1.5, 2.0, -0.5], [-0.5, 0.0, 0.5], [0.5, -2.0, 1.5]])


def _stencil(pts: np.ndarray):
    """The GRAD_H stencil of each point along each player's angle: its rows
    (B, 2), the probes (B, 2, 3, 2), where probes[k, i, j] moves point k by
    the j-th offset along player i's angle, and their weights (B, 2, 3)."""
    row = np.where(pts - GRAD_H < 0.0, 0, np.where(pts + GRAD_H > PI, 2, 1))
    probes = np.broadcast_to(pts[:, None, None, :], (len(pts), 2, 3, 2)).copy()
    offs = _OFFSETS[row] * GRAD_H
    probes[:, 0, :, 0] += offs[:, 0]
    probes[:, 1, :, 1] += offs[:, 1]
    return row, probes, _FIRST[row] / GRAD_H


def gradients(evaluator, pts) -> np.ndarray:
    """Own-payoff gradients (dU_A/dtheta_A, dU_B/dtheta_B) at each point.

    One-sided stencils are used within GRAD_H of the domain boundary.  Every
    probe with a nonzero weight goes through one batched call.
    """
    _, probes, w1 = _stencil(np.asarray(pts, dtype=float).reshape(-1, 2))
    used = w1 != 0.0
    u_a, u_b, _ = evaluator.points(probes[used])
    u = np.zeros(w1.shape)
    u[used] = np.where(np.nonzero(used)[1] == 0, u_a, u_b)
    return np.vecdot(u, w1)


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

    A lane stops once each player's gradient is below GRAD_TOL or points out
    of the domain at the bound it sits on (a constrained maximum), else after
    MAX_ROUNDS; it is then "unrefined".  Points on the domain boundary are
    flagged "boundary" and exempt from the interior residual bound.
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
        pts = np.column_stack([ta[live], tb[live]])
        grad[live] = g = gradients(evaluator, pts)
        held = np.where(g < 0, pts < BOUNDARY_TOL, PI - pts < BOUNDARY_TOL)
        live = live[~np.all((np.abs(g) < GRAD_TOL) | held, axis=1)]
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
    """Jacobian J[i, j] = d(dU_i/dtheta_i)/dtheta_j of the gradient dynamics
    at the strategy pair point = (theta_A, theta_B), with eigenvalue
    stability classification: the `_stencil` of `gradients` along each
    player's angle, every probe's gradient from one batched call.

    A point whose stencil, or the stencil of any of its probes' gradients,
    is one-sided (within 2 GRAD_H of the boundary) carries a caveat flag.
    """
    _, probes, w1 = _stencil(np.array([point], dtype=float))
    used = w1 != 0.0
    g = np.zeros((*w1.shape, 2))
    g[used] = gradients(evaluator, probes[used])
    # a one-sided stencil probes its centre, so the probes' rows tell all
    caveat = bool(np.any(_stencil(probes[used])[0] != 1))
    # g[0, j, k] is the gradient at the k-th probe along player j's angle
    J = np.vecdot(g[0].transpose(2, 0, 1), w1[0])

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
    clamped to [0, pi], with oscillation-divergence detection.  Each
    iteration reads the walk through one `gradients` call; the payoffs of
    the whole trajectory come from one `points` call at the end."""
    ta, tb = float(start[0]), float(start[1])
    traj = [(ta, tb)]
    clamps = 0
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
        ta, tb = ca, cb
        traj.append((ta, tb))
        if _oscillation_growing(traj):
            diverged = True
            message = "divergence: growing oscillation over 20-step window"
            break
    traj = np.array(traj)
    u_a, u_b, _ = evaluator.points(traj)
    return LearnResult(traj, np.column_stack([u_a, u_b]), converged, diverged, clamps, message)


def _oscillation_growing(traj, window: int = 20) -> bool:
    """Growing sign-alternating iterate steps over the trailing window of
    the trajectory's steps."""
    if len(traj) <= 2 * window:
        return False
    deltas = np.diff(traj[-2 * window - 1 :], axis=0)
    recent, previous = deltas[window:], deltas[:window]
    flips = np.mean(np.sign(recent[1:]) * np.sign(recent[:-1]) < 0)
    amp_recent = np.mean(np.abs(recent))
    amp_prev = np.mean(np.abs(previous))
    return flips > 0.8 and amp_recent > 1.5 * amp_prev and amp_recent > 1e-8
