"""Weak-coupling structure of the payoff: single-walker drift, first-order
coupling extraction, and separability diagnostics.

The first-order coupling term is recovered numerically: the payoff is
evaluated on a decreasing schedule of interaction strengths and the slope
(u(lambda) - u(0)) / lambda is Richardson-extrapolated to lambda -> 0.  The
schedule differences double as a convergence certificate: they must shrink
linearly in lambda wherever the expansion is valid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import StrategyProfile, WalkConfig, evolve_single, evolve_trajectory
from .equilibrium import StrategyGrid, WalkEvaluator
from .games import GameSpec, payoffs
from .hilbert import LatticeGeometry, ValidationError, check_distributions, measure_joint


@dataclass(frozen=True)
class SlopeEstimate:
    g_estimate: float  # Richardson limit of the per-strength payoff slope
    lambdas: np.ndarray
    slopes: np.ndarray
    differences: np.ndarray  # |slope(l_k) - slope(l_{k+1})|
    ratios: np.ndarray  # successive difference ratios, ~0.5 per halving
    in_perturbative_regime: bool


@dataclass(frozen=True)
class Certificate:
    mixed_partial: float
    baseline: float  # same stencil with the interaction removed
    base_point: tuple
    step: float


def drift(geometry: LatticeGeometry, steps: int, theta: float, coin) -> float:
    """Expected final position of a single non-interacting walker."""
    state = evolve_single(geometry, steps, theta, coin)
    return float(state.distribution() @ geometry.positions)


def drift_sweep(geometry: LatticeGeometry, steps: int, thetas, coin) -> np.ndarray:
    return np.array([drift(geometry, steps, th, coin) for th in thetas])


def _separable_prediction(config: WalkConfig, game: GameSpec, thetas: np.ndarray) -> np.ndarray:
    """Payoff of the product of the two single-walker walks at each pair."""
    uniq_a = {}
    uniq_b = {}
    for ta, tb in thetas:
        if ta not in uniq_a:
            uniq_a[ta] = evolve_single(
                config.geometry, config.steps, ta, config.coin_a
            ).distribution()
        if tb not in uniq_b:
            uniq_b[tb] = evolve_single(
                config.geometry, config.steps, tb, config.coin_b
            ).distribution()
    probs = np.stack([np.outer(uniq_a[ta], uniq_b[tb]) for ta, tb in thetas])
    check_distributions(probs)
    return payoffs(probs, config.geometry, game)[0]


def separability_residual(
    config: WalkConfig, game: GameSpec, grid: StrategyGrid, seed: int = 0
) -> float:
    """Max deviation of the interacting payoff from the non-interacting
    product prediction over the grid (for the race, F(t_A) - F(t_B))."""
    vals = grid.values
    ta, tb = np.meshgrid(vals, vals, indexing="ij")
    thetas = np.column_stack([ta.ravel(), tb.ravel()])
    u = WalkEvaluator(config, game, seed).evaluate_many(thetas)[:, 0]
    return float(np.max(np.abs(u - _separable_prediction(config, game, thetas))))


def first_order_slope(
    config: WalkConfig,
    game: GameSpec,
    profile: StrategyProfile,
    lambda_schedule=(0.1, 0.05, 0.025, 0.0125),
    seed: int = 0,
) -> SlopeEstimate:
    """Slope of the payoff in the interaction strength, extrapolated to 0.

    Flags the estimate when the successive slope differences fail to shrink,
    rather than silently extrapolating outside the perturbative regime.
    """
    lambdas = np.asarray(lambda_schedule, dtype=float)
    if len(lambdas) < 2 or np.any(np.diff(lambdas) >= 0) or lambdas[-1] <= 0:
        raise ValidationError(
            "lambda schedule must be strictly decreasing and positive"
        )
    thetas = np.array([[profile.theta_a, profile.theta_b]])

    def u_at(strength: float) -> float:
        cfg = replace(config, interaction=config.interaction.with_strength(strength))
        return float(WalkEvaluator(cfg, game, seed).evaluate_many(thetas)[0, 0])

    u0 = u_at(0.0)
    slopes = np.array([(u_at(lam) - u0) / lam for lam in lambdas])
    diffs = np.abs(np.diff(slopes))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = diffs[1:] / diffs[:-1]
    shrinking = len(ratios) == 0 or bool(np.all(ratios < 0.9))
    if len(lambdas) >= 2 and abs(lambdas[-1] - lambdas[-2] / 2) < 1e-12 * lambdas[-2]:
        # Richardson step for a halving schedule: slope = G + c*lambda + ...
        g = 2.0 * slopes[-1] - slopes[-2]
    else:
        g = slopes[-1]
    return SlopeEstimate(float(g), lambdas, slopes, diffs, ratios, bool(shrinking))


def g_estimate_grid(
    config: WalkConfig,
    game: GameSpec,
    grid: StrategyGrid,
    lambda_schedule=(0.1, 0.05),
    seed: int = 0,
) -> np.ndarray:
    """First-order coupling estimate over the strategy grid (coarse schedule)."""
    vals = grid.values
    out = np.empty((grid.n, grid.n))
    for i, ta in enumerate(vals):
        for j, tb in enumerate(vals):
            est = first_order_slope(
                config, game, StrategyProfile(ta, tb), lambda_schedule, seed
            )
            out[i, j] = est.g_estimate
    return out


def nonseparability_certificate(
    config: WalkConfig,
    game: GameSpec,
    seed: int = 0,
    base_point=(np.pi / 3, 2 * np.pi / 3),
    step: float = 0.1,
    lambda_schedule=(0.1, 0.05, 0.025),
) -> Certificate:
    """Mixed partial d2G/dtA dtB of the first-order coupling at a base point.

    The baseline applies the identical stencil to the strength-0 payoff
    (units payoff/rad^2 instead of per unit strength); a genuinely coupled
    interaction must dominate it by a wide margin.
    """
    ta, tb = base_point
    h = step

    def g_at(a: float, b: float) -> float:
        return first_order_slope(
            config, game, StrategyProfile(a, b), lambda_schedule, seed
        ).g_estimate

    mixed = (
        g_at(ta + h, tb + h)
        - g_at(ta + h, tb - h)
        - g_at(ta - h, tb + h)
        + g_at(ta - h, tb - h)
    ) / (4 * h * h)

    cfg0 = replace(config, interaction=config.interaction.with_strength(0.0))
    ev0 = WalkEvaluator(cfg0, game, seed)
    pts = np.array(
        [[ta + h, tb + h], [ta + h, tb - h], [ta - h, tb + h], [ta - h, tb - h]]
    )
    u = ev0.evaluate_many(pts)[:, 0]
    baseline = (u[0] - u[1] - u[2] + u[3]) / (4 * h * h)
    return Certificate(float(mixed), float(baseline), (float(ta), float(tb)), h)


def collision_weight(
    config: WalkConfig, profile: StrategyProfile, seed: int = 0
) -> float:
    """Time-accumulated coincidence probability sum_t sum_x P_t(x, x) of the
    strength-0 walk, t = 1 ... T.  Bounded by [0, T]."""
    cfg0 = replace(config, interaction=config.interaction.with_strength(0.0))
    total = 0.0
    for state in evolve_trajectory(cfg0, profile, seed):
        total += float(np.trace(measure_joint(state).probabilities))
    return total
