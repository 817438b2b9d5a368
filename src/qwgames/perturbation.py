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

from .dynamics import WalkConfig, evolve_singles
from .equilibrium import StrategyGrid, WalkEvaluator
from .games import GameSpec
from .hilbert import LatticeGeometry, ValidationError, born, reach
from .interactions import InteractionSpec


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


def drift_sweep(geometry: LatticeGeometry, steps: int, thetas, coin) -> np.ndarray:
    """Expected final position of a single non-interacting walker at each
    angle, from one batched single-walker walk on its `reach` sites."""
    p = born(evolve_singles(geometry, steps, thetas, coin))
    return np.vecdot(p, geometry.positions[reach(geometry, steps)])


def _separable_prediction(config: WalkConfig, game: GameSpec, thetas: np.ndarray) -> np.ndarray:
    """Payoff of the product of the two single-walker walks at each pair:
    the walk without its interaction, which takes the product path."""
    free = replace(config, interaction=InteractionSpec())
    return WalkEvaluator(free, game).points(thetas)[0]


def separability_residual(config: WalkConfig, game: GameSpec, grid: StrategyGrid) -> float:
    """Max deviation of the interacting payoff from the non-interacting
    product prediction over the grid (for the race, F(t_A) - F(t_B))."""
    thetas = grid.profiles
    u = WalkEvaluator(config, game).points(thetas)[0]
    return float(np.max(np.abs(u - _separable_prediction(config, game, thetas))))


def _slope_matrix(
    config: WalkConfig, game: GameSpec, thetas, lambda_schedule
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The checked schedule, u_A(0) per profile and the (profiles x
    strengths) slopes (u_A(l_k) - u_A(0)) / l_k, from one batched
    evaluation per strength."""
    lambdas = np.asarray(lambda_schedule, dtype=float)
    if len(lambdas) < 2 or np.any(np.diff(lambdas) >= 0) or lambdas[-1] <= 0:
        raise ValidationError(
            "lambda schedule must be strictly decreasing and positive"
        )
    thetas = np.asarray(thetas, dtype=float)

    def u_at(strength: float) -> np.ndarray:
        cfg = replace(config, interaction=config.interaction.with_strength(strength))
        return WalkEvaluator(cfg, game).points(thetas)[0]

    u0 = u_at(0.0)
    return lambdas, u0, np.column_stack([(u_at(lam) - u0) / lam for lam in lambdas])


def _richardson(lambdas: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Limit of the slopes along their last axis (one row or a stack): with
    slope = G + c lambda + ..., the intercept at 0 of the line through the
    last two strengths' slopes, 2 s[-1] - s[-2] on a halving schedule."""
    r = lambdas[-2] / lambdas[-1]
    return (r * slopes[..., -1] - slopes[..., -2]) / (r - 1)


def first_order_slope(
    config: WalkConfig,
    game: GameSpec,
    point,
    lambda_schedule=(0.1, 0.05, 0.025, 0.0125),
) -> SlopeEstimate:
    """Slope of the payoff in the interaction strength at the strategy pair
    point = (theta_A, theta_B), extrapolated to 0.

    Flags the estimate when the successive slope differences fail to shrink,
    rather than silently extrapolating outside the perturbative regime.
    """
    thetas = [[float(point[0]), float(point[1])]]
    lambdas, _, (slopes,) = _slope_matrix(config, game, thetas, lambda_schedule)
    diffs = np.abs(np.diff(slopes))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = diffs[1:] / diffs[:-1]
    shrinking = len(ratios) == 0 or bool(np.all(ratios < 0.9))
    g = float(_richardson(lambdas, slopes))
    return SlopeEstimate(g, lambdas, slopes, diffs, ratios, bool(shrinking))


def g_estimate_grid(
    config: WalkConfig,
    game: GameSpec,
    grid: StrategyGrid,
    lambda_schedule=(0.1, 0.05),
) -> np.ndarray:
    """First-order coupling estimate over the strategy grid (coarse schedule),
    from one batch of the whole grid per strength.  On an exchange-symmetric
    walk that batch holds each profile's mirror, so `_mirrors` evolves only
    the profiles with theta_A <= theta_B: 91 of the recipe's 169.
    """
    lambdas, _, slopes = _slope_matrix(config, game, grid.profiles, lambda_schedule)
    return _richardson(lambdas, slopes).reshape(grid.n, grid.n)


def nonseparability_certificate(
    config: WalkConfig,
    game: GameSpec,
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
    corners = [[ta + h, tb + h], [ta + h, tb - h], [ta - h, tb + h], [ta - h, tb - h]]
    lambdas, u0, slopes = _slope_matrix(config, game, corners, lambda_schedule)

    def mixed(v: np.ndarray) -> float:
        return float((v[0] - v[1] - v[2] + v[3]) / (4 * h * h))

    return Certificate(
        mixed(_richardson(lambdas, slopes)), mixed(u0), (float(ta), float(tb)), h
    )

