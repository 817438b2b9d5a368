"""Weak-coupling structure of the payoff: single-walker drift, first-order
coupling extraction, and separability diagnostics.

The first-order coupling term is recovered numerically: the payoff is
evaluated on a decreasing schedule of interaction strengths and the slope
(u(lambda) - u(0)) / lambda is Richardson-extrapolated to lambda -> 0.  The
schedule differences double as a convergence certificate: they must shrink
linearly in lambda wherever the expansion is valid.

Each analysis is a set of rows, a strategy profile at a strength or with
the interaction removed each, and a reduction of their u_A.  Every public
analysis evaluates its own rows in one `points` call, and `weak_coupling`
the union of the recipe's four in one call, so the joint walk is evolved
in one stream whatever the strength of a row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import WalkConfig, evolve_singles
from .equilibrium import StrategyGrid, WalkEvaluator
from .games import GameSpec
from .hilbert import LatticeGeometry, ValidationError, born, reach

# the certificate's base point and schedule, the recipe's too
CERTIFICATE_POINT = (np.pi / 3, 2 * np.pi / 3)
CERTIFICATE_SCHEDULE = (0.1, 0.05, 0.025)


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


class _Rows(NamedTuple):
    """One analysis: the rows it evaluates, a profile, a strength and
    whether the interaction is removed each, and the reduction of their u_A
    to its result."""

    thetas: np.ndarray
    strengths: np.ndarray
    free: np.ndarray
    reduce: Callable


def _evaluate(config: WalkConfig, game: GameSpec, analyses: list) -> list:
    """Each analysis' result, from one `points` call over the union of
    their rows.  A row's u_A does not depend on the rows beside it, so each
    result is bitwise the one its rows alone give."""
    thetas, strengths, free = (np.concatenate(column) for column in list(zip(*analyses))[:3])
    u = WalkEvaluator(config, game).points(thetas, strengths=strengths, free=free)[0]
    ends = np.cumsum([len(rows.thetas) for rows in analyses])[:-1]
    return [rows.reduce(part) for rows, part in zip(analyses, np.split(u, ends))]


def _separability(config: WalkConfig, grid: StrategyGrid) -> _Rows:
    """The grid at the walk's strength and without its interaction: the
    product of the two single-walker walks, the separable prediction (for a
    noisy walk not the strength-0 walk, which keeps its jitter)."""
    thetas = np.tile(grid.profiles, (2, 1))
    free = np.repeat([False, True], len(grid.profiles))
    strengths = np.full(len(thetas), config.interaction.strength)

    def reduce(u: np.ndarray) -> float:
        coupled, separable = np.split(u, 2)
        return float(np.max(np.abs(coupled - separable)))

    return _Rows(thetas, strengths, free, reduce)


def _slopes(thetas, lambda_schedule, reduce) -> _Rows:
    """The profiles at strength 0 and at each strength of the checked
    schedule; reduce gets the schedule, u_A(0) per profile and the
    (profiles x strengths) slopes (u_A(l_k) - u_A(0)) / l_k."""
    lambdas = np.asarray(lambda_schedule, dtype=float)
    if len(lambdas) < 2 or np.any(np.diff(lambdas) >= 0) or lambdas[-1] <= 0:
        raise ValidationError(
            "lambda schedule must be strictly decreasing and positive"
        )
    thetas = np.tile(np.asarray(thetas, dtype=float), (len(lambdas) + 1, 1))
    strengths = np.repeat([0.0, *lambdas], len(thetas) // (len(lambdas) + 1))

    def slopes(u: np.ndarray):
        u0, *at = u.reshape(len(lambdas) + 1, -1)
        slopes = np.column_stack([(u_k - u0) / lam for u_k, lam in zip(at, lambdas)])
        return reduce(lambdas, u0, slopes)

    return _Rows(thetas, strengths, np.zeros(len(thetas), dtype=bool), slopes)


def _richardson(lambdas: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Limit of the slopes along their last axis (one row or a stack): with
    slope = G + c lambda + ..., the intercept at 0 of the line through the
    last two strengths' slopes, 2 s[-1] - s[-2] on a halving schedule."""
    r = lambdas[-2] / lambdas[-1]
    return (r * slopes[..., -1] - slopes[..., -2]) / (r - 1)


def _first_order(point, lambda_schedule) -> _Rows:
    def estimate(lambdas, _, slopes) -> SlopeEstimate:
        (slopes,) = slopes
        diffs = np.abs(np.diff(slopes))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = diffs[1:] / diffs[:-1]
        shrinking = len(ratios) == 0 or bool(np.all(ratios < 0.9))
        g = float(_richardson(lambdas, slopes))
        return SlopeEstimate(g, lambdas, slopes, diffs, ratios, bool(shrinking))

    return _slopes([[float(point[0]), float(point[1])]], lambda_schedule, estimate)


def _g_grid(grid: StrategyGrid, lambda_schedule) -> _Rows:
    def g(lambdas, _, slopes) -> np.ndarray:
        return _richardson(lambdas, slopes).reshape(grid.n, grid.n)

    return _slopes(grid.profiles, lambda_schedule, g)


def _certificate(base_point, step, lambda_schedule) -> _Rows:
    ta, tb = base_point
    h = step
    corners = [[ta + h, tb + h], [ta + h, tb - h], [ta - h, tb + h], [ta - h, tb - h]]

    def mixed(v: np.ndarray) -> float:
        return float((v[0] - v[1] - v[2] + v[3]) / (4 * h * h))

    def certificate(lambdas, u0, slopes) -> Certificate:
        return Certificate(
            mixed(_richardson(lambdas, slopes)), mixed(u0), (float(ta), float(tb)), h
        )

    return _slopes(corners, lambda_schedule, certificate)


def separability_residual(config: WalkConfig, game: GameSpec, grid: StrategyGrid) -> float:
    """Max deviation of the interacting payoff from the non-interacting
    product prediction over the grid (for the race, F(t_A) - F(t_B))."""
    return _evaluate(config, game, [_separability(config, grid)])[0]


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
    return _evaluate(config, game, [_first_order(point, lambda_schedule)])[0]


def g_estimate_grid(
    config: WalkConfig,
    game: GameSpec,
    grid: StrategyGrid,
    lambda_schedule=(0.1, 0.05),
) -> np.ndarray:
    """First-order coupling estimate over the strategy grid (coarse schedule),
    from one batch of the whole grid at every strength.  On an
    exchange-symmetric walk that batch holds each profile's mirror at the
    same strength, so `_mirrors` evolves only the profiles with
    theta_A <= theta_B: 91 of the recipe's 169 a strength.
    """
    return _evaluate(config, game, [_g_grid(grid, lambda_schedule)])[0]


def nonseparability_certificate(
    config: WalkConfig,
    game: GameSpec,
    base_point=CERTIFICATE_POINT,
    step: float = 0.1,
    lambda_schedule=CERTIFICATE_SCHEDULE,
) -> Certificate:
    """Mixed partial d2G/dtA dtB of the first-order coupling at a base point.

    The baseline applies the identical stencil to the strength-0 payoff
    (units payoff/rad^2 instead of per unit strength); a genuinely coupled
    interaction must dominate it by a wide margin.
    """
    return _evaluate(config, game, [_certificate(base_point, step, lambda_schedule)])[0]


class WeakCoupling(NamedTuple):
    residual: float  # separability_residual
    g_grid: np.ndarray  # g_estimate_grid on the first two strengths
    slope: SlopeEstimate  # first_order_slope
    certificate: Certificate  # nonseparability_certificate at its defaults


def weak_coupling(
    config: WalkConfig,
    game: GameSpec,
    grid: StrategyGrid,
    point,
    lambda_schedule=(0.1, 0.05, 0.025, 0.0125),
) -> WeakCoupling:
    """The perturbation recipe's four analyses from one `points` call over
    the union of their rows, each bitwise its own function's result: the
    separability residual and the first two strengths' G over grid, the
    slope at point over the whole schedule, and the certificate at its
    defaults.  One call evolves every chunk of the union in one stream."""
    return WeakCoupling(*_evaluate(config, game, [
        _separability(config, grid),
        _g_grid(grid, lambda_schedule[:2]),
        _first_order(point, lambda_schedule),
        _certificate(CERTIFICATE_POINT, 0.1, CERTIFICATE_SCHEDULE),
    ]))
