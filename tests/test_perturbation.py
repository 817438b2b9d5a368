from dataclasses import replace

import numpy as np
import pytest

from oracles import distributions
import qwgames.dynamics as dynamics
from qwgames.cli import COIN_CATALOG
from qwgames.dynamics import WalkConfig
from qwgames.equilibrium import StrategyGrid, WalkEvaluator
from qwgames.games import GameKind, GameSpec, payoffs
from qwgames.hilbert import Boundary, LatticeGeometry, ValidationError
from qwgames.interactions import InteractionKind, InteractionSpec
from qwgames.perturbation import (
    drift_sweep,
    first_order_slope,
    g_estimate_grid,
    nonseparability_certificate,
    separability_residual,
    weak_coupling,
)

RACE = GameSpec(GameKind.RACE)
# a small coupled walk for the batched-slope checks
SMALL = WalkConfig(
    LatticeGeometry(21), 6, interaction=InteractionSpec(InteractionKind.COLLISION_PHASE, np.pi)
)
SCHEDULES = [(0.1, 0.05), (0.1, 0.03, 0.02)]  # halving, and not
BAD_SCHEDULES = [(0.1,), (0.05, 0.1), (0.1, 0.0)]


def separable_prediction(config, game, thetas):
    """u_A of the walk with its interaction removed, which takes the
    product path."""
    free = replace(config, interaction=InteractionSpec())
    return WalkEvaluator(free, game).points(thetas)[0]


def test_drift_of_frozen_coin_is_ballistic():
    # theta = 0 keeps the coin on |R>, so the walker moves one site per step
    geom = LatticeGeometry(13)
    assert drift_sweep(geom, 5, [0.0], (1, 0))[0] == pytest.approx(5.0, abs=1e-12)
    assert drift_sweep(geom, 5, [0.0], (0, 1))[0] == pytest.approx(-5.0, abs=1e-12)


def test_drift_sweep_is_continuous():
    geom = LatticeGeometry(31)
    thetas = np.linspace(0, np.pi, 41)
    f = drift_sweep(geom, 8, thetas, (1, 0))
    assert f.shape == (41,)
    assert np.max(np.abs(np.diff(f))) < 1.0


def test_separability_residual_vanishes_without_interaction():
    config = WalkConfig(LatticeGeometry(21), 6)
    grid = StrategyGrid(5)
    # an inert walk's evaluator takes the product path, which is the prediction
    assert separability_residual(config, RACE, grid) == 0.0
    # so the joint kernel is what shows that the walk really factorizes
    joint = payoffs(distributions(config, grid.profiles), config.geometry, RACE)[0]
    assert np.max(np.abs(joint - separable_prediction(config, RACE, grid.profiles))) < 1e-12


def test_separability_residual_small_at_tiny_coupling():
    spec = InteractionSpec(InteractionKind.COLLISION_PHASE, 1e-6)
    config = WalkConfig(LatticeGeometry(21), 6, interaction=spec)
    assert separability_residual(config, RACE, StrategyGrid(5)) < 1e-4


def test_separability_residual_large_at_full_coupling():
    spec = InteractionSpec(InteractionKind.COLLISION_PHASE, np.pi)
    config = WalkConfig(LatticeGeometry(31), 10, interaction=spec)
    assert separability_residual(config, RACE, StrategyGrid(5)) > 0.1


def test_first_order_slope_schedule_validation():
    config = WalkConfig(LatticeGeometry(21), 6, interaction=InteractionSpec(
        InteractionKind.COLLISION_PHASE, np.pi))
    point = (1.0, 2.0)
    with pytest.raises(ValidationError):
        first_order_slope(config, RACE, point, lambda_schedule=(0.1,))
    with pytest.raises(ValidationError):
        first_order_slope(config, RACE, point, lambda_schedule=(0.05, 0.1))
    with pytest.raises(ValidationError):
        first_order_slope(config, RACE, point, lambda_schedule=(0.1, 0.0))


def test_first_order_slope_converges_linearly():
    spec = InteractionSpec(InteractionKind.COLLISION_PHASE, 1.0)
    config = WalkConfig(LatticeGeometry(31), 10, interaction=spec)
    est = first_order_slope(config, RACE, (1.0, 2.0))
    assert est.in_perturbative_regime
    assert np.all((est.ratios > 0.35) & (est.ratios < 0.65))
    # Richardson limit sits beyond the smallest-lambda slope
    assert est.differences[-1] < est.differences[0]


def test_certificate_baseline_is_negligible():
    spec = InteractionSpec(InteractionKind.COLLISION_PHASE, np.pi)
    config = WalkConfig(LatticeGeometry(21), 6, interaction=spec)
    cert = nonseparability_certificate(config, RACE, lambda_schedule=(0.1, 0.05))
    assert abs(cert.baseline) < 1e-8
    assert cert.base_point == (np.pi / 3, 2 * np.pi / 3)


def per_point_g_grid(config, game, grid, schedule):
    """g_estimate_grid as one first_order_slope call per grid point."""
    vals = grid.values
    return np.array([
        [first_order_slope(config, game, (a, b), schedule).g_estimate
         for b in vals]
        for a in vals
    ])


def whole_grid_g(config, game, grid, schedule):
    """The Richardson limit of each strength's whole-grid points call."""
    def u_a(strength):
        walk = replace(config, interaction=config.interaction.with_strength(strength))
        return WalkEvaluator(walk, game).points(grid.profiles)[0]

    u0 = u_a(0.0)
    s = [(u_a(lam) - u0) / lam for lam in schedule]
    r = schedule[-2] / schedule[-1]
    return ((r * s[-1] - s[-2]) / (r - 1)).reshape(grid.n, grid.n)


# The whole-grid batch reduces each mirrored profile from its partner's
# transposed P, where first_order_slope evolves every point alone, so the
# sums run in another order: G differs by rounding, up to 4.4e-14 here and
# 7.1e-14 on the recipe's 13x13 grid
G_GRID_TOL = 1e-12


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_g_estimate_grid_is_the_whole_grid_slopes(schedule):
    grid = StrategyGrid(5)
    got = g_estimate_grid(SMALL, RACE, grid, schedule)
    assert got.tobytes() == whole_grid_g(SMALL, RACE, grid, schedule).tobytes()
    want = per_point_g_grid(SMALL, RACE, grid, schedule)
    np.testing.assert_allclose(got, want, rtol=0, atol=G_GRID_TOL)
    assert np.count_nonzero(got) > 5  # not a trivially zero grid


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_certificate_is_bitwise_the_four_corner_stencil(schedule):
    ta, tb, h = np.pi / 3, 2 * np.pi / 3, 0.1
    corners = [(ta + h, tb + h), (ta + h, tb - h), (ta - h, tb + h), (ta - h, tb - h)]
    g = [first_order_slope(SMALL, RACE, (a, b), schedule).g_estimate
         for a, b in corners]
    u0 = WalkEvaluator(WalkConfig(LatticeGeometry(21), 6), RACE).points(corners)[0]
    cert = nonseparability_certificate(SMALL, RACE, lambda_schedule=schedule)
    assert cert.mixed_partial == (g[0] - g[1] - g[2] + g[3]) / (4 * h * h)
    assert cert.baseline == float((u0[0] - u0[1] - u0[2] + u0[3]) / (4 * h * h))


@pytest.mark.parametrize("schedule", BAD_SCHEDULES)
def test_every_slope_routine_rejects_a_bad_schedule(schedule):
    with pytest.raises(ValidationError):
        first_order_slope(SMALL, RACE, (1.0, 2.0), schedule)
    with pytest.raises(ValidationError):
        g_estimate_grid(SMALL, RACE, StrategyGrid(3), schedule)
    with pytest.raises(ValidationError):
        nonseparability_certificate(SMALL, RACE, lambda_schedule=schedule)


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_g_estimate_grid_evaluates_one_batch(monkeypatch, schedule):
    sizes, evolved = [], []
    points, run = WalkEvaluator.points, dynamics._run

    def counted(self, thetas, *args, **kwargs):
        sizes.append(len(thetas))
        return points(self, thetas, *args, **kwargs)

    def counted_run(legs, start, coins, *args, **kwargs):
        if coins.shape[1] == 4:
            evolved.append(len(coins))
        return run(legs, start, coins, *args, **kwargs)

    monkeypatch.setattr(WalkEvaluator, "points", counted)
    monkeypatch.setattr(dynamics, "_run", counted_run)
    g_estimate_grid(SMALL, RACE, StrategyGrid(5), schedule)
    assert sizes == [25 * (1 + len(schedule))]
    # the walk is exchange-symmetric: 15 of the 25 profiles are evolved per
    # coupled strength, the rest reduced from their mirrors at the same
    # strength, in one stream of chunks; strength 0 is inert and takes the
    # product path
    assert sum(evolved) == 15 * len(schedule)
    assert len(evolved) == -(-15 * len(schedule) // dynamics.chunk_profiles(SMALL.geometry, 6))


def test_richardson_is_the_intercept_of_the_last_two_slopes():
    # slope = G + c lambda + ...: on a halving schedule the intercept is
    # 2 s2 - s1 bit for bit; on another it is the line's value at 0, where
    # the real-coin walk's G is 0 (u is even in lambda)
    point = (1.0, 2.0)
    halving = first_order_slope(SMALL, RACE, point, SCHEDULES[0])
    assert halving.g_estimate == 2.0 * halving.slopes[-1] - halving.slopes[-2]
    other = first_order_slope(SMALL, RACE, point, SCHEDULES[1])
    (l1, l2), (s1, s2) = other.lambdas[-2:], other.slopes[-2:]
    assert other.g_estimate == (l1 / l2 * s2 - s1) / (l1 / l2 - 1)
    for estimate in (halving, other):
        assert abs(estimate.g_estimate) < 0.01 * abs(estimate.slopes[-1])


def test_noisy_residual_and_slopes_are_the_ensemble_mean():
    spec = InteractionSpec(InteractionKind.NOISY_COLLISION, 1.0, noise_sigma=0.5)
    config = WalkConfig(LatticeGeometry(11), 4, interaction=spec, ensemble=3)
    grid, schedule = StrategyGrid(3), (0.1, 0.05)

    def by_hand(cfg):
        u = WalkEvaluator(cfg, RACE).points(grid.profiles)[0]
        residual = float(np.max(np.abs(u - separable_prediction(cfg, RACE, grid.profiles))))
        return residual, whole_grid_g(cfg, RACE, grid, schedule)

    results = {}
    for ensemble in (1, 3):
        cfg = replace(config, ensemble=ensemble)
        residual = separability_residual(cfg, RACE, grid)
        g = g_estimate_grid(cfg, RACE, grid, schedule)
        want_residual, want_g = by_hand(cfg)
        assert residual == want_residual
        assert g.tobytes() == want_g.tobytes()
        results[ensemble] = residual, g
    assert results[1][0] != results[3][0]
    assert not np.array_equal(results[1][1], results[3][1])


def catalog_coins(a: str, b: str) -> tuple:
    return tuple(tuple(complex(re, im) for re, im in COIN_CATALOG[name]) for name in (a, b))


COLLISION = InteractionKind.COLLISION_PHASE
# (coin pair, whether its lambda = 0 walk is real); right x symmetric, with a
# complex relative phase, is the positive control
COIN_PAIRS = [
    pytest.param(("right", "right"), True, id="right-right"),
    pytest.param(("plus", "minus"), True, id="plus-minus"),
    pytest.param(("left", "plus"), True, id="left-plus"),
    pytest.param(("right", "symmetric"), False, id="right-symmetric"),
]


# the perturbation recipe's light cone, and the race recipe's whole lattice
@pytest.mark.parametrize("steps, size", [(10, 31), (20, 15)], ids=["light-cone", "lattice"])
@pytest.mark.parametrize("boundary", list(Boundary), ids=lambda b: b.value)
@pytest.mark.parametrize("coins, real", COIN_PAIRS)
def test_first_order_term_vanishes_for_real_coins_only(coins, real, boundary, steps, size):
    # The coin, the shift and every phase table are real, so from a real coin
    # the walk at -lambda is the complex conjugate of the walk at lambda: P,
    # and with it u_A, is even in lambda, and dU_A/dlambda at 0 is zero.  A
    # complex relative phase (right x symmetric) breaks that.
    geom, thetas = LatticeGeometry(size, boundary), StrategyGrid(7).profiles
    walks = [
        WalkConfig(geom, steps, *catalog_coins(*coins), InteractionSpec(COLLISION, lam))
        for lam in (0.1, -0.1)
    ]
    for kind in (GameKind.RACE, GameKind.TUG_OF_WAR, GameKind.RENDEZVOUS):
        u_plus, u_minus = (WalkEvaluator(walk, GameSpec(kind)).points(thetas)[0] for walk in walks)
        if real:
            assert u_plus.tobytes() == u_minus.tobytes(), kind
        else:
            assert np.max(np.abs(u_plus - u_minus)) > 1e-6, kind


WEAK_WALKS = {
    "collision": SMALL,
    "noisy-ensemble-2": WalkConfig(
        LatticeGeometry(11), 4, *catalog_coins("right", "symmetric"),
        InteractionSpec(InteractionKind.NOISY_COLLISION, 1.0, noise_sigma=0.5), seed=2, ensemble=2,
    ),
    "long-range-reflecting": WalkConfig(
        LatticeGeometry(15, Boundary.REFLECTING), 9, *catalog_coins("plus", "plus"),
        InteractionSpec(InteractionKind.LONG_RANGE, 0.7, range_exponent=1.5),
    ),
    "coin-dependent-past-the-cone": WalkConfig(
        LatticeGeometry(9), 7, *catalog_coins("right", "symmetric"),
        InteractionSpec(InteractionKind.COIN_DEPENDENT, 2.0),
    ),
}


@pytest.mark.parametrize("name", list(WEAK_WALKS))
def test_weak_coupling_is_bitwise_the_four_analyses(name, monkeypatch):
    walk, grid, point = WEAK_WALKS[name], StrategyGrid(5), (1.0, 2.0)
    schedule = (0.1, 0.05, 0.025)
    want = (
        separability_residual(walk, RACE, grid),
        g_estimate_grid(walk, RACE, grid, schedule[:2]),
        first_order_slope(walk, RACE, point, schedule),
        nonseparability_certificate(walk, RACE),
    )
    calls = []
    points = WalkEvaluator.points

    def counted(self, thetas, *args, **kwargs):
        calls.append(len(thetas))
        return points(self, thetas, *args, **kwargs)

    monkeypatch.setattr(WalkEvaluator, "points", counted)
    got = weak_coupling(walk, RACE, grid, point, schedule)
    # one call over the union: 2 x 25 + 3 x 25 + 4 + 4 x 4 rows
    assert calls == [50 + 75 + 4 + 16]
    assert got.residual == want[0]
    assert got.g_grid.tobytes() == want[1].tobytes()
    for field in ("g_estimate", "lambdas", "slopes", "differences", "ratios"):
        assert np.asarray(getattr(got.slope, field)).tobytes() == np.asarray(
            getattr(want[2], field)).tobytes()
    assert got.slope.in_perturbative_regime == want[2].in_perturbative_regime
    assert got.certificate == want[3]
    if walk.interaction.noisy:
        # the residual is against the walk without its interaction, not the
        # strength-0 walk, which keeps its jitter
        free = replace(walk, interaction=InteractionSpec())
        zero = replace(walk, interaction=walk.interaction.with_strength(0.0))
        u = WalkEvaluator(walk, RACE).points(grid.profiles)[0]
        separable = separable_prediction(free, RACE, grid.profiles)
        assert got.residual == float(np.max(np.abs(u - separable)))
        u0 = WalkEvaluator(zero, RACE).points(grid.profiles)[0]
        assert got.residual != float(np.max(np.abs(u - u0)))
