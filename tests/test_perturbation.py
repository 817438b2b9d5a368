from dataclasses import replace

import numpy as np
import pytest

from qwgames.dynamics import WalkConfig
from qwgames.equilibrium import StrategyGrid, WalkEvaluator, distributions
from qwgames.games import GameKind, GameSpec, payoffs
from qwgames.hilbert import LatticeGeometry, ValidationError
from qwgames.interactions import InteractionKind, InteractionSpec
from qwgames.perturbation import (
    drift,
    drift_sweep,
    first_order_slope,
    g_estimate_grid,
    _separable_prediction,
    nonseparability_certificate,
    separability_residual,
)

RACE = GameSpec(GameKind.RACE)
# a small coupled walk for the batched-slope checks
SMALL = WalkConfig(
    LatticeGeometry(21), 6, interaction=InteractionSpec(InteractionKind.COLLISION_PHASE, np.pi)
)
SCHEDULES = [(0.1, 0.05), (0.1, 0.03, 0.02)]  # halving: Richardson step; not: last slope
BAD_SCHEDULES = [(0.1,), (0.05, 0.1), (0.1, 0.0)]


def test_drift_of_frozen_coin_is_ballistic():
    # theta = 0 keeps the coin on |R>, so the walker moves one site per step
    geom = LatticeGeometry(13)
    assert drift(geom, 5, 0.0, (1, 0)) == pytest.approx(5.0, abs=1e-12)
    assert drift(geom, 5, 0.0, (0, 1)) == pytest.approx(-5.0, abs=1e-12)


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
    assert np.max(np.abs(joint - _separable_prediction(config, RACE, grid.profiles))) < 1e-12


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


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_g_estimate_grid_is_bitwise_the_per_point_slopes(schedule):
    grid = StrategyGrid(5)
    got = g_estimate_grid(SMALL, RACE, grid, schedule)
    want = per_point_g_grid(SMALL, RACE, grid, schedule)
    assert got.tobytes() == want.tobytes()
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
def test_g_estimate_grid_evaluates_one_batch_per_row_and_strength(monkeypatch, schedule):
    sizes = []
    points = WalkEvaluator.points

    def counted(self, thetas):
        sizes.append(len(thetas))
        return points(self, thetas)

    monkeypatch.setattr(WalkEvaluator, "points", counted)
    g_estimate_grid(SMALL, RACE, StrategyGrid(5), schedule)
    assert sizes == [5] * (5 * (1 + len(schedule)))


def test_richardson_step_only_for_a_halving_schedule():
    point = (1.0, 2.0)
    halving = first_order_slope(SMALL, RACE, point, SCHEDULES[0])
    assert halving.g_estimate == 2.0 * halving.slopes[-1] - halving.slopes[-2]
    other = first_order_slope(SMALL, RACE, point, SCHEDULES[1])
    assert other.g_estimate == other.slopes[-1]
    assert halving.g_estimate != halving.slopes[-1]


def test_noisy_residual_and_slopes_are_the_ensemble_mean():
    spec = InteractionSpec(InteractionKind.NOISY_COLLISION, 1.0, noise_sigma=0.5)
    config = WalkConfig(LatticeGeometry(11), 4, interaction=spec, ensemble=3)
    grid, schedule = StrategyGrid(3), (0.1, 0.05)

    def u_a(cfg, strength):
        walk = replace(cfg, interaction=spec.with_strength(strength))
        return WalkEvaluator(walk, RACE).points(grid.profiles)[0]

    def by_hand(cfg):
        u = u_a(cfg, 1.0)
        residual = float(np.max(np.abs(u - _separable_prediction(cfg, RACE, grid.profiles))))
        u0 = u_a(cfg, 0.0)
        s1, s2 = ((u_a(cfg, lam) - u0) / lam for lam in schedule)
        return residual, (2.0 * s2 - s1).reshape(grid.n, grid.n)

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
