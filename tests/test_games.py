import numpy as np
import pytest

from qwgames.dynamics import WalkConfig
from qwgames.equilibrium import StrategyGrid, WalkEvaluator, surface_from_evaluator
from qwgames.games import (
    GameKind,
    GameSpec,
    ShapeError,
    payoff,
    table_from_csv,
)
from qwgames.hilbert import JointDistribution, LatticeGeometry
from qwgames.interactions import InteractionKind, InteractionSpec

GEOM = LatticeGeometry(7)


def point_mass(x_a, x_b):
    p = np.zeros((7, 7))
    p[GEOM.offset(x_a), GEOM.offset(x_b)] = 1.0
    return JointDistribution(p, GEOM)


def test_race_on_point_mass():
    pt = payoff(point_mass(2, -1), GameSpec(GameKind.RACE))
    assert pt.u_a == pytest.approx(3.0)
    assert pt.u_b == pytest.approx(-3.0)
    assert pt.aux["mean_x_A"] == pytest.approx(2.0)
    assert pt.aux["mean_x_B"] == pytest.approx(-1.0)


def test_rendezvous_on_point_mass():
    pt = payoff(point_mass(2, -1), GameSpec(GameKind.RENDEZVOUS))
    assert pt.u_a == pytest.approx(-3.0)
    assert pt.u_b == pt.u_a
    assert pt.aux["meeting_probability"] == 0.0
    together = payoff(point_mass(1, 1), GameSpec(GameKind.RENDEZVOUS))
    assert together.u_a == pytest.approx(0.0)
    assert together.aux["meeting_probability"] == pytest.approx(1.0)


def test_tug_of_war_on_point_mass():
    pt = payoff(point_mass(2, -1), GameSpec(GameKind.TUG_OF_WAR))
    assert pt.u_a == pytest.approx(0.5)
    assert pt.u_b == pytest.approx(-0.5)
    assert pt.aux["center_of_mass"] == pytest.approx(0.5)


def test_zero_sum_is_bitwise():
    rng = np.random.default_rng(0)
    p = rng.random((7, 7))
    p /= p.sum()
    dist = JointDistribution(p, GEOM)
    for kind in (GameKind.RACE, GameKind.TUG_OF_WAR):
        pt = payoff(dist, GameSpec(kind))
        assert pt.u_a + pt.u_b == 0.0


def test_custom_table_payoff():
    rng = np.random.default_rng(1)
    ta = rng.random((7, 7))
    tb = rng.random((7, 7))
    p = rng.random((7, 7))
    p /= p.sum()
    dist = JointDistribution(p, GEOM)
    pt = payoff(dist, GameSpec(GameKind.CUSTOM_TABLE, ta, tb))
    assert pt.u_a == pytest.approx(float(np.sum(p * ta)))
    assert pt.u_b == pytest.approx(float(np.sum(p * tb)))


def test_custom_table_requires_tables():
    with pytest.raises(ShapeError):
        GameSpec(GameKind.CUSTOM_TABLE)
    with pytest.raises(ShapeError):
        GameSpec(GameKind.RACE, table_a=np.zeros((7, 7)), table_b=np.zeros((7, 7)))


def test_custom_table_shape_mismatch():
    spec = GameSpec(GameKind.CUSTOM_TABLE, np.zeros((5, 5)), np.zeros((5, 5)))
    dist = point_mass(0, 0)
    with pytest.raises(ShapeError, match="player A"):
        payoff(dist, spec)


def test_table_from_csv(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("x_A,x_B,value\n-3,3,1.5\n0,0,-2.0\n")
    table = table_from_csv(path, GEOM)
    assert table[GEOM.offset(-3), GEOM.offset(3)] == 1.5
    assert table[GEOM.offset(0), GEOM.offset(0)] == -2.0
    assert np.count_nonzero(table) == 2


def test_race_surface_is_antisymmetric():
    """With identical coins, swapping the players mirrors the payoff."""
    spec = InteractionSpec(InteractionKind.COLLISION_PHASE, np.pi)
    config = WalkConfig(LatticeGeometry(11), 4, (1, 0), (1, 0), spec)
    ev = WalkEvaluator(config, GameSpec(GameKind.RACE))
    surface = surface_from_evaluator(ev, StrategyGrid(7))
    np.testing.assert_allclose(surface.u_a, -surface.u_a.T, atol=1e-9)
    np.testing.assert_allclose(surface.u_b, -surface.u_a, atol=0)
