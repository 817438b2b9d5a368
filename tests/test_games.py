import numpy as np
import pytest

from qwgames.dynamics import WalkConfig
from qwgames.equilibrium import StrategyGrid, WalkEvaluator, surface_from_evaluator
from qwgames.games import (
    GameKind,
    GameSpec,
    diagnostics,
    payoff,
    payoffs,
    table_from_csv,
)
from qwgames.hilbert import JointDistribution, LatticeGeometry, ValidationError
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
    # u = -(mean separation), so a meeting pays -0 to both players
    assert np.signbit(together.u_a) and np.signbit(together.u_b)


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


@pytest.mark.parametrize("kind", list(GameKind), ids=lambda k: k.value)
def test_payoffs_read_the_sites_from_the_size_of_p(kind):
    # an (n, n) stack is P on the light cone of T = n - 1 steps: on L = 11,
    # n = 4 holds the sites x = -3, -1, 1, 3; an (L, L) stack the whole lattice
    geom = LatticeGeometry(11)
    rng = np.random.default_rng(2)
    game = GameSpec(kind, *(rng.random((2, 11, 11)) if kind is GameKind.CUSTOM_TABLE else ()))
    cone = rng.random((5, 4, 4))
    cone /= cone.sum(axis=(1, 2), keepdims=True)
    full = np.zeros((5, 11, 11))
    full[:, 2:9:2, 2:9:2] = cone
    (u_a, u_b), (w_a, w_b) = (payoffs(p, geom, game) for p in (cone, full))
    np.testing.assert_allclose(u_a, w_a, rtol=0, atol=1e-14)
    np.testing.assert_allclose(u_b, w_b, rtol=0, atol=1e-14)
    aux, want = diagnostics(cone, geom), diagnostics(full, geom)
    assert aux.keys() == want.keys()
    for key in aux:
        np.testing.assert_allclose(aux[key], want[key], rtol=0, atol=1e-14)


def test_custom_table_requires_tables():
    with pytest.raises(ValidationError):
        GameSpec(GameKind.CUSTOM_TABLE)
    with pytest.raises(ValidationError):
        GameSpec(GameKind.RACE, table_a=np.zeros((7, 7)), table_b=np.zeros((7, 7)))


BAD_TABLES = {
    "nan": np.full((7, 7), np.nan),
    "inf": np.full((7, 7), np.inf),
    "string": np.full((7, 7), "1"),
    "complex": np.full((7, 7), 1j),
    "1-D": np.zeros(49),
}


@pytest.mark.parametrize("table", BAD_TABLES.values(), ids=list(BAD_TABLES))
@pytest.mark.parametrize("player", ["A", "B"])
def test_custom_table_must_be_a_finite_real_2d_array(table, player):
    # caught when the game is built, not as NaN or inf payoffs or numpy's
    # own error when a walk is reduced against it
    good = np.zeros((7, 7))
    tables = (table, good) if player == "A" else (good, table)
    message = f"payoff table for player {player} must be a finite, real, 2-D array"
    with pytest.raises(ValidationError, match=message):
        GameSpec(GameKind.CUSTOM_TABLE, *tables)


def test_custom_table_shape_mismatch():
    spec = GameSpec(GameKind.CUSTOM_TABLE, np.zeros((5, 5)), np.zeros((5, 5)))
    dist = point_mass(0, 0)
    with pytest.raises(ValidationError, match="player A"):
        payoff(dist, spec)


def table_text(sites, value=lambda a, b: 0.0):
    """x_A,x_B,value rows for every pair of the site labels."""
    rows = [f"{a},{b},{value(a, b)}" for a in sites for b in sites]
    return "\n".join(["x_A,x_B,value", *rows]) + "\n"


def test_table_from_csv(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(table_text(range(-3, 4), lambda a, b: 1.5 * a - b))
    table = table_from_csv(path, GEOM)
    x = GEOM.positions
    np.testing.assert_array_equal(table, 1.5 * x[:, None] - x[None, :])


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("x_A,x_B,payoff\n0,0,1.0\n", 1, "missing column value"),
        ("x_A,value\n0,1.0\n", 1, "missing column x_B"),
        ("x_A,x_B,value\n0,0,1.0\n1,1,abc\n", 3, "could not convert"),
        ("x_A,x_B,value\n0,0\n", 2, "float"),
        ("x_A,x_B,value\n0,one,1.0\n", 2, "invalid literal"),
        ("x_A,x_B,value\n0,0,nan\n", 2, "'nan' is not finite"),
        ("x_A,x_B,value\n0,0,1.0\n-1,2,-inf\n", 3, "'-inf' is not finite"),
        ("x_A,x_B,value\n0,0,1.0\n1,2,2.0\n0,0,3.0\n", 4, "second row for x_A=0, x_B=0"),
        ("x_A,x_B,value\n4,0,1.0\n", 2, "site 4 outside lattice"),
        # a table for a smaller lattice: no line to name, the first missing pair instead
        (table_text(range(-2, 3)), None, "no row for x_A=-3, x_B=-3$"),
    ],
    ids=["no-value", "no-x_B", "unparsed", "short-row", "bad-label", "nan", "inf",
         "duplicate", "off-lattice", "smaller-lattice"],
)
def test_table_from_csv_names_file_and_line_of_a_defect(tmp_path, text, line, message):
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match=message) as info:
        table_from_csv(path, GEOM)
    assert str(info.value).startswith(f"{path}:{line}: " if line else f"{path}: ")


def test_race_surface_is_antisymmetric():
    """With identical coins, swapping the players mirrors the payoff."""
    spec = InteractionSpec(InteractionKind.COLLISION_PHASE, np.pi)
    config = WalkConfig(LatticeGeometry(11), 4, (1, 0), (1, 0), spec)
    ev = WalkEvaluator(config, GameSpec(GameKind.RACE))
    surface = surface_from_evaluator(ev, StrategyGrid(7))
    np.testing.assert_allclose(surface.u_a, -surface.u_a.T, atol=1e-9)
    np.testing.assert_allclose(surface.u_b, -surface.u_a, atol=0)
