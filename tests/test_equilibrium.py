"""Strategy-space machinery exercised on analytic games where best responses,
stationary points, Jacobians, and learning behavior are known in closed form.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    FunctionEvaluator,
    fd_gradients,
    fd_jacobian,
    full_lattice_distributions,
    golden_max,
)
from qwgames.equilibrium import (
    BOUNDARY_TOL,
    TIE_TOL,
    PayoffSurface,
    StationaryPoint,
    StrategyGrid,
    WalkEvaluator,
    _golden_max,
    best_responses,
    distributions,
    find_stationary,
    gradients,
    jacobian_at,
    learn,
    realizations,
    shared_surfaces,
    surface_from_evaluator,
    vector_field,
)
import qwgames.equilibrium as equilibrium
from qwgames.dynamics import (
    WalkConfig,
    chunk_profiles,
    evolve,
    evolve_single,
    evolve_singles,
    reach,
)
from qwgames.games import GameKind, GameSpec, payoff, payoffs
from qwgames.hilbert import (
    Boundary,
    JointDistribution,
    LatticeGeometry,
    ValidationError,
    born_single,
    measure_joint,
)
from qwgames.interactions import InteractionKind, InteractionSpec

A_STAR, B_STAR = 1.5, 1.2


def quad_game(ta, tb):
    """Coupled concave quadratic with interior fixed point (1.5, 1.2) and
    gradient-dynamics Jacobian [[-2, 1], [1, -2]]."""
    da, db = ta - A_STAR, tb - B_STAR
    return -da * da + da * db, -db * db + da * db


QUAD = FunctionEvaluator(quad_game)


def test_grid_values_and_spacing():
    grid = StrategyGrid(5)
    np.testing.assert_allclose(grid.values, np.linspace(0, np.pi, 5))
    assert grid.spacing == pytest.approx(np.pi / 4)
    with pytest.raises(ValidationError):
        StrategyGrid(1)


def test_best_responses_ignore_payoff_scaling():
    grid = StrategyGrid(21)
    surface = surface_from_evaluator(QUAD, grid)
    scaled = surface_from_evaluator(
        FunctionEvaluator(lambda a, b: tuple(5.0 * u for u in quad_game(a, b))), grid
    )
    for got, want in zip(best_responses(scaled)[0], best_responses(surface)[0]):
        np.testing.assert_array_equal(got, want)


def test_gradients_match_analytic():
    pts = [[1.0, 2.0], [0.0, np.pi], [2.5, 0.3]]  # includes boundary stencils
    g = gradients(QUAD, pts)
    for (ta, tb), (ga, gb) in zip(pts, g):
        assert ga == pytest.approx(-2 * (ta - A_STAR) + (tb - B_STAR), abs=1e-6)
        assert gb == pytest.approx(-2 * (tb - B_STAR) + (ta - A_STAR), abs=1e-6)


def test_vector_field_shapes_and_values():
    grid = StrategyGrid(5)
    ga, gb = vector_field(QUAD, grid)
    assert ga.shape == gb.shape == (5, 5)
    ta = grid.values[2]
    tb = grid.values[1]
    assert ga[2, 1] == pytest.approx(-2 * (ta - A_STAR) + (tb - B_STAR), abs=1e-6)


def test_find_stationary_recovers_interior_fixed_point():
    surface = surface_from_evaluator(QUAD, StrategyGrid(61))
    points = find_stationary(surface, QUAD)
    interior = [p for p in points if p.interior]
    assert interior
    best = min(
        interior, key=lambda p: np.hypot(p.theta_a - A_STAR, p.theta_b - B_STAR)
    )
    assert best.status == "refined"
    assert best.theta_a == pytest.approx(A_STAR, abs=2e-3)
    assert best.theta_b == pytest.approx(B_STAR, abs=2e-3)
    assert max(np.abs(best.grad_residual)) < 1e-3


def test_find_stationary_flags_boundary_points():
    # both payoffs increase monotonically, pushing the argmax to theta = pi
    ev = FunctionEvaluator(lambda a, b: (a, b))
    surface = surface_from_evaluator(ev, StrategyGrid(21))
    points = find_stationary(surface, ev)
    assert points
    assert all(p.status == "boundary" for p in points)
    assert not points[0].interior


def test_jacobian_matches_analytic():
    rep = jacobian_at((A_STAR, B_STAR), QUAD)
    np.testing.assert_allclose(rep.matrix, [[-2, 1], [1, -2]], atol=1e-4)
    assert rep.verdict == "stable"
    assert rep.stable
    np.testing.assert_allclose(sorted(rep.eigenvalues.real), [-3, -1], atol=1e-4)
    assert rep.spectral_radius == pytest.approx(0.95, abs=1e-3)
    assert not rep.boundary_caveat


def test_jacobian_reports_an_overflowing_spectral_radius_as_inf():
    rep = jacobian_at((A_STAR, B_STAR), QUAD, eta=1e308)
    assert rep.verdict == "stable" and rep.spectral_radius == np.inf


def test_jacobian_near_boundary_carries_caveat():
    rep = jacobian_at((0.0, 1.0), QUAD)
    assert rep.boundary_caveat


def test_jacobian_unstable_and_marginal_verdicts():
    unstable = jacobian_at((1.0, 1.0), FunctionEvaluator(lambda a, b: (a * a, b * b)))
    assert unstable.verdict == "unstable"
    flat = jacobian_at((1.0, 1.0), FunctionEvaluator(lambda a, b: (0.0, 0.0)))
    assert flat.verdict == "marginal"


def test_uncoupled_game_has_zero_cross_terms():
    ev = FunctionEvaluator(lambda a, b: (-((a - 1) ** 2), -((b - 2) ** 2)))
    rep = jacobian_at((1.0, 2.0), ev)
    assert rep.matrix[0, 1] == pytest.approx(0.0, abs=1e-8)
    assert rep.matrix[1, 0] == pytest.approx(0.0, abs=1e-8)


def test_learn_converges_to_stable_fixed_point():
    for ang in np.linspace(0, 2 * np.pi, 8, endpoint=False):
        start = (A_STAR + 0.2 * np.cos(ang), B_STAR + 0.2 * np.sin(ang))
        res = learn(QUAD, start, eta=0.05, max_iters=500)
        assert res.converged, res.message
        ta, tb = res.trajectory[-1]
        assert ta == pytest.approx(A_STAR, abs=5e-3)
        assert tb == pytest.approx(B_STAR, abs=5e-3)


def test_learn_clamps_at_domain_edge():
    ev = FunctionEvaluator(lambda a, b: (a, b))  # constant unit gradient
    res = learn(ev, (3.0, 3.0), eta=0.1, max_iters=50)
    assert not res.converged
    assert res.clamp_events > 0
    np.testing.assert_allclose(res.trajectory[-1], [np.pi, np.pi], atol=1e-12)


def test_learn_detects_growing_oscillation():
    # eta * |J| > 2 makes the gradient iteration overshoot and blow up;
    # the clamp turns that into a persistent full-swing oscillation
    ev = FunctionEvaluator(lambda a, b: (-30 * (a - 1.5) ** 2, -30 * (b - 1.5) ** 2))
    res = learn(ev, (1.4, 1.4), eta=0.05, max_iters=500)
    assert not res.converged


def test_walk_evaluator_matches_surface_sweep():
    config = WalkConfig(
        LatticeGeometry(11),
        4,
        interaction=InteractionSpec(InteractionKind.COLLISION_PHASE, np.pi),
    )
    game = GameSpec(GameKind.RACE)
    ev = WalkEvaluator(config, game)
    grid = StrategyGrid(5)
    surface = surface_from_evaluator(ev, grid)
    ua, ub = ev.evaluate(grid.values[1], grid.values[3])
    assert surface.u_a[1, 3] == pytest.approx(ua, abs=1e-12)
    assert surface.u_b[1, 3] == pytest.approx(ub, abs=1e-12)


def seed_average(columns):
    """Mean over seeds of per-seed (B,) columns, one profile at a time; a
    single seed is taken as is."""
    if len(columns) == 1:
        return columns[0]
    return np.array([np.mean(per_profile) for per_profile in np.column_stack(columns)])


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_distribution_rows_are_measure_joint_of_evolve():
    geom = LatticeGeometry(31, Boundary.REFLECTING)
    spec = InteractionSpec(InteractionKind.COIN_DEPENDENT, 1.3)
    config = WalkConfig(geom, 6, (1, 0), (0.6, 0.8j), spec)
    n = chunk_profiles(geom, 6) + 3  # a full chunk and a partial one
    thetas = np.random.default_rng(2).uniform(0, np.pi, size=(n, 2))
    probs = distributions(config, thetas)
    window = reach(geom, 6)
    for k, (ta, tb) in enumerate(thetas):
        want = measure_joint(evolve(config, ta, tb), geom).probabilities
        assert probs[k].tobytes() == want[window, window].tobytes(), k


def test_walk_evaluator_ensemble_averages_noise():
    spec = InteractionSpec(InteractionKind.NOISY_COLLISION, 1.0, noise_sigma=0.5)
    config = WalkConfig(LatticeGeometry(11), 4, interaction=spec)
    game = GameSpec(GameKind.RACE)
    one = WalkEvaluator(config, game).evaluate(1.0, 2.0)
    avg = WalkEvaluator(replace(config, ensemble=4), game).evaluate(1.0, 2.0)
    manual = np.mean(
        [WalkEvaluator(replace(config, seed=s), game).evaluate(1.0, 2.0) for s in range(4)],
        axis=0,
    )
    assert avg != one
    np.testing.assert_allclose(avg, manual, atol=1e-12)

    # every points column is the per-seed payoffs' mean, bit for bit; (0, 0)
    # and (pi, pi) keep both walkers together, so one seed gives u_B = -0.0
    thetas = np.array([[0.0, 0.0], [1.0, 2.0], [2.5, 0.3], [np.pi, np.pi]])
    for ensemble in (1, 3, 9):
        ev = WalkEvaluator(replace(config, seed=2, ensemble=ensemble), game)
        assert [walk.seed for walk in realizations(ev.config)] == list(range(2, 2 + ensemble))
        per_seed = [
            payoffs(distributions(walk, thetas), config.geometry, game)
            for walk in realizations(ev.config)
        ]
        u_a, u_b, aux = ev.points(thetas)
        assert_same_bits(u_a, seed_average([p[0] for p in per_seed]))
        assert_same_bits(u_b, seed_average([p[1] for p in per_seed]))
        assert aux.keys() == per_seed[0][2].keys()
        for key, value in aux.items():
            assert_same_bits(value, seed_average([p[2][key] for p in per_seed]))
        evaluated = np.array([ev.evaluate(ta, tb) for ta, tb in thetas])
        assert_same_bits(evaluated, np.column_stack([u_a, u_b]))


@pytest.mark.parametrize(
    "spec",
    [
        InteractionSpec(InteractionKind.COLLISION_PHASE, 1.0, noise_sigma=0.5),
        InteractionSpec(InteractionKind.NOISY_COLLISION, 1.0),
    ],
    ids=["collision-with-sigma", "noisy-without-sigma"],
)
def test_deterministic_walk_is_its_one_realization(spec):
    config = WalkConfig(LatticeGeometry(11), 4, interaction=spec, ensemble=3)
    # the walk itself, not a copy: ensemble and seed draw nothing here
    (walk,) = realizations(config)
    assert walk is config


# the complex pair right (x) symmetric, whose first-order coupling is nonzero
RIGHT_SYMMETRIC = ((1, 0), (1 / np.sqrt(2), 1j / np.sqrt(2)))
NO_OP_KINDS = [
    InteractionKind.NONE,
    InteractionKind.COLLISION_PHASE,
    InteractionKind.ATTRACTIVE_COLLISION,
    InteractionKind.LONG_RANGE,
    InteractionKind.COIN_DEPENDENT,
]
THREE_GAMES = [GameSpec(k) for k in (GameKind.RACE, GameKind.RENDEZVOUS, GameKind.TUG_OF_WAR)]


def joint_points(walks, thetas, game):
    """The seed-averaged payoff columns of walks, from the joint kernel."""
    per_seed = [payoffs(distributions(walk, thetas), walk.geometry, game) for walk in walks]
    u_a, u_b = (seed_average([p[k] for p in per_seed]) for k in (0, 1))
    return u_a, u_b, {key: seed_average([p[2][key] for p in per_seed]) for key in per_seed[0][2]}


def count_evolved_profiles(monkeypatch) -> list:
    """Patch the joint kernel as the evaluators see it; returns the list that
    collects the batch size of every call."""
    sizes = []

    def counted(config, thetas):
        sizes.append(len(thetas))
        return evolve_batch(config, thetas)

    evolve_batch = equilibrium.evolve_batch
    monkeypatch.setattr(equilibrium, "evolve_batch", counted)
    return sizes


def test_distributions_chunk_by_the_reach_window(monkeypatch):
    # T = 10 on L = 31 evolves 11 x 11 joint sites on the light cone: 4 * 121
    # amplitudes a profile, 33 profiles to a chunk; T = 15 evolves 16 x 16;
    # from T = 16 on, the whole lattice
    geom = LatticeGeometry(31)
    assert chunk_profiles(geom, 10) == 33
    assert chunk_profiles(geom, 15) == 16
    assert chunk_profiles(geom, 16) == chunk_profiles(geom, 40) == 4
    spec = InteractionSpec(InteractionKind.COLLISION_PHASE, 1.0)
    config = WalkConfig(geom, 10, interaction=spec)
    sizes = count_evolved_profiles(monkeypatch)
    thetas = np.random.default_rng(3).uniform(0, np.pi, (70, 2))
    probs = distributions(config, thetas)
    assert sizes == [33, 33, 4]
    assert probs.shape == (70, 11, 11)
    assert probs.any(axis=(1, 2)).all()
    # bitwise the whole lattice's P on the reach sites, which is zero elsewhere
    full = full_lattice_distributions(config, thetas)
    window = reach(geom, 10)
    assert probs.tobytes() == full[:, window, window].tobytes()
    full[:, window, window] = 0.0
    assert not full.any()


@pytest.mark.parametrize("boundary", list(Boundary), ids=lambda b: b.value)
@pytest.mark.parametrize("kind", NO_OP_KINDS, ids=lambda k: k.value)
def test_inert_walk_takes_the_product_path_and_agrees_with_the_joint_kernel(
    kind, boundary, monkeypatch
):
    # T = 6 reaches the edges of L = 11, so the boundary rule matters
    config = WalkConfig(LatticeGeometry(11, boundary), 6, *RIGHT_SYMMETRIC, InteractionSpec(kind))
    assert config.interaction.inert
    thetas = StrategyGrid(7).profiles
    sizes = count_evolved_profiles(monkeypatch)
    for game in THREE_GAMES:
        want = joint_points([config], thetas, game)
        sizes.clear()
        got = WalkEvaluator(config, game).points(thetas)
        assert sizes == []  # no joint evolution
        for g, w in zip(got[:2], want[:2]):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
        assert got[2].keys() == want[2].keys()
        for key in want[2]:
            np.testing.assert_allclose(got[2][key], want[2][key], rtol=0, atol=1e-12)


def test_noisy_collision_at_strength_zero_stays_on_the_joint_kernel():
    # the jitter still rides on the collision diagonal, so the walkers interact
    spec = InteractionSpec(InteractionKind.NOISY_COLLISION, 0.0, noise_sigma=0.5)
    config = WalkConfig(LatticeGeometry(11), 4, *RIGHT_SYMMETRIC, spec, seed=3, ensemble=3)
    assert not spec.inert
    thetas = StrategyGrid(5).profiles
    ev = WalkEvaluator(config, GameSpec(GameKind.RACE))
    u_a, u_b, aux = ev.points(thetas)
    want = joint_points(realizations(config), thetas, ev.game)
    for got, w in zip([u_a, u_b, *aux.values()], [*want[:2], *want[2].values()]):
        assert_same_bits(got, w)
    product = payoffs(
        equilibrium.product_distributions(config, thetas), config.geometry, ev.game
    )[0]
    assert np.max(np.abs(u_a - product)) > 1e-3


@pytest.mark.parametrize(
    "spec", [InteractionSpec(), InteractionSpec(InteractionKind.COLLISION_PHASE, 1.3)],
    ids=["inert", "joint"],
)
@pytest.mark.parametrize("steps", [4, 8])  # on the light cone of L = 11, and past it
def test_no_profiles_give_empty_distributions_and_columns(spec, steps):
    config = WalkConfig(LatticeGeometry(11), steps, *RIGHT_SYMMETRIC, spec)
    n = len(range(11)[reach(config.geometry, steps)])
    none = np.zeros((0, 2))
    assert distributions(config, none).shape == (0, n, n)
    assert equilibrium.product_distributions(config, none).shape == (0, n, n)
    u_a, u_b, aux = WalkEvaluator(config, GameSpec(GameKind.RACE)).points(none)
    assert u_a.shape == u_b.shape == (0,)
    assert aux and all(v.shape == (0,) for v in aux.values())


@pytest.mark.parametrize(
    "spec, ensemble",
    [
        (InteractionSpec(InteractionKind.COLLISION_PHASE, np.pi), 1),
        (InteractionSpec(InteractionKind.NOISY_COLLISION, 1.0, noise_sigma=0.5), 3),
        (InteractionSpec(InteractionKind.COLLISION_PHASE, 0.0), 1),
    ],
    ids=["collision", "noisy-ensemble-3", "inert"],
)
def test_shared_surfaces_are_bitwise_per_game_surfaces(spec, ensemble, monkeypatch):
    config = WalkConfig(LatticeGeometry(11), 4, *RIGHT_SYMMETRIC, spec, seed=1, ensemble=ensemble)
    games = [GameSpec(k) for k in (GameKind.RACE, GameKind.TUG_OF_WAR)]
    grid = StrategyGrid(6)
    sizes = count_evolved_profiles(monkeypatch)
    shared = shared_surfaces(config, games, grid)
    # the grid is evolved once per noise realization, whatever the game count
    assert sum(sizes) == (0 if spec.inert else grid.n**2 * ensemble)
    for game, surface in zip(games, shared):
        alone = surface_from_evaluator(WalkEvaluator(config, game), grid)
        assert surface.aux.keys() == alone.aux.keys()
        for got, want in zip(
            [surface.u_a, surface.u_b, *surface.aux.values()],
            [alone.u_a, alone.u_b, *alone.aux.values()],
        ):
            assert_same_bits(got, want)


# initial coins of the exchange tests: equal coins make every kind symmetric
COINS = {"right": (1, 0), "symmetric": (1 / np.sqrt(2), 1j / np.sqrt(2))}
ALL_KINDS = [InteractionSpec(k, 1.0) for k in InteractionKind]
# tables with no symmetry of their own, reduced on the mirrored P as given
RANDOM_TABLES = GameSpec(GameKind.CUSTOM_TABLE, *np.random.default_rng(4).random((2, 11, 11)))


def assert_columns(got, want, atol=None):
    """(u_a, u_b, aux) columns equal bit for bit, or within atol."""
    assert got[2].keys() == want[2].keys()
    for g, w in zip([*got[:2], *got[2].values()], [*want[:2], *want[2].values()]):
        if atol is None:
            assert_same_bits(g, w)
        else:
            np.testing.assert_allclose(g, w, rtol=0, atol=atol)


@pytest.mark.parametrize("coin", list(COINS))
@pytest.mark.parametrize("boundary", list(Boundary), ids=lambda b: b.value)
@pytest.mark.parametrize(
    "spec, ensemble",
    [(spec, 1) for spec in ALL_KINDS]
    + [(InteractionSpec(InteractionKind.NOISY_COLLISION, 1.0, noise_sigma=0.5), 2)],
    ids=[spec.kind.value for spec in ALL_KINDS] + ["noisy_collision-ensemble-2"],
)
def test_equal_coins_evolve_each_mirrored_pair_once(spec, ensemble, boundary, coin, monkeypatch):
    # T = 6 reaches the edges of L = 11, so the boundary rule matters
    c = COINS[coin]
    config = WalkConfig(LatticeGeometry(11, boundary), 6, c, c, spec, seed=2, ensemble=ensemble)
    grid = StrategyGrid(9)
    sizes = count_evolved_profiles(monkeypatch)
    for game in [*THREE_GAMES, RANDOM_TABLES]:
        ev = WalkEvaluator(config, game)
        want = joint_points(realizations(config), grid.profiles, game)
        sizes.clear()
        assert_columns(ev.points(grid.profiles), want, atol=1e-14)
        # the diagonal and the upper triangle, once per noise realization
        assert sum(sizes) == (0 if spec.inert else 45 * len(realizations(config)))


def test_unequal_coins_evolve_every_profile(monkeypatch):
    spec = InteractionSpec(InteractionKind.COLLISION_PHASE, np.pi)
    config = WalkConfig(LatticeGeometry(11), 6, *RIGHT_SYMMETRIC, spec)
    thetas = StrategyGrid(9).profiles
    sizes = count_evolved_profiles(monkeypatch)
    for game in THREE_GAMES:
        want = joint_points([config], thetas, game)
        sizes.clear()
        assert_columns(WalkEvaluator(config, game).points(thetas), want)
        assert sum(sizes) == 81


def test_a_batch_without_mirrors_keeps_its_bits(monkeypatch):
    # a golden-section probe column: theta_B fixed, theta_A on both sides of
    # it and on the diagonal, and no profile's mirror in the batch
    config = WalkConfig(
        LatticeGeometry(11), 6, interaction=InteractionSpec(InteractionKind.COLLISION_PHASE, np.pi)
    )
    thetas = np.column_stack([np.linspace(0.2, 2.9, 12), np.full(12, 1.4)])
    thetas[5, 0] = 1.4
    sizes = count_evolved_profiles(monkeypatch)
    for game in THREE_GAMES:
        want = joint_points([config], thetas, game)
        sizes.clear()
        assert_columns(WalkEvaluator(config, game).points(thetas), want)
        assert sum(sizes) == 12


def test_race_sweep_evolves_the_upper_triangle(monkeypatch):
    # the race recipe's 61 x 61 surface at its default walk
    config = WalkConfig(
        LatticeGeometry(15), 20, interaction=InteractionSpec(InteractionKind.COLLISION_PHASE, np.pi)
    )
    sizes = count_evolved_profiles(monkeypatch)
    surface_from_evaluator(WalkEvaluator(config, GameSpec(GameKind.RACE)), StrategyGrid(61))
    assert sum(sizes) == 61 * 62 // 2 == 1891


def test_function_evaluator_points_are_two_columns_and_no_aux():
    thetas = np.array([[0.5, 1.0], [1.5, 1.2], [2.0, 0.1]])
    u_a, u_b, aux = QUAD.points(thetas)
    want = np.array([quad_game(ta, tb) for ta, tb in thetas])
    assert_same_bits(u_a, want[:, 0])
    assert_same_bits(u_b, want[:, 1])
    assert aux == {}
    surface = surface_from_evaluator(QUAD, StrategyGrid(3))
    assert surface.u_a.shape == surface.u_b.shape == (3, 3)
    assert surface.aux == {}


def per_profile_utilities(p, x, game):
    """u_A, u_B of one (L, L) distribution, written out per game."""
    xa, xb = x[:, None], x[None, :]
    if game.kind is GameKind.RACE:
        u = float(np.sum(p * (xa - xb)))
        return u, -u
    if game.kind is GameKind.RENDEZVOUS:
        sep = float(np.sum(p * np.abs(xa - xb)))
        return -sep, -sep
    if game.kind is GameKind.TUG_OF_WAR:
        u = float(np.sum(p * 0.5 * (xa + xb)))
        return u, -u
    return float(np.sum(p * game.table_a)), float(np.sum(p * game.table_b))


def assert_window_payoffs(got, k, full, geom, game, window):
    """Profile k of the points columns got, against P on the whole lattice,
    full: bitwise the per-profile reduction of P on the reach sites; and the
    payoff of full, bitwise past (L - 1) / 2, where the reach sites are the
    lattice, within 1e-13 on the light cone, where the sums run in another
    order."""
    u_a, u_b, aux = got
    x = geom.positions.astype(float)
    tables = [t[window, window] for t in (game.table_a, game.table_b) if t is not None]
    cut = np.ascontiguousarray(full[window, window]), x[window], GameSpec(game.kind, *tables)
    assert (u_a[k], u_b[k]) == per_profile_utilities(*cut)
    want = payoff(JointDistribution(full, geom), game)
    assert aux.keys() == want.aux.keys()
    if window == slice(0, geom.size):
        assert (u_a[k], u_b[k]) == (want.u_a, want.u_b)
        assert (u_a[k], u_b[k]) == per_profile_utilities(full, x, game)
    else:
        np.testing.assert_allclose((u_a[k], u_b[k]), (want.u_a, want.u_b), rtol=0, atol=1e-13)
    for key, value in want.aux.items():
        assert aux[key][k] == pytest.approx(value, abs=1e-13)


def assert_joint_points_are_window_payoffs(kind, steps):
    """`assert_window_payoffs` on every profile of a T = steps joint walk on
    L = 31, two chunks and a partial one in a single points call."""
    geom = LatticeGeometry(31, Boundary.REFLECTING)
    rng = np.random.default_rng(5)
    tables = rng.random((2, 31, 31)) if kind is GameKind.CUSTOM_TABLE else ()
    game = GameSpec(kind, *tables)
    spec = InteractionSpec(InteractionKind.COLLISION_PHASE, 2.0)
    config = WalkConfig(geom, steps, (1, 0), (0.6, 0.8j), spec)
    thetas = rng.uniform(0, np.pi, size=(2 * chunk_profiles(geom, steps) + 3, 2))
    got = WalkEvaluator(config, game).points(thetas)
    window = reach(geom, steps)
    for k, (ta, tb) in enumerate(thetas):
        full = measure_joint(evolve(config, ta, tb), geom).probabilities
        assert_window_payoffs(got, k, full, geom, game, window)


@pytest.mark.parametrize("kind", list(GameKind))
def test_walk_evaluator_points_are_bitwise_per_profile_payoffs(kind):
    # T = 8 on L = 31 evolves the light cone
    assert_joint_points_are_window_payoffs(kind, 8)


@pytest.mark.parametrize("kind", list(GameKind))
def test_walk_evaluator_points_past_the_light_cone_are_the_whole_lattice(kind):
    # T = 16 on L = 31 evolves the whole lattice: bitwise its payoffs
    assert_joint_points_are_window_payoffs(kind, 16)


@pytest.mark.parametrize("kind", list(GameKind))
def test_product_points_are_bitwise_per_profile_payoffs_on_the_window(kind):
    # an inert light-cone walk (acceptance 4's, T = 10 on L = 25) takes the
    # product path: p_A (x) p_B on the reach sites, zero elsewhere
    geom = LatticeGeometry(25, Boundary.REFLECTING)
    rng = np.random.default_rng(6)
    tables = rng.random((2, 25, 25)) if kind is GameKind.CUSTOM_TABLE else ()
    game = GameSpec(kind, *tables)
    config = WalkConfig(geom, 10, *RIGHT_SYMMETRIC)
    assert config.interaction.inert
    thetas = StrategyGrid(5).profiles
    got = WalkEvaluator(config, game).points(thetas)
    window = reach(geom, 10)
    for k, (ta, tb) in enumerate(thetas):
        p_a, p_b = (
            born_single(evolve_single(geom, 10, theta, coin))
            for theta, coin in ((ta, config.coin_a), (tb, config.coin_b))
        )
        full = np.outer(p_a, p_b)
        assert_window_payoffs(got, k, full, geom, game, window)
        full[window, window] = 0.0
        assert not full.any()


@pytest.mark.parametrize(
    "coins, walks",
    [((RIGHT_SYMMETRIC[1],) * 2, [[5]]), (RIGHT_SYMMETRIC, [[4], [3]])],
    ids=["equal-coins", "unequal-coins"],
)
@pytest.mark.parametrize("steps", [4, 6])  # on the light cone and past it
def test_product_path_walks_each_distinct_angle_once(coins, walks, steps, monkeypatch):
    # equal coins: one single walk over the union of both players' angles
    geom = LatticeGeometry(11, Boundary.REFLECTING)
    config = WalkConfig(geom, steps, *coins)
    a, b = [0.0, 0.5, 1.0, np.pi], [0.5, 2.0, np.pi]
    thetas = np.array([(ta, tb) for ta in a for tb in b])
    calls = []

    def counted(geometry, steps, angles, coin):
        calls.append([len(angles)])
        return evolve_singles(geometry, steps, angles, coin)

    monkeypatch.setattr(equilibrium, "evolve_singles", counted)
    probs = equilibrium.product_distributions(config, thetas)
    assert calls == walks
    window = reach(geom, steps)
    for k, (ta, tb) in enumerate(thetas):
        p_a, p_b = (
            born_single(evolve_single(geom, steps, theta, coin))[window]
            for theta, coin in ((ta, config.coin_a), (tb, config.coin_b))
        )
        assert probs[k].tobytes() == np.outer(p_a, p_b).tobytes(), k


@pytest.mark.parametrize("kind", list(GameKind))
def test_surface_from_evaluator_reshapes_points_theta_a_major(kind):
    geom = LatticeGeometry(11)
    rng = np.random.default_rng(7)
    tables = rng.random((2, 11, 11)) if kind is GameKind.CUSTOM_TABLE else ()
    spec = InteractionSpec(InteractionKind.NOISY_COLLISION, 1.0, noise_sigma=0.5)
    config = WalkConfig(geom, 4, (1, 0), (0.6, 0.8j), spec, seed=1, ensemble=3)
    ev = WalkEvaluator(config, GameSpec(kind, *tables))
    grid = StrategyGrid(4)
    surface = surface_from_evaluator(ev, grid)
    u_a, u_b, aux = ev.points(grid.profiles)
    assert surface.aux.keys() == aux.keys()
    got = [surface.u_a, surface.u_b, *surface.aux.values()]
    want = [u_a, u_b, *aux.values()]
    for i, ta in enumerate(grid.values):
        for j, tb in enumerate(grid.values):
            one_a, one_b, one_aux = ev.points(np.array([[ta, tb]]))
            for g, w, one in zip(got, want, [one_a, one_b, *one_aux.values()]):
                assert g.shape == (4, 4)
                assert_same_bits(g[i, j], w[i * 4 + j])
                assert_same_bits(g[i, j], one[0])


@pytest.mark.parametrize(
    "g", [lambda t, p: -(t - p) * (t - p), lambda t, p: 0.0 * t], ids=["peaked", "flat"]
)
def test_lanewise_golden_max_matches_scalar_oracle(g):
    # lanes of different widths, two clipped at 0 and pi, peaks inside and
    # outside their intervals; on the flat function every comparison ties
    peaks = np.array([0.3, 1.0, 2.9, -0.2, 3.3, 1.7, 2.2])
    lo = np.array([0.0, 0.9, 2.8, 0.0, 3.0, 1.0, 2.1])
    hi = np.array([0.5, 1.3, np.pi, 0.05, np.pi, 2.5, 2.1 + 1e-6])
    calls = []

    def f(t, lanes):
        calls.append(len(lanes))
        return g(t, peaks[lanes])

    got = _golden_max(f, lo, hi)
    rounds = []
    for k in range(len(lo)):
        probes = []
        want = golden_max(lambda t: probes.append(t) or g(t, peaks[k]), lo[k], hi[k])
        assert got[k] == want
        rounds.append(len(probes) - 1)
    # one call per probe round; lanes leave as their intervals close
    assert len(set(rounds)) > 1
    assert len(calls) == max(rounds)
    assert calls[0] == 2 * len(lo) and calls[-1] == rounds.count(max(rounds))


def loop_best_responses(surface, tol=TIE_TOL):
    """best_responses written as a loop over columns and rows."""
    br_a = []
    for j in range(surface.grid.n):
        col = surface.u_a[:, j]
        br_a.append(np.flatnonzero(col >= col.max() - tol))
    br_b = []
    for i in range(surface.grid.n):
        row = surface.u_b[i, :]
        br_b.append(np.flatnonzero(row >= row.max() - tol))
    return br_a, br_b


def sequential_find_stationary(
    surface, evaluator, grad_h=1e-3, grad_tol=1e-3, max_iters=200, max_candidates=64
):
    """find_stationary refining one candidate at a time through scalar
    golden-section searches and single-profile evaluations; also returns the
    rounds each candidate took."""
    vals = surface.grid.values
    br_a, br_b = loop_best_responses(surface)
    candidates = [(i, j) for j in range(surface.grid.n) for i in br_a[j] if j in br_b[i]]
    w = surface.grid.spacing
    results, rounds = [], []
    for i, j in candidates[:max_candidates]:
        ta, tb = float(vals[i]), float(vals[j])
        status, (ga, gb), n = "unrefined", (np.inf, np.inf), 0
        for n in range(1, max_iters + 1):
            ta = golden_max(
                lambda t: evaluator.evaluate(t, tb)[0], max(0.0, ta - w), min(np.pi, ta + w)
            )
            tb = golden_max(
                lambda t: evaluator.evaluate(ta, t)[1], max(0.0, tb - w), min(np.pi, tb + w)
            )
            ga, gb = fd_gradients(evaluator, [[ta, tb]], grad_h)[0]
            if abs(ga) < grad_tol and abs(gb) < grad_tol:
                status = "refined"
                break
        if min(ta, np.pi - ta) < BOUNDARY_TOL or min(tb, np.pi - tb) < BOUNDARY_TOL:
            status = "boundary"
        u_a, u_b = evaluator.evaluate(ta, tb)
        results.append(StationaryPoint(ta, tb, u_a, u_b, status, (float(ga), float(gb))))
        rounds.append(n)
    merged = []
    for pt in sorted(results, key=lambda p: max(np.abs(p.grad_residual))):
        if all(np.hypot(pt.theta_a - q.theta_a, pt.theta_b - q.theta_b) > 5e-3 for q in merged):
            merged.append(pt)
    return merged, rounds


def tied_surface(n, interior_only=False):
    """All-tie surface: every grid point (or every interior one) is a candidate."""
    u_a, u_b = np.zeros((n, n)), np.zeros((n, n))
    if interior_only:
        u_a[[0, -1], :] = u_b[:, [0, -1]] = -1.0
    return PayoffSurface(StrategyGrid(n), u_a, u_b)


def waves(ta, tb):
    """Many local stationary points, reached in different numbers of rounds."""
    return np.cos(4 * ta - tb), np.cos(4 * tb - ta)


# the sequential oracle's limits and the module constants find_stationary reads
LIMITS = {"max_iters": "MAX_ROUNDS", "max_candidates": "MAX_CANDIDATES"}


@pytest.mark.parametrize("kwargs", [{}, {"max_iters": 1}, {"max_candidates": 5}])
def test_find_stationary_matches_sequential_refinement(kwargs, monkeypatch):
    for key, constant in LIMITS.items():
        if key in kwargs:
            monkeypatch.setattr(equilibrium, constant, kwargs[key])
    surface = tied_surface(9)  # 81 candidates over the whole domain, 64 kept
    ev = FunctionEvaluator(waves)
    got = find_stationary(surface, ev)
    want, rounds = sequential_find_stationary(surface, ev, **kwargs)
    assert got == want
    if not kwargs:
        # lanes leave the lockstep in different rounds; some never converge
        assert len(set(rounds)) > 3 and max(rounds) == 200
        assert {p.status for p in want} == {"refined", "boundary"}
    if "max_iters" in kwargs:
        assert "unrefined" in {p.status for p in want}


def test_find_stationary_matches_sequential_refinement_on_interior_game():
    surface = surface_from_evaluator(QUAD, StrategyGrid(21))
    got = find_stationary(surface, QUAD)
    assert got == sequential_find_stationary(surface, QUAD)[0]
    assert any(p.status == "refined" for p in got)


def test_find_stationary_matches_sequential_refinement_on_flat_walk():
    # symmetric initial coins give a race surface that is zero up to
    # rounding, so every grid point ties and golden comparisons see noise
    coin = (1 / np.sqrt(2), 1j / np.sqrt(2))
    spec = InteractionSpec(InteractionKind.COLLISION_PHASE, np.pi)
    config = WalkConfig(LatticeGeometry(9), 3, coin, coin, spec)
    ev = WalkEvaluator(config, GameSpec(GameKind.RACE))
    surface = surface_from_evaluator(ev, StrategyGrid(9))
    assert np.max(np.abs(surface.u_a)) < 1e-14
    got = find_stationary(surface, ev)
    # the 64 refined candidates merge to a count set by the rounding noise
    assert len(got) == 62
    assert got == sequential_find_stationary(surface, ev)[0]


class CountingEvaluator(FunctionEvaluator):
    def __init__(self, fn):
        super().__init__(fn)
        self.calls = self.profiles = 0

    def points(self, thetas):
        self.calls += 1
        self.profiles += len(thetas)
        return super().points(thetas)


def test_refinement_calls_do_not_grow_with_candidates(monkeypatch):
    # flat game on interior candidates: every lane runs the same rounds
    surface = tied_surface(15, interior_only=True)
    counts = []
    for n in (1, 8, 64):
        monkeypatch.setattr(equilibrium, "MAX_CANDIDATES", n)
        ev = CountingEvaluator(lambda a, b: (0.0, 0.0))
        assert len(find_stationary(surface, ev)) == n
        counts.append((ev.calls, ev.profiles))
    assert counts[0][0] == counts[1][0] == counts[2][0]
    assert counts[0][1] < counts[1][1] < counts[2][1]


def test_grid_profiles_are_theta_a_major_pairs():
    grid = StrategyGrid(3)
    vals = grid.values
    want = [[vals[i], vals[j]] for i in range(3) for j in range(3)]
    assert grid.profiles.tolist() == want


@pytest.mark.parametrize("seed", range(5))
def test_candidate_mask_matches_best_response_loop(seed):
    # small integer payoffs tie often, so columns hold several best responses
    rng = np.random.default_rng(seed)
    u_a, u_b = rng.integers(0, 3, size=(2, 11, 11)).astype(float)
    surface = PayoffSurface(StrategyGrid(11), u_a, u_b)
    for tol in (TIE_TOL, 1.5):
        for got, want in zip(best_responses(surface, tol), loop_best_responses(surface, tol)):
            assert len(got) == len(want) == 11
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
    got = find_stationary(surface, QUAD)
    assert got
    assert got == sequential_find_stationary(surface, QUAD)[0]


def test_find_stationary_warns_when_it_cuts_candidates(monkeypatch):
    monkeypatch.setattr(equilibrium, "MAX_ROUNDS", 1)  # one round keeps it cheap
    surface = tied_surface(9)
    ev = FunctionEvaluator(waves)
    with pytest.warns(UserWarning, match="81 best-response intersections, refining the first 64"):
        got = find_stationary(surface, ev)
    assert got == sequential_find_stationary(surface, ev, max_iters=1)[0]
    monkeypatch.setattr(equilibrium, "MAX_CANDIDATES", 81)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        find_stationary(surface, ev)


H = equilibrium.GRAD_H
# both ends, within the step of each end, and an interior angle
STENCIL_ANGLES = [0.0, H / 2, 1.0, np.pi - H / 2, np.pi]
NOISY_WALK = WalkEvaluator(
    WalkConfig(
        LatticeGeometry(11),
        4,
        *RIGHT_SYMMETRIC,
        InteractionSpec(InteractionKind.NOISY_COLLISION, 1.0, noise_sigma=0.5),
        seed=1,
        ensemble=2,
    ),
    GameSpec(GameKind.TUG_OF_WAR),
)


@pytest.mark.parametrize(
    "ev", [FunctionEvaluator(waves), NOISY_WALK], ids=["waves", "noisy-walk-ensemble-2"]
)
def test_gradients_are_bitwise_the_scalar_stencil(ev):
    pts = np.array([[ta, tb] for ta in STENCIL_ANGLES for tb in STENCIL_ANGLES])
    assert_same_bits(gradients(ev, pts), fd_gradients(ev, pts, H))


# a deterministic walk, whose payoff columns are contiguous arrays
WALK = WalkEvaluator(
    WalkConfig(
        LatticeGeometry(11),
        4,
        *RIGHT_SYMMETRIC,
        InteractionSpec(InteractionKind.COLLISION_PHASE, np.pi),
    ),
    GameSpec(GameKind.TUG_OF_WAR),
)


@pytest.mark.parametrize(
    "ev",
    [FunctionEvaluator(waves), NOISY_WALK, WALK],
    ids=["waves", "noisy-walk-ensemble-2", "walk"],
)
def test_jacobian_is_bitwise_the_scalar_stencil(ev):
    h = equilibrium.JACOBIAN_H
    for ta, tb in [(1.0, 2.0), (0.0, h / 2), (np.pi, 1.0), (np.pi - h / 2, np.pi)]:
        rep = jacobian_at((ta, tb), ev)
        assert_same_bits(rep.matrix, fd_jacobian(ev, ta, tb, h))
        assert rep.boundary_caveat == ((ta, tb) != (1.0, 2.0))


@pytest.mark.parametrize("n", [2, 5, 31])
def test_vector_field_is_one_call_without_the_centre_probes(n):
    # interior angles take 2 probes per axis, the two ends 3
    ev = CountingEvaluator(waves)
    grid = StrategyGrid(n)
    ga, gb = vector_field(ev, grid)
    assert (ev.calls, ev.profiles) == (1, 4 * n * n + 4 * n)
    want = fd_gradients(ev, grid.profiles, H)
    assert_same_bits(ga.ravel(), want[:, 0])
    assert_same_bits(gb.ravel(), want[:, 1])
