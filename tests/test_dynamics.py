import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    channel_major,
    dense_interaction,
    dense_joint_step,
    dense_single_step,
    distributions,
    full_lattice_distributions,
    kernel_steps,
    make_initial_state,
    noise_draws,
    product_shift_permutation,
    random_joint_state,
    recurrence_evolve,
    site_major_singles,
)
from qwgames.cli import COIN_CATALOG
from qwgames.dynamics import (
    WalkConfig,
    _plan,
    _shift_permutation,
    chunk_profiles,
    coin_matrix,
    evolve,
    evolve_batch,
    evolve_single,
    evolve_singles,
    reach,
)
import qwgames.dynamics as dynamics
import qwgames.equilibrium as equilibrium
import qwgames.interactions as interactions
from qwgames.equilibrium import WalkEvaluator, walk_distributions
from qwgames.games import GameKind, GameSpec
from qwgames.hilbert import (
    Boundary,
    LatticeGeometry,
    ValidationError,
    born,
    measure_joint,
)
from qwgames.interactions import InteractionKind, InteractionSpec

GEOM5 = LatticeGeometry(5)
SYMMETRIC = (1 / np.sqrt(2), 1j / np.sqrt(2))

DETERMINISTIC_KINDS = [
    InteractionKind.NONE,
    InteractionKind.COLLISION_PHASE,
    InteractionKind.ATTRACTIVE_COLLISION,
    InteractionKind.LONG_RANGE,
    InteractionKind.COIN_DEPENDENT,
]


@pytest.mark.parametrize(
    "thetas", [[-0.1, 1.0], [1.0, np.pi + 0.1], [np.nan, 1.0], [1.0, np.inf]]
)
def test_angles_outside_the_domain_are_rejected(thetas):
    config = WalkConfig(GEOM5, 1)
    evolve_batch(config, [[0.0, np.pi]])
    evolve_singles(GEOM5, 1, [0.0, np.pi], (1, 0))
    with pytest.raises(ValidationError):
        evolve_batch(config, [[0.5, 0.5], thetas])
    with pytest.raises(ValidationError):
        evolve(config, *thetas)
    with pytest.raises(ValidationError):
        evolve_singles(GEOM5, 1, thetas, (1, 0))


@pytest.mark.parametrize("steps", [1, 3])  # on the light cone and past it
def test_walks_reject_a_coin_that_is_not_normalized(steps):
    # a walk checks its coins once, when it is built
    with pytest.raises(ValidationError, match="player A is not normalized"):
        WalkConfig(GEOM5, steps, (0.6, 0.6), (1, 0))
    with pytest.raises(ValidationError, match="player B is not normalized"):
        WalkConfig(GEOM5, steps, (1, 0), (1, 1))
    with pytest.raises(ValidationError, match="player B must be a 2-vector"):
        WalkConfig(GEOM5, steps, (1, 0), (1, 0, 0))
    with pytest.raises(ValidationError, match="player single is not normalized"):
        evolve_singles(GEOM5, steps, [0.0], (0.6, 0.6))


def test_config_rejects_an_empty_ensemble():
    with pytest.raises(ValidationError, match="ensemble must be >= 1, got 0"):
        WalkConfig(GEOM5, 1, ensemble=0)


def test_config_rejects_a_negative_seed():
    # numpy's generator takes no negative seed, so a noisy walk could not draw
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        WalkConfig(GEOM5, 1, seed=-1)
    assert WalkConfig(GEOM5, 1, seed=0).seed == 0


def test_coin_matrix_half_angle_values():
    np.testing.assert_allclose(coin_matrix(0.0), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(
        coin_matrix(np.pi), np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-15
    )
    m = coin_matrix(np.pi / 2)
    assert m[0, 0] == pytest.approx(np.cos(np.pi / 4))
    np.testing.assert_allclose(m @ m.T, np.eye(2), atol=1e-15)


def test_shift_moves_right_coin_right():
    # the coin at angle 0 is the identity, so one step is the shift alone
    out = evolve(WalkConfig(GEOM5, 1, (1, 0), (0, 1)), 0.0, 0.0)
    o = GEOM5.offset(0)
    # A carries |R> and moves +1; B carries |L> and moves -1
    assert out[o + 1, 0, o - 1, 1] == pytest.approx(1.0)
    assert np.count_nonzero(out) == 1


@pytest.mark.parametrize("size", [3, 15, 31])
@pytest.mark.parametrize("rule", [None, *Boundary], ids=lambda r: getattr(r, "value", "cone"))
def test_joint_shift_is_the_product_of_the_walkers_sources(rule, size):
    # the gather composed from the two walkers' parts is the one built from
    # the (2, 2, L, L) products of their coins and sites
    perm = _shift_permutation(size, rule)
    reference = product_shift_permutation(size, rule)
    assert perm.dtype == reference.dtype and np.array_equal(perm, reference)
    assert np.array_equal(np.sort(perm), np.arange(4 * size * size))


def test_interaction_preserves_moduli():
    rng = np.random.default_rng(0)
    psi = random_joint_state(GEOM5, rng)
    spec = InteractionSpec(InteractionKind.COLLISION_PHASE, np.pi)
    plain = kernel_steps(WalkConfig(GEOM5, 1), 1.0, 2.0, [0.0], psi)
    out = kernel_steps(WalkConfig(GEOM5, 1, interaction=spec), 1.0, 2.0, [0.0], psi)
    np.testing.assert_allclose(np.abs(out), np.abs(plain), atol=1e-14)
    assert not np.allclose(out, plain)


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.REFLECTING])
@pytest.mark.parametrize("kind", DETERMINISTIC_KINDS)
def test_step_matches_dense_oracle(boundary, kind):
    geom = LatticeGeometry(5, boundary)
    spec = InteractionSpec(kind, 0.8, range_exponent=2.0)
    rng = np.random.default_rng(hash((boundary, kind)) % 2**32)
    ta, tb = rng.uniform(0, np.pi, size=2)
    psi = random_joint_state(geom, rng)
    config = WalkConfig(geom, 1, interaction=spec)

    u = dense_joint_step(spec, geom, ta, tb)
    expected = (u @ psi.reshape(-1)).reshape(5, 2, 5, 2)
    got = kernel_steps(config, ta, tb, [0.0], psi)
    np.testing.assert_allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.REFLECTING])
def test_noisy_step_matches_dense_oracle(boundary):
    # one noise draw eta rides on the collision support with the coupling
    geom = LatticeGeometry(5, boundary)
    spec = InteractionSpec(InteractionKind.NOISY_COLLISION, 0.8, noise_sigma=0.5)
    rng = np.random.default_rng(17)
    ta, tb = rng.uniform(0, np.pi, size=2)
    psi = random_joint_state(geom, rng)
    config = WalkConfig(geom, 1, interaction=spec)
    eta = 0.37

    u = dense_joint_step(spec, geom, ta, tb, eta)
    expected = (u @ psi.reshape(-1)).reshape(5, 2, 5, 2)
    np.testing.assert_allclose(kernel_steps(config, ta, tb, [eta], psi), expected, atol=1e-12)
    # the jitter changes the step: without it the kernel gives another state
    assert not np.allclose(kernel_steps(config, ta, tb, [0.0], psi), expected)


def test_kernel_steps_compose():
    # k kernel steps in one call are k dense steps from any state
    geom = LatticeGeometry(7, Boundary.REFLECTING)
    spec = InteractionSpec(InteractionKind.NOISY_COLLISION, 1.1, noise_sigma=0.5)
    psi = random_joint_state(geom, np.random.default_rng(23))
    etas = [0.2, -0.4, 0.1]
    expected = psi.reshape(-1)
    for eta in etas:
        expected = dense_joint_step(spec, geom, 0.7, 2.6, eta) @ expected
    got = kernel_steps(WalkConfig(geom, 1, interaction=spec), 0.7, 2.6, etas, psi)
    np.testing.assert_allclose(got, expected.reshape(7, 2, 7, 2), atol=1e-12)


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.REFLECTING])
@pytest.mark.parametrize("steps", [1, 2, 3])
def test_evolve_matches_repeated_dense_steps(boundary, steps):
    geom = LatticeGeometry(7, boundary)
    spec = InteractionSpec(InteractionKind.COLLISION_PHASE, np.pi)
    config = WalkConfig(geom, steps, (1, 0), (0, 1), spec)

    u = dense_joint_step(spec, geom, 1.1, 2.3)
    psi = make_initial_state(geom, (1, 0), (0, 1)).reshape(-1)
    for _ in range(steps):
        psi = u @ psi
    got = evolve(config, 1.1, 2.3)
    np.testing.assert_allclose(got, psi.reshape(7, 2, 7, 2), atol=1e-12)


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.REFLECTING])
@pytest.mark.parametrize("kind", DETERMINISTIC_KINDS)
def test_evolve_batch_matches_repeated_dense_steps(boundary, kind):
    # T = 4 reaches the edges of L = 7; the complex coin makes every channel
    # plane and both quadratures of the real coin matmul carry amplitude
    geom = LatticeGeometry(7, boundary)
    spec = InteractionSpec(kind, 1.3, range_exponent=1.5)
    config = WalkConfig(geom, 4, (0.6, 0.8j), (1, 0), spec)
    thetas = np.array([[1.1, 2.3], [0.0, np.pi], [2.9, 0.4]])
    psi0 = make_initial_state(geom, (0.6, 0.8j), (1, 0)).reshape(-1)

    got = evolve_batch(config, thetas)
    for k, (ta, tb) in enumerate(thetas):
        u = dense_joint_step(spec, geom, ta, tb)
        psi = psi0
        for _ in range(config.steps):
            psi = u @ psi
        np.testing.assert_allclose(got[k], channel_major(psi.reshape(7, 2, 7, 2)), atol=1e-12)


def test_single_step_matches_dense_oracle():
    geom = LatticeGeometry(9, Boundary.REFLECTING)
    theta = 0.77
    coin = (0.6, 0.8j)
    u = dense_single_step(geom, theta)
    psi = np.zeros(18, dtype=complex)
    o = geom.offset(0)
    psi[o * 2], psi[o * 2 + 1] = coin
    for _ in range(4):
        psi = u @ psi
    got = evolve_single(geom, 4, theta, coin)
    np.testing.assert_allclose(got, psi.reshape(9, 2), atol=1e-12)


def test_single_walker_matches_recurrence():
    rng = np.random.default_rng(11)
    geom = LatticeGeometry(21)
    for _ in range(10):
        theta = rng.uniform(0, np.pi)
        steps = int(rng.integers(1, 21))
        coin = (1 / np.sqrt(2), 1j / np.sqrt(2))
        expected = recurrence_evolve(geom, steps, theta, coin)
        got = evolve_single(geom, steps, theta, coin)
        np.testing.assert_allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("boundary", list(Boundary), ids=lambda b: b.value)
def test_single_walker_batch_rows_are_lone_walks(boundary):
    geom = LatticeGeometry(9, boundary)
    thetas = np.linspace(0, np.pi, 13)
    coin = (1 / np.sqrt(2), 1j / np.sqrt(2))
    batch = evolve_singles(geom, 7, thetas, coin)
    assert batch.shape == (13, 2, 9)
    for theta, got in zip(thetas, batch):
        assert got.T.tobytes() == evolve_single(geom, 7, theta, coin).tobytes()
        psi = np.zeros(18, dtype=complex)
        psi[2 * geom.offset(0) : 2 * geom.offset(0) + 2] = coin
        for _ in range(7):
            psi = dense_single_step(geom, theta) @ psi
        np.testing.assert_allclose(got.T, psi.reshape(9, 2), atol=1e-12)
    with pytest.raises(ValidationError):
        evolve_singles(geom, 2, [0.5, np.pi + 0.1], coin)


@pytest.mark.parametrize("boundary", list(Boundary), ids=lambda b: b.value)
@pytest.mark.parametrize("size, steps", [(7, 4), (15, 8), (15, 20), (31, 10)])
def test_single_walkers_are_bitwise_the_site_major_loop(boundary, size, steps):
    # the joint kernel on (B, 2, n) gives the bits of the per-site 2 x 2 loop
    # on the whole lattice, on the reach sites and zero off them, also when
    # the walk hands its light cone to the lattice at T = (L - 1) / 2
    geom = LatticeGeometry(size, boundary)
    window = reach(geom, steps)
    thetas = np.linspace(0, np.pi, 61)
    coins = [tuple(complex(re, im) for re, im in c) for c in COIN_CATALOG.values()]
    for coin in coins + [(0.6, 0.8j)]:
        got = evolve_singles(geom, steps, thetas, coin)
        want = site_major_singles(geom, steps, thetas, coin)
        assert want.shape == (61, size, 2)
        assert got.tobytes() == want[:, window].transpose(0, 2, 1).tobytes(), coin
        want[:, window] = 0.0
        assert not want.any()


@pytest.mark.parametrize("size, steps", [(15, 20), (31, 10), (9, 13)])  # handoff, cone, handoff
@pytest.mark.parametrize("boundary", list(Boundary), ids=lambda b: b.value)
@pytest.mark.parametrize(
    "kind",
    [InteractionKind.COLLISION_PHASE, InteractionKind.LONG_RANGE, InteractionKind.COIN_DEPENDENT],
    ids=lambda k: k.value,
)
def test_the_site_major_edge_is_bitwise_the_kernel_path(kind, boundary, size, steps):
    # evolve, evolve_single and measure_joint put the kernel's channel-major
    # amplitudes on the whole lattice, site major, and move no bit of P
    geom = LatticeGeometry(size, boundary)
    spec = InteractionSpec(kind, 1.3, range_exponent=1.5)
    config = WalkConfig(geom, steps, (1, 0), SYMMETRIC, spec)
    thetas = np.array([[0.0, np.pi], [1.1, 2.3], [2.9, 0.4]])
    window = reach(geom, steps)
    for (ta, tb), probs in zip(thetas, walk_distributions(config, thetas)):
        lattice = np.zeros((size, size))
        lattice[window, window] = probs
        got = measure_joint(evolve(config, ta, tb), geom).probabilities
        assert got.tobytes() == lattice.tobytes()
    angles = thetas.ravel()
    singles = born(evolve_singles(geom, steps, angles, SYMMETRIC))
    loop = born(site_major_singles(geom, steps, angles, SYMMETRIC).transpose(0, 2, 1))
    for theta, p, want in zip(angles, singles, loop):
        lattice = born(evolve_single(geom, steps, theta, SYMMETRIC).T[None])[0]
        assert lattice.tobytes() == want.tobytes()
        assert lattice[window].tobytes() == p.tobytes()


def test_no_interaction_factorizes():
    geom = LatticeGeometry(25)
    config = WalkConfig(geom, 10, (1, 0), (0.6, 0.8j))
    window = reach(geom, 10)
    joint = measure_joint(evolve(config, 0.9, 2.2), geom).probabilities[window, window]
    pa = born(evolve_singles(geom, 10, [0.9], (1, 0)))[0]
    pb = born(evolve_singles(geom, 10, [2.2], (0.6, 0.8j)))[0]
    np.testing.assert_allclose(joint, np.outer(pa, pb), atol=1e-12)


def test_marginal_matches_single_walk():
    geom = LatticeGeometry(17)
    config = WalkConfig(geom, 6, (1, 0), (1, 0))
    pa = measure_joint(evolve(config, 1.3, 0.4), geom).probabilities.sum(axis=1)
    single = born(evolve_singles(geom, 6, [1.3], (1, 0)))[0]
    np.testing.assert_allclose(pa[reach(geom, 6)], single, atol=1e-12)


def test_evolve_is_deterministic_in_seed():
    geom = LatticeGeometry(11)
    spec = InteractionSpec(InteractionKind.NOISY_COLLISION, 1.0, noise_sigma=0.4)
    config = WalkConfig(geom, 5, interaction=spec, seed=42)
    a = evolve(config, 1.0, 2.0)
    b = evolve(config, 1.0, 2.0)
    c = evolve(replace(config, seed=43), 1.0, 2.0)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_a_noisy_ensemble_evolves_and_draws_its_first_realization_alone(monkeypatch):
    # evolve and distributions run row 0 of the jitter table, drawn alone: an
    # ensemble-65 walk is bitwise its ensemble-1 walk
    spec = InteractionSpec(InteractionKind.NOISY_COLLISION, 1.3, noise_sigma=0.5)
    config = WalkConfig(LatticeGeometry(15), 20, (1, 0), SYMMETRIC, spec, seed=3, ensemble=65)
    tables = []

    def counted(walk):
        tables.append(jitters(walk))
        return tables[-1]

    jitters = dynamics.jitters
    monkeypatch.setattr(dynamics, "jitters", counted)
    monkeypatch.setattr(equilibrium, "jitters", counted)
    one = replace(config, ensemble=1)
    assert evolve(config, 1.1, 2.3).tobytes() == evolve(one, 1.1, 2.3).tobytes()
    thetas = np.array([[1.1, 2.3], [0.4, 0.4]])
    assert distributions(config, thetas).tobytes() == distributions(one, thetas).tobytes()
    assert [table.shape for table in tables] == [(1, 20)] * 4


def test_batch_matches_individual_evolutions():
    geom = LatticeGeometry(9, Boundary.REFLECTING)
    spec = InteractionSpec(InteractionKind.NOISY_COLLISION, 1.0, noise_sigma=0.3)
    config = WalkConfig(geom, 5, interaction=spec, seed=5)
    thetas = np.array([[0.3, 2.0], [1.5, 1.5], [np.pi, 0.0]])
    batch = evolve_batch(config, thetas)
    for k, (ta, tb) in enumerate(thetas):
        np.testing.assert_array_equal(batch[k], channel_major(evolve(config, ta, tb)))


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.REFLECTING])
@pytest.mark.parametrize("kind", list(InteractionKind))
def test_chunked_batch_is_bitwise_per_profile_evolve(boundary, kind):
    geom = LatticeGeometry(31, boundary)
    size = chunk_profiles(geom, 6)
    # one unchunked batch wider than two of `walk_distributions`' chunks: its rows
    # do not depend on the batch they run in, so chunking changes no bit
    n = 2 * size + size // 2 + 1
    assert n > 2 * size and n % size != 0
    spec = InteractionSpec(kind, 1.3, range_exponent=1.5, noise_sigma=0.4)
    config = WalkConfig(geom, 6, (1, 0), (0.6, 0.8j), spec, seed=11)
    thetas = np.random.default_rng(7).uniform(0, np.pi, size=(n, 2))
    thetas[0] = (0.0, np.pi)
    batch = evolve_batch(config, thetas)
    window = reach(geom, 6)
    for k, (ta, tb) in enumerate(thetas):
        assert np.array_equal(batch[k], channel_major(evolve(config, ta, tb)[window, :, window])), k


def test_reach_is_the_light_cone_within_the_lattice():
    # up to T = (L - 1) / 2 the T + 1 sites of parity T, then the lattice
    geom = LatticeGeometry(31, Boundary.REFLECTING)
    assert reach(geom, 1) == slice(14, 17, 2)
    assert reach(geom, 10) == slice(5, 26, 2)
    assert reach(geom, 15) == slice(0, 31, 2)
    assert reach(geom, 16) == reach(geom, 40) == slice(0, 31)
    config = WalkConfig(geom, 10, (1, 0), SYMMETRIC)
    assert evolve_batch(config, [[1.0, 2.0]] * 3).shape == (3, 4, 11, 11)
    assert evolve_singles(geom, 10, [1.0, 2.0], SYMMETRIC).shape == (2, 2, 11)
    assert evolve_batch(replace(config, steps=16), [[1.0, 2.0]]).shape == (1, 4, 31, 31)
    assert evolve_singles(geom, 16, [1.0, 2.0], SYMMETRIC).shape == (2, 2, 31)


@pytest.mark.parametrize("steps", [4, 20])  # on the light cone of L = 15, and past it
def test_a_batch_of_no_profiles_evolves_to_empty_amplitudes(steps):
    geom = LatticeGeometry(15)
    n = len(range(geom.size)[reach(geom, steps)])
    spec = InteractionSpec(InteractionKind.NOISY_COLLISION, 1.3, noise_sigma=0.4)
    config = WalkConfig(geom, steps, (1, 0), SYMMETRIC, spec)
    assert evolve_batch(config, np.zeros((0, 2))).shape == (0, 4, n, n)
    assert evolve_singles(geom, steps, [], SYMMETRIC).shape == (0, 2, n)


def test_a_walk_past_the_cone_holds_one_buffer_pair():
    # T = 60 on L = 101 runs 50 steps on the cone and 10 on the lattice; the
    # cone works in the head of the lattice's pair, so no second pair is
    # held, and `take` reads the plan's writeable gather without copying it
    # (a read-only index array costs a copy, one int64 an amplitude).
    geom = LatticeGeometry(101)
    spec = InteractionSpec(InteractionKind.COLLISION_PHASE, 1.0)
    config = WalkConfig(geom, 60, interaction=spec)
    thetas = np.array([[1.1, 2.3]])
    evolve_batch(config, thetas)  # the walk's plan is built once
    pair = 2 * 4 * geom.size**2 * np.dtype(complex).itemsize  # 1.31 MB
    tracemalloc.start()
    try:
        evolve_batch(config, thetas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * pair


@pytest.mark.parametrize("boundary", list(Boundary), ids=lambda b: b.value)
def test_walkers_leave_the_sites_off_parity_exactly_zero(boundary):
    # after T steps from x = 0 a walker occupies only the sites x = T mod 2
    geom = LatticeGeometry(15, boundary)
    spec = InteractionSpec(InteractionKind.LONG_RANGE, 1.3, range_exponent=1.5)
    for steps in (1, 4, 7):
        off = np.ones(geom.size, dtype=bool)
        off[reach(geom, steps)] = False
        assert off.sum() == geom.size - steps - 1
        joint = evolve(WalkConfig(geom, steps, (1, 0), SYMMETRIC, spec), 1.1, 2.3)
        singles = np.array([evolve_single(geom, steps, t, SYMMETRIC) for t in (0.0, 1.1, np.pi)])
        assert not joint[off].any() and not joint[:, :, off].any()
        assert not singles[:, off].any()
        assert np.count_nonzero(joint) and np.count_nonzero(singles[:, ~off], axis=1).all()


@pytest.mark.parametrize("boundary", list(Boundary), ids=lambda b: b.value)
def test_walk_plan_phase_is_read_only_and_follows_the_seed(boundary):
    # T = 20 on L = 15: 7 steps on the cone, in legs of 2, 4 and 8 sites,
    # then 13 on the lattice
    geom = LatticeGeometry(15, boundary)
    spec = InteractionSpec(InteractionKind.NOISY_COLLISION, 1.3, noise_sigma=0.4)
    config = WalkConfig(geom, 20, (1, 0), SYMMETRIC, spec, seed=5)
    legs = _plan(geom, 20, 2, spec.kind, spec.range_exponent)
    assert [(leg.sites, leg.steps) for leg in legs] == [(2, 1), (4, 2), (8, 4), (15, 13)]
    singles = _plan(geom, 20, 1)
    assert [(leg.sites, leg.steps) for leg in singles] == [(2, 1), (4, 2), (8, 4), (15, 13)]
    # each leg's phase is the x_A = x_B diagonal of the four channel planes,
    # stride n + 1, with its one distinct value; no noise draws
    for leg in legs:
        index, distinct, inverse = leg.phase
        assert index == (slice(None), slice(None), slice(None, None, leg.sites + 1))
        assert distinct.tolist() == [1.0] and (inverse == 0).all()
        assert inverse.shape == (4, leg.sites) and inverse.strides[0] == 0
    assert all(leg.phase is None for leg in singles)
    # the phase arrays are read-only; the gathers stay writeable, so that
    # `take` reads them without copying them every step
    phases = [a for leg in legs for a in leg.phase if isinstance(a, np.ndarray)]
    assert len(phases) == 8 and not any(a.flags.writeable for a in phases)
    for array in legs[0].phase[1:]:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0
    # each call runs the walk's own draws, split across the handoff: P is
    # bitwise the whole-lattice kernel's under `noise_draws`, and another
    # seed draws others
    thetas = np.array([[1.1, 2.3], [0.4, 0.4]])
    window = reach(geom, 20)
    probs = []
    for seed in (5, 6):
        walk = replace(config, seed=seed)
        probs.append(distributions(walk, thetas))
        full = full_lattice_distributions(walk, thetas)
        assert probs[-1].tobytes() == full[:, window, window].tobytes()
    assert np.abs(probs[0] - probs[1]).max() > 1e-3
    # walks leave the cached plan equal to a freshly built one
    evolve_batch(config, thetas)
    evolve_singles(geom, 20, [1.1, 2.3], SYMMETRIC)
    fresh = _plan.__wrapped__(geom, 20, 2, spec.kind, spec.range_exponent)
    fresh += _plan.__wrapped__(geom, 20, 1)
    for leg, want in zip(legs + singles, fresh, strict=True):
        assert np.array_equal(leg.perm, want.perm)
        if leg.phase is not None:
            assert all(np.array_equal(a, b) for a, b in zip(leg.phase[1:], want.phase[1:]))


def test_strength_seed_and_ensemble_share_one_plan(monkeypatch):
    # a strength sweep, a noise ensemble and the coin catalog change neither
    # the geometry nor the phase table, so every such walk runs the same plan
    plans = []

    def spy(*key):
        plans.append(_plan(*key))
        return plans[-1]

    monkeypatch.setattr(dynamics, "_plan", spy)
    geom = LatticeGeometry(15)
    coins = [tuple(complex(re, im) for re, im in c) for c in COIN_CATALOG.values()]
    for strength in (0.1, np.pi):
        spec = InteractionSpec(InteractionKind.NOISY_COLLISION, strength, noise_sigma=0.4)
        for seed in (5, 6):
            for ensemble in (1, 65):
                for coin_a, coin_b in zip(coins, coins[::-1]):
                    config = WalkConfig(geom, 20, coin_a, coin_b, spec, seed, ensemble)
                    evolve_batch(config, [[1.1, 2.3]])
    assert len(plans) == 40 and all(plan is plans[0] for plan in plans)
    # a free walker of any coin runs the one single-walker plan
    for coin in coins:
        evolve_singles(geom, 20, [1.1], coin)
    assert len(plans) == 45 and all(plan is plans[40] for plan in plans[40:])
    assert plans[40] is not plans[0]


def test_a_noisy_ensemble_builds_one_plan():
    # 65 realizations, one more than the plan cache holds, draw their own
    # jitters on one plan
    spec = InteractionSpec(InteractionKind.NOISY_COLLISION, 1.3, noise_sigma=0.5)
    config = WalkConfig(LatticeGeometry(15), 20, (1, 0), SYMMETRIC, spec, seed=3, ensemble=65)
    evaluator = WalkEvaluator(config, GameSpec(GameKind.RACE))
    _plan.cache_clear()
    evaluator.points([[1.1, 2.3], [0.4, 0.4]])
    assert _plan.cache_info().misses == 1
    evaluator.points([[1.1, 2.3]])
    assert _plan.cache_info().misses == 1


@pytest.mark.parametrize("alpha", [2.0, 0.7, 400.0])
@pytest.mark.parametrize("size, steps", [(15, 20), (31, 10), (9, 13), (15, 5), (7, 30)])
@pytest.mark.parametrize("boundary", list(Boundary), ids=lambda b: b.value)
@pytest.mark.parametrize("kind", list(InteractionKind)[1:], ids=lambda k: k.value)
def test_each_leg_plans_the_phase_table_of_its_reach_sites(kind, boundary, size, steps, alpha):
    # the plan reads the walkers' distances, never the dense table; on its
    # support, distinct[inverse], one row per channel, is bitwise the
    # table cut to the leg's reach sites, and off it the table is 0
    geom = LatticeGeometry(size, boundary)
    spec = InteractionSpec(kind, 1.0, range_exponent=alpha)
    table = interactions.phase_table(spec, geom)
    legs = _plan(geom, steps, 2, kind, alpha)
    t = 0
    for leg in legs:
        t += leg.steps
        cut = reach(geom, t)
        expected = table[cut, :, cut].transpose(1, 3, 0, 2).reshape(4, -1)
        index, distinct, inverse = leg.phase
        planned = np.zeros_like(expected)
        planned[index[1:]] = distinct[inverse]
        assert planned.tobytes() == expected.tobytes()
        # the plan keeps one row of indices, viewed once per channel
        assert len(distinct) < 2 * legs[-1].sites and inverse.strides[0] == 0


def test_the_plan_never_builds_a_phase_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("phase_table called")

    monkeypatch.setattr(interactions, "phase_table", refuse)
    _plan.cache_clear()
    for kind in InteractionKind:
        for boundary in Boundary:
            config = WalkConfig(LatticeGeometry(15, boundary), 20, (1, 0), SYMMETRIC,
                                InteractionSpec(kind, 0.9, range_exponent=1.5))
            evolve_batch(config, [[1.1, 2.3]])
    assert _plan.cache_info().misses == 2 * len(InteractionKind)


@pytest.mark.parametrize("kind", DETERMINISTIC_KINDS[1:], ids=lambda k: k.value)
def test_a_table_at_strength_zero_changes_no_bit_of_p(kind):
    # every kind but none plans its table at any strength; at strength 0 its
    # factors are exp(0) = 1, so P is bitwise the walk's without a table
    none = WalkConfig(LatticeGeometry(15), 20, (1, 0), SYMMETRIC)
    zero = replace(none, interaction=InteractionSpec(kind, 0.0, range_exponent=1.5))
    thetas = np.array([[0.0, np.pi], [1.1, 2.3], [2.9, 0.4]])
    assert distributions(zero, thetas).tobytes() == distributions(none, thetas).tobytes()


COIN_PAIRS = {
    "right-right": ((1, 0), (1, 0)),
    "symmetric-symmetric": (SYMMETRIC, SYMMETRIC),
    "right-symmetric": ((1, 0), SYMMETRIC),
}


# on L = 15: T from one step, below (L-1)/2 - 1, one step short of (L-1)/2,
# at it, one step past it, past it, at 2 (L-1)/2 + 1 = L and the recipes'
# T = 20; the perturbation recipe's walk, T = 10 on L = 31, and T = 40 there
@pytest.mark.parametrize(
    "size, steps",
    [(15, 1), (15, 3), (15, 6), (15, 7), (15, 8), (15, 9), (15, 15), (15, 20), (31, 10), (31, 40)],
)
@pytest.mark.parametrize("coins", COIN_PAIRS.values(), ids=list(COIN_PAIRS))
@pytest.mark.parametrize("boundary", list(Boundary), ids=lambda b: b.value)
@pytest.mark.parametrize("kind", list(InteractionKind), ids=lambda k: k.value)
def test_reach_window_is_bitwise_the_full_lattice(kind, boundary, coins, size, steps):
    # the light cone's wrap never reads a nonzero amplitude, so it changes no
    # bit of P; nor does the lattice edge up to T = (L - 1) / 2, nor the
    # handoff of a longer walk from the cone to the lattice there.  P holds
    # the reach sites only, (T + 1)^2 joint sites on the light cone
    geom = LatticeGeometry(size, boundary)
    spec = InteractionSpec(kind, 1.3, range_exponent=1.5, noise_sigma=0.4)
    config = WalkConfig(geom, steps, *coins, spec, seed=5)
    thetas = np.array([[0.0, np.pi], [1.1, 2.3], [2.9, 0.4], [np.pi / 2, np.pi / 2]])
    got = distributions(config, thetas)
    full = full_lattice_distributions(config, thetas)
    window = reach(geom, steps)
    assert got.shape == (4, *full[0, window, window].shape)
    assert got.tobytes() == full[:, window, window].tobytes()
    full[:, window, window] = 0.0
    assert not full.any()  # P is zero off the reach sites


# T from one step to past the cone on L = 15 (h = 7), and on L = 9 (h = 4)
@pytest.mark.parametrize(
    "size, steps", [(15, 1), (15, 2), (15, 3), (15, 4), (15, 6), (15, 7), (15, 11), (9, 4), (9, 6)]
)
@pytest.mark.parametrize("kind", list(InteractionKind)[1:], ids=lambda k: k.value)
def test_cone_legs_double_and_match_the_dense_oracle(kind, size, steps):
    # the cone's legs have 2, 4, 8, ... sites and last min(T, h) + 1, each
    # running up to t = n - 1, then the lattice's leg takes the other steps
    geom = LatticeGeometry(size)
    cone = min(steps, geom.half)
    want = [n for n in (2, 4, 8) if n < cone + 1] + [cone + 1]
    for walkers in (1, 2):
        legs = _plan(geom, steps, walkers, kind, 1.5)
        assert [leg.sites for leg in legs] == want + [size] * (steps > cone)
        assert [leg.steps for leg in legs[: len(want)]] == list(np.diff([1, *want]))
        assert sum(leg.steps for leg in legs) == steps
    spec = InteractionSpec(kind, 1.3, range_exponent=1.5, noise_sigma=0.4)
    config = WalkConfig(geom, steps, (1, 0), SYMMETRIC, spec, seed=5)
    ta, tb = 1.1, 2.3
    u0 = np.kron(dense_single_step(geom, ta), dense_single_step(geom, tb))
    psi = make_initial_state(geom, (1, 0), SYMMETRIC).reshape(-1)
    for eta in noise_draws(config):
        psi = np.diagonal(dense_interaction(spec, geom, ta, tb, eta)) * (u0 @ psi)
    np.testing.assert_allclose(evolve(config, ta, tb), psi.reshape(size, 2, size, 2), atol=1e-12)
    single = np.zeros(2 * size, dtype=complex)
    single[2 * geom.offset(0)] = 1
    for _ in range(steps):
        single = dense_single_step(geom, ta) @ single
    got = evolve_single(geom, steps, ta, (1, 0))
    np.testing.assert_allclose(got, single.reshape(size, 2), atol=1e-12)


@pytest.mark.parametrize("boundary", list(Boundary), ids=lambda b: b.value)
def test_long_range_window_keeps_the_lattice_minimal_image(boundary):
    # T = 10 evolves the 11 even sites of L = 21 on the light cone, where
    # x_A - x_B = 2 (j_A - j_B).  Walkers at x = -10 and 10 are 20 apart on
    # the reflecting lattice but 1 apart on the ring of 21
    geom = LatticeGeometry(21, boundary)
    spec = InteractionSpec(InteractionKind.LONG_RANGE, 1.3, range_exponent=1.5)
    config = WalkConfig(geom, 10, (1, 0), SYMMETRIC, spec)
    ta, tb = 1.1, 2.3
    u0 = np.kron(dense_single_step(geom, ta), dense_single_step(geom, tb))
    phases = np.diagonal(dense_interaction(spec, geom, ta, tb))
    psi = make_initial_state(geom, (1, 0), SYMMETRIC).reshape(-1)
    for _ in range(config.steps):
        psi = phases * (u0 @ psi)
    got = evolve(config, ta, tb)
    assert reach(geom, config.steps) == slice(0, 21, 2)
    np.testing.assert_allclose(got, psi.reshape(21, 2, 21, 2), atol=1e-12)
    # the walk never meets the edge, so the boundary acts only through the
    # minimal image of the table
    other, = set(Boundary) - {boundary}
    flipped = evolve(replace(config, geometry=LatticeGeometry(21, other)), ta, tb)
    assert abs(got - flipped).max() > 1e-3


def test_batch_rejects_bad_shapes_and_angles():
    config = WalkConfig(GEOM5, 2)
    with pytest.raises(Exception):
        evolve_batch(config, np.zeros((3,)))
    with pytest.raises(ValidationError):
        evolve_batch(config, np.array([[0.5, 4.0]]))


@given(
    st.floats(0.0, np.pi),
    st.floats(0.0, np.pi),
    st.sampled_from(DETERMINISTIC_KINDS),
    st.sampled_from([Boundary.PERIODIC, Boundary.REFLECTING]),
)
@settings(max_examples=40, deadline=None)
def test_evolution_is_unitary(theta_a, theta_b, kind, boundary):
    geom = LatticeGeometry(9, boundary)
    spec = InteractionSpec(kind, 1.7)
    config = WalkConfig(geom, 4, (0.6, 0.8j), (1, 0), spec)
    final = evolve(config, theta_a, theta_b)
    assert np.linalg.norm(final) == pytest.approx(1.0, abs=1e-10)
