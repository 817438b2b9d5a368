from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dense_joint_step,
    dense_single_step,
    random_joint_state,
    recurrence_evolve,
)
from qwgames.dynamics import (
    DomainError,
    StrategyProfile,
    WalkConfig,
    apply_coin,
    apply_interaction,
    apply_shift,
    chunk_profiles,
    coin_matrix,
    evolve,
    evolve_batch,
    evolve_single,
    step,
)
from qwgames.hilbert import (
    Boundary,
    JointState,
    LatticeGeometry,
    ValidationError,
    make_initial_state,
    measure_joint,
    marginals,
)
from qwgames.interactions import InteractionKind, InteractionSpec

GEOM5 = LatticeGeometry(5)

DETERMINISTIC_KINDS = [
    InteractionKind.NONE,
    InteractionKind.COLLISION_PHASE,
    InteractionKind.ATTRACTIVE_COLLISION,
    InteractionKind.LONG_RANGE,
    InteractionKind.COIN_DEPENDENT,
]


def test_strategy_profile_domain():
    StrategyProfile(0.0, np.pi)
    with pytest.raises(DomainError):
        StrategyProfile(-0.1, 1.0)
    with pytest.raises(DomainError):
        StrategyProfile(1.0, np.pi + 0.1)
    with pytest.raises(DomainError):
        StrategyProfile(np.nan, 1.0)


def test_config_warns_when_boundary_reachable():
    with pytest.warns(UserWarning, match="boundary reachable") as record:
        WalkConfig(LatticeGeometry(15), 20)
    # the warning names the line that builds the config
    assert record[0].filename == __file__


def test_config_rejects_an_empty_ensemble():
    with pytest.raises(ValidationError, match="ensemble must be >= 1, got 0"):
        WalkConfig(GEOM5, 1, ensemble=0)


def test_coin_matrix_half_angle_values():
    np.testing.assert_allclose(coin_matrix(0.0), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(
        coin_matrix(np.pi), np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-15
    )
    m = coin_matrix(np.pi / 2)
    assert m[0, 0] == pytest.approx(np.cos(np.pi / 4))
    np.testing.assert_allclose(m @ m.T, np.eye(2), atol=1e-15)


def test_apply_shift_moves_right_coin_right():
    state = make_initial_state(GEOM5, (1, 0), (0, 1))
    out = apply_shift(state)
    o = GEOM5.offset(0)
    # A carries |R> and moves +1; B carries |L> and moves -1
    assert out.amplitudes[o + 1, 0, o - 1, 1] == pytest.approx(1.0)


def test_apply_interaction_preserves_moduli():
    rng = np.random.default_rng(0)
    state = JointState(random_joint_state(GEOM5, rng), GEOM5)
    spec = InteractionSpec(InteractionKind.COLLISION_PHASE, np.pi)
    out = apply_interaction(state, StrategyProfile(1.0, 2.0), spec)
    np.testing.assert_allclose(
        np.abs(out.amplitudes), np.abs(state.amplitudes), atol=1e-14
    )


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.REFLECTING])
@pytest.mark.parametrize("kind", DETERMINISTIC_KINDS)
def test_step_matches_dense_oracle(boundary, kind):
    geom = LatticeGeometry(5, boundary)
    spec = InteractionSpec(kind, 0.8, range_exponent=2.0)
    rng = np.random.default_rng(hash((boundary, kind)) % 2**32)
    profile = StrategyProfile(rng.uniform(0, np.pi), rng.uniform(0, np.pi))
    psi = random_joint_state(geom, rng)
    config = WalkConfig(geom, 1, interaction=spec)

    u = dense_joint_step(spec, geom, profile.theta_a, profile.theta_b)
    expected = (u @ psi.reshape(-1)).reshape(5, 2, 5, 2)
    got = step(JointState(psi, geom), profile, config).amplitudes
    np.testing.assert_allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.REFLECTING])
@pytest.mark.parametrize("steps", [1, 2, 3])
def test_evolve_matches_repeated_dense_steps(boundary, steps):
    geom = LatticeGeometry(7, boundary)
    spec = InteractionSpec(InteractionKind.COLLISION_PHASE, np.pi)
    profile = StrategyProfile(1.1, 2.3)
    config = WalkConfig(geom, steps, (1, 0), (0, 1), spec)

    u = dense_joint_step(spec, geom, profile.theta_a, profile.theta_b)
    psi = make_initial_state(geom, (1, 0), (0, 1)).amplitudes.reshape(-1)
    for _ in range(steps):
        psi = u @ psi
    got = evolve(config, profile).amplitudes
    np.testing.assert_allclose(got, psi.reshape(7, 2, 7, 2), atol=1e-12)


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
    got = evolve_single(geom, 4, theta, coin).amplitudes
    np.testing.assert_allclose(got, psi.reshape(9, 2), atol=1e-12)


def test_single_walker_matches_recurrence():
    rng = np.random.default_rng(11)
    geom = LatticeGeometry(21)
    for _ in range(10):
        theta = rng.uniform(0, np.pi)
        steps = int(rng.integers(1, 21))
        coin = (1 / np.sqrt(2), 1j / np.sqrt(2))
        expected = recurrence_evolve(geom, steps, theta, coin)
        got = evolve_single(geom, steps, theta, coin).amplitudes
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_no_interaction_factorizes():
    geom = LatticeGeometry(25)
    config = WalkConfig(geom, 10, (1, 0), (0.6, 0.8j))
    profile = StrategyProfile(0.9, 2.2)
    joint = measure_joint(evolve(config, profile)).probabilities
    pa = evolve_single(geom, 10, profile.theta_a, (1, 0)).distribution()
    pb = evolve_single(geom, 10, profile.theta_b, (0.6, 0.8j)).distribution()
    np.testing.assert_allclose(joint, np.outer(pa, pb), atol=1e-12)


def test_marginal_matches_single_walk():
    geom = LatticeGeometry(17)
    config = WalkConfig(geom, 6, (1, 0), (1, 0))
    profile = StrategyProfile(1.3, 0.4)
    pa, _ = marginals(measure_joint(evolve(config, profile)))
    single = evolve_single(geom, 6, profile.theta_a, (1, 0)).distribution()
    np.testing.assert_allclose(pa, single, atol=1e-12)


def test_evolve_is_deterministic_in_seed():
    geom = LatticeGeometry(11)
    spec = InteractionSpec(InteractionKind.NOISY_COLLISION, 1.0, noise_sigma=0.4)
    config = WalkConfig(geom, 5, interaction=spec, seed=42)
    profile = StrategyProfile(1.0, 2.0)
    a = evolve(config, profile).amplitudes
    b = evolve(config, profile).amplitudes
    c = evolve(replace(config, seed=43), profile).amplitudes
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_batch_matches_individual_evolutions():
    geom = LatticeGeometry(9, Boundary.REFLECTING)
    spec = InteractionSpec(InteractionKind.NOISY_COLLISION, 1.0, noise_sigma=0.3)
    config = WalkConfig(geom, 5, interaction=spec, seed=5)
    thetas = np.array([[0.3, 2.0], [1.5, 1.5], [np.pi, 0.0]])
    batch = evolve_batch(config, thetas)
    for k, (ta, tb) in enumerate(thetas):
        single = evolve(config, StrategyProfile(ta, tb)).amplitudes
        np.testing.assert_array_equal(batch[k], single)


@pytest.mark.parametrize("boundary", [Boundary.PERIODIC, Boundary.REFLECTING])
@pytest.mark.parametrize("kind", list(InteractionKind))
def test_chunked_batch_is_bitwise_per_profile_evolve(boundary, kind):
    geom = LatticeGeometry(31, boundary)
    size = chunk_profiles(geom)
    n = 2 * size + size // 2 + 1  # more than two chunks, the last one partial
    assert n > 2 * size and n % size != 0
    spec = InteractionSpec(kind, 1.3, range_exponent=1.5, noise_sigma=0.4)
    config = WalkConfig(geom, 6, (1, 0), (0.6, 0.8j), spec, seed=11)
    thetas = np.random.default_rng(7).uniform(0, np.pi, size=(n, 2))
    thetas[0] = (0.0, np.pi)
    batch = evolve_batch(config, thetas)
    for k, (ta, tb) in enumerate(thetas):
        single = evolve(config, StrategyProfile(ta, tb)).amplitudes
        assert np.array_equal(batch[k], single), k


def test_batch_rejects_bad_shapes_and_angles():
    config = WalkConfig(GEOM5, 2)
    with pytest.raises(Exception):
        evolve_batch(config, np.zeros((3,)))
    with pytest.raises(DomainError):
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
    final = evolve(config, StrategyProfile(theta_a, theta_b))
    assert np.linalg.norm(final.amplitudes) == pytest.approx(1.0, abs=1e-10)
