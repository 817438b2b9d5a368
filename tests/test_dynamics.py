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
    WalkConfig,
    _joint_view,
    _steps,
    chunk_profiles,
    coin_matrix,
    evolve,
    evolve_batch,
    evolve_single,
    evolve_singles,
)
from qwgames.hilbert import (
    Boundary,
    LatticeGeometry,
    ValidationError,
    born_single,
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


def kernel_steps(config: WalkConfig, theta_a, theta_b, etas, psi) -> np.ndarray:
    """(L, 2, L, 2) state psi after one `_steps` call, one kernel step per
    noise jitter in etas, under the strategy pair (theta_a, theta_b)."""
    L = config.geometry.size
    amps = psi.transpose(1, 3, 0, 2).reshape(1, 4, -1).copy()  # channel-major
    _steps(config, np.array([[theta_a, theta_b]]), np.asarray(etas, dtype=float), amps)
    return _joint_view(amps, L)[0]


@pytest.mark.parametrize(
    "thetas", [[-0.1, 1.0], [1.0, np.pi + 0.1], [np.nan, 1.0], [1.0, np.inf]]
)
def test_angles_outside_the_domain_are_rejected(thetas):
    config = WalkConfig(GEOM5, 1)
    evolve_batch(config, [[0.0, np.pi]])
    evolve_singles(GEOM5, 1, [0.0, np.pi], (1, 0))
    with pytest.raises(DomainError):
        evolve_batch(config, [[0.5, 0.5], thetas])
    with pytest.raises(DomainError):
        evolve(config, *thetas)
    with pytest.raises(DomainError):
        evolve_singles(GEOM5, 1, thetas, (1, 0))


def test_config_warns_when_boundary_reachable():
    with pytest.warns(UserWarning, match="boundary reachable") as record:
        config = WalkConfig(LatticeGeometry(15), 20)
    # the warning names the line that builds the config, also through replace()
    assert record[0].filename == __file__
    with pytest.warns(UserWarning, match="boundary reachable") as record:
        replace(config, seed=1)
    assert [r.filename for r in record] == [__file__]


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


def test_shift_moves_right_coin_right():
    # the coin at angle 0 is the identity, so one step is the shift alone
    out = evolve(WalkConfig(GEOM5, 1, (1, 0), (0, 1)), 0.0, 0.0)
    o = GEOM5.offset(0)
    # A carries |R> and moves +1; B carries |L> and moves -1
    assert out[o + 1, 0, o - 1, 1] == pytest.approx(1.0)
    assert np.count_nonzero(out) == 1


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


@pytest.mark.filterwarnings("ignore:boundary reachable")
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
        np.testing.assert_allclose(got[k], psi.reshape(7, 2, 7, 2), atol=1e-12)


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
    assert batch.shape == (13, 9, 2)
    for theta, got in zip(thetas, batch):
        assert got.tobytes() == evolve_single(geom, 7, theta, coin).tobytes()
        psi = np.zeros(18, dtype=complex)
        psi[2 * geom.offset(0) : 2 * geom.offset(0) + 2] = coin
        for _ in range(7):
            psi = dense_single_step(geom, theta) @ psi
        np.testing.assert_allclose(got, psi.reshape(9, 2), atol=1e-12)
    with pytest.raises(DomainError):
        evolve_singles(geom, 2, [0.5, np.pi + 0.1], coin)


def test_no_interaction_factorizes():
    geom = LatticeGeometry(25)
    config = WalkConfig(geom, 10, (1, 0), (0.6, 0.8j))
    joint = measure_joint(evolve(config, 0.9, 2.2), geom).probabilities
    pa = born_single(evolve_single(geom, 10, 0.9, (1, 0)))
    pb = born_single(evolve_single(geom, 10, 2.2, (0.6, 0.8j)))
    np.testing.assert_allclose(joint, np.outer(pa, pb), atol=1e-12)


def test_marginal_matches_single_walk():
    geom = LatticeGeometry(17)
    config = WalkConfig(geom, 6, (1, 0), (1, 0))
    pa, _ = marginals(measure_joint(evolve(config, 1.3, 0.4), geom))
    single = born_single(evolve_single(geom, 6, 1.3, (1, 0)))
    np.testing.assert_allclose(pa, single, atol=1e-12)


def test_evolve_is_deterministic_in_seed():
    geom = LatticeGeometry(11)
    spec = InteractionSpec(InteractionKind.NOISY_COLLISION, 1.0, noise_sigma=0.4)
    config = WalkConfig(geom, 5, interaction=spec, seed=42)
    a = evolve(config, 1.0, 2.0)
    b = evolve(config, 1.0, 2.0)
    c = evolve(replace(config, seed=43), 1.0, 2.0)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_batch_matches_individual_evolutions():
    geom = LatticeGeometry(9, Boundary.REFLECTING)
    spec = InteractionSpec(InteractionKind.NOISY_COLLISION, 1.0, noise_sigma=0.3)
    config = WalkConfig(geom, 5, interaction=spec, seed=5)
    thetas = np.array([[0.3, 2.0], [1.5, 1.5], [np.pi, 0.0]])
    batch = evolve_batch(config, thetas)
    for k, (ta, tb) in enumerate(thetas):
        np.testing.assert_array_equal(batch[k], evolve(config, ta, tb))


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
        assert np.array_equal(batch[k], evolve(config, ta, tb)), k


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
    final = evolve(config, theta_a, theta_b)
    assert np.linalg.norm(final) == pytest.approx(1.0, abs=1e-10)
