import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwgames.hilbert import (
    Boundary,
    JointDistribution,
    JointState,
    LatticeGeometry,
    ValidationError,
    check_distributions,
    distribution_to_csv,
    make_initial_state,
    make_single_state,
    marginals,
    measure_joint,
)

GEOM5 = LatticeGeometry(5)


def test_geometry_rejects_even_and_tiny_sizes():
    with pytest.raises(ValidationError):
        LatticeGeometry(14)
    with pytest.raises(ValidationError):
        LatticeGeometry(1)


def test_positions_are_symmetric_around_zero():
    assert LatticeGeometry(7).positions.tolist() == [-3, -2, -1, 0, 1, 2, 3]


def test_initial_state_basis_placement():
    state = make_initial_state(GEOM5, (1, 0), (1, 0))
    o = GEOM5.offset(0)
    assert state.amplitudes[o, 0, o, 0] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_initial_state_tensor_product_moduli():
    state = make_initial_state(GEOM5, (1 / np.sqrt(2), 1j / np.sqrt(2)), (1, 0))
    o = GEOM5.offset(0)
    assert abs(state.amplitudes[o, 0, o, 0]) ** 2 == pytest.approx(0.5)
    assert abs(state.amplitudes[o, 1, o, 0]) ** 2 == pytest.approx(0.5)
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_initial_state_names_offending_player():
    with pytest.raises(ValidationError, match="player A"):
        make_initial_state(GEOM5, (1, 1), (1, 0))
    with pytest.raises(ValidationError, match="player B"):
        make_initial_state(GEOM5, (1, 0), (0.5, 0.5))


def test_measure_localized_initial_state():
    dist = measure_joint(make_initial_state(GEOM5, (1, 0), (0, 1)))
    o = GEOM5.offset(0)
    assert dist.probabilities[o, o] == pytest.approx(1.0)
    assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def _random_product_state(rng, geometry):
    a = rng.normal(size=(geometry.size, 2)) + 1j * rng.normal(size=(geometry.size, 2))
    b = rng.normal(size=(geometry.size, 2)) + 1j * rng.normal(size=(geometry.size, 2))
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    joint = np.einsum("xs,yt->xsyt", a, b)
    return a, b, JointState(joint, geometry)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_product_state_measures_as_outer_product(seed):
    rng = np.random.default_rng(seed)
    a, b, joint = _random_product_state(rng, GEOM5)
    dist = measure_joint(joint)
    pa = np.sum(np.abs(a) ** 2, axis=1)
    pb = np.sum(np.abs(b) ** 2, axis=1)
    np.testing.assert_allclose(dist.probabilities, np.outer(pa, pb), atol=1e-12)


def test_marginals_of_point_mass():
    p = np.zeros((5, 5))
    p[GEOM5.offset(0), GEOM5.offset(0)] = 1.0
    pa, pb = marginals(JointDistribution(p, GEOM5))
    assert pa[GEOM5.offset(0)] == 1.0
    assert pb[GEOM5.offset(0)] == 1.0


def test_marginals_of_uniform():
    p = np.full((5, 5), 1 / 25)
    pa, pb = marginals(JointDistribution(p, GEOM5))
    np.testing.assert_allclose(pa, 0.2)
    np.testing.assert_allclose(pb, 0.2)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_marginals_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    p = rng.random((5, 5))
    p /= p.sum()
    pa, pb = marginals(JointDistribution(p, GEOM5))
    assert pa.sum() == pytest.approx(1.0, abs=1e-12)
    assert pb.sum() == pytest.approx(1.0, abs=1e-12)


def test_distribution_rejects_unnormalized():
    with pytest.raises(ValidationError):
        JointDistribution(np.full((5, 5), 0.1), GEOM5)


def test_batched_check_rejects_one_bad_distribution():
    rng = np.random.default_rng(4)
    probs = rng.random((6, 5, 5))
    probs /= probs.sum(axis=(1, 2), keepdims=True)
    check_distributions(probs)
    off = probs.copy()
    off[3] *= 1.0 + 1e-6
    with pytest.raises(ValidationError, match="sums to"):
        check_distributions(off)
    negative = probs.copy()
    negative[1, 0, 0] = -1e-12
    with pytest.raises(ValidationError, match="negative"):
        check_distributions(negative)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    p = rng.random((5, 5))
    p /= p.sum()
    dist = JointDistribution(p, GEOM5)
    path = tmp_path / "dist.csv"
    distribution_to_csv(dist, path)
    header = path.read_text().splitlines()[0]
    assert header == "x_A,x_B,p"
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    xs = GEOM5.positions
    # site labels, x_A-major
    np.testing.assert_array_equal(rows[:, 0], np.repeat(xs, 5))
    np.testing.assert_array_equal(rows[:, 1], np.tile(xs, 5))
    np.testing.assert_array_equal(rows[:, 2], p.ravel())


def test_single_state_distribution():
    s = make_single_state(LatticeGeometry(7, Boundary.REFLECTING), (0.6, 0.8j), x=2)
    p = s.distribution()
    assert p[LatticeGeometry(7).offset(2)] == pytest.approx(1.0)
