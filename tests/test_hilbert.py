import json

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
    decode_index,
    distribution_from_csv,
    distribution_from_json,
    distribution_to_csv,
    distribution_to_json,
    encode_index,
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


def test_index_round_trip_covers_whole_space():
    L = GEOM5.size
    for k in range(4 * L * L):
        xa, sa, xb, sb = decode_index(GEOM5, k)
        assert encode_index(GEOM5, xa, sa, xb, sb) == k


def test_index_layout_is_row_major():
    # incrementing s_B moves one slot, x_B two, s_A 2L, x_A 4L
    L = GEOM5.size
    base = encode_index(GEOM5, 0, 0, 0, 0)
    assert encode_index(GEOM5, 0, 0, 0, 1) == base + 1
    assert encode_index(GEOM5, 0, 0, 1, 0) == base + 2
    assert encode_index(GEOM5, 0, 1, 0, 0) == base + 2 * L
    assert encode_index(GEOM5, 1, 0, 0, 0) == base + 4 * L


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
    assert state.norm == pytest.approx(1.0, abs=1e-12)


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
    back = distribution_from_csv(path, GEOM5)
    np.testing.assert_allclose(back.probabilities, p, atol=1e-15)


def test_json_round_trip():
    dist = measure_joint(make_initial_state(GEOM5, (1, 0), (1, 0)))
    text = distribution_to_json(dist)
    payload = json.loads(text)
    assert payload["geometry"]["size"] == 5
    assert payload["geometry"]["boundary"] == "periodic"
    back = distribution_from_json(text)
    np.testing.assert_array_equal(back.probabilities, dist.probabilities)
    assert back.geometry == dist.geometry


def test_single_state_distribution():
    s = make_single_state(LatticeGeometry(7, Boundary.REFLECTING), (0.6, 0.8j), x=2)
    p = s.distribution()
    assert p[LatticeGeometry(7).offset(2)] == pytest.approx(1.0)
