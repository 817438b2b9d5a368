import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qwgames.hilbert import (
    CSV_BLOCK_ROWS,
    JointDistribution,
    LatticeGeometry,
    ValidationError,
    born,
    check_distributions,
    distribution_to_csv,
    measure_joint,
    write_csv,
)
from oracles import channel_major, make_initial_state, random_joint_state, write_csv_cells

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
    assert state.shape == (5, 2, 5, 2)
    assert state[o, 0, o, 0] == 1.0
    assert np.count_nonzero(state) == 1


def test_initial_state_tensor_product_moduli():
    state = make_initial_state(GEOM5, (1 / np.sqrt(2), 1j / np.sqrt(2)), (1, 0))
    o = GEOM5.offset(0)
    assert abs(state[o, 0, o, 0]) ** 2 == pytest.approx(0.5)
    assert abs(state[o, 1, o, 0]) ** 2 == pytest.approx(0.5)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


def test_initial_state_names_offending_player():
    with pytest.raises(ValidationError, match="player A"):
        make_initial_state(GEOM5, (1, 1), (1, 0))
    with pytest.raises(ValidationError, match="player B"):
        make_initial_state(GEOM5, (1, 0), (0.5, 0.5))


def test_measure_localized_initial_state():
    dist = measure_joint(make_initial_state(GEOM5, (1, 0), (0, 1)), GEOM5)
    o = GEOM5.offset(0)
    assert dist.probabilities[o, o] == pytest.approx(1.0)
    assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def _random_product_state(rng, geometry):
    a = rng.normal(size=(geometry.size, 2)) + 1j * rng.normal(size=(geometry.size, 2))
    b = rng.normal(size=(geometry.size, 2)) + 1j * rng.normal(size=(geometry.size, 2))
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    return a, b, np.einsum("xs,yt->xsyt", a, b)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_product_state_measures_as_outer_product(seed):
    rng = np.random.default_rng(seed)
    a, b, joint = _random_product_state(rng, GEOM5)
    dist = measure_joint(joint, GEOM5)
    pa = np.sum(np.abs(a) ** 2, axis=1)
    pb = np.sum(np.abs(b) ** 2, axis=1)
    np.testing.assert_allclose(dist.probabilities, np.outer(pa, pb), atol=1e-12)


def test_distribution_rejects_unnormalized():
    with pytest.raises(ValidationError):
        JointDistribution(np.full((5, 5), 0.1), GEOM5)


def test_measure_joint_rejects_unnormalized_or_misshapen_amplitudes():
    state = make_initial_state(GEOM5, (1, 0), (0, 1))
    with pytest.raises(ValidationError, match="sums to"):
        measure_joint(1.01 * state, GEOM5)
    with pytest.raises(ValidationError, match="shape"):
        measure_joint(state, LatticeGeometry(7))


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
    path = tmp_path / "dist.csv"
    distribution_to_csv(p, GEOM5, path)
    header = path.read_text().splitlines()[0]
    assert header == "x_A,x_B,p"
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    xs = GEOM5.positions
    # site labels, x_A-major
    np.testing.assert_array_equal(rows[:, 0], np.repeat(xs, 5))
    np.testing.assert_array_equal(rows[:, 1], np.tile(xs, 5))
    np.testing.assert_array_equal(rows[:, 2], p.ravel())
    # the bytes of the per-cell writer: integer labels as is, p as %.17g
    ref = tmp_path / "ref.csv"
    write_csv_cells(
        ref, ["x_A", "x_B", "p"],
        [[xa, xb, p[i, j]] for i, xa in enumerate(xs) for j, xb in enumerate(xs)],
    )
    assert path.read_bytes() == ref.read_bytes()


# values whose %.17g text is easy to get wrong: nan, both infinities, a signed
# zero, the least subnormal, the largest magnitudes, a decimal that does not
# round trip in fewer digits, and integers stored as floats
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, -1.7976931348623157e308,
           0.1, 1 / 3, -7.0, 2.0**53, 1e16, 1e-7, 123456789.125]


def _same_bytes(tmp_path, header, table, cells):
    """write_csv of `table` against the per-cell writer of `cells`."""
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write_csv(new, header, table)
    write_csv_cells(ref, header, cells)
    assert new.read_bytes() == ref.read_bytes()
    return new.read_bytes()


@pytest.mark.parametrize(
    "shape", [(5, 3), (1, 15), (15, 1), (0, 3)], ids=["rows", "one-row", "one-column", "no-rows"]
)
def test_float_csv_is_the_per_cell_writer_byte_for_byte(tmp_path, shape):
    table = np.resize(np.array(SPECIAL), shape)
    header = [f"c{k}" for k in range(shape[1])]
    text = _same_bytes(tmp_path, header, table, table)
    assert text.count(b"\r\n") == shape[0] + 1
    assert text.startswith(",".join(header).encode() + b"\r\n")


@pytest.mark.parametrize(
    "rows", [CSV_BLOCK_ROWS, 2 * CSV_BLOCK_ROWS + 3], ids=["one-block", "past-two-blocks"]
)
def test_float_csv_in_blocks_is_the_per_cell_writer_byte_for_byte(tmp_path, rows):
    # integer labels, the special values and random floats across block edges
    rng = np.random.default_rng(8)
    table = np.column_stack([
        np.arange(rows) - rows // 2, np.resize(np.array(SPECIAL), rows), rng.normal(size=rows)
    ])
    text = _same_bytes(tmp_path, ["k", "special", "normal"], table, table)
    assert text.count(b"\r\n") == rows + 1


def test_float_csv_prints_integer_columns_as_integers(tmp_path):
    xs = LatticeGeometry(7).positions
    cells = [[int(k), x, 0.5 * x] for k, x in enumerate(xs)]  # a Python and a numpy int
    text = _same_bytes(tmp_path, ["k", "x", "v"], np.array(cells, dtype=float), cells)
    assert text.splitlines()[1] == b"0,-3,-1.5"


def test_float_csv_text_of_each_special_value(tmp_path):
    text = _same_bytes(tmp_path, ["v"], np.array(SPECIAL)[:, None], [[v] for v in SPECIAL])
    assert text.split(b"\r\n")[1:-1] == [
        b"nan", b"inf", b"-inf", b"-0", b"0", b"4.9406564584124654e-324",
        b"1e+308", b"-1.7976931348623157e+308", b"0.10000000000000001",
        b"0.33333333333333331", b"-7", b"9007199254740992", b"10000000000000000",
        b"9.9999999999999995e-08", b"123456789.125",
    ]


def test_float_csv_rejects_a_table_that_does_not_match_its_header(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a", "b"], np.zeros((3, 3)))


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(1, 4))))
def test_any_float_table_is_the_per_cell_writer_byte_for_byte(tmp_path_factory, table):
    tmp = tmp_path_factory.mktemp("csv")
    _same_bytes(tmp, [f"c{k}" for k in range(table.shape[1])], table, table)


def test_born_traces_the_channels_in_one_fixed_order():
    rng = np.random.default_rng(5)
    joint = rng.normal(size=(6, 4, 9, 9)) + 1j * rng.normal(size=(6, 4, 9, 9))
    a = np.abs(joint) ** 2
    want = (a[:, 0] + a[:, 1]) + (a[:, 2] + a[:, 3])
    assert born(joint).tobytes() == want.tobytes()
    # the bits of the coins traced out site major, s_B and then s_A
    site = np.abs(joint.reshape(6, 2, 2, 9, 9).transpose(0, 3, 1, 4, 2)) ** 2
    traced = (site[:, :, 0, :, 0] + site[:, :, 0, :, 1]) + (site[:, :, 1, :, 0] + site[:, :, 1, :, 1])
    assert born(joint).tobytes() == traced.tobytes()
    # a stack of single walkers, (B, 2, n)
    single = joint[:, :2, 0]
    assert born(single).tobytes() == (a[:, 0, 0] + a[:, 1, 0]).tobytes()


def test_measure_joint_is_born_of_the_channel_major_state():
    geom = LatticeGeometry(9)
    state = random_joint_state(geom, np.random.default_rng(6))
    got = measure_joint(state, geom).probabilities
    assert got.tobytes() == born(channel_major(state)[None])[0].tobytes()
