import numpy as np
import pytest

from qwgames.dynamics import WalkConfig, evolve
from qwgames.hilbert import Boundary, LatticeGeometry, ValidationError
from qwgames.interactions import (
    InteractionKind,
    InteractionSpec,
    coupling,
    phase,
    phase_table,
)

GEOM = LatticeGeometry(7)


def test_spec_validation():
    # the config's field checks: 0 < alpha < inf, sigma >= 0 with 2 sigma finite
    for alpha in (0.0, np.inf, np.nan):
        with pytest.raises(ValidationError, match="range_exponent"):
            InteractionSpec(InteractionKind.LONG_RANGE, 1.0, range_exponent=alpha)
    for sigma in (-0.1, 1e308, np.inf, np.nan):
        with pytest.raises(ValidationError, match="noise_sigma"):
            InteractionSpec(InteractionKind.NOISY_COLLISION, 1.0, noise_sigma=sigma)
    # each shape parameter is checked only for the kind it shapes
    InteractionSpec(InteractionKind.COLLISION_PHASE, 1.0, range_exponent=np.inf, noise_sigma=-1.0)
    with pytest.raises(ValidationError):
        InteractionSpec("collision_phase", 1.0)  # must be the enum
    with pytest.raises(ValidationError):
        InteractionSpec(InteractionKind.COLLISION_PHASE, np.inf)


def test_with_strength_preserves_shape_parameters():
    spec = InteractionSpec(InteractionKind.LONG_RANGE, 1.0, range_exponent=3.0)
    out = spec.with_strength(0.25)
    assert out.strength == 0.25
    assert out.range_exponent == 3.0
    assert out.kind is InteractionKind.LONG_RANGE


def test_noisy_only_for_a_jittered_noisy_collision():
    assert InteractionSpec(InteractionKind.NOISY_COLLISION, 1.0, noise_sigma=0.3).noisy
    assert not InteractionSpec(InteractionKind.NOISY_COLLISION, 1.0).noisy
    # noise_sigma shapes the noisy collision only
    for kind in InteractionKind:
        if kind is not InteractionKind.NOISY_COLLISION:
            assert not InteractionSpec(kind, 1.0, noise_sigma=0.3).noisy


@pytest.mark.parametrize("kind", list(InteractionKind), ids=lambda k: k.value)
def test_coupled_inert_and_noisy_agree_with_the_phase(kind):
    # coupled: the strategies enter the phase; noisy: a jitter rides on the
    # table; inert: neither, so every step's phase is exactly 1
    for strength in (0.0, 1.3):
        for sigma in (0.0, 0.4):
            spec = InteractionSpec(kind, strength, noise_sigma=sigma)
            coupled = bool(np.any(coupling(spec, 1.1, 2.3) * phase_table(spec, GEOM)))
            noisy = kind is InteractionKind.NOISY_COLLISION and sigma > 0
            assert (spec.coupled, spec.noisy) == (coupled, noisy), spec
            assert spec.inert == (not coupled and not noisy), spec


def test_collision_phase_arithmetic():
    spec = InteractionSpec(InteractionKind.COLLISION_PHASE, np.pi)
    # pi * cos(-pi/3) = pi/2
    th_a, th_b = np.pi / 6, np.pi / 2
    assert phase(spec, GEOM, 0, 0, 0, 0, th_a, th_b) == pytest.approx(np.pi / 2)
    # off the diagonal the phase vanishes
    assert phase(spec, GEOM, 0, 1, 0, 0, th_a, th_b) == 0.0


def test_attractive_collision_is_strategy_independent():
    spec = InteractionSpec(InteractionKind.ATTRACTIVE_COLLISION, 0.7)
    for th_a, th_b in [(0.0, 0.0), (1.0, 2.5), (np.pi, 0.3)]:
        assert phase(spec, GEOM, 2, 2, 1, 0, th_a, th_b) == pytest.approx(-0.7)
    assert phase(spec, GEOM, 2, 3, 1, 0, 0.0, 0.0) == 0.0


def test_long_range_decay():
    spec = InteractionSpec(InteractionKind.LONG_RANGE, 1.0, range_exponent=2.0)
    # |dx| = 3, alpha = 2 -> 1 / (1 + 9)
    assert phase(spec, GEOM, -3, 0, 0, 0, 0.0, 0.0) == pytest.approx(0.1)
    assert phase(spec, GEOM, 0, 0, 0, 0, 0.0, 0.0) == pytest.approx(1.0)
    assert phase(spec, GEOM, 1, 0, 0, 0, 0.0, 0.0) == pytest.approx(0.5)


def test_long_range_minimal_image_under_periodic():
    spec = InteractionSpec(InteractionKind.LONG_RANGE, 1.0, range_exponent=2.0)
    # raw distance 6 on L = 7 wraps to 1
    assert phase(spec, GEOM, -3, 3, 0, 0, 0.0, 0.0) == pytest.approx(0.5)
    refl = LatticeGeometry(7, Boundary.REFLECTING)
    assert phase(spec, refl, -3, 3, 0, 0, 0.0, 0.0) == pytest.approx(1 / 37)


def test_long_range_sharp_exponent_localizes():
    spec = InteractionSpec(InteractionKind.LONG_RANGE, 1.0, range_exponent=64.0)
    table = phase_table(spec, LatticeGeometry(9, Boundary.REFLECTING))
    x = LatticeGeometry(9).positions
    d = np.abs(x[:, None] - x[None, :])
    far = d[:, None, :, None] >= 2
    assert np.all(table[np.broadcast_to(far, table.shape)] < 1e-15)


def test_coin_dependent_needs_matching_coins():
    spec = InteractionSpec(InteractionKind.COIN_DEPENDENT, 2.0)
    assert phase(spec, GEOM, 1, 1, 0, 0, 0.5, 0.5) == pytest.approx(2.0)
    assert phase(spec, GEOM, 1, 1, 0, 1, 0.5, 0.5) == 0.0
    assert phase(spec, GEOM, 1, 2, 0, 0, 0.5, 0.5) == 0.0


def test_none_kind_is_identically_zero():
    spec = InteractionSpec()
    assert np.all(phase_table(spec, GEOM) == 0.0)
    assert float(coupling(spec, 1.0, 2.0)) == 0.0


def test_coupling_broadcasts_over_angle_arrays():
    spec = InteractionSpec(InteractionKind.COLLISION_PHASE, 2.0)
    th = np.linspace(0, np.pi, 5)
    np.testing.assert_allclose(coupling(spec, th, 0.0), 2.0 * np.cos(th))


def test_noise_sigma_zero_matches_plain_collision_bitwise():
    geom = LatticeGeometry(11)
    plain = WalkConfig(
        geom, 4, interaction=InteractionSpec(InteractionKind.COLLISION_PHASE, 1.3)
    )
    noisy = WalkConfig(
        geom,
        4,
        interaction=InteractionSpec(InteractionKind.NOISY_COLLISION, 1.3, noise_sigma=0.0),
    )
    a = evolve(plain, 0.9, 2.1)
    b = evolve(noisy, 0.9, 2.1)
    np.testing.assert_array_equal(a, b)


def test_phase_table_shapes():
    for kind in InteractionKind:
        spec = InteractionSpec(kind, 1.0)
        assert phase_table(spec, GEOM).shape == (7, 2, 7, 2)


@pytest.mark.parametrize("boundary", list(Boundary), ids=lambda b: b.value)
@pytest.mark.parametrize("size", [3, 5, 15, 31])
@pytest.mark.parametrize("kind", list(InteractionKind), ids=lambda k: k.value)
def test_every_catalog_entry_is_unchanged_when_the_walkers_swap(kind, size, boundary):
    # equilibrium._mirrors reduces a profile's mirror from the transposed P on
    # the strength of this alone: there is no runtime check of the table
    spec = InteractionSpec(kind, 0.7, range_exponent=1.5, noise_sigma=0.3)
    table = phase_table(spec, LatticeGeometry(size, boundary))
    assert table.tobytes() == table.transpose(2, 3, 0, 1).tobytes()
    a, b = np.random.default_rng(size).uniform(0, np.pi, (2, 50))
    assert coupling(spec, a, b).tobytes() == coupling(spec, b, a).tobytes()
