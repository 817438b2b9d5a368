"""Structured one-step and T-step evolution of the two-walker system.

One step is coin -> shift -> interaction:

    U = P_I . [S_A (C(theta_A) x I) (x) S_B (C(theta_B) x I)]

applied without ever materializing the 4L^2 x 4L^2 matrix.  Every operation
runs in one channel layout, (B, L, L, 4) with joint coin channel
c = 2 s_A + s_B, held flat as (B, 4L^2): the two coin rotations are one
batched 4x4 matmul, the shift is one precomputed gather, and the interaction
phase touches only the sites where its table is nonzero.  States handed to
callers keep the (L, 2, L, 2) layout of `hilbert`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import interactions
from .hilbert import (
    LEFT,
    RIGHT,
    Boundary,
    JointState,
    LatticeGeometry,
    SingleState,
    ValidationError,
    make_initial_state,
    make_single_state,
)
from .interactions import InteractionKind, InteractionSpec

# amplitudes evolved together: 0.9 MB of complex128, so a chunk of profiles
# stays resident in a 2 MB per-core L2 cache through all T steps
CHUNK_AMPLITUDES = 57_600


class DomainError(ValueError):
    """Raised when a strategy angle leaves [0, pi]."""


@dataclass(frozen=True)
class StrategyProfile:
    """The two coin angles, each in [0, pi]."""

    theta_a: float
    theta_b: float

    def __post_init__(self):
        for name, th in (("theta_a", self.theta_a), ("theta_b", self.theta_b)):
            if not np.isfinite(th):
                raise DomainError(f"{name} must be finite, got {th!r}")
            if not 0.0 <= th <= np.pi:
                raise DomainError(f"{name} = {th!r} outside [0, pi]")


@dataclass(frozen=True)
class WalkConfig:
    """Everything needed to run one T-step evolution except the strategies.

    A noisy interaction draws its phase jitter from `seed`; a payoff is the
    mean over `ensemble` noise realizations, seeded seed, seed+1, ...  A
    deterministic walk ignores both.
    """

    geometry: LatticeGeometry
    steps: int
    coin_a: tuple = (1.0, 0.0)
    coin_b: tuple = (1.0, 0.0)
    interaction: InteractionSpec = field(default_factory=InteractionSpec)
    seed: int = 0
    ensemble: int = 1

    def __post_init__(self):
        if self.steps < 1:
            raise ValidationError(f"steps must be >= 1, got {self.steps}")
        if self.ensemble < 1:
            raise ValidationError(f"ensemble must be >= 1, got {self.ensemble}")
        if self.steps >= (self.geometry.size - 1) // 2:
            warnings.warn(
                f"boundary reachable: T = {self.steps} >= (L-1)/2 = "
                f"{(self.geometry.size - 1) // 2}; results depend on the "
                f"boundary rule ({self.geometry.boundary.value})",
                stacklevel=3,  # past the dataclass __init__, to the caller
            )


def coin_matrix(theta: float) -> np.ndarray:
    """R_y(theta) acting on (|R>, |L>), half-angle convention."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


def chunk_profiles(geometry: LatticeGeometry) -> int:
    """Profiles per cache-sized chunk of a batched evolution."""
    return max(1, CHUNK_AMPLITUDES // (4 * geometry.size**2))


# -- channel-layout kernel ---------------------------------------------------


def _to_channels(state: JointState) -> np.ndarray:
    """(L, 2, L, 2) state -> fresh (1, 4L^2) channel-layout array."""
    return state.amplitudes.transpose(0, 2, 1, 3).copy().reshape(1, -1)


def _to_state(amps: np.ndarray, geometry: LatticeGeometry) -> JointState:
    """(1, 4L^2) channel-layout array -> (L, 2, L, 2) state."""
    L = geometry.size
    return JointState(amps.reshape(L, L, 2, 2).transpose(0, 2, 1, 3).copy(), geometry)


def _coin_transposes(thetas: np.ndarray) -> np.ndarray:
    """kron(R_y(theta_A), R_y(theta_B))^T = kron(R_y(theta_A)^T, R_y(theta_B)^T)
    per profile, shape (B, 4, 4)."""
    c, s = np.cos(thetas / 2.0), np.sin(thetas / 2.0)
    r_t = np.stack([c, s, -s, c], -1).reshape(-1, 2, 2, 2)  # (B, player, 2, 2)
    kron = r_t[:, 0, :, None, :, None] * r_t[:, 1, None, :, None, :]
    return kron.reshape(-1, 4, 4).astype(complex)


@lru_cache(maxsize=None)
def _walker_shift(L: int, boundary: Boundary) -> tuple[np.ndarray, np.ndarray]:
    """Source site and source coin of each destination (x, s) under one
    walker's conditional shift: |R> arrives from x - 1, |L> from x + 1."""
    x = np.arange(L)
    src_x = np.stack([x - 1, x + 1], axis=1)
    src_s = np.tile([RIGHT, LEFT], (L, 1))
    if boundary is Boundary.PERIODIC:
        src_x %= L
    else:
        # edge sites reflect: the coin flips instead of stepping out
        src_x[0, RIGHT], src_s[0, RIGHT] = 0, LEFT
        src_x[-1, LEFT], src_s[-1, LEFT] = L - 1, RIGHT
    src_x.flags.writeable = src_s.flags.writeable = False  # shared by every caller
    return src_x, src_s


@lru_cache(maxsize=None)
def _shift_permutation(L: int, boundary: Boundary) -> np.ndarray:
    """Flat gather indices of the two-walker shift on channel-layout arrays.

    The shift is a permutation of basis states, so one precomputed take()
    realizes it: destination (x_A, x_B, s_A, s_B) reads the product of the
    two walkers' sources.
    """
    x, s = _walker_shift(L, boundary)
    site = x[:, None, :, None] * L + x[None, :, None, :]
    coin = 2 * s[:, None, :, None] + s[None, :, None, :]
    perm = (site * 4 + coin).reshape(-1)
    perm.flags.writeable = False
    return perm


def _cover(idx: np.ndarray) -> slice:
    """Evenly strided slice covering the sorted indices idx; a superset of
    them when they are not evenly spaced."""
    if len(idx) == 0:
        return slice(0, 0)
    step = int(np.gcd.reduce(np.diff(idx))) if len(idx) > 1 else 1
    return slice(int(idx[0]), int(idx[-1]) + 1, step)


@lru_cache(maxsize=64)
def _phase_support(spec: InteractionSpec, geometry: LatticeGeometry):
    """Strided (site, channel) slices of the (L^2, 4) channel layout that
    cover the nonzero entries of the phase table, and the table there.

    Off the support every phase factor is exactly 1, so skipping it changes
    no bit.  The diagonal tables give sites ::L+1, a fraction 1/L of the
    state; long range covers everything.
    """
    L = geometry.size
    table = interactions.phase_table(spec, geometry).transpose(0, 2, 1, 3).reshape(L * L, 4)
    sites = _cover(np.flatnonzero(table.any(axis=1)))
    channels = _cover(np.flatnonzero(table.any(axis=0)))
    values = table[sites, channels]
    values.flags.writeable = False
    return (slice(None), sites, channels), values


def _phase_factors(spec: InteractionSpec, geometry: LatticeGeometry, thetas: np.ndarray):
    """(support index, table on it, exp(i * coupling_b * table) on it per
    profile); the factors are None when the phase is a no-op."""
    index, values = _phase_support(spec, geometry)
    if spec.kind is InteractionKind.NONE or spec.strength == 0.0:
        return index, values, None
    coup = np.asarray(interactions.coupling(spec, thetas[:, 0], thetas[:, 1]), dtype=float)
    return index, values, np.exp(1j * coup[:, None, None] * values)


def _noise_draws(spec: InteractionSpec, steps: int, seed) -> np.ndarray:
    """One phase jitter eta_t per time step, uniform on [-sigma, sigma];
    seed is an int or a Generator, which the draws advance.

    The jitter multiplies the interaction's spatial table (for the noisy
    collision, the x_A = x_B indicator), not the whole state: a spatially
    uniform phase would drop out of every observable.
    """
    if spec.noisy:
        if seed is None:
            raise ValidationError("noisy interaction requires a seeded rng")
        rng = np.random.default_rng(seed)
        return rng.uniform(-spec.noise_sigma, spec.noise_sigma, size=steps)
    return np.zeros(steps)


def _interact(support: np.ndarray, factors, values: np.ndarray, eta: float):
    """Multiply the support view of (B, 4L^2) amplitudes in place by the
    interaction phase factors and by the step's noise jitter."""
    if factors is not None:
        support *= factors
    if eta != 0.0:
        support *= np.exp(1j * eta * values)


def _steps(config: WalkConfig, thetas: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """Channel-layout amplitudes (B, 4L^2) after one step per noise draw in etas."""
    geom = config.geometry
    L = geom.size
    init = make_initial_state(geom, config.coin_a, config.coin_b)
    amps = np.empty((len(thetas), L * L, 4), dtype=complex)
    amps[:] = _to_channels(init).reshape(L * L, 4)
    coined = np.empty_like(amps)
    flat, coined_flat = amps.reshape(len(amps), -1), coined.reshape(len(amps), -1)
    coin_t = _coin_transposes(thetas)
    perm = _shift_permutation(L, geom.boundary)
    index, values, factors = _phase_factors(config.interaction, geom, thetas)
    support = amps[index]
    for eta in etas:
        np.matmul(amps, coin_t, out=coined)
        coined_flat.take(perm, axis=1, out=flat, mode="clip")
        _interact(support, factors, values, eta)
    return flat


def evolve_batch(config: WalkConfig, thetas: np.ndarray) -> np.ndarray:
    """Evolve one initial state under B strategy profiles simultaneously.

    thetas: (B, 2) array of (theta_A, theta_B) pairs; returns the final
    amplitudes with shape (B, L, 2, L, 2).  Profiles run in chunks of
    `chunk_profiles` so each chunk stays cache-resident for all T steps.  A
    noisy walk runs the one realization config.seed, whose per-step draws are
    shared across the batch (common random numbers), so a batched sweep is
    bit-identical to per-profile evolve calls.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != 2:
        raise ValidationError(f"thetas must have shape (B, 2), got {thetas.shape}")
    if not np.all(np.isfinite(thetas)) or thetas.min() < 0 or thetas.max() > np.pi:
        raise DomainError("all strategy angles must lie in [0, pi]")

    etas = _noise_draws(config.interaction, config.steps, config.seed)
    L = config.geometry.size
    out = np.empty((len(thetas), L, 2, L, 2), dtype=complex)
    size = chunk_profiles(config.geometry)
    for lo in range(0, len(thetas), size):
        amps = _steps(config, thetas[lo : lo + size], etas)
        out[lo : lo + size] = amps.reshape(-1, L, L, 2, 2).transpose(0, 1, 3, 2, 4)
    return out


# -- single-profile public operations ---------------------------------------


def _profile_thetas(profile: StrategyProfile) -> np.ndarray:
    return np.array([[profile.theta_a, profile.theta_b]])


def apply_coin(state: JointState, profile: StrategyProfile) -> JointState:
    """Rotate each walker's coin by its strategy angle."""
    L = state.geometry.size
    coin_t = _coin_transposes(_profile_thetas(profile))
    amps = np.matmul(_to_channels(state).reshape(1, L * L, 4), coin_t)
    return _to_state(amps, state.geometry)


def apply_shift(state: JointState) -> JointState:
    """Conditionally shift both walkers, honoring the boundary rule."""
    perm = _shift_permutation(state.geometry.size, state.geometry.boundary)
    return _to_state(_to_channels(state)[:, perm], state.geometry)


def apply_interaction(
    state: JointState,
    profile: StrategyProfile,
    spec: InteractionSpec,
    rng=None,
) -> JointState:
    """Multiply each amplitude by exp(i * I(...)); moduli are untouched."""
    amps = _to_channels(state)
    index, values, factors = _phase_factors(spec, state.geometry, _profile_thetas(profile))
    support = amps.reshape(1, -1, 4)[index]
    _interact(support, factors, values, _noise_draws(spec, 1, rng)[0])
    return _to_state(amps, state.geometry)


def step(
    state: JointState, profile: StrategyProfile, config: WalkConfig, rng=None
) -> JointState:
    """One full evolution step: coin, then shift, then interaction phase."""
    out = apply_coin(state, profile)
    out = apply_shift(out)
    return apply_interaction(out, profile, config.interaction, rng)


def evolve(config: WalkConfig, profile: StrategyProfile) -> JointState:
    """T-step evolution from the standard initial state; deterministic in
    config.seed."""
    amps = evolve_batch(config, _profile_thetas(profile))[0]
    return JointState(amps, config.geometry)


def evolve_single(
    geometry: LatticeGeometry, steps: int, theta: float, coin
) -> SingleState:
    """Non-interacting single-walker walk with the same coin/shift conventions."""
    if not 0.0 <= theta <= np.pi:
        raise DomainError(f"theta = {theta!r} outside [0, pi]")
    amps = make_single_state(geometry, coin).amplitudes
    src_x, src_s = _walker_shift(geometry.size, geometry.boundary)
    r = coin_matrix(theta)
    for _ in range(steps):
        amps = (amps @ r.T)[src_x, src_s]
    return SingleState(amps, geometry)
