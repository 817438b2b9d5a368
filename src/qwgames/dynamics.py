"""Structured T-step evolution of the two-walker system.

One step is coin -> shift -> interaction:

    U = P_I . [S_A (C(theta_A) x I) (x) S_B (C(theta_B) x I)]

applied without ever materializing the 4L^2 x 4L^2 matrix.  Every operation
runs in one channel-major layout, (B, 4, L^2) with channel c = 2 s_A + s_B:
the two coin rotations are one real batched 4x4 matmul, the shift is one
precomputed gather, and the phase touches only the channel-plane sites where
its table is nonzero.  Callers see the (L, 2, L, 2) layout of `hilbert`.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import interactions
from .hilbert import (
    LEFT,
    RIGHT,
    Boundary,
    LatticeGeometry,
    ValidationError,
    make_initial_state,
    make_single_state,
)
from .interactions import InteractionKind, InteractionSpec

# amplitudes evolved together.  `_steps` keeps two complex128 buffers of a
# chunk (amps and coined), 32 B per amplitude: 512 KiB here, a quarter of a
# 2 MB per-core L2, which leaves room for the gather indices and BLAS's own
# buffers.  Of 8,192 ... 57,600 it was the fastest on the 61x61 sweep.
CHUNK_AMPLITUDES = 16_384


class DomainError(ValueError):
    """Raised when a strategy angle leaves [0, pi]."""


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
            # name the caller, past the generated __init__ and dataclasses.replace
            frame, level = sys._getframe(1), 2
            while frame.f_code.co_filename in ("<string>", field.__code__.co_filename):
                frame, level = frame.f_back, level + 1
            warnings.warn(
                f"boundary reachable: T = {self.steps} >= (L-1)/2 = "
                f"{(self.geometry.size - 1) // 2}; results depend on the "
                f"boundary rule ({self.geometry.boundary.value})",
                stacklevel=level,
            )


def coin_matrix(theta) -> np.ndarray:
    """R_y(theta) acting on (|R>, |L>), half-angle convention; an array of
    angles gives the stack of their matrices, shape (..., 2, 2)."""
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.stack([c, -s, s, c], -1).reshape(*theta.shape, 2, 2)


def chunk_profiles(geometry: LatticeGeometry) -> int:
    """Profiles per cache-sized chunk of a batched evolution."""
    return max(1, CHUNK_AMPLITUDES // (4 * geometry.size**2))


# -- channel-major kernel ----------------------------------------------------


def _joint_view(amps: np.ndarray, L: int) -> np.ndarray:
    """(B, 4, L^2) channel-major array -> (B, L, 2, L, 2) view of it."""
    return amps.reshape(-1, 2, 2, L, L).transpose(0, 3, 1, 4, 2)


def _coin_krons(thetas: np.ndarray) -> np.ndarray:
    """kron(R_y(theta_A), R_y(theta_B)) per profile, (B, 4, 4); real, so it acts
    on (B, 4, L^2) amplitudes as one matmul on their float view (B, 4, 2L^2)."""
    r = coin_matrix(thetas)  # (B, player, 2, 2)
    return (r[:, 0, :, None, :, None] * r[:, 1, None, :, None, :]).reshape(-1, 4, 4)


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
    """Flat gather indices of the two-walker shift on channel-major arrays.

    The shift is a permutation of basis states, so one precomputed take()
    realizes it: destination (s_A, s_B, x_A, x_B) reads the product of the
    two walkers' sources.
    """
    x, s = (a.T for a in _walker_shift(L, boundary))  # (s, x)
    site = x[:, None, :, None] * L + x[None, :, None, :]
    coin = 2 * s[:, None, :, None] + s[None, :, None, :]
    perm = (coin * L * L + site).reshape(-1)
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
    """Strided (channel, site) slices of the (4, L^2) channel-major layout
    that cover the nonzero entries of the phase table, and the table there.

    Off the support every phase factor is exactly 1, so skipping it changes
    no bit.  The diagonal tables give the stride-(L+1) diagonal of each
    channel plane (coin-dependent: channels ::3); long range covers all.
    """
    table = interactions.phase_table(spec, geometry).transpose(1, 3, 0, 2).reshape(4, -1)
    channels = _cover(np.flatnonzero(table.any(axis=1)))
    sites = _cover(np.flatnonzero(table.any(axis=0)))
    values = table[channels, sites]
    values.flags.writeable = False
    return (slice(None), channels, sites), values


def _phase_factors(spec: InteractionSpec, geometry: LatticeGeometry, thetas: np.ndarray):
    """(support index, table on it, exp(i * coupling_b * table) on it per
    profile); the factors are None when the phase is a no-op."""
    index, values = _phase_support(spec, geometry)
    if spec.kind is InteractionKind.NONE or spec.strength == 0.0:
        return index, values, None
    coup = np.asarray(interactions.coupling(spec, thetas[:, 0], thetas[:, 1]), dtype=float)
    return index, values, np.exp(1j * coup[:, None, None] * values)


def _noise_draws(spec: InteractionSpec, steps: int, seed) -> np.ndarray:
    """One phase jitter eta_t per time step, uniform on [-sigma, sigma],
    from a generator seeded with seed.

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


def _steps(config: WalkConfig, thetas: np.ndarray, etas: np.ndarray, amps: np.ndarray):
    """Evolve the (B, 4, L^2) channel-major buffer amps in place, one step
    per noise jitter in etas: coin, shift, then the interaction phase and
    the step's jitter on the support of the phase table."""
    geom = config.geometry
    coined = np.empty_like(amps)
    flat, coined_flat = amps.reshape(len(amps), -1), coined.reshape(len(amps), -1)
    krons = _coin_krons(thetas)
    perm = _shift_permutation(geom.size, geom.boundary)
    index, values, factors = _phase_factors(config.interaction, geom, thetas)
    support = amps[index]
    for eta in etas:
        np.matmul(krons, amps.view(float), out=coined.view(float))
        coined_flat.take(perm, axis=1, out=flat, mode="clip")
        if factors is not None:
            support *= factors
        if eta != 0.0:
            support *= np.exp(1j * eta * values)


def evolve_batch(config: WalkConfig, thetas: np.ndarray) -> np.ndarray:
    """Evolve one initial state under B strategy profiles simultaneously.

    thetas: (B, 2) array of (theta_A, theta_B) pairs; returns the final
    amplitudes as a (B, L, 2, L, 2) view of the (B, 4, L^2) kernel buffer.
    Profiles run in chunks of `chunk_profiles` so each chunk stays
    cache-resident for all T steps.  A
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
    geom = config.geometry
    start = make_initial_state(geom, config.coin_a, config.coin_b)
    start = start.transpose(1, 3, 0, 2).reshape(4, -1)  # channel-major
    amps = np.empty((len(thetas), 4, geom.size**2), dtype=complex)
    size = chunk_profiles(geom)
    for lo in range(0, len(thetas), size):
        chunk = amps[lo : lo + size]
        chunk[:] = start
        _steps(config, thetas[lo : lo + size], etas, chunk)
    return _joint_view(amps, geom.size)


def evolve(config: WalkConfig, theta_a: float, theta_b: float) -> np.ndarray:
    """(L, 2, L, 2) amplitudes after T steps from the standard initial state
    under one strategy pair; deterministic in config.seed."""
    return evolve_batch(config, [[theta_a, theta_b]])[0]


def evolve_singles(geometry: LatticeGeometry, steps: int, thetas, coin) -> np.ndarray:
    """Final (B, L, 2) amplitudes of B non-interacting single walkers, one per
    angle in thetas, with the coin/shift conventions of the joint walk.

    The coin is one real batched matmul on the float view (B, L, 2, 2) of the
    state, the shift one gather of `_walker_shift`.
    """
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    if not np.all(np.isfinite(thetas)) or np.any((thetas < 0) | (thetas > np.pi)):
        raise DomainError("all strategy angles must lie in [0, pi]")
    start = make_single_state(geometry, coin)
    amps = np.broadcast_to(start, (len(thetas), *start.shape)).copy()
    r = coin_matrix(thetas)[:, None]  # (B, 1, 2, 2), broadcast over sites
    src_x, src_s = _walker_shift(geometry.size, geometry.boundary)
    perm = (2 * src_x + src_s).reshape(-1)  # flat (x, s) gather indices
    for _ in range(steps):
        coined = np.matmul(r, amps.view(float).reshape(*amps.shape, 2))
        amps = coined.view(complex).reshape(len(amps), -1).take(perm, axis=1).reshape(amps.shape)
    return amps


def evolve_single(geometry: LatticeGeometry, steps: int, theta: float, coin) -> np.ndarray:
    """(L, 2) amplitudes of one non-interacting walker after steps steps."""
    return evolve_singles(geometry, steps, [theta], coin)[0]
