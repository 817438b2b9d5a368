"""Structured T-step evolution of the two-walker system.

One step is coin -> shift -> interaction:

    U = P_I . [S_A (C(theta_A) x I) (x) S_B (C(theta_B) x I)]

applied without ever materializing the 4L^2 x 4L^2 matrix.  One kernel,
`_steps`, evolves every walk in a channel-major layout (B, C, S): the joint
walk as (B, 4, L^2) with channel c = 2 s_A + s_B, a single walker as
(B, 2, L) with channel s.  The coin rotations are one real batched C x C
matmul, the shift is one precomputed gather, and the joint walk's phase
touches only the channel-plane sites where its table is nonzero.

A walker that starts at x = 0 occupies after t steps only the t + 1 sites
of parity t, x = 2j - t with j = 0 ... t.  While T <= (L - 1) / 2 the walk
never meets the lattice edge, and the kernel evolves it in the coordinate
j = (x + t) / 2 on the T + 1 sites of this light cone (`reach`): there |R>
moves j -> j + 1, |L> stays at j, and every phase table, which depends only
on x_A - x_B = 2 (j_A - j_B), is the same at every step.  The cone's shift
wraps mod T + 1, but the wrap never reads a nonzero amplitude, so the cone
changes no bit of the result.  Longer walks run on the whole lattice with
its boundary.  Callers see the (n, 2, n, 2) and (L, 2) layouts of `hilbert`.
"""

from __future__ import annotations

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
    coin_vector,
    reach,
)
from .interactions import InteractionKind, InteractionSpec

# amplitudes evolved together, 4 n^2 a profile on n sites per walker
# (`chunk_profiles`).  `_steps` keeps two complex128 buffers of a chunk (amps
# and coined), 32 B per amplitude: 512 KiB here, a quarter of a 2 MB per-core
# L2, which leaves room for the gather indices and BLAS's own buffers.  Of
# 8,192 ... 57,600 it was the fastest on the 61x61 sweep.
CHUNK_AMPLITUDES = 16_384


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


def coin_matrix(theta) -> np.ndarray:
    """R_y(theta) acting on (|R>, |L>), half-angle convention; an array of
    angles gives the stack of their matrices, shape (..., 2, 2)."""
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.stack([c, -s, s, c], -1).reshape(*theta.shape, 2, 2)


def _lattice(geometry: LatticeGeometry, steps: int) -> tuple[int, int, Boundary | None]:
    """Sites per walker, offset of the start site and shift rule of the
    lattice `_steps` evolves a walk of T = steps steps on: the T + 1 sites
    j = (x + t) / 2 of the light cone, started at j = 0 (rule None), while
    T <= (L - 1) / 2; else the whole lattice and its boundary."""
    if steps > geometry.half:
        return geometry.size, geometry.half, geometry.boundary
    return steps + 1, 0, None


def chunk_profiles(geometry: LatticeGeometry, steps: int) -> int:
    """Profiles per cache-sized chunk of a batched evolution of steps steps,
    which evolves 4 n^2 amplitudes per profile on n sites per walker."""
    n = _lattice(geometry, steps)[0]
    return max(1, CHUNK_AMPLITUDES // (4 * n * n))


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
def _walker_shift(L: int, boundary: Boundary | None) -> np.ndarray:
    """Flat gather indices of one walker's conditional shift on the (2, L)
    channel-major layout: |R> arrives from x - 1, |L> from x + 1.  Rule None
    is the light cone's, on the sites j = (x + t) / 2: |R> arrives from
    j - 1 and |L> stays at j, wrapped mod L."""
    x = np.arange(L)
    src_x = np.stack([x - 1, x if boundary is None else x + 1])  # (s, x)
    src_s = np.repeat([[RIGHT], [LEFT]], L, axis=1)
    if boundary is Boundary.REFLECTING:
        # edge sites reflect: the coin flips instead of stepping out
        src_x[RIGHT, 0], src_s[RIGHT, 0] = 0, LEFT
        src_x[LEFT, -1], src_s[LEFT, -1] = L - 1, RIGHT
    else:
        src_x %= L
    perm = (src_s * L + src_x).reshape(-1)
    perm.flags.writeable = False  # shared by every caller
    return perm


@lru_cache(maxsize=None)
def _shift_permutation(L: int, boundary: Boundary | None) -> np.ndarray:
    """Flat gather indices of the two-walker shift on channel-major arrays.

    The shift is a permutation of basis states, so one precomputed take()
    realizes it: destination (s_A, s_B, x_A, x_B) reads the product of the
    two walkers' sources.
    """
    s, x = np.divmod(_walker_shift(L, boundary).reshape(2, L), L)  # (s, x)
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
def _phase_support(spec: InteractionSpec, geometry: LatticeGeometry, window: tuple):
    """Strided (channel, site) slices of the (4, n^2) channel-major layout of
    the n lattice sites range(*window) that cover the nonzero entries of the
    phase table, and the table there.

    The table is the lattice's own, cut to those sites: a long-range table
    depends on L through the minimal image.  Off the support every phase
    factor is exactly 1, so skipping it changes no bit.  The diagonal tables
    give the stride-(n+1) diagonal of each channel plane (coin-dependent:
    channels ::3); long range covers all.
    """
    cut = slice(*window)
    table = interactions.phase_table(spec, geometry)[cut, :, cut]
    table = table.transpose(1, 3, 0, 2).reshape(4, -1)
    channels = _cover(np.flatnonzero(table.any(axis=1)))
    sites = _cover(np.flatnonzero(table.any(axis=0)))
    values = table[channels, sites]
    values.flags.writeable = False
    return (slice(None), channels, sites), values


def _phase(config: WalkConfig, thetas: np.ndarray, window: slice):
    """The interaction phase of a joint walk on the lattice sites window, for
    `_steps`: the support index, the table on it, exp(i * coupling * table)
    on it per profile (None when that is a no-op) and the noise jitter of
    each step.  On the light cone the window is `reach`'s sites of parity T,
    whose table holds at every step: it depends only on x_A - x_B.

    A noisy walk draws one jitter eta_t per step, uniform on [-sigma, sigma],
    from a generator seeded with config.seed.  The jitter multiplies the
    phase table (for the noisy collision, the x_A = x_B indicator), not the
    whole state: a spatially uniform phase would drop out of every observable.
    """
    spec, geom, steps = config.interaction, config.geometry, config.steps
    index, values = _phase_support(spec, geom, window.indices(geom.size))
    etas = np.zeros(steps)
    if spec.noisy:
        rng = np.random.default_rng(config.seed)
        etas = rng.uniform(-spec.noise_sigma, spec.noise_sigma, steps)
    if spec.kind is InteractionKind.NONE or spec.strength == 0.0:
        return index, values, None, etas
    coup = np.asarray(interactions.coupling(spec, thetas[:, 0], thetas[:, 1]), dtype=float)
    return index, values, np.exp(1j * coup[:, None, None] * values), etas


def _steps(amps: np.ndarray, coins: np.ndarray, perm: np.ndarray, steps: int, phase=None):
    """Evolve the (B, C, S) channel-major buffer amps in place for steps
    steps: the real (B, C, C) coins act as one matmul on its float view
    (B, C, 2S), then perm gathers the shifted state.  A joint walk passes
    the `_phase` tuple, and each step ends with the coupling factors and
    that step's jitter on the support of the phase table."""
    coined = np.empty_like(amps)
    flat, coined_flat = amps.reshape(len(amps), -1), coined.reshape(len(amps), -1)
    if phase is not None:
        index, values, factors, etas = phase
        support = amps[index]
    for t in range(steps):
        np.matmul(coins, amps.view(float), out=coined.view(float))
        coined_flat.take(perm, axis=1, out=flat, mode="clip")
        if phase is None:
            continue
        if factors is not None:
            support *= factors
        if etas[t] != 0.0:
            support *= np.exp(1j * etas[t] * values)


def _angles(thetas) -> np.ndarray:
    """thetas as a float array, every angle checked to lie in [0, pi]."""
    thetas = np.asarray(thetas, dtype=float)
    if not np.all(np.isfinite(thetas)) or np.any((thetas < 0) | (thetas > np.pi)):
        raise ValidationError("all strategy angles must lie in [0, pi]")
    return thetas


def evolve_batch(config: WalkConfig, thetas: np.ndarray) -> np.ndarray:
    """Evolve one initial state under B strategy profiles simultaneously.

    thetas: (B, 2) array of (theta_A, theta_B) pairs; returns the final
    amplitudes on the n `reach` sites of each walker, off which the walk's
    are zero, as a (B, n, 2, n, 2) view of the (B, 4, n^2) kernel buffer.
    A noisy walk runs the one realization config.seed, whose per-step draws
    are shared across the batch (common random numbers), so a batched sweep
    is bit-identical to per-profile evolve calls.  The whole batch is one
    buffer: `equilibrium.distributions` hands it cache-sized chunks.
    """
    thetas = _angles(thetas)
    if thetas.ndim != 2 or thetas.shape[1] != 2:
        raise ValidationError(f"thetas must have shape (B, 2), got {thetas.shape}")
    geom, steps = config.geometry, config.steps
    n, start, rule = _lattice(geom, steps)
    coins = np.outer(coin_vector(config.coin_a, "A"), coin_vector(config.coin_b, "B"))
    amps = np.zeros((len(thetas), 4, n, n), dtype=complex)
    amps[:, :, start, start] = coins.reshape(4)  # channel c = 2 s_A + s_B
    amps = amps.reshape(len(thetas), 4, n * n)
    phase = _phase(config, thetas, reach(geom, steps))
    _steps(amps, _coin_krons(thetas), _shift_permutation(n, rule), steps, phase)
    return _joint_view(amps, n)


def evolve(config: WalkConfig, theta_a: float, theta_b: float) -> np.ndarray:
    """(L, 2, L, 2) amplitudes after T steps from the standard initial state
    under one strategy pair; deterministic in config.seed."""
    L, window = config.geometry.size, reach(config.geometry, config.steps)
    amps = np.zeros((L, 2, L, 2), dtype=complex)
    amps[window, :, window] = evolve_batch(config, [[theta_a, theta_b]])[0]
    return amps


def evolve_singles(geometry: LatticeGeometry, steps: int, thetas, coin) -> np.ndarray:
    """Final (B, L, 2) amplitudes of B non-interacting single walkers, one per
    angle in thetas, with the coin/shift conventions of the joint walk: the
    `_steps` kernel on a (B, 2, n) buffer of the n `reach` sites."""
    thetas = _angles(thetas).reshape(-1)
    n, start, rule = _lattice(geometry, steps)
    amps = np.zeros((len(thetas), 2, n), dtype=complex)
    amps[:, :, start] = coin_vector(coin, "single")
    _steps(amps, coin_matrix(thetas), _walker_shift(n, rule), steps)
    out = np.zeros((len(thetas), geometry.size, 2), dtype=complex)
    out[:, reach(geometry, steps)] = amps.transpose(0, 2, 1)
    return out


def evolve_single(geometry: LatticeGeometry, steps: int, theta: float, coin) -> np.ndarray:
    """(L, 2) amplitudes of one non-interacting walker after steps steps."""
    return evolve_singles(geometry, steps, [theta], coin)[0]
