"""Structured T-step evolution of the two-walker system.

One step is coin -> shift -> interaction:

    U = P_I . [S_A (C(theta_A) x I) (x) S_B (C(theta_B) x I)]

applied without ever materializing the 4L^2 x 4L^2 matrix.  One kernel,
`_steps`, evolves every walk in a channel-major layout (B, C, S): the joint
walk as (B, 4, n^2) with channel c = 2 s_A + s_B, a single walker as
(B, 2, n) with channel s, on n sites per walker.  The coin rotations are one
real batched C x C matmul, the shift is one precomputed gather, and the joint
walk's phase exp(i c V), c the profile's coupling, touches only the
channel-plane sites where its table V is nonzero.

A walker that starts at x = 0 occupies after t steps only the t + 1 sites
of parity t, x = 2j - t with j = 0 ... t, and meets the lattice edge no
sooner than after h = (L - 1) / 2 steps.  So every walk runs its first
min(T, h) steps in the coordinate j = (x + t) / 2 on the sites of this light
cone (`reach`): there |R> moves j -> j + 1, |L> stays at j, and every phase
table, which depends only on x_A - x_B = 2 (j_A - j_B), is the same at every
step.  The cone's shift wraps, but the wrap never reads a nonzero amplitude,
so the cone changes no bit of the result.  A walk of T > h steps then hands
the cone's state to the lattice's even offsets, where a walker stands at
t = h, and runs its other T - h steps on the whole lattice with its
boundary.  What a walk needs that does not depend on the strategies is
planned once per walk (`_joint_plan`, `_single_legs`).  Callers see the
(n, 2, n, 2) and (L, 2) layouts of `hilbert`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

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
from .interactions import InteractionSpec

# amplitudes evolved together, 4 n^2 a profile on n sites per walker
# (`chunk_profiles`).  `_run` keeps two complex128 buffers of a chunk (amps
# and the scratch), 32 B per amplitude: 512 KiB here, a quarter of a 2 MB
# per-core L2, which leaves room for the gather indices and BLAS's own
# buffers.  Of 8,192 ... 57,600 it was the fastest on the 61x61 sweep.
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
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


def coin_matrix(theta) -> np.ndarray:
    """R_y(theta) acting on (|R>, |L>), half-angle convention; an array of
    angles gives the stack of their matrices, shape (..., 2, 2)."""
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.stack([c, -s, s, c], -1).reshape(*theta.shape, 2, 2)


def _lattice(geometry: LatticeGeometry, steps: int) -> list[tuple[int, int, Boundary | None]]:
    """The legs `_steps` evolves a walk of T = steps steps on, each as
    (sites per walker, steps, shift rule): the light cone's first min(T, h)
    steps, h = (L - 1) / 2, on its sites j = (x + t) / 2 from j = 0 (rule
    None); past h, the other T - h steps on the whole lattice and its
    boundary, from the cone's state on the lattice's even offsets."""
    h = geometry.half
    if steps <= h:
        return [(steps + 1, steps, None)]
    return [(h + 1, h, None), (geometry.size, steps - h, geometry.boundary)]


def chunk_profiles(geometry: LatticeGeometry, steps: int) -> int:
    """Profiles per cache-sized chunk of a batched evolution of steps steps,
    which ends with 4 n^2 amplitudes per profile on n sites per walker."""
    n = _lattice(geometry, steps)[-1][0]
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
    return (src_s * L + src_x).reshape(-1)


def _shift_permutation(L: int, boundary: Boundary | None) -> np.ndarray:
    """Flat gather indices of the two-walker shift on channel-major arrays.

    The shift is a permutation of basis states, so one precomputed take()
    realizes it: destination (s_A, s_B, x_A, x_B) reads the product of the
    two walkers' sources.
    """
    s, x = np.divmod(_walker_shift(L, boundary).reshape(2, L), L)  # (s, x)
    site = x[:, None, :, None] * L + x[None, :, None, :]
    coin = 2 * s[:, None, :, None] + s[None, :, None, :]
    return (coin * L * L + site).reshape(-1)


def _cover(idx: np.ndarray) -> slice:
    """Evenly strided slice covering the sorted indices idx; a superset of
    them when they are not evenly spaced."""
    if len(idx) == 0:
        return slice(0, 0)
    step = int(np.gcd.reduce(np.diff(idx))) if len(idx) > 1 else 1
    return slice(int(idx[0]), int(idx[-1]) + 1, step)


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
    return (slice(None), channels, sites), table[channels, sites]


class _Leg(NamedTuple):
    """One leg of a walk in `_lattice`, as `_steps` runs it: the gather of
    its shift and, on a joint walk that interacts, its phase as (support
    index of the table, the table there, its distinct values, the table as
    indices into them, the noise draws of its steps)."""

    sites: int
    steps: int
    perm: np.ndarray
    phase: tuple | None


class _Plan(NamedTuple):
    """What a joint walk needs that does not depend on the strategies: the
    (4,) start amplitudes at j_A = j_B = 0 and the legs.  Read-only, and
    shared by every call on one WalkConfig."""

    start: np.ndarray
    legs: tuple


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)
def _joint_plan(config: WalkConfig) -> _Plan:
    """The plan of a joint walk, keyed by the whole config, seed included.

    Each leg's phase table is the lattice's, cut to the sites the walkers
    reach at the leg's end: on the light cone they hold at every step, as
    the table depends only on x_A - x_B.  A noisy walk draws one jitter eta_t
    per step, uniform on [-sigma, sigma], from a generator seeded with
    config.seed.  The jitter multiplies the phase table (for the noisy
    collision, the x_A = x_B indicator), not the whole state: a spatially
    uniform phase would drop out of every observable.
    """
    geom, spec, steps = config.geometry, config.interaction, config.steps
    start = np.outer(coin_vector(config.coin_a, "A"), coin_vector(config.coin_b, "B"))
    etas = np.zeros(steps)
    if spec.noisy:
        rng = np.random.default_rng(config.seed)
        etas = rng.uniform(-spec.noise_sigma, spec.noise_sigma, steps)
    _frozen(etas)
    legs, t = [], 0
    for n, k, rule in _lattice(geom, steps):
        t += k
        phase = None
        if not spec.inert:
            index, values = _phase_support(spec, geom, reach(geom, t).indices(geom.size))
            # one exp a profile per distinct value, ~n of a long-range table's
            # 4 n^2; in Python, as np.unique and np.searchsorted cost peak RSS
            distinct = sorted(set(values.ravel().tolist()))
            position = {v: j for j, v in enumerate(distinct)}
            inverse = np.array([position[v] for v in values.ravel().tolist()])
            inverse, distinct = inverse.reshape(values.shape), np.array(distinct)
            phase = (index, *map(_frozen, (values, distinct, inverse)), etas[t - k : t])
        legs.append(_Leg(n, k, _frozen(_shift_permutation(n, rule)), phase))
    return _Plan(_frozen(start.reshape(4)), tuple(legs))


@lru_cache(maxsize=64)
def _single_legs(geometry: LatticeGeometry, steps: int) -> tuple:
    """The legs of a free single walker, with its one-walker shift."""
    return tuple(
        _Leg(n, k, _frozen(_walker_shift(n, rule)), None)
        for n, k, rule in _lattice(geometry, steps)
    )


def _steps(amps, coined, coins, perm, steps: int, phase=None):
    """Evolve the (B, C, S) channel-major buffer amps in place for steps
    steps, with coined, of the same shape, as scratch: the real (B, C, C)
    coins act as one matmul on the float view (B, C, 2S), then perm gathers
    the shifted state.  A joint walk passes phase = (support index, table
    there, per-profile coupling factors there or None, per-step jitters),
    and each step ends with the factors and that step's jitter on the
    support."""
    real, coined_real = amps.view(float), coined.view(float)
    shape = len(amps), len(perm)  # perm gathers all C S amplitudes of a profile
    flat, coined_flat = amps.reshape(shape), coined.reshape(shape)
    if phase is not None:
        index, values, factors, etas = phase
        support = amps[index]
    for t in range(steps):
        np.matmul(coins, real, out=coined_real)
        coined_flat.take(perm, axis=1, out=flat, mode="clip")
        if phase is None:
            continue
        if factors is not None:
            support *= factors
        if etas[t] != 0.0:
            support *= np.exp(1j * etas[t] * values)


def _run(legs: tuple, start: np.ndarray, coins: np.ndarray, coupling=None) -> np.ndarray:
    """(B, C, n^w) amplitudes of B walks of w = C / 2 walkers after the legs,
    from the (C,) start amplitudes at site 0 of the cone, under the real
    (B, C, C) coins; a coupled joint walk passes its (B,) coupling.

    A call makes two arrays, the result and a scratch: the scratch is each
    leg's coined buffer and, on a walk past the cone, holds both of the cone
    leg's buffers; at t = h the cone's site j is the lattice's offset 2j."""
    B, C = coins.shape[:2]
    w = C // 2
    cone, last = legs[0], legs[-1]
    m, size = B * C * cone.sites**w, B * C * last.sites**w
    amps = np.zeros((B, C, last.sites**w), dtype=complex)
    scratch = np.empty(size if cone is last else max(size, 2 * m), dtype=complex)
    state, coined = amps, scratch[:size]
    if cone is not last:
        state, coined = scratch[:m].reshape(B, C, cone.sites**w), scratch[m : 2 * m]
        state.fill(0)
    state[:, :, 0] = start
    for leg in legs:
        if leg is not cone:
            even = (slice(None),) * 2 + (slice(None, None, 2),) * w
            amps.reshape(B, C, *[leg.sites] * w)[even] = state.reshape(B, C, *[cone.sites] * w)
            state, coined = amps, scratch[:size]
        phase = leg.phase
        if phase is not None:
            index, values, distinct, inverse, etas = phase
            factors = None
            if coupling is not None:
                factors = np.exp(1j * coupling[:, None] * distinct)[:, inverse]
            phase = index, values, factors, etas
        _steps(state, coined.reshape(state.shape), coins, leg.perm, leg.steps, phase)
    return amps


def _angles(thetas) -> np.ndarray:
    """thetas as a float array, every angle checked to lie in [0, pi]."""
    thetas = np.asarray(thetas, dtype=float)
    if not ((thetas >= 0) & (thetas <= np.pi)).all():  # nan compares False
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
    plan, spec = _joint_plan(config), config.interaction
    coupling = None
    if spec.coupled:
        coupling = np.asarray(interactions.coupling(spec, thetas[:, 0], thetas[:, 1]), dtype=float)
    amps = _run(plan.legs, plan.start, _coin_krons(thetas), coupling)
    return _joint_view(amps, plan.legs[-1].sites)


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
    `_steps` kernel on (B, 2, n) buffers, through the legs of `_lattice`."""
    thetas = _angles(thetas).reshape(-1)
    start = coin_vector(coin, "single")
    amps = _run(_single_legs(geometry, steps), start, coin_matrix(thetas))
    out = np.zeros((len(thetas), geometry.size, 2), dtype=complex)
    out[:, reach(geometry, steps)] = amps.transpose(0, 2, 1)
    return out


def evolve_single(geometry: LatticeGeometry, steps: int, theta: float, coin) -> np.ndarray:
    """(L, 2) amplitudes of one non-interacting walker after steps steps."""
    return evolve_singles(geometry, steps, [theta], coin)[0]
