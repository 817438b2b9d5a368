"""Structured T-step evolution of the two-walker system.

One step is coin -> shift -> interaction:

    U = P_I . [S_A (C(theta_A) x I) (x) S_B (C(theta_B) x I)]

applied without ever materializing the 4L^2 x 4L^2 matrix.  One kernel,
`_steps`, evolves every walk in a channel-major layout (B, C, S): the joint
walk as (B, 4, n^2) with channel c = 2 s_A + s_B, a single walker as
(B, 2, n) with channel s, on n sites per walker.  The coin rotations are one
real batched C x C matmul, the shift is one precomputed gather, and the joint
walk's phase exp(i c f(d)), c the profile's coupling and f the profile of
the walkers' distance d, touches only the kind's coin channels and, for a
contact kind, the sites where d = 0.

A walker that starts at x = 0 occupies after t steps only the t + 1 sites
of parity t, x = 2j - t with j = 0 ... t, and meets the lattice edge no
sooner than after h = (L - 1) / 2 steps.  So every walk runs its first
min(T, h) steps in the coordinate j = (x + t) / 2 on the sites of this light
cone (`reach`): there |R> moves j -> j + 1, |L> stays at j, and every
phase, which depends only on x_A - x_B = 2 (j_A - j_B), is the same at every
step.  The cone's shift wraps, but the wrap never reads a nonzero amplitude,
so the cone changes no bit of the result.  A walk of T > h steps then hands
the cone's state to the lattice's even offsets, where a walker stands at
t = h, and runs its other T - h steps on the whole lattice with its
boundary.  What a walk needs beyond the strategies, coins, strength and
noise draws is planned once per geometry, steps, number of walkers and
interaction kind (`_plan`): each leg's gather, the joint one composed from
the two walkers', and its phase from the walkers' distances, not a dense
(L, 2, L, 2) table.  Callers see the kernel's own layout on the
`reach` sites, (B, 4, n, n) and (B, 2, n); only the one-state `evolve` and
`evolve_single` return the whole lattice, site major.
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
from .interactions import InteractionKind, InteractionSpec

# amplitudes evolved together, 4 n^2 a profile on n sites per walker
# (`chunk_profiles`).  `_run` evolves each leg in two complex128 buffers (amps
# and the scratch), 32 B per amplitude: 512 KiB here, a quarter of a 2 MB
# per-core L2, which leaves room for the gather indices and BLAS's own
# buffers.  Of 8,192 ... 57,600 it was the fastest on the 61x61 sweep.
CHUNK_AMPLITUDES = 16_384


@dataclass(frozen=True)
class WalkConfig:
    """Everything needed to run one T-step evolution except the strategies.

    A noisy interaction draws its phase jitter from `seed`; a payoff is the
    mean over `ensemble` noise realizations, seeded seed, seed+1, ...  A
    deterministic walk ignores both.  The kernel's `_plan` holds neither, nor
    the strength or the coins, which are checked here to be normalized
    2-vectors.
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
        coin_vector(self.coin_a, "A")
        coin_vector(self.coin_b, "B")


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
    realizes it: destination (s_A, s_B, x_A, x_B) reads the source
    (2L^2 s'_A + L x'_A) + (L^2 s'_B + x'_B), each walker's part composed
    from its own `_walker_shift`.
    """
    s, x = np.divmod(_walker_shift(L, boundary).reshape(2, L), L)  # (s, x)
    a, b = L * (2 * L * s + x), L * L * s + x
    return np.add(a[:, None, :, None], b[None, :, None, :]).reshape(-1)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _phase_support(spec: InteractionSpec, geometry: LatticeGeometry, sites: slice):
    """The phase of walkers on the n lattice offsets sites each, read-only:
    its support in the (B, 4, n^2) buffer, the profile's distinct values and
    the support's indices into them, one row viewed once per channel.  A
    contact kind has the stride-(n + 1) diagonal of its channels and one
    value; long range, the whole plane, the profile at d = 0 ... d_max and
    the distances themselves, which depend on L through the minimal image.
    Off the support every phase factor is exactly 1, so skipping it changes
    no bit.
    """
    _, _, contact, channels = interactions.CATALOG[spec.kind]
    x = geometry.positions[sites]
    if contact:
        cells, d = slice(None, None, len(x) + 1), np.zeros(len(x), dtype=int)
    else:
        cells, d = slice(None), interactions.distance(geometry, x[:, None], x[None, :]).ravel()
    distinct = interactions.profile(spec, np.arange(d.max() + 1))
    # factors gathered through the view have the support's own shape, on
    # which the in-place product of each step runs up to 2x faster than
    # broadcast over the channels
    inverse = np.broadcast_to(d, (len(range(4)[channels]), len(d)))
    return (slice(None), channels, cells), _frozen(distinct), inverse


class _Leg(NamedTuple):
    """One leg of a walk in `_lattice`, as `_steps` runs it: the gather of
    its shift and, on an interacting joint walk, its `_phase_support`."""

    sites: int
    steps: int
    perm: np.ndarray
    phase: tuple | None


@lru_cache(maxsize=64)
def _plan(geometry: LatticeGeometry, steps: int, walkers: int, kind=InteractionKind.NONE,
          range_exponent=2.0) -> tuple:
    """The legs of a walk of one walker or two, read-only and keyed by what
    they are built from: not the coins, strength, noise seed or ensemble,
    which a coin catalog, a sweep or an ensemble varies.

    Each leg's phase is planned on the sites the walkers reach at the leg's
    end: on the light cone it holds at every step, as it depends only on
    x_A - x_B.  Every kind but none, a single walker's, has a phase.
    """
    shift = _walker_shift if walkers == 1 else _shift_permutation
    spec = InteractionSpec(kind, range_exponent=range_exponent)
    legs, t = [], 0
    for n, k, rule in _lattice(geometry, steps):
        t += k
        cut = reach(geometry, t)
        phase = None if kind is InteractionKind.NONE else _phase_support(spec, geometry, cut)
        legs.append(_Leg(n, k, _frozen(shift(n, rule)), phase))
    return tuple(legs)


def _steps(amps, coined, coins, perm, steps: int, phase=None):
    """Evolve the (B, C, S) channel-major buffer amps in place for steps
    steps, with coined, of the same shape, as scratch: the real (B, C, C)
    coins act as one matmul on the float view (B, C, 2S), then perm gathers
    the shifted state.  A joint walk passes phase = (support index, profile
    values there, per-profile coupling factors there, per-step jitters), and
    each step ends with the factors and that step's jitter on the support."""
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
        support *= factors
        if etas[t] != 0.0:
            support *= np.exp(1j * etas[t] * values)


def _run(legs: tuple, start: np.ndarray, coins: np.ndarray, coupling=None, etas=None):
    """(B, C, n^w) amplitudes of B walks of w = C / 2 walkers after the legs,
    from the (C,) start amplitudes at site 0 of the cone, under the real
    (B, C, C) coins; a joint walk passes its (B,) coupling and T jitters.

    Each leg evolves its own pair of buffers, the state and the coined
    scratch, made as one array: as two arrays each, they page-faulted on
    every chunk of a 61x61 race sweep, which ran 12-30 % slower on a 2-vCPU
    Xeon.  The result is a view of the last pair.  At t = h the cone's site
    j is the lattice's offset 2j."""
    B, C = coins.shape[:2]
    w, cone = C // 2, legs[0]
    for leg in legs:
        amps, coined = np.empty((2, B, C, leg.sites**w), dtype=complex)
        amps.fill(0)
        if leg is cone:
            amps[:, :, 0] = start
        else:
            even = (slice(None),) * 2 + (slice(None, None, 2),) * w
            amps.reshape(B, C, *[leg.sites] * w)[even] = state.reshape(B, C, *[cone.sites] * w)
        phase = leg.phase
        if phase is not None:
            index, distinct, inverse = phase
            # one exp a profile per distinct value, < 2n on a long-range leg
            factors = np.exp(1j * coupling[:, None] * distinct)[:, inverse]
            values = distinct[inverse]
            # of a walk's one or two legs, the cone takes the first steps' jitters
            phase = index, values, factors, etas[: leg.steps] if leg is cone else etas[-leg.steps :]
        _steps(amps, coined, coins, leg.perm, leg.steps, phase)
        state = amps
    return amps


def _angles(thetas) -> np.ndarray:
    """thetas as a float array, every angle checked to lie in [0, pi]."""
    thetas = np.asarray(thetas, dtype=float)
    if not ((thetas >= 0) & (thetas <= np.pi)).all():  # nan compares False
        raise ValidationError("all strategy angles must lie in [0, pi]")
    return thetas


def check_profiles(thetas) -> np.ndarray:
    """thetas as a (B, 2) float array of (theta_A, theta_B) profiles, every
    angle checked to lie in [0, pi]."""
    thetas = _angles(thetas)
    if thetas.ndim != 2 or thetas.shape[1] != 2:
        raise ValidationError(f"thetas must have shape (B, 2), got {thetas.shape}")
    return thetas


def jitters(config: WalkConfig) -> np.ndarray:
    """The T per-step jitters of the walk's noise realization config.seed,
    uniform on [-sigma, sigma]; zeros for a deterministic walk."""
    spec = config.interaction
    if not spec.noisy:
        return np.zeros(config.steps)
    sigma = spec.noise_sigma
    return np.random.default_rng(config.seed).uniform(-sigma, sigma, config.steps)


def evolve_batch(config: WalkConfig, thetas: np.ndarray, etas=None) -> np.ndarray:
    """Evolve one initial state under B strategy profiles simultaneously.

    thetas: (B, 2) array of (theta_A, theta_B) pairs; returns the final
    (B, 4, n, n) channel-major amplitudes on the n `reach` sites of each
    walker, off which the walk's are zero: the kernel's buffer.  A noisy
    walk runs the one realization config.seed: its jitters, one a step and
    shared by the batch (common random numbers), are etas, by default
    `jitters(config)`, so a batched sweep is bit-identical to per-profile
    evolve calls.  `equilibrium` hands it cache-sized chunks with each
    realization's jitters, drawn once for the batch.
    """
    thetas, spec = check_profiles(thetas), config.interaction
    legs = _plan(config.geometry, config.steps, 2, spec.kind, spec.range_exponent)
    coin_a, coin_b = (np.asarray(c, complex) for c in (config.coin_a, config.coin_b))
    start = (coin_a[:, None] * coin_b).reshape(4)  # the (4,) channels 2 s_A + s_B
    if etas is None:
        etas = jitters(config)
    coupling = interactions.coupling(spec, thetas[:, 0], thetas[:, 1])
    n = legs[-1].sites
    return _run(legs, start, _coin_krons(thetas), coupling, etas).reshape(-1, 4, n, n)


def evolve(config: WalkConfig, theta_a: float, theta_b: float) -> np.ndarray:
    """(L, 2, L, 2) site-major amplitudes after T steps from the standard
    initial state under one strategy pair; deterministic in config.seed."""
    L, window = config.geometry.size, reach(config.geometry, config.steps)
    amps = np.zeros((L, 2, L, 2), dtype=complex)
    final = evolve_batch(config, [[theta_a, theta_b]])[0]
    amps[window, :, window] = final.reshape(2, 2, *final.shape[1:]).transpose(2, 0, 3, 1)
    return amps


def evolve_singles(geometry: LatticeGeometry, steps: int, thetas, coin) -> np.ndarray:
    """Final (B, 2, n) channel-major amplitudes of B non-interacting single
    walkers, one per angle in thetas, on the n `reach` sites, with the
    coin/shift conventions of the joint walk: the `_steps` kernel on
    (B, 2, n) buffers, through the legs of `_lattice`."""
    thetas = _angles(thetas).reshape(-1)
    start = coin_vector(coin, "single")
    return _run(_plan(geometry, steps, 1), start, coin_matrix(thetas))


def evolve_single(geometry: LatticeGeometry, steps: int, theta: float, coin) -> np.ndarray:
    """(L, 2) site-major amplitudes of one non-interacting walker after
    steps steps."""
    amps = np.zeros((geometry.size, 2), dtype=complex)
    amps[reach(geometry, steps)] = evolve_singles(geometry, steps, [theta], coin)[0].T
    return amps
