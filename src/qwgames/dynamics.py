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
step.  The cone runs in legs whose sites double, n = 2, 4, 8, ... and last
min(T, h) + 1, a leg of n sites up to t = n - 1, each handing its state to
the next at the same j, so an early step costs what the sites it can reach
cost.  A leg's shift wraps, but the wrap never reads a nonzero amplitude,
and a column of the coin matmul does not depend on the width of the
matrix, so the legs change no bit of the result.  A walk of T > h steps
then hands the cone's state to the lattice's even offsets, where a walker
stands at t = h, and runs its other T - h steps on the whole lattice with
its boundary, in the same one pair of buffers.  What a walk needs beyond
the strategies, coins, strength and noise draws is planned once per
geometry, steps, number of walkers and interaction kind (`_plan`): each
leg's sites, from `reach`, its gather, the joint one composed from the two
walkers', and its phase from the walkers' distances, not a dense
(L, 2, L, 2) table.  The phase arrays are read-only; the gather stays
writeable, as `take` copies a read-only index array on every step, and
only `_steps` reads it.  A noisy walk's draws are one (R, T) table, a row
of per-step jitters for each of its R noise realizations (`jitters`).

A batch is one stream of cache-sized chunks (`chunk_walks`), set up once:
the plan, the start state, the coin products, each profile's coupling, its
own strength's or the walk's, and one buffer pair that every chunk works
in; `evolve_batch` is its one-chunk call.  Callers see the kernel's own
layout on the `reach` sites, (B, 4, n, n) and (B, 2, n); only the one-state
`evolve` and `evolve_single` return the whole lattice, site major.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
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

# amplitudes evolved together, 4 n^2 a profile on the n sites per walker of
# the walk's last leg (`chunk_profiles`).  A batch holds one pair of
# complex128 buffers (amps and the scratch) of that size for every leg, 32 B
# per amplitude: 512 KiB here, a quarter of a 2 MB per-core L2, which leaves
# room for the gather indices and BLAS's own buffers.  Of 8,192 ... 57,600 it
# was the fastest on the 61x61 sweep.
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


def chunk_profiles(geometry: LatticeGeometry, steps: int) -> int:
    """Profiles per cache-sized chunk of a batched evolution of steps steps,
    which ends with 4 n^2 amplitudes per profile on the n `reach` sites
    of each walker."""
    n = len(range(geometry.size)[reach(geometry, steps)])
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


def _phase_support(spec: InteractionSpec, geometry: LatticeGeometry, sites: slice):
    """The phase of walkers on the n lattice offsets sites each: its support
    in the (B, 4, n^2) buffer and the walkers' distances there, one
    read-only row viewed once per channel.  A contact kind has the
    stride-(n + 1) diagonal of its channels, at distance 0; long range, the
    whole plane and the distances themselves, which depend on L through the
    minimal image.  Off the support every phase factor is exactly 1, so
    skipping it changes no bit.
    """
    _, _, contact, channels = interactions.CATALOG[spec.kind]
    x = geometry.positions[sites]
    if contact:
        cells, d = slice(None, None, len(x) + 1), np.zeros(len(x), dtype=int)
    else:
        cells, d = slice(None), interactions.distance(geometry, x[:, None], x[None, :]).ravel()
    # factors gathered through the view have the support's own shape, on
    # which the in-place product of each step runs up to 2x faster than
    # broadcast over the channels
    return (slice(None), channels, cells), np.broadcast_to(d, (len(range(4)[channels]), len(d)))


class _Leg(NamedTuple):
    """One leg of a walk, as `_steps` runs it: the gather of its shift, on
    an interacting joint walk its `_phase_support`, and the entry, each
    walker's slice of the leg's sites that the state before it fills."""

    sites: int
    steps: int
    perm: np.ndarray
    phase: tuple | None
    entry: slice


@lru_cache(maxsize=64)
def _plan(geometry: LatticeGeometry, steps: int, walkers: int, kind=InteractionKind.NONE,
          range_exponent=2.0) -> tuple:
    """The legs of a walk of one walker or two, keyed by what they are
    built from: not the coins, strength, noise seed or ensemble,
    which a coin catalog, a sweep or an ensemble varies.

    The light cone's first min(T, h) steps, h = (L - 1) / 2, run on its
    sites j = (x + t) / 2 from j = 0 (shift rule None), in legs whose sites
    double, n = 2, 4, 8, ... and last min(T, h) + 1: a leg of n sites ends
    at t = n - 1, and the next one takes its state at the same j.  Past h,
    the other T - h steps run on the whole lattice and its boundary, from
    the cone's site j at the lattice's offset 2j.  Each leg runs on the n
    sites the walkers reach at its end (`reach`), and its phase is planned
    there: on the light cone it holds at every step, as it depends only on
    x_A - x_B.  Every kind but none, a single walker's, has a phase.
    """
    shift = _walker_shift if walkers == 1 else _shift_permutation
    spec = InteractionSpec(kind, range_exponent=range_exponent)
    cone = min(steps, geometry.half)
    ends = [(2**k - 1, None) for k in range(1, cone.bit_length() + 1) if 2**k - 1 < cone]
    ends += [(cone, None), (steps, geometry.boundary)][: 1 + (steps > cone)]
    cuts = [reach(geometry, end) for end, _ in ends]
    supports = [None] * len(ends)
    if kind is not InteractionKind.NONE:
        supports = [_phase_support(spec, geometry, cut) for cut in cuts]
        # the profile at d = 0 ... d_max, one value for a contact kind, which
        # every leg's distances index
        distinct = interactions.profile(spec, np.arange(max(d.max() for _, d in supports) + 1))
        distinct.flags.writeable = False
        supports = [(index, distinct, d) for index, d in supports]
    legs, t, entry = [], 0, slice(1)
    for (end, rule), cut, phase in zip(ends, cuts, supports):
        n = len(range(geometry.size)[cut])
        entry = entry if rule is None else slice(0, None, 2)  # the cone's j at offset 2j
        legs.append(_Leg(n, end - t, shift(n, rule), phase, entry))
        t, entry = end, slice(n)
    return tuple(legs)


def _steps(amps, coined, coins, perm, steps: int, phase=None):
    """Evolve the (B, C, S) channel-major buffer amps in place for steps
    steps, with coined, of the same shape, as scratch: the real (B, C, C)
    coins act as one matmul on the float view (B, C, 2S), then perm gathers
    the shifted state.  A joint walk passes phase = (support index, the
    profile's distinct values, the support's indices into them, per-profile
    coupling factors there, per-step jitters), and each step ends with the
    factors and that step's jitter on the support."""
    real, coined_real = amps.view(float), coined.view(float)
    shape = len(amps), len(perm)  # perm gathers all C S amplitudes of a profile
    flat, coined_flat = amps.reshape(shape), coined.reshape(shape)
    if phase is not None:
        index, distinct, inverse, factors, etas = phase
        support = amps[index]
    for t in range(steps):
        np.matmul(coins, real, out=coined_real)
        coined_flat.take(perm, axis=1, out=flat, mode="clip")
        if phase is None:
            continue
        support *= factors
        if etas[t] != 0.0:
            support *= np.exp(1j * etas[t] * distinct)[inverse]


def _phases(legs: tuple, coupling: np.ndarray) -> list | None:
    """Per leg, the phase factors of the (b,) couplings on its support, None
    for a walk without a phase: one exp a profile per distinct value of the
    walk's profile, < 2n on long range, gathered by each leg's distances."""
    if legs[0].phase is None:
        return None
    exps = np.exp(1j * coupling[:, None] * legs[0].phase[1])
    return [exps[:, leg.phase[2]] for leg in legs]


def _run(legs: tuple, start: np.ndarray, coins: np.ndarray, phases=None, etas=None, pair=None):
    """(B, C, n, ...) amplitudes, one n-site axis per walker, of B walks of
    w = C / 2 walkers after the legs, from the (C,) start amplitudes at site
    0 of the cone, under the real (B, C, C) coins; a joint walk passes its
    legs' `_phases` and T jitters.

    The walk works in one pair of buffers, the state and the coined
    scratch, made as one array of the last leg's size unless the caller
    passes a larger one: `chunk_walks` passes one pair for every chunk of a
    batch.  As two arrays a leg, and later as one pair a chunk, they
    page-faulted again on every chunk of a 61x61 race sweep.  Each leg, the
    cone's doubling ones and the lattice's, works in views of the head of
    each half, and the halves swap from leg to leg: a leg reads the state
    before it from the head of its scratch into its `_Leg.entry` sites, and
    takes its steps' jitters.  The result is a view of the pair."""
    B, C = coins.shape[:2]
    w = C // 2
    if pair is None:
        pair = np.empty((2, B * C * legs[-1].sites**w), dtype=complex)
    state, t = start.reshape(C, *[1] * w), 0
    for k, leg in enumerate(legs):
        halves = pair[k % 2], pair[1 - k % 2]
        S = leg.sites**w
        amps, coined = (half[: B * C * S].reshape(B, C, S) for half in halves)
        amps.fill(0)
        amps.reshape(B, C, *[leg.sites] * w)[(slice(None),) * 2 + (leg.entry,) * w] = state
        phase = None if leg.phase is None else (*leg.phase, phases[k], etas[t : t + leg.steps])
        _steps(amps, coined, coins, leg.perm, leg.steps, phase)
        state, t = amps.reshape(B, C, *[leg.sites] * w), t + leg.steps
    return state


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
    """The walk's (R, T) jitter table: row k holds the T per-step jitters of
    noise realization k, uniform on [-sigma, sigma] and seeded
    config.seed + k, for the R = config.ensemble realizations; one row of
    zeros for a deterministic walk."""
    spec = config.interaction
    if not spec.noisy:
        return np.zeros((1, config.steps))
    sigma, seeds = spec.noise_sigma, range(config.seed, config.seed + config.ensemble)
    return np.array([np.random.default_rng(s).uniform(-sigma, sigma, config.steps) for s in seeds])


def chunk_walks(config: WalkConfig, thetas, strengths=None, size: int | None = None):
    """The walks of a batch of B profiles, one chunk of size profiles at a
    time (`chunk_profiles` by default): for each chunk, its walk, a function
    of the T per-step jitters that the chunk shares (common random numbers),
    which returns the chunk's final (b, 4, n, n) channel-major amplitudes on
    the n `reach` sites of each walker.  strengths gives each profile its own
    interaction strength, by default the config's.

    Everything but the jitters is set up once for the batch: the plan, the
    start state, the coin products, the couplings and one buffer pair that
    every chunk's walk works in, so the amplitudes one call returns are
    overwritten by the next.  Each chunk's phase factors are computed when
    the chunk is reached, from the batch's couplings: held for the whole
    batch, they raised a 61x61 race sweep's peak resident memory.  A row
    does not depend on the chunk it runs in, so chunking changes no bit.
    """
    thetas, spec = check_profiles(thetas), config.interaction
    legs = _plan(config.geometry, config.steps, 2, spec.kind, spec.range_exponent)
    coin_a, coin_b = (np.asarray(c, complex) for c in (config.coin_a, config.coin_b))
    start = (coin_a[:, None] * coin_b).reshape(4)  # the (4,) channels 2 s_A + s_B
    coins = _coin_krons(thetas)
    coupling = interactions.coupling(spec, thetas[:, 0], thetas[:, 1], strengths)
    size = size or chunk_profiles(config.geometry, config.steps)
    pair = np.empty((2, min(size, len(thetas)) * 4 * legs[-1].sites**2), dtype=complex)
    for lo in range(0, max(len(thetas), 1), size):
        chunk = slice(lo, lo + size)
        yield partial(_run, legs, start, coins[chunk], _phases(legs, coupling[chunk]), pair=pair)


def evolve_batch(config: WalkConfig, thetas: np.ndarray, etas=None) -> np.ndarray:
    """Evolve one initial state under B strategy profiles simultaneously.

    thetas: (B, 2) array of (theta_A, theta_B) pairs; returns the final
    (B, 4, n, n) channel-major amplitudes on the n `reach` sites of each
    walker, off which the walk's are zero: the kernel's buffer.  A noisy
    walk runs one noise realization: its jitters, one a step and shared by
    the batch (common random numbers), are etas, by default row 0 of
    `jitters(config)`, drawn alone.  The batch is one chunk of `chunk_walks`,
    so its rows are bitwise those of a chunked stream.
    """
    if etas is None:
        etas = jitters(replace(config, ensemble=1))[0]
    (walk,) = chunk_walks(config, thetas, size=max(len(thetas), 1))
    return walk(etas)


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
    (B, 2, n) buffers, through the legs of `_plan`."""
    thetas = _angles(thetas).reshape(-1)
    start = coin_vector(coin, "single")
    return _run(_plan(geometry, steps, 1), start, coin_matrix(thetas))


def evolve_single(geometry: LatticeGeometry, steps: int, theta: float, coin) -> np.ndarray:
    """(L, 2) site-major amplitudes of one non-interacting walker after
    steps steps."""
    amps = np.zeros((geometry.size, 2), dtype=complex)
    amps[reach(geometry, steps)] = evolve_singles(geometry, steps, [theta], coin)[0].T
    return amps
