"""Catalog of interaction phase functionals.

Each functional maps the joint basis labels (x_A, x_B, s_A, s_B) and the two
strategy angles to a phase in radians; the dynamics applies exp(i * phase) as
a diagonal unitary.  Every kind factors as

    phase = coupling(theta_A, theta_B) * f(|x_A - x_B|) [+ eta_t]

on its coin channels and 0 on the others, and `CATALOG` declares each
kind's three parts: its coupling, a signed strength times cos(theta_A -
theta_B) or 1; its distance profile f, the contact delta(d) or
1 / (1 + d^alpha); and its channels, all four or s_A = s_B only.  The
evolution engine exploits the form: `dynamics` plans the phase from the
walkers' distances once per geometry, and the coupling is a scalar per
strategy profile.  Every entry is unchanged when the walkers swap,
(x_A, s_A, theta_A) <-> (x_B, s_B, theta_B), which lets
`equilibrium._mirrors` reduce a mirrored profile from its partner's P.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .hilbert import Boundary, LatticeGeometry, ValidationError


class InteractionKind(Enum):
    NONE = "none"
    COLLISION_PHASE = "collision_phase"
    ATTRACTIVE_COLLISION = "attractive_collision"
    LONG_RANGE = "long_range"
    COIN_DEPENDENT = "coin_dependent"
    NOISY_COLLISION = "noisy_collision"


@dataclass(frozen=True)
class InteractionSpec:
    """Tagged interaction functional with its strength and shape parameters.

    strength doubles as the expansion parameter for the weak-coupling
    analysis; range_exponent applies to LONG_RANGE only, noise_sigma to
    NOISY_COLLISION only.
    """

    kind: InteractionKind = InteractionKind.NONE
    strength: float = 0.0
    range_exponent: float = 2.0
    noise_sigma: float = 0.0

    def __post_init__(self):
        if not isinstance(self.kind, InteractionKind):
            raise ValidationError(f"unsupported interaction kind: {self.kind!r}")
        if not np.isfinite(self.strength):
            raise ValidationError("interaction strength must be finite")
        alpha, sigma = self.range_exponent, self.noise_sigma
        if self.kind is InteractionKind.LONG_RANGE and not 0 < alpha < np.inf:
            raise ValidationError(f"range_exponent must be finite and > 0, got {alpha}")
        # the jitter is uniform on [-sigma, sigma], a range of 2 sigma
        if self.kind is InteractionKind.NOISY_COLLISION and not (0 <= sigma and 2 * sigma < np.inf):
            raise ValidationError(f"noise_sigma must be >= 0 with 2 sigma finite, got {sigma}")

    @property
    def noisy(self) -> bool:
        """Whether the walk draws a per-step phase jitter."""
        return self.kind is InteractionKind.NOISY_COLLISION and self.noise_sigma > 0

    @property
    def coupled(self) -> bool:
        """Whether the strategies enter the phase: a kind other than none at
        a nonzero strength."""
        return self.kind is not InteractionKind.NONE and self.strength != 0.0

    @property
    def inert(self) -> bool:
        """Whether every step's phase is exactly 1, so the walkers never
        interact and P(x_A, x_B) factors as p_A (x) p_B."""
        return not self.coupled and not self.noisy

    def with_strength(self, strength: float) -> "InteractionSpec":
        return InteractionSpec(self.kind, strength, self.range_exponent, self.noise_sigma)


# per kind, the phase coupling(theta_A, theta_B) * f(|x_A - x_B|) on its coin
# channels c = 2 s_A + s_B: the sign of the strength in the coupling, whether
# the coupling reads cos(theta_A - theta_B), whether f is the contact delta(d)
# (else 1 / (1 + d^alpha)), and the channels
CATALOG = {
    InteractionKind.NONE: (0.0, False, True, slice(0, 0)),
    InteractionKind.COLLISION_PHASE: (1.0, True, True, slice(None)),
    InteractionKind.ATTRACTIVE_COLLISION: (-1.0, False, True, slice(None)),
    InteractionKind.LONG_RANGE: (1.0, True, False, slice(None)),
    InteractionKind.COIN_DEPENDENT: (1.0, False, True, slice(None, None, 3)),
    InteractionKind.NOISY_COLLISION: (1.0, True, True, slice(None)),
}


def distance(geometry: LatticeGeometry, x_a, x_b):
    """|x_A - x_B| of site labels, broadcast; the minimal image under the
    periodic boundary."""
    d = np.abs(np.asarray(x_a) - x_b)
    if geometry.boundary is Boundary.PERIODIC:
        d = np.minimum(d, geometry.size - d)
    return d


def profile(spec: InteractionSpec, d) -> np.ndarray:
    """The kind's distance profile f at the integer distances d: delta(d), or
    1 / (1 + d^alpha), whose d^alpha may overflow to inf at a large alpha,
    where f is 0, its limit."""
    d = np.asarray(d)
    if CATALOG[spec.kind][2]:
        return (d == 0).astype(float)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + d**spec.range_exponent)


def coupling(spec: InteractionSpec, theta_a, theta_b):
    """Strategy-dependent scalar prefactor of the phase functional."""
    sign, angular = CATALOG[spec.kind][:2]
    diff = np.asarray(theta_a, dtype=float) - theta_b
    return sign * spec.strength * (np.cos(diff) if angular else np.ones_like(diff))


def phase_table(spec: InteractionSpec, geometry: LatticeGeometry) -> np.ndarray:
    """Strategy-independent spatial/coin factor, shape (L, 2, L, 2)."""
    x = geometry.positions
    f = profile(spec, distance(geometry, x[:, None], x[None, :]))
    on = np.zeros(4)
    on[CATALOG[spec.kind][3]] = 1.0
    return f[:, None, :, None] * on.reshape(1, 2, 1, 2)


def phase(
    spec: InteractionSpec,
    geometry: LatticeGeometry,
    x_a: int,
    x_b: int,
    s_a: int,
    s_b: int,
    theta_a: float,
    theta_b: float,
    eta_t: float = 0.0,
) -> float:
    """Phase (radians) applied to one joint basis state during one step.

    The scalar reference of the factored form above, read from the catalog
    for this one state: the dense test oracles (tests/oracles.py) and the
    benchmark's output check build their phase unitary from it, while the
    kernel plans its phase from the walkers' distances.  eta_t is the
    per-step stochastic phase; it contributes only for the noisy functional
    and is owned by the caller's RNG.
    """
    geometry.offset(x_a), geometry.offset(x_b)  # both labels on the lattice
    on = 2 * s_a + s_b in range(4)[CATALOG[spec.kind][3]]
    table = float(profile(spec, distance(geometry, x_a, x_b))) if on else 0.0
    base = float(coupling(spec, theta_a, theta_b)) * table
    if spec.kind is InteractionKind.NOISY_COLLISION:
        # the per-step jitter rides on the same collision support; a spatially
        # uniform phase would cancel out of every observable
        base += eta_t * table
    return base
