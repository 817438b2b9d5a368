"""Catalog of interaction phase functionals.

Each functional maps the joint basis labels (x_A, x_B, s_A, s_B) and the two
strategy angles to a phase in radians; the dynamics applies exp(i * phase) as
a diagonal unitary.  Every catalog entry factors as

    phase = coupling(theta_A, theta_B) * table(x_A, x_B, s_A, s_B) [+ eta_t]

which the evolution engine exploits: the table is geometry-only and the
coupling is a scalar per strategy profile.  Every entry is unchanged when
the walkers swap, (x_A, s_A, theta_A) <-> (x_B, s_B, theta_B), which lets
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


def _distance_table(geometry: LatticeGeometry) -> np.ndarray:
    """|x_A - x_B| as an (L, L) table; minimal image under periodic boundary."""
    x = geometry.positions
    d = np.abs(x[:, None] - x[None, :])
    if geometry.boundary is Boundary.PERIODIC:
        d = np.minimum(d, geometry.size - d)
    return d


def coupling(spec: InteractionSpec, theta_a, theta_b):
    """Strategy-dependent scalar prefactor of the phase functional."""
    k = spec.kind
    if k is InteractionKind.NONE:
        return np.zeros_like(np.asarray(theta_a, dtype=float) + theta_b)
    if k in (
        InteractionKind.COLLISION_PHASE,
        InteractionKind.LONG_RANGE,
        InteractionKind.NOISY_COLLISION,
    ):
        return spec.strength * np.cos(np.asarray(theta_a) - np.asarray(theta_b))
    if k is InteractionKind.ATTRACTIVE_COLLISION:
        return -spec.strength * np.ones_like(np.asarray(theta_a, dtype=float))
    if k is InteractionKind.COIN_DEPENDENT:
        return spec.strength * np.ones_like(np.asarray(theta_a, dtype=float))
    raise ValidationError(f"unsupported interaction kind: {k!r}")


def phase_table(spec: InteractionSpec, geometry: LatticeGeometry) -> np.ndarray:
    """Strategy-independent spatial/coin factor, shape (L, 2, L, 2)."""
    L = geometry.size
    k = spec.kind
    if k is InteractionKind.NONE:
        return np.zeros((L, 2, L, 2))
    diag = np.eye(L)
    if k in (
        InteractionKind.COLLISION_PHASE,
        InteractionKind.ATTRACTIVE_COLLISION,
        InteractionKind.NOISY_COLLISION,
    ):
        return np.broadcast_to(diag[:, None, :, None], (L, 2, L, 2)).copy()
    if k is InteractionKind.LONG_RANGE:
        table = 1.0 / (1.0 + _distance_table(geometry) ** spec.range_exponent)
        return np.broadcast_to(table[:, None, :, None], (L, 2, L, 2)).copy()
    if k is InteractionKind.COIN_DEPENDENT:
        coin_diag = np.eye(2)
        return diag[:, None, :, None] * coin_diag[None, :, None, :]
    raise ValidationError(f"unsupported interaction kind: {k!r}")


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

    The scalar reference of the factored form above: the kernel reads
    `phase_table` and `coupling` directly, while the dense test oracles
    (tests/oracles.py) and the benchmark's output check build their phase
    unitary from this function one basis state at a time.  eta_t is the
    per-step stochastic phase; it contributes only for the noisy functional
    and is owned by the caller's RNG.
    """
    i = geometry.offset(x_a)
    j = geometry.offset(x_b)
    table = float(phase_table(spec, geometry)[i, s_a, j, s_b])
    base = float(coupling(spec, theta_a, theta_b)) * table
    if spec.kind is InteractionKind.NOISY_COLLISION:
        # the per-step jitter rides on the same collision support; a spatially
        # uniform phase would cancel out of every observable
        base += eta_t * table
    return base
