"""Joint Hilbert space for two coined walkers on a 1D lattice.

Index layout (used everywhere, including the dense test oracles): the joint
amplitude array has shape (L, 2, L, 2) ordered as (x_A, s_A, x_B, s_B), with
coin index 0 = |R> and 1 = |L>.  Flattening row-major gives the basis index

    k = ((off(x_A) * 2 + s_A) * L + off(x_B)) * 2 + s_B

where off(x) = x + (L - 1) / 2 maps the symmetric site label
x in {-(L-1)/2, ..., +(L-1)/2} to an array offset in [0, L).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum

import numpy as np

RIGHT = 0
LEFT = 1

NORM_TOL = 1e-10


class Boundary(Enum):
    PERIODIC = "periodic"
    REFLECTING = "reflecting"


class ValidationError(ValueError):
    """Raised when a distribution, geometry, or coin vector violates its contract."""


@dataclass(frozen=True)
class LatticeGeometry:
    """1D lattice with an odd number of sites labeled symmetrically around 0."""

    size: int
    boundary: Boundary = Boundary.PERIODIC

    def __post_init__(self):
        if self.size < 3 or self.size % 2 == 0:
            raise ValidationError(
                f"lattice size must be odd and >= 3, got {self.size}"
            )
        if not isinstance(self.boundary, Boundary):
            raise ValidationError(f"unknown boundary rule: {self.boundary!r}")

    @property
    def half(self) -> int:
        return (self.size - 1) // 2

    @property
    def positions(self) -> np.ndarray:
        """Site labels -(L-1)/2 ... +(L-1)/2, in array-offset order."""
        return np.arange(self.size) - self.half

    def offset(self, x: int) -> int:
        """Array offset of site label x."""
        if not -self.half <= x <= self.half:
            raise ValidationError(f"site {x} outside lattice of size {self.size}")
        return int(x) + self.half


@dataclass(frozen=True)
class JointDistribution:
    """Joint position distribution P(x_A, x_B), shape (L, L)."""

    probabilities: np.ndarray
    geometry: LatticeGeometry

    def __post_init__(self):
        L = self.geometry.size
        if self.probabilities.shape != (L, L):
            raise ValidationError(
                f"distribution must have shape {(L, L)}, got {self.probabilities.shape}"
            )
        check_distributions(self.probabilities[None])


def check_distributions(probs: np.ndarray):
    """Raise ValidationError unless every (L, L) block of the (B, L, L) stack
    is non-negative and sums to 1; one vectorized pass over the stack."""
    if np.any(probs < -1e-14):
        raise ValidationError("distribution has negative entries")
    totals = probs.sum(axis=(1, 2))
    off = np.abs(totals - 1.0) > NORM_TOL
    if np.any(off):
        raise ValidationError(f"distribution sums to {float(totals[off][0])!r}, not 1")


def _coin_vector(coin, player: str) -> np.ndarray:
    v = np.asarray(coin, dtype=complex)
    if v.shape != (2,):
        raise ValidationError(f"coin state for player {player} must be a 2-vector")
    if abs(np.linalg.norm(v) - 1.0) > NORM_TOL:
        raise ValidationError(
            f"coin state for player {player} is not normalized "
            f"(||c|| = {np.linalg.norm(v)!r})"
        )
    return v


def make_initial_state(geometry: LatticeGeometry, coin_a, coin_b) -> np.ndarray:
    """(L, 2, L, 2) amplitudes of both walkers at x = 0 with coin states
    coin_a (x) coin_b."""
    ca = _coin_vector(coin_a, "A")
    cb = _coin_vector(coin_b, "B")
    L = geometry.size
    amps = np.zeros((L, 2, L, 2), dtype=complex)
    o = geometry.offset(0)
    amps[o, :, o, :] = np.outer(ca, cb)
    return amps


def make_single_state(geometry: LatticeGeometry, coin, x: int = 0) -> np.ndarray:
    """(L, 2) amplitudes of one walker at site x with coin state coin."""
    amps = np.zeros((geometry.size, 2), dtype=complex)
    amps[geometry.offset(x), :] = _coin_vector(coin, "single")
    return amps


def born(amps: np.ndarray) -> np.ndarray:
    """P(x_A, x_B) of (..., L, 2, L, 2) amplitudes, coins traced out in a
    fixed order (s_B, then s_A) that gives the same bits in every layout."""
    a = np.abs(amps) ** 2
    return (a[..., 0, :, 0] + a[..., 0, :, 1]) + (a[..., 1, :, 0] + a[..., 1, :, 1])


def born_single(amps: np.ndarray) -> np.ndarray:
    """p(x) of (..., L, 2) single-walker amplitudes, coin traced out."""
    return np.sum(np.abs(amps) ** 2, axis=-1)


def measure_joint(amps: np.ndarray, geometry: LatticeGeometry) -> JointDistribution:
    """Born-rule position distribution of (L, 2, L, 2) amplitudes, both
    coins traced out."""
    return JointDistribution(born(amps), geometry)


def marginals(dist: JointDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Per-walker position distributions (p_A, p_B)."""
    return dist.probabilities.sum(axis=1), dist.probabilities.sum(axis=0)


def distribution_to_csv(dist: JointDistribution, path):
    """Write P(x_A, x_B) as rows x_A,x_B,p (site labels, not offsets)."""
    xs = dist.geometry.positions
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x_A", "x_B", "p"])
        for i, xa in enumerate(xs):
            for j, xb in enumerate(xs):
                w.writerow([xa, xb, f"{dist.probabilities[i, j]:.17g}"])

