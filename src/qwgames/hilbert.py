"""Joint Hilbert space for two coined walkers on a 1D lattice.

Amplitudes are channel-major, as the `dynamics` kernel evolves them: a
stack of B joint walks is (B, 4, n, n) over (c, x_A, x_B) with coin channel
c = 2 s_A + s_B, and a stack of single walkers is (B, 2, n) over (s, x), on
n sites per walker; coin index 0 = |R> and 1 = |L>.  Site labels run
symmetrically, x in {-(L-1)/2, ..., +(L-1)/2}, and off(x) = x + (L - 1) / 2
is a label's array offset in [0, L).  `born` takes either stack to P.  Only
the one-state functions `evolve`, `evolve_single` and `measure_joint` keep
the site-major (L, 2, L, 2) and (L, 2) layouts over (x_A, s_A, x_B, s_B).
`write_csv` writes every CSV table, a distribution's (`distribution_to_csv`)
and each one the command line writes.
"""

from __future__ import annotations

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
    """Raised for invalid library input: a geometry, walk, interaction,
    strategy angle, coin vector, distribution or payoff table that violates
    its contract."""


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


def reach(geometry: LatticeGeometry, steps: int) -> slice:
    """Array offsets of the sites a walker started at x = 0 can occupy after
    T = steps steps: the T + 1 sites of parity T, every second offset of
    half - T ... half + T, while T <= (L - 1) / 2; else the whole lattice."""
    if steps > geometry.half:
        return slice(0, geometry.size)
    return slice(geometry.half - steps, geometry.half + steps + 1, 2)


def check_distributions(probs: np.ndarray):
    """Raise ValidationError unless every (n, n) block of the (B, n, n) stack
    is non-negative and sums to 1; one vectorized pass over the stack."""
    if np.any(probs < -1e-14):
        raise ValidationError("distribution has negative entries")
    totals = probs.sum(axis=(1, 2))
    off = np.abs(totals - 1.0) > NORM_TOL
    if np.any(off):
        raise ValidationError(f"distribution sums to {float(totals[off][0])!r}, not 1")


def coin_vector(coin, player: str) -> np.ndarray:
    """Player's coin state as a complex 2-vector; ValidationError unless it
    is a 2-vector of unit norm."""
    v = np.asarray(coin, dtype=complex)
    if v.shape != (2,):
        raise ValidationError(f"coin state for player {player} must be a 2-vector")
    if abs(np.linalg.norm(v) - 1.0) > NORM_TOL:
        raise ValidationError(
            f"coin state for player {player} is not normalized "
            f"(||c|| = {np.linalg.norm(v)!r})"
        )
    return v


def born(amps: np.ndarray) -> np.ndarray:
    """P of a channel-major stack, channels traced out in one fixed order:
    (B, 4, n, n) joint amplitudes give P(x_A, x_B) as (c0 + c1) + (c2 + c3),
    (B, n, n); (B, 2, n) single-walker amplitudes give p(x) as c0 + c1."""
    a = np.abs(amps) ** 2
    if a.shape[1] == 2:
        return a[:, 0] + a[:, 1]
    return (a[:, 0] + a[:, 1]) + (a[:, 2] + a[:, 3])


def measure_joint(amps: np.ndarray, geometry: LatticeGeometry) -> JointDistribution:
    """Born-rule position distribution of (L, 2, L, 2) site-major
    amplitudes, both coins traced out."""
    channel_major = amps.transpose(1, 3, 0, 2).reshape(1, 4, len(amps), -1)
    return JointDistribution(born(channel_major)[0], geometry)


# rows formatted per call of write_csv, ~0.3 MB of text at three floats a
# row: L = 1001's 1,002,001-row distribution, formatted at once, took peak
# RSS from 38 to 231 MB (76 MB in blocks)
CSV_BLOCK_ROWS = 4096


def write_csv(path, header, rows):
    """Write a table as CSV: the header row, then one row per record, with
    CRLF row ends, the bytes csv.writer gives.  A number prints as %.17g (an
    integer value as an integer, -7.0 as -7), a string as is: every string
    cell is a fixed label (a player, game, boundary or coin name, or "" for a
    blank cell) with no comma, quote or line break, so none needs quoting.
    An all-float array is formatted one call per block of CSV_BLOCK_ROWS
    rows; a list of rows, one call per row."""
    if isinstance(rows, np.ndarray):
        table = np.asarray(rows, dtype=float).reshape(len(rows), len(header))
        line = ",".join(["%.17g"] * len(header)) + "\r\n"
        blocks = (table[lo : lo + CSV_BLOCK_ROWS] for lo in range(0, len(table), CSV_BLOCK_ROWS))
        text = ((line * len(block)) % tuple(block.ravel().tolist()) for block in blocks)
    else:
        text = (
            (",".join("%s" if isinstance(v, str) else "%.17g" for v in row) + "\r\n") % tuple(row)
            for row in rows
        )
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(text)


def distribution_to_csv(probs: np.ndarray, geometry: LatticeGeometry, path):
    """Write the (L, L) distribution P(x_A, x_B) as rows x_A,x_B,p (site
    labels, not offsets)."""
    xs = geometry.positions
    columns = [np.repeat(xs, xs.size), np.tile(xs, xs.size), np.ravel(probs)]
    write_csv(path, ["x_A", "x_B", "p"], np.column_stack(columns))
