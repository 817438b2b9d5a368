"""Payoff observables over the final joint position distribution.

All payoffs are classical functions of the measured positions: the quantum
side of the model ends at measure_joint, and everything here works on
(L, L) probability matrices, reduced a whole (B, L, L) stack at a time.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .hilbert import JointDistribution, LatticeGeometry


class GameKind(Enum):
    RACE = "race"
    RENDEZVOUS = "rendezvous"
    TUG_OF_WAR = "tug_of_war"
    CUSTOM_TABLE = "custom_table"


class ShapeError(ValueError):
    """Raised when custom payoff tables do not match the lattice."""


@dataclass(frozen=True)
class GameSpec:
    kind: GameKind = GameKind.RACE
    table_a: np.ndarray | None = None
    table_b: np.ndarray | None = None

    def __post_init__(self):
        if self.kind is GameKind.CUSTOM_TABLE:
            if self.table_a is None or self.table_b is None:
                raise ShapeError("custom_table requires both payoff tables")
        elif self.table_a is not None or self.table_b is not None:
            raise ShapeError(f"{self.kind.value} takes no payoff tables")


@dataclass(frozen=True)
class PayoffPoint:
    u_a: float
    u_b: float
    aux: dict = field(default_factory=dict)


def payoffs(probs: np.ndarray, geometry: LatticeGeometry, game: GameSpec):
    """Utilities and transport diagnostics of a stack of distributions.

    probs: (B, L, L).  Every quantity is a linear functional of P, reduced
    for the whole stack at once; returns (u_a, u_b, aux), each value of
    shape (B,).
    """
    L = geometry.size
    x = geometry.positions.astype(float)
    xa = x[:, None]
    xb = x[None, :]

    mean_a = np.vecdot(probs.sum(axis=2), x)
    mean_b = np.vecdot(probs.sum(axis=1), x)
    sep = np.sum(probs * np.abs(xa - xb), axis=(1, 2))
    aux = {
        "mean_x_A": mean_a,
        "mean_x_B": mean_b,
        "mean_separation": sep,
        "meeting_probability": np.trace(probs, axis1=1, axis2=2),
        "center_of_mass": 0.5 * (mean_a + mean_b),
    }

    if game.kind is GameKind.RACE:
        u_a = np.sum(probs * (xa - xb), axis=(1, 2))
        return u_a, -u_a, aux
    if game.kind is GameKind.RENDEZVOUS:
        return -sep, -sep, aux
    if game.kind is GameKind.TUG_OF_WAR:
        u_a = np.sum(probs * (0.5 * (xa + xb)), axis=(1, 2))
        return u_a, -u_a, aux
    if game.kind is GameKind.CUSTOM_TABLE:
        for name, table in (("A", game.table_a), ("B", game.table_b)):
            if np.asarray(table).shape != (L, L):
                raise ShapeError(
                    f"payoff table for player {name} has shape "
                    f"{np.asarray(table).shape}, lattice needs {(L, L)}"
                )
        u_a = np.sum(probs * game.table_a, axis=(1, 2))
        u_b = np.sum(probs * game.table_b, axis=(1, 2))
        return u_a, u_b, aux
    raise ValueError(f"unknown game kind {game.kind!r}")


def payoff(dist: JointDistribution, game: GameSpec) -> PayoffPoint:
    """Expected utilities of both players plus named transport diagnostics."""
    u_a, u_b, aux = payoffs(dist.probabilities[None], dist.geometry, game)
    return PayoffPoint(
        float(u_a[0]), float(u_b[0]), {key: float(v[0]) for key, v in aux.items()}
    )


def table_from_csv(path, geometry: LatticeGeometry) -> np.ndarray:
    """Load an L x L payoff table from x_A,x_B,value rows (site labels)."""
    table = np.zeros((geometry.size, geometry.size))
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            i = geometry.offset(int(row["x_A"]))
            j = geometry.offset(int(row["x_B"]))
            table[i, j] = float(row["value"])
    return table
