"""Payoff observables over the final joint position distribution.

All payoffs are classical functions of the measured positions: the quantum
side of the model ends at measure_joint, and everything here works on
probability matrices over the walkers' sites, reduced a whole (B, n, n)
stack at a time.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .hilbert import JointDistribution, LatticeGeometry, ValidationError, reach


class GameKind(Enum):
    RACE = "race"
    RENDEZVOUS = "rendezvous"
    TUG_OF_WAR = "tug_of_war"
    CUSTOM_TABLE = "custom_table"


@dataclass(frozen=True)
class GameSpec:
    kind: GameKind = GameKind.RACE
    table_a: np.ndarray | None = None
    table_b: np.ndarray | None = None

    def __post_init__(self):
        if self.kind is GameKind.CUSTOM_TABLE:
            if self.table_a is None or self.table_b is None:
                raise ValidationError("custom_table requires both payoff tables")
        elif self.table_a is not None or self.table_b is not None:
            raise ValidationError(f"{self.kind.value} takes no payoff tables")


@dataclass(frozen=True)
class PayoffPoint:
    u_a: float
    u_b: float
    aux: dict = field(default_factory=dict)


# per built-in game: player A's payoff table over (x_A, x_B) as a function
# of the (n, 1) and (1, n) site labels, the sign of u_A = sign * (P . table),
# and u_B / u_A.  Signs act on the sums, not the tables: a sum of -0 terms
# is +0, so a negated table would lose the sign of a zero payoff.
BUILT_IN = {
    GameKind.RACE: (lambda xa, xb: xa - xb, 1.0, -1.0),
    GameKind.RENDEZVOUS: (lambda xa, xb: np.abs(xa - xb), -1.0, 1.0),
    GameKind.TUG_OF_WAR: (lambda xa, xb: 0.5 * (xa + xb), 1.0, -1.0),
}


def payoffs(probs: np.ndarray, geometry: LatticeGeometry, game: GameSpec):
    """Utilities and transport diagnostics of a stack of distributions.

    probs: (B, n, n), P on the `reach(geometry, n - 1)` sites of each
    walker, zero elsewhere: the light cone of a walk of T = n - 1 steps, or
    the whole lattice when n = L.  Every quantity is a linear functional of
    P, reduced for the whole stack at once; returns (u_a, u_b, aux), each
    value of shape (B,).  u_A is P reduced against player A's payoff table
    on those sites, signed as `BUILT_IN` says; u_B is reduced against
    table_b when the game has one, else derived from u_A.  A custom table
    must cover the (L, L) lattice.
    """
    L = geometry.size
    sites = reach(geometry, probs.shape[-1] - 1)
    x = geometry.positions[sites].astype(float)
    xa, xb = x[:, None], x[None, :]

    mean_a = np.vecdot(probs.sum(axis=2), x)
    mean_b = np.vecdot(probs.sum(axis=1), x)
    aux = {
        "mean_x_A": mean_a,
        "mean_x_B": mean_b,
        "mean_separation": np.sum(probs * np.abs(xa - xb), axis=(1, 2)),
        "meeting_probability": np.trace(probs, axis1=1, axis2=2),
        "center_of_mass": 0.5 * (mean_a + mean_b),
    }

    if game.kind is GameKind.CUSTOM_TABLE:
        for name, table in (("A", game.table_a), ("B", game.table_b)):
            if np.shape(table) != (L, L):
                raise ValidationError(
                    f"payoff table for player {name} has shape {np.shape(table)}, "
                    f"lattice needs {(L, L)}"
                )
        table_a, table_b = (np.asarray(t)[sites, sites] for t in (game.table_a, game.table_b))
        sign, ratio = 1.0, None
    else:
        rule, sign, ratio = BUILT_IN[game.kind]
        table_a, table_b = rule(xa, xb), None
    u_a = sign * np.sum(probs * table_a, axis=(1, 2))
    u_b = ratio * u_a if table_b is None else np.sum(probs * table_b, axis=(1, 2))
    return u_a, u_b, aux


def payoff(dist: JointDistribution, game: GameSpec) -> PayoffPoint:
    """Expected utilities of both players plus named transport diagnostics."""
    u_a, u_b, aux = payoffs(dist.probabilities[None], dist.geometry, game)
    return PayoffPoint(
        float(u_a[0]), float(u_b[0]), {key: float(v[0]) for key, v in aux.items()}
    )


def table_from_csv(path, geometry: LatticeGeometry) -> np.ndarray:
    """Load an L x L payoff table from x_A,x_B,value rows (site labels),
    one row for every site pair of the lattice.

    Raises ValidationError, naming the file and line, for a missing column, a
    label or value that does not parse, a value that is not finite, a label
    off the lattice, and a repeated (x_A, x_B) row; and naming the file and
    the first pair, in label order, when a site pair has no row.
    """
    table = np.zeros((geometry.size, geometry.size))
    filled = np.zeros(table.shape, dtype=bool)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in ("x_A", "x_B", "value") if c not in (reader.fieldnames or ())]
        if missing:
            raise ValidationError(f"{path}:1: missing column {', '.join(missing)}")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            try:
                site = geometry.offset(int(row["x_A"])), geometry.offset(int(row["x_B"]))
                value = float(row["value"])
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{where}: {exc}") from None
            if not np.isfinite(value):
                raise ValidationError(f"{where}: value {row['value']!r} is not finite")
            if filled[site]:
                raise ValidationError(f"{where}: second row for x_A={row['x_A']}, x_B={row['x_B']}")
            filled[site] = True
            table[site] = value
    if not filled.all():
        xa, xb = geometry.positions[np.argwhere(~filled)[0]]
        raise ValidationError(f"{path}: no row for x_A={xa}, x_B={xb}")
    return table
