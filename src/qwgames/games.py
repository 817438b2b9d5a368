"""Payoff observables over the final joint position distribution.

All payoffs are classical functions of the measured positions: the quantum
side of the model ends at `hilbert.born`, and everything here works on
probability matrices over the walkers' sites, reduced a (B, n, n) stack at
a time: a sweep hands over one cache-sized block of profiles per call.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

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
            for name, table in (("A", self.table_a), ("B", self.table_b)):
                t = np.asarray(table)
                if t.ndim != 2 or t.dtype.kind not in "biuf" or not np.isfinite(t).all():
                    raise ValidationError(
                        f"payoff table for player {name} must be a finite, real, 2-D array"
                    )
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


# each call reads these cached arrays, so they are read-only
@lru_cache(maxsize=64)
def _labels(geometry: LatticeGeometry, n: int) -> np.ndarray:
    """Site labels, as floats, of the n `reach(geometry, n - 1)` sites."""
    x = geometry.positions[reach(geometry, n - 1)].astype(float)
    x.flags.writeable = False
    return x


@lru_cache(maxsize=64)
def _table(geometry: LatticeGeometry, n: int, kind: GameKind) -> np.ndarray:
    """A built-in game's table for player A on the n reach sites, (n, n)."""
    x = _labels(geometry, n)
    table = BUILT_IN[kind][0](x[:, None], x[None, :])
    table.flags.writeable = False
    return table


def payoffs(probs: np.ndarray, geometry: LatticeGeometry, game: GameSpec):
    """Utilities of a stack of distributions, (u_a, u_b), each of shape (B,).

    probs: (B, n, n), P on the `reach(geometry, n - 1)` sites of each
    walker, zero elsewhere: the light cone of a walk of T = n - 1 steps, or
    the whole lattice when n = L.  u_A is P reduced against player A's
    payoff table on those sites, signed as `BUILT_IN` says; u_B is reduced
    against table_b when the game has one, else derived from u_A.  A
    built-in table is built once per (geometry, n, game); a custom table
    must cover the (L, L) lattice and is read on the sites as a view.
    """
    if game.kind is not GameKind.CUSTOM_TABLE:
        _, sign, ratio = BUILT_IN[game.kind]
        u_a = sign * np.sum(probs * _table(geometry, probs.shape[-1], game.kind), axis=(1, 2))
        return u_a, ratio * u_a
    L = geometry.size
    for name, table in (("A", game.table_a), ("B", game.table_b)):
        if np.shape(table) != (L, L):
            raise ValidationError(
                f"payoff table for player {name} has shape {np.shape(table)}, "
                f"lattice needs {(L, L)}"
            )
    sites = reach(geometry, probs.shape[-1] - 1)
    return tuple(
        np.sum(probs * np.asarray(t)[sites, sites], axis=(1, 2))
        for t in (game.table_a, game.table_b)
    )


DIAGNOSTICS = ("mean_x_A", "mean_x_B", "mean_separation", "meeting_probability", "center_of_mass")


def diagnostics(probs: np.ndarray, geometry: LatticeGeometry) -> dict:
    """The transport diagnostics of a (B, n, n) stack as `payoffs` reads
    it, each of shape (B,) and named as in DIAGNOSTICS: each walker's mean
    position, the mean separation |x_A - x_B|, the probability that the
    walkers share a site, and their centre of mass."""
    n = probs.shape[-1]
    x = _labels(geometry, n)
    mean_a = np.vecdot(probs.sum(axis=2), x)
    mean_b = np.vecdot(probs.sum(axis=1), x)
    separation = np.sum(probs * _table(geometry, n, GameKind.RENDEZVOUS), axis=(1, 2))
    meeting = np.trace(probs, axis1=1, axis2=2)
    return dict(zip(DIAGNOSTICS, (mean_a, mean_b, separation, meeting, 0.5 * (mean_a + mean_b))))


def payoff(dist: JointDistribution, game: GameSpec) -> PayoffPoint:
    """Expected utilities of both players plus named transport diagnostics."""
    probs = dist.probabilities[None]
    u_a, u_b = payoffs(probs, dist.geometry, game)
    aux = diagnostics(probs, dist.geometry)
    return PayoffPoint(float(u_a[0]), float(u_b[0]), {key: float(v[0]) for key, v in aux.items()})


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
