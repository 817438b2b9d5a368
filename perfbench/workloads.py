"""The benchmark's workloads and the check applied to every run's output.

Each workload runs one `qwgames` recipe.  A run passes its check when

* it exited 0 and wrote every expected file;
* its surfaces and stationary points lie within a stated tolerance of the
  reference recorded in `reference/<workload>.json` (not bitwise: a kernel
  that reorders floating-point sums moves values by ~1e-16 and must pass);
* the invariants hold: u_A + u_B = 0 on race surfaces, and every written
  distribution is non-negative with sum 1;
* a few profiles chosen by the benchmark seed, recomputed through the dense
  oracles in `tests/oracles.py`, agree with the written values.  The oracles
  replace the batched kernel's stepping and reduction, but they share
  `dynamics.coin_matrix`, `interactions.phase` (and so `phase_table` and
  `coupling`) and `hilbert.LatticeGeometry` with it; a wrong change there
  moves kernel and oracle together, and only the comparison with the
  recorded reference catches it.

`check` returns the largest deviation from the reference and from the
oracle, so a run reports how close it came.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from qwgames.cli import COIN_CATALOG, RECIPE_DEFAULTS
from qwgames.hilbert import Boundary, LatticeGeometry
from qwgames.interactions import InteractionKind, InteractionSpec, phase

# |value - reference| <= tol * max(1, |reference|)
DETERMINISTIC_TOL = 1e-9  # grid evaluations and everything computed from them
SEARCH_TOL = 1e-5  # outputs of golden-section refinement (its own tol is 1e-6)
INVARIANT_TOL = 1e-12  # |u_A + u_B|, |sum P - 1|
ORACLE_TOL = 1e-9  # written value against the dense oracle
ORACLE_PICKS = 3  # seed-chosen profiles recomputed per run

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


class CheckFailed(Exception):
    """A run's output is missing, malformed or wrong."""


# -- independent reference evolution -----------------------------------------


def load_oracles(root: str):
    """The repository's dense test oracles, `tests/oracles.py` under root."""
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("qwgames_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Oracle:
    """Final joint distributions from the dense oracle factors.

    The step is U = P_I . kron(S_A C_A, S_B C_B) as in
    `oracles.dense_joint_step`; it is applied as U_A Psi U_B^T with the
    amplitudes held as a (2L, 2L) matrix, so the 4L^2 x 4L^2 matrix (236 MB
    at L = 31) is never formed.  P_I comes from the scalar phase functional.
    """

    def __init__(self, oracles):
        self.oracles = oracles
        self.distribution = lru_cache(maxsize=256)(self._distribution)

    def _distribution(self, L, boundary, steps, coin_a, coin_b, kind, strength, ta, tb):
        geom = LatticeGeometry(L, Boundary(boundary))
        spec = InteractionSpec(InteractionKind(kind), strength)
        x = geom.positions
        phases = np.array([
            phase(spec, geom, xa, xb, sa, sb, ta, tb)
            for xa in x for sa in (0, 1) for xb in x for sb in (0, 1)
        ]).reshape(2 * L, 2 * L)
        factor = np.exp(1j * phases)
        u_a = self.oracles.dense_single_step(geom, ta)
        u_b = self.oracles.dense_single_step(geom, tb)
        psi = np.zeros((2 * L, 2 * L), dtype=complex)
        o = 2 * geom.offset(0)
        psi[o:o + 2, o:o + 2] = np.outer(coin_a, coin_b)
        for _ in range(steps):
            psi = factor * (u_a @ psi @ u_b.T)
        return (np.abs(psi) ** 2).reshape(L, 2, L, 2).sum(axis=(1, 3))

    def joint(self, walk: dict, ta: float, tb: float) -> np.ndarray:
        """P(x_A, x_B) after the walk of `walk_of` at strategies (ta, tb)."""
        return self.distribution(
            walk["lattice_size"], walk["boundary"], walk["steps"],
            walk["coin_a"], walk["coin_b"], walk["interaction_kind"],
            walk["interaction_strength"], float(ta), float(tb),
        )

    def payoffs(self, walk: dict, game: str, ta: float, tb: float):
        return payoffs_of(self.joint(walk, ta, tb), game)

    def drift(self, L: int, steps: int, theta: float, coin) -> float:
        """Mean final position of one free walker, by the component recurrence."""
        geom = LatticeGeometry(L)
        amps = self.oracles.recurrence_evolve(geom, steps, float(theta), coin)
        return float(np.sum(np.abs(amps) ** 2, axis=1) @ geom.positions)


def payoffs_of(p: np.ndarray, game: str) -> tuple[float, float]:
    """(u_A, u_B) of a joint distribution, written out from the game definitions."""
    L = p.shape[0]
    x = np.arange(L) - (L - 1) // 2
    xa, xb = x[:, None], x[None, :]
    if game == "race":
        u = float(np.sum(p * (xa - xb)))
        return u, -u
    if game == "tug_of_war":
        u = float(np.sum(p * 0.5 * (xa + xb)))
        return u, -u
    if game == "rendezvous":
        sep = float(np.sum(p * np.abs(xa - xb)))
        return -sep, -sep
    raise ValueError(f"no oracle payoff for game {game!r}")


def walk_of(resolved: dict) -> dict:
    """The walk parameters of a resolved config, as hashable values."""

    def coin(c):
        return tuple(complex(re, im) for re, im in c)

    return {
        "lattice_size": int(resolved["lattice_size"]),
        "boundary": resolved["boundary"],
        "steps": int(resolved["steps"]),
        "coin_a": coin(resolved["coin_a"]),
        "coin_b": coin(resolved["coin_b"]),
        "interaction_kind": resolved["interaction_kind"],
        "interaction_strength": float(resolved["interaction_strength"]),
    }


# -- reading outputs ---------------------------------------------------------


def _table(path: str) -> np.ndarray:
    """Numeric CSV body; empty cells read as nan."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if not rows:
        raise CheckFailed(f"{os.path.basename(path)} has no rows")
    try:
        return np.array([[float(c) if c != "" else np.nan for c in r] for r in rows])
    except ValueError as exc:
        raise CheckFailed(f"{os.path.basename(path)}: {exc}") from None


def _json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _grid_thetas(n: int) -> np.ndarray:
    vals = np.linspace(0.0, np.pi, n)
    ta, tb = np.meshgrid(vals, vals, indexing="ij")
    return np.column_stack([ta.ravel(), tb.ravel()])


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _check_distribution(p: np.ndarray, what: str):
    _require(bool(np.all(p >= -1e-14)), f"{what} has negative entries")
    total = float(np.sum(p))
    _require(abs(total - 1.0) <= INVARIANT_TOL, f"{what} sums to {total!r}")


def compare(values: dict, reference: dict, tols: dict) -> float:
    """Max |value - reference| over numeric entries; raises CheckFailed when
    an entry with a tolerance is outside it or any other entry differs."""
    _require(set(values) == set(reference), f"output keys {sorted(values)} != reference")
    worst = 0.0
    for key, ref in reference.items():
        got = values[key]
        _require(len(got) == len(ref), f"{key}: {len(got)} entries, reference has {len(ref)}")
        tol = tols.get(key)
        for k, (g, r) in enumerate(zip(got, ref)):
            if tol is None or g is None or r is None:
                _require(g == r, f"{key}[{k}] = {g!r}, reference {r!r}")
                continue
            dev = abs(g - r)
            _require(
                dev <= tol * max(1.0, abs(r)),
                f"{key}[{k}] = {g!r} deviates {dev:.3g} from reference {r!r}",
            )
            worst = max(worst, dev)
    return worst


def _finite_or_none(v: float):
    return None if np.isnan(v) else float(v)


# -- workloads ---------------------------------------------------------------


def _race_extract(out: str) -> dict:
    surface = _table(os.path.join(out, "surface_uA.csv"))
    points = _json(os.path.join(out, "stationary.json"))
    return {
        "surface_uA": surface[:, 2].tolist(),
        "stationary": [
            float(p[k]) for p in points for k in ("theta_A", "theta_B", "u_A", "u_B")
        ],
        "stationary_status": [p["status"] for p in points],
    }


def _race_check(out: str, resolved: dict, rng, oracle: Oracle) -> float:
    _require(resolved["recipe"] == "race", f"recipe {resolved['recipe']!r}")
    n = int(resolved["grid_n"])
    s_a = _table(os.path.join(out, "surface_uA.csv"))
    s_b = _table(os.path.join(out, "surface_uB.csv"))
    _require(s_a.shape == (n * n, 3) and s_b.shape == (n * n, 3), "surface shape")
    grid = _grid_thetas(n)
    _require(
        np.array_equal(s_a[:, :2], s_b[:, :2]) and np.allclose(s_a[:, :2], grid, atol=1e-12),
        "surface theta columns are not the strategy grid",
    )
    zero_sum = float(np.max(np.abs(s_a[:, 2] + s_b[:, 2])))
    _require(zero_sum <= INVARIANT_TOL, f"u_A + u_B reaches {zero_sum:.3g}")

    walk = walk_of(resolved)
    L = walk["lattice_size"]
    dist = _table(os.path.join(out, "ne_distribution.csv"))
    _require(dist.shape == (L * L, 3), "ne_distribution shape")
    p = dist[:, 2].reshape(L, L)
    _check_distribution(p, "ne_distribution")
    marg = _table(os.path.join(out, "ne_marginals.csv"))
    _check_distribution(marg[:, 1], "ne_marginals p_A")
    _check_distribution(marg[:, 2], "ne_marginals p_B")

    # the CLI measures the first interior stationary point, else the first
    points = _json(os.path.join(out, "stationary.json"))
    ne = next((q for q in points if q["status"] != "boundary"), points[0])
    worst = float(np.max(np.abs(p - oracle.joint(walk, ne["theta_A"], ne["theta_B"]))))
    for k in rng.choice(n * n, size=ORACLE_PICKS, replace=False):
        u_a, _ = oracle.payoffs(walk, resolved["game"], s_a[k, 0], s_a[k, 1])
        worst = max(worst, abs(u_a - s_a[k, 2]))
    _require(worst <= ORACLE_TOL, f"oracle deviation {worst:.3g}")
    return worst


def _perturbation_extract(out: str) -> dict:
    conv = _table(os.path.join(out, "convergence_table.csv"))
    cert = _json(os.path.join(out, "certificate.json"))
    return {
        "f_sweep": _table(os.path.join(out, "f_sweep.csv"))[:, 1].tolist(),
        "g_grid": _table(os.path.join(out, "g_grid.csv"))[:, 2].tolist(),
        "max_residual": [float(_json(os.path.join(out, "separability.json"))["max_residual"])],
        "convergence": [_finite_or_none(v) for v in conv.ravel()],
        "certificate": [
            float(cert[k])
            for k in ("mixed_partial_of_G", "no_interaction_baseline", "g_estimate_at_base", "step")
        ] + [float(v) for v in cert["base_point"]],
        "in_perturbative_regime": [bool(cert["in_perturbative_regime"])],
    }


def _perturbation_check(out: str, resolved: dict, rng, oracle: Oracle) -> float:
    _require(resolved["recipe"] == "perturbation", f"recipe {resolved['recipe']!r}")
    walk = walk_of(resolved)
    L, steps = walk["lattice_size"], walk["steps"]
    f = _table(os.path.join(out, "f_sweep.csv"))
    n = int(resolved["grid_n"])
    _require(np.allclose(f[:, 0], np.linspace(0.0, np.pi, n), atol=1e-12), "f_sweep thetas")
    worst = 0.0
    for k in rng.choice(len(f), size=ORACLE_PICKS, replace=False):
        worst = max(worst, abs(oracle.drift(L, steps, f[k, 0], walk["coin_a"]) - f[k, 1]))

    # G = Richardson limit of (u(lambda) - u(0)) / lambda over a halving pair
    lam1, lam2 = (float(v) for v in resolved["lambda_schedule"][:2])
    _require(abs(lam2 - lam1 / 2) <= 1e-12 * lam1, "g_grid schedule is not a halving pair")
    g = _table(os.path.join(out, "g_grid.csv"))
    _require(np.allclose(g[:, :2], _grid_thetas(13), atol=1e-12), "g_grid thetas")  # the CLI's fixed 13-point grid
    for k in rng.choice(len(g), size=ORACLE_PICKS, replace=False):
        ta, tb = g[k, 0], g[k, 1]

        def u_at(strength):
            return oracle.payoffs(
                {**walk, "interaction_strength": strength}, resolved["game"], ta, tb
            )[0]

        u0 = u_at(0.0)
        g_ref = 2 * (u_at(lam2) - u0) / lam2 - (u_at(lam1) - u0) / lam1
        worst = max(worst, abs(g_ref - g[k, 2]))
    _require(worst <= ORACLE_TOL, f"oracle deviation {worst:.3g}")
    return worst


CALIBRATION_FIELDS = (
    "theta_A", "theta_B", "target_distance", "u_B", "mean_x_A", "mean_x_B",
    "center_of_mass", "meeting_probability", "mean_separation",
)


def _calibration_rows(out: str) -> dict:
    with open(os.path.join(out, "calibration.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require(bool(rows), "calibration.csv has no rows")
    table = {}
    for r in rows:
        key = f"{r['game']}/{r['boundary']}/{r['coin']}"
        _require(key not in table, f"duplicate calibration row {key}")
        table[key] = [float(r[f]) if r[f] != "" else None for f in CALIBRATION_FIELDS]
    return table


def _calibrate_extract(out: str) -> dict:
    rows = _calibration_rows(out)
    keys = sorted(rows)
    return {"rows": keys, "values": [v for k in keys for v in rows[k]]}


def _calibrate_check(out: str, resolved: dict, rng, oracle: Oracle) -> float:
    _require(resolved["recipe"] == "calibrate", f"recipe {resolved['recipe']!r}")
    _require(resolved["workers"] == 1, f"workers {resolved['workers']!r}, expected 1")
    rows = _calibration_rows(out)
    keys = sorted(rows)
    worst = 0.0
    for k in rng.choice(len(keys), size=ORACLE_PICKS, replace=False):
        game, boundary, coin = keys[k].split("/")
        steps, L, strength = RECIPE_DEFAULTS[game]
        walk = walk_of({
            **resolved, "boundary": boundary, "steps": steps, "lattice_size": L,
            "interaction_strength": strength,
            "coin_a": COIN_CATALOG[coin], "coin_b": COIN_CATALOG[coin],
        })
        ta, tb, _dist, u_b = rows[keys[k]][:4]
        worst = max(worst, abs(oracle.payoffs(walk, game, ta, tb)[1] - u_b))
    _require(worst <= ORACLE_TOL, f"oracle deviation {worst:.3g}")
    return worst


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple  # qwgames CLI arguments; the runner adds --seed and --out
    files: tuple  # written by every successful run
    extract: Callable  # out dir -> the values compared with the reference
    tols: dict  # extract key -> tolerance; keys without one must match exactly
    verify: Callable  # (out, resolved config, rng, oracle) -> max oracle deviation

    def reference(self) -> dict:
        return _json(os.path.join(REFERENCE_DIR, f"{self.name}.json"))

    def check(self, out: str, exit_code: int, seed: int, reference: dict, oracle: Oracle):
        """Raise CheckFailed unless the run is correct; returns
        (max deviation from reference, max deviation from oracle)."""
        _require(exit_code == 0, f"exit code {exit_code}")
        missing = [f for f in self.files if not os.path.isfile(os.path.join(out, f))]
        _require(not missing, f"missing output files {missing}")
        resolved = _json(os.path.join(out, "resolved_config.json"))
        _require(resolved.get("seed") == seed, f"resolved seed {resolved.get('seed')!r} != {seed}")
        ref_dev = compare(self.extract(out), reference, self.tols)
        oracle_dev = self.verify(out, resolved, np.random.default_rng(seed), oracle)
        return ref_dev, oracle_dev


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "race-sweep",
            ("--recipe", "race"),
            ("resolved_config.json", "surface_uA.csv", "surface_uB.csv",
             "best_response.csv", "stationary.json", "ne_distribution.csv",
             "ne_marginals.csv"),
            _race_extract,
            {"surface_uA": DETERMINISTIC_TOL, "stationary": SEARCH_TOL},
            _race_check,
        ),
        Workload(
            "calibrate-serial",
            ("--recipe", "calibrate", "--workers", "1"),
            ("resolved_config.json", "calibration.csv"),
            _calibrate_extract,
            {"values": SEARCH_TOL},
            _calibrate_check,
        ),
        Workload(
            "perturbation",
            ("--recipe", "perturbation"),
            ("resolved_config.json", "f_sweep.csv", "separability.json", "g_grid.csv",
             "convergence_table.csv", "certificate.json"),
            _perturbation_extract,
            {k: DETERMINISTIC_TOL
             for k in ("f_sweep", "g_grid", "max_residual", "convergence", "certificate")},
            _perturbation_check,
        ),
    )
}
