"""Experiment driver.

Runs named recipes (race, rendezvous, tug-of-war, perturbation, learning,
calibrate) from a JSON config plus command-line overrides, and writes a
reproducible output directory: every run dumps resolved_config.json with all
defaults materialized, and identical resolved config + seed gives
byte-identical outputs.

CSV schemas: distributions `x_A,x_B,p`; surfaces `theta_A,theta_B,value`;
trajectories `start,iter,theta_A,theta_B,u_A,u_B`. Every CSV table is
written by hilbert.write_csv: a header row, then one row per record with CRLF
row ends; a float prints as %.17g (an integer-valued one as an integer), a
string as is.

Each command-line flag sets one config field (FLAGS) and overrides the
config file; the value is parsed and checked as the field's JSON value is.
Warnings go to stderr as `warning: <message>` lines: the config's own before
any walk, then each distinct warning the library raised during the run, once.

Exit codes: 0 success, 1 config error, 2 runtime failure, 3 no stationary
point found (race / tug-of-war only).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import sys
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

# not deferred into its recipe: the ~3 ms import would land in a ~20 ms run
from . import perturbation as pert
from .dynamics import WalkConfig
from .equilibrium import (
    StrategyGrid,
    WalkEvaluator,
    best_responses,
    find_stationary,
    gradients,
    jacobian_at,
    learn,
    shared_surfaces,
    surface_from_evaluator,
    walk_distributions,
)
from .games import GameKind, GameSpec, table_from_csv
from .hilbert import (
    NORM_TOL,
    Boundary,
    LatticeGeometry,
    distribution_to_csv,
    reach,
    write_csv,
)
from .interactions import InteractionKind, InteractionSpec

PI = np.pi
INF = math.inf


class ConfigError(ValueError):
    pass


_ANGLE_RE = re.compile(r"^\s*(-?)(\d+(?:\.\d+)?)?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$")


def parse_angle(value) -> float:
    """Accept decimal radians or fraction strings like 'pi/2' or '5pi/6'."""
    try:
        if type(value) in (int, float):
            return float(value)
        m = _ANGLE_RE.match(value)
        if m:
            sign = -1.0 if m.group(1) else 1.0
            num = float(m.group(2)) if m.group(2) else 1.0
            den = float(m.group(3)) if m.group(3) else 1.0
            return sign * num * PI / den
        return float(value)
    except (TypeError, ValueError, ArithmeticError):
        raise ConfigError(f"cannot parse angle {value!r}") from None


def _typed(what, *kinds):
    """Parser that passes a JSON value of one of `kinds` and rejects any other."""
    def parse(value):
        if type(value) not in kinds:
            raise ConfigError(f"expected {what}, got {value!r}")
        return value

    return parse


_int = _typed("an integer", int)
_text = _typed("a string", str)
_path = _typed("a string or null", str, type(None))
_real = _typed("a number", int, float)
_sequence = _typed("a list", list, tuple)


def _number(value) -> float:
    return parse_angle(_real(value))


def _angles(value) -> tuple:
    return tuple(parse_angle(v) for v in _sequence(value))


def _coin(value) -> tuple:
    pairs = _sequence(value)
    if len(pairs) != 2 or any(type(p) not in (list, tuple) or len(p) != 2 for p in pairs):
        raise ConfigError(f"expected [[re, im], [re, im]], got {value!r}")
    return tuple(tuple(_number(x) for x in p) for p in pairs)


def _field(default, parse, check=lambda value: True, need=""):
    """A config field: its default, the parser of its JSON value, the check on
    the parsed value, and the phrase that states what the check requires."""
    return field(default=default, metadata={"parse": parse, "check": check, "need": need})


def _one_of(default, names, parse=_text):
    return _field(default, parse, names.__contains__, "one of " + ", ".join(names))


def _unit_coin(coin) -> bool:
    return abs(np.linalg.norm([complex(re, im) for re, im in coin]) - 1.0) <= NORM_TOL


# documented initial-coin catalog used by the calibrate recipe
COIN_CATALOG = {
    "right": ((1.0, 0.0), (0.0, 0.0)),
    "left": ((0.0, 0.0), (1.0, 0.0)),
    "symmetric": ((1 / math.sqrt(2), 0.0), (0.0, 1 / math.sqrt(2))),
    "plus": ((1 / math.sqrt(2), 0.0), (1 / math.sqrt(2), 0.0)),
    "minus": ((1 / math.sqrt(2), 0.0), (-1 / math.sqrt(2), 0.0)),
}

# (T, L, interaction strength) defaults per recipe, mirroring the headline runs
RECIPE_DEFAULTS = {
    "race": (20, 15, PI),
    "rendezvous": (20, 15, 0.0),
    "tug_of_war": (20, 15, PI),
    "perturbation": (10, 31, PI),
    "learning": (20, 15, PI),
    "calibrate": (20, 15, PI),
}


# the strategy grids of the learning and calibrate recipes, whatever grid_n is
LEARNING_GRID = 31
CALIBRATE_GRID = 31


def recipe_defaults(recipe: str) -> dict:
    """The fields a recipe sets where its config does not: the walk of
    RECIPE_DEFAULTS, the game the recipe is named after, else the race, and
    for learning the grid it evaluates."""
    steps, size, strength = RECIPE_DEFAULTS[recipe]
    game = recipe if recipe in [g.value for g in GameKind] else GameKind.RACE.value
    defaults = {"steps": steps, "lattice_size": size, "interaction_strength": strength, "game": game}
    if recipe == "learning":
        defaults["grid_n"] = LEARNING_GRID
    return defaults


# fields the calibrate recipe sets itself for each walk it searches
CALIBRATE_SETS = (
    "steps", "lattice_size", "interaction_strength", "boundary", "coin_a", "coin_b",
    "game", "grid_n",
)

# published calibration targets per game
CALIBRATION_TARGETS = {
    "race": (PI / 2, 5 * PI / 6),
    "rendezvous": (0.0, PI),
    "tug_of_war": (2.81, 1.32),
}


@dataclass
class ExperimentConfig:
    """Every experiment parameter. Each field states beside its default how
    its JSON value is parsed and what the parsed value must satisfy."""

    recipe: str = _one_of("race", RECIPE_DEFAULTS, lambda v: _text(v).replace("-", "_"))
    # 1001 bounds the one-state (L, 2, L, 2) amplitudes at 64 MB
    lattice_size: int = _field(
        15, _int, lambda v: 3 <= v <= 1001 and v % 2 == 1, "odd, >= 3 and <= 1001"
    )
    # 10,000 steps cross the largest lattice ten times; each step is a pass
    # over every profile's amplitudes and draws one jitter a realization, so
    # an unbounded T asks for run time and arrays without end
    steps: int = _field(20, _int, lambda v: 1 <= v <= 10_000, ">= 1 and <= 10000")
    boundary: str = _one_of("periodic", [b.value for b in Boundary])
    # ((re, im), (re, im)) amplitudes of |R> and |L>
    coin_a: tuple = _field(COIN_CATALOG["right"], _coin, _unit_coin, "a normalized coin state")
    coin_b: tuple = _field(COIN_CATALOG["right"], _coin, _unit_coin, "a normalized coin state")
    interaction_kind: str = _one_of("collision_phase", [k.value for k in InteractionKind])
    interaction_strength: float = _field(PI, parse_angle, math.isfinite, "finite")
    range_exponent: float = _field(2.0, _number, lambda v: 0 < v < INF, "finite and > 0")
    # the jitter is uniform on [-sigma, sigma], a range of 2 sigma
    noise_sigma: float = _field(
        0.0, parse_angle, lambda v: 0 <= v and 2 * v < INF, ">= 0 with 2 sigma finite"
    )
    game: str = _one_of("race", [g.value for g in GameKind])
    table_a_path: str | None = _field(None, _path, lambda v: v != "", "a non-empty path or null")
    table_b_path: str | None = _field(None, _path, lambda v: v != "", "a non-empty path or null")
    # 1001 points, as many as the largest lattice has sites: a sweep evolves
    # and holds n^2 profiles, so an unbounded n asks for arrays without end
    # (grid_n = 10^6 asked for 7.28 TiB)
    grid_n: int = _field(61, _int, lambda v: 2 <= v <= 1001, ">= 2 and <= 1001")
    eta: float = _field(0.05, parse_angle, lambda v: 0 < v < INF, "finite and > 0")
    max_iters: int = _field(500, _int, lambda v: v >= 0, ">= 0")
    # 1,000 noise realizations, 1,000 times the default's: every realization
    # draws its own jitters before the first chunk and evolves every chunk
    # again, so an unbounded count fails late (jitters alone took 2.4 s at
    # 20,000, and 10^9 would ask for hours and hundreds of GB)
    ensemble: int = _field(1, _int, lambda v: 1 <= v <= 1000, ">= 1 and <= 1000")
    # 1,000 gradient ascents of up to max_iters steps each, 125 times the
    # default's; learning runs them all after its surface and search, so an
    # unbounded count fails late (n_starts = 10^12 asked for 7.28 TiB)
    n_starts: int = _field(8, _int, lambda v: 1 <= v <= 1000, ">= 1 and <= 1000")
    start_radius: float = _field(0.3, parse_angle, lambda v: 0 <= v < INF, "finite and >= 0")
    phi_sweep: tuple = _field(
        tuple(k * PI / 8 for k in range(9)), _angles,
        lambda v: all(map(math.isfinite, v)), "a list of finite angles",
    )
    base_theta_a: float = _field(1.0, parse_angle, lambda v: 0 <= v <= PI, "in [0, pi]")
    base_theta_b: float = _field(2.0, parse_angle, lambda v: 0 <= v <= PI, "in [0, pi]")
    # every strength feeds convergence_table.csv, the first two g_grid.csv;
    # the certificate keeps its own (0.1, 0.05, 0.025) at step 0.1
    lambda_schedule: tuple = _field(
        (0.1, 0.05, 0.025, 0.0125), _angles,
        lambda v: len(v) >= 2 and all(0 < b < a < INF for a, b in zip(v, v[1:])),
        "two or more finite strengths, positive and strictly decreasing",
    )
    seed: int = _field(0, _int, lambda v: v >= 0, ">= 0")
    # kept only because the benchmark's calibrate workload sets it and reads it back
    workers: int = _field(0, _int, lambda v: v >= 0, ">= 0 (ignored: runs use one thread)")
    out_dir: str = _field("out", _text, lambda v: v != "", "a non-empty path")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        parsers = {f.name: f.metadata["parse"] for f in fields(cls)}
        cfg = cls()
        for key, value in data.items():
            if key not in parsers:
                raise ConfigError(f"unknown config field {key!r}")
            try:
                setattr(cfg, key, parsers[key](value))
            except ConfigError as exc:
                raise ConfigError(f"{key}: {exc}") from None
        if cfg.recipe in RECIPE_DEFAULTS:
            for key, value in recipe_defaults(cfg.recipe).items():
                if key not in data:
                    setattr(cfg, key, value)
        if cfg.recipe == "calibrate":
            for key in data:
                if key in CALIBRATE_SETS:
                    raise ConfigError(
                        f"{key}: the calibrate recipe sets this field for each walk it "
                        "searches; leave it out"
                    )
        return cfg

    # -- object construction ------------------------------------------------

    def geometry(self) -> LatticeGeometry:
        return LatticeGeometry(self.lattice_size, Boundary(self.boundary))

    def interaction(self) -> InteractionSpec:
        return InteractionSpec(
            InteractionKind(self.interaction_kind),
            self.interaction_strength,
            self.range_exponent,
            self.noise_sigma,
        )

    def walk_config(self) -> WalkConfig:
        ca, cb = (tuple(complex(re, im) for re, im in c) for c in (self.coin_a, self.coin_b))
        return WalkConfig(
            self.geometry(), self.steps, ca, cb, self.interaction(), self.seed, self.ensemble
        )

    def game_spec(self) -> GameSpec:
        kind = GameKind(self.game)
        if kind is not GameKind.CUSTOM_TABLE:
            return GameSpec(kind)
        paths = (self.table_a_path, self.table_b_path)
        return GameSpec(kind, *(table_from_csv(p, self.geometry()) for p in paths))


def validate(config: ExperimentConfig) -> tuple[list[str], list[str]]:
    """Field-level errors plus non-fatal warnings."""
    errors, warns = [], []
    for f in fields(config):
        value = getattr(config, f.name)
        if not f.metadata["check"](value):
            errors.append(f"{f.name}: must be {f.metadata['need']}, got {value!r}")
    if config.game == "custom_table" and not (config.table_a_path and config.table_b_path):
        errors.append("game: custom_table needs both table_a_path and table_b_path")
    if not errors:
        half = (config.lattice_size - 1) // 2
        rules = "periodic and reflecting" if config.recipe == "calibrate" else config.boundary
        if config.steps > half:
            warns.append(
                f"boundary reachable: T = {config.steps} > (L-1)/2 = {half}; "
                f"results depend on the boundary rule ({rules})"
            )
        walk = config.walk_config()
        if walk.interaction.noisy and walk.ensemble == 1:
            warns.append("noisy interaction with ensemble = 1: payoffs will be jittery")
        for name, key, user in [
            ("noise_sigma", "interaction_kind", "noisy_collision"),
            ("range_exponent", "interaction_kind", "long_range"),
            ("table_a_path", "game", "custom_table"),
            ("table_b_path", "game", "custom_table"),
        ]:
            moved = getattr(config, name) != getattr(ExperimentConfig, name)  # off its default
            if moved and getattr(config, key) != user:
                warns.append(f"{name} is ignored: only {key} {user} uses it")
        if config.ensemble != ExperimentConfig.ensemble and not walk.interaction.noisy:
            warns.append(
                "ensemble is ignored: only a noisy walk (interaction_kind noisy_collision "
                "with noise_sigma > 0) draws noise realizations"
            )
        if config.workers > 1:
            warns.append(f"workers = {config.workers} is ignored: every run uses one thread")
        if config.recipe == "learning" and config.grid_n > LEARNING_GRID:
            warns.append(
                f"learning evaluates a {LEARNING_GRID}x{LEARNING_GRID} grid; "
                f"grid_n = {config.grid_n} is capped"
            )
    return errors, warns


# -- output helpers ----------------------------------------------------------


SURFACE_HEADER = ["theta_A", "theta_B", "value"]


def _grid_rows(grid: StrategyGrid, *values: np.ndarray) -> np.ndarray:
    """(theta_A, theta_B, value...) rows over the grid, theta_A-major."""
    return np.column_stack([grid.profiles, *(v.ravel() for v in values)])


def _stationary_payload(points, evaluator, eta):
    payload = []
    for pt in points:
        entry = {
            "theta_A": pt.theta_a,
            "theta_B": pt.theta_b,
            "u_A": pt.u_a,
            "u_B": pt.u_b,
            "status": pt.status,
            "grad_residual": list(pt.grad_residual),
        }
        if pt.interior:
            rep = jacobian_at((pt.theta_a, pt.theta_b), evaluator, eta=eta)
            entry["jacobian"] = rep.matrix.tolist()
            entry["eigenvalues"] = [[z.real, z.imag] for z in rep.eigenvalues]
            entry["verdict"] = rep.verdict
            entry["stable"] = rep.stable
            # JSON has no inf: an eta that overflows 1 + eta lambda writes null
            rho = rep.spectral_radius
            entry["spectral_radius"] = rho if math.isfinite(rho) else None
            entry["eta"] = rep.eta
            entry["boundary_caveat"] = rep.boundary_caveat
        payload.append(entry)
    return payload


def _dump_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- recipes -----------------------------------------------------------------


def _surface(config: ExperimentConfig):
    """The config's walk evaluator, its strategy grid and the payoff surface."""
    evaluator = WalkEvaluator(config.walk_config(), config.game_spec())
    grid = StrategyGrid(config.grid_n)
    return evaluator, grid, surface_from_evaluator(evaluator, grid)


def _optimum(surface) -> tuple:
    """Grid indices (i, j) of the rendezvous optimum, the argmax of u_A."""
    return np.unravel_index(np.argmax(surface.u_a), surface.u_a.shape)


def _interior_first(points) -> list:
    """The interior stationary points, or every point when none is interior."""
    return [p for p in points if p.interior] or points


def _write_distribution(walk: WalkConfig, theta_a, theta_b, path) -> np.ndarray:
    """Write the walk's P at one strategy pair, the P its payoffs there
    reduce, on the (L, L) lattice; returns that (L, L) array."""
    geom = walk.geometry
    probs = np.zeros((geom.size, geom.size))
    window = reach(geom, walk.steps)
    probs[window, window] = walk_distributions(walk, np.array([[theta_a, theta_b]]))[0]
    distribution_to_csv(probs, geom, path)
    return probs


def _run_competitive(config: ExperimentConfig, out: str) -> int:
    evaluator, grid, surface = _surface(config)
    walk = evaluator.config
    write_csv(os.path.join(out, "surface_uA.csv"), SURFACE_HEADER, _grid_rows(grid, surface.u_a))
    write_csv(os.path.join(out, "surface_uB.csv"), SURFACE_HEADER, _grid_rows(grid, surface.u_b))
    br_a, br_b = best_responses(surface)
    vals = grid.values
    write_csv(
        os.path.join(out, "best_response.csv"),
        ["player", "theta_opponent", "theta_best"],
        [["A", vals[j], vals[i]] for j, rows in enumerate(br_a) for i in rows]
        + [["B", vals[i], vals[j]] for i, cols in enumerate(br_b) for j in cols],
    )

    points = find_stationary(surface, evaluator)
    _dump_json(
        os.path.join(out, "stationary.json"),
        _stationary_payload(points, evaluator, config.eta),
    )
    if not points:
        return 3

    best = _interior_first(points)[0]
    probs = _write_distribution(
        walk, best.theta_a, best.theta_b, os.path.join(out, "ne_distribution.csv")
    )
    write_csv(
        os.path.join(out, "ne_marginals.csv"), ["x", "p_A", "p_B"],
        np.column_stack([walk.geometry.positions, probs.sum(axis=1), probs.sum(axis=0)]),
    )
    return 0


def _run_rendezvous(config: ExperimentConfig, out: str) -> int:
    walk, game, grid = config.walk_config(), config.game_spec(), StrategyGrid(config.grid_n)
    (surface,) = shared_surfaces(walk, [game], grid, diagnostics=True)
    for name, values in (
        ("surface_u.csv", surface.u_a),
        ("separation_surface.csv", surface.aux["mean_separation"]),
        ("meeting_surface.csv", surface.aux["meeting_probability"]),
    ):
        write_csv(os.path.join(out, name), SURFACE_HEADER, _grid_rows(grid, values))

    i, j = _optimum(surface)
    ta, tb = grid.values[i], grid.values[j]
    _dump_json(
        os.path.join(out, "optimum.json"),
        {
            "theta_A": float(ta),
            "theta_B": float(tb),
            "payoff": float(surface.u_a[i, j]),
            "mean_separation": float(surface.aux["mean_separation"][i, j]),
            "meeting_probability": float(surface.aux["meeting_probability"][i, j]),
        },
    )

    phis = np.array(config.phi_sweep, dtype=float)
    u_a, _, aux = WalkEvaluator(walk, game).points(
        np.tile([ta, tb], (len(phis), 1)), diagnostics=True, strengths=phis
    )
    write_csv(
        os.path.join(out, "phi_sweep.csv"), ["phi", "meeting_probability", "payoff"],
        np.column_stack([phis, aux["meeting_probability"], u_a]),
    )
    write_csv(
        os.path.join(out, "cross_section.csv"), ["theta_A", "value"],
        np.column_stack([grid.values, surface.u_a[:, j]]),
    )

    _write_distribution(walk, ta, tb, os.path.join(out, "opt_distribution.csv"))
    return 0


def _run_perturbation(config: ExperimentConfig, out: str) -> int:
    walk = config.walk_config()
    game = config.game_spec()
    geom = walk.geometry
    thetas = StrategyGrid(config.grid_n).values

    f_vals = pert.drift_sweep(geom, walk.steps, thetas, walk.coin_a)
    write_csv(os.path.join(out, "f_sweep.csv"), ["theta", "F"], np.column_stack([thetas, f_vals]))

    grid13 = StrategyGrid(13)
    base = (config.base_theta_a, config.base_theta_b)
    residual, g, est, cert = pert.weak_coupling(walk, game, grid13, base, config.lambda_schedule)
    _dump_json(os.path.join(out, "separability.json"), {"max_residual": residual})
    write_csv(os.path.join(out, "g_grid.csv"), SURFACE_HEADER, _grid_rows(grid13, g))
    write_csv(
        os.path.join(out, "convergence_table.csv"),
        ["lambda", "slope", "difference", "ratio"],
        [
            [lam, est.slopes[k],
             est.differences[k - 1] if k >= 1 else "", est.ratios[k - 2] if k >= 2 else ""]
            for k, lam in enumerate(est.lambdas)
        ],
    )

    _dump_json(
        os.path.join(out, "certificate.json"),
        {
            "mixed_partial_of_G": cert.mixed_partial,
            "no_interaction_baseline": cert.baseline,
            "base_point": list(cert.base_point),
            "step": cert.step,
            "g_estimate_at_base": est.g_estimate,
            "in_perturbative_regime": est.in_perturbative_regime,
        },
    )
    return 0


def _run_learning(config: ExperimentConfig, out: str) -> int:
    grid_n = min(config.grid_n, LEARNING_GRID)
    evaluator, grid, surface = _surface(replace(config, grid_n=grid_n))
    write_csv(
        os.path.join(out, "vector_field.csv"),
        ["theta_A", "theta_B", "dUA_dthetaA", "dUB_dthetaB"],
        np.column_stack([grid.profiles, gradients(evaluator, grid.profiles)]),
    )

    points = _interior_first(find_stationary(surface, evaluator))
    ca, cb = (points[0].theta_a, points[0].theta_b) if points else (PI / 2, PI / 2)

    ang, r = 2 * PI * np.arange(config.n_starts) / config.n_starts, config.start_radius
    starts = np.clip(np.column_stack([ca + r * np.cos(ang), cb + r * np.sin(ang)]), 0.0, PI)
    rows = []
    for sid, start in enumerate(starts):
        res = learn(evaluator, start, config.eta, max_iters=config.max_iters)
        for it, ((ta, tb), (ua, ub)) in enumerate(zip(res.trajectory, res.payoffs)):
            rows.append([sid, it, ta, tb, ua, ub])
    write_csv(
        os.path.join(out, "trajectories.csv"),
        ["start", "iter", "theta_A", "theta_B", "u_A", "u_B"],
        np.array(rows),
    )
    return 0


def _calibrate_walk(boundary, coin_label, game_names, config) -> list:
    """The calibration rows of every game that runs on one (boundary, coin)
    walk: the 31x31 grid is evolved once per noise realization and reduced
    for each game, then each game is searched with its own evaluator."""
    coin = COIN_CATALOG[coin_label]
    walk = replace(
        config, boundary=boundary, coin_a=coin, coin_b=coin, **recipe_defaults(game_names[0])
    ).walk_config()
    games = [GameSpec(GameKind(name)) for name in game_names]
    grid = StrategyGrid(CALIBRATE_GRID)
    # a rendezvous row reads its diagnostics off the surface, the others at their point
    surfaces = shared_surfaces(walk, games, grid, diagnostics="rendezvous" in game_names)
    rows = []
    for name, game, surface in zip(game_names, games, surfaces):
        row = _calibrate_row(name, WalkEvaluator(walk, game), grid, surface)
        if row is not None:
            rows.append({"game": name, "boundary": boundary, "coin": coin_label, **row})
    return rows


def _calibrate_row(game_name, evaluator, grid, surface):
    """The game's calibration candidate on its surface, or None when it has
    no stationary point."""
    target = CALIBRATION_TARGETS[game_name]
    if game_name == "rendezvous":
        i, j = _optimum(surface)
        ta, tb = float(grid.values[i]), float(grid.values[j])
        extras = {
            key: float(surface.aux[key][i, j])
            for key in ("meeting_probability", "mean_separation")
        }
        u_b = float(surface.u_b[i, j])
    else:
        points = _interior_first(find_stationary(surface, evaluator))
        if not points:
            return None
        best = min(
            points,
            key=lambda p: np.hypot(p.theta_a - target[0], p.theta_b - target[1]),
        )
        ta, tb, u_b = best.theta_a, best.theta_b, best.u_b
        _, _, aux = evaluator.points([[ta, tb]], diagnostics=True)
        extras = {key: float(aux[key][0]) for key in ("mean_x_A", "mean_x_B", "center_of_mass")}
    dist = float(np.hypot(ta - target[0], tb - target[1]))
    return {"theta_A": ta, "theta_B": tb, "target_distance": dist, "u_B": u_b, **extras}


def _run_calibrate(config: ExperimentConfig, out: str) -> int:
    # one job per distinct walk: games whose (T, L, phi) agree share it
    walks: dict = {}
    for game in ("race", "rendezvous", "tug_of_war"):
        for boundary in ("periodic", "reflecting"):
            for coin in COIN_CATALOG:
                walks.setdefault((boundary, coin, RECIPE_DEFAULTS[game]), []).append(game)
    rows = [
        row
        for (boundary, coin, _), games in walks.items()
        for row in _calibrate_walk(boundary, coin, games, config)
    ]
    rows.sort(key=lambda r: (r["game"], r["target_distance"], r["boundary"], r["coin"]))

    columns = [
        "game", "boundary", "coin", "theta_A", "theta_B", "target_distance",
        "u_B", "mean_x_A", "mean_x_B", "center_of_mass",
        "meeting_probability", "mean_separation",
    ]
    table = [[r.get(f, "") for f in columns] for r in rows]
    write_csv(os.path.join(out, "calibration.csv"), columns, table)
    return 0


_RECIPE_RUNNERS = {
    "race": _run_competitive,
    "tug_of_war": _run_competitive,
    "rendezvous": _run_rendezvous,
    "perturbation": _run_perturbation,
    "learning": _run_learning,
    "calibrate": _run_calibrate,
}


@contextmanager
def _library_warnings():
    """Print the warnings that the filters pass inside, in the style of the
    config's own: each distinct message once, in the order first raised."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            yield
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)


def run_recipe(config: ExperimentConfig) -> int:
    """Validate, run, and write outputs; cleans up partial output on failure."""
    errors, warns = validate(config)
    if errors:
        for e in errors:
            print(f"config error: {e}", file=sys.stderr)
        return 1
    for wmsg in warns:
        print(f"warning: {wmsg}", file=sys.stderr)

    out = config.out_dir
    # the top-most directory makedirs creates, removed again on a runtime failure
    top, parent = None, os.path.abspath(out)
    while not os.path.lexists(parent):
        top, parent = parent, os.path.dirname(parent)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        print(f"config error: out_dir: cannot create {out!r}: {exc.strerror}", file=sys.stderr)
        return 1
    try:
        _dump_json(os.path.join(out, "resolved_config.json"), asdict(config))
        with _library_warnings():
            status = _RECIPE_RUNNERS[config.recipe](config, out)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        if top is not None:
            shutil.rmtree(top, ignore_errors=True)
        return 2
    if status == 3:
        print("no stationary point found", file=sys.stderr)
    return status


# command-line flag -> the config field it sets
FLAGS = dict(recipe="recipe", seed="seed", out="out_dir", workers="workers", grid="grid_n")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qwgames", description="Run quantum walk game experiments")
    p.add_argument("--config", help="JSON config file")
    need = {f.name: f.metadata["need"] for f in fields(ExperimentConfig)}
    for flag, name in FLAGS.items():
        p.add_argument(f"--{flag}", help=f"sets {name}, which must be {need[name]}")
    return p


def config_from_args(args) -> ExperimentConfig:
    data = {}
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {args.config}: expected a JSON object, got {data!r}")
    for flag, name in FLAGS.items():
        raw = getattr(args, flag)
        if raw is None:
            continue
        cast = type(getattr(ExperimentConfig, name))  # the type of the field's default
        try:
            data[name] = cast(raw)
        except ValueError:
            raise ConfigError(f"--{flag}: expected {cast.__name__}, got {raw!r}") from None
    return ExperimentConfig.from_dict(data)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return run_recipe(config)


if __name__ == "__main__":
    sys.exit(main())
