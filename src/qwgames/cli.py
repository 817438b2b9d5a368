"""Experiment driver.

Runs named recipes (race, rendezvous, tug-of-war, perturbation, learning,
calibrate) from a JSON config plus command-line overrides, and writes a
reproducible output directory: every run dumps resolved_config.json with all
defaults materialized, and identical resolved config + seed gives
byte-identical outputs.

CSV schemas: distributions `x_A,x_B,p`; surfaces `theta_A,theta_B,value`;
trajectories `start,iter,theta_A,theta_B,u_A,u_B`.

Environment variables with the QWG_ prefix (QWG_SEED, QWG_OUT, QWG_WORKERS,
QWG_GRID) override defaults when the corresponding flag is absent.

Exit codes: 0 success, 1 config error, 2 runtime failure, 3 no stationary
point found (race / tug-of-war only).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import shutil
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import perturbation as pert
from .dynamics import StrategyProfile, WalkConfig, evolve
from .equilibrium import (
    StrategyGrid,
    WalkEvaluator,
    best_responses,
    find_stationary,
    jacobian_at,
    learn,
    surface_from_evaluator,
    sweep_surface,
    vector_field,
)
from .games import GameKind, GameSpec, table_from_csv
from .hilbert import (
    Boundary,
    LatticeGeometry,
    distribution_to_csv,
    marginals,
    measure_joint,
)
from .interactions import InteractionKind, InteractionSpec

PI = np.pi


class ConfigError(ValueError):
    pass


_ANGLE_RE = re.compile(r"^\s*(-?)(\d+(?:\.\d+)?)?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$")


def parse_angle(value) -> float:
    """Accept decimal radians or fraction strings like 'pi/2' or '5pi/6'."""
    if isinstance(value, (int, float)):
        return float(value)
    m = _ANGLE_RE.match(str(value))
    if m:
        sign = -1.0 if m.group(1) else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        return sign * num * PI / den
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"cannot parse angle {value!r}") from None


# documented initial-coin catalog used by the calibrate recipe
COIN_CATALOG = {
    "right": ((1.0, 0.0), (0.0, 0.0)),
    "left": ((0.0, 0.0), (1.0, 0.0)),
    "symmetric": ((1 / np.sqrt(2), 0.0), (0.0, 1 / np.sqrt(2))),
    "plus": ((1 / np.sqrt(2), 0.0), (1 / np.sqrt(2), 0.0)),
    "minus": ((1 / np.sqrt(2), 0.0), (-1 / np.sqrt(2), 0.0)),
}

RECIPES = (
    "race",
    "rendezvous",
    "tug_of_war",
    "perturbation",
    "learning",
    "calibrate",
)

# (T, L, interaction strength) defaults per recipe, mirroring the headline runs
RECIPE_DEFAULTS = {
    "race": (20, 15, PI),
    "rendezvous": (20, 15, 0.0),
    "tug_of_war": (20, 15, PI),
    "perturbation": (10, 31, PI),
    "learning": (20, 15, PI),
    "calibrate": (20, 15, PI),
}

RECIPE_GAMES = {
    "race": GameKind.RACE,
    "rendezvous": GameKind.RENDEZVOUS,
    "tug_of_war": GameKind.TUG_OF_WAR,
    "perturbation": GameKind.RACE,
    "learning": GameKind.RACE,
    "calibrate": GameKind.RACE,
}

# published calibration targets per game
CALIBRATION_TARGETS = {
    "race": (PI / 2, 5 * PI / 6),
    "rendezvous": (0.0, PI),
    "tug_of_war": (2.81, 1.32),
}


@dataclass
class ExperimentConfig:
    recipe: str = "race"
    lattice_size: int = 15
    steps: int = 20
    boundary: str = "periodic"
    coin_a: tuple = COIN_CATALOG["right"]  # ((re, im), (re, im))
    coin_b: tuple = COIN_CATALOG["right"]
    interaction_kind: str = "collision_phase"
    interaction_strength: float = PI
    range_exponent: float = 2.0
    noise_sigma: float = 0.0
    game: str = "race"
    table_a_path: str | None = None
    table_b_path: str | None = None
    grid_n: int = 61
    refine: bool = True
    eta: float = 0.05
    max_iters: int = 500
    grad_h: float = 1e-3
    hess_h: float = 1e-2
    ensemble: int = 1
    n_starts: int = 8
    start_radius: float = 0.3
    phi_sweep: tuple = tuple(k * PI / 8 for k in range(9))
    base_theta_a: float = 1.0
    base_theta_b: float = 2.0
    lambda_schedule: tuple = (0.1, 0.05, 0.025, 0.0125)
    seed: int = 0
    workers: int = 0  # 0 = available parallelism
    out_dir: str = "out"

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        cfg = cls()
        known = set(asdict(cfg))
        for key, value in data.items():
            if key not in known:
                raise ConfigError(f"unknown config field {key!r}")
            # cfg still holds the defaults: an int/bool field takes only that type
            kind = type(getattr(cfg, key))
            if kind in (int, bool) and type(value) is not kind:
                raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}")
            if key in ("interaction_strength", "noise_sigma", "eta", "grad_h",
                       "hess_h", "start_radius", "base_theta_a", "base_theta_b"):
                value = parse_angle(value)
            if key in ("phi_sweep", "lambda_schedule"):
                value = tuple(parse_angle(v) for v in value)
            if key in ("coin_a", "coin_b"):
                value = tuple(tuple(float(c) for c in comp) for comp in value)
            setattr(cfg, key, value)
        if cfg.recipe in RECIPE_DEFAULTS:
            t, l, phi = RECIPE_DEFAULTS[cfg.recipe]
            if "steps" not in data:
                cfg.steps = t
            if "lattice_size" not in data:
                cfg.lattice_size = l
            if "interaction_strength" not in data:
                cfg.interaction_strength = phi
        if "game" not in data and cfg.recipe in RECIPE_GAMES:
            cfg.game = RECIPE_GAMES[cfg.recipe].value
        return cfg

    def resolved(self) -> dict:
        out = asdict(self)
        out["recipe"] = self.recipe
        return out

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

    def coins(self) -> tuple:
        def to_complex(coin):
            return tuple(complex(re, im) for re, im in coin)

        return to_complex(self.coin_a), to_complex(self.coin_b)

    def walk_config(self) -> WalkConfig:
        ca, cb = self.coins()
        return WalkConfig(self.geometry(), self.steps, ca, cb, self.interaction())

    def game_spec(self) -> GameSpec:
        kind = GameKind(self.game)
        if kind is GameKind.CUSTOM_TABLE:
            if not self.table_a_path or not self.table_b_path:
                raise ConfigError("custom_table game requires table_a_path and table_b_path")
            geom = self.geometry()
            return GameSpec(
                kind,
                table_from_csv(self.table_a_path, geom),
                table_from_csv(self.table_b_path, geom),
            )
        return GameSpec(kind)


def validate(config: ExperimentConfig) -> tuple[list[str], list[str]]:
    """Field-level errors plus non-fatal warnings."""
    errors, warns = [], []
    if config.recipe not in RECIPES:
        errors.append(f"recipe: unknown recipe {config.recipe!r}")
    if config.lattice_size < 3 or config.lattice_size % 2 == 0:
        errors.append(f"lattice_size: must be odd and >= 3, got {config.lattice_size}")
    if config.steps < 1:
        errors.append(f"steps: must be >= 1, got {config.steps}")
    if config.boundary not in ("periodic", "reflecting"):
        errors.append(f"boundary: must be periodic or reflecting, got {config.boundary!r}")
    try:
        InteractionKind(config.interaction_kind)
    except ValueError:
        errors.append(f"interaction_kind: unknown kind {config.interaction_kind!r}")
    if config.grid_n < 2:
        errors.append(f"grid_n: must be >= 2, got {config.grid_n}")
    if config.eta <= 0:
        errors.append(f"eta: learning rate must be > 0, got {config.eta}")
    for name, coin in (("coin_a", config.coin_a), ("coin_b", config.coin_b)):
        norm = np.linalg.norm([complex(re, im) for re, im in coin])
        if abs(norm - 1.0) > 1e-10:
            errors.append(f"{name}: coin state not normalized (||c|| = {norm})")
    if not errors:
        if config.steps >= (config.lattice_size - 1) // 2:
            warns.append(
                "boundary reachable: T >= (L-1)/2, results depend on the boundary rule"
            )
        if config.noise_sigma > 0 and config.ensemble <= 1:
            warns.append("noisy interaction with ensemble = 1: payoffs will be jittery")
        if not config.refine:
            warns.append("refinement disabled: off-grid equilibria will be missed")
    return errors, warns


# -- output helpers ----------------------------------------------------------


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_surface(path, grid: StrategyGrid, values: np.ndarray):
    vals = grid.values
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta_A", "theta_B", "value"])
        for i, ta in enumerate(vals):
            for j, tb in enumerate(vals):
                w.writerow([_fmt(ta), _fmt(tb), _fmt(values[i, j])])


def _write_best_responses(path, grid: StrategyGrid, br_a, br_b):
    vals = grid.values
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["player", "theta_opponent", "theta_best"])
        for j, rows in enumerate(br_a):
            for i in rows:
                w.writerow(["A", _fmt(vals[j]), _fmt(vals[i])])
        for i, cols in enumerate(br_b):
            for j in cols:
                w.writerow(["B", _fmt(vals[i]), _fmt(vals[j])])


def _stationary_payload(points, evaluator, hess_h, eta):
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
            rep = jacobian_at(pt, evaluator, h=hess_h, eta=eta)
            entry["jacobian"] = rep.matrix.tolist()
            entry["eigenvalues"] = [[z.real, z.imag] for z in rep.eigenvalues]
            entry["verdict"] = rep.verdict
            entry["stable"] = rep.stable
            entry["spectral_radius"] = rep.spectral_radius
            entry["eta"] = rep.eta
            entry["boundary_caveat"] = rep.boundary_caveat
        payload.append(entry)
    return payload


def _dump_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- recipes -----------------------------------------------------------------


def _run_competitive(config: ExperimentConfig, out: str) -> int:
    walk = config.walk_config()
    game = config.game_spec()
    grid = StrategyGrid(config.grid_n)
    evaluator = WalkEvaluator(walk, game, config.seed, config.ensemble)
    surface = surface_from_evaluator(evaluator, grid)
    _write_surface(os.path.join(out, "surface_uA.csv"), grid, surface.u_a)
    _write_surface(os.path.join(out, "surface_uB.csv"), grid, surface.u_b)
    br_a, br_b = best_responses(surface)
    _write_best_responses(os.path.join(out, "best_response.csv"), grid, br_a, br_b)

    points = find_stationary(
        surface, evaluator, refine=config.refine, grad_h=config.grad_h
    )
    _dump_json(
        os.path.join(out, "stationary.json"),
        _stationary_payload(points, evaluator, config.hess_h, config.eta),
    )
    if not points:
        return 3

    interior = [p for p in points if p.interior]
    best = interior[0] if interior else points[0]
    profile = StrategyProfile(best.theta_a, best.theta_b)
    dist = measure_joint(evolve(walk, profile, config.seed))
    distribution_to_csv(dist, os.path.join(out, "ne_distribution.csv"))
    p_a, p_b = marginals(dist)
    with open(os.path.join(out, "ne_marginals.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "p_A", "p_B"])
        for x, a, b in zip(walk.geometry.positions, p_a, p_b):
            w.writerow([x, _fmt(a), _fmt(b)])
    return 0


def _run_rendezvous(config: ExperimentConfig, out: str) -> int:
    walk = config.walk_config()
    game = config.game_spec()
    grid = StrategyGrid(config.grid_n)
    evaluator = WalkEvaluator(walk, game, config.seed, config.ensemble)
    surface = surface_from_evaluator(evaluator, grid)
    _write_surface(os.path.join(out, "surface_u.csv"), grid, surface.u_a)
    _write_surface(
        os.path.join(out, "separation_surface.csv"), grid, surface.aux["mean_separation"]
    )
    _write_surface(
        os.path.join(out, "meeting_surface.csv"), grid, surface.aux["meeting_probability"]
    )

    i, j = np.unravel_index(np.argmax(surface.u_a), surface.u_a.shape)
    ta, tb = grid.values[i], grid.values[j]
    pt = evaluator.points([[ta, tb]])[0]
    _dump_json(
        os.path.join(out, "optimum.json"),
        {
            "theta_A": float(ta),
            "theta_B": float(tb),
            "payoff": pt.u_a,
            "mean_separation": pt.aux["mean_separation"],
            "meeting_probability": pt.aux["meeting_probability"],
        },
    )

    with open(os.path.join(out, "phi_sweep.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["phi", "meeting_probability", "payoff"])
        for phi in config.phi_sweep:
            walk_phi = replace(
                walk, interaction=walk.interaction.with_strength(float(phi))
            )
            p = WalkEvaluator(walk_phi, game, config.seed, config.ensemble).points(
                [[ta, tb]]
            )[0]
            w.writerow([_fmt(phi), _fmt(p.aux["meeting_probability"]), _fmt(p.u_a)])

    with open(os.path.join(out, "cross_section.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta_A", "value"])
        for k, v in enumerate(surface.u_a[:, j]):
            w.writerow([_fmt(grid.values[k]), _fmt(v)])

    dist = measure_joint(evolve(walk, StrategyProfile(float(ta), float(tb)), config.seed))
    distribution_to_csv(dist, os.path.join(out, "opt_distribution.csv"))
    return 0


def _run_perturbation(config: ExperimentConfig, out: str) -> int:
    walk = config.walk_config()
    game = config.game_spec()
    geom = walk.geometry
    thetas = StrategyGrid(config.grid_n).values

    f_vals = pert.drift_sweep(geom, walk.steps, thetas, walk.coin_a)
    with open(os.path.join(out, "f_sweep.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta", "F"])
        for th, f in zip(thetas, f_vals):
            w.writerow([_fmt(th), _fmt(f)])

    grid13 = StrategyGrid(13)
    residual = pert.separability_residual(walk, game, grid13, config.seed)
    _dump_json(os.path.join(out, "separability.json"), {"max_residual": residual})

    g = pert.g_estimate_grid(walk, game, grid13, config.lambda_schedule[:2], config.seed)
    _write_surface(os.path.join(out, "g_grid.csv"), grid13, g)

    profile = StrategyProfile(config.base_theta_a, config.base_theta_b)
    est = pert.first_order_slope(walk, game, profile, config.lambda_schedule, config.seed)
    with open(os.path.join(out, "convergence_table.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["lambda", "slope", "difference", "ratio"])
        for k, lam in enumerate(est.lambdas):
            diff = est.differences[k - 1] if k >= 1 else ""
            ratio = est.ratios[k - 2] if k >= 2 else ""
            w.writerow(
                [_fmt(lam), _fmt(est.slopes[k]),
                 _fmt(diff) if diff != "" else "", _fmt(ratio) if ratio != "" else ""]
            )

    cert = pert.nonseparability_certificate(walk, game, config.seed)
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
    walk = config.walk_config()
    game = config.game_spec()
    grid = StrategyGrid(min(config.grid_n, 31))
    evaluator = WalkEvaluator(walk, game, config.seed, config.ensemble)

    ga, gb = vector_field(evaluator, grid, config.grad_h)
    vals = grid.values
    with open(os.path.join(out, "vector_field.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta_A", "theta_B", "dUA_dthetaA", "dUB_dthetaB"])
        for i, ta in enumerate(vals):
            for j, tb in enumerate(vals):
                w.writerow([_fmt(ta), _fmt(tb), _fmt(ga[i, j]), _fmt(gb[i, j])])

    surface = surface_from_evaluator(evaluator, grid)
    points = find_stationary(surface, evaluator, refine=config.refine, grad_h=config.grad_h)
    interior = [p for p in points if p.interior]
    center = interior[0] if interior else (points[0] if points else None)
    if center is None:
        ca, cb = PI / 2, PI / 2
    else:
        ca, cb = center.theta_a, center.theta_b

    starts = []
    for k in range(config.n_starts):
        ang = 2 * PI * k / config.n_starts
        starts.append(
            (
                min(max(ca + config.start_radius * np.cos(ang), 0.0), PI),
                min(max(cb + config.start_radius * np.sin(ang), 0.0), PI),
            )
        )
    with open(os.path.join(out, "trajectories.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["start", "iter", "theta_A", "theta_B", "u_A", "u_B"])
        for sid, start in enumerate(starts):
            res = learn(
                evaluator, start, config.eta, config.grad_h,
                max_iters=config.max_iters,
            )
            for it, ((ta, tb), (ua, ub)) in enumerate(zip(res.trajectory, res.payoffs)):
                w.writerow([sid, it, _fmt(ta), _fmt(tb), _fmt(ua), _fmt(ub)])
    return 0


def _calibrate_candidate(args):
    game_name, boundary, coin_label, config = args
    coin = COIN_CATALOG[coin_label]
    sub = replace(
        config,
        boundary=boundary,
        coin_a=coin,
        coin_b=coin,
        game=RECIPE_GAMES[game_name].value,
    )
    t, l, phi = RECIPE_DEFAULTS[game_name]
    sub = replace(sub, steps=t, lattice_size=l, interaction_strength=phi, grid_n=31)
    walk = sub.walk_config()
    game = sub.game_spec()
    grid = StrategyGrid(sub.grid_n)
    evaluator = WalkEvaluator(walk, game, sub.seed, sub.ensemble)
    surface = surface_from_evaluator(evaluator, grid)
    target = CALIBRATION_TARGETS[game_name]

    if game_name == "rendezvous":
        i, j = np.unravel_index(np.argmax(surface.u_a), surface.u_a.shape)
        ta, tb = float(grid.values[i]), float(grid.values[j])
        pt = evaluator.points([[ta, tb]])[0]
        extras = {
            "meeting_probability": pt.aux["meeting_probability"],
            "mean_separation": pt.aux["mean_separation"],
        }
        u_b = pt.u_b
    else:
        points = find_stationary(surface, evaluator, refine=True)
        interior = [p for p in points if p.interior] or points
        if not interior:
            return None
        best = min(
            interior,
            key=lambda p: np.hypot(p.theta_a - target[0], p.theta_b - target[1]),
        )
        ta, tb, u_b = best.theta_a, best.theta_b, best.u_b
        pt = evaluator.points([[ta, tb]])[0]
        extras = {
            "mean_x_A": pt.aux["mean_x_A"],
            "mean_x_B": pt.aux["mean_x_B"],
            "center_of_mass": pt.aux["center_of_mass"],
        }
    dist = float(np.hypot(ta - target[0], tb - target[1]))
    return {
        "game": game_name,
        "boundary": boundary,
        "coin": coin_label,
        "theta_A": ta,
        "theta_B": tb,
        "target_distance": dist,
        "u_B": u_b,
        **extras,
    }


def _run_calibrate(config: ExperimentConfig, out: str) -> int:
    jobs = [
        (game, boundary, coin, config)
        for game in ("race", "rendezvous", "tug_of_war")
        for boundary in ("periodic", "reflecting")
        for coin in COIN_CATALOG
    ]
    workers = config.workers or os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=workers) as pool:
        rows = [r for r in pool.map(_calibrate_candidate, jobs) if r is not None]
    rows.sort(key=lambda r: (r["game"], r["target_distance"], r["boundary"], r["coin"]))

    fields = [
        "game", "boundary", "coin", "theta_A", "theta_B", "target_distance",
        "u_B", "mean_x_A", "mean_x_B", "center_of_mass",
        "meeting_probability", "mean_separation",
    ]
    with open(os.path.join(out, "calibration.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(fields)
        for r in rows:
            w.writerow(
                [r.get(f, "") if not isinstance(r.get(f), float) else _fmt(r[f])
                 for f in fields]
            )
    return 0


_RECIPE_RUNNERS = {
    "race": _run_competitive,
    "tug_of_war": _run_competitive,
    "rendezvous": _run_rendezvous,
    "perturbation": _run_perturbation,
    "learning": _run_learning,
    "calibrate": _run_calibrate,
}


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
    created = not os.path.exists(out)
    os.makedirs(out, exist_ok=True)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _dump_json(os.path.join(out, "resolved_config.json"), config.resolved())
            status = _RECIPE_RUNNERS[config.recipe](config, out)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        if created:
            shutil.rmtree(out, ignore_errors=True)
        return 2
    if status == 3:
        print("no stationary point found", file=sys.stderr)
    return status


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qwgames",
        description="Run quantum walk game experiments",
    )
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--recipe", choices=[r.replace("_", "-") for r in RECIPES] + list(RECIPES))
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory")
    p.add_argument("--workers", type=int)
    p.add_argument("--grid", type=int, help="strategy grid points per axis")
    return p


def _env_default(name: str, cast):
    raw = os.environ.get(f"QWG_{name}")
    return cast(raw) if raw is not None else None


def config_from_args(args) -> ExperimentConfig:
    data = {}
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {args.config}: expected a JSON object, got {data!r}")
    overrides = {
        "recipe": args.recipe.replace("-", "_") if args.recipe else None,
        "seed": args.seed if args.seed is not None else _env_default("SEED", int),
        "out_dir": args.out or _env_default("OUT", str),
        "workers": args.workers if args.workers is not None else _env_default("WORKERS", int),
        "grid_n": args.grid if args.grid is not None else _env_default("GRID", int),
    }
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
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
