"""End-to-end acceptance suite.

Each numbered test prints one PASS/FAIL line (written through the capture so
it lands in the terminal transcript).  Tests 1-11 are gated property checks;
tests 12-14 report calibration results against published target values
without gating, since those runs are sensitive to unstated conventions
(initial coin, boundary rule) and sit outside the ballistic L >> T regime.
"""

import json
import sys
import time
import warnings

import numpy as np
import pytest

from oracles import FunctionEvaluator, dense_joint_step, recurrence_evolve
from qwgames.cli import ExperimentConfig, run_recipe
from qwgames.dynamics import WalkConfig, evolve, evolve_single
from qwgames.equilibrium import (
    StrategyGrid,
    WalkEvaluator,
    distributions,
    find_stationary,
    jacobian_at,
    learn,
    surface_from_evaluator,
)
from qwgames.games import GameKind, GameSpec, payoffs
from qwgames.hilbert import Boundary, LatticeGeometry, born_single, make_initial_state
from qwgames.interactions import InteractionKind, InteractionSpec
from qwgames.perturbation import drift, first_order_slope, nonseparability_certificate

RACE = GameSpec(GameKind.RACE)
warnings.filterwarnings("ignore", message="boundary reachable")

_CAPTURE = None


@pytest.fixture(autouse=True)
def _expose_capture(capsys):
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def _emit(line):
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def report(number, name, ok, detail=""):
    line = f"acceptance {number:>2} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    _emit(line)
    assert ok, line


def reported(number, name, ok, detail=""):
    line = f"acceptance {number:>2} {name}: {'MET' if ok else 'NOT MET'} [reported, not gated]"
    if detail:
        line += f"  ({detail})"
    _emit(line)


def test_01_unitarity():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    kinds = list(InteractionKind)
    for k in range(100):
        L = int(rng.choice(np.arange(5, 32, 2)))
        T = int(rng.integers(1, 26))
        kind = kinds[k % len(kinds)]
        boundary = Boundary.PERIODIC if k % 2 else Boundary.REFLECTING
        spec = InteractionSpec(
            kind, float(rng.uniform(0, np.pi)), noise_sigma=0.3
        )
        config = WalkConfig(LatticeGeometry(L, boundary), T, interaction=spec, seed=k)
        ta, tb = rng.uniform(0, np.pi), rng.uniform(0, np.pi)
        final = evolve(config, ta, tb)
        worst = max(worst, abs(np.linalg.norm(final) - 1.0))
    elapsed = time.perf_counter() - start
    report(
        1,
        "unitarity over 100 random configs",
        worst < 1e-10 and elapsed < 10.0,
        f"max |norm-1| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_02_dense_oracle_equivalence():
    rng = np.random.default_rng(7)
    kinds = [k for k in InteractionKind if k is not InteractionKind.NOISY_COLLISION]
    worst = 0.0
    for k in range(20):
        L = int(rng.choice([5, 7]))
        T = int(rng.integers(1, 4))
        boundary = Boundary.PERIODIC if k % 2 else Boundary.REFLECTING
        geom = LatticeGeometry(L, boundary)
        spec = InteractionSpec(kinds[k % len(kinds)], float(rng.uniform(0, np.pi)))
        ta, tb = rng.uniform(0, np.pi), rng.uniform(0, np.pi)
        config = WalkConfig(geom, T, (1, 0), (0, 1), spec)

        u = dense_joint_step(spec, geom, ta, tb)
        psi = make_initial_state(geom, (1, 0), (0, 1)).reshape(-1)
        for _ in range(T):
            psi = u @ psi
        got = evolve(config, ta, tb).reshape(-1)
        worst = max(worst, float(np.max(np.abs(got - psi))))
    report(2, "dense-unitary oracle equivalence", worst < 1e-12, f"max dev = {worst:.2e}")


def test_03_recurrence_oracle():
    rng = np.random.default_rng(13)
    geom = LatticeGeometry(21)
    worst = 0.0
    for _ in range(50):
        theta = float(rng.uniform(0, np.pi))
        steps = int(rng.integers(1, 21))
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c /= np.linalg.norm(c)
        expected = recurrence_evolve(geom, steps, theta, tuple(c))
        got = evolve_single(geom, steps, theta, tuple(c))
        worst = max(worst, float(np.max(np.abs(got - expected))))
    report(3, "single-walker recurrence oracle", worst < 1e-12, f"max dev = {worst:.2e}")


def test_04_separability_without_interaction():
    geom = LatticeGeometry(25)
    config = WalkConfig(geom, 10, (1, 0), (1, 0))
    grid = StrategyGrid(13)
    vals = grid.values
    ta, tb = np.meshgrid(vals, vals, indexing="ij")
    thetas = np.column_stack([ta.ravel(), tb.ravel()])

    # both sides stay on the joint kernel: WalkEvaluator would take the
    # product path here and compare the product with itself
    probs = distributions(config, thetas)
    singles = {th: born_single(evolve_single(geom, 10, th, (1, 0))) for th in vals}
    worst_p = max(
        float(np.max(np.abs(p - np.outer(singles[a], singles[b]))))
        for p, (a, b) in zip(probs, thetas)
    )

    f = {th: drift(geom, 10, th, (1, 0)) for th in vals}
    u = payoffs(probs, geom, RACE)[0]
    worst_u = max(abs(ua - (f[a] - f[b])) for ua, (a, b) in zip(u, thetas))
    report(
        4,
        "non-interacting separability",
        worst_p < 1e-12 and worst_u < 1e-10,
        f"dist dev = {worst_p:.2e}, payoff dev = {worst_u:.2e}",
    )


def test_05_degenerate_noninteracting_equilibrium():
    config = WalkConfig(LatticeGeometry(25), 10, (1, 0), (1, 0))
    ev = WalkEvaluator(config, RACE)
    interior_found = []
    for n in (61, 121):
        surface = surface_from_evaluator(ev, StrategyGrid(n))
        points = find_stationary(surface, ev)
        interior_found.extend(p for p in points if p.interior)
    report(
        5,
        "no interior equilibrium without interaction",
        not interior_found,
        f"interior points found: {len(interior_found)}",
    )


def test_06_nonseparability_onset():
    spec = InteractionSpec(InteractionKind.COLLISION_PHASE, np.pi)
    config = WalkConfig(LatticeGeometry(31), 10, interaction=spec)
    cert = nonseparability_certificate(config, RACE)
    ok = abs(cert.mixed_partial) > 10 * abs(cert.baseline)
    report(
        6,
        "mixed-partial certificate beats baseline 10x",
        ok,
        f"mixed = {cert.mixed_partial:.2e}, baseline = {cert.baseline:.2e}",
    )


def test_07_first_order_convergence():
    spec = InteractionSpec(InteractionKind.COLLISION_PHASE, 1.0)
    config = WalkConfig(LatticeGeometry(31), 10, interaction=spec)
    all_ratios = []
    for base in ((1.0, 2.0), (np.pi / 3, 2 * np.pi / 3)):
        est = first_order_slope(config, RACE, base)
        all_ratios.extend(est.ratios)
    all_ratios = np.array(all_ratios)
    ok = bool(np.all((all_ratios > 0.35) & (all_ratios < 0.65)))
    report(
        7,
        "linear Richardson convergence at two base points",
        ok,
        "ratios = " + ", ".join(f"{r:.3f}" for r in all_ratios),
    )


def walk_stationary(game, phi, lattice_size, steps):
    spec = InteractionSpec(InteractionKind.COLLISION_PHASE, phi)
    config = WalkConfig(LatticeGeometry(lattice_size), steps, interaction=spec)
    ev = WalkEvaluator(config, game)
    surface = surface_from_evaluator(ev, StrategyGrid(61))
    return find_stationary(surface, ev), ev, surface


@pytest.fixture(scope="module")
def small_coupling():
    """Race at coupling 0.2 (T=10, L=31), shared by checks 8 and 9."""
    return walk_stationary(RACE, 0.2, 31, 10)


def test_08_small_coupling_stationary_point(small_coupling):
    points, _, _ = small_coupling
    passing = [p for p in points if max(np.abs(p.grad_residual)) < 1e-3]
    detail = "; ".join(
        f"({p.theta_a:.3f}, {p.theta_b:.3f}) {p.status} res={max(np.abs(p.grad_residual)):.1e}"
        for p in points[:3]
    )
    report(8, "stationary point at small coupling", bool(passing), detail)


@pytest.mark.filterwarnings("ignore:boundary reachable")
def test_09_learning_stability(small_coupling):
    # walk games: every stable-classified stationary point must attract
    # nearby gradient-ascent starts and satisfy the spectral-radius bound.
    # The small-coupling race has only boundary points; tug-of-war at its
    # recipe defaults (T=20, L=15, phi=pi) has a stable interior point.
    tug_of_war = walk_stationary(GameSpec(GameKind.TUG_OF_WAR), np.pi, 15, 20)
    ok = True
    checked = 0
    for points, ev, _ in (small_coupling, tug_of_war):
        for p in points:
            if not p.interior:
                continue
            rep = jacobian_at(p, ev, eta=0.05)
            if not rep.stable:
                continue
            checked += 1
            ok = ok and rep.spectral_radius < 1.0
            for ang in np.linspace(0, 2 * np.pi, 8, endpoint=False):
                start = (
                    min(max(p.theta_a + 0.2 * np.cos(ang), 0.0), np.pi),
                    min(max(p.theta_b + 0.2 * np.sin(ang), 0.0), np.pi),
                )
                res = learn(ev, start, eta=0.05, max_iters=500)
                back = np.hypot(
                    res.trajectory[-1][0] - p.theta_a, res.trajectory[-1][1] - p.theta_b
                )
                ok = ok and res.converged and back < 0.05

    # synthetic quadratic game with known Jacobian [[-2, 1], [1, -2]]
    quad = FunctionEvaluator(
        lambda a, b: (
            -((a - 1.5) ** 2) + (a - 1.5) * (b - 1.2),
            -((b - 1.2) ** 2) + (a - 1.5) * (b - 1.2),
        )
    )
    rep = jacobian_at((1.5, 1.2), quad, eta=0.05)
    jac_ok = bool(
        np.allclose(rep.matrix, [[-2, 1], [1, -2]], atol=1e-4)
        and rep.stable
        and rep.spectral_radius < 1.0
    )
    for ang in np.linspace(0, 2 * np.pi, 8, endpoint=False):
        res = learn(
            quad, (1.5 + 0.2 * np.cos(ang), 1.2 + 0.2 * np.sin(ang)), eta=0.05,
            max_iters=500,
        )
        jac_ok = jac_ok and res.converged
    report(
        9,
        "learning stability at stable points",
        ok and jac_ok and checked > 0,
        f"walk points checked: {checked}; synthetic J dev = "
        f"{np.max(np.abs(rep.matrix - [[-2, 1], [1, -2]])):.1e}",
    )


def test_10_zero_sum_exactness():
    ok = True
    for kind, phi in ((GameKind.RACE, 0.2), (GameKind.TUG_OF_WAR, np.pi)):
        spec = InteractionSpec(InteractionKind.COLLISION_PHASE, phi)
        config = WalkConfig(LatticeGeometry(15), 6, interaction=spec)
        surface = surface_from_evaluator(WalkEvaluator(config, GameSpec(kind)), StrategyGrid(21))
        ok = ok and bool(np.all(surface.u_a + surface.u_b == 0.0))
    report(10, "zero-sum payoffs cancel bitwise", ok)


# each rerun recipe, with the outputs it must write
RERUNS = {
    "race": ({"grid_n": 9}, ("stationary.json",)),
    # the finite-difference outputs
    "learning": (
        {"grid_n": 7, "n_starts": 3, "max_iters": 40},
        ("vector_field.csv", "trajectories.csv"),
    ),
}


def test_11_cli_determinism(tmp_path):
    def run(out, recipe, extra):
        cfg = ExperimentConfig.from_dict(
            {
                "recipe": recipe,
                "steps": 6,
                "lattice_size": 13,
                "seed": 5,
                "out_dir": str(out),
                **extra,
            }
        )
        assert run_recipe(cfg) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    same = {}
    for recipe, (extra, outputs) in RERUNS.items():
        first = run(tmp_path / recipe, recipe, extra)
        (tmp_path / recipe).rename(tmp_path / f"{recipe}-saved")
        second = run(tmp_path / recipe, recipe, extra)
        assert first.keys() >= set(outputs)
        same[recipe] = first == second
    report(
        11, "byte-identical repeated CLI runs", all(same.values()),
        ", ".join(f"{recipe}: {'same' if ok else 'differs'}" for recipe, ok in same.items()),
    )


@pytest.fixture(scope="module")
def calibration_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("calibrate")
    cfg = ExperimentConfig.from_dict({"recipe": "calibrate", "out_dir": str(out)})
    start = time.perf_counter()
    assert run_recipe(cfg) == 0
    elapsed = time.perf_counter() - start
    import csv

    with open(out / "calibration.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows, elapsed


def test_12_race_calibration_reported(calibration_rows):
    rows, elapsed = calibration_rows
    best = next(r for r in rows if r["game"] == "race")
    dist = float(best["target_distance"])
    u_b = float(best["u_B"])
    mean_b = float(best["mean_x_B"])
    ok = dist < 0.15 and abs(u_b - 2.654) < 0.5 and abs(mean_b - 5.0) < 0.5
    reported(
        12,
        "race target (pi/2, 5pi/6)",
        ok,
        f"best {best['boundary']}/{best['coin']}: dist = {dist:.3f}, "
        f"u_B = {u_b:.3f}, <x_B> = {mean_b:.3f}, calibrate took {elapsed:.0f}s",
    )
    assert elapsed < 120.0


def test_13_rendezvous_calibration_reported(calibration_rows):
    rows, _ = calibration_rows
    best = next(r for r in rows if r["game"] == "rendezvous")
    dist = float(best["target_distance"])
    meet = float(best["meeting_probability"])
    sep = float(best["mean_separation"])
    ok = dist < 0.3 and abs(meet - 0.5) < 0.1 and abs(sep - 0.5) < 0.3
    reported(
        13,
        "rendezvous target (0, pi), meet 0.5",
        ok,
        f"best {best['boundary']}/{best['coin']}: dist = {dist:.3f}, "
        f"meet = {meet:.3f}, sep = {sep:.3f}",
    )


def test_14_tug_of_war_calibration_reported(calibration_rows):
    rows, _ = calibration_rows
    best = next(r for r in rows if r["game"] == "tug_of_war")
    dist = float(best["target_distance"])
    com = float(best["center_of_mass"])
    ok = dist < 0.3 and abs(com - (-0.485)) < 0.3
    reported(
        14,
        "tug-of-war target (2.81, 1.32), COM -0.485",
        ok,
        f"best {best['boundary']}/{best['coin']}: dist = {dist:.3f}, COM = {com:.3f}",
    )


def test_performance_gate():
    spec = InteractionSpec(InteractionKind.COLLISION_PHASE, np.pi)
    config = WalkConfig(LatticeGeometry(15), 20, interaction=spec)
    start = time.perf_counter()
    surface_from_evaluator(WalkEvaluator(config, RACE), StrategyGrid(61))
    elapsed = time.perf_counter() - start
    report(
        0,
        "performance: 61x61 race sweep (T=20, L=15)",
        elapsed < 5.0,
        f"{elapsed:.2f}s",
    )
