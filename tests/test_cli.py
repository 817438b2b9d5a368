import json
import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwgames import cli, dynamics, equilibrium
from qwgames.cli import (
    COIN_CATALOG,
    ConfigError,
    ExperimentConfig,
    build_parser,
    config_from_args,
    main,
    parse_angle,
    run_recipe,
    validate,
)
from qwgames.dynamics import evolve
from qwgames.games import diagnostics, payoffs
from oracles import write_csv_cells

FIELD_NAMES = [f.name for f in fields(ExperimentConfig)]


def test_parse_angle_fractions():
    assert parse_angle("pi/2") == pytest.approx(np.pi / 2)
    assert parse_angle("5pi/6") == pytest.approx(5 * np.pi / 6)
    assert parse_angle("-pi/4") == pytest.approx(-np.pi / 4)
    assert parse_angle("2pi") == pytest.approx(2 * np.pi)
    assert parse_angle("pi") == pytest.approx(np.pi)
    assert parse_angle("1.5pi/2") == pytest.approx(0.75 * np.pi)


def test_parse_angle_numbers_and_errors():
    assert parse_angle(1.25) == 1.25
    assert parse_angle("0.75") == 0.75
    with pytest.raises(ConfigError):
        parse_angle("two pi")


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"lattice_sise": 15})


def test_from_dict_applies_recipe_defaults_per_field():
    cfg = ExperimentConfig.from_dict({"recipe": "perturbation", "steps": 4})
    assert cfg.steps == 4
    assert cfg.lattice_size == 31
    assert cfg.interaction_strength == pytest.approx(np.pi)
    assert cfg.game == "race"


def test_from_dict_parses_angle_strings():
    cfg = ExperimentConfig.from_dict({"interaction_strength": "pi/2"})
    assert cfg.interaction_strength == pytest.approx(np.pi / 2)


def test_validate_catches_field_errors():
    cfg = ExperimentConfig.from_dict({"lattice_size": 14, "steps": 0})
    errors, _ = validate(cfg)
    assert any("lattice_size" in e for e in errors)
    assert any("steps" in e for e in errors)

    cfg = ExperimentConfig.from_dict({"recipe": "race", "coin_a": [[1, 0], [1, 0]]})
    errors, _ = validate(cfg)
    assert any("coin_a" in e for e in errors)


def test_validate_warns_on_reachable_boundary_and_noise():
    cfg = ExperimentConfig.from_dict({"recipe": "race", "steps": 20, "lattice_size": 15})
    errors, warns = validate(cfg)
    assert not errors
    assert any("boundary reachable" in w for w in warns)

    # at T = (L-1)/2 no walker steps off the edge yet, so the rule cannot matter
    boundary = {}
    for steps in (7, 8):
        cfg = ExperimentConfig.from_dict({"recipe": "race", "steps": steps, "lattice_size": 15})
        _, warns = validate(cfg)
        boundary[steps] = [w for w in warns if "boundary reachable" in w]
    assert boundary == {
        7: [],
        8: [
            "boundary reachable: T = 8 > (L-1)/2 = 7; "
            "results depend on the boundary rule (periodic)"
        ],
    }

    cfg = ExperimentConfig.from_dict(
        {
            "recipe": "race",
            "steps": 4,
            "lattice_size": 15,
            "interaction_kind": "noisy_collision",
            "noise_sigma": 0.3,
        }
    )
    _, warns = validate(cfg)
    assert any("ensemble" in w for w in warns)

    # noise_sigma jitters only the noisy collision, so nothing is drawn here
    cfg = ExperimentConfig.from_dict(
        {"recipe": "race", "steps": 4, "lattice_size": 15, "noise_sigma": 0.5}
    )
    _, warns = validate(cfg)
    assert not any("ensemble" in w for w in warns)


@pytest.mark.parametrize(
    "field, value, kind",
    [("noise_sigma", 0.5, "noisy_collision"), ("range_exponent", 1.5, "long_range")],
)
def test_validate_warns_on_a_field_the_interaction_does_not_use(field, value, kind):
    def unused_warnings(data):
        _, warns = validate(ExperimentConfig.from_dict({"steps": 4, **data}))
        return [w for w in warns if "ignored" in w]

    assert unused_warnings({}) == []  # the defaults set neither field
    warns = unused_warnings({field: value})
    assert len(warns) == 1 and field in warns[0] and kind in warns[0]
    # the interaction that reads the field takes it without a word
    assert unused_warnings({field: value, "interaction_kind": kind}) == []


@pytest.mark.parametrize("field", ["table_a_path", "table_b_path"])
def test_validate_warns_on_a_table_the_game_does_not_read(field):
    def unused_warnings(data):
        _, warns = validate(ExperimentConfig.from_dict({"steps": 4, **data}))
        return [w for w in warns if "ignored" in w]

    assert unused_warnings({field: "/nonexistent.csv"}) == [
        f"{field} is ignored: only game custom_table uses it"
    ]
    paths = {"table_a_path": "/nonexistent.csv", "table_b_path": "/nonexistent.csv"}
    assert len(unused_warnings({**paths, "game": "tug_of_war"})) == 2
    # custom_table reads both without a word; validation opens neither file
    assert unused_warnings({**paths, "game": "custom_table"}) == []


def test_validate_warns_when_ensemble_draws_no_noise():
    def ensemble_warnings(data):
        _, warns = validate(ExperimentConfig.from_dict({"steps": 4, **data}))
        return [w for w in warns if w.startswith("ensemble is ignored")]

    assert ensemble_warnings({}) == []
    assert len(ensemble_warnings({"ensemble": 3})) == 1
    noisy = {"interaction_kind": "noisy_collision", "ensemble": 3}
    assert len(ensemble_warnings(noisy)) == 1  # sigma 0 draws no jitter
    assert ensemble_warnings({**noisy, "noise_sigma": 0.3}) == []


def test_validate_warns_when_learning_caps_the_grid():
    def cap_warnings(data):
        _, warns = validate(ExperimentConfig.from_dict({"steps": 4, **data}))
        return [w for w in warns if "capped" in w]

    assert cap_warnings({"recipe": "learning", "grid_n": 31}) == []
    assert cap_warnings({"recipe": "learning", "grid_n": 61}) == [
        "learning evaluates a 31x31 grid; grid_n = 61 is capped"
    ]
    assert cap_warnings({"recipe": "race", "grid_n": 61}) == []  # race reads every grid_n


def test_learning_states_its_grid_cap_once(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli._RECIPE_RUNNERS, "learning", lambda config, out: 0)
    assert main(["--recipe", "learning", "--grid", "61", "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err.count("grid_n = 61 is capped") == 1


def test_learning_defaults_to_the_grid_it_evaluates(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli._RECIPE_RUNNERS, "learning", lambda config, out: 0)
    out = tmp_path / "out"
    assert main(["--recipe", "learning", "--out", str(out)]) == 0
    assert "is capped" not in capsys.readouterr().err
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["grid_n"] == cli.LEARNING_GRID == 31
    # every other recipe keeps the field's own default
    assert ExperimentConfig.from_dict({"recipe": "race"}).grid_n == 61


def test_validate_warns_once_when_workers_asks_for_threads():
    def worker_warnings(workers):
        cfg = ExperimentConfig.from_dict({"recipe": "calibrate", "workers": workers})
        return [w for w in validate(cfg)[1] if "workers" in w]

    assert worker_warnings(0) == worker_warnings(1) == []
    assert worker_warnings(2) == ["workers = 2 is ignored: every run uses one thread"]


@pytest.mark.parametrize("workers", [0, 1, 2])
def test_calibrate_runs_every_walk_in_the_calling_thread(tmp_path, monkeypatch, workers):
    caller, jobs = threading.get_ident(), []

    def walk(boundary, coin_label, game_names, config):
        jobs.append((boundary, coin_label, tuple(game_names), threading.get_ident()))
        return []

    def start(self):
        raise AssertionError("calibrate started a thread")

    monkeypatch.setattr(cli, "_calibrate_walk", walk)
    monkeypatch.setattr(threading.Thread, "start", start)
    cfg = ExperimentConfig.from_dict({"recipe": "calibrate", "workers": workers})
    assert cli._run_calibrate(cfg, str(tmp_path)) == 0
    # 2 boundaries x 5 coins, each walk once for race with tug-of-war, once for rendezvous
    assert len(set(jobs)) == len(jobs) == 20
    assert {job[-1] for job in jobs} == {caller}


# the fields the calibrate recipe sets for each walk it searches
CALIBRATE_SETS = [
    "steps", "lattice_size", "interaction_strength", "boundary", "coin_a", "coin_b",
    "game", "grid_n",
]


@pytest.mark.parametrize("name", CALIBRATE_SETS)
def test_calibrate_rejects_a_field_it_sets_itself(tmp_path, capsys, name):
    # even the default value: calibrate would not run with it
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"recipe": "calibrate", name: _DEFAULTS[name]}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {name}: ")
    assert not out.exists()


def test_calibrate_rejects_the_grid_flag(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--recipe", "calibrate", "--grid", "5", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: grid_n: ")
    assert not out.exists()


def test_calibrate_takes_the_fields_it_reads_and_resolves_every_field():
    data = {"recipe": "calibrate", "interaction_kind": "long_range", "seed": 2, "ensemble": 2}
    cfg = ExperimentConfig.from_dict(data)
    errors, warns = validate(cfg)
    assert errors == []
    # calibrate searches both boundary rules, so its warning names both
    assert any("(periodic and reflecting)" in w for w in warns)
    # resolved_config.json keeps every field, the ones calibrate sets too
    assert list(asdict(cfg)) == FIELD_NAMES


def _small_race(out_dir, **extra):
    data = {
        "recipe": "race",
        "steps": 4,
        "lattice_size": 11,
        "grid_n": 7,
        "out_dir": str(out_dir),
    }
    data.update(extra)
    return ExperimentConfig.from_dict(data)


def test_race_recipe_file_contract(tmp_path):
    out = tmp_path / "race"
    assert run_recipe(_small_race(out)) == 0
    for name in (
        "resolved_config.json",
        "surface_uA.csv",
        "surface_uB.csv",
        "best_response.csv",
        "stationary.json",
        "ne_distribution.csv",
        "ne_marginals.csv",
    ):
        assert (out / name).exists(), name
    header = (out / "surface_uA.csv").read_text().splitlines()[0]
    assert header == "theta_A,theta_B,value"
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["steps"] == 4
    points = json.loads((out / "stationary.json").read_text())
    assert points


@pytest.mark.parametrize("kind, sigma", [("collision_phase", 0.0), ("noisy_collision", 0.5)])
def test_phi_sweep_is_bitwise_one_walk_per_strength(tmp_path, kind, sigma):
    # one points call with a strength a row writes what a walk per strength
    # writes, a zero strength (the product path of a deterministic walk) too
    data = {
        "recipe": "rendezvous", "grid_n": 5, "interaction_kind": kind, "noise_sigma": sigma,
        "ensemble": 2, "coin_b": COIN_CATALOG["symmetric"], "phi_sweep": [-1.0, 0.0, 0.5, "pi"],
    }
    cfg = ExperimentConfig.from_dict({**data, "out_dir": str(tmp_path / "out")})
    assert run_recipe(cfg) == 0
    optimum = json.loads((tmp_path / "out" / "optimum.json").read_text())
    walk, game = cfg.walk_config(), cfg.game_spec()
    rows = []
    for phi in cfg.phi_sweep:
        at_phi = replace(walk, interaction=walk.interaction.with_strength(phi))
        ev = equilibrium.WalkEvaluator(at_phi, game)
        u_a, _, aux = ev.points([[optimum["theta_A"], optimum["theta_B"]]], diagnostics=True)
        rows.append([phi, aux["meeting_probability"][0], u_a[0]])
    written = np.loadtxt(tmp_path / "out" / "phi_sweep.csv", delimiter=",", skiprows=1)
    assert written.tobytes() == np.array(rows).tobytes()


def test_repeated_runs_are_byte_identical(tmp_path):
    out = tmp_path / "run"
    assert run_recipe(_small_race(out)) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    saved = tmp_path / "saved"
    out.rename(saved)
    assert run_recipe(_small_race(out)) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_rendezvous_recipe_outputs(tmp_path):
    out = tmp_path / "rdv"
    cfg = ExperimentConfig.from_dict(
        {
            "recipe": "rendezvous",
            "steps": 4,
            "lattice_size": 11,
            "grid_n": 5,
            "phi_sweep": [0.0, "pi/2"],
            "out_dir": str(out),
        }
    )
    assert run_recipe(cfg) == 0
    for name in (
        "surface_u.csv",
        "separation_surface.csv",
        "meeting_surface.csv",
        "optimum.json",
        "phi_sweep.csv",
        "cross_section.csv",
        "opt_distribution.csv",
    ):
        assert (out / name).exists(), name
    opt = json.loads((out / "optimum.json").read_text())
    assert 0.0 <= opt["meeting_probability"] <= 1.0


def test_learning_recipe_outputs(tmp_path):
    out = tmp_path / "learn"
    cfg = ExperimentConfig.from_dict(
        {
            "recipe": "learning",
            "steps": 4,
            "lattice_size": 11,
            "grid_n": 5,
            "n_starts": 2,
            "max_iters": 5,
            "out_dir": str(out),
        }
    )
    assert run_recipe(cfg) == 0
    assert (out / "vector_field.csv").exists()
    lines = (out / "trajectories.csv").read_text().splitlines()
    assert lines[0] == "start,iter,theta_A,theta_B,u_A,u_B"
    assert len(lines) > 2


def test_exit_code_1_on_config_error(tmp_path, capsys):
    cfg = _small_race(tmp_path / "bad", lattice_size=14)
    assert run_recipe(cfg) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("size", [1003, 11501])
def test_lattice_size_past_its_bound_exits_1(tmp_path, capsys, size):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"lattice_size": size}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"config error: lattice_size: must be odd, >= 3 and <= 1001, got {size}\n"
    )
    assert not (tmp_path / "out").exists()


def test_lattice_size_bound_admits_1001():
    assert validate(ExperimentConfig.from_dict({"lattice_size": 1001}))[0] == []


@pytest.mark.parametrize("steps", [10_001, 562_520_422_144])
def test_steps_past_its_bound_exits_1(tmp_path, capsys, steps):
    # refused before a walk draws its per-step jitters
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"steps": steps}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"config error: steps: must be >= 1 and <= 10000, got {steps}\n"
    )
    assert not (tmp_path / "out").exists()


def test_steps_bound_admits_10000():
    assert validate(ExperimentConfig.from_dict({"steps": 10_000}))[0] == []


@pytest.mark.parametrize(
    "data, need",
    [
        ({"grid_n": 1002}, ">= 2 and <= 1001"),
        ({"grid_n": 1_000_000}, ">= 2 and <= 1001"),
        ({"recipe": "perturbation", "grid_n": 10**11}, ">= 2 and <= 1001"),
        ({"recipe": "learning", "n_starts": 1001}, ">= 1 and <= 1000"),
        ({"recipe": "learning", "n_starts": 10**12}, ">= 1 and <= 1000"),
    ],
)
def test_grid_and_starts_past_their_bounds_exit_1(tmp_path, capsys, data, need):
    # refused before any walk is evolved or any array is built
    (name, value), = [(k, v) for k, v in data.items() if k != "recipe"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"config error: {name}: must be {need}, got {value}\n"
    assert not (tmp_path / "out").exists()


def test_grid_and_starts_bounds_admit_1001_and_1000():
    assert validate(ExperimentConfig.from_dict({"grid_n": 1001}))[0] == []
    assert validate(ExperimentConfig.from_dict({"recipe": "learning", "n_starts": 1000}))[0] == []


NOISY_KIND = {"interaction_kind": "noisy_collision", "noise_sigma": 0.5}


@pytest.mark.parametrize("ensemble", [1001, 20_000, 10**9])
@pytest.mark.parametrize("recipe", ["race", "perturbation"])
def test_ensemble_past_its_bound_exits_1(tmp_path, capsys, monkeypatch, recipe, ensemble):
    # refused before any realization's jitters are drawn
    def refuse(*args):
        raise AssertionError("jitters drawn")

    monkeypatch.setattr(dynamics, "jitters", refuse)
    monkeypatch.setattr(equilibrium, "jitters", refuse)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**NOISY_KIND, "recipe": recipe, "ensemble": ensemble}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"config error: ensemble: must be >= 1 and <= 1000, got {ensemble}\n"
    )
    assert not (tmp_path / "out").exists()


def test_ensemble_bound_admits_1000():
    assert validate(ExperimentConfig.from_dict({**NOISY_KIND, "ensemble": 1000}))[0] == []


def test_write_csv_writes_the_per_cell_bytes(tmp_path):
    xs = np.arange(-3, 4)
    p = np.linspace(0.0, 1.0, 7) / 3
    mixed = [["A", 0.1, np.float64(2.0)], ["B", -0.0, np.nan], ["", 1e308, ""]]
    # convergence_table.csv's shape: blank cells in float columns, and an integer
    blanks = [[0.1, np.float64(1 / 3), "", ""], [0.05, 2, -0.5, ""], [0.025, 1e-7, 0.25, 0.5]]
    for name, header, rows, cells in [
        # a float array (integer labels included) and rows that mix in strings
        ("array", ["x", "p_A", "p_B"], np.column_stack([xs, p, p[::-1]]), zip(xs, p, p[::-1])),
        ("mixed", ["player", "a", "b"], mixed, mixed),
        ("blanks", ["lambda", "slope", "difference", "ratio"], blanks, blanks),
    ]:
        cli.write_csv(tmp_path / f"{name}.csv", header, rows)
        write_csv_cells(tmp_path / f"{name}.ref", header, cells)
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}.ref").read_bytes()


@pytest.mark.parametrize("sub", ["", "sub"], ids=["existing-file", "under-a-file"])
def test_out_dir_that_cannot_be_created_exits_1(tmp_path, capsys, sub):
    blocker = tmp_path / "F"
    blocker.write_text("kept\n")
    assert main(["--recipe", "race", "--grid", "3", "--out", str(blocker / sub)]) == 1
    err = capsys.readouterr().err
    assert "config error: out_dir: cannot create" in err
    assert "Traceback" not in err
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize(
    "out_dir, existing, created",
    [("crash", ".", "crash"), ("nest/a/b", ".", "nest"), ("nest/a/b", "nest", "nest/a")],
)
def test_exit_code_2_on_runtime_failure(tmp_path, capsys, out_dir, existing, created):
    (tmp_path / existing).mkdir(exist_ok=True)
    missing = str(tmp_path / "missing.csv")
    cfg = _small_race(
        tmp_path / out_dir, game="custom_table", table_a_path=missing, table_b_path=missing
    )
    assert run_recipe(cfg) == 2
    assert "runtime failure" in capsys.readouterr().err
    # partially written output is cleaned up with every directory made for
    # it; a parent that already existed stays
    assert not (tmp_path / created).exists()
    assert (tmp_path / existing).is_dir()


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, **env) -> subprocess.CompletedProcess:
    """The command line in a fresh interpreter, with `env` added to the
    environment, whose stderr shows every warning as a user sees it."""
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    cmd = [sys.executable, "-m", "qwgames.cli", *map(str, args)]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def zero_table(size: int) -> str:
    """x_A,x_B,value rows paying 0 on every site pair of a size-site lattice."""
    sites = range(-(size // 2), size // 2 + 1)
    return "x_A,x_B,value\n" + "".join(f"{a},{b},0\n" for a in sites for b in sites)


def test_default_race_states_the_reachable_boundary_once(tmp_path):
    # T = 20 >= (L - 1) / 2 = 7 at the race defaults; the grid does not matter
    run = run_cli("--recipe", "race", "--grid", "5", "--out", tmp_path / "race")
    assert run.returncode == 0, run.stderr
    assert run.stderr.count("boundary reachable") == 1


def test_a_library_warning_reaches_stderr(tmp_path):
    # all-zero tables tie every grid point, so the search cuts its candidates
    table = tmp_path / "zero.csv"
    table.write_text(zero_table(15))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"game": "custom_table", "table_a_path": str(table), "table_b_path": str(table)}
    ))
    run = run_cli("--config", cfg, "--recipe", "race", "--grid", "9", "--out", tmp_path / "out")
    assert run.returncode == 0, run.stderr
    lines = run.stderr.splitlines()
    assert "warning: 81 best-response intersections, refining the first 64" in lines
    assert "UserWarning" not in run.stderr


def test_library_warnings_print_once_in_the_order_first_raised(tmp_path, capsys, monkeypatch):
    def runner(config, out):
        warnings.warn("first")
        with ThreadPoolExecutor(max_workers=2) as pool:  # other threads' warnings are caught too
            list(pool.map(warnings.warn, ["pooled", "first", "pooled", "pooled"]))
        warnings.warn("first")
        warnings.warn("last")
        return 0

    monkeypatch.setitem(cli._RECIPE_RUNNERS, "race", runner)
    assert run_recipe(_small_race(tmp_path / "out")) == 0
    # this small race states no config warning of its own
    assert capsys.readouterr().err.splitlines() == [
        "warning: first", "warning: pooled", "warning: last",
    ]


def test_malformed_payoff_table_exits_2_naming_the_file(tmp_path, capsys):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text(zero_table(15))
    bad.write_text("x_A,x_B,value\n0,0,1.0\n1,1,nan\n")
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps(
        {"game": "custom_table", "table_a_path": str(good), "table_b_path": str(bad)}
    ))
    code = main(["--config", str(cfg_path), "--recipe", "race", "--grid", "3", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"runtime failure: {bad}:3: value 'nan' is not finite" in err
    assert not out.exists()


def test_exit_code_3_when_no_stationary_point(tmp_path, capsys):
    # opposed-chirality coins leave the best-response maps without a common
    # grid point, so the competitive recipe reports an empty search
    cfg = _small_race(
        tmp_path / "empty",
        coin_a=COIN_CATALOG["left"],
        coin_b=COIN_CATALOG["symmetric"],
    )
    assert run_recipe(cfg) == 3
    assert "no stationary point" in capsys.readouterr().err
    # diagnostics written so far are kept for inspection
    assert (tmp_path / "empty" / "stationary.json").exists()


def test_main_reads_config_file_and_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"recipe": "race", "steps": 4, "lattice_size": 11, "grid_n": 5})
    )
    out = tmp_path / "cli_out"
    code = main(["--config", str(cfg_path), "--out", str(out), "--seed", "3"])
    assert code == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["seed"] == 3
    assert resolved["grid_n"] == 5


def test_main_rejects_missing_config(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.json")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, field",
    [
        ([1, 2], "JSON object"),
        ({"recipe": "race", "steps": "20"}, "steps"),
        ({"recipe": "race", "lattice_size": 15.0}, "lattice_size"),
        ({"recipe": "race", "seed": True}, "seed"),
        ({"recipe": "race", "refine": True}, "refine"),
        ({"phi_sweep": 3}, "phi_sweep"),
        ({"coin_a": [1, 0]}, "coin_a"),
        ({"coin_a": "right"}, "coin_a"),
        ({"out_dir": ""}, "out_dir"),
        ({"ensemble": 0}, "ensemble"),
        ({"recipe": "calibrate", "workers": -1}, "workers"),
        ({"interaction_strength": "nan"}, "interaction_strength"),
        ({"interaction_kind": "noisy_collision", "noise_sigma": -1}, "noise_sigma"),
        (
            {"interaction_kind": "noisy_collision", "noise_sigma": 1e308, "ensemble": 2},
            "noise_sigma",
        ),
        ({"interaction_kind": "long_range", "range_exponent": 0}, "range_exponent"),
        ({"interaction_kind": "long_range", "range_exponent": "2"}, "range_exponent"),
        ({"game": "nope"}, "game"),
        ({"interaction_kind": "noisy_collision", "noise_sigma": 0.3, "seed": -1}, "seed"),
        ({"recipe": "perturbation", "base_theta_a": 5}, "base_theta_a"),
        ({"recipe": "perturbation", "lambda_schedule": [0.1, 0.2]}, "lambda_schedule"),
        ({"recipe": "tug_of_war", "hess_h": 1e-200}, "hess_h"),
        ({"game": "custom_table"}, "game"),
        ({"game": "custom_table", "table_a_path": 5, "table_b_path": "b.csv"}, "table_a_path"),
        ({"interaction_strength": True}, "interaction_strength"),
    ],
    ids=[
        "top-level-list", "int-as-string", "int-as-float", "int-as-bool", "refine-removed",
        "phi-sweep-number", "coin-flat-list", "coin-label", "empty-out-dir",
        "ensemble-0", "workers-negative", "strength-nan", "noise-negative",
        "noise-range-overflows", "range-exponent-0",
        "range-exponent-string", "unknown-game", "seed-negative", "theta-outside",
        "lambda-increasing", "hess-h-removed", "custom-table-no-paths", "table-path-number",
        "strength-bool",
    ],
)
def test_main_rejects_malformed_config_with_exit_1(tmp_path, capsys, content, field):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(content))
    out = tmp_path / "out"
    # a config that sets out_dir itself is run without --out, which would replace it
    out_flag = [] if "out_dir" in content else ["--out", str(out)]
    assert main(["--config", str(cfg_path), *out_flag]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and field in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "content",
    [
        {"recipe": "tug_of_war", "eta": 1e308, "grid_n": 9},
        # near the largest sigma whose jitter range, 2 sigma, is finite
        {"interaction_kind": "noisy_collision", "noise_sigma": 8e307, "ensemble": 2, "grid_n": 3},
    ],
    ids=["eta-huge", "noise-sigma-largest"],
)
def test_extreme_accepted_config_runs(tmp_path, capsys, content):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(content))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out)]) == 0
    assert "runtime failure" not in capsys.readouterr().err
    # every file is strict JSON: no NaN or Infinity token
    for path in out.glob("*.json"):
        json.loads(path.read_text(), parse_constant=pytest.fail)
    if "eta" in content:
        points = json.loads((out / "stationary.json").read_text())
        radii = [p["spectral_radius"] for p in points if "jacobian" in p]
        assert radii and all(r is None for r in radii)


def test_recipe_spelling_is_normalized_in_config_files_and_flags():
    cfg = ExperimentConfig.from_dict({"recipe": "tug-of-war"})
    assert (cfg.recipe, cfg.game) == ("tug_of_war", "tug_of_war")
    args = build_parser().parse_args(["--recipe", "tug-of-war"])
    assert config_from_args(args).recipe == "tug_of_war"


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["pi/2", "-pi", "nan", "tug-of-war", "long_range", "reflecting"])
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner),
    max_leaves=6,
)
_DEFAULTS = json.loads(json.dumps(asdict(ExperimentConfig())))
# valid settings under which a field's value may fail in a different way
_CONTEXTS = [
    {},
    {"interaction_kind": "long_range"},
    {"interaction_kind": "noisy_collision", "noise_sigma": 0.3},
    {"game": "custom_table", "table_a_path": "a.csv", "table_b_path": "b.csv"},
    {"recipe": "perturbation"},
    {"recipe": "calibrate"},
]


def _like(value):
    """JSON values of the shape of `value`, with each number redrawn."""
    if isinstance(value, list):
        return st.tuples(*map(_like, value)).map(list)
    if type(value) in (int, float):
        return st.integers(-2, 40) | st.floats(-1.0, 4.0) | st.sampled_from([np.nan, np.inf])
    return st.just(value)


def _field_value(name):
    """Any JSON value, the field's default, the default with its numbers
    redrawn, or the default list with one entry replaced by any JSON leaf."""
    default = _DEFAULTS[name]
    values = _JSON_VALUES | st.just(default) | _like(default)
    if isinstance(default, list):
        values |= st.tuples(st.integers(0, len(default) - 1), _JSON_LEAVES).map(
            lambda kv: [kv[1] if i == kv[0] else v for i, v in enumerate(default)]
        )
    return values


@st.composite
def _configs(draw):
    name = draw(st.sampled_from(FIELD_NAMES))
    return {**draw(st.sampled_from(_CONTEXTS)), name: draw(_field_value(name))}


@settings(max_examples=400, deadline=None)
@given(_configs())
def test_any_json_config_is_rejected_by_field_or_builds(data):
    try:
        cfg = ExperimentConfig.from_dict(data)
    except ConfigError as exc:
        assert str(exc).split(":")[0] in data
        return
    errors, _ = validate(cfg)
    if errors:
        assert all(e.split(":")[0] in data for e in errors), errors
        return
    walk = cfg.walk_config()
    for phi in cfg.phi_sweep:  # the rendezvous recipe's strength sweep
        cfg.interaction().with_strength(phi)
    evolve(walk, cfg.base_theta_a, cfg.base_theta_b)  # the perturbation base point


@pytest.mark.parametrize("flag, value", [("seed", "abc"), ("workers", "abc"), ("grid", "1.5")])
def test_flag_value_that_does_not_parse_exits_1(tmp_path, capsys, flag, value):
    assert main(["--recipe", "race", f"--{flag}", value, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: --{flag}:")
    assert not (tmp_path / "out").exists()


def test_each_flag_sets_its_config_field():
    args = build_parser().parse_args(
        ["--recipe", "learning", "--seed", "4", "--out", "o", "--workers", "2", "--grid", "9"]
    )
    cfg = config_from_args(args)
    assert (cfg.recipe, cfg.seed, cfg.out_dir, cfg.workers, cfg.grid_n) == (
        "learning", 4, "o", 2, 9,
    )


def test_environment_does_not_reach_the_config(tmp_path):
    env, flag = tmp_path / "env", tmp_path / "flag"
    run = run_cli(
        "--recipe", "race", "--grid", "3", "--out", flag,
        QWG_SEED="9", QWG_GRID="5", QWG_OUT=str(env),
    )
    assert run.returncode == 0, run.stderr
    resolved = json.loads((flag / "resolved_config.json").read_text())
    defaults = json.loads(json.dumps(asdict(ExperimentConfig.from_dict({"grid_n": 3}))))
    assert resolved == {**defaults, "out_dir": str(flag)}
    assert not env.exists()


def test_coin_catalog_is_normalized():
    for label, coin in COIN_CATALOG.items():
        norm = np.linalg.norm([complex(re, im) for re, im in coin])
        assert norm == pytest.approx(1.0, abs=1e-12), label


def test_tug_of_war_defaults_report_interior_jacobian(tmp_path):
    out = tmp_path / "tug"
    assert main(["--recipe", "tug-of-war", "--out", str(out)]) == 0
    points = json.loads((out / "stationary.json").read_text())
    interior = [p for p in points if p["status"] != "boundary"]
    assert interior
    assert all(len(p["jacobian"]) == 2 for p in interior)
    assert all(isinstance(p["boundary_caveat"], bool) for p in interior)


NOISY = {"interaction_kind": "noisy_collision", "noise_sigma": 0.5, "ensemble": 4}


@pytest.mark.parametrize(
    "recipe, extra, grid",
    [
        ("race", {}, 9),
        ("tug_of_war", {}, 9),
        # rendezvous runs at strength 0: the product path
        ("rendezvous", {"coin_b": COIN_CATALOG["symmetric"]}, 9),
        ("tug_of_war", NOISY, 21),
        ("rendezvous", NOISY, 9),
    ],
    ids=["race", "tug-of-war", "inert-rendezvous", "noisy-tug-of-war", "noisy-rendezvous"],
)
def test_written_distributions_reduce_to_the_reported_payoffs(tmp_path, recipe, extra, grid):
    # the written P is the one the reported payoffs reduce: for a noisy walk
    # the mean over its realizations, not one realization's P
    out = tmp_path / "run"
    cfg = ExperimentConfig.from_dict(
        {"recipe": recipe, "grid_n": grid, "seed": 0, "out_dir": str(out), **extra}
    )
    assert run_recipe(cfg) == 0
    geom, L = cfg.geometry(), cfg.lattice_size
    name = "opt_distribution.csv" if recipe == "rendezvous" else "ne_distribution.csv"
    rows = np.loadtxt(out / name, delimiter=",", skiprows=1)
    probs = rows[:, 2].reshape(L, L)
    u_a, u_b = payoffs(probs[None], geom, cfg.game_spec())
    aux = diagnostics(probs[None], geom)
    if recipe == "rendezvous":
        opt = json.loads((out / "optimum.json").read_text())
        want = {"payoff": u_a, **{k: aux[k] for k in ("mean_separation", "meeting_probability")}}
        for key, value in want.items():
            assert abs(value[0] - opt[key]) <= 1e-12, key
        return
    points = json.loads((out / "stationary.json").read_text())
    point = ([p for p in points if p["status"] != "boundary"] or points)[0]
    assert abs(u_a[0] - point["u_A"]) <= 1e-12
    assert abs(u_b[0] - point["u_B"]) <= 1e-12
    marginals = np.loadtxt(out / "ne_marginals.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(marginals[:, 0], geom.positions)
    np.testing.assert_array_equal(marginals[:, 1], probs.sum(axis=1))
    np.testing.assert_array_equal(marginals[:, 2], probs.sum(axis=0))
