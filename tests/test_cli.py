import json
import os

import numpy as np
import pytest

from qwgames.cli import (
    COIN_CATALOG,
    ConfigError,
    ExperimentConfig,
    main,
    parse_angle,
    run_recipe,
    validate,
)


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


def test_exit_code_2_on_runtime_failure(tmp_path, capsys):
    cfg = _small_race(tmp_path / "crash", game="custom_table")
    assert run_recipe(cfg) == 2
    assert "runtime failure" in capsys.readouterr().err
    # partially written output is cleaned up
    assert not (tmp_path / "crash").exists()


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


def test_env_defaults_fill_missing_flags(tmp_path, monkeypatch):
    out = tmp_path / "env_out"
    monkeypatch.setenv("QWG_SEED", "9")
    monkeypatch.setenv("QWG_OUT", str(out))
    monkeypatch.setenv("QWG_GRID", "5")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"recipe": "race", "steps": 4, "lattice_size": 11}))
    assert main(["--config", str(cfg_path)]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["seed"] == 9
    assert resolved["grid_n"] == 5


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
