"""The names the benchmark harness under perfbench/ binds in the package.

`perfbench/workloads.py` imports from the package at load time, and
`perfbench/spans.py` wraps a fixed list of functions in `--trace 1` runs,
raising LookupError when one is gone.  These tests fail when a change to the
package removes or renames one of them, before a benchmark run does.
"""

import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import qwgames
from qwgames.cli import ExperimentConfig
from qwgames.equilibrium import WalkEvaluator

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def perfbench(monkeypatch):
    """The harness's modules, imported from perfbench/ as its runner does."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    for name in ("spans", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import spans
    import workloads

    return spans, workloads


def test_tracer_installs_on_every_traced_name(perfbench):
    spans, _ = perfbench
    original = qwgames.dynamics.evolve
    replaced = spans.install(spans.Tracer(), qwgames)  # LookupError when a name is gone
    try:
        assert qwgames.dynamics.evolve.__wrapped__ is original
        assert qwgames.evolve is qwgames.dynamics.evolve
    finally:
        spans.uninstall(replaced)
    assert qwgames.dynamics.evolve is original


def test_benchmark_oracle_agrees_with_the_package(perfbench):
    _, workloads = perfbench
    oracle = workloads.Oracle(workloads.load_oracles(str(ROOT)))
    config = ExperimentConfig.from_dict({"recipe": "race", "lattice_size": 9, "steps": 3})
    walk = workloads.walk_of(asdict(config))
    want = WalkEvaluator(config.walk_config(), config.game_spec()).evaluate(1.0, 2.0)
    np.testing.assert_allclose(oracle.payoffs(walk, "race", 1.0, 2.0), want, atol=1e-12)
