"""Tests of the benchmark's own span accounting and output check.

    python3 -m pytest perfbench/tests -q      # from the checkout root
"""

import os
import shutil
import threading
import warnings

import numpy as np
import pytest

import qwgames
import spans
import workloads
from qwgames import cli
from qwgames.hilbert import Boundary, LatticeGeometry
from qwgames.interactions import InteractionKind, InteractionSpec

from conftest import ROOT


# -- self time ---------------------------------------------------------------


def _span(sid, parent, start, end, name="f", tid=1):
    return (sid, parent, name, tid, start, end, None)


def test_self_time_of_nested_spans():
    recorded = [
        _span(1, None, 0.0, 10.0, "root"),
        _span(2, 1, 1.0, 6.0, "a"),
        _span(3, 2, 2.0, 3.0, "b"),
        _span(4, 2, 4.0, 5.5, "b"),
        _span(5, 1, 7.0, 8.0, "c"),
    ]
    assert spans.self_times(recorded) == pytest.approx(
        {1: 10.0 - 5.0 - 1.0, 2: 5.0 - 1.0 - 1.5, 3: 1.0, 4: 1.5, 5: 1.0}
    )
    agg = spans.aggregate(recorded)
    assert agg["b"].calls == 2
    assert agg["b"].s == pytest.approx(2.5)


def test_self_time_subtracts_overlapping_children_once():
    # two worker threads inside one root span, overlapping on [3, 5]
    recorded = [
        _span(1, None, 0.0, 10.0, "root", tid=1),
        _span(2, 1, 1.0, 5.0, "w", tid=2),
        _span(3, 1, 3.0, 7.0, "w", tid=3),
        _span(4, 3, 4.0, 6.0, "inner", tid=3),
    ]
    selfs = spans.self_times(recorded)
    assert selfs[1] == pytest.approx(10.0 - 6.0)
    assert selfs[3] == pytest.approx(4.0 - 2.0)


def test_tracer_parents_worker_thread_spans_to_the_root():
    tracer = spans.Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def leaf():
        return None

    def work():
        barrier.wait()
        traced_leaf()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_work = tracer.wrap("work", work)
    with tracer.root("root"):
        threads = [threading.Thread(target=traced_work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
    by_id = {s[0]: s for s in tracer.spans}
    root = next(s for s in tracer.spans if s[2] == "root")
    works = [s for s in tracer.spans if s[2] == "work"]
    leaves = [s for s in tracer.spans if s[2] == "leaf"]
    assert len(works) == 2 and len(leaves) == 2
    assert all(w[1] == root[0] for w in works)
    assert {by_id[leaf[1]][2] for leaf in leaves} == {"work"}
    assert len({w[3] for w in works}) == 2
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["cli.threads"] == 3


def test_install_patches_the_bindings_callers_use():
    tracer = spans.Tracer()
    originals = (qwgames.equilibrium.evolve_batch, qwgames.equilibrium.payoff)
    replaced = spans.install(tracer, qwgames)
    try:
        assert qwgames.equilibrium.evolve_batch is not originals[0]
        assert qwgames.dynamics.evolve_batch is qwgames.equilibrium.evolve_batch
        assert qwgames.cli.find_stationary.__wrapped__ is not None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            walk = qwgames.WalkConfig(qwgames.LatticeGeometry(7), 2)
        ev = qwgames.WalkEvaluator(walk, qwgames.GameSpec())
        ev.evaluate(0.5, 1.0)
    finally:
        spans.uninstall(replaced)
    assert (qwgames.equilibrium.evolve_batch, qwgames.equilibrium.payoff) == originals
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["dynamics.evolve_batch.calls"] == 1
    assert metrics["dynamics.evolve_batch.profiles"] == 1
    assert metrics["equilibrium.WalkEvaluator.evaluate.calls"] == 1
    assert metrics["equilibrium.WalkEvaluator.points.calls"] == 1
    assert metrics["games.payoff.calls"] == 1
    assert metrics["hilbert.JointDistribution.calls"] == 1
    assert metrics["dynamics.evolve_batch.ns_per_amp_step"] > 0


# -- oracle ------------------------------------------------------------------


@pytest.fixture(scope="module")
def oracle():
    return workloads.Oracle(workloads.load_oracles(ROOT))


@pytest.mark.parametrize("boundary", ["periodic", "reflecting"])
@pytest.mark.parametrize("kind", ["collision_phase", "coin_dependent", "long_range"])
def test_factored_oracle_matches_dense_joint_step(oracle, boundary, kind):
    L, steps, ta, tb = 5, 3, 0.7, 2.1
    coin_a, coin_b = (1.0, 0.0), (2 ** -0.5, 1j * 2 ** -0.5)
    geom = LatticeGeometry(L, Boundary(boundary))
    spec = InteractionSpec(InteractionKind(kind), 1.3)
    u = oracle.oracles.dense_joint_step(spec, geom, ta, tb)
    psi = np.zeros((L, 2, L, 2), dtype=complex)
    psi[L // 2, :, L // 2, :] = np.outer(coin_a, coin_b)
    psi = psi.reshape(-1)
    for _ in range(steps):
        psi = u @ psi
    dense = (np.abs(psi) ** 2).reshape(L, 2, L, 2).sum(axis=(1, 3))
    got = oracle.distribution(L, boundary, steps, coin_a, coin_b, kind, 1.3, ta, tb)
    assert np.max(np.abs(got - dense)) < 1e-14


# -- output check ------------------------------------------------------------


@pytest.fixture(scope="module")
def race_out(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("race") / "out")
    wl = workloads.WORKLOADS["race-sweep"]
    assert cli.main([*wl.args, "--seed", "3", "--out", out]) == 0
    return out


@pytest.fixture
def race_copy(race_out, tmp_path):
    out = str(tmp_path / "out")
    shutil.copytree(race_out, out)
    return out


def _check_race(out, oracle, exit_code=0):
    wl = workloads.WORKLOADS["race-sweep"]
    return wl.check(out, exit_code, 3, wl.reference(), oracle)


def _perturb_csv(path, row, delta):
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[-1] = repr(float(cells[-1]) + delta)
    lines[row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_check_passes_an_unchanged_race_run(race_copy, oracle):
    ref_dev, oracle_dev = _check_race(race_copy, oracle)
    assert ref_dev <= workloads.DETERMINISTIC_TOL
    assert oracle_dev <= workloads.ORACLE_TOL


def test_check_rejects_surface_value_off_by_1e_6(race_copy, oracle):
    _perturb_csv(os.path.join(race_copy, "surface_uA.csv"), 1000, 1e-6)
    with pytest.raises(workloads.CheckFailed, match="surface_uA"):
        _check_race(race_copy, oracle)


def test_check_rejects_broken_zero_sum(race_copy, oracle):
    _perturb_csv(os.path.join(race_copy, "surface_uB.csv"), 1000, 1e-6)
    with pytest.raises(workloads.CheckFailed, match="u_A \\+ u_B"):
        _check_race(race_copy, oracle)


def test_check_rejects_unnormalized_distribution(race_copy, oracle):
    _perturb_csv(os.path.join(race_copy, "ne_distribution.csv"), 120, 1e-6)
    with pytest.raises(workloads.CheckFailed, match="sums to"):
        _check_race(race_copy, oracle)


def test_check_rejects_missing_file(race_copy, oracle):
    os.remove(os.path.join(race_copy, "stationary.json"))
    with pytest.raises(workloads.CheckFailed, match="missing output files"):
        _check_race(race_copy, oracle)


def test_check_rejects_nonzero_exit(race_copy, oracle):
    with pytest.raises(workloads.CheckFailed, match="exit code 2"):
        _check_race(race_copy, oracle, exit_code=2)


def test_check_passes_a_perturbation_run(tmp_path, oracle):
    wl = workloads.WORKLOADS["perturbation"]
    out = str(tmp_path / "out")
    assert cli.main([*wl.args, "--seed", "5", "--out", out]) == 0
    ref_dev, oracle_dev = wl.check(out, 0, 5, wl.reference(), oracle)
    assert ref_dev <= workloads.DETERMINISTIC_TOL
    assert oracle_dev <= workloads.ORACLE_TOL
