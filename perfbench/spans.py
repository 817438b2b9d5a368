"""Span recording around the public functions of each qwgames module.

A `Tracer` keeps spans in memory: (id, parent id, name, thread id, start,
end, counters).  `install` replaces every binding of a traced function that
a caller looks up -- the modules use `from ... import`, so
`qwgames.equilibrium.evolve_batch` and `qwgames.dynamics.evolve_batch` are
separate bindings of the same function -- with a wrapper that records one
span per call.  Nothing under `src/` changes; the wrappers live only in the
process that installs them.

`layer_metrics` turns the recorded spans into the per-layer numbers.  A
span's self time is its duration minus the length of the union of its
children's intervals, so children that overlap (two worker threads) are not
subtracted twice.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager

# bytes of one complex128 amplitude; the kernel reads and writes the state once
# per step, which gives the computed (not measured) bytes behind min_gbps
AMP_BYTES = 16


class Tracer:
    """Thread-safe in-memory span recorder.

    A span opened on a thread that has no open span of its own (a worker of
    the recipe's thread pool) is a child of the root span, the `run_recipe`
    call that started the pool.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end, extra):
        self._stack().pop()
        record = (sid, parent, name, threading.get_ident(), start, end, extra)
        with self._lock:
            self.spans.append(record)

    @contextmanager
    def root(self, name: str):
        """Open the root span; spans on threads without their own parent nest under it."""
        sid, parent = self._open()
        self._root = sid
        start = time.perf_counter()
        try:
            yield
        finally:
            self._root = None
            self._close(sid, parent, name, start, time.perf_counter(), None)

    def wrap(self, name: str, fn, count=None):
        """`fn` recording one span per call; `count(args, kwargs, result)`
        returns the span's counters, computed after the span has ended so
        that their cost is not counted as the function's time."""

        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, parent, name, start, time.perf_counter(), None)
                raise
            end = time.perf_counter()
            extra = count(args, kwargs, result) if count is not None else None
            self._close(sid, parent, name, start, end, extra)
            return result

        return functools.update_wrapper(traced, fn, updated=())


# -- what is traced ----------------------------------------------------------


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_evolve_batch(args, kwargs, result):
    config = _arg(args, kwargs, 0, "config")
    profiles = len(_arg(args, kwargs, 1, "thetas"))
    L = config.geometry.size
    return {"profiles": profiles, "amp_steps": profiles * 4 * L * L * config.steps}


def _count_distribution(args, kwargs, result):
    return {"drift": abs(float(result.probabilities.sum()) - 1.0)}


def _count_points(args, kwargs, result):
    return {"profiles": len(_arg(args, kwargs, 1, "thetas"))}


def _count_stationary(args, kwargs, result):
    return {
        "refined": sum(p.status == "refined" for p in result),
        "returned": len(result),
    }


# (module, function) pairs traced at every binding the package holds, with the
# counters recorded per call
FUNCTIONS = [
    ("dynamics", "evolve_batch", _count_evolve_batch),
    ("dynamics", "evolve_single", None),
    ("dynamics", "evolve", None),
    ("interactions", "phase_table", None),
    ("interactions", "coupling", None),
    ("hilbert", "JointDistribution", _count_distribution),
    ("hilbert", "measure_joint", None),
    ("hilbert", "distribution_to_csv", None),
    ("games", "payoff", None),
    ("equilibrium", "surface_from_evaluator", None),
    ("equilibrium", "find_stationary", _count_stationary),
    ("equilibrium", "gradients", None),
    ("equilibrium", "jacobian_at", None),
    ("perturbation", "drift_sweep", None),
    ("perturbation", "separability_residual", None),
    ("perturbation", "g_estimate_grid", None),
    ("perturbation", "first_order_slope", None),
    ("perturbation", "nonseparability_certificate", None),
]

# methods are looked up on the class, so one patch covers every caller
METHODS = [
    ("equilibrium", "WalkEvaluator", "points", _count_points),
    ("equilibrium", "WalkEvaluator", "evaluate", None),
]

MODULES = ("cli", "dynamics", "equilibrium", "games", "hilbert", "interactions", "perturbation")


def install(tracer: Tracer, package) -> list:
    """Wrap every traced function at each of its bindings in `package` and
    its modules; returns the replaced bindings as (owner, name, original).

    Raises LookupError when a traced name no longer exists in its module.
    """
    import importlib

    modules = [package] + [
        importlib.import_module(f"{package.__name__}.{m}") for m in MODULES
    ]
    home = {m.__name__.rsplit(".", 1)[-1]: m for m in modules[1:]}
    replaced = []
    for mod_name, fn_name, count in FUNCTIONS:
        original = getattr(home[mod_name], fn_name, None)
        if original is None:
            raise LookupError(f"{mod_name}.{fn_name} not found")
        wrapper = tracer.wrap(f"{mod_name}.{fn_name}", original, count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    replaced.append((module, attr, original))
    for mod_name, cls_name, meth, count in METHODS:
        cls = getattr(home[mod_name], cls_name)
        original = cls.__dict__.get(meth)
        if original is None:
            raise LookupError(f"{mod_name}.{cls_name}.{meth} not found")
        setattr(cls, meth, tracer.wrap(f"{mod_name}.{cls_name}.{meth}", original, count))
        replaced.append((cls, meth, original))
    return replaced


def uninstall(replaced: list):
    """Undo `install`."""
    for owner, name, original in reversed(replaced):
        setattr(owner, name, original)


# -- derived per-layer metrics -----------------------------------------------


def _union_length(intervals, lo, hi) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict = {}
    for sid, parent, _name, _tid, start, end, _extra in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - _union_length(children.get(sid, ()), start, end)
        for sid, _parent, _name, _tid, start, end, _extra in spans
    }


class _Agg:
    __slots__ = ("calls", "s", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.extra: dict = {}


def aggregate(spans) -> dict:
    """Name -> calls, summed duration, summed self time and summed counters
    (the `drift` counter keeps its maximum)."""
    selfs = self_times(spans)
    out: dict = {}
    for sid, _parent, name, _tid, start, end, extra in spans:
        agg = out.setdefault(name, _Agg())
        agg.calls += 1
        agg.s += end - start
        agg.self_s += selfs[sid]
        for key, value in (extra or {}).items():
            if key == "drift":
                agg.extra[key] = max(agg.extra.get(key, 0.0), value)
            else:
                agg.extra[key] = agg.extra.get(key, 0) + value
    return out


# per-layer metric name -> unit, in the order they are reported
LAYER_UNITS = {
    "dynamics.evolve_batch.calls": "count",
    "dynamics.evolve_batch.profiles": "count",
    "dynamics.evolve_batch.s": "s",
    "dynamics.evolve_batch.ns_per_amp_step": "ns",
    "dynamics.evolve_batch.min_gbps": "GB/s",
    "dynamics.evolve_single.calls": "count",
    "dynamics.evolve_single.s": "s",
    "dynamics.evolve.calls": "count",
    "dynamics.evolve.s": "s",
    "interactions.phase_table.calls": "count",
    "interactions.phase_table.s": "s",
    "interactions.coupling.calls": "count",
    "interactions.coupling.s": "s",
    "hilbert.JointDistribution.calls": "count",
    "hilbert.JointDistribution.s": "s",
    "hilbert.measure_joint.calls": "count",
    "hilbert.measure_joint.s": "s",
    "hilbert.distribution_to_csv.calls": "count",
    "hilbert.distribution_to_csv.s": "s",
    "hilbert.max_prob_drift": "prob",
    "games.payoff.calls": "count",
    "games.payoff.s": "s",
    "equilibrium.WalkEvaluator.points.calls": "count",
    "equilibrium.WalkEvaluator.points.profiles": "count",
    "equilibrium.WalkEvaluator.points.self_s": "s",
    "equilibrium.WalkEvaluator.evaluate.calls": "count",
    "equilibrium.surface_from_evaluator.calls": "count",
    "equilibrium.surface_from_evaluator.s": "s",
    "equilibrium.find_stationary.calls": "count",
    "equilibrium.find_stationary.s": "s",
    "equilibrium.find_stationary.self_s": "s",
    "equilibrium.find_stationary.refined_ratio": "ratio",
    "equilibrium.gradients.calls": "count",
    "equilibrium.gradients.s": "s",
    "equilibrium.jacobian_at.calls": "count",
    "equilibrium.jacobian_at.s": "s",
    "perturbation.drift_sweep.s": "s",
    "perturbation.separability_residual.s": "s",
    "perturbation.g_estimate_grid.s": "s",
    "perturbation.first_order_slope.calls": "count",
    "perturbation.first_order_slope.s": "s",
    "perturbation.nonseparability_certificate.s": "s",
    "cli.run_recipe.self_s": "s",
    "cli.threads": "count",
}


def layer_metrics(spans) -> dict:
    """The LAYER_UNITS metrics from one traced run; absent layers read 0."""
    agg = aggregate(spans)
    empty = _Agg()

    def get(name):
        return agg.get(name, empty)

    out = {}
    for metric in LAYER_UNITS:
        base, _, field = metric.rpartition(".")
        if field in ("calls", "s", "self_s"):
            out[metric] = float(getattr(get(base), field))
        elif field == "profiles":
            out[metric] = float(get(base).extra.get("profiles", 0))
    batch = get("dynamics.evolve_batch")
    amp_steps = batch.extra.get("amp_steps", 0)
    out["dynamics.evolve_batch.ns_per_amp_step"] = (
        batch.s * 1e9 / amp_steps if amp_steps else 0.0
    )
    out["dynamics.evolve_batch.min_gbps"] = (
        2 * AMP_BYTES * amp_steps / batch.s / 1e9 if batch.s else 0.0
    )
    out["hilbert.max_prob_drift"] = float(get("hilbert.JointDistribution").extra.get("drift", 0.0))
    found = get("equilibrium.find_stationary").extra
    out["equilibrium.find_stationary.refined_ratio"] = (
        found["refined"] / found["returned"] if found.get("returned") else 0.0
    )
    out["cli.threads"] = float(len({tid for _s, _p, _n, tid, *_ in spans}))
    return {name: out[name] for name in LAYER_UNITS}
