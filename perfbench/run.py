"""End-to-end and per-layer benchmark of the qwgames recipes.

Run from the root of a qwgames checkout (the directory holding `src/`):

    python3 perfbench/run.py --workload race-sweep --seed 1 --seconds 30 --trace 0

Each workload runs one recipe as a closed loop with one client: every run is
a fresh Python process (`child.py`), and the next starts only after the
previous one has exited and its output has been checked (`workloads.py`).
The seed goes to the recipe's `--seed` and picks the profiles that are
cross-checked against the dense oracle.

--trace 0 reports, as medians over the runs:
    wall_s       run_recipe on the resolved config, to the output written
    setup_s      process start to qwgames imported and config resolved,
                 over extra set-up-only processes and the recipe runs
    peak_rss_mb  peak resident set of the run's process
--trace 1 alternates plain and traced runs and reports the per-layer
metrics of `spans.py`, the output size, the tracing overhead (traced minus
plain wall_s) and the copy bandwidth of this machine.

Lines before the last describe the machine and summarize every metric with
its sample count; the last line is the JSON result.  Exits 2 when the
directory holds no qwgames checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from spans import LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

SETUP_PROBES = 10  # set-up-only processes per run, after one that fills caches
MIN_RUNS = 2  # recipe runs per benchmark run, however long they take
HARD_LIMIT_S = 150.0  # no new recipe run is started past this
DEADLINE_S = 165.0  # any child still running this long after start is killed

# 3,721 profiles x 4L^2 amplitudes x 16 bytes at L = 15: the race-sweep state
RACE_STATE_BYTES = 3721 * 4 * 15 * 15 * 16

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
EXTRA_LAYER_UNITS = {
    "cli.output_files": "count",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
    "machine.copy_gbps": "GB/s",
}
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# -- machine record ----------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _caches() -> dict:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        size = _read(os.path.join(base, index, "size"))
        if level and kind and size and kind != "Instruction":
            out[f"L{level}{'d' if kind == 'Data' else ''}"] = size
    return out


def _blas() -> str | None:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return None


def copy_bandwidth() -> tuple[float, float]:
    """(GB/s counting one read and one write per byte, median seconds) of 9
    plain copies of a complex array the size of the race-sweep state."""
    import numpy as np

    src = np.ones(RACE_STATE_BYTES // 16, dtype=complex)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(9):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    t = statistics.median(times)
    return 2 * RACE_STATE_BYTES / t / 1e9, t


def machine_record() -> dict:
    import numpy as np

    gbps, seconds = copy_bandwidth()
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "caches_cpu0": _caches(),
        "race_sweep_state_bytes": RACE_STATE_BYTES,
        "copy_ms": seconds * 1e3,
        "copy_gbps": gbps,
    }


# -- runs --------------------------------------------------------------------


@dataclass
class Run:
    """Outcome of one child process."""

    mode: str
    ok: bool = False
    setup_s: float | None = None
    wall_s: float | None = None
    rss_mb: float | None = None
    ref_dev: float | None = None
    oracle_dev: float | None = None
    layers: dict = field(default_factory=dict)
    out_files: int = 0
    out_bytes: int = 0


def _tree_size(path: str) -> tuple[int, int]:
    files = size = 0
    for dirpath, _dirs, names in os.walk(path):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return files, size


class Bench:
    def __init__(self, root: str, workload, seed: int, work: str):
        from workloads import Oracle, load_oracles

        self.root = root
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.seed = seed
        self.work = work
        self.reference = workload.reference()
        self.oracle = Oracle(load_oracles(root))
        self.count = 0
        self.deadline = time.monotonic() + DEADLINE_S
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = {
            **os.environ,
            "PYTHONPATH": self.src + (os.pathsep + pythonpath if pythonpath else ""),
        }

    def spawn(self, mode: str) -> Run:
        from workloads import CheckFailed

        self.count += 1
        run_dir = os.path.join(self.work, f"run-{self.count}")
        os.makedirs(run_dir)
        out = os.path.join(run_dir, "out")
        report_path = os.path.join(run_dir, "report.json")
        log_path = os.path.join(run_dir, "log.txt")
        cmd = [
            sys.executable, CHILD, report_path, mode, "--", *self.workload.args,
            "--seed", str(self.seed), "--out", out,
        ]
        run = Run(mode)
        with open(log_path, "w") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=self.root
            )
            # a blocking wait, so the parent does not wake up while the child runs
            watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                code = proc.wait()
            finally:
                watchdog.cancel()
        try:
            if not os.path.isfile(report_path):
                raise CheckFailed(f"exit code {code} without a report")
            with open(report_path) as fh:
                report = json.load(fh)
            where = os.path.dirname(os.path.dirname(os.path.abspath(report["qwgames"])))
            if where != self.src:
                raise CheckFailed(f"qwgames imported from {where}, not {self.src}")
            run.setup_s = report["t_setup"] - t_spawn
            if mode != "setup":
                run.wall_s = report["t_done"] - report["t_start"]
                run.rss_mb = report["rss_kb"] * 1024 / 1e6
                run.layers = report.get("layers", {})
                if os.path.isdir(out):
                    run.out_files, run.out_bytes = _tree_size(out)
                run.ref_dev, run.oracle_dev = self.workload.check(
                    out, code, self.seed, self.reference, self.oracle
                )
            elif code != 0:
                raise CheckFailed(f"exit code {code}")
            run.ok = True
        except (CheckFailed, OSError, KeyError, ValueError, IndexError, TypeError) as exc:
            print(f"run {self.count} ({mode}) failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            print(_read(log_path) or "", file=sys.stderr)
        shutil.rmtree(run_dir, ignore_errors=True)
        return run

    def loop(self, modes, seconds: float) -> list[Run]:
        """Recipe runs back to back, cycling through modes, while the next
        one is expected to end within `seconds`."""
        runs, durations = [], []
        t0 = time.monotonic()
        while True:
            start = time.monotonic()
            runs.append(self.spawn(modes[len(runs) % len(modes)]))
            durations.append(time.monotonic() - start)
            elapsed = time.monotonic() - t0
            upcoming = elapsed + statistics.median(durations)
            if upcoming > HARD_LIMIT_S or (len(runs) >= MIN_RUNS and upcoming > seconds):
                return runs


# -- reporting ---------------------------------------------------------------


def _describe(name: str, values: list, unit: str) -> str:
    med = statistics.median(values)
    spread = ""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = f"  q1 {q1:.6g}  q3 {q3:.6g}"
    return f"  {name:<14} median {med:.6g} {unit}{spread}  n={len(values)}"


def _result(runs: list[Run], metrics: dict) -> dict:
    failed = sum(not r.ok for r in runs)
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }


def end_to_end(bench: Bench, seconds: float) -> dict:
    bench.spawn("setup")  # fills the bytecode cache, which users pay once
    probes = [bench.spawn("setup") for _ in range(SETUP_PROBES)]
    if not all(p.ok for p in probes):
        raise BenchError("a set-up-only process failed")
    runs = bench.loop(("run",), seconds)
    ok = [r for r in runs if r.ok]
    if not ok:
        raise BenchError(f"all {len(runs)} runs failed")
    samples = {
        "wall_s": [r.wall_s for r in ok],
        "setup_s": [r.setup_s for r in probes + ok],
        "peak_rss_mb": [r.rss_mb for r in ok],
    }
    failed = len(runs) - len(ok)
    print(f"workload {bench.workload.name}: closed loop, 1 client, seed {bench.seed}")
    for name, values in samples.items():
        print(_describe(name, values, END_TO_END_UNITS[name]))
    print(f"  {'fail_ratio':<14} {failed}/{len(runs)} = {failed / len(runs):.6g}  n={len(runs)}")
    print(
        f"  {'check':<14} max deviation from reference "
        f"{max(r.ref_dev for r in ok):.3g}, from oracle {max(r.oracle_dev for r in ok):.3g}"
        f"  n={len(ok)}"
    )
    metrics = {
        name: {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]}
        for name, values in samples.items()
    }
    return _result(runs, metrics)


def per_layer(bench: Bench, seconds: float, machine: dict) -> dict:
    runs = bench.loop(("run", "trace"), seconds)
    plain = [r for r in runs if r.ok and r.mode == "run"]
    traced = [r for r in runs if r.ok and r.mode == "trace"]
    if not plain or not traced:
        raise BenchError("no successful plain and traced run to compare")
    values = {
        name: statistics.median(r.layers[name] for r in traced) for name in traced[0].layers
    }
    values["cli.output_files"] = statistics.median(r.out_files for r in traced)
    values["cli.output_bytes"] = statistics.median(r.out_bytes for r in traced)
    values["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - statistics.median(
        r.wall_s for r in plain
    )
    values["machine.copy_gbps"] = machine["copy_gbps"]
    units = {**LAYER_UNITS, **EXTRA_LAYER_UNITS}
    print(
        f"workload {bench.workload.name}: traced, seed {bench.seed}, "
        f"{len(traced)} traced and {len(plain)} plain runs"
    )
    for name, unit in units.items():
        print(f"  {name:<46} {values[name]:.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return _result(runs, metrics)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("src/qwgames/cli.py", "tests/oracles.py"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"error: {needed} not found; run from a qwgames checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, os.path.join(root, "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = os.path.join(root, ".perfbench_work", str(os.getpid()))
    os.makedirs(work)
    try:
        machine = machine_record()
        print(json.dumps({"machine": machine}))
        bench = Bench(root, WORKLOADS[args.workload], args.seed, work)
        if args.trace:
            result = per_layer(bench, args.seconds, machine)
        else:
            result = end_to_end(bench, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
