"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record_reference.py

Run from the root of a qwgames checkout.  Runs every workload's recipe once
(seed 0) and writes the values the check compares, as extracted by
`workloads.py`, to `perfbench/reference/<workload>.json`.  Record them only
from a commit whose outputs are known to be right.
"""

import json
import os
import shutil
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from workloads import REFERENCE_DIR, WORKLOADS

    work = os.path.join(root, ".perfbench_work", "reference")
    env = {**os.environ, "PYTHONPATH": src}
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]
        out = os.path.join(work, name)
        shutil.rmtree(out, ignore_errors=True)
        cmd = [sys.executable, "-m", "qwgames.cli", *workload.args, "--seed", "0", "--out", out]
        subprocess.run(cmd, env=env, cwd=root, check=True)
        with open(os.path.join(REFERENCE_DIR, f"{name}.json"), "w") as fh:
            json.dump(workload.extract(out), fh, indent=0)
            fh.write("\n")
        print(f"recorded {name}")
    shutil.rmtree(os.path.dirname(work), ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
