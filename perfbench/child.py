"""One benchmark run, in a fresh process.

    python3 child.py REPORT {run|setup|trace} -- QWGAMES_CLI_ARGS...

Imports qwgames, resolves the config through the CLI's own parser, then
(unless the mode is `setup`) runs `cli.run_recipe` on it.  Writes REPORT as
JSON with CLOCK_MONOTONIC timestamps, which the parent compares with its own
clock:

    t_setup   qwgames imported and config resolved
    t_start   run_recipe called (after the tracer is installed when tracing)
    t_done    run_recipe returned
    status    its exit code
    rss_kb    peak resident set of this process (VmHWM)
    layers    per-layer metrics derived from the recorded spans (trace mode)

Exits with the recipe's exit code.
"""

import time  # noqa: I001 - first, so the import cost below is the program's own
import json
import sys


def peak_rss_kb() -> int:
    """High-water resident set of this process alone.

    ru_maxrss is not used: Linux carries the parent's peak over at exec, so
    a child of a large parent would report the parent's size.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("VmHWM missing from /proc/self/status")


def main(argv) -> int:
    report_path, mode = argv[0], argv[1]
    cli_args = argv[3:]

    from qwgames import cli

    config = cli.config_from_args(cli.build_parser().parse_args(cli_args))
    report = {"t_setup": time.monotonic(), "qwgames": cli.__file__}
    status = 0
    if mode != "setup":
        if mode == "trace":
            import qwgames
            import spans

            tracer = spans.Tracer()
            spans.install(tracer, qwgames)
            report["t_start"] = time.monotonic()
            with tracer.root("cli.run_recipe"):
                status = cli.run_recipe(config)
        else:
            report["t_start"] = time.monotonic()
            status = cli.run_recipe(config)
        report["t_done"] = time.monotonic()
        report["rss_kb"] = peak_rss_kb()
        if mode == "trace":
            report["layers"] = spans.layer_metrics(tracer.spans)
    report["status"] = status
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
