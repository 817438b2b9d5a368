"""The README's library example, run exactly as the README prints it."""

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The first python block under the README's "Quick start (library)" heading."""
    text = README.read_text()
    section = text.split("## Quick start (library)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_start_runs_as_printed(capsys):
    scope = {}
    exec(compile(quick_start(), str(README), "exec"), scope)
    lines = capsys.readouterr().out.splitlines()
    # one strategy pair's payoff, then one line per stationary point
    assert float(lines[0]) == pytest.approx(
        scope["evaluator"].evaluate(np.pi / 2, 5 * np.pi / 6)[0], abs=1e-12
    )
    points = [line.split() for line in lines[1:]]
    assert points and all(len(p) == 4 for p in points)
    assert {p[2] for p in points} <= {"refined", "unrefined", "boundary"}
