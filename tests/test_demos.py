"""Each demo script runs to completion against the current library."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py"))


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
