"""Every demo script runs to completion and leaves the committed picture unchanged."""

import os
import subprocess
import sys

import pytest

DEMOS = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "demos"))
SVG = os.path.join(DEMOS, "minimal_tiling.svg")


@pytest.mark.parametrize("script", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs(script):
    with open(SVG, "rb") as fh:
        before = fh.read()
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, script)], capture_output=True)
    with open(SVG, "rb") as fh:
        after = fh.read()
    if after != before:
        with open(SVG, "wb") as fh:
            fh.write(before)  # leave the committed picture for the next run
    assert proc.returncode == 0, proc.stderr.decode()
    assert after == before
