"""Every demo runs to completion in a fresh interpreter.

The demos call the package by its public names, so a rename or a
deletion there fails here.  Each runs in its own temporary folder, since
04_figures.py writes figures_out/ into its working directory; that one
runs with --quick, its coarse grid.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import chordenergy

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"

SRC = os.path.dirname(os.path.dirname(os.path.abspath(chordenergy.__file__)))


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(tmp_path, demo):
    args = ["--quick"] if demo == "04_figures.py" else []
    done = subprocess.run([sys.executable, str(DEMOS / demo), *args],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
