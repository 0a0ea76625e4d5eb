"""The package imports without the scipy modules it only needs on demand."""

import os
import subprocess
import sys

import chordenergy

DEFERRED = ("scipy.integrate", "scipy.special", "scipy.optimize")


def test_import_leaves_deferred_scipy_modules_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        chordenergy.__file__)))
    probe = ("import sys; import chordenergy; "
             f"print(sorted(m for m in {DEFERRED!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
