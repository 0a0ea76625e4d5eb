"""Only LAPACK's tridiagonal solver, bound at the first edge-length
projection (geometry.resample_arclength, optimizer.project, maximize's
stop test, or sweep), loads scipy: the package imports, and the
verification paths and the crossover bisection run, without it.

Each probe runs in a fresh interpreter, since this test process may
already hold scipy.
"""

import os
import subprocess
import sys

import chordenergy

DEFERRED = ("scipy.linalg", "scipy.integrate", "scipy.special",
            "scipy.optimize")

SRC = os.path.dirname(os.path.dirname(os.path.abspath(chordenergy.__file__)))


def _run_probe(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports the
    package from this checkout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


_LOADED_SCIPY = ("print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy'))")


def test_import_leaves_deferred_scipy_modules_unloaded():
    out = _run_probe("import sys; import chordenergy; "
                     f"print(sorted(m for m in {DEFERRED!r} "
                     "if m in sys.modules))")
    assert out == "[]"


def test_circle_bounds_and_verification_load_no_scipy():
    out = _run_probe(
        "import sys; import chordenergy as ce\n"
        "for jp in [(2, 1), (1, 1), (1, 2), (2, 1.5)]:\n"
        "    ce.circle_bound(ce.EnergyParams(*jp))\n"
        "ce.verify_all(seed=1, n_curves=2, n=64)\n"
        + _LOADED_SCIPY)
    assert out == "[]"


def test_cli_verify_and_bound_load_no_scipy():
    out = _run_probe(
        "import sys; from chordenergy import cli\n"
        "codes = [cli.main(['--quiet', '--n', '64', 'verify', "
        "'--curves', '2']),\n"
        "         cli.main(['--quiet', 'bound', '--j', '2', '--p', '1']),\n"
        "         cli.main(['--quiet', 'crossover'])]\n"
        "print(codes)\n"
        + _LOADED_SCIPY)
    assert out.splitlines() == ["[0, 0, 0]", "[]"]


def test_optimizer_loads_lapack_on_first_use():
    out = _run_probe(
        "import sys; import chordenergy as ce\n"
        "from chordenergy import optimizer as opt\n"
        "opts = opt.OptimizeOptions(n=64, max_iters=3)\n"
        "init = opt.perturb_mode2(ce.make_circle(64), 0.05)\n"
        "result = opt.maximize(4.0, init, opts)\n"
        "print(result.iterations, result.value > 1.5,\n"
        "      'scipy.linalg' in sys.modules)")
    assert out == "3 True True"
