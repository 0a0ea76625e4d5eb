"""Only LAPACK's tridiagonal solver, bound at the first edge-length
projection (geometry.resample_arclength, optimizer.project, maximize's
stop test, or sweep), loads scipy: the package imports, and the
verification paths and the crossover bisection run, without it.  The
binding loads scipy's LAPACK extension on its own, never scipy.linalg.

Each probe runs in a fresh interpreter, since this test process may
already hold scipy.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import linalg

import chordenergy
from chordenergy import geometry as geo

DEFERRED = ("scipy.linalg", "scipy.integrate", "scipy.special",
            "scipy.optimize", "numpy.fft")

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
        "      'scipy.linalg._flapack' in sys.modules,\n"
        "      'scipy.linalg' in sys.modules)")
    assert out == "3 True True False"


def test_cli_maximize_loads_no_scipy_linalg():
    out = _run_probe(
        "import contextlib, io, sys; from chordenergy import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['--quiet', '--n', '64', 'maximize', "
        "'--p', '4'])\n"
        "print(code, 'scipy.linalg' in sys.modules)")
    assert out == "0 False"


def test_sweep_makes_its_one_off_imports_before_the_first_clock():
    out = _run_probe(
        "import sys, time, types; from chordenergy import optimizer as opt\n"
        "seen = []\n"
        "def perf_counter():\n"
        "    seen.append(('scipy.linalg._flapack' in sys.modules,\n"
        "                 'numpy.fft' in sys.modules))\n"
        "    return time.perf_counter()\n"
        "opt.time = types.SimpleNamespace(perf_counter=perf_counter)\n"
        "opt.sweep([2.0], opt.OptimizeOptions(n=64, max_iters=5))\n"
        "print(seen[0])")
    assert out == "(True, True)"


def test_scipy_linalg_imported_later_keeps_the_bound_module():
    out = _run_probe(
        "import numpy as np; from chordenergy import geometry as geo\n"
        "geo._bind_lapack()\n"
        "import scipy.linalg\n"
        "print(scipy.linalg.lapack.dptsv is geo._ptsv,\n"
        "      scipy.linalg.solve(2.0 * np.eye(3), np.ones(3)).tolist())")
    assert out == "True [0.5, 0.5, 0.5]"


def _edge_normal_sample():
    curve = geo.random_closed_curve(3, n=64)
    u, _ = geo._edges(curve.vertices)
    c = np.random.default_rng(5).standard_normal(64)
    return geo._edge_normal(u, c)


@pytest.mark.parametrize("keep_module", [True, False],
                         ids=["module_loaded", "module_dropped"])
def test_binding_after_scipy_linalg_gives_the_same_results(monkeypatch,
                                                          keep_module):
    # scipy.linalg is loaded here, so a fresh binding finds its LAPACK
    # module, or loads the extension file again when that is dropped
    expected = _edge_normal_sample()
    monkeypatch.setattr(geo, "_ptsv", None)
    if not keep_module:
        monkeypatch.delitem(sys.modules, geo._FLAPACK)
    geo._bind_lapack()
    if keep_module:
        assert geo._ptsv is linalg.lapack.dptsv
    assert np.array_equal(_edge_normal_sample(), expected)


def test_a_bound_routine_is_not_bound_again(monkeypatch):
    geo._bind_lapack()
    bound = geo._ptsv
    monkeypatch.delitem(sys.modules, geo._FLAPACK)
    monkeypatch.setattr(geo, "module_from_spec", None)
    geo._bind_lapack()
    assert geo._ptsv is bound and geo._FLAPACK not in sys.modules


def test_a_missing_extension_names_scipy(monkeypatch):
    monkeypatch.setattr(geo, "_ptsv", None)
    monkeypatch.delitem(sys.modules, geo._FLAPACK, raising=False)
    monkeypatch.setattr(geo, "EXTENSION_SUFFIXES", [".missing"])
    with pytest.raises(ImportError, match="scipy"):
        geo._bind_lapack()
