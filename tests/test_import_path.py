"""No library path loads scipy: the package imports, and the verification
paths, the scalar commands, the optimizer and the sweep run, without it.
The library's one LAPACK routine, the tridiagonal solver dptsv, is
looked up in the library that numpy's linear algebra already maps
(geometry._bind_lapack), at the first edge-length projection or before
sweep's first clock; binding it maps no file.  No module calls a dense
routine of numpy.linalg or uses numpy.random: the seeded curves come
from the package's own SplitMix64 streams.

Each probe runs in a fresh interpreter, since this test process holds
scipy: the tests use it as a reference.
"""

import ast
import contextlib
import ctypes
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import linalg

import chordenergy
from chordenergy import cli
from chordenergy import geometry as geo
from chordenergy import optimizer as opt

DEFERRED = ("scipy.linalg", "scipy.integrate", "scipy.special",
            "scipy.optimize", "numpy.fft")

SRC = os.path.dirname(os.path.dirname(os.path.abspath(chordenergy.__file__)))


def _run_probe(code: str, **env: str) -> str:
    """stdout of code run in a fresh interpreter that imports the
    package from this checkout, with the environment variables env set
    on top of this one's."""
    env = dict(os.environ, PYTHONPATH=SRC, **env)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


_LOADED_SCIPY = ("print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy'))")


def test_import_leaves_deferred_scipy_modules_unloaded():
    out = _run_probe("import sys; import chordenergy; "
                     f"print(sorted(m for m in {DEFERRED!r} "
                     "if m in sys.modules))\n"
                     + _LOADED_SCIPY)
    assert out.splitlines() == ["[]", "[]"]


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


def test_circle_bounds_and_verification_load_no_numpy_polynomial():
    # circle_bound's Gauss-Legendre rule is computed in the package, not
    # by numpy.polynomial's leggauss and LAPACK's eigensolver
    out = _run_probe(
        "import contextlib, io, sys; import chordenergy as ce\n"
        "from chordenergy import cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.startswith('numpy.polynomial'))\n"
        "ce.circle_bound(ce.EnergyParams(2, 1))\n"
        "print(loaded())\n"
        "ce.verify_all(n_curves=2, n=64)\n"
        "print(loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['bound', '--j', '1', '--p', '2'])\n"
        "print(code, loaded())")
    assert out.splitlines() == ["[]", "[]", "0 []"]


def test_seeded_curves_and_verification_load_no_numpy_random():
    # the seeded curves and verify's samples come from the package's own
    # SplitMix64 streams; numpy.random would load its extensions and,
    # through secrets and hmac, _hashlib and libcrypto
    out = _run_probe(
        "import contextlib, io, sys; import chordenergy as ce\n"
        "from chordenergy import cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.startswith('numpy.random')\n"
        "                  or m == '_hashlib')\n"
        "ce.random_closed_curve(3, n=64, dim=3)\n"
        "print(loaded())\n"
        "ce.verify_all(n_curves=2, n=64)\n"
        "print(loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['--n', '64', 'verify', '--curves', '2'])\n"
        "print(code, loaded())")
    assert out.splitlines() == ["[]", "[]", "0 []"]


def test_optimizer_loads_lapack_on_first_use():
    out = _run_probe(
        "import sys; import chordenergy as ce\n"
        "from chordenergy import geometry as geo, optimizer as opt\n"
        "print(geo._ptsv is None)\n"
        "opts = opt.OptimizeOptions(n=64, max_iters=3)\n"
        "init = opt.perturb_mode2(ce.make_circle(64), 0.05)\n"
        "result = opt.maximize(4.0, init, opts)\n"
        "print(result.iterations, result.value > 1.5, geo._ptsv is None)\n"
        + _LOADED_SCIPY)
    assert out.splitlines() == ["True", "3 True False", "[]"]


def test_cli_maximize_loads_no_scipy_linalg():
    out = _run_probe(
        "import contextlib, io, sys; from chordenergy import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['--quiet', '--n', '64', 'maximize', "
        "'--p', '4'])\n"
        "print(code)\n"
        + _LOADED_SCIPY)
    assert out.splitlines() == ["0", "[]"]


def test_sweep_makes_its_one_off_imports_before_the_first_clock():
    out = _run_probe(
        "import sys, time, types\n"
        "from chordenergy import geometry as geo, optimizer as opt\n"
        "seen = []\n"
        "def perf_counter():\n"
        "    seen.append((geo._ptsv is not None,\n"
        "                 'numpy.fft' in sys.modules))\n"
        "    return time.perf_counter()\n"
        "opt.time = types.SimpleNamespace(perf_counter=perf_counter)\n"
        "opt.sweep([2.0], opt.OptimizeOptions(n=64, max_iters=5))\n"
        "print(seen[0])\n"
        + _LOADED_SCIPY)
    assert out.splitlines() == ["(True, True)", "[]"]


def test_scipy_linalg_imported_later_keeps_the_bound_module():
    out = _run_probe(
        "import numpy as np; from chordenergy import geometry as geo\n"
        "geo._bind_lapack()\n"
        "bound = geo._ptsv\n"
        "import scipy.linalg\n"
        "geo._bind_lapack()\n"
        "print(geo._ptsv is bound,\n"
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
    # scipy.linalg is loaded here; a fresh binding neither uses its LAPACK
    # module nor depends on it being in sys.modules
    expected = _edge_normal_sample()
    monkeypatch.setattr(geo, "_ptsv", None)
    if not keep_module:
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    geo._bind_lapack()
    assert geo._ptsv is not linalg.lapack.dptsv
    assert np.array_equal(_edge_normal_sample(), expected)


def test_a_bound_routine_is_not_bound_again(monkeypatch):
    geo._bind_lapack()
    bound = geo._ptsv
    monkeypatch.setattr(geo, "_DPTSV_SYMBOLS", ())
    geo._bind_lapack()
    assert geo._ptsv is bound


def test_a_missing_symbol_names_numpy(monkeypatch):
    monkeypatch.setattr(geo, "_ptsv", None)
    monkeypatch.setattr(geo, "_DPTSV_SYMBOLS",
                        (("no_such_dptsv_", ctypes.c_int64),))
    with pytest.raises(ImportError, match="numpy"):
        geo._bind_lapack()
    assert geo._ptsv is None


def _read_only(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("d, e, b", [
    (np.full(8, 3.0), -np.ones(7), np.ones((8, 2))),
    (np.full(8, 3.0), -np.ones(7), np.ones((8, 2), np.float32, order="F")),
    (np.full(8, 3.0), -np.ones(8), np.ones((8, 2), order="F")),
    (np.full(16, 3.0)[::2], -np.ones(7), np.ones((8, 2), order="F")),
    (_read_only(np.full(8, 3.0)), -np.ones(7), np.ones((8, 2), order="F")),
], ids=["c_ordered_rhs", "float32", "long_coupling", "strided",
        "read_only"])
def test_ptsv_refuses_arrays_lapack_cannot_take(d, e, b):
    geo._bind_lapack()
    with pytest.raises(TypeError):
        geo._ptsv(d, e, b)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/maps")
def test_binding_maps_no_file():
    out = _run_probe(
        "from chordenergy import geometry as geo\n"
        "def mapped():\n"
        "    with open('/proc/self/maps') as fh:\n"
        "        return {line.split()[-1] for line in fh\n"
        "                if line.split()[-1].startswith('/')}\n"
        "before = mapped()\n"
        "geo._bind_lapack()\n"
        "print(geo._ptsv is not None, sorted(mapped() - before))")
    assert out == "True []"


def _scipy_ptsv(d, e, b):
    """_ptsv's contract through scipy's binding of dptsv."""
    _, _, x, info = linalg.lapack.dptsv(d, e, b)
    b[...] = x
    return info


@pytest.mark.parametrize("n", [32, 64, 255, 256, 1024])
@pytest.mark.parametrize("kind", ["random", "bumped_circle"])
def test_edge_normal_equals_scipy_dptsv_bit_for_bit(monkeypatch, kind, n):
    curve = (geo.random_closed_curve(7, n=n) if kind == "random"
             else opt.perturb_mode2(geo.make_circle(n), 0.05))
    u, _ = geo._edges(curve.vertices)
    u = u / np.linalg.norm(u, axis=1)[:, None]
    c = np.random.default_rng(n).standard_normal(n)
    geo._bind_lapack()
    field = geo._edge_normal(u, c)
    monkeypatch.setattr(geo, "_ptsv", _scipy_ptsv)
    assert np.array_equal(field, geo._edge_normal(u, c))


_NO_SCIPY = ("import sys; sys.modules['scipy'] = None\n"
             "import chordenergy; from chordenergy import cli\n")


@pytest.mark.parametrize("argv", [
    None,
    ["--quiet", "--n", "64", "verify", "--curves", "2"],
    ["--quiet", "--n", "64", "maximize", "--p", "4"],
    ["--quiet", "--n", "64", "sweep", "--p-min", "2", "--p-max", "3",
     "--step", "1", "--out", "{out}"],
], ids=["import", "verify", "maximize", "sweep"])
def test_runs_with_scipy_blocked(tmp_path, argv):
    # an import of any scipy module raises ImportError in these probes
    if argv is not None:
        argv = [a.format(out=tmp_path / "sweep.csv") for a in argv]
    code = _NO_SCIPY + (f"sys.exit(cli.main({argv!r}))" if argv else "")
    _run_probe(code)


#: numpy.linalg's dense routines, each a LAPACK call
DENSE_ROUTINES = ("svd", "eig", "eigh", "eigvals", "eigvalsh", "qr",
                  "solve", "lstsq")


def test_sweep_and_shape_call_no_dense_routine(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense LAPACK routine was called")

    for name in DENSE_ROUTINES:
        monkeypatch.setattr(np.linalg, name, refuse)
    records = opt.sweep([2.0, 4.0], opt.OptimizeOptions(n=64))
    assert all(rec.iterations > 0 for rec in records)
    assert records[1].r > 1.5 and records[1].eccentricity > 0.9
    path = tmp_path / "curve.json"
    geo.save_curve(records[1].curve, path)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["shape", "--curve", str(path)])
    assert code == cli.EXIT_OK
    assert json.loads(out.getvalue())["elliptic"] is True


def _linalg_name(node):
    """The attribute read off np.linalg or numpy.linalg by node, or
    None."""
    if isinstance(node, ast.Attribute) \
            and isinstance(node.value, ast.Attribute) \
            and node.value.attr == "linalg" \
            and isinstance(node.value.value, ast.Name) \
            and node.value.value.id in ("np", "numpy"):
        return node.attr
    return None


def _package_trees():
    """(file name, ast) of each module of the package."""
    package = os.path.dirname(chordenergy.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                yield name, ast.parse(fh.read(), filename=name)


def test_no_module_uses_numpy_random():
    # a seed's curve and verify's samples must not change with numpy's
    # random streams, which NEP 19 does not keep across versions
    found = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "random" \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in ("np", "numpy"):
                found.append(f"{name}:{node.lineno} {node.value.id}.random")
            modules = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module] + [f"{node.module}.{alias.name}"
                                           for alias in node.names]
            if any(m.split(".")[:2] == ["numpy", "random"] for m in modules):
                found.append(f"{name}:{node.lineno} {ast.unparse(node)}")
    assert found == []


def test_no_module_calls_a_dense_linalg_routine():
    # np.linalg.norm with axis= reduces along an axis in numpy's own
    # loops; every other numpy.linalg function runs LAPACK or a BLAS dot
    found = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                attr = _linalg_name(node.func)
                if attr is not None and not (
                        attr == "norm"
                        and any(k.arg == "axis" for k in node.keywords)):
                    found.append(f"{name}:{node.lineno} np.linalg.{attr}")
            elif isinstance(node, ast.ImportFrom) \
                    and node.module == "numpy.linalg":
                found.extend(f"{name}:{node.lineno} {alias.name}"
                             for alias in node.names
                             if alias.name != "_umath_linalg")
    assert found == []
