"""Every error the package raises on bad input is a ChordEnergyError.

The package's exception types derive from ValueError too, so callers
that catch ValueError still catch them; a bare ValueError would escape
a caller that catches ChordEnergyError.
"""

import ast
import math
import os
import tempfile

import numpy as np
import pytest

import chordenergy
from chordenergy import functionals as fn
from chordenergy import geometry as geo
from chordenergy import harness
from chordenergy import optimizer as opt
from chordenergy import shape as shp
from chordenergy import spectral as spec
from chordenergy.errors import ChordEnergyError, ParameterDomainError

PACKAGE = os.path.dirname(os.path.abspath(chordenergy.__file__))


def test_no_module_raises_a_bare_value_error():
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                found.append(f"{name}:{node.lineno}")
    assert found == []


def _planar_only(call):
    return lambda: call(geo.random_closed_curve(1, n=64, dim=3))


def _load_curve_text(text):
    def call():
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "curve.json")
            with open(path, "w") as fh:
                fh.write(text)
            geo.load_curve(path)
    return call


def _config(text):
    return lambda: harness.ExperimentConfig.from_json(text)


@pytest.mark.parametrize("call", [
    lambda: opt.OptimizeOptions(n=16),
    lambda: opt.OptimizeOptions(max_iters=0),
    lambda: opt.OptimizeOptions(tol_grad=0.0),
    lambda: opt.OptimizeOptions(perturb=math.nan),
    _planar_only(lambda c: opt.maximize(2.0, c, opt.OptimizeOptions(n=64))),
    _planar_only(opt.canonicalize),
    lambda: opt.sweep([3.0, 2.0], opt.OptimizeOptions(n=64)),
    _planar_only(shp.width_ratio),
    _planar_only(shp.fit_conic),
    lambda: spec.trig_lemma_check(1, 0.3),
    lambda: harness.verify_all(n_curves=0),
    _config("[]"),
    _config('{"bogus": 1}'),
    _config('{"p_min": 1.0, "p_'),
    _config('{"p_min": "x"}'),
    _config('{"n": "64"}'),
    _config('{"n": 64.0}'),
    _config('{"max_iters": true}'),
    _config('{"p_max": NaN}'),
    _config('{"fine_grid": 3}'),
    _config('{"fine_grid": [3.4, "x"]}'),
    _config('{"n": 16}'),
    _config('{"version": 99}'),
    _config('{"p_min": 3.0, "p_max": 2.0}'),
    lambda: harness.ExperimentConfig(n=np.int64(64)),
    lambda: fn.ChordKernel(lambda c, a: c ** 2, decreasing=True).validate(),
    lambda: fn.ChordKernel(lambda c, a: -c ** 4, convex=True).validate(),
    _load_curve_text('{"dim": 2, "n": 8, "vertices": [[0, 0], [1'),
    _load_curve_text('{"dim": 2, "n": 1, "vertices": [["a", "b"]]}'),
    _load_curve_text('{"dim": 2, "n": 2, "vertices": [[0, 0], [1]]}'),
    _load_curve_text('{"dim": 2, "n": 1, "vertices": {"x": 0}}'),
    _load_curve_text('[1, 2]'),
], ids=["options_n", "options_max_iters", "options_tol_grad",
        "options_perturb", "maximize", "canonicalize", "sweep",
        "width_ratio", "fit_conic", "trig_lemma_check", "verify_all",
        "config_not_object", "config_unknown_field", "config_truncated",
        "config_string_number", "config_string_integer",
        "config_float_integer", "config_bool_integer", "config_nan",
        "config_scalar_grid", "config_string_in_grid",
        "config_optimizer_n", "config_future_version",
        "config_empty_range", "config_numpy_integer", "kernel_decreasing",
        "kernel_convex", "curve_truncated", "curve_non_numeric",
        "curve_ragged", "curve_vertices_object", "curve_not_object"])
def test_bad_input_raises_a_package_error(call):
    with pytest.raises(ChordEnergyError):
        call()


def test_bad_sweep_header_raises_a_package_error(tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_text("p,q\n1,2\n")
    with pytest.raises(ChordEnergyError, match="header"):
        harness.read_sweep_csv(path)


#: the public functions that take grid offsets k, each called as
#: call(curve, k)
OFFSET_CALLS = {
    "distortion_at": fn.distortion_at,
    "chord_average": lambda curve, k: fn.chord_average(curve, k, np.sqrt),
    "deficit_direct": spec.deficit_direct,
}


@pytest.mark.parametrize("name", sorted(OFFSET_CALLS))
def test_offsets_must_be_integers(name):
    call = OFFSET_CALLS[name]
    curve = geo.random_closed_curve(1, n=64)
    for k in (2.5, 2.0, [1.0, 2.0], [1, 2.5], np.array([1.5]), "3",
              2 ** 70):
        with pytest.raises(ParameterDomainError):
            call(curve, k)
    # integer scalars, lists and arrays of any integer dtype, and an
    # empty k, still work
    expected = call(curve, np.arange(1, 64))
    for k in (3, np.int32(3), np.uint8(67), -61):
        value = call(curve, k)
        assert isinstance(value, float)
        assert value == pytest.approx(expected[2], rel=1e-13, abs=1e-13)
    for ks in ([1, 2, 3], np.arange(1, 64, dtype=np.uint16)):
        values = call(curve, ks)
        assert np.allclose(values, expected[: len(values)], rtol=1e-13,
                           atol=1e-13)
    assert call(curve, []).shape == (0,)
    assert call(curve, np.array([], dtype=int)).shape == (0,)
