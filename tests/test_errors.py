"""Every error the package raises on bad input is a ChordEnergyError.

The package's exception types derive from ValueError too, so callers
that catch ValueError still catch them; a bare ValueError would escape
a caller that catches ChordEnergyError.
"""

import ast
import math
import os
import tempfile
import warnings

import numpy as np
import pytest

import chordenergy
from chordenergy import functionals as fn
from chordenergy import geometry as geo
from chordenergy import harness
from chordenergy import optimizer as opt
from chordenergy import shape as shp
from chordenergy import spectral as spec
from chordenergy.errors import ChordEnergyError, DegenerateCurveError, \
    InvalidDiscretizationError, ParameterDomainError

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
    lambda: geo.PolyCurve([[1, "a"]] * 8),
    lambda: geo.PolyCurve(_circle64().vertices + 1j),
    lambda: geo.PolyCurve([[0, 0]] * 8 + [[1]]),
    lambda: geo.PolyCurve(np.ones((8, 2), dtype=bool)),
    lambda: spec.tetra_check(["a", "b"], [1, 0], [1, 1], [0, 1]),
    lambda: spec.tetra_check([1j, 0], [1, 0], [1, 1], [0, 1]),
    lambda: spec.ellipse_uniform_parameter([0, 0], [1j, 0], [0, 1], 64),
    lambda: geo.make_ellipse("a", 16),
    lambda: fn.EnergyParams("a", 1),
    lambda: fn.avg_chord_p(_circle64(), "a"),
    lambda: fn.avg_chord_p(_circle64(), True),
    lambda: opt.OptimizeOptions(tol_grad="a"),
    lambda: opt.OptimizeOptions(perturb="a"),
    lambda: opt.sweep(["a"], opt.OptimizeOptions(n=64)),
    lambda: opt.sweep([2.0, "a"], opt.OptimizeOptions(n=64)),
    lambda: opt.maximize("a", _circle64(), opt.OptimizeOptions(n=64)),
    lambda: fn.renorm_energy(_circle64(),
                             fn.ChordKernel(lambda chord, arc: 1.0)),
    lambda: fn.chord_average(_circle64(), 1, lambda d2: 0.0),
    lambda: fn.chord_average(_circle64(), 1, None),
    lambda: fn.chord_average(_circle64(), 1, [None]),
    lambda: spec.tetra_check(1.0, 2.0, 3.0, 4.0),
    lambda: spec.trig_lemma_check(math.nan, 0.3),
    lambda: spec.trig_lemma_check("a", 0.3),
    lambda: spec.trig_lemma_check(2.5, 0.3),
    lambda: spec.trig_lemma_check(3, math.inf),
    lambda: spec.FourierCurve(np.ones(9, dtype=complex), 64),
    lambda: spec.trig_lemma_check(np.arange(2, 5), np.zeros(2)),
    lambda: geo.lambda_chord("a"),
    lambda: geo.lambda_chord(math.nan),
    lambda: geo.lambda_chord(math.inf),
    lambda: opt.perturb_mode2(_circle64(), "a"),
    lambda: opt.perturb_mode2(_circle64(), math.inf),
    lambda: fn.ChordKernel(lambda c, a: "a").validate(),
    lambda: fn.ChordKernel(lambda c, a: math.nan).validate(),
    lambda: fn.energy_Ejp(geo.make_ellipse(50.0, 64), fn.EnergyParams(1, 300)),
    lambda: fn.renorm_energy(_circle64(), fn.ChordKernel(
        lambda chord, arc: np.full(np.shape(chord), 1e308))),
    lambda: fn.chord_average(_circle64(), [[1, 2], [3]], np.sqrt),
    lambda: fn.distortion_at(_circle64(), [[1, 2], [3]]),
    lambda: spec.deficit_direct(_circle64(), [[1, 2], [3]]),
    lambda: spec.trig_lemma_check([[2, 3], [4]], 0.3),
    lambda: spec.trig_lemma_check(3, 1e308),
    lambda: spec.trig_lemma_check([2, 3], [0.3, 1e308]),
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
        "curve_ragged", "curve_vertices_object", "curve_not_object",
        "vertices_string", "vertices_complex", "vertices_ragged",
        "vertices_bool", "tetra_check_string", "tetra_check_complex",
        "ellipse_uniform_parameter_complex", "make_ellipse_string",
        "energy_params_string", "avg_chord_p_string", "avg_chord_p_bool",
        "options_tol_grad_string", "options_perturb_string",
        "sweep_string", "sweep_string_after_number", "maximize_string",
        "kernel_scalar", "chord_average_scalar", "chord_average_none",
        "chord_average_none_in_list", "tetra_check_scalars",
        "trig_lemma_check_nan", "trig_lemma_check_string",
        "trig_lemma_check_fraction", "trig_lemma_check_inf_theta",
        "fourier_curve_1d", "trig_lemma_check_broadcast",
        "lambda_chord_string", "lambda_chord_nan", "lambda_chord_inf",
        "perturb_mode2_string", "perturb_mode2_inf", "kernel_string_value",
        "kernel_nan_value", "energy_overflow", "renorm_energy_overflow",
        "chord_average_ragged", "distortion_at_ragged",
        "deficit_direct_ragged", "trig_lemma_check_ragged",
        "trig_lemma_check_angle_overflow",
        "trig_lemma_check_angle_overflow_stacked"])
def test_bad_input_raises_a_package_error(call):
    with pytest.raises(ChordEnergyError):
        call()


@pytest.mark.parametrize("call", [
    lambda: shp.hausdorff(geo.make_circle(64),
                          geo.random_closed_curve(1, n=64, dim=3)),
    lambda: spec.tetra_check([0, 0], [1, 0], [1, 1], [0, 1, 0]),
    lambda: spec.tetra_check(np.zeros((5, 3)), np.ones((5, 2)),
                             np.ones((5, 3)), np.ones((5, 3))),
    lambda: spec.ellipse_uniform_parameter([0, 0, 0], [1, 0], [0, 1], 64),
    lambda: spec.ellipse_uniform_parameter([0, 0], [1, 0, 0], [0, 1], 64),
    lambda: spec.tetra_check(np.zeros((5, 2)), np.ones((4, 2)),
                             np.ones((5, 2)), np.ones((5, 2))),
], ids=["hausdorff", "tetra_check", "tetra_check_stacked",
        "ellipse_uniform_parameter_a0", "ellipse_uniform_parameter_a",
        "tetra_check_stack_shapes"])
def test_mixed_dimensions_raise_a_package_error(call):
    # numpy's broadcast ValueError used to escape
    with pytest.raises(InvalidDiscretizationError, match="one "):
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


def _circle64():
    return geo.make_circle(64)


def _huge_circle64():
    # coordinates of 1e300, beyond MAX_COORDINATE
    return geo.PolyCurve(1e300 * _circle64().vertices)


@pytest.mark.parametrize("call, error", [
    (lambda: geo.make_circle(64.5), InvalidDiscretizationError),
    (lambda: geo.make_circle(64.0), InvalidDiscretizationError),
    (lambda: geo.resample_arclength(_circle64(), 64.5),
     InvalidDiscretizationError),
    (lambda: geo.make_ellipse(1.5, 64.0), InvalidDiscretizationError),
    (lambda: geo.make_ellipse(math.nan, 64), InvalidDiscretizationError),
    (lambda: geo.make_ellipse(math.inf, 64), InvalidDiscretizationError),
    (lambda: geo.make_ellipse(1.5, 0), InvalidDiscretizationError),
    (lambda: geo.make_double_segment(64.0), InvalidDiscretizationError),
    (lambda: geo.random_closed_curve(-1), ParameterDomainError),
    (lambda: geo.random_closed_curve(1.5), ParameterDomainError),
    (lambda: geo.random_closed_curve(1, K=2.5), InvalidDiscretizationError),
    (lambda: geo.random_closed_curve(1, n=64.5), InvalidDiscretizationError),
    (lambda: geo.random_closed_curve(1, n=64, dim=2.0),
     InvalidDiscretizationError),
    (lambda: opt.OptimizeOptions(max_iters=2.5), ParameterDomainError),
    (lambda: opt.OptimizeOptions(n=64.0), InvalidDiscretizationError),
    (lambda: harness.verify_all(n_curves=2.5), ParameterDomainError),
    (lambda: harness.verify_all(seed=1.5, n_curves=1, n=64),
     ParameterDomainError),
    (lambda: spec.analyze(_circle64(), K=2.5), ParameterDomainError),
    (lambda: spec.ellipse_uniform_parameter([0, 0], [1, 0], [0, 1], 64.5),
     InvalidDiscretizationError),
], ids=["make_circle_fraction", "make_circle_float", "resample_arclength",
        "make_ellipse_n", "make_ellipse_nan", "make_ellipse_inf",
        "make_ellipse_no_vertices",
        "make_double_segment", "random_seed_negative", "random_seed_float",
        "random_K", "random_n", "random_dim", "options_max_iters_float",
        "options_n_float", "verify_n_curves", "verify_seed", "analyze_K",
        "ellipse_uniform_parameter"])
def test_counts_must_be_integers(call, error):
    # an integral float is refused too: it used to give a curve with the
    # wrong vertex count or fail later with a TypeError or IndexError
    with pytest.raises(error, match="integer|seed|axis_ratio|need n"):
        call()


@pytest.mark.parametrize("call", [
    lambda: geo.make_circle(2 ** 70),
    lambda: geo.make_ellipse(1.5, 2 ** 70),
    lambda: geo.make_double_segment(2 ** 70),
    lambda: geo.resample_arclength(_circle64(), 2 ** 70),
    lambda: spec.ellipse_uniform_parameter(0.0, 1.0, 0.5, 2 ** 70),
    lambda: geo.random_closed_curve(1, n=2 ** 70),
    lambda: opt.OptimizeOptions(n=2 ** 70),
], ids=["make_circle", "make_ellipse", "make_double_segment",
        "resample_arclength", "ellipse_uniform_parameter",
        "random_closed_curve", "options_n"])
def test_counts_numpy_cannot_allocate_are_refused(call):
    # numpy's "Maximum allowed size exceeded" ValueError used to escape
    with pytest.raises(InvalidDiscretizationError, match="<= "):
        call()


@pytest.mark.parametrize("call, error", [
    (lambda: geo.make_ellipse(1e308, 16), InvalidDiscretizationError),
    (lambda: opt.perturb_mode2(geo.make_circle(16), 1e308),
     DegenerateCurveError),
    (lambda: opt.perturb_mode2(geo.make_circle(16), -1.7e308),
     DegenerateCurveError),
    (lambda: geo.resample_arclength(_huge_circle64(), 64),
     InvalidDiscretizationError),
    (lambda: _huge_circle64().perimeter(), InvalidDiscretizationError),
    (lambda: fn.distortion(_huge_circle64()), InvalidDiscretizationError),
    (lambda: shp.fit_conic(_huge_circle64()), InvalidDiscretizationError),
    (lambda: opt.canonicalize(_huge_circle64()), InvalidDiscretizationError),
    (lambda: fn.avg_chord_p(_huge_circle64(), 4.0),
     InvalidDiscretizationError),
    (lambda: opt.maximize(4.0, _huge_circle64(),
                          opt.OptimizeOptions(max_iters=2)),
     InvalidDiscretizationError),
    (lambda: opt.perturb_mode2(geo.PolyCurve(1.7e308
                                             * _circle64().vertices), 0.05),
     InvalidDiscretizationError),
], ids=["make_ellipse", "perturb_mode2", "perturb_mode2_largest",
        "resample_arclength", "perimeter", "distortion", "fit_conic",
        "canonicalize", "avg_chord_p", "maximize", "perturb_mode2_huge"])
def test_overflowing_sizes_raise_without_a_warning(call, error):
    # the squared edge lengths overflowed, with a RuntimeWarning, before
    # the package error; a PolyCurve now refuses such coordinates
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=r"from 1 to|overflow"):
            call()
