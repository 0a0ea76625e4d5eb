"""Every error the package raises on bad input is a ChordEnergyError.

The package's exception types derive from ValueError too, so callers
that catch ValueError still catch them; a bare ValueError would escape
a caller that catches ChordEnergyError.
"""

import ast
import math
import os

import pytest

import chordenergy
from chordenergy import functionals as fn
from chordenergy import geometry as geo
from chordenergy import harness
from chordenergy import optimizer as opt
from chordenergy import shape as shp
from chordenergy import spectral as spec
from chordenergy.errors import ChordEnergyError

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
    lambda: harness.ExperimentConfig.from_json("[]"),
    lambda: harness.ExperimentConfig.from_json('{"bogus": 1}'),
    lambda: fn.ChordKernel(lambda c, a: c ** 2, decreasing=True).validate(),
    lambda: fn.ChordKernel(lambda c, a: -c ** 4, convex=True).validate(),
], ids=["options_n", "options_max_iters", "options_tol_grad",
        "options_perturb", "maximize", "canonicalize", "sweep",
        "width_ratio", "fit_conic", "trig_lemma_check", "verify_all",
        "config_not_object", "config_unknown_field", "kernel_decreasing",
        "kernel_convex"])
def test_bad_input_raises_a_package_error(call):
    with pytest.raises(ChordEnergyError):
        call()


def test_bad_sweep_header_raises_a_package_error(tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_text("p,q\n1,2\n")
    with pytest.raises(ChordEnergyError, match="header"):
        harness.read_sweep_csv(path)
