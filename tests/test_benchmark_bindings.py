"""The library names the benchmark in perfbench/ binds to.

perfbench/tracing.py wraps each of its LAYER_FUNCTIONS wherever it is
bound, and the workloads build OptimizeOptions by keyword and read
tol_grad.  A rename or deletion in the library fails here instead of in
a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
import pathlib
import sys

import pytest

from chordenergy import geometry as geo
from chordenergy import optimizer as opt

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" \
    / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _resolve(package, target):
    module_name, func_name = target.rsplit(".", 1)
    module = importlib.import_module(f"{package}.{module_name}")
    return module, getattr(module, func_name, None)


def test_every_layer_function_is_a_module_level_function(tracing):
    targets = set(tracing.LAYER_FUNCTIONS)
    assert set(tracing.NESTED_FUNCTIONS) <= targets
    assert set(tracing.INNER_COUNTED) <= targets
    for target in tracing.LAYER_FUNCTIONS:
        module, func = _resolve(tracing.PACKAGE, target)
        assert inspect.isfunction(func), target
        assert func.__module__ == module.__name__, target


def test_chord_table_is_bound_where_the_tracer_counts_it(tracing):
    _, original = _resolve(tracing.PACKAGE, "geometry.squared_chord_matrix")
    for name in ("geometry", "functionals", "optimizer"):
        module = importlib.import_module(f"{tracing.PACKAGE}.{name}")
        assert module.squared_chord_matrix is original, name


def test_optimizer_keeps_what_the_benchmark_reads():
    fields = opt.OptimizeOptions.__dataclass_fields__
    assert {"n", "max_iters", "tol_grad"} <= set(fields)
    opts = opt.OptimizeOptions(n=32, max_iters=2)
    assert opts.tol_grad > 0
    init = opt.perturb_mode2(geo.make_circle(opts.n), 0.05)
    result = opt.maximize(4.0, init, opts)
    # the tracer reads the last gradient norm from the history
    assert result.history[-1][2] > 0
