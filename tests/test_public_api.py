"""The public API has no hidden knobs: no public callable of the
package takes a parameter whose name starts with an underscore."""

import importlib
import inspect
import pkgutil

import pytest

import chordenergy

MODULES = sorted(info.name for info in pkgutil.iter_modules(
    chordenergy.__path__) if not info.name.startswith("_"))


def _public_callables(module):
    """(name, callable) of the module's own public functions and
    classes, and of those classes' public methods."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) \
                != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and callable(member):
                    yield f"{name}.{attr}", member


def _hidden_parameters(call):
    try:
        parameters = inspect.signature(call).parameters
    except (TypeError, ValueError):
        # a builtin or an enum member without a signature
        return []
    return [name for name in parameters if name.startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_no_public_callable_has_a_private_parameter(name):
    module = importlib.import_module(f"chordenergy.{name}")
    found = {f"{name}.{qualname}": hidden
             for qualname, call in _public_callables(module)
             if (hidden := _hidden_parameters(call))}
    assert found == {}


def test_the_scan_sees_functions_classes_and_methods():
    from chordenergy import harness, optimizer as opt
    names = dict(_public_callables(opt))
    assert {"maximize", "OptimizeOptions", "Termination"} <= set(names)
    assert "_ChordBand" not in names
    assert "VerificationReport.add" in dict(_public_callables(harness))

    def knob(x, *, _hidden=None):
        return x
    assert _hidden_parameters(knob) == ["_hidden"]
