"""The README and the package's own text name only what exists: every
`geometry.X`, `optimizer.X`, ... written there resolves to an attribute
of that module."""

import functools
import importlib
import pathlib
import re

import pytest

import chordenergy

PACKAGE = pathlib.Path(chordenergy.__file__).parent
ROOT = PACKAGE.parent.parent

MODULES = ("geometry", "optimizer", "functionals", "spectral", "shape",
           "harness", "cli")

# a module name, not itself an attribute, then a chain of names; a
# trailing ".py" names the file
NAMED = re.compile(r"(?<![\w.])(" + "|".join(MODULES)
                   + r")((?:\.(?!py\b)[A-Za-z_]\w*)+)")


def _named(text: str):
    for match in NAMED.finditer(text):
        yield match.group(1), match.group(2).lstrip(".").split(".")


def _resolves(module: str, chain: list) -> bool:
    try:
        functools.reduce(getattr, chain,
                         importlib.import_module(f"chordenergy.{module}"))
    except AttributeError:
        return False
    return True


@pytest.mark.parametrize("path", [ROOT / "README.md"]
                         + sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_named_attribute_exists(path):
    missing = sorted({".".join([module] + chain)
                      for module, chain in _named(path.read_text())
                      if not _resolves(module, chain)})
    assert missing == []


def test_the_scan_sees_names_and_misses():
    text = ("`geometry.resample_arclength` and optimizer.Termination.GRAD_TOL"
            " in geometry.py; geometry._NoSuchThing, self.shape.x")
    names = [".".join([module] + chain) for module, chain in _named(text)]
    assert names == ["geometry.resample_arclength",
                     "optimizer.Termination.GRAD_TOL",
                     "geometry._NoSuchThing"]
    assert [_resolves(m, c) for m, c in _named(text)] == [True, True, False]
