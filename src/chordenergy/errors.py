"""Exception types shared across the package."""


class ChordEnergyError(Exception):
    """Base class for all package errors."""


class InvalidDiscretizationError(ChordEnergyError, ValueError):
    """A curve fails the discrete unit-speed invariants (vertex count,
    perimeter, or edge-length equality)."""


class DegenerateCurveError(ChordEnergyError, ValueError):
    """The curve has coincident vertices at distinct parameters or has
    collapsed below representable size."""


class ParameterDomainError(ChordEnergyError, ValueError):
    """An argument or input outside its domain, e.g. j >= 2 + 1/p."""


class KernelSingularityError(ChordEnergyError, ValueError):
    """A chord kernel returned a non-finite value on an off-diagonal pair."""

    def __init__(self, i, k, value):
        self.pair = (i, k)
        self.value = value
        super().__init__(
            f"kernel returned non-finite value {value!r} at vertex pair ({i}, {k})"
        )


class SingularGradientError(ChordEnergyError, ValueError):
    """Gradient of |x|^p requested at coincident vertices with p < 2."""
