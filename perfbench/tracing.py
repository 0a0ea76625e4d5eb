"""Per-layer tracing by rebinding library functions.

A ``Tracer`` replaces a function with a timing wrapper under *every* name
that refers to it: the defining module, each ``chordenergy`` module that
imported it with ``from .x import f``, and the package namespace.
Wrapping only the defining module would silently miss calls made through
the imported names (``optimizer`` calls ``avg_chord_p``,
``squared_chord_matrix`` and ``resample_arclength`` that way).
Leaving the ``with`` block restores every original binding.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

PACKAGE = "chordenergy"

#: the per-layer functions of the benchmark, as "<module>.<function>"
LAYER_FUNCTIONS = (
    "geometry.squared_chord_matrix",
    "geometry.resample_arclength",
    "geometry.random_closed_curve",
    "functionals.energy_Ejp",
    "functionals.avg_chord_p",
    "functionals.distortion",
    "functionals.distortion_at",
    "functionals.chord_average",
    "spectral.analyze",
    "spectral.deficit",
    "spectral.deficit_direct",
    "optimizer.maximize",
    "optimizer.objective_grad",
    "optimizer.project",
    "optimizer.sweep",
    "shape.fit_conic",
    "shape.width_ratio",
    "harness.verify_all",
)

#: functions that call other traced functions, so they also get self time
NESTED_FUNCTIONS = (
    "functionals.energy_Ejp",
    "functionals.avg_chord_p",
    "functionals.distortion",
    "optimizer.maximize",
    "optimizer.objective_grad",
    "optimizer.project",
    "optimizer.sweep",
    "harness.verify_all",
)

#: calls counted while a maximize span is open (per-iteration ratios)
INNER_COUNTED = ("geometry.squared_chord_matrix", "optimizer.project")


@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Solve:
    """One ``optimizer.maximize`` call seen by the tracer."""

    leg: str
    p: float
    seconds: float
    iterations: int
    capped: bool
    #: "grad_tol", "stalled" (line search found no ascent) or "max_iters"
    reason: str


@dataclass
class _Frame:
    name: str
    child_s: float = 0.0


@dataclass
class Tracer:
    """Context manager that wraps ``targets`` wherever they are bound."""

    targets: tuple = LAYER_FUNCTIONS
    #: label stored with each solve; the benchmark sets it per sweep leg
    leg: str = ""
    stats: dict = field(default_factory=dict)
    solves: list = field(default_factory=list)
    inner_calls: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)
    _maximize_depth: int = 0

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for target in self.targets:
            module_name, func_name = target.rsplit(".", 1)
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"],
                               func_name)
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, func):
        is_maximize = name == "optimizer.maximize"
        counted = name in INNER_COUNTED
        stats = self.stats.setdefault(name, SpanStats())

        def traced(*args, **kwargs):
            if counted and self._maximize_depth:
                self.inner_calls[name] = self.inner_calls.get(name, 0) + 1
            frame = _Frame(name)
            self._stack.append(frame)
            self._maximize_depth += is_maximize
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._maximize_depth -= is_maximize
                self._stack.pop()
                stats.calls += 1
                stats.busy_s += elapsed
                stats.self_s += elapsed - frame.child_s
                if self._stack:
                    self._stack[-1].child_s += elapsed
            if is_maximize:
                self._record_solve(args, kwargs, result, elapsed)
            return result
        traced.__wrapped__ = func
        return traced

    def _record_solve(self, args, kwargs, result, seconds) -> None:
        p = kwargs["p"] if "p" in kwargs else args[0]
        opts = kwargs["opts"] if "opts" in kwargs else args[2]
        capped = result.iterations >= opts.max_iters and not result.converged
        final_gnorm = result.history[-1][2] if result.history else float("nan")
        if capped:
            reason = "max_iters"
        elif final_gnorm < opts.tol_grad:
            reason = "grad_tol"
        else:
            reason = "stalled"
        self.solves.append(Solve(self.leg, float(p), seconds,
                                 int(result.iterations), capped, reason))

    def top_level_busy_s(self) -> float:
        """Busy time of the spans no other traced span encloses."""
        return sum(s.self_s for s in self.stats.values())


def wrapper_cost_s(calls: int = 20000) -> float:
    """Seconds one traced call adds over a direct call, measured on a
    no-op function; multiplied by the traced call count it estimates the
    tracing overhead of a run."""
    def noop():
        return None

    tracer = Tracer(targets=())
    traced = tracer._wrap("calibration.noop", noop)
    best_direct = best_traced = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        best_direct = min(best_direct, time.perf_counter() - start)
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        best_traced = min(best_traced, time.perf_counter() - start)
    return max(best_traced - best_direct, 0.0) / calls
