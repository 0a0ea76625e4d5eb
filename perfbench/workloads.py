"""The three benchmark workloads and the checks that define their ops.

Each workload has a ``setup(seed)`` that builds its inputs and a
``run(inputs, tracer)`` that performs its fixed work once (one *unit*)
through the library's public functions and checks every output against the acceptance thresholds of
``tests/test_acceptance.py`` and ``harness.verify_all``.  The sizes are
fields so the self-tests can run the same code at a tiny size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from chordenergy import functionals as fn
from chordenergy import geometry as geo
from chordenergy import harness
from chordenergy import optimizer as opt
from chordenergy import spectral as spec


@dataclass
class UnitResult:
    """Outcome of one unit of a workload."""

    attempted: int = 0
    failed: int = 0
    #: denominator of ``ms_per_iter`` on workloads without an optimizer
    inner_units: int = 0
    failures: list = field(default_factory=list)

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)


def solve_stem(leg: str, p: float) -> str:
    """Metric stem of one solve.  The low sweep leg repeats 3.00 and 3.20
    from another start, so its solves carry the leg name."""
    return ("low." if leg == "low" else "") + f"p{p:.2f}"


@dataclass(frozen=True)
class Sweep:
    """Criterion-9 continuation sweep: three legs, each started from the
    circle; one op per solve."""

    n: int = 256
    max_iters: int = 2000
    legs: tuple = (
        ("low", (2.0, 2.5, 3.0, 3.2)),
        ("high", (3.8, 4.0)),
        ("trans", tuple(round(3.0 + 0.05 * i, 2) for i in range(15))),
    )

    def solve_names(self) -> list[str]:
        return [solve_stem(leg, p) for leg, grid in self.legs for p in grid]

    def setup(self, seed: int):
        # seedless: every leg starts from the circle
        return opt.OptimizeOptions(n=self.n, max_iters=self.max_iters)

    def run(self, opts, tracer) -> UnitResult:
        out = UnitResult()
        records = {}
        for leg, grid in self.legs:
            tracer.leg = leg
            records[leg] = opt.sweep(list(grid), opts)
        tracer.leg = ""
        transition_seen = False
        last_window_p = max(p for p in dict(self.legs)["trans"]
                            if p <= 3.5721)
        for leg, recs in records.items():
            for rec in recs:
                name = f"{leg}.p{rec.p:.2f}"
                finite = all(math.isfinite(x) for x in
                             (rec.value, rec.r, rec.efit_log10))
                if not finite:
                    out.check(name, False)
                    continue
                if leg == "low":
                    ok = rec.r < 1.02
                elif leg == "high":
                    ok = rec.r > 1.5 and 10 ** rec.efit_log10 >= 1e-4
                else:
                    # transition = first p with r > 1.05; it must fall
                    # in [3.3, 3.5721]
                    broke = rec.r > 1.05
                    ok = not (broke and rec.p < 3.3)
                    transition_seen = transition_seen or broke
                    if rec.p == last_window_p and not transition_seen:
                        ok = False
                out.check(name, ok)
        return out


@dataclass(frozen=True)
class Verify:
    """``harness.verify_all``: one op per report check."""

    n: int = 512
    n_curves: int = 50

    def setup(self, seed: int):
        return seed

    def run(self, seed, tracer) -> UnitResult:
        out = UnitResult()
        report = harness.verify_all(seed, n_curves=self.n_curves, n=self.n)
        for check in report.checks:
            out.check(check.name, check.passed)
        out.inner_units = self.n_curves + max(1, self.n_curves // 10)
        return out


@dataclass
class LargeInputs:
    curves: dict
    params: fn.EnergyParams
    bound: float
    init: geo.PolyCurve
    start_value: float


@dataclass(frozen=True)
class LargeN:
    """Superlinear layers at large n, then a maximize with a fixed
    iteration budget; one op per call."""

    n: int = 4096
    n_opt: int = 1024
    budget: int = 30

    def setup(self, seed: int) -> LargeInputs:
        curves = {"circle": geo.make_circle(self.n),
                  "random": geo.random_closed_curve(seed, n=self.n)}
        params = fn.EnergyParams(2, 1)
        init = opt.perturb_mode2(geo.make_circle(self.n_opt), 0.05)
        return LargeInputs(curves, params, fn.circle_bound(params), init,
                           fn.avg_chord_p(init, 4.0))

    def run(self, inp: LargeInputs, tracer) -> UnitResult:
        out = UnitResult()
        circle, random = inp.curves["circle"], inp.curves["random"]
        energy = fn.energy_Ejp(circle, inp.params)
        out.check("circle E_2,1 in [3.95, 4.05]", 3.95 <= energy <= 4.05)
        energy = fn.energy_Ejp(random, inp.params)
        out.check("random E_2,1 >= 0.95 circle bound",
                  energy >= 0.95 * inp.bound)
        a2_circle = fn.avg_chord_p(circle, 2.0)
        out.check("A_2(circle) = sqrt 2", abs(a2_circle - math.sqrt(2)) <= 1e-4)
        # the regular polygon maximizes A_2 among equal-edge polygons
        out.check("A_2(random) <= A_2(circle)",
                  fn.avg_chord_p(random, 2.0) <= a2_circle * (1 + 1e-12))
        # the inscribed polygon undershoots pi/2 by O(1/n^2); verify_all
        # grants the same slack to its discretized bounds
        disc_tol = 10.0 / self.n ** 2
        for name, curve in inp.curves.items():
            out.check(f"distortion({name}) >= pi/2",
                      fn.distortion(curve) >= math.pi / 2 - disc_tol)
        for name, curve in inp.curves.items():
            fc = spec.analyze(curve)
            series = spec.deficit(fc).rho
            direct = np.array([spec.deficit_direct(curve, k)
                               for k in range(1, curve.n)])
            scale = max(1.0, 4.0 * fc.derivative_energy())
            out.check(f"deficit series vs direct ({name})",
                      float(np.abs(direct - series).max()) / scale <= 1e-4)
        result = opt.maximize(4.0, inp.init, opt.OptimizeOptions(
            n=self.n_opt, max_iters=self.budget))
        out.check("budgeted maximize value finite and >= start",
                  math.isfinite(result.value)
                  and result.value >= inp.start_value)
        return out


WORKLOADS = {"sweep256": Sweep(), "verify512": Verify(), "large_n": LargeN()}


def tiny_workloads() -> dict:
    """The same workloads at a size that runs in seconds (self-tests)."""
    return {"sweep256": Sweep(n=32, max_iters=3),
            "verify512": Verify(n=64, n_curves=2),
            "large_n": LargeN(n=64, n_opt=32, budget=2)}
