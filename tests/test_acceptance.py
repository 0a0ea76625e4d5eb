"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single PASS/FAIL line
with the measured values, and asserts the stated tolerance.  The sweep
criteria are the long ones (about 3 s per 21-solve sweep).
"""

import math
import time

import numpy as np
import pytest

from chordenergy import functionals as fn
from chordenergy import geometry as geo
from chordenergy import optimizer as opt
from chordenergy import shape as shp
from chordenergy import spectral as spec


def _report(num, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {num}: {detail}")
    assert passed, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def curve_pool():
    return [geo.random_closed_curve(seed, n=512) for seed in range(50)]


def test_criterion_01_circle_energy_value():
    start = time.perf_counter()
    energy = fn.energy_Ejp(geo.make_circle(1024), fn.EnergyParams(2, 1))
    bound = fn.circle_bound(fn.EnergyParams(2, 1))
    elapsed = time.perf_counter() - start
    ok = 3.95 <= energy <= 4.05 and abs(bound - 4.0) <= 1e-8 \
        and elapsed < 10.0
    _report(1, ok, f"energy(circle(1024); 2,1)={energy:.5f} in [3.95,4.05], "
                   f"bound={bound:.10f} (=4 +/- 1e-8), {elapsed:.1f}s < 10s")


def test_criterion_02_circle_minimality(curve_pool):
    start = time.perf_counter()
    worst = math.inf
    worst_pair = None
    for (j, p) in [(2, 1), (1, 1), (1, 2), (2, 1.5)]:
        params = fn.EnergyParams(j, p)
        bound = fn.circle_bound(params)
        for curve in curve_pool:
            ratio = fn.energy_Ejp(curve, params) / bound
            if ratio < worst:
                worst, worst_pair = ratio, (j, p)
    elapsed = time.perf_counter() - start
    ok = worst >= 0.95 and elapsed < 120.0
    _report(2, ok, f"min energy/bound={worst:.4f} at (j,p)={worst_pair} "
                   f"over 50 curves x 4 params (need >= 0.95), "
                   f"{elapsed:.0f}s < 120s")


def test_criterion_03_closed_form_chord_means():
    circle = geo.make_circle(512)
    seg = geo.make_double_segment(512)
    e1 = abs(fn.avg_chord_p(circle, 1) - 4 / math.pi)
    e2 = abs(fn.avg_chord_p(circle, 2) - math.sqrt(2))
    e3 = abs(fn.avg_chord_p(seg, 4) - math.pi * (1 / 15) ** 0.25)
    ok = e1 <= 1e-4 and e2 <= 1e-4 and e3 <= 1e-3
    _report(3, ok, f"A_1(circle) err={e1:.1e} (tol 1e-4), "
                   f"A_2(circle) err={e2:.1e} (tol 1e-4), "
                   f"A_4(segment) err={e3:.1e} (tol 1e-3)")


def test_criterion_04_crossover():
    start = time.perf_counter()
    value = opt.crossover_segment_circle()
    elapsed = time.perf_counter() - start
    ok = abs(value - 3.5721) <= 5e-4 and elapsed < 1.0
    _report(4, ok, f"crossover={value:.5f} (=3.5721 +/- 5e-4), "
                   f"{elapsed:.2f}s < 1s")


def test_criterion_05_distortion(curve_pool):
    circle_val = fn.distortion(geo.make_circle(512))
    worst = min(fn.distortion(c) for c in curve_pool)
    ok = abs(circle_val - math.pi / 2) <= 1e-3 \
        and worst >= math.pi / 2 - 1e-9
    _report(5, ok, f"distortion(circle(512))={circle_val:.5f} "
                   f"(=pi/2 +/- 1e-3), min over 50 curves={worst:.5f} "
                   f">= pi/2 - 1e-9")


def test_criterion_06_deficit_suite():
    rng = np.random.default_rng(0)
    # 200 random truncated Fourier curves, nonnegativity across the grid
    violations = 0
    worst_min = math.inf
    for _ in range(200):
        K = int(rng.integers(2, 9))
        decay = 0.5 ** np.abs(np.arange(-K, K + 1))[:, None]
        coeffs = decay * (rng.normal(size=(2 * K + 1, 2))
                          + 1j * rng.normal(size=(2 * K + 1, 2)))
        fc = spec.FourierCurve(coeffs=coeffs, n=256)
        rho_min = float(spec.deficit(fc).rho.min())
        worst_min = min(worst_min, rho_min)
        if rho_min < -1e-9:
            violations += 1
    # equality family: energy only at |k| <= 1
    worst_eq = 0.0
    for _ in range(20):
        coeffs = np.zeros((5, 2), dtype=complex)
        coeffs[1:4] = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        fc = spec.FourierCurve(coeffs=coeffs, n=256)
        worst_eq = max(worst_eq, spec.deficit(fc).max_abs())
    # series against the direct vertex-sum computation
    worst_agree = 0.0
    for seed in range(10):
        curve = geo.random_closed_curve(seed, n=512)
        fc = spec.analyze(curve)
        prof = spec.deficit(fc)
        direct = np.array([spec.deficit_direct(curve, k)
                           for k in range(1, curve.n)])
        scale = max(1.0, 4.0 * fc.derivative_energy())
        worst_agree = max(worst_agree,
                          float(np.abs(direct - prof.rho).max()) / scale)
    ok = violations == 0 and worst_eq <= 1e-9 and worst_agree <= 1e-4
    _report(6, ok, f"nonnegativity violations={violations}/200 "
                   f"(min rho={worst_min:.1e}), equality-family max "
                   f"|rho|={worst_eq:.1e} (tol 1e-9), series-vs-direct "
                   f"rel err={worst_agree:.1e} (tol 1e-4)")


def test_criterion_07_pointwise_lemmas():
    rng = np.random.default_rng(1)
    ks = rng.integers(2, 51, size=10000)
    thetas = rng.uniform(-10, 10, size=10000)
    trig_viol = int(np.sum(np.sin(ks * thetas) ** 2
                           > ks ** 2 * np.sin(thetas) ** 2 + 1e-9))
    worst_gap = math.inf
    for dim in (2, 3):
        for _ in range(5000):
            pts = rng.normal(size=(4, dim))
            _, _, gap = spec.tetra_check(*pts)
            worst_gap = min(worst_gap, gap)
    worst_parallel = 0.0
    for _ in range(1000):
        A, B, C = rng.normal(size=(3, 3))
        rho = float(rng.uniform(0.1, 5.0))
        D = C - rho * (B - A)
        _, _, gap = spec.tetra_check(A, B, C, D)
        worst_parallel = max(worst_parallel, abs(gap))
    ok = trig_viol == 0 and worst_gap >= 0.0 and worst_parallel < 1e-12
    _report(7, ok, f"trig violations={trig_viol}/10000, min quadruple "
                   f"gap={worst_gap:.1e} >= 0, parallel-case max "
                   f"|gap|={worst_parallel:.1e} < 1e-12")


def test_criterion_08_gradient_check():
    h = 1e-6
    worst = 0.0
    for seed in range(20):
        curve = geo.random_closed_curve(seed, n=64)
        v = curve.vertices
        for p in (1.5, 2.0, 3.0, 4.0):
            grad = opt.objective_grad(curve, p)
            fd = np.zeros_like(v)
            for i in range(v.shape[0]):
                for d in range(v.shape[1]):
                    plus = v.copy()
                    plus[i, d] += h
                    minus = v.copy()
                    minus[i, d] -= h
                    fp = np.mean(geo.squared_chord_matrix(plus) ** (p / 2))
                    fm = np.mean(geo.squared_chord_matrix(minus) ** (p / 2))
                    fd[i, d] = (fp - fm) / (2 * h)
            worst = max(worst,
                        float(np.abs(grad - fd).max() / np.abs(fd).max()))
    ok = worst < 1e-6
    _report(8, ok, f"max relative gradient error={worst:.1e} < 1e-6 "
                   f"over 20 curves x 4 exponents")


def test_criterion_09_symmetry_breaking():
    start = time.perf_counter()
    opts = opt.OptimizeOptions(n=256, max_iters=2000)
    low = opt.sweep([2.0, 2.5, 3.0, 3.2], opts)
    high = opt.sweep([3.8, 4.0], opts)
    grid = [round(3.0 + 0.05 * i, 2) for i in range(15)]  # 3.00 .. 3.70
    trans = opt.sweep(grid, opts)
    elapsed = time.perf_counter() - start

    low_ok = all(rec.r < 1.02 for rec in low)
    high_ok = all(rec.r > 1.5 and 10 ** rec.efit_log10 >= 1e-4
                  for rec in high)
    transition = next((rec.p for rec in trans if rec.r > 1.05), None)
    trans_ok = transition is not None and 3.3 <= transition <= 3.5721
    ok = low_ok and high_ok and trans_ok and elapsed < 1800.0
    low_r = ", ".join(f"{rec.r:.4f}" for rec in low)
    high_r = ", ".join(f"{rec.r:.2f}" for rec in high)
    _report(9, ok, f"r(2.0..3.2)=[{low_r}] all < 1.02; "
                   f"r(3.8,4.0)=[{high_r}] all > 1.5 with fit residual "
                   f">= 1e-4; transition at p={transition} in "
                   f"[3.3, 3.5721]; {elapsed:.0f}s < 1800s")


def test_criterion_10_optimizer_dominance_at_p4():
    opts = opt.OptimizeOptions(n=256, max_iters=2000)
    init = opt.perturb_mode2(geo.make_circle(256), 0.05)
    result = opt.maximize(4.0, init, opts)
    circle_val = 6.0 ** 0.25
    ok = result.value >= 1.5963 - 5e-3 and result.value >= circle_val
    _report(10, ok, f"max A_4={result.value:.5f} >= 1.5913 and >= "
                    f"6^(1/4)={circle_val:.5f}")
