"""Chord-based energy functionals on discrete closed curves.

Everything here is a uniform double Riemann sum over the parameter grid
t_i = 2*pi*i/N with weight (2*pi/N)^2, diagonal excluded where the
integrand is singular.  The arc of a vertex pair depends on its grid
offset k = j - i alone, and offsets k and N - k hold the same chords, so
the sums over pairs walk the offsets k = 1..N/2 of the exact-difference
chord table of geometry.offset_chord_blocks, a block of offsets at a
time.  The energy walk (_energy_walk) also keeps each offset's smallest
squared chord and its sum of squared chords, from which the harness
reads the distortion bounds and the direct deficit without a second
walk.  avg_chord_p walks the same table, and chord_average the offsets
it is given, each once for a sequence of exponents or test functions;
nothing here builds an N x N table.
The circle reference values come from a fixed Gauss-Legendre rule on
geometrically graded panels of the corresponding closed-form integrals;
the rule's nodes and weights are computed here, by Newton's method on
the Legendre recurrence (_gauss_legendre), so no circle value loads
numpy.polynomial or LAPACK's eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DegenerateCurveError,
    KernelSingularityError,
    ParameterDomainError,
)
from .geometry import (
    TWO_PI,
    PolyCurve,
    grid_offsets,
    half_offsets,
    offset_arcs,
    offset_chord_blocks,
    require_points,
    require_real,
)
# not called here: perfbench's tracer and tests/test_benchmark_bindings.py
# count the Gram table through this module's binding of it
from .geometry import squared_chord_matrix  # noqa: F401

#: distinguished return value for the distortion of non-embedded curves
INFINITE_DISTORTION = math.inf

#: two distinct parameters mapping within this distance are "coincident"
COINCIDENCE_TOL = 1e-12

#: Gauss-Legendre nodes per panel of circle_bound's tail rule
BOUND_NODES = 24

#: end of circle_bound's series head, where its panels begin
SERIES_CUT = 1e-4

#: squared chords per arc, and arcs, on ChordKernel.validate's sample grid
KERNEL_CHORDS, KERNEL_ARCS = 64, 16


def require_finite_exponent(p: float) -> None:
    """Raise ParameterDomainError unless p is a real number in (0, inf)."""
    if not 0 < require_real("p", p, ParameterDomainError) < math.inf:
        raise ParameterDomainError(f"need a finite p > 0, got {p}")


@dataclass(frozen=True)
class EnergyParams:
    """Exponent pair (j, p) of the chord/arc energy integrand
    (chord^-j - arc^-j)^p."""

    j: float
    p: float

    def __post_init__(self):
        if not math.isfinite(require_real("j", self.j, ParameterDomainError)):
            raise ParameterDomainError(f"need a finite j, got {self.j}")
        require_finite_exponent(self.p)

    def convergent(self) -> bool:
        """The double integral converges iff j < 2 + 1/p."""
        return 0 < self.j < 2.0 + 1.0 / self.p

    def theorem_applies(self) -> bool:
        """Circle minimality is proved for convergent params with p >= 1."""
        return self.convergent() and self.p >= 1

    def require_convergent(self) -> None:
        if not self.convergent():
            raise ParameterDomainError(
                f"(j={self.j}, p={self.p}) outside the convergence region "
                "0 < j < 2 + 1/p")


@dataclass
class ChordKernel:
    """Evaluation rule F(chord, arc) for a renormalization energy.

    The flags describe F(sqrt(x), y) as a function of x; they are
    caller-asserted metadata.  validate() spot-checks them on a sample
    grid and raises ParameterDomainError on a violation, or on a sample
    value that is not one finite real.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    decreasing: bool | None = None
    convex: bool | None = None
    name: str = field(default="kernel")

    def __call__(self, x, y):
        return self.fn(x, y)

    def validate(self) -> None:
        ys = np.linspace(0.2, np.pi - 0.2, KERNEL_ARCS)
        for y in ys:
            xs = np.linspace(1e-3 * y**2, y**2 * (1 - 1e-6), KERNEL_CHORDS)
            vals = require_points(f"{self.name} values",
                                  [self.fn(math.sqrt(x), y) for x in xs],
                                  ParameterDomainError)
            if vals.shape != xs.shape:
                raise ParameterDomainError(
                    f"{self.name}: need one value per sample at y={y:.3f}")
            scale = max(1, np.abs(vals).max())
            if self.decreasing and np.any(np.diff(vals) > 1e-9 * scale):
                raise ParameterDomainError(
                    f"{self.name}: declared decreasing in squared chord "
                    f"but increases at y={y:.3f}")
            if self.convex and np.any(np.diff(vals, 2) < -1e-7 * scale):
                raise ParameterDomainError(
                    f"{self.name}: declared convex in squared chord "
                    f"but is concave at y={y:.3f}")


def _check_embedded(d2: np.ndarray, ks: np.ndarray,
                    row_min: np.ndarray) -> None:
    """Raise on a chord below COINCIDENCE_TOL in the offset table block d2
    of the offsets ks, with row minima row_min, naming the vertex pair."""
    if math.sqrt(row_min.min()) < COINCIDENCE_TOL:
        r, i = np.unravel_index(np.argmin(d2), d2.shape)
        raise DegenerateCurveError(
            "coincident vertices at distinct parameters "
            f"({i}, {(i + ks[r]) % d2.shape[1]})")


def _distortion_ratios(arcs: np.ndarray, min_d2: np.ndarray,
                       ks: np.ndarray) -> np.ndarray:
    """Worst arc/chord ratio of each offset ks[r] from its arc arcs[r] and
    its smallest squared chord min_d2[r]: the infinity sentinel where that
    chord is below COINCIDENCE_TOL, 0 at k = 0 mod N."""
    cmin = np.sqrt(min_d2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = arcs / cmin
    ratio[cmin < COINCIDENCE_TOL] = INFINITE_DISTORTION
    ratio[ks == 0] = 0.0
    return ratio


def _row_power_sums(x: np.ndarray, p: float) -> np.ndarray:
    """Row sums of x ** p for x >= 0.  At p = 2 and 3/2 they are one
    product reduction of x with x or with np.sqrt(x), with no array of
    the powers; at p = 1 the row sums of x; every other p sums
    np.power(x, p)."""
    if p == 2:
        return np.einsum("ij,ij->i", x, x)
    if p == 1.5:
        return np.einsum("ij,ij->i", x, np.sqrt(x))
    if p == 1:
        return np.sum(x, axis=1)
    return np.sum(np.power(x, p), axis=1)


class EnergyWalk(NamedTuple):
    """What one walk of a curve's offset chord table gives: for each
    EnergyParams, energy_Ejp; the distortion; and, for each offset
    k = 1..N/2, its smallest squared chord and the sum of its squared
    chords."""

    energies: list
    distortion: float
    min_d2: np.ndarray
    chord_sums: np.ndarray


def energy_Ejp(curve: PolyCurve, params: EnergyParams) -> float:
    """Discrete chord/arc energy sum (2pi/N)^2 sum_{i!=k}
    (chord^-j - arc^-j)^p; ParameterDomainError where it overflows.
    Below p = 1 it reads round-off: at adjacent offsets an equal-edge
    polygon's chord equals its arc to about 1e-14, and the power lifts
    that noise (1.5e-12 relative at j = 1, p = 0.5); the theorem needs
    p >= 1."""
    return _energy_walk(curve, [params])[0][0]


@np.errstate(over="ignore")
def _energy_walk(curve: PolyCurve, params_seq) -> EnergyWalk:
    """energy_Ejp of one curve for each EnergyParams of params_seq, the
    curve's distortion, and each offset's smallest squared chord and sum
    of squared chords, from one walk of its offset chord table.

    Per block, the clipped chord/arc difference is built once for each
    distinct j and raised to each p of that j.  1/d^2 is one reciprocal,
    written over the block's squared chords once they are read, and 1/d
    its np.sqrt, whenever j is 1 or 2, whatever the other pairs;
    the row sums at p = 3/2 and 2 are product reductions
    (_row_power_sums); every other power is np.power.  So the verify grid
    (j in {1, 2}, p in {1, 1.5, 2}) makes no libm pow call.  A pair's
    value does not depend on the other pairs: it is energy_Ejp(curve,
    params) bit for bit.  The difference is clipped at zero only in a
    block whose min is negative.  Each block's row minima serve both the
    embedding check and the distortion, which equals distortion(curve)
    bit for bit; the minima at offsets ks, with _distortion_ratios, equal
    distortion_at(curve, ks) bit for bit, and the chord sums are
    deficit_direct's.  Every pair is checked for convergence before the
    walk."""
    for params in params_seq:
        params.require_convergent()
    n = curve.n
    ks, weights = half_offsets(n)
    arcs = offset_arcs(n, ks)
    # distinct j, each with the positions of its pairs in params_seq
    by_j: dict = {}
    for pos, params in enumerate(params_seq):
        by_j.setdefault(params.j, []).append(pos)
    arc_terms = {j: arcs ** -j for j in by_j}
    totals = [0.0] * len(params_seq)
    min_d2 = np.empty(ks.shape)
    chord_sums = np.empty(ks.shape)
    for rows, d2 in offset_chord_blocks(curve.vertices, ks):
        min_d2[rows] = d2.min(axis=1)
        _check_embedded(d2, ks[rows], min_d2[rows])
        chord_sums[rows] = d2.sum(axis=1)
        # every other j first, as np.power of d2; then 1/d^2 in place of
        # d2, which nothing reads after it, and 1/d its root, taken
        # before j = 2 subtracts its arc term from 1/d^2 in place
        inverse = None
        for j in sorted(by_j, key=lambda j: j in (1, 2)):
            if j not in (1, 2):
                integrand = np.power(d2, -j / 2.0)
            else:
                if inverse is None:
                    inverse = np.divide(1.0, d2, out=d2)
                    root = np.sqrt(inverse) if 1 in by_j else None
                integrand = root if j == 1 else inverse
            integrand -= arc_terms[j][rows, None]
            # chord <= arc, so the integrand is nonnegative up to
            # round-off; clipping keeps fractional powers real at the
            # adjacent-edge zeros
            if integrand.min() < 0.0:
                np.maximum(integrand, 0.0, out=integrand)
            for pos in by_j[j]:
                totals[pos] += weights[rows] @ _row_power_sums(
                    integrand, params_seq[pos].p)
    worst_ratio = float(_distortion_ratios(arcs, min_d2, ks).max())
    energies = [float((TWO_PI / n) ** 2 * total) for total in totals]
    for params, energy in zip(params_seq, energies):
        if not math.isfinite(energy):
            raise ParameterDomainError(f"the sum of {params} overflows")
    return EnergyWalk(energies, worst_ratio, min_d2, chord_sums)


@np.errstate(over="ignore")
def renorm_energy(curve: PolyCurve, kernel: ChordKernel) -> float:
    """Double Riemann sum of F(chord, arc) excluding the diagonal.  The
    kernel is applied elementwise to equal-shape chord and arc arrays."""
    n = curve.n
    ks, weights = half_offsets(n)
    arcs = offset_arcs(n, ks)
    total = 0.0
    for rows, d2 in offset_chord_blocks(curve.vertices, ks):
        vals = np.asarray(kernel(np.sqrt(d2), np.broadcast_to(
            arcs[rows, None], d2.shape)), dtype=float)
        if vals.shape != d2.shape:
            raise ParameterDomainError(
                f"{kernel.name} returned shape {vals.shape}, not {d2.shape}")
        bad = ~np.isfinite(vals)
        if bad.any():
            r, i = np.unravel_index(np.argmax(bad), bad.shape)
            raise KernelSingularityError(
                int(i), int((i + ks[rows][r]) % n), float(vals[r, i]))
        total += weights[rows] @ vals.sum(axis=1)
    if not math.isfinite(total):
        raise ParameterDomainError(f"the sum of {kernel.name} overflows")
    return float((TWO_PI / n) ** 2 * total)


#: Taylor coefficients of log(s / sin s) = sum_k zeta(2k) / (k pi^(2k))
#: s^(2k), for k = 1..10
_LOG_SINC_SERIES = (1 / 6, 1 / 180, 1 / 2835, 1 / 37800, 1 / 467775,
                    691 / 3831077250, 2 / 127702575, 3617 / 2605132530000,
                    43867 / 350813659321125, 174611 / 15313294652906250)

#: below this s, log(s / sin s) is summed from its series, whose next
#: term is below 1e-16 relative there; above it, the logarithm loses no
#: more than about 6 eps / s^2 relative
_LOG_SINC_CUT = 0.5


def _bound_integrand(s, j: float, p: float):
    """(csc^j s - s^-j)^p on 0 < s <= pi/2, evaluated as
    (s^-j expm1(j log(s / sin s)))^p: the difference of the two powers
    cancels to about s^2 of their size at small s, and this form has no
    such cancellation."""
    s = np.asarray(s, dtype=float)
    s2 = s * s
    series = s2 * np.polyval(_LOG_SINC_SERIES[::-1], s2)
    log_ratio = np.where(s < _LOG_SINC_CUT, series, np.log(s / np.sin(s)))
    return (s ** -j * np.expm1(j * log_ratio)) ** p


@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The BOUND_NODES-point Gauss-Legendre nodes, ascending, and weights
    on [-1, 1], read-only, computed on first use (about 1 ms).

    Newton's method on P_n, n = BOUND_NODES (even), evaluated by the
    three-term recurrence k P_k = (2k - 1) x P_(k-1) - (k - 1) P_(k-2),
    runs on the n/2 positive roots at once from the guesses
    cos(pi (i - 1/4) / (n + 1/2)); the negative roots are their mirror
    images, so the rule is exactly symmetric.  The weights are
    2 / ((1 - x^2) P_n'(x)^2).  The nodes are within 1 ulp and the weights
    within 1.1e-14 relative of 40-digit values (numpy's leggauss, which
    loads numpy.polynomial and runs LAPACK's eigensolver, is 1.2e-13 off
    in its weights).  The classical method; see Hale and Townsend, SIAM
    J. Sci. Comput. 35 (2013) A652."""
    n = BOUND_NODES
    x = np.cos(np.pi * (np.arange(1, n // 2 + 1) - 0.25) / (n + 0.5))
    # quadratic from these guesses: 5 steps at n = 24
    for _ in range(10):
        p_prev, p_n = np.ones_like(x), x
        for k in range(2, n + 1):
            p_prev, p_n = p_n, ((2 * k - 1) * x * p_n - (k - 1) * p_prev) / k
        dp = n * (x * p_n - p_prev) / (x * x - 1.0)
        step = p_n / dp
        x = x - step
        if np.abs(step).max() <= np.finfo(float).eps:
            break
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    rule = np.concatenate([-x, x[::-1]]), np.concatenate([w, w[::-1]])
    for a in rule:
        a.flags.writeable = False
    return rule


def circle_bound(params: EnergyParams) -> float:
    """Sharp circle value 2^(3-jp) pi * int_0^(pi/2) (csc^j s - s^-j)^p ds.

    Below SERIES_CUT the integrand is replaced by its leading behavior
    (j/6)^p * s^((2-j)p), integrated in closed form.  The rest is a
    BOUND_NODES-point Gauss-Legendre rule on the panels [c, 2c], [2c, 4c],
    ... up to pi/2, with c = SERIES_CUT: 14 panels.  Each
    panel lies at least its own width from the integrand's singularity at
    0, so the rule converges there as on a smooth function.  The
    integrand is evaluated without cancellation (_bound_integrand), so
    on a grid of p in [0.25, 8] and j up to 98% of 2 + 1/p the result is
    within 2e-13 relative of the same rule on a long-double integrand.
    At (j, p) = (2, 1), where the value is 4 exactly, the error is
    -1.4e-13, the truncation of the series head, against -9.1e-13 for
    adaptive quadrature of the subtracted form (scipy.integrate.quad at
    tolerance 1e-12).
    """
    params.require_convergent()
    j, p = params.j, params.p
    expo = (2.0 - j) * p
    # leading term of (csc^j - s^-j)^p as s -> 0
    head = (j / 6.0) ** p * SERIES_CUT ** (expo + 1) / (expo + 1)
    ends = SERIES_CUT * 2.0 ** np.arange(
        math.ceil(math.log2(math.pi / 2 / SERIES_CUT)))
    ends = np.append(ends[ends < math.pi / 2], math.pi / 2)
    mids = 0.5 * (ends[1:] + ends[:-1])
    halves = 0.5 * (ends[1:] - ends[:-1])
    nodes, weights = _gauss_legendre()
    s = mids[:, None] + halves[:, None] * nodes
    tail = halves @ (_bound_integrand(s, j, p) @ weights)
    return float(2.0 ** (3.0 - j * p) * np.pi * (head + tail))


def avg_chord_p(curve: PolyCurve, p):
    """L^p mean of the chord length over all parameter pairs,
    ((1/N^2) sum |c_i - c_k|^p)^(1/p); the diagonal contributes zero.
    The sum walks the offsets k = 1..N/2 of the exact-difference chord
    table (offset_chord_blocks), a block at a time, so only O(N) floats
    per block are live.  The powers are taken of the squared chords
    divided by the largest one seen so far, so they are at most 1, and
    the running sum is scaled by (old/new)^(p/2) whenever a larger one
    appears: neither the powers nor their sum overflow, and the value is
    finite at every finite p > 0 (on the circle it nears the diameter,
    about 2).  The N zeros of the diagonal are counted, so the mean
    carries a factor (1 - 1/N)^(1/p) and means nothing for p below about
    1/N: make_circle(64) reads 1.5e-7 at p = 1e-3, where
    circle_avg_chord reads 1.0004, and 0.0 from p = 1e-6.

    p may also be a sequence of exponents, giving a list whose entry i
    equals avg_chord_p(curve, p[i]) bit for bit from one walk: the
    scaled block does not depend on p, and no power writes into it."""
    ps = list(p) if np.iterable(p) else [p]
    for q in ps:
        require_finite_exponent(q)
    n = curve.n
    ks, weights = half_offsets(n)
    totals, top = [0.0] * len(ps), 0.0
    for rows, d2 in offset_chord_blocks(curve.vertices, ks):
        block_top = float(d2.max())
        if block_top > top:
            totals = [total * (top / block_top) ** (q / 2.0)
                      for total, q in zip(totals, ps)]
            top = block_top
        if top == 0.0:
            continue
        d2 /= top
        for pos, q in enumerate(ps):
            totals[pos] += weights[rows] @ _row_power_sums(d2, q / 2.0)
    means = [float((total / n**2) ** (1.0 / q) * math.sqrt(top))
             for total, q in zip(totals, ps)]
    return means if np.iterable(p) else means[0]


#: below this exponent circle_avg_chord sums its series about p = 0,
#: where the log-Gamma difference of the closed form cancels
CIRCLE_SERIES_CUT = 1e-3

#: zeta(3), the second coefficient of that series
_ZETA3 = 1.2020569031595942

#: above this exponent circle_avg_chord sums its series in 1/p, where the
#: Gamma values of the closed form overflow from p of about 5e305 on
CIRCLE_ASYMPTOTIC_CUT = 1e4


def circle_avg_chord(p: float) -> float:
    """Closed form A_p of the unit circle:
    ((2^p/pi) * int_0^pi sin^p u du)^(1/p), via the Beta integral, in
    log space: 2 exp((lgamma((p+1)/2) - lgamma(p/2+1) - log(pi)/2) / p).
    Below CIRCLE_SERIES_CUT it is the series
    exp(pi^2 p/24 - zeta(3) p^2/4 + 7 pi^4 p^3/2880), which tends to the
    geometric mean of the chords, 1.  Above CIRCLE_ASYMPTOTIC_CUT it is
    the Stirling series 2 exp(-(log(pi p/2)/2 + 1/(4p))/p), whose next
    term is below 1e-16 relative there, which tends to the diameter, 2.
    Finite at every finite p > 0, within 1e-12 relative everywhere and
    1e-14 on [0.1, 10].  math.lgamma, not scipy.special, so that
    importing this module does not load scipy.special."""
    require_finite_exponent(p)
    if p < CIRCLE_SERIES_CUT:
        return math.exp(math.pi ** 2 * p / 24 - _ZETA3 * p * p / 4
                        + 7 * math.pi ** 4 * p ** 3 / 2880)
    if p > CIRCLE_ASYMPTOTIC_CUT:
        # log(pi p/2) as a sum, so that it is finite up to the largest p
        return 2.0 * math.exp(-(0.5 * (math.log(p) + math.log(math.pi / 2))
                                + 0.25 / p) / p)
    return 2.0 * math.exp((math.lgamma((p + 1) / 2) - math.lgamma(p / 2 + 1)
                           - 0.5 * math.log(math.pi)) / p)


def segment_avg_chord(p: float) -> float:
    """Closed form A_p of the doubly covered segment of length pi:
    (2 pi^p / ((p+1)(p+2)))^(1/p), the mean of |x-y|^p on [0, pi]^2, in
    log space: exp(log(pi) - (log1p(p) + log1p(p/2)) / p).  Finite at
    every finite p > 0: it tends to pi e^(-3/2) as p -> 0 and to the
    length pi as p -> inf, within 4e-16 relative."""
    require_finite_exponent(p)
    return math.exp(math.log(math.pi)
                    - (math.log1p(p) + math.log1p(p / 2)) / p)


def distortion_at(curve: PolyCurve, k):
    """Worst arc/chord ratio at grid separation k (arclength 2*pi*k/N).

    k is an int, giving a float, or an int array, giving an array; any
    other k raises ParameterDomainError.  The ratio is the infinity
    sentinel where some chord vanishes at positive arc distance
    (non-embedded curve), and 0 at k = 0 mod N."""
    n = curve.n
    ks = grid_offsets(k, n)
    min_d2 = np.empty(ks.shape)
    for rows, d2 in offset_chord_blocks(curve.vertices, ks):
        min_d2[rows] = d2.min(axis=1)
    ratio = _distortion_ratios(offset_arcs(n, ks), min_d2, ks)
    return float(ratio[0]) if np.ndim(k) == 0 else ratio


def distortion(curve: PolyCurve) -> float:
    """Gromov distortion over the grid: max over separations k in
    [1, N/2] of the worst arc/chord ratio."""
    return float(distortion_at(curve, half_offsets(curve.n)[0]).max())


def chord_average(curve: PolyCurve, k, f):
    """Mean of f(squared chord) at grid separation k:
    (1/N) sum_i f(|c_{i+k} - c_i|^2).

    k is an int, giving a float, or an int array, giving an array; any
    other k raises ParameterDomainError.  f is applied elementwise to a
    block of offsets at a time, and may also be a sequence of functions,
    giving a list whose entry i equals chord_average(curve, k, f[i]) bit
    for bit from one walk: they read the same block, so none may write
    into its argument.  Any other f raises ParameterDomainError."""
    fs = list(f) if np.iterable(f) and not callable(f) else [f]
    if not all(map(callable, fs)):
        raise ParameterDomainError(
            "f must be a function or a sequence of functions")
    ks = grid_offsets(k, curve.n)
    means = np.empty((len(fs), len(ks)))
    for rows, d2 in offset_chord_blocks(curve.vertices, ks):
        for row, g in zip(means, fs):
            if np.shape(vals := g(d2)) != d2.shape:
                raise ParameterDomainError(
                    f"f returned shape {np.shape(vals)}, not {d2.shape}")
            row[rows] = np.mean(vals, axis=1)
    means = [float(row[0]) if np.ndim(k) == 0 else row for row in means]
    return means[0] if callable(f) else means
