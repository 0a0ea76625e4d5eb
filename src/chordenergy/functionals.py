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
walk.  Only avg_chord_p reads the Gram table, squared_chord_matrix, and
it clamps that table's negative round-off itself.  The circle reference
values come from a fixed Gauss-Legendre rule on geometrically graded
panels of the corresponding closed-form integrals.
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
    lambda_chord,
    offset_arcs,
    offset_chord_blocks,
    squared_chord_matrix,
)

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
    """Raise ParameterDomainError unless 0 < p < inf; NaN is refused too."""
    if not 0 < p < math.inf:
        raise ParameterDomainError(f"need a finite p > 0, got {p}")


@dataclass(frozen=True)
class EnergyParams:
    """Exponent pair (j, p) of the chord/arc energy integrand
    (chord^-j - arc^-j)^p."""

    j: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.j) and math.isfinite(self.p)) \
                or self.p <= 0:
            raise ParameterDomainError(
                f"need finite j and p > 0, got (j={self.j}, p={self.p})")

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
    grid and raises ParameterDomainError on a violation.
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
            vals = np.asarray([float(self.fn(math.sqrt(x), y)) for x in xs])
            dv = np.diff(vals)
            if self.decreasing and np.any(dv > 1e-9 * max(1, np.abs(vals).max())):
                raise ParameterDomainError(
                    f"{self.name}: declared decreasing in squared chord "
                    f"but increases at y={y:.3f}")
            d2 = np.diff(vals, 2)
            if self.convex and np.any(d2 < -1e-7 * max(1, np.abs(vals).max())):
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


def _power(x: np.ndarray, e: float) -> np.ndarray:
    """x ** e for x >= 0.  The half-odd exponents +-1/2 and +-3/2 come
    from np.sqrt, a product with x and a reciprocal, with no libm pow
    call, within 4e-16 relative of np.power; exponent 1 returns x itself,
    not a copy; every other exponent is np.power, which takes its own
    fast paths at -1, 1/2 and 2.  The energy walk takes its chord powers
    at j = 1 and 2 and its row sums at p = 3/2 and 2 without it
    (_energy_walk, _row_power_sums)."""
    if e == 1:
        return x
    if abs(e) not in (0.5, 1.5):
        return np.power(x, e)
    out = np.sqrt(x)
    if abs(e) == 1.5:
        out *= x
    if e < 0:
        np.divide(1.0, out, out=out)
    return out


def _row_power_sums(x: np.ndarray, p: float) -> np.ndarray:
    """Row sums of x ** p for x >= 0.  At p = 2 and 3/2 they are one
    product reduction of x with x or with np.sqrt(x), with no array of
    the powers; every other p sums _power(x, p)."""
    if p == 2:
        return np.einsum("ij,ij->i", x, x)
    if p == 1.5:
        return np.einsum("ij,ij->i", x, np.sqrt(x))
    return np.sum(_power(x, p), axis=1)


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
    (chord^-j - arc^-j)^p."""
    return _energy_walk(curve, [params])[0][0]


def _energy_walk(curve: PolyCurve, params_seq) -> EnergyWalk:
    """energy_Ejp of one curve for each EnergyParams of params_seq, the
    curve's distortion, and each offset's smallest squared chord and sum
    of squared chords, from one walk of its offset chord table.

    Per block, the clipped chord/arc difference is built once for each
    distinct j and raised to each p of that j.  1/d^2 is one reciprocal
    and 1/d its np.sqrt, whenever j is 1 or 2, whatever the other pairs;
    the row sums at p = 3/2 and 2 are product reductions
    (_row_power_sums); every other power is _power.  So the verify grid
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
        # chord^-j as a new array, never d2 itself; 1/d is taken before
        # j = 2 subtracts its arc term from 1/d^2 in place
        if 1 in by_j or 2 in by_j:
            inverse = np.divide(1.0, d2)
            root = np.sqrt(inverse) if 1 in by_j else None
        for j, positions in by_j.items():
            integrand = root if j == 1 else inverse if j == 2 \
                else _power(d2, -j / 2.0)
            integrand -= arc_terms[j][rows, None]
            # chord <= arc, so the integrand is nonnegative up to
            # round-off; clipping keeps fractional powers real at the
            # adjacent-edge zeros
            if integrand.min() < 0.0:
                np.maximum(integrand, 0.0, out=integrand)
            for pos in positions:
                totals[pos] += weights[rows] @ _row_power_sums(
                    integrand, params_seq[pos].p)
    worst_ratio = float(_distortion_ratios(arcs, min_d2, ks).max())
    return EnergyWalk([float((TWO_PI / n) ** 2 * total) for total in totals],
                      worst_ratio, min_d2, chord_sums)


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
        bad = ~np.isfinite(vals)
        if bad.any():
            r, i = np.unravel_index(np.argmax(bad), bad.shape)
            raise KernelSingularityError(
                int(i), int((i + ks[rows][r]) % n), float(vals[r, i]))
        total += weights[rows] @ vals.sum(axis=1)
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
    """The BOUND_NODES-point Gauss-Legendre nodes and weights on [-1, 1],
    computed on first use: leggauss takes about 6 ms."""
    return np.polynomial.legendre.leggauss(BOUND_NODES)


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


def avg_chord_p(curve: PolyCurve, p: float) -> float:
    """L^p mean of the chord length over all parameter pairs,
    ((1/N^2) sum |c_i - c_k|^p)^(1/p); the diagonal contributes zero.
    The powers are taken of the squared chords divided by the largest,
    so they are at most 1, and the mean is scaled back: neither the
    powers nor their sum overflow, and the value is finite at every
    finite p > 0 (on the circle it nears the diameter, about 2).  The
    squared chords come from the Gram table, squared_chord_matrix, whose
    negative round-off at coincident vertices is clamped to zero here,
    and only when the table's min is negative."""
    require_finite_exponent(p)
    d2 = squared_chord_matrix(curve.vertices)
    # coincident vertices can leave negative round-off in the table
    if d2.min() < 0.0:
        np.maximum(d2, 0.0, out=d2)
    top = float(d2.max())
    if top == 0.0:
        # every vertex at one point
        return 0.0
    d2 /= top
    d2 **= p / 2.0
    return float(np.mean(d2) ** (1.0 / p) * math.sqrt(top))


def _closed_form_mean(p: float, mean_power) -> float:
    """mean_power() ** (1/p), where mean_power() is the mean of |chord|^p
    of a closed form.  p must be positive and finite; where the doubles
    overflow (the circle's Gamma values from p = 342 on, the segment's
    pi^p from p = 620 on) ParameterDomainError is raised."""
    require_finite_exponent(p)
    try:
        value = mean_power() ** (1.0 / p)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ParameterDomainError(
            f"the closed form overflows double precision at p = {p}")
    return float(value)


def circle_avg_chord(p: float) -> float:
    """Closed form A_p of the unit circle:
    ((2^p/pi) * int_0^pi sin^p u du)^(1/p), via the Beta integral.

    The Gamma values come from math.gamma, not scipy.special.gamma, so
    that importing this module does not load scipy.special.  The two
    differ in the last bits, and the 1/p-th power amplifies that: on
    the grid p = 1, 1.01, ..., 10 the values differ in 42% of the points,
    by at most 4 ulps."""
    return _closed_form_mean(p, lambda: (2.0 ** p / math.pi) * (
        math.sqrt(math.pi) * math.gamma((p + 1) / 2) / math.gamma(p / 2 + 1)))


def segment_avg_chord(p: float) -> float:
    """Closed form A_p of the doubly covered segment of length pi:
    (2 pi^p / ((p+1)(p+2)))^(1/p), the mean of |x-y|^p on [0, pi]^2."""
    return _closed_form_mean(
        p, lambda: 2.0 * math.pi ** p / ((p + 1) * (p + 2)))


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


def chord_average(curve: PolyCurve, k,
                  f: Callable[[np.ndarray], np.ndarray]):
    """Mean of f(squared chord) at grid separation k:
    (1/N) sum_i f(|c_{i+k} - c_i|^2).

    k is an int, giving a float, or an int array, giving an array; any
    other k raises ParameterDomainError.  f is applied elementwise to a
    block of offsets at a time."""
    ks = grid_offsets(k, curve.n)
    means = np.empty(ks.shape)
    for rows, d2 in offset_chord_blocks(curve.vertices, ks):
        means[rows] = np.mean(f(d2), axis=1)
    return float(means[0]) if np.ndim(k) == 0 else means
