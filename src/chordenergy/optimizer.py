"""Projected gradient ascent for average chord-power functionals.

The feasible set is the discrete unit-speed manifold: closed planar
polygons with N equal edges and perimeter 2*pi.  Ascent steps follow
the gradient of the p-th power mean of the chord lengths, projected
onto the tangent space of the edge-length constraints.  Line-search
trials return to the manifold by Newton projection onto the edge
constraints, starting from the iteration's tangent frame (a
projection-like retraction, Absil & Malick, SIAM J. Optim. 2012);
start curves reach it by the same projection after one
equal-arclength pass (geometry.resample_arclength).  The projection
and the tangent frame live in geometry.  The pairwise
work, the chord powers behind the value and the gradient, visits each
unordered vertex pair once, through a band of the Gram chord table
(_ChordBand).  Past the critical exponent the circle loses its
maximality and the iterates stretch into ovals, so initial curves carry
an explicit mode-2 perturbation to break the rotational symmetry.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DegenerateCurveError, SingularGradientError
from .geometry import TWO_PI, PolyCurve, _edges, _retract, _TangentFrame, \
    make_circle, resample_arclength, squared_chord_matrix
from .functionals import circle_avg_chord, require_finite_exponent, \
    segment_avg_chord
from . import shape as shape_mod

#: minimum admissible distance between any two vertices during ascent
MIN_PAIR_DISTANCE = 1e-6

#: first trial step of the first line search
STEP0 = 1.0

#: cap on a Barzilai-Borwein first trial step, in units of STEP0
MAX_STEP_FACTOR = 1e3

#: strength of the H^1 smoothing applied to ascent directions;
#: mode k is damped by 1/(1 + SMOOTH_SIGMA k^2).  Stiff high-frequency
#: curvature otherwise forces steps orders of magnitude below what
#: the low-frequency stretching modes can absorb.
SMOOTH_SIGMA = 16.0


@dataclass(frozen=True)
class OptimizeOptions:
    n: int = 256
    max_iters: int = 2000
    tol_grad: float = 1e-7
    perturb: float = 0.05

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"need max_iters >= 1, got {self.max_iters}")
        if not self.tol_grad > 0:
            raise ValueError(f"need a positive tol_grad, got {self.tol_grad}")
        if self.n < 32:
            raise ValueError(f"need n >= 32, got {self.n}")
        if not math.isfinite(self.perturb):
            raise ValueError(f"need a finite perturb, got {self.perturb}")


class Termination(enum.Enum):
    """Why maximize stopped."""

    #: the projected gradient norm fell below tol_grad
    GRAD_TOL = "grad_tol"
    #: no step along the ascent direction raised the value
    LINE_SEARCH_STALLED = "line_search_stalled"
    #: max_iters iterations ran
    MAX_ITERS = "max_iters"


@dataclass
class OptimizeResult:
    curve: PolyCurve
    value: float
    iterations: int
    reason: Termination
    history: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        """True only when the gradient test stopped the ascent."""
        return self.reason is Termination.GRAD_TOL


def _require_regular_gradient(closest: float, p: float) -> None:
    if p < 2 and closest < MIN_PAIR_DISTANCE ** 2:
        raise SingularGradientError(
            "coincident vertices make the chord-power gradient singular "
            f"for p = {p} < 2")


def _band_view(table: np.ndarray, half: int) -> np.ndarray:
    """(n, half) view of an (n, n + half) table: its row i holds the
    table's entries i+1 .. i+half of row i."""
    row, item = table.strides
    return as_strided(table[:, 1:], (table.shape[0], half),
                      (row + item, item))


class _ChordBand:
    """The chord-power kernel of one solve: every unordered vertex pair
    once, in buffers reused by every curve of the solve.

    The table holds the squared distances of the n vertices to the
    vertices extended by their first n // 2 rows, so its row i, columns
    i+1 .. i+n//2, holds the chords of vertex i at the offsets
    1 .. n//2.  That band, an (n, n//2) view, holds each unordered pair
    once, except that at even n it holds each pair at offset n/2 twice;
    their weights are halved.  The weights w = d2^((p-2)/2) go into the
    same band of a zeroed buffer whose other entries stay zero, so the
    gradient is two products of that buffer with the vertices.
    """

    __slots__ = ("table", "weights", "band", "band_weights")

    def __init__(self, n: int):
        half = n // 2
        self.table = np.empty((n, n + half))
        self.weights = np.zeros((n, n + half))
        self.band = _band_view(self.table, half)
        self.band_weights = _band_view(self.weights, half)

    def tabulate(self, v: np.ndarray) -> float:
        """Fill the chord table of the vertices v; return the squared
        distance of their closest pair."""
        half = self.band.shape[1]
        squared_chord_matrix(v, np.concatenate((v, v[:half])),
                             out=self.table)
        return float(self.band.min())

    def power_mean(self, p: float) -> float:
        """Weigh the tabulated chords by w = d2^((p-2)/2) and return the
        power mean ((1/N^2) sum_{i,k} |v_i - v_k|^p)^(1/p) they give."""
        n, half = self.band.shape
        np.power(self.band, (p - 2.0) / 2.0, out=self.band_weights)
        if n % 2 == 0:
            self.band_weights[:, -1] *= 0.5
        # row sums, then their sum: unlike a BLAS dot the same round-off
        # at every BLAS thread count
        total = np.einsum("ij,ij->i", self.band_weights, self.band).sum()
        return float((2.0 * total / n ** 2) ** (1.0 / p))

    def gradient(self, v: np.ndarray, p: float) -> np.ndarray:
        """objective_grad at the vertices v from the weights of the last
        power_mean, which must be those of v."""
        n, dim = v.shape
        half = self.band.shape[1]
        ext = np.empty((n + half, dim + 1))
        ext[:n, :dim] = v
        ext[n:, :dim] = v[:half]
        ext[:, dim] = 1.0
        # row m of the symmetric weight matrix W is row m of the buffer
        # plus its column m, with column n + m folded onto m, so W v and
        # the row sums of W come from one product with the buffer and
        # one with its transpose
        rows = self.weights @ ext
        cols = self.weights.T @ ext[:n]
        cols[:half] += cols[n:]
        sums = rows + cols[:n]
        # sum_k w_mk (v_m - v_k) = (row sums) v_m - (W v)_m
        return (2.0 * p / n ** 2) * (sums[:, dim:] * v - sums[:, :dim])


def objective_grad(curve: PolyCurve, p: float) -> np.ndarray:
    """Gradient of the power sum (1/N^2) sum_{i,k} |v_i - v_k|^p with
    respect to the vertices: row m is
    (2p/N^2) sum_{k != m} |v_m - v_k|^(p-2) (v_m - v_k)."""
    require_finite_exponent(p)
    band = _ChordBand(curve.n)
    _require_regular_gradient(band.tabulate(curve.vertices), p)
    band.power_mean(p)
    return band.gradient(curve.vertices, p)


def project(curve: PolyCurve) -> PolyCurve:
    """Place a curve on the feasible manifold: equal edges, perimeter
    2*pi, centroid at the origin, by resample_arclength at the curve's
    own vertex count.  maximize uses it for its start curve only;
    line-search trials go through _retract directly.  A collapsed curve,
    or one whose edges the projection cannot equalize, raises
    DegenerateCurveError."""
    return resample_arclength(curve, curve.n)


def perturb_mode2(curve: PolyCurve, amplitude: float) -> PolyCurve:
    """Add a radial mode-2 bump (the first non-rigid harmonic) and
    re-project; this seeds the symmetry breaking."""
    v = curve.vertices - curve.vertices.mean(axis=0)
    theta = np.arctan2(v[:, 1], v[:, 0])
    radius = np.linalg.norm(v, axis=1)
    factor = 1.0 + amplitude * np.cos(2 * theta)
    safe = radius > 1e-12
    out = v.copy()
    out[safe] *= factor[safe, None]
    return project(PolyCurve(out))


@lru_cache(maxsize=8)
def _h1_filter(n: int) -> np.ndarray:
    k = np.fft.fftfreq(n, d=1.0 / n)
    return 1.0 / (1.0 + SMOOTH_SIGMA * k ** 2)


def _smooth_direction(pg: np.ndarray) -> np.ndarray:
    """Damp mode k of a vertex field by 1/(1 + SMOOTH_SIGMA k^2)."""
    filt = _h1_filter(pg.shape[0])
    return np.real(np.fft.ifft(np.fft.fft(pg, axis=0)
                               * filt[:, None], axis=0))


def canonicalize(curve: PolyCurve) -> PolyCurve:
    """Quotient out rigid motions: centroid at the origin, principal
    axis along x, counterclockwise orientation, first vertex at the
    maximal x coordinate.

    The principal axis points along the sign of its third moment where
    that is decisive; the minor axis follows by a proper rotation, and
    is reflected only to make the signed area positive.  Of the vertices
    whose x lies within 1e-9 of the largest, the one with the largest y
    comes first.
    """
    v = curve.vertices - curve.vertices.mean(axis=0)
    if curve.dim != 2:
        raise ValueError("canonicalize handles planar curves only")
    _, vecs = np.linalg.eigh(v.T @ v)
    axis = vecs[:, -1]
    if np.sum((v @ axis) ** 3) < -1e-9:
        axis = -axis
    w = v @ np.column_stack([axis, [-axis[1], axis[0]]])
    # twice the signed (shoelace) area
    if np.sum(w[:, 0] * np.roll(w[:, 1], -1)
              - np.roll(w[:, 0], -1) * w[:, 1]) < 0:
        w[:, 1] = -w[:, 1]
    x = w[:, 0]
    ties = np.flatnonzero(x >= x.max() - 1e-9)
    start = int(ties[np.argmax(w[ties, 1])])
    return PolyCurve(np.roll(w, -start, axis=0))


def _first_trial_step(step: float, s: np.ndarray, y: np.ndarray,
                      dnorm: float) -> float:
    """First trial length of a line search along the unit ascent direction.

    s is the displacement of the last accepted step and y the change of
    the projected gradient of -A_p over it.  With positive curvature,
    <s, y> > 0, this is the Barzilai-Borwein "short" step in the H^1
    metric, <s, y> / <y, P y> times the direction's norm dnorm before
    normalization (P the smoothing filter), capped at MAX_STEP_FACTOR *
    STEP0; otherwise it is step, the last accepted step doubled.
    """
    # numpy sums, not BLAS dots, whose round-off depends on the thread count
    sy = float(np.sum(s * y))
    if sy <= 0:
        return step
    ypy = float(np.sum(y * _smooth_direction(y)))
    return min(sy / ypy * dnorm, MAX_STEP_FACTOR * STEP0)


def maximize(p: float, init: PolyCurve, opts: OptimizeOptions) -> OptimizeResult:
    """Monotone projected gradient ascent on the p-th chord-power mean.

    The start is init placed on the manifold by project.  Steps follow
    the H^1-smoothed tangent-projected gradient.  Each line search
    starts from a Barzilai-Borwein step (_first_trial_step), retracts
    each trial by Newton projection onto the edge constraints
    (_retract), and halves the step until the functional does not
    decrease; a trial the retraction rejects, or one with two vertices
    closer than MIN_PAIR_DISTANCE, is halved too.  Each trial writes its
    chord table and its weights into the solve's _ChordBand, over n^2/2
    pairs; the accepted trial's weights give the next gradient.
    Terminates when the projected gradient norm falls below
    opts.tol_grad, when the line search finds no ascent, or after
    opts.max_iters iterations; result.reason says which.
    """
    require_finite_exponent(p)
    if init.dim != 2:
        raise ValueError("optimization is restricted to planar curves")
    v = project(init).vertices
    h = TWO_PI / v.shape[0]
    edges, lengths = _edges(v)
    # one chord table and one power of it per curve, in buffers of the
    # solve: the accepted candidate's weights give the next gradient,
    # which is read before the next line search overwrites them
    band = _ChordBand(v.shape[0])
    _require_regular_gradient(band.tabulate(v), p)
    value = band.power_mean(p)
    step = STEP0
    history = [(0, value, float("nan"))]
    reason = Termination.MAX_ITERS
    iters = 0
    last = None  # vertices and projected gradient of the previous iterate
    for iters in range(1, opts.max_iters + 1):
        frame = _TangentFrame(edges, lengths)
        pg = frame.project(band.gradient(v, p))
        gnorm = float(np.linalg.norm(pg))
        if gnorm < opts.tol_grad:
            reason = Termination.GRAD_TOL
            history.append((iters, value, gnorm))
            break
        direction = frame.project(_smooth_direction(pg))
        dnorm = float(np.linalg.norm(direction))
        if dnorm < 1e-15:
            # no ascent direction left to search along
            reason = Termination.LINE_SEARCH_STALLED
            history.append((iters, value, gnorm))
            break
        if last is not None:
            step = _first_trial_step(step, v - last[0], last[1] - pg, dnorm)
        direction /= dnorm
        accepted = False
        for _ in range(60):
            try:
                cand, cand_edges, cand_lengths = _retract(
                    v + step * direction, h, frame)
            except DegenerateCurveError:
                step *= 0.5
                continue
            if band.tabulate(cand) < MIN_PAIR_DISTANCE ** 2:
                step *= 0.5
                continue
            new_value = band.power_mean(p)
            if new_value >= value:
                last = (v, pg)
                v, edges, lengths = cand, cand_edges, cand_lengths
                value = new_value
                accepted = True
                break
            step *= 0.5
        history.append((iters, value, gnorm))
        if not accepted:
            # step shrank to nothing without finding ascent
            reason = Termination.LINE_SEARCH_STALLED
            break
        step *= 2.0
    return OptimizeResult(curve=PolyCurve(v), value=value, iterations=iters,
                          reason=reason, history=history)


def sweep(p_grid, opts: OptimizeOptions) -> list[shape_mod.SweepRecord]:
    """Continuation over an ascending grid of exponents.

    Each p warm-starts from the previous maximizer, with a fresh mode-2
    perturbation of amplitude opts.perturb so the circle branch can
    destabilize.  Failures become flagged rows; the sweep continues.
    Each record's seconds is the wall time of its perturbation and
    solve.
    """
    p_grid = list(p_grid)
    if sorted(p_grid) != p_grid:
        raise ValueError("p_grid must be sorted ascending")
    records = []
    current = make_circle(opts.n)
    for p in p_grid:
        start = time.perf_counter()
        try:
            init = perturb_mode2(current, opts.perturb)
            result = maximize(p, init, opts)
            seconds = time.perf_counter() - start
            current = result.curve
            canon = canonicalize(result.curve)
            fit = shape_mod.fit_conic(canon)
            records.append(shape_mod.SweepRecord(
                p=p,
                value=result.value,
                r=shape_mod.width_ratio(canon),
                efit_log10=float(np.log10(max(fit.residual, 1e-300))),
                eccentricity=fit.eccentricity,
                converged=result.converged,
                iterations=result.iterations,
                reason=result.reason.value,
                seconds=seconds,
                curve=canon,
            ))
        except (DegenerateCurveError, SingularGradientError):
            records.append(shape_mod.SweepRecord(
                p=p, value=float("nan"), r=float("nan"),
                efit_log10=float("nan"), eccentricity=float("nan"),
                converged=False, seconds=time.perf_counter() - start))
    return records


def crossover_segment_circle() -> float:
    """Exponent where the doubly covered segment overtakes the circle in
    average chord power, found by bisection on the closed forms."""
    # imported here, not at module level: scipy.optimize takes about
    # 0.3 s to import, and only this function uses it
    from scipy import optimize

    def gap(p):
        return segment_avg_chord(p) - circle_avg_chord(p)
    return float(optimize.brentq(gap, 2.5, 3.9, xtol=1e-8))
