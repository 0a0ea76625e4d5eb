"""Projected L-BFGS ascent for average chord-power functionals.

The feasible set is the discrete unit-speed manifold: closed planar
polygons with N equal edges and perimeter 2*pi.  Such a polygon is fixed,
up to translation, by the directions theta_i of its edges, so the ascent
works on those angles: edges of length 2*pi/N laid end to end in those
directions are equal by construction, and only closure, the two
constraints sum_i (cos theta_i, sin theta_i) = 0, is left to enforce
(geometry._close_angles, a Newton projection through a 2 x 2 solve).
The ascent reads the gradient of the p-th power mean of the chord
lengths, pulled back to the angles by one cumsum and projected onto the
tangent space of closure (geometry._angle_gradient).  The flat metric on the
angles damps vertex mode k by about 1/k^2, so stiff high-frequency
curvature does not force tiny steps.  Every curve of a solve lives in
that chart: the start curve's angles are read off its own edges and
closed like a trial's, with no resample.  Each iteration searches
along the limited-memory BFGS direction of the last few angle steps
with positive curvature (_lbfgs_direction), from the full step, and
backtracks by safeguarded quadratic interpolation.  Its initial matrix
comes from the regular n-gon's spectrum (_ngon_scales, in closed form
from one rfft of the n-gon's chord weights) when the n-gon is a strict
local maximizer, below the critical exponent
p_c(n) = 2 sqrt(3) - 7.909/n^2 + O(n^-4); there the first iteration is
already a quasi-Newton one.  Above it the initial matrix is gamma I.  A search fails when a trial's vertices equal the
iterate's, or once a backtracked step's predicted gain is below a few
ulps of the value, which no comparison can resolve; a failed
quasi-Newton search forgets its curvature pairs and searches once more
along the gradient before the ascent stops.  The stop test reads the
vertex gradient's part tangent to the edge-length constraints
(geometry._tangent_part, one tridiagonal solve).  The pairwise work,
the chord powers behind the value and the gradient, visits each
unordered vertex pair once, through a band of the Gram chord table
(_ChordBand), filled and reduced in cache-sized blocks of rows
(BAND_BLOCK) in one pass, so no solve holds a whole table.  Past the
critical exponent the circle loses its maximality and the iterates
stretch into ovals, so initial curves carry an explicit mode-2
perturbation to break the rotational symmetry.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DegenerateCurveError, InvalidDiscretizationError, \
    ParameterDomainError, SingularGradientError
from .geometry import MAX_COORDINATE, TWO_PI, PolyCurve, _angle_gradient, \
    _bind_lapack, _close_angles, _edges, _tangent_part, make_circle, \
    require_integer, require_real, require_vertex_count, resample_arclength, \
    squared_chord_matrix
from .functionals import circle_avg_chord, require_finite_exponent, \
    segment_avg_chord
from . import shape as shape_mod

#: minimum admissible distance between any two vertices during ascent
MIN_PAIR_DISTANCE = 1e-6

#: first trial step of the first line search
STEP0 = 1.0

#: cap on the length of a quasi-Newton first trial step, in units of STEP0
MAX_STEP_FACTOR = 1e3

#: curvature pairs (s, y) the L-BFGS direction keeps
MEMORY = 5

#: a line search ends once a backtracked step's predicted gain
#: step * F'(0) is below this many ulps of F = A_p^p: no value
#: comparison can resolve a smaller one
ROUNDOFF_ULPS = 4

#: bounds of a backtracked trial step, as fractions of the step whose
#: trial lowered the value (see _backtrack)
BACKTRACK_MIN = 0.1
BACKTRACK_MAX = 0.5

#: the largest exponent the ascent admits, 303: every chord of a curve
#: of perimeter 2*pi is at most pi, so the vertex and angle gradients,
#: and the differences of two in the L-BFGS sums, have norms below
#: 4 p pi^p, whose square must stay below the largest double.  The root
#: of p log(pi) + log(4 p) = log(max) / 2 is 303.8; one fixed-point step
#: from p = 300 lands within 0.02 of it
_MAX_EXPONENT = math.floor((0.5 * math.log(np.finfo(float).max)
                            - math.log(4 * 300)) / math.log(math.pi))


@dataclass(frozen=True)
class OptimizeOptions:
    """The settings of a run.  tol_grad bounds the absolute norm of the
    projected vertex gradient, which grows like p A_p^p: in practice no
    solve above p of about 5 gets below it, and those end
    LINE_SEARCH_STALLED at the round-off floor.  n and max_iters must be
    integers."""

    n: int = 256
    max_iters: int = 2000
    tol_grad: float = 1e-7
    perturb: float = 0.05

    def __post_init__(self):
        require_integer("max_iters", self.max_iters, 1, ParameterDomainError)
        require_vertex_count("n", self.n, 32)
        if not 0 < require_real("tol_grad", self.tol_grad,
                                ParameterDomainError) < math.inf:
            raise ParameterDomainError(
                f"need a finite tol_grad > 0: {self.tol_grad}")
        if not math.isfinite(require_real("perturb", self.perturb,
                                          ParameterDomainError)):
            raise ParameterDomainError(f"need finite perturb: {self.perturb}")


class Termination(enum.Enum):
    """Why maximize stopped."""

    #: the projected gradient norm fell below tol_grad
    GRAD_TOL = "grad_tol"
    #: no step along the ascent direction raised the value
    LINE_SEARCH_STALLED = "line_search_stalled"
    #: max_iters iterations ran
    MAX_ITERS = "max_iters"


class IterationRecord(NamedTuple):
    """One entry of OptimizeResult.history; entry 0 is the start curve."""

    iteration: int
    #: the power mean A_p after the iteration
    value: float
    #: projected-gradient norm at the iteration's start (nan at entry 0)
    gnorm: float
    #: line-search trials, each a closure of trial angles, the
    #: iteration made
    trials: int


@dataclass
class OptimizeResult:
    curve: PolyCurve
    value: float
    iterations: int
    reason: Termination
    history: list[IterationRecord] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        """True only when the gradient test stopped the ascent."""
        return self.reason is Termination.GRAD_TOL


def _require_exponent(p: float) -> None:
    """Raise ParameterDomainError unless 0 < p <= _MAX_EXPONENT."""
    require_finite_exponent(p)
    if p > _MAX_EXPONENT:
        raise ParameterDomainError(
            f"chord powers overflow double precision above p = "
            f"{_MAX_EXPONENT}, got {p}")


def _band_view(table: np.ndarray, half: int, start: int = 0) -> np.ndarray:
    """(rows, half) view of a (rows, width) table: its row i holds the
    table's entries start+i+1 .. start+i+half of row i."""
    row, item = table.strides
    return as_strided(table[:, start + 1:], (table.shape[0], half),
                      (row + item, item))


#: entries of _ChordBand's chord scratch buffer, 512 KB of doubles, about
#: the size of an L2 cache: the chord table is filled in blocks of rows
#: that fit it (two rows at least, so every block's product is a gemm),
#: each reduced while it is still in cache, so no solve holds a whole
#: table.  n <= 209 fits one block
BAND_BLOCK = 1 << 16

#: entries of the weight buffer in one row chunk of _ChordBand.gradient's
#: two products: small products, which give the same gradient at every
#: BLAS thread count, where whole-buffer ones did not (n = 1225, 1226,
#: 1227, 1500 at 1 and 2 OpenBLAS threads).  Apart from BAND_BLOCK, so
#: the block count still changes no bits; n <= 295 is one chunk
GRAD_CHUNK = 1 << 17


class _ChordBand:
    """The chord-power kernel of one solve: every unordered vertex pair
    once, in buffers reused by every curve of the solve; maximize builds
    one per solve.

    The chord table holds the squared distances of the n vertices to the
    vertices extended by their first n // 2 rows, so its row i, columns
    i+1 .. i+n//2, holds the chords of vertex i at the offsets
    1 .. n//2.  That band, n rows of n//2, holds each unordered pair
    once, except that at even n it holds each pair at offset n/2 twice;
    their weights are halved.  The table is never held whole: power_mean
    fills it in balanced blocks of at least two rows, each in one scratch
    buffer of at most BAND_BLOCK entries (or two rows), and writes the
    weights w = d2^((p-2)/2) of a block's band into the same band of a
    zeroed (n, n + n//2) buffer whose other entries stay zero, so the
    gradient is two products of that buffer with the vertices, taken in
    row chunks of GRAD_CHUNK entries.  The block views are built once,
    here.
    """

    __slots__ = ("weights", "band_weights", "sums", "blocks")

    def __init__(self, n: int):
        half = n // 2
        width = n + half
        self.weights = np.zeros((n, width))
        self.band_weights = _band_view(self.weights, half)
        self.sums = np.empty(n)
        count = min(half, -(-n // max(2, BAND_BLOCK // width)))
        scratch = np.empty(-(-n // count) * width)
        # per block: its vertex rows, its chord table, its band, and the
        # rows of the weights and the row sums it fills
        self.blocks = []
        for i in range(count):
            start, stop = n * i // count, n * (i + 1) // count
            table = scratch[:(stop - start) * width].reshape(-1, width)
            self.blocks.append((
                slice(start, stop), table, _band_view(table, half, start),
                self.band_weights[start:stop], self.sums[start:stop]))

    def power_mean(self, v: np.ndarray, p: float, floor: float = 0.0):
        """One pass over the chords of the vertices v, block by block:
        return their power mean ((1/N^2) sum_{i,k} |v_i - v_k|^p)^(1/p),
        with its weights w = d2^((p-2)/2) in the weight buffer.

        A block's band is clamped at zero when round-off left it a
        negative entry.  Once a block's closest pair is below floor the
        pass stops before powering that block and returns None; the
        weights are then partly overwritten.  floor 0.0 stops no pass."""
        n, half = self.band_weights.shape
        ext = np.concatenate((v, v[:half]))
        for rows, table, band, band_weights, sums in self.blocks:
            squared_chord_matrix(v[rows], ext, out=table)
            least = float(band.min())
            if least < 0.0:
                np.maximum(band, 0.0, out=band)
                least = 0.0
            if least < floor:
                return None
            np.power(band, (p - 2.0) / 2.0, out=band_weights)
            if n % 2 == 0:
                band_weights[:, -1] *= 0.5
            # row sums, then their sum: unlike a BLAS dot the same
            # round-off at every BLAS thread count and block shape
            np.einsum("ij,ij->i", band_weights, band, out=sums)
        return float((2.0 * self.sums.sum() / n ** 2) ** (1.0 / p))

    def gradient(self, v: np.ndarray, p: float) -> np.ndarray:
        """objective_grad at the vertices v from the weights of the last
        power_mean, which must be a whole pass over v."""
        n, dim = v.shape
        half = self.band_weights.shape[1]
        ext = np.empty((n + half, dim + 1))
        ext[:n, :dim] = v
        ext[n:, :dim] = v[:half]
        ext[:, dim] = 1.0
        # row m of the symmetric weight matrix W is row m of the buffer
        # plus its column m, with column n + m folded onto m, so W v and
        # the row sums of W come from products with the buffer and with
        # its transpose, a chunk of GRAD_CHUNK entries' rows at a time
        rows = np.empty((n, dim + 1))
        step = max(1, GRAD_CHUNK // self.weights.shape[1])
        for a in range(0, n, step):
            b = min(a + step, n)
            w = self.weights[a:b]
            np.matmul(w, ext, out=rows[a:b])
            if a == 0:
                cols = w.T @ ext[:b]
            else:
                cols += w.T @ ext[a:b]
        cols[:half] += cols[n:]
        sums = rows + cols[:n]
        # sum_k w_mk (v_m - v_k) = (row sums) v_m - (W v)_m
        return (2.0 * p / n ** 2) * (sums[:, dim:] * v - sums[:, :dim])


def _start_value(band: _ChordBand, v: np.ndarray, p: float) -> float:
    """The power mean of the vertices v by band's pass, which also fills
    its weights; below p = 2 a pair closer than MIN_PAIR_DISTANCE makes
    the chord-power gradient singular and raises SingularGradientError
    before its block is powered."""
    floor = MIN_PAIR_DISTANCE ** 2 if p < 2 else 0.0
    value = band.power_mean(v, p, floor)
    if value is None:
        raise SingularGradientError(
            "coincident vertices make the chord-power gradient singular "
            f"for p = {p} < 2")
    return value


def objective_grad(curve: PolyCurve, p: float) -> np.ndarray:
    """Gradient of the power sum (1/N^2) sum_{i,k} |v_i - v_k|^p with
    respect to the vertices: row m is
    (2p/N^2) sum_{k != m} |v_m - v_k|^(p-2) (v_m - v_k).  p must be
    positive and at most _MAX_EXPONENT, 303."""
    _require_exponent(p)
    band = _ChordBand(curve.n)
    _start_value(band, curve.vertices, p)
    return band.gradient(curve.vertices, p)


def project(curve: PolyCurve) -> PolyCurve:
    """Place a curve on the feasible manifold: equal edges, perimeter
    2*pi, centroid at the origin, by resample_arclength at the curve's
    own vertex count.  perturb_mode2 returns its bumped curve through
    it; maximize does not use it, since it closes the edge angles of its
    start as it closes every trial's (_close_angles).  A collapsed
    curve, or one whose edges the projection cannot equalize, raises
    DegenerateCurveError."""
    return resample_arclength(curve, curve.n)


def perturb_mode2(curve: PolyCurve, amplitude: float) -> PolyCurve:
    """Add a radial mode-2 bump (the first non-rigid harmonic) of a
    finite real amplitude and re-project; this seeds the symmetry
    breaking.  An amplitude that takes a coordinate beyond MAX_COORDINATE,
    which no PolyCurve holds, raises DegenerateCurveError before the bump
    is made."""
    if not math.isfinite(require_real("amplitude", amplitude,
                                      ParameterDomainError)):
        raise ParameterDomainError(f"need finite amplitude: {amplitude}")
    v = curve.vertices - curve.vertices.mean(axis=0)
    # the bump scales each vertex by at most 1 + |amplitude|
    if not float(np.abs(v).max()) * (1.0 + abs(amplitude)) <= MAX_COORDINATE:
        raise DegenerateCurveError(
            f"amplitude {amplitude} takes the coordinates beyond "
            f"{MAX_COORDINATE:.4g}, where the squared edge lengths overflow")
    theta = np.arctan2(v[:, 1], v[:, 0])
    factor = 1.0 + amplitude * np.cos(2 * theta)
    return project(PolyCurve(v * factor[:, None]))


def canonicalize(curve: PolyCurve) -> PolyCurve:
    """Quotient out rigid motions: centroid at the origin, principal
    axis along x, counterclockwise orientation, first vertex at the
    maximal x coordinate.

    The principal axis is the major eigenvector of the 2 x 2 second
    moments, in closed form: at angle phi = atan2(2 s_xy, s_xx - s_yy) / 2.
    The moments are taken of the centered vertices divided by a power of
    two above their largest |coordinate|, exactly, so that no square
    overflows; the axis does not depend on scale.  Both thresholds are
    in units of L/(2 pi), L the perimeter, so the canonical form of a
    scaled curve is the scaled canonical form; at the library's perimeter
    of 2 pi they are 1e-9 in coordinates.  The axis is reversed where its
    third moment is below -1e-9 (L/(2 pi))^3; the minor axis follows by
    a proper rotation, and is reflected only to make the signed area
    positive.  Of the vertices whose x lies within 1e-9 L/(2 pi) of the
    largest, the one with the largest y comes first.
    """
    v = curve.vertices - curve.vertices.mean(axis=0)
    if curve.dim != 2:
        raise InvalidDiscretizationError("canonicalize needs a planar curve")
    scale = math.ldexp(1.0, math.frexp(float(np.abs(v).max()))[1])
    u = v / scale
    # L/(2 pi) in u's units, in which both thresholds are compared
    unit = float(_edges(u)[1].sum()) / TWO_PI
    (sxx, sxy), (_, syy) = (u.T @ u).tolist()
    phi = 0.5 * math.atan2(2.0 * sxy, sxx - syy)
    c, s = math.cos(phi), math.sin(phi)
    if float(((u @ [c, s]) ** 3).sum()) < -1e-9 * unit ** 3:
        c, s = -c, -s
    w = u @ np.array([[c, -s], [s, c]])
    # twice the signed (shoelace) area
    if np.sum(w[:, 0] * np.roll(w[:, 1], -1)
              - np.roll(w[:, 0], -1) * w[:, 1]) < 0:
        w[:, 1] = -w[:, 1]
    x = w[:, 0]
    ties = np.flatnonzero(x >= x.max() - 1e-9 * unit)
    start = int(ties[np.argmax(w[ties, 1])])
    w *= scale
    return PolyCurve(np.roll(w, -start, axis=0))


def _remember(pairs: list, s: np.ndarray, y: np.ndarray) -> list:
    """pairs, oldest first, with (s, y, 1 / <s, y>) appended and the
    oldest dropped beyond MEMORY; pairs itself when <s, y> <= 0, where
    the pair would break the positive definiteness of the L-BFGS
    matrix."""
    # a numpy sum, not a BLAS dot, whose round-off depends on the
    # thread count
    sy = float((s * y).sum())
    if not sy > 0:
        return pairs
    return (pairs + [(s, y, 1.0 / sy)])[-MEMORY:]


def _ngon_curvature(p: float, n: int) -> np.ndarray:
    """The regular n-gon's second variation of -A_p^p in the edge
    angles, mode by mode: entry m - 2 is the curvature along rfft mode
    m, for m = 2..n//2.

    The n-gon is invariant under an index shift, so that Hessian is
    circulant.  Its mode-m eigenvalue, a sum over the chord offsets
    c = 1..n-1 of the n-gon's chords d_c = h sin(pi c/n) / sin(pi/n),
    h = 2 pi/n, reduces to cosine sums of the weights w_c = d_c^(p-2),
    W(k) = sum_c w_c cos(2 pi k c/n), all read off one rfft of w.  With
    Q(k) = (W(0) - W(k)) / (2 sin^2(pi k/n)) and
    X(m) = (W(1) - W(m)) / (2 sin(pi (m+1)/n) sin(pi (m-1)/n)), the
    eigenvalue of the Hessian of A_p^p is
    lambda_m = (p h^2/n^2) ((p/4) (Q(m+1) + Q(m-1)) - ((p-2)/2) X(m) - Q(1)),
    and the curvature is -lambda_m.  The n-gon's own angle gradient is
    zero by symmetry, so the closure constraints add no curvature.  The
    weights are powers of chords below about 2, so they overflow at no
    p the ascent admits.  O(n log n) time, O(n) memory.
    """
    h = TWO_PI / n
    half = n // 2
    angle = math.pi / n
    weights = np.zeros(n)
    weights[1:] = (h / math.sin(angle) * np.sin(angle * np.arange(1, n))) \
        ** (p - 2.0)
    # W(k) for k = 0 .. half + 1, the last as W(n - half - 1)
    cosine_sums = np.fft.rfft(weights).real
    cosine_sums = np.append(cosine_sums, cosine_sums[n - half - 1])
    # Q(k) for k = 1 .. half + 1; Q(0) is never read
    q = np.zeros(half + 2)
    q[1:] = (cosine_sums[0] - cosine_sums[1:]) / (
        2.0 * np.sin(angle * np.arange(1, half + 2)) ** 2)
    m = np.arange(2, half + 1)
    x = (cosine_sums[1] - cosine_sums[m]) / (
        2.0 * np.sin(angle * (m + 1)) * np.sin(angle * (m - 1)))
    return (p * h * h / n ** 2) * (
        q[1] + ((p - 2.0) / 2.0) * x - (p / 4.0) * (q[m + 1] + q[m - 1]))


def _ngon_scales(p: float, n: int):
    """The inverse of the regular n-gon's second variation of -A_p^p in
    the edge angles (_ngon_curvature), one scale per np.fft.rfft mode,
    or None unless every mode m >= 2 has positive curvature, that is
    unless the n-gon is a strict local maximizer (p below the critical
    exponent).  Modes 0 and 1, the rotation and the closure normals,
    carry no curvature; they get the smallest of the other scales.
    """
    curvature = _ngon_curvature(p, n)
    if not curvature.min() > 0:
        return None
    scales = np.empty(n // 2 + 1)
    scales[2:] = 1.0 / curvature
    scales[:2] = scales[2:].min()
    return scales


def _lbfgs_direction(ascent: np.ndarray, pairs: list,
                     scales: np.ndarray | None = None) -> np.ndarray:
    """The L-BFGS ascent direction H ascent in the edge angles, by the
    two-loop recursion (Nocedal, Math. Comp. 1980).

    H is the inverse-BFGS approximation of the Hessian of -A_p^p built
    from pairs, oldest first, each (s, y, 1 / <s, y>) with s a change of
    the angles and y the change of the tangent angle gradient of -A_p^p
    over it, and <s, y> > 0.  Given scales, the regular n-gon's inverse
    spectrum (_ngon_scales), it starts from the circulant H0 that
    multiplies rfft mode m by scales[m], applied by one rfft/irfft pair,
    and pairs may be empty; otherwise from H0 = gamma I with gamma the
    newest pair's <s, y> / <y, y> (Liu & Nocedal, Math. Prog. 1989).
    """
    # numpy sums, not BLAS dots, whose round-off depends on the thread count
    q = ascent.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * (s * q).sum()
        q -= alpha * y
        alphas.append(alpha)
    if scales is None:
        _, y, rho = pairs[-1]
        r = q / (rho * (y * y).sum())
    else:
        r = np.fft.irfft(np.fft.rfft(q) * scales, q.shape[0])
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        r += (alpha - rho * (y * r).sum()) * s
    return r


def _backtrack(step: float, slope: float, drop: float) -> float:
    """Next trial step after the trial at step lowered F = A_p^p by
    drop > 0, where slope = F'(0) along the search direction.

    It is the maximizer of the quadratic through F(0), F'(0) and
    F(step), slope step^2 / (2 (slope step + drop)), clamped to
    [BACKTRACK_MIN, BACKTRACK_MAX] * step (safeguarded interpolation,
    Nocedal & Wright, Numerical Optimization, section 3.5).  A slope
    that is not positive, round-off at a stationary point, gives the
    lower bound.
    """
    lower, upper = BACKTRACK_MIN * step, BACKTRACK_MAX * step
    if not slope > 0:
        return lower
    return min(max(slope * step * step / (2.0 * (slope * step + drop)),
                   lower), upper)


def _line_search(band: _ChordBand, p: float, h: float, theta: np.ndarray,
                 v: np.ndarray, value: float, direction: np.ndarray,
                 slope: float, step: float):
    """Search from the iterate (theta, v, value) along direction, whose
    F'(0) is slope, from the trial step.  Returns the trials it closed
    and the accepted (angles, vertices, value), or None when it failed:
    after 60 trials, at a trial whose vertices equal v, or once a
    backtracked step's predicted gain step * slope falls below
    ROUNDOFF_ULPS ulps of F = A_p^p."""
    power = value ** p
    floor = ROUNDOFF_ULPS * np.spacing(power)
    for trials in range(1, 61):
        try:
            cand_theta, cand = _close_angles(theta + step * direction, h)
        except DegenerateCurveError:
            cand = None
        if cand is not None and np.array_equal(cand, v):
            # the step no longer moves the iterate
            break
        # no value for angles that do not close, nor for a crowded pair
        new_value = None if cand is None else \
            band.power_mean(cand, p, MIN_PAIR_DISTANCE ** 2)
        if new_value is None:
            step *= 0.5
        elif new_value >= value:
            return trials, (cand_theta, cand, new_value)
        else:
            step = _backtrack(step, slope, power - new_value ** p)
        if step * slope < floor:
            break
    return trials, None


def maximize(p: float, init: PolyCurve,
             opts: OptimizeOptions) -> OptimizeResult:
    """Monotone projected L-BFGS ascent on the p-th chord-power mean, in
    the edge angles.

    The start is init's own edge angles, read off its edges and closed
    (_close_angles), as every trial's are; init's edge lengths, scale
    and position are not read, so it needs no resample.  Once per solve
    _ngon_scales gives the regular n-gon's spectrum in closed form, from
    one rfft of its chord weights.  Each iteration reads the tangent
    gradient in the angles (_angle_gradient) and turns it into the
    L-BFGS direction of the last MEMORY pairs with positive curvature
    (_lbfgs_direction).  When every mode m >= 2 of the spectrum has
    positive curvature (p below the critical exponent) its inverse is
    the initial matrix H0, and the first iteration searches along H0
    times the gradient; otherwise H0 = gamma I, and with no pair stored
    the search is along the unit gradient from STEP0.  A quasi-Newton
    search tries the full step first, its length capped at
    MAX_STEP_FACTOR * STEP0.  Each trial closes its angles and builds
    its vertices (_close_angles).  A trial that lowers the functional is
    followed by the maximizer of the quadratic through F(0), F'(0) and
    the trial's F, with F = A_p^p, clamped to [BACKTRACK_MIN,
    BACKTRACK_MAX] times the step (_backtrack); a trial whose angles do
    not close, or one with two vertices closer than MIN_PAIR_DISTANCE,
    halves the step.  The first
    trial whose value does not decrease is accepted.  A search fails
    after 60 trials, as soon as a trial's vertices equal the iterate's,
    or once a backtracked step's predicted gain is below ROUNDOFF_ULPS
    ulps of F.  A failed quasi-Newton search clears the pairs and
    searches once more along the unit gradient from STEP0; a failed
    gradient search stops the ascent.  Each trial makes one pass of the
    solve's _ChordBand over its n^2/2 pairs: it fills the chord table in
    blocks of at most BAND_BLOCK entries, each powered into the weight
    buffer and summed before the next, and stops before powering a block
    with a pair closer than MIN_PAIR_DISTANCE.  The accepted trial's
    weights give the next gradient, so a solve makes one chord table
    more than its trials, for the start curve.  The stop test reads the
    projected gradient in the vertices, from one LAPACK solve per
    iteration.  Terminates when that norm falls below
    opts.tol_grad, an absolute bound that in practice no solve above p
    of about 5 reaches, when the line search finds no ascent, or after
    opts.max_iters iterations; result.reason says which, and
    result.history holds an IterationRecord per iteration.  p must be
    positive and at most _MAX_EXPONENT, 303, above which the squared
    gradient norms overflow; other exponents raise ParameterDomainError.
    """
    _require_exponent(p)
    if init.dim != 2:
        raise InvalidDiscretizationError("maximize needs a planar curve")
    h = TWO_PI / init.n
    edges = _edges(init.vertices)[0]
    theta, v = _close_angles(np.arctan2(edges[:, 1], edges[:, 0]), h)
    scales = _ngon_scales(p, v.shape[0])
    # one chord table and one power of it per curve, in buffers of the
    # solve: the accepted candidate's weights give the next gradient,
    # which is read before the next line search overwrites them
    band = _ChordBand(v.shape[0])
    value = _start_value(band, v, p)
    history = [IterationRecord(0, value, float("nan"), 0)]
    reason = Termination.MAX_ITERS
    iters = 0
    # angles and their tangent gradient at the previous iterate
    last = None
    pairs = []
    for iters in range(1, opts.max_iters + 1):
        grad = band.gradient(v, p)
        # a numpy sum, not the BLAS dot of np.linalg.norm, whose
        # round-off depends on the thread count on long vectors
        tangent = _tangent_part(v, grad)
        gnorm = math.sqrt((tangent * tangent).sum())
        if gnorm < opts.tol_grad:
            reason = Termination.GRAD_TOL
            history.append(IterationRecord(iters, value, gnorm, 0))
            break
        ascent = _angle_gradient(theta, grad, h)
        # numpy sums, like the inner products of _lbfgs_direction
        dnorm = math.sqrt((ascent * ascent).sum())
        if dnorm < 1e-15:
            # no ascent direction left to search along
            reason = Termination.LINE_SEARCH_STALLED
            history.append(IterationRecord(iters, value, gnorm, 0))
            break
        if last is not None:
            pairs = _remember(pairs, theta - last[0], last[1] - ascent)
        trials, found = 0, None
        if pairs or scales is not None:
            direction = _lbfgs_direction(ascent, pairs, scales)
            length = math.sqrt((direction * direction).sum())
            trials, found = _line_search(
                band, p, h, theta, v, value, direction,
                float((ascent * direction).sum()),
                min(1.0, MAX_STEP_FACTOR * STEP0 / length))
            if found is None:
                # restart from the gradient, with no stale curvature
                pairs = []
        if found is None:
            more, found = _line_search(band, p, h, theta, v, value,
                                       ascent / dnorm, dnorm, STEP0)
            trials += more
        if found is not None:
            last = (theta, ascent)
            theta, v, value = found
        history.append(IterationRecord(iters, value, gnorm, trials))
        if found is None:
            # no step along the gradient found ascent
            reason = Termination.LINE_SEARCH_STALLED
            break
    return OptimizeResult(curve=PolyCurve(v), value=value, iterations=iters,
                          reason=reason, history=history)


def sweep(p_grid, opts: OptimizeOptions) -> list[shape_mod.SweepRecord]:
    """Continuation over an ascending grid of exponents.

    Each p warm-starts from the previous maximizer, with a fresh mode-2
    perturbation of amplitude opts.perturb so the circle branch can
    destabilize.  Failures become flagged rows; the sweep continues.
    Each record's seconds is the wall time of its perturbation and
    solve; LAPACK's dptsv is looked up in the library numpy maps
    (geometry._bind_lapack) and numpy.fft imported before the first
    clock starts, so no record holds a one-off load.  An exponent that
    maximize refuses raises ParameterDomainError before the first
    solve.
    """
    p_grid = list(p_grid)
    for p in p_grid:
        _require_exponent(p)
    if sorted(p_grid) != p_grid:
        raise ParameterDomainError("p_grid must be sorted ascending")
    # the one-off loads stay out of every record's seconds: the LAPACK
    # lookup, and numpy.fft, which numpy imports at _ngon_scales' first
    # rfft
    _bind_lapack()
    import numpy.fft  # noqa: F401
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
    average chord power, by bisection of [2.5, 3.9] on the closed forms."""
    bracket = [2.5, 3.9]
    while bracket[1] - bracket[0] > 1e-8:
        mid = 0.5 * sum(bracket)
        bracket[segment_avg_chord(mid) >= circle_avg_chord(mid)] = mid
    return 0.5 * sum(bracket)
