"""Discrete closed curves with the unit-speed normalization.

A curve is stored as N vertices in R^2 or R^3, cyclically closed, with
vertex i sitting at the uniform parameter value t_i = 2*pi*i/N.  All
constructors return curves whose edges are equal in length (relative
spread below EDGE_SPREAD_TOL) and whose perimeter is exactly renormalized
to 2*pi, so integrals over the curve become uniform Riemann sums with
weight 2*pi/N.

Two routines make the edges equal.  An analytic trace (make_ellipse,
random_closed_curve) gets vertices on the trace with equal chords
(_inscribe_equal_chords); a polygon (resample_arclength, the optimizer's
start curves) is Newton-projected onto the edge constraints (_retract),
one tridiagonal LAPACK solve per step (_edge_normal).  Both measure
edges one way (_edges) and respace by one equal-arclength pass
(_equal_arclength).  The optimizer's trials are planar polygons built
from their edge angles, whose edges are equal by construction; only
their closure is Newton-projected (_close_angles).  Every Newton loop
stops by one rule (_settle).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (DegenerateCurveError, InvalidDiscretizationError,
                     ParameterDomainError)

TWO_PI = 2.0 * np.pi

#: minimum vertex count for a meaningful closed polygon
MIN_VERTICES = 8

#: relative tolerance on the perimeter after normalization
PERIMETER_TOL = 1e-9

#: relative tolerance on edge-length spread (discrete unit speed)
EDGE_SPREAD_TOL = 1e-6

#: pass cap and target edge spread of the equal-chord inscriber
INSCRIBE_MAX_PASSES, INSCRIBE_TOL = 80, 1e-13

#: step cap and target of the Newton projection onto the edge constraints
#: (_retract), on the largest edge-length error relative to 2*pi/N
RETRACT_MAX_STEPS, RETRACT_TOL = 20, 1e-14


@dataclass(frozen=True)
class PolyCurve:
    """Closed polygon approximating a unit-speed curve of length 2*pi.

    vertices has shape (n, dim) with dim 2 or 3; row i is the point at
    parameter 2*pi*i/n, and indices are cyclic: vertex n is vertex 0.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        object.__setattr__(self, "vertices", v)
        if v.ndim != 2 or v.shape[1] not in (2, 3):
            raise InvalidDiscretizationError(
                f"vertices must have shape (n, 2) or (n, 3), got {v.shape}"
            )
        if v.shape[0] < MIN_VERTICES:
            raise InvalidDiscretizationError(
                f"need at least {MIN_VERTICES} vertices, got {v.shape[0]}"
            )
        if not np.isfinite(v).all():
            raise InvalidDiscretizationError("vertices must be finite")

    @property
    def n(self) -> int:
        return self.vertices.shape[0]

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def edges(self) -> np.ndarray:
        """Edge vectors, edge i running from vertex i to vertex i+1."""
        return _edges(self.vertices)[0]

    def edge_lengths(self) -> np.ndarray:
        return _edges(self.vertices)[1]

    def perimeter(self) -> float:
        return float(self.edge_lengths().sum())

    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def validate(self) -> None:
        """Raise InvalidDiscretizationError if the unit-speed invariants fail."""
        lengths = self.edge_lengths()
        perim = lengths.sum()
        if abs(perim - TWO_PI) > PERIMETER_TOL * TWO_PI:
            raise InvalidDiscretizationError(
                f"perimeter {perim} differs from 2*pi beyond tolerance"
            )
        mean = perim / self.n
        spread = (lengths.max() - lengths.min()) / mean
        if spread > EDGE_SPREAD_TOL:
            raise InvalidDiscretizationError(
                f"edge-length relative spread {spread:.3e} exceeds {EDGE_SPREAD_TOL}"
            )


def lambda_chord(s):
    """Chord length subtended by arclength s on the unit circle: 2 sin(s/2)."""
    return 2.0 * np.sin(np.asarray(s) / 2.0)


def squared_chord_matrix(vertices: np.ndarray, others=None,
                         out=None) -> np.ndarray:
    """Squared distances |v_i - o_k|^2 from each vertex v_i to each point
    o_k of others, via the Gram matrix, as an (n, len(others)) table
    written into out when it is given.  others defaults to the vertices
    themselves, and then the diagonal is exactly zero.  Cancellation can
    leave round-off of either sign where two points (nearly) coincide;
    the table is not clamped, so a reader that takes roots or fractional
    powers clamps what it reads (optimizer._ChordBand.tabulate,
    functionals.avg_chord_p)."""
    n, dim = vertices.shape
    sq = np.einsum("id,id->i", vertices, vertices)
    if others is None:
        others, others_sq = vertices, sq
    else:
        others_sq = np.einsum("id,id->i", others, others)
    # |v_i|^2 - 2 v_i.o_k + |o_k|^2 as one product of an (n, dim + 2)
    # factor [-2v, |v|^2, 1] and a (dim + 2, m) factor [o, 1, |o|^2]^T,
    # with no n x n pass for the two squared-norm terms; the right
    # factor is stored in the product's order, so BLAS reads it
    # untransposed
    left = np.empty((n, dim + 2))
    left[:, :dim] = -2.0 * vertices
    left[:, dim] = sq
    left[:, dim + 1] = 1.0
    right = np.empty((dim + 2, others.shape[0]))
    right[:dim] = others.T
    right[dim] = 1.0
    right[dim + 1] = others_sq
    d2 = np.matmul(left, right, out=out)
    if others is vertices:
        np.fill_diagonal(d2, 0.0)
    return d2


#: table entries per block in the reductions over the offset-indexed
#: chord table: a block holds max(1, OFFSET_BLOCK // n) offsets, so its
#: arrays stay cache-sized at every n
OFFSET_BLOCK = 1 << 14


def half_offsets(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets k = 1..floor(n/2) and how many ordered vertex pairs each
    stands for: offsets k and n - k hold the same chords, so weight 2,
    except k = n/2 at even n, which is its own partner, weight 1."""
    ks = np.arange(1, n // 2 + 1)
    weights = np.full(ks.shape, 2.0)
    if n % 2 == 0:
        weights[-1] = 1.0
    return ks, weights


def grid_offsets(k, n: int) -> np.ndarray:
    """k, an int or an array of ints, as a 1-D intp array of offsets in
    0..n-1.  An empty k, of any dtype, gives an empty array; any other k
    that is not of an integer dtype raises ParameterDomainError."""
    ks = np.atleast_1d(np.asarray(k))
    if ks.size and ks.dtype.kind not in "iu":
        raise ParameterDomainError(
            f"grid offsets must be integers, got {ks.dtype} ({k!r})")
    return (ks % n).astype(np.intp, copy=False)


def offset_arcs(n: int, ks) -> np.ndarray:
    """Arc distance min(s, 2*pi - s), s = 2*pi*k/n, for each offset k."""
    s = (np.asarray(ks) % n) * (TWO_PI / n)
    return np.minimum(s, TWO_PI - s)


def _offset_index(block: np.ndarray):
    """block, offsets in 0..n-1, as a slice when they rise by one constant
    step (a single offset too), so that indexing with it gives a view;
    any other block as itself, which indexing gathers."""
    step = block[1] - block[0] if len(block) > 1 else 1
    if step > 0 and (np.diff(block) == step).all():
        return slice(block[0], block[-1] + 1, step)
    return block


def offset_chord_blocks(vertices: np.ndarray, ks):
    """Yield (rows, table) over the offsets ks, a block at a time: row r
    of table holds the squared chords |v_{i+k} - v_i|^2, indices cyclic,
    of the offset k = ks[rows][r].  The one builder of chords by offset:
    exact vertex differences keep short chords at full relative
    precision, unlike the Gram form of squared_chord_matrix.  A block of
    evenly spaced ascending offsets (as from half_offsets) reads its
    windows of the vertex coordinates through a slice, with no gathered
    copy; any other block gathers them.  The arithmetic is the same, so
    the tables are too, bit for bit."""
    n, dim = vertices.shape
    # windows[d, k] is the d-th coordinate column rolled by -k: a
    # read-only view of the doubled coordinate rows
    doubled = np.concatenate([vertices, vertices]).T.copy()
    row, item = doubled.strides
    windows = as_strided(doubled, (dim, n, n), (row, item, item),
                         writeable=False)
    ks = np.asarray(ks) % n
    step = max(1, OFFSET_BLOCK // n)
    for start in range(0, len(ks), step):
        rows = slice(start, start + step)
        diff = np.subtract(windows[:, _offset_index(ks[rows])],
                           windows[:, :1])
        diff *= diff
        # summed coordinate by coordinate, in the order of np.linalg.norm
        table = diff[0]
        for sq in diff[1:]:
            table += sq
        yield rows, table


def _next(a: np.ndarray) -> np.ndarray:
    """Rows shifted cyclically up by one: row i holds a[i + 1]."""
    return np.concatenate((a[1:], a[:1]))


def _edges(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge vectors v_{i+1} - v_i of a closed polygon and their lengths."""
    edges = _next(v) - v
    # summed coordinate by coordinate, in the order of np.linalg.norm:
    # its lengths bit for bit (an einsum sum differs in 3-D)
    return edges, np.sqrt(sum((edges * edges).T))


def _equal_arclength(lengths: np.ndarray, columns, m: int) -> list:
    """Each of columns, values at the vertices of a closed polygon with
    edge lengths lengths and again at its closing vertex, interpolated at
    m points of equal arclength from vertex 0.  A polygon shorter than
    1e-6 raises DegenerateCurveError."""
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    if cum[-1] < 1e-6:
        raise DegenerateCurveError("curve perimeter collapsed below 1e-6")
    targets = np.arange(m) * (cum[-1] / m)
    return [np.interp(targets, cum, col) for col in columns]


def _settle(state: tuple, step, tol: float, cap: int, error: type,
            what: str) -> tuple:
    """Apply step to state, a tuple ending in its relative error, until
    the error is below tol, or at round-off: a step that fails to halve
    it within EDGE_SPREAD_TOL returns the better of its two states.  An
    error that grows beyond EDGE_SPREAD_TOL, or cap steps, raise error
    with a message starting with what."""
    for steps in range(cap + 1):
        err = state[-1]
        if err < tol:
            return state
        if steps == cap:
            raise error(f"{what} {err:.3e} after {steps} steps")
        new = step(state)
        new_err = new[-1]
        if new_err <= EDGE_SPREAD_TOL and not new_err <= 0.5 * err:
            return new if new_err < err else state
        if not new_err <= err:
            raise error(f"{what} diverged: {err:.3e} -> {new_err:.3e}")
        state = new


#: LAPACK's solver of symmetric positive definite tridiagonal systems,
#: bound by the first _edge_normal: scipy.linalg takes about 0.35 s to
#: import, and nothing else uses it
_ptsv = None


def _bind_lapack() -> None:
    global _ptsv
    from scipy.linalg.lapack import dptsv
    _ptsv = dptsv


def _edge_normal(u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """J^T (J J^T)^-1 c for the Jacobian J of the edge lengths of a
    closed polygon whose unit edge directions are u: the normal vertex
    field whose change of the edge lengths, to first order, is c.
    Dependent edge constraints raise DegenerateCurveError."""
    if _ptsv is None:
        _bind_lapack()
    n = u.shape[0]
    # constraint i: |v_{i+1} - v_i|; Jacobian rows touch vertices i, i+1.
    # J J^T is cyclic tridiagonal: 2 on the diagonal, coupling[i] at
    # (i, i+1) and coupling[n-1] in the corners.  It equals B - w w^T
    # with w = e_0 - coupling[n-1] e_{n-1} and B tridiagonal, positive
    # definite since J J^T is; Sherman-Morrison turns the cyclic solve
    # into one tridiagonal solve with B on the two right-hand sides c, w
    coupling = -np.einsum("id,id->i", u, _next(u))
    corner = coupling[-1]
    diag = np.full(n, 2.0)
    diag[0], diag[-1] = 3.0, 2.0 + corner ** 2
    rhs = np.zeros((2, n))
    rhs[0], rhs[1, 0], rhs[1, -1] = c, 1.0, -corner
    # rhs.T is the Fortran-ordered (n, 2) array LAPACK solves in place
    _, _, x, info = _ptsv(diag, coupling[:-1], rhs.T, overwrite_d=1,
                          overwrite_e=1, overwrite_b=1)
    y, z = x.T
    denom = 1.0 - (z[0] - corner * z[-1])
    # zero for a doubly covered segment, whose cyclic J J^T is singular
    # although B factors; NaN fails the comparison too
    if info != 0 or not 0.0 < abs(denom) < np.inf:
        raise DegenerateCurveError(
            "edge constraints of the curve are not independent")
    mult = y + z * ((y[0] - corner * y[-1]) / denom)
    t = mult[:, None] * u
    # J^T mult: vertex m gets t[m-1] - t[m]
    return np.concatenate((t[-1:], t[:-1])) - t


def _tangent_part(v: np.ndarray, field: np.ndarray) -> np.ndarray:
    """The component of the vertex field tangent to the equal-edge-length
    constraints at the vertices v: field minus the normal field of its
    edge derivative."""
    edges, lengths = _edges(v)
    u = edges / lengths[:, None]
    return field - _edge_normal(
        u, np.einsum("id,id->i", u, _next(field) - field))


def _retract(v: np.ndarray, h: float) -> np.ndarray:
    """Newton projection of the vertices v onto the edge constraints
    |v_{i+1} - v_i| = h, then centroid to the origin.

    Each step is v <- v - J^T (J J^T)^-1 c(v) with c_i = |v_{i+1} - v_i| - h,
    with J at the current point (_edge_normal).  The steps stop by
    _settle on max |c_i| / h; dependent constraints and _settle's
    failures raise DegenerateCurveError.
    """
    def measured(v):
        edges, lengths = _edges(v)
        return v, edges, lengths, np.abs(lengths - h).max() / h

    def newton(state):
        v, edges, lengths, _ = state
        return measured(
            v - _edge_normal(edges / lengths[:, None], lengths - h))

    v = _settle(measured(v), newton, RETRACT_TOL, RETRACT_MAX_STEPS,
                DegenerateCurveError,
                "Newton projection: edge-length error")[0]
    # the arithmetic of v.mean(axis=0), without its per-call overhead
    return v - v.sum(axis=0) / v.shape[0]


def _closure_normal(cos: np.ndarray, sin: np.ndarray, rhs) -> np.ndarray:
    """J^T (J J^T)^-1 rhs for the Jacobian J of the closure gap
    sum_i (cos theta_i, sin theta_i) of the edge angles theta, whose two
    rows are the normal fields -sin theta and cos theta: the least-norm
    angle field whose change of the gap, to first order, is the 2-vector
    rhs.  The 2 x 2 Gram matrix J J^T is solved in closed form; it is
    singular when all edges are parallel, which raises
    DegenerateCurveError."""
    # numpy sums, not BLAS dots, whose round-off depends on the thread count
    ss, cc, sc = (sin * sin).sum(), (cos * cos).sum(), (sin * cos).sum()
    # J J^T = [[ss, -sc], [-sc, cc]]
    det = ss * cc - sc * sc
    if not det > 0:
        raise DegenerateCurveError(
            "closure constraints of the curve are not independent")
    along_sin = (cc * rhs[0] + sc * rhs[1]) / det
    along_cos = (sc * rhs[0] + ss * rhs[1]) / det
    return along_cos * cos - along_sin * sin


def _close_angles(theta: np.ndarray, h: float):
    """Newton projection of the edge angles theta onto closure, and the
    polygon they give.

    The polygon has vertex 0 at the origin and vertex k at
    h sum_{i<k} (cos theta_i, sin theta_i), then its centroid moved to
    the origin, so every edge but the last has length h by construction.
    The last closes up to the gap sum_i (cos theta_i, sin theta_i),
    whose norm bounds its length error relative to h.  Each step is
    theta <- theta - J^T (J J^T)^-1 gap (_closure_normal); the steps stop
    by _settle on the gap's norm, and their failures raise
    DegenerateCurveError.  Returns the closed angles and the vertices.
    """
    def measured(theta):
        cos, sin = np.cos(theta), np.sin(theta)
        gap = (cos.sum(), sin.sum())
        return theta, cos, sin, gap, math.hypot(*gap)

    def newton(state):
        theta, cos, sin, gap, _ = state
        return measured(theta - _closure_normal(cos, sin, gap))

    theta, cos, sin, _, _ = _settle(
        measured(theta), newton, RETRACT_TOL, RETRACT_MAX_STEPS,
        DegenerateCurveError, "closure: gap")
    n = theta.shape[0]
    v = np.empty((n, 2))
    v[0] = 0.0
    np.cumsum(cos[:-1], out=v[1:, 0])
    np.cumsum(sin[:-1], out=v[1:, 1])
    v *= h
    return theta, v - v.sum(axis=0) / n


def _angle_gradient(theta: np.ndarray, grad: np.ndarray,
                    h: float) -> np.ndarray:
    """Tangent gradient in the edge angles theta of a function of the
    vertices that _close_angles builds from them, given its vertex
    gradient grad.

    Vertex k moves with theta_i, i < k, along h (-sin theta_i,
    cos theta_i), so the derivative in theta_i is that field dotted with
    sum_{k>i} grad_k.  The prefix sums of one cumsum stand in for those
    tails: they differ by the constant sum of grad, whose part lies in
    the span of the closure normals, and the projection onto the tangent
    space of closure (removing J^T (J J^T)^-1 J of the field) takes that
    span out.
    """
    cos, sin = np.cos(theta), np.sin(theta)
    prefix = np.cumsum(grad, axis=0)
    field = h * (sin * prefix[:, 0] - cos * prefix[:, 1])
    return field - _closure_normal(
        cos, sin, (-(sin * field).sum(), (cos * field).sum()))


def resample_arclength(curve: PolyCurve, m: int) -> PolyCurve:
    """Place m vertices with equal edges and perimeter 2*pi along the
    polygonal trace, centroid at the origin.

    One pass spaces m points at equal arclength along the closed
    polyline and scales them to perimeter 2*pi; Newton projection onto
    the edge constraints (_retract) then makes the edges equal.  So an
    already equal-edge curve at fixed m maps to itself, up to its
    centroid.  A collapsed curve, dependent edge constraints or a
    projection that does not converge raise DegenerateCurveError, so the
    result always has unit speed.
    """
    if m < MIN_VERTICES:
        raise InvalidDiscretizationError(f"need m >= {MIN_VERTICES}, got {m}")
    closed = np.vstack([curve.vertices, curve.vertices[:1]])
    pts = np.column_stack(_equal_arclength(curve.edge_lengths(), closed.T, m))
    pts *= TWO_PI / _edges(pts)[1].sum()
    return PolyCurve(_retract(pts, TWO_PI / m))


def make_circle(n: int) -> PolyCurve:
    """Regular n-gon with perimeter exactly 2*pi, centered at the origin.

    The circumradius is (pi/n)/sin(pi/n), slightly above 1, so that the
    inscribed polygon has the full length of the unit circle.
    """
    if n < MIN_VERTICES:
        raise InvalidDiscretizationError(f"need n >= {MIN_VERTICES}, got {n}")
    r = (np.pi / n) / np.sin(np.pi / n)
    t = TWO_PI * np.arange(n) / n
    return PolyCurve(r * np.column_stack([np.cos(t), np.sin(t)]))


def make_ellipse(axis_ratio: float, n: int) -> PolyCurve:
    """Ellipse with semi-axis ratio axis_ratio, with equal edges.

    The vertices lie on the trace (axis_ratio cos t, sin t), scaled to
    perimeter 2*pi, with equal chords between them (the equal-chord
    inscriber, as for random_closed_curve); vertex 0 is on the major
    axis.  For axis_ratio > 1 this is the unit-speed reparameterization
    of the elliptical trace, not the uniform-parameter ellipse.  Raises
    InvalidDiscretizationError when the inscribed edges are not equal
    within EDGE_SPREAD_TOL, as for a stretched ellipse at a small odd n.
    """
    if axis_ratio < 1:
        raise InvalidDiscretizationError(
            f"axis_ratio must be >= 1, got {axis_ratio}")

    def trace(t):
        return np.column_stack([axis_ratio * np.cos(t), np.sin(t)])

    return PolyCurve(_inscribe_equal_chords(trace, n))


def make_double_segment(n: int) -> PolyCurve:
    """Degenerate closed curve traversing a segment of length pi twice.

    Runs 0 -> pi -> 0 along the x-axis with n equal steps of 2*pi/n.
    Non-embedded by design: parameters t and 2*pi - t coincide in space.
    """
    if n < MIN_VERTICES:
        raise InvalidDiscretizationError(f"need n >= {MIN_VERTICES}, got {n}")
    if n % 2 != 0:
        raise InvalidDiscretizationError(
            f"double segment needs even n, got {n}")
    half = n // 2
    up = np.arange(half + 1) * (np.pi / half)
    x = np.concatenate([up, up[-2:0:-1]])
    return PolyCurve(np.column_stack([x, np.zeros(n)]))


def _inscribe_equal_chords(trace, n: int, start=None) -> np.ndarray:
    """Place n points exactly on a smooth closed trace t -> R^d so that
    consecutive chords are equal, then scale to perimeter 2*pi.

    Keeping the vertices on the analytic trace (rather than on its
    chords) preserves the exponential decay of the DFT spectrum, which
    the Fourier-side checks rely on.  start, when given, is the trace on
    the uniform grid t_i = 2*pi*i/n: the points of the first pass.  The
    passes stop by _settle on the edge spread; its failures raise
    InvalidDiscretizationError.
    """
    def measured(t, pts):
        lengths = _edges(pts)[1]
        return t, pts, lengths, np.ptp(lengths) / (lengths.sum() / n)

    def respace(state):
        t, _, lengths, _ = state
        t, = _equal_arclength(lengths, [np.append(t, t[0] + TWO_PI)], n)
        return measured(t, trace(t))

    t = TWO_PI * np.arange(n) / n
    _, pts, lengths, _ = _settle(
        measured(t, trace(t) if start is None else start), respace,
        INSCRIBE_TOL, INSCRIBE_MAX_PASSES, InvalidDiscretizationError,
        "equal-chord inscription: edge spread")
    return pts * (TWO_PI / lengths.sum())


#: points of the speed grid on which random_closed_curve rejects draws
SPEED_GRID = 4096

#: coefficient scale ratio of successive harmonics in random_closed_curve
AMPLITUDE_DECAY = 0.4


def _harmonics(t: np.ndarray, K: int) -> np.ndarray:
    """cos(k t) and sin(k t) for k = 1..K as one (len(t), 2K) array, row
    i holding cos t_i, sin t_i, cos 2t_i, sin 2t_i, ...: the real and
    imaginary parts of the powers z^k of z = exp(i t), from one complex
    exponential and K - 1 complex products, z^k = z^(k-1) z, not 2K
    trigonometric calls per point."""
    z = np.exp(1j * t)
    out = np.empty((z.size, K), dtype=complex)
    out[:, 0] = z
    for k in range(1, K):
        np.multiply(out[:, k - 1], z, out=out[:, k])
    return out.view(float)


@lru_cache(maxsize=8)
def _harmonic_table(m: int, K: int) -> np.ndarray:
    """_harmonics on the uniform grid t_i = 2*pi*i/m, read-only.  It
    depends on no curve, so random_closed_curve reads it from here on
    every draw."""
    table = _harmonics(TWO_PI * np.arange(m) / m, K)
    table.flags.writeable = False
    return table


def random_closed_curve(seed: int, K: int = 6, n: int = 512,
                        dim: int = 2) -> PolyCurve:
    """Random smooth closed curve from Fourier modes up to harmonic K.

    Coefficients for harmonic k have magnitude proportional to
    AMPLITUDE_DECAY**|k|; vertices are placed on the smooth trace with
    equal chord lengths and perimeter 2*pi.  Deterministic per seed;
    draws whose speed dips below 0.35 of its mean, and draws the
    inscriber rejects (a perimeter below 1e-6, or unequal edges), fall
    through to the next substream.  The trace takes cos(kt) and sin(kt)
    from the powers of exp(it) (_harmonics); on the SPEED_GRID speed grid
    and on the inscriber's first, uniform pass they come from a small
    read-only cache keyed by grid size and K (_harmonic_table), built by
    the same function, so the vertices are those of the trace bit for
    bit.  n below MIN_VERTICES, dim other than 2 or 3, and K below 1
    raise InvalidDiscretizationError before any draw.
    """
    if K < 1:
        raise InvalidDiscretizationError(f"need K >= 1, got {K}")
    if n < MIN_VERTICES:
        raise InvalidDiscretizationError(f"need n >= {MIN_VERTICES}, got {n}")
    if dim not in (2, 3):
        raise InvalidDiscretizationError(f"need dim 2 or 3, got {dim}")
    ks = np.arange(1, K + 1)[:, None]
    for attempt in range(32):
        rng = np.random.default_rng((seed, attempt))
        scale = 0.25 * AMPLITUDE_DECAY ** ks
        a = rng.normal(size=(K, dim)) * scale
        b = rng.normal(size=(K, dim)) * scale
        # base circle in the first two coordinates keeps the speed bounded
        # away from zero, so the chord-equalized sampling stays smooth
        a[0, 0] += 1.0
        b[0, 1] += 1.0
        # rows a_1, b_1, a_2, b_2, ... against the columns of _harmonics,
        # and those of the derivative, k b_k cos kt - k a_k sin kt
        coef = np.stack([a, b], axis=1).reshape(2 * K, dim)
        dcoef = np.stack([ks * b, -ks * a], axis=1).reshape(2 * K, dim)

        def trace(t, coef=coef):
            return _harmonics(t, K) @ coef

        speed = np.linalg.norm(_harmonic_table(SPEED_GRID, K) @ dcoef,
                               axis=1)
        if speed.min() < 0.35 * speed.mean():
            continue
        try:
            return PolyCurve(_inscribe_equal_chords(
                trace, n, start=_harmonic_table(n, K) @ coef))
        except (DegenerateCurveError, InvalidDiscretizationError):
            continue
    raise DegenerateCurveError(
        f"no non-degenerate sample found for seed {seed}")


def save_curve(curve: PolyCurve, path) -> None:
    """Write the curve JSON file: {"dim": d, "n": N, "vertices": [...]}."""
    payload = {
        "dim": curve.dim,
        "n": curve.n,
        "vertices": curve.vertices.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_curve(path) -> PolyCurve:
    """Read a curve JSON file and check the unit-speed invariants.  A file
    that is not JSON, lacks a key, or holds vertices that are not a table
    of numbers raises InvalidDiscretizationError."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        vertices = np.asarray(payload["vertices"], dtype=float)
        shape = (payload["n"], payload["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidDiscretizationError(
            f"malformed curve file ({type(exc).__name__}: {exc})") from exc
    if vertices.shape != shape:
        raise InvalidDiscretizationError(
            "vertex array shape disagrees with declared n/dim")
    curve = PolyCurve(vertices)
    curve.validate()
    return curve
