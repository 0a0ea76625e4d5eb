"""Discrete closed curves with the unit-speed normalization.

A curve is stored as N vertices in R^2 or R^3, cyclically closed, with
vertex i sitting at the uniform parameter value t_i = 2*pi*i/N.  All
constructors return curves whose edges are equal in length (relative
spread below EDGE_SPREAD_TOL) and whose perimeter is exactly renormalized
to 2*pi, so integrals over the curve become uniform Riemann sums with
weight 2*pi/N.

Two routines make the edges equal, each for one kind of input.  An
analytic trace (make_ellipse, random_closed_curve) gets its vertices
placed on the trace with equal chords (_inscribe_equal_chords).  A
polygon (resample_arclength, and the optimizer's start curves and
line-search trials) goes through Newton projection onto the edge
constraints (_retract), whose tangent frame (_TangentFrame) binds
LAPACK from scipy.linalg when the first one is built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DegenerateCurveError, InvalidDiscretizationError

TWO_PI = 2.0 * np.pi

#: minimum vertex count for a meaningful closed polygon
MIN_VERTICES = 8

#: relative tolerance on the perimeter after normalization
PERIMETER_TOL = 1e-9

#: relative tolerance on edge-length spread (discrete unit speed)
EDGE_SPREAD_TOL = 1e-6

#: pass cap and target edge spread of the equal-chord inscriber
INSCRIBE_MAX_PASSES, INSCRIBE_TOL = 80, 1e-13

#: target of the Newton projection onto the edge constraints (_retract):
#: largest edge-length error relative to 2*pi/N
RETRACT_TOL = 1e-14

#: cap on the Newton steps of one projection
RETRACT_MAX_STEPS = 20


@dataclass(frozen=True)
class PolyCurve:
    """Closed polygon approximating a unit-speed curve of length 2*pi.

    vertices has shape (n, dim) with dim 2 or 3; row i is the point at
    parameter 2*pi*i/n.  Indexing is cyclic: vertex(i) == vertex(i + n).
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

    def vertex(self, i: int) -> np.ndarray:
        return self.vertices[i % self.n]

    def edges(self) -> np.ndarray:
        """Edge vectors, edge i running from vertex i to vertex i+1."""
        return np.roll(self.vertices, -1, axis=0) - self.vertices

    def edge_lengths(self) -> np.ndarray:
        return np.linalg.norm(self.edges(), axis=1)

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


def chord(curve: PolyCurve, i: int, k: int) -> float:
    """Straight-line distance between vertices i and i+k."""
    return float(np.linalg.norm(curve.vertex(i + k) - curve.vertex(i)))


def arc_distance(curve: PolyCurve, i: int, k: int) -> float:
    """Shorter distance along the curve between vertices i and i+k.

    Always in [0, pi] since the curve has length 2*pi.
    """
    return float(offset_arcs(curve.n, k))


def lambda_chord(s):
    """Chord length subtended by arclength s on the unit circle: 2 sin(s/2)."""
    return 2.0 * np.sin(np.asarray(s) / 2.0)


def squared_chord_matrix(vertices: np.ndarray, others=None,
                         out=None) -> np.ndarray:
    """Squared distances |v_i - o_k|^2 from each vertex v_i to each point
    o_k of others, via the Gram matrix, as an (n, len(others)) table
    written into out when it is given.  others defaults to the vertices
    themselves, and then the diagonal is exactly zero."""
    n, dim = vertices.shape
    sq = np.einsum("id,id->i", vertices, vertices)
    if others is None:
        others, others_sq = vertices, sq
    else:
        others_sq = np.einsum("id,id->i", others, others)
    # |v_i|^2 - 2 v_i.o_k + |o_k|^2 as one product of two (., dim + 2)
    # factors, [-2v, |v|^2, 1] and [o, 1, |o|^2], with no n x n pass
    # for the two squared-norm terms
    left = np.empty((n, dim + 2))
    left[:, :dim] = -2.0 * vertices
    left[:, dim] = sq
    left[:, dim + 1] = 1.0
    right = np.empty((others.shape[0], dim + 2))
    right[:, :dim] = others
    right[:, dim] = 1.0
    right[:, dim + 1] = others_sq
    d2 = np.matmul(left, right.T, out=out)
    np.maximum(d2, 0.0, out=d2)
    if others is vertices:
        np.fill_diagonal(d2, 0.0)
    return d2


#: table entries per block in the reductions over the offset-indexed
#: chord table: a block holds max(1, OFFSET_BLOCK // n) offsets, so its
#: arrays stay cache-sized at every n
OFFSET_BLOCK = 1 << 14


def _cyclic_windows(vertices: np.ndarray) -> np.ndarray:
    """Read-only (dim, n, n) view W of the doubled coordinate rows, with
    W[d, k] the d-th coordinate column rolled by -k; W[:, 0] is v.T."""
    n = vertices.shape[0]
    doubled = np.concatenate([vertices, vertices]).T.copy()
    row, item = doubled.strides
    return as_strided(doubled, (doubled.shape[0], n, n), (row, item, item),
                      writeable=False)


def _gather_squared_chords(windows: np.ndarray, ks: np.ndarray) -> np.ndarray:
    diff = windows[:, ks]
    diff -= windows[:, :1]
    diff *= diff
    # summed coordinate by coordinate, in the order of np.linalg.norm
    table = diff[0]
    for sq in diff[1:]:
        table += sq
    return table


def offset_squared_chords(vertices: np.ndarray, ks) -> np.ndarray:
    """Squared chords |v_{i+k} - v_i|^2 (indices cyclic) for each offset k
    in ks, as a (len(ks), n) array; row r holds offset ks[r].

    Built from exact vertex differences, so short chords keep full
    relative precision, unlike the Gram form of squared_chord_matrix.
    """
    ks = np.atleast_1d(np.asarray(ks)) % vertices.shape[0]
    return _gather_squared_chords(_cyclic_windows(vertices), ks)


def half_offsets(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets k = 1..floor(n/2) and how many ordered vertex pairs each
    stands for: offsets k and n - k hold the same chords, so weight 2,
    except k = n/2 at even n, which is its own partner, weight 1."""
    ks = np.arange(1, n // 2 + 1)
    weights = np.full(ks.shape, 2.0)
    if n % 2 == 0:
        weights[-1] = 1.0
    return ks, weights


def offset_arcs(n: int, ks) -> np.ndarray:
    """Arc distance min(s, 2*pi - s), s = 2*pi*k/n, for each offset k."""
    s = (np.asarray(ks) % n) * (TWO_PI / n)
    return np.minimum(s, TWO_PI - s)


def offset_chord_blocks(vertices: np.ndarray, ks):
    """Yield (rows, table) over the offsets ks, a block at a time: table
    is offset_squared_chords(vertices, ks[rows])."""
    windows = _cyclic_windows(vertices)
    ks = np.asarray(ks) % vertices.shape[0]
    step = max(1, OFFSET_BLOCK // vertices.shape[0])
    for start in range(0, len(ks), step):
        rows = slice(start, start + step)
        yield rows, _gather_squared_chords(windows, ks[rows])


def _closed_edge_lengths(closed: np.ndarray) -> np.ndarray:
    return np.linalg.norm(np.diff(closed, axis=0), axis=1)


def _next(a: np.ndarray) -> np.ndarray:
    """Rows shifted cyclically up by one: row i holds a[i + 1]."""
    return np.concatenate((a[1:], a[:1]))


def _edges(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge vectors v_{i+1} - v_i of a closed polygon and their lengths."""
    edges = _next(v) - v
    # the arithmetic of np.linalg.norm(edges, axis=1), without its
    # per-call overhead
    return edges, np.sqrt(np.einsum("id,id->i", edges, edges))


#: LAPACK's factorization and solve of symmetric positive definite
#: tridiagonal systems, bound by the first _TangentFrame: scipy.linalg
#: takes about 0.35 s to import, and nothing but the frame uses it
_pttrf = _pttrs = None


def _bind_lapack() -> None:
    global _pttrf, _pttrs
    from scipy.linalg.lapack import dpttrf, dpttrs
    _pttrf, _pttrs = dpttrf, dpttrs


class _TangentFrame:
    """The Jacobian J of the equal-edge-length constraints of one curve
    (one length constraint per edge), with J J^T factored once for every
    vertex field projected or corrected at that curve."""

    __slots__ = ("u", "corner", "diag", "sub", "z", "denom")

    def __init__(self, edges: np.ndarray, lengths: np.ndarray):
        if _pttrs is None:
            _bind_lapack()
        n = lengths.shape[0]
        self.u = edges / lengths[:, None]
        # constraint i: |v_{i+1} - v_i|; Jacobian rows touch vertices
        # i, i+1.  J J^T is cyclic tridiagonal: 2 on the diagonal,
        # coupling[i] at (i, i+1) and coupling[n-1] in the corners.  It
        # equals B - w w^T with w = e_0 - coupling[n-1] e_{n-1} and B
        # tridiagonal, positive definite since J J^T is; Sherman-Morrison
        # turns the cyclic solve into tridiagonal ones with B.
        coupling = -np.einsum("id,id->i", self.u, _next(self.u))
        self.corner = coupling[-1]
        diag = np.full(n, 2.0)
        diag[0] += 1.0
        diag[-1] += self.corner ** 2
        self.diag, self.sub, info = _pttrf(diag, coupling[:-1])
        if info != 0:
            raise DegenerateCurveError(
                "edge constraints of the curve are not independent")
        w = np.zeros(n)
        w[0] = 1.0
        w[-1] = -self.corner
        self.z = self._solve(w)
        self.denom = 1.0 - (self.z[0] - self.corner * self.z[-1])
        # zero for a doubly covered segment, whose cyclic J J^T is
        # singular although its tridiagonal part B factors; NaN fails
        # the comparison too
        if not 0.0 < abs(self.denom) < np.inf:
            raise DegenerateCurveError(
                "edge constraints of the curve are not independent")

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        return _pttrs(self.diag, self.sub, rhs)[0]

    def normal(self, c: np.ndarray) -> np.ndarray:
        """J^T (J J^T)^-1 c: the normal vertex field whose change of the
        edge lengths, to first order, is c."""
        y = self._solve(c)
        mult = y + self.z * ((y[0] - self.corner * y[-1]) / self.denom)
        t = mult[:, None] * self.u
        # J^T mult: vertex m gets t[m-1] - t[m]
        return np.concatenate((t[-1:], t[:-1])) - t

    def project(self, field: np.ndarray) -> np.ndarray:
        """The tangent component of a vertex field."""
        return field - self.normal(
            np.einsum("id,id->i", self.u, _next(field) - field))


def _retract(v: np.ndarray, h: float, frame: _TangentFrame | None):
    """Newton projection of the vertices v onto the edge constraints
    |v_{i+1} - v_i| = h, then centroid to the origin.

    Each step is v <- v - J^T (J J^T)^-1 c(v) with c_i = |v_{i+1} - v_i| - h.
    The first uses frame, the frame of v already factored, when one is
    given; each later one factors J at the new point.  The steps stop
    once the largest |c_i| / h is below RETRACT_TOL, or at round-off:
    when a step fails to halve it while it is within EDGE_SPREAD_TOL,
    the better of the two points is kept.  An error that grows,
    dependent constraints or RETRACT_MAX_STEPS steps raise
    DegenerateCurveError.  Returns the vertices with the edge vectors
    and lengths of their last check.
    """
    edges, lengths = _edges(v)
    resid = lengths - h
    err = np.abs(resid).max() / h
    for steps in range(RETRACT_MAX_STEPS + 1):
        if err < RETRACT_TOL:
            break
        if steps == RETRACT_MAX_STEPS:
            raise DegenerateCurveError(
                f"edge constraints not met after {steps} Newton steps: "
                f"relative error {err:.3e}")
        if frame is None:
            frame = _TangentFrame(edges, lengths)
        new_v = v - frame.normal(resid)
        frame = None
        new_edges, new_lengths = _edges(new_v)
        new_resid = new_lengths - h
        new_err = np.abs(new_resid).max() / h
        if not new_err <= 0.5 * err:
            if new_err <= EDGE_SPREAD_TOL:
                if new_err < err:
                    v, edges, lengths = new_v, new_edges, new_lengths
                break
            if not new_err <= err:
                raise DegenerateCurveError(
                    f"Newton steps on the edge constraints diverged: "
                    f"relative error {err:.3e} -> {new_err:.3e}")
        v, edges, lengths, resid, err = \
            new_v, new_edges, new_lengths, new_resid, new_err
    # the arithmetic of v.mean(axis=0), without its per-call overhead
    return v - v.sum(axis=0) / v.shape[0], edges, lengths


def resample_arclength(curve: PolyCurve, m: int) -> PolyCurve:
    """Place m vertices with equal edges and perimeter 2*pi along the
    polygonal trace, centroid at the origin.

    One pass spaces m points at equal arclength along the closed
    polyline and scales them to perimeter 2*pi; Newton projection onto
    the edge constraints (_retract) then makes the edges equal.  So an
    already equal-edge curve at fixed m maps to itself, up to its
    centroid.  The first call binds scipy.linalg (_TangentFrame).  A
    collapsed curve, dependent edge constraints or a projection that
    does not converge raise DegenerateCurveError, so the result always
    has unit speed.
    """
    if m < MIN_VERTICES:
        raise InvalidDiscretizationError(f"need m >= {MIN_VERTICES}, got {m}")
    closed = np.vstack([curve.vertices, curve.vertices[:1]])
    cum = np.concatenate([[0.0], np.cumsum(_closed_edge_lengths(closed))])
    if cum[-1] < 1e-6:
        raise DegenerateCurveError("curve perimeter collapsed below 1e-6")
    targets = np.arange(m) * (cum[-1] / m)
    pts = np.column_stack([np.interp(targets, cum, col)
                           for col in closed.T])
    pts *= TWO_PI / _edges(pts)[1].sum()
    return PolyCurve(_retract(pts, TWO_PI / m, None)[0])


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

    curve = PolyCurve(_inscribe_equal_chords(trace, n))
    curve.validate()
    return curve


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
    the uniform grid t_i = 2*pi*i/n: the points of the first pass.
    """
    t = TWO_PI * np.arange(n) / n
    previous = np.inf
    for count in range(INSCRIBE_MAX_PASSES):
        pts = start if count == 0 and start is not None else trace(t)
        seg = _closed_edge_lengths(np.vstack([pts, pts[:1]]))
        total = seg.sum()
        if total < 1e-6:
            raise DegenerateCurveError("curve perimeter collapsed below 1e-6")
        spread = (seg.max() - seg.min()) / (total / n)
        # the spread falls quadratically until it reaches round-off, then
        # wanders there: stop at the first pass that does not halve it
        if spread < INSCRIBE_TOL or spread > 0.5 * previous:
            break
        previous = spread
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        t_ext = np.concatenate([t, [t[0] + TWO_PI]])
        targets = np.arange(n) * (total / n)
        t = np.interp(targets, cum, t_ext)
    # total is the perimeter of pts: the last pass moved t, not pts
    return pts * (TWO_PI / total)


#: points of the speed grid on which random_closed_curve rejects draws
SPEED_GRID = 4096


@lru_cache(maxsize=8)
def _harmonic_table(m: int, K: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(k t_i) and sin(k t_i) on the uniform grid t_i = 2*pi*i/m for
    k = 1..K, as read-only (m, K) arrays.  They depend on no curve, so
    random_closed_curve reads them from here on every draw."""
    t = TWO_PI * np.arange(m) / m
    phase = np.outer(t, np.arange(1, K + 1))
    table = np.cos(phase), np.sin(phase)
    for part in table:
        part.flags.writeable = False
    return table


def random_closed_curve(seed: int, K: int = 6, amplitude_decay: float = 0.4,
                        n: int = 512, dim: int = 2) -> PolyCurve:
    """Random smooth closed curve from Fourier modes up to harmonic K.

    Coefficients for harmonic k have magnitude proportional to
    amplitude_decay**|k|; vertices are placed on the smooth trace with
    equal chord lengths and perimeter 2*pi.  Deterministic per seed;
    degenerate draws (perimeter below 1e-6 before normalization) fall
    through to the next substream.  The cos and sin of the SPEED_GRID
    speed grid and of the inscriber's first, uniform pass come from a
    small read-only cache keyed by grid size and K (_harmonic_table);
    they are the values the trace would compute, so the vertices are
    the same bit for bit.
    """
    if K < 1:
        raise InvalidDiscretizationError(f"need K >= 1, got {K}")
    ks = np.arange(1, K + 1)
    cos_dense, sin_dense = _harmonic_table(SPEED_GRID, K)
    for attempt in range(32):
        rng = np.random.default_rng((seed, attempt))
        scale = 0.25 * amplitude_decay ** ks[:, None]
        a = rng.normal(size=(K, dim)) * scale
        b = rng.normal(size=(K, dim)) * scale
        # base circle in the first two coordinates keeps the speed bounded
        # away from zero, so the chord-equalized sampling stays smooth
        a[0, 0] += 1.0
        b[0, 1] += 1.0

        def trace(t, a=a, b=b):
            return (np.cos(np.outer(t, ks)) @ a
                    + np.sin(np.outer(t, ks)) @ b)

        da = -sin_dense * ks @ a + cos_dense * ks @ b
        speed = np.linalg.norm(da, axis=1)
        perim = float(np.trapezoid(
            np.append(speed, speed[0]), dx=TWO_PI / SPEED_GRID))
        if perim < 1e-6 or speed.min() < 0.35 * speed.mean():
            continue
        cos_n, sin_n = _harmonic_table(n, K)
        try:
            return PolyCurve(_inscribe_equal_chords(
                trace, n, start=cos_n @ a + sin_n @ b))
        except DegenerateCurveError:
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
    """Read a curve JSON file and check the unit-speed invariants."""
    with open(path) as fh:
        payload = json.load(fh)
    missing = [key for key in ("dim", "n", "vertices")
               if not isinstance(payload, dict) or key not in payload]
    if missing:
        raise InvalidDiscretizationError(
            f"curve file lacks the keys {missing}")
    vertices = np.asarray(payload["vertices"], dtype=float)
    if vertices.shape != (payload["n"], payload["dim"]):
        raise InvalidDiscretizationError(
            "vertex array shape disagrees with declared n/dim")
    curve = PolyCurve(vertices)
    curve.validate()
    return curve
