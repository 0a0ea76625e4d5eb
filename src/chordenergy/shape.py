"""Shape diagnostics for planar curves: projection widths, conic
fitting, and Hausdorff comparison.  None of them calls LAPACK: the
conic fit takes its singular pair by Householder QR in numpy and
inverse iteration in Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDiscretizationError
from .geometry import PolyCurve, _edges

#: sentinel for ratios of collapsed curves
INFINITE_RATIO = math.inf

#: directions, spanning a half turn, at which width_ratio probes widths
WIDTH_ANGLES = 180


@dataclass(frozen=True)
class ConicFit:
    """Least-squares conic a x^2 + b xy + c y^2 + d x + e y + f = 0.

    coefficients (a, b, c, d, e, f) have unit Euclidean norm, and their
    sign makes a + c positive, or, where a + c is zero, the first nonzero
    coefficient positive: an ellipse's quadratic part is then positive
    definite.  residual is the RMS of the algebraic form over the
    vertices.  eccentricity is only meaningful when elliptic
    (b^2 - 4ac < 0) and is nan otherwise.
    """

    coefficients: np.ndarray
    residual: float
    elliptic: bool
    eccentricity: float


@dataclass(frozen=True)
class SweepRecord:
    """One row of a p-sweep: functional value and shape diagnostics,
    the solve's iteration count and stop reason (the value of an
    optimizer.Termination; empty for a failed solve), its wall time in
    seconds, and the canonicalized maximizer when the solve succeeded.
    The seconds never hold a one-off load, the lookup of LAPACK's dptsv
    or the import of numpy.fft: optimizer.sweep makes both before its
    first clock."""

    p: float
    value: float
    r: float
    efit_log10: float
    eccentricity: float
    converged: bool
    iterations: int = 0
    reason: str = ""
    seconds: float = field(default=0.0, compare=False)
    curve: PolyCurve | None = field(default=None, compare=False, repr=False)


def width_ratio(curve: PolyCurve) -> float:
    """Ratio of the widest and narrowest 1-D projections of a planar
    curve, probed at WIDTH_ANGLES directions spanning a half turn."""
    if curve.dim != 2:
        raise InvalidDiscretizationError("width_ratio needs a planar curve")
    theta = np.pi * np.arange(WIDTH_ANGLES) / WIDTH_ANGLES
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    proj = curve.vertices @ dirs.T
    widths = proj.max(axis=0) - proj.min(axis=0)
    wmin = widths.min()
    # collapsed curves produce a round-off width, not an exact zero
    if wmin <= 1e-12 * max(widths.max(), 1e-300):
        return INFINITE_RATIO
    return float(widths.max() / wmin)


def _householder_r(a: np.ndarray) -> np.ndarray:
    """The R factor of the QR factorization of a.T, by Householder
    reflections, for a (k, m) array, k <= m, whose rows are the columns
    of the factored matrix and whose entries are below 1; a is
    overwritten.  Where a column's squares could underflow, its norm is
    taken scaled by its largest entry, as LAPACK's dnrm2 does.  A column
    that is zero from the diagonal down leaves an exact zero pivot."""
    k = a.shape[0]
    for j in range(k):
        col = a[j, j:]
        norm = math.sqrt(col @ col)
        if norm < 2.0 ** -480:
            top = float(np.abs(col).max())
            if top == 0.0:
                continue
            norm = top * math.sqrt(np.square(col / top).sum())
        alpha = float(col[0])
        beta = -math.copysign(norm, alpha)
        col /= alpha - beta
        col[0] = 1.0
        rest = a[j + 1:, j:]
        w = rest @ col
        w *= (beta - alpha) / beta
        rest -= w[:, None] * col
        col[0] = beta
    return np.tril(a[:, :k]).T


def _solve_upper(u: list, b: list) -> list:
    """The solution of u x = b, for u an upper triangular list of rows
    with nonzero pivots, up to a positive factor: the working vector is
    scaled by 2^-600 whenever an entry would pass 2^600, so no entry
    overflows, even at a pivot of 1e-320."""
    x = list(b)
    k = len(x)
    for i in range(k - 1, -1, -1):
        row = u[i]
        s = x[i]
        for j in range(i + 1, k):
            s -= row[j] * x[j]
        while abs(s) > abs(row[i]) * 2.0 ** 600:
            x = [t * 2.0 ** -600 for t in x]
            s *= 2.0 ** -600
        x[i] = s / row[i]
    return x


def _norm(x: list) -> float:
    """The Euclidean norm of x, taken scaled by its largest entry."""
    top = max(map(abs, x))
    return top * math.sqrt(sum((t / top) ** 2 for t in x)) if top else 0.0


def _unit(x: list) -> list:
    """x, not zero, over its Euclidean norm."""
    norm = _norm(x)
    return [t / norm for t in x]


def _smallest_singular_pair(r: np.ndarray):
    """(sigma, x): the smallest singular value of the k x k upper
    triangular r and a unit right singular vector for it.

    The first exact zero pivot r[j, j] gives a null vector directly:
    x[j] = 1, zeros after it, and the leading j x j triangle solved for
    the entries before it.  Otherwise inverse iteration alternates the
    solves with r^T and r (_solve_upper), from the solution of
    r x = e_k, at most 100 times.  Each step shrinks the error by about
    (sigma_k / sigma_(k-1))^2, the ratio of a step's change to the last
    one's; it stops once that ratio times the change, the error left, is
    below 2^-50, or once the change stops shrinking, at round-off."""
    rows = r.tolist()
    k = len(rows)
    zero = [j for j in range(k) if rows[j][j] == 0.0]
    if zero:
        j = zero[0]
        lead = [row[:j + 1] for row in rows[:j + 1]]
        lead[j][j] = 1.0
        x = _unit(_solve_upper(lead, [0.0] * j + [1.0]) + [0.0] * (k - j - 1))
    else:
        # r^T, rows and columns reversed, is upper triangular too
        flipped = [[rows[k - 1 - j][k - 1 - i] for j in range(k)]
                   for i in range(k)]
        x = _unit(_solve_upper(rows, [0.0] * (k - 1) + [1.0]))
        last = 0.0
        for step in range(100):
            new = _unit(_solve_upper(
                rows, _solve_upper(flipped, x[::-1])[::-1]))
            change = max(abs(s - t) for s, t in zip(new, x))
            x = new
            if step and (change >= last
                         or change * change <= 2.0 ** -50 * last):
                break
            last = change
    rx = [sum(rows[i][j] * x[j] for j in range(i, k)) for i in range(k)]
    return _norm(rx), np.array(x)


def fit_conic(curve: PolyCurve) -> ConicFit:
    """Algebraic least-squares conic through the vertices.

    Minimizes the RMS of the quadratic form over unit-norm coefficient
    vectors, i.e. takes the smallest right singular pair of the
    [x^2, xy, y^2, x, y, 1] design matrix: the design, scaled by a power
    of two to a largest entry below 1, is reduced to its 6 x 6 R factor
    by Householder reflections (_householder_r), and the pair of R comes
    from inverse iteration with R's two triangular solves, or from an
    exact zero pivot (_smallest_singular_pair).  The eccentricity
    takes the larger eigenvalue of the quadratic part in closed form and
    the smaller as the determinant over it, so neither cancels.  Collinear
    input yields a degenerate (non-elliptic) fit rather than an error.
    No LAPACK routine runs.
    """
    if curve.dim != 2:
        raise InvalidDiscretizationError("fit_conic needs a planar curve")
    x, y = curve.vertices[:, 0], curve.vertices[:, 1]
    design = np.empty((6, len(x)))
    np.multiply(x, x, out=design[0])
    np.multiply(x, y, out=design[1])
    np.multiply(y, y, out=design[2])
    design[3], design[4], design[5] = x, y, 1.0
    # the largest entry is 1 or a squared coordinate; scaled by a power
    # of two, exactly, to below 1
    top = float(np.abs(curve.vertices).max())
    exponent = math.frexp(max(1.0, top * top))[1]
    design *= math.ldexp(1.0, -exponent)
    sigma, coeffs = _smallest_singular_pair(_householder_r(design))
    residual = math.ldexp(sigma, exponent) / math.sqrt(len(x))
    a, b, c = coeffs[:3]
    if a + c < 0 or a + c == 0 and coeffs[np.flatnonzero(coeffs)[0]] < 0:
        coeffs = -coeffs
        a, b, c = -a, -b, -c
    # the quadratic part by a power of two, so its products do not
    # underflow at extreme scales
    top = max(abs(a), abs(b), abs(c))
    if top > 0:
        a, b, c = (math.ldexp(t, -math.frexp(top)[1]) for t in (a, b, c))
    if b * b - 4 * a * c < 0:
        # both eigenvalues of [[a, b/2], [b/2, c]] are positive
        larger = 0.5 * (a + c) + math.hypot(0.5 * (a - c), 0.5 * b)
        smaller = (a * c - 0.25 * b * b) / larger
        ecc = math.sqrt(max(0.0, 1.0 - smaller / larger))
        return ConicFit(coefficients=coeffs, residual=residual,
                        elliptic=True, eccentricity=ecc)
    return ConicFit(coefficients=coeffs, residual=residual,
                    elliptic=False, eccentricity=float("nan"))


def _point_polyline_dist(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Distance from each point to a closed polyline, via projection
    onto every segment."""
    ab = _edges(poly)[0]
    denom = np.sum(ab ** 2, axis=1)
    denom = np.where(denom == 0, 1.0, denom)
    # points (m, d) against segments (n, d)
    ap = points[:, None, :] - poly[None, :, :]
    t = np.clip(np.sum(ap * ab[None, :, :], axis=2) / denom[None, :], 0, 1)
    closest = poly[None, :, :] + t[:, :, None] * ab[None, :, :]
    d = np.linalg.norm(points[:, None, :] - closest, axis=2)
    return d.min(axis=1)


def hausdorff(curve_a: PolyCurve, curve_b: PolyCurve) -> float:
    """Symmetric vertex-to-polyline Hausdorff distance.  Curves of
    different dimensions raise InvalidDiscretizationError."""
    if curve_a.dim != curve_b.dim:
        raise InvalidDiscretizationError(
            f"hausdorff needs curves of one dimension, got {curve_a.dim} "
            f"and {curve_b.dim}")
    da = _point_polyline_dist(curve_a.vertices, curve_b.vertices)
    db = _point_polyline_dist(curve_b.vertices, curve_a.vertices)
    return float(max(da.max(), db.max()))
