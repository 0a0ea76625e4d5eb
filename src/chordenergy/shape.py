"""Shape diagnostics for planar curves: projection widths, conic
fitting, and Hausdorff comparison."""

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

    coefficients are normalized to unit Euclidean norm; residual is the
    RMS of the algebraic form over the vertices.  eccentricity is only
    meaningful when elliptic (b^2 - 4ac < 0).
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


def fit_conic(curve: PolyCurve) -> ConicFit:
    """Algebraic least-squares conic through the vertices.

    Minimizes the RMS of the quadratic form over unit-norm coefficient
    vectors, i.e. takes the smallest right singular vector of the
    [x^2, xy, y^2, x, y, 1] design matrix.  Collinear input yields a
    degenerate (non-elliptic) fit rather than an error.
    """
    if curve.dim != 2:
        raise InvalidDiscretizationError("fit_conic needs a planar curve")
    x, y = curve.vertices[:, 0], curve.vertices[:, 1]
    design = np.column_stack([x * x, x * y, y * y, x, y, np.ones_like(x)])
    _, sing, vt = np.linalg.svd(design, full_matrices=False)
    coeffs = vt[-1]
    residual = float(sing[-1] / math.sqrt(len(x)))
    a, b, c = coeffs[0], coeffs[1], coeffs[2]
    disc = b * b - 4 * a * c
    if disc < 0:
        quad = np.array([[a, b / 2], [b / 2, c]])
        lam = np.linalg.eigvalsh(quad)
        # both eigenvalues share a sign for an ellipse; axis ratio is
        # sqrt(lam_min / lam_max) after orienting them positive
        lam = np.sort(np.abs(lam))
        ecc = math.sqrt(max(0.0, 1.0 - lam[0] / lam[1]))
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
