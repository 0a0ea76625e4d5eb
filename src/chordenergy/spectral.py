"""Fourier-side verification of the chord-square inequality.

A closed curve c(t) = sum_k a_k e^{ikt} satisfies, for every shift s,

    int |c(t+s) - c(t)|^2 dt <= (2 sin(s/2))^2 * int |c'(t)|^2 dt,

with a deficit expressible as a series over harmonics k >= 2.  This
module computes that deficit both from DFT coefficients and directly
from vertex differences, plus the two elementary pointwise inequalities
the series argument rests on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDiscretizationError, ParameterDomainError
from .geometry import (TWO_PI, PolyCurve, grid_offsets, lambda_chord,
                       offset_chord_blocks, require_curve, require_integer,
                       require_points, require_vertex_count)


@dataclass(frozen=True)
class FourierCurve:
    """Complex Fourier coefficients of a closed curve.

    coeffs has shape (2K+1, dim): row K + k holds a_k in C^dim for
    k = -K..K, in the normalization c(t) = sum_k a_k e^{ikt}.
    n records the source grid size, the grid of reconstruct and the
    default grid of deficit.
    """

    coeffs: np.ndarray
    n: int

    def __post_init__(self):
        require_integer("n", self.n, 1, InvalidDiscretizationError)
        c = self.coeffs
        if not (isinstance(c, np.ndarray) and c.ndim == 2 and c.shape[0] % 2
                and c.dtype.kind in "iufc" and np.isfinite(c).all()):
            raise InvalidDiscretizationError(
                "coeffs must be a (2K+1, dim) array of finite numbers")

    @property
    def K(self) -> int:
        return (self.coeffs.shape[0] - 1) // 2

    def coeff(self, k: int) -> np.ndarray:
        """a_k as a vector in C^dim."""
        if abs(k) > self.K:
            return np.zeros(self.coeffs.shape[1], dtype=complex)
        return self.coeffs[self.K + k]

    def centroid(self) -> np.ndarray:
        return self.coeff(0).real

    def derivative_energy(self) -> float:
        """int |c'|^2 dt = 2 pi sum k^2 |a_k|^2 (Parseval on c')."""
        k = np.arange(-self.K, self.K + 1)
        return float(TWO_PI * np.sum(k[:, None] ** 2
                                     * np.abs(self.coeffs) ** 2))

    def reconstruct(self) -> np.ndarray:
        """Evaluate the truncated series on the uniform n-point grid."""
        t = TWO_PI * np.arange(self.n) / self.n
        k = np.arange(-self.K, self.K + 1)
        phases = np.exp(1j * np.outer(t, k))
        return (phases @ self.coeffs).real


@dataclass(frozen=True)
class DeficitProfile:
    """Wirtinger deficit rho(s) sampled on the shift grid s = 2 pi k / n."""

    s: np.ndarray
    rho: np.ndarray

    def max_abs(self) -> float:
        return float(np.abs(self.rho).max())


def analyze(curve: PolyCurve, K: int | None = None) -> FourierCurve:
    """DFT of the vertex samples in the normalization
    c(t) = sum a_k e^{ikt}, truncated at |k| <= K (default floor(n/2)-1).

    K must be an integer in [0, (n-1)//2]: beyond it harmonics k and
    k - n read the same DFT bin, so the truncated series would count
    them twice."""
    require_curve("curve", curve)
    n = curve.n
    if K is None:
        K = n // 2 - 1
    require_integer("K", K, 0, ParameterDomainError)
    if K > (n - 1) // 2:
        raise ParameterDomainError(
            f"need K <= {(n - 1) // 2} at n = {n}, got {K}")
    spec = np.fft.fft(curve.vertices, axis=0) / n
    return FourierCurve(coeffs=spec[np.arange(-K, K + 1) % n], n=n)


def deficit(fc: FourierCurve, n: int | None = None) -> DeficitProfile:
    """Deficit series 8 pi sum_{k>=2} (k^2 sin^2(s/2) - sin^2(ks/2))
    (|a_-k|^2 + |a_k|^2) on the grid s = 2 pi m / n, m = 1..n-1.

    With w_k the harmonic weights, sum_k w_k sin^2(k s/2) is
    (sum_k w_k - sum_k w_k cos(k s)) / 2, and on this grid the cosine
    sum is the real part of the length-n DFT of w folded modulo n: one
    FFT, O(n log n), with no (K-1) x (n-1) table.  The fold keeps an n
    below 2K + 1 correct.  n, by default fc.n, must be a positive
    integer."""
    if n is None:
        n = fc.n
    require_integer("shift grid size", n, 1, ParameterDomainError)
    s = TWO_PI * np.arange(1, n) / n
    K = fc.K
    k = np.arange(2, K + 1)
    weight = np.sum(np.abs(fc.coeffs[K + k]) ** 2
                    + np.abs(fc.coeffs[K - k]) ** 2, axis=1)
    folded = np.bincount(k % n, weights=weight, minlength=n)
    cos_sums = np.fft.fft(folded).real[1:]
    rho = (weight @ k ** 2) * np.sin(s / 2) ** 2 \
        - (weight.sum() - cos_sums) / 2
    return DeficitProfile(s=s, rho=8 * np.pi * rho)


def _mirrored_deficit(curve: PolyCurve, ks: np.ndarray,
                      half_sums: np.ndarray) -> np.ndarray:
    """deficit_direct at the offsets ks in 0..n-1, from half_sums, whose
    entry m - 1 sums the squared chords of offset m, for m = 1..n/2 (the
    entries of offsets that no min(k, n - k) names are not read).
    Offset n - k holds the chords of offset k, so it takes that sum;
    offset 0 has none."""
    n = curve.n
    step = TWO_PI / n
    half = np.minimum(ks, n - ks)
    chord_sums = np.where(half > 0, half_sums[half - 1], 0.0)
    deriv_energy = float(np.sum(curve.edges() ** 2)) / step
    return lambda_chord(ks * step) ** 2 * deriv_energy - step * chord_sums


def deficit_direct(curve: PolyCurve, k):
    """Deficit at shift s = 2 pi k / n straight from the polygon:
    lambda^2(s) * int |c'|^2 (piecewise-constant derivative) minus the
    Riemann sum of the squared chords.

    k is an int, giving a float, or an int array, giving an array; any
    other k raises ParameterDomainError.  The chords are exact vertex
    differences, independent of the DFT that the series side rests on.
    The chord table is walked once at each offset min(k, n - k) that k
    names, and offset n - k reads the sum of offset k (_mirrored_deficit).
    """
    require_curve("curve", curve)
    n = curve.n
    ks = grid_offsets(k, n)
    walked = np.unique(np.minimum(ks, n - ks))
    walked = walked[walked > 0]
    half_sums = np.empty(n // 2)
    for rows, d2 in offset_chord_blocks(curve.vertices, walked):
        half_sums[walked[rows] - 1] = d2.sum(axis=1)
    rho = _mirrored_deficit(curve, ks, half_sums)
    return float(rho[0]) if np.ndim(k) == 0 else rho


def trig_lemma_check(k, theta):
    """Both sides of sin^2(k theta) <= k^2 sin^2(theta) for integers
    k >= 2 and finite real theta: floats, or arrays for stacked k and
    theta, whose shapes broadcast, with k theta finite."""
    try:
        ks = np.asarray(k)
        integers = ks.dtype.kind in "iu" and not (ks.size and ks.min() < 2)
    except ValueError:  # a ragged nesting
        integers = False
    if not integers:
        raise ParameterDomainError(f"need k >= 2, integers, got {k!r}")
    k = ks.astype(float)
    theta = require_points("theta", theta, ParameterDomainError)
    try:
        np.broadcast_shapes(k.shape, theta.shape)
    except ValueError:
        raise ParameterDomainError(
            f"k of shape {k.shape} and theta of shape {theta.shape} "
            "do not broadcast") from None
    with np.errstate(over="ignore"):
        angle = k * theta
    if not np.isfinite(angle).all():
        raise ParameterDomainError("k theta overflows")
    lhs, rhs = np.sin(angle) ** 2, k ** 2 * np.sin(theta) ** 2
    return (float(lhs), float(rhs)) if np.ndim(lhs) == 0 else (lhs, rhs)


def tetra_check(A, B, C, D):
    """Both sides and the gap of the tetrahedron inequality
    |AC|^2 + |BD|^2 <= |BC|^2 + |AD|^2 + 2 |AB| |CD|.

    The points are arrays of one shape (..., dim), the rows of one table
    of finite reals (require_points): single points give floats, stacked
    points give arrays of the stack shape.  The gap vanishes exactly when
    AB and DC are parallel as vectors (same direction)."""
    points = require_points("A, B, C and D", (A, B, C, D),
                            InvalidDiscretizationError)
    if points.ndim < 2:
        raise InvalidDiscretizationError("A, B, C and D must be points, "
                                         "not scalars")
    A, B, C, D = points
    def d(P, Q):
        # a stacked dot product runs the BLAS dot of np.linalg.norm on
        # one vector, so each distance is the per-point norm bit for bit
        diff = P - Q
        return np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])
    lhs = d(A, C) ** 2 + d(B, D) ** 2
    rhs = d(B, C) ** 2 + d(A, D) ** 2 + 2 * d(A, B) * d(C, D)
    gap = rhs - lhs
    if np.ndim(gap) == 0:
        return float(lhs), float(rhs), float(gap)
    return lhs, rhs, gap


def ellipse_uniform_parameter(a0, a, b, n: int) -> PolyCurve:
    """Curve c(t) = a0 + (cos t) a + (sin t) b sampled uniformly in t.

    This is the extremal family of the chord-square inequality: the
    mapping matters, so no arclength resampling is applied and the
    result generally violates the equal-edge invariant.  n must be an
    integer from MIN_VERTICES to MAX_VERTICES, and a0, a, b rows of one
    finite real table."""
    require_vertex_count("n", n)
    t = TWO_PI * np.arange(n) / n
    a0, a, b = require_points("a0, a and b", (a0, a, b),
                              InvalidDiscretizationError)
    pts = a0 + np.outer(np.cos(t), a) + np.outer(np.sin(t), b)
    return PolyCurve(pts)
