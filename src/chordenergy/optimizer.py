"""Projected gradient ascent for average chord-power functionals.

The feasible set is the discrete unit-speed manifold: closed planar
polygons with N equal edges and perimeter 2*pi.  Ascent steps follow
the gradient of the p-th power mean of the chord lengths, projected
onto the tangent space of the edge-length constraints; the retraction
back to the manifold is arclength resampling.  Past the critical
exponent the circle loses its maximality and the iterates stretch into
ovals, so initial curves carry an explicit mode-2 perturbation to break
the rotational symmetry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import optimize
from scipy.linalg import solveh_banded

from .errors import DegenerateCurveError, ParameterDomainError, \
    SingularGradientError
from .geometry import PolyCurve, make_circle, resample_arclength, \
    squared_chord_matrix
from .functionals import chord_power_mean, circle_avg_chord, \
    segment_avg_chord
from . import shape as shape_mod

#: minimum admissible distance between any two vertices during ascent
MIN_PAIR_DISTANCE = 1e-6


@dataclass(frozen=True)
class OptimizeOptions:
    n: int = 256
    max_iters: int = 2000
    step0: float = 1.0
    tol_grad: float = 1e-7
    perturb: float = 0.05
    seed: int = 0
    #: strength of the H^1 smoothing applied to ascent directions;
    #: mode k is damped by 1/(1 + smooth_sigma k^2).  Stiff high-frequency
    #: curvature otherwise forces steps orders of magnitude below what
    #: the low-frequency stretching modes can absorb.
    smooth_sigma: float = 16.0

    def __post_init__(self):
        if self.step0 <= 0 or self.tol_grad <= 0:
            raise ValueError("step0 and tol_grad must be positive")
        if self.n < 32:
            raise ValueError(f"need n >= 32, got {self.n}")


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


def _chord_table(curve: PolyCurve) -> tuple[np.ndarray, float]:
    """Squared chord table of a curve and its smallest off-diagonal
    entry, the squared distance of the closest vertex pair."""
    d2 = squared_chord_matrix(curve.vertices)
    np.fill_diagonal(d2, np.inf)
    closest = float(d2.min())
    np.fill_diagonal(d2, 0.0)
    return d2, closest


def _require_regular_gradient(closest: float, p: float) -> None:
    if p < 2 and closest < MIN_PAIR_DISTANCE ** 2:
        raise SingularGradientError(
            "coincident vertices make the chord-power gradient singular "
            f"for p = {p} < 2")


def _table_gradient(v: np.ndarray, d2: np.ndarray, p: float) -> np.ndarray:
    """objective_grad from the squared chord table d2 of the vertices v."""
    n = v.shape[0]
    with np.errstate(divide="ignore"):
        w = d2 ** ((p - 2.0) / 2.0)
    np.fill_diagonal(w, 0.0)
    # sum_k w_mk (v_m - v_k) = (row sums) v_m - w @ v
    return (2.0 * p / n ** 2) * (w.sum(axis=1)[:, None] * v - w @ v)


def objective_grad(curve: PolyCurve, p: float) -> np.ndarray:
    """Gradient of the power sum (1/N^2) sum_{i,k} |v_i - v_k|^p with
    respect to the vertices: row m is
    (2p/N^2) sum_{k != m} |v_m - v_k|^(p-2) (v_m - v_k)."""
    if p <= 0:
        raise ParameterDomainError(f"need p > 0, got {p}")
    d2, closest = _chord_table(curve)
    _require_regular_gradient(closest, p)
    return _table_gradient(curve.vertices, d2, p)


def project(curve: PolyCurve) -> PolyCurve:
    """Retract onto the feasible manifold: equal-arclength resampling,
    perimeter 2*pi, centroid at the origin.  A collapsed curve raises
    DegenerateCurveError."""
    resampled = resample_arclength(curve, curve.n)
    return PolyCurve(resampled.vertices - resampled.centroid())


def _tangent_project(curve: PolyCurve, grad: np.ndarray) -> np.ndarray:
    """Project a vertex-space gradient onto the tangent space of the
    equal-edge-length constraints (one length constraint per edge)."""
    v = curve.vertices
    n = curve.n
    edges = np.roll(v, -1, axis=0) - v
    lengths = np.linalg.norm(edges, axis=1)
    u = edges / lengths[:, None]
    # constraint i: |v_{i+1} - v_i|; Jacobian rows touch vertices i, i+1
    jg = np.einsum("id,id->i", u, np.roll(grad, -1, axis=0) - grad)
    coupling = -np.einsum("id,id->i", u, np.roll(u, -1, axis=0))
    # J J^T is cyclic tridiagonal: 2 on the diagonal, coupling[i] at
    # (i, i+1) and coupling[n-1] in the corners.  It equals B - w w^T with
    # w = e_0 - coupling[n-1] e_{n-1} and B tridiagonal, positive definite
    # since J J^T is; Sherman-Morrison turns the cyclic solve into one
    # tridiagonal solve with two right-hand sides.
    band = np.empty((2, n))
    band[0, 0] = 0.0
    band[0, 1:] = coupling[:-1]
    band[1] = 2.0
    band[1, 0] += 1.0
    band[1, -1] += coupling[-1] ** 2
    w = np.zeros(n)
    w[0] = 1.0
    w[-1] = -coupling[-1]
    y, z = solveh_banded(band, np.column_stack([jg, w]),
                         check_finite=False).T
    mult = y + z * ((y[0] - coupling[-1] * y[-1])
                    / (1.0 - (z[0] - coupling[-1] * z[-1])))
    t = mult[:, None] * u
    return grad - (np.roll(t, 1, axis=0) - t)


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
def _h1_filter(n: int, sigma: float) -> np.ndarray:
    k = np.fft.fftfreq(n, d=1.0 / n)
    return 1.0 / (1.0 + sigma * k ** 2)


def _smooth_direction(pg: np.ndarray, sigma: float) -> np.ndarray:
    """Damp mode k of a vertex field by 1/(1 + sigma k^2) (H^1 metric)."""
    if sigma <= 0:
        return pg
    filt = _h1_filter(pg.shape[0], sigma)
    return np.real(np.fft.ifft(np.fft.fft(pg, axis=0)
                               * filt[:, None], axis=0))


def canonicalize(curve: PolyCurve) -> PolyCurve:
    """Quotient out rigid motions: centroid at the origin, principal
    axis along x, first vertex at the maximal x coordinate."""
    v = curve.vertices - curve.vertices.mean(axis=0)
    if curve.dim != 2:
        raise ValueError("canonicalize handles planar curves only")
    cov = v.T @ v
    _, vecs = np.linalg.eigh(cov)
    axis = vecs[:, -1]
    rot = np.column_stack([axis, [-axis[1], axis[0]]])
    w = v @ rot
    # fix the two reflection ambiguities with third moments where they
    # are decisive, extreme coordinates otherwise
    for col in (0, 1):
        m3 = np.sum(w[:, col] ** 3)
        sign = np.sign(m3) if abs(m3) > 1e-9 else \
            np.sign(w[np.argmax(np.abs(w[:, col])), col])
        if sign < 0:
            w[:, col] = -w[:, col]
    start = int(np.argmax(w[:, 0]))
    return PolyCurve(np.roll(w, -start, axis=0))


def maximize(p: float, init: PolyCurve, opts: OptimizeOptions) -> OptimizeResult:
    """Monotone projected gradient ascent on the p-th chord-power mean.

    Steps follow the tangent-projected gradient; backtracking halves the
    step until the functional does not decrease, and accepted steps grow
    the step length again.  Terminates when the projected gradient norm
    falls below opts.tol_grad, when the line search finds no ascent, or
    after opts.max_iters iterations; result.reason says which.
    """
    if p <= 0:
        raise ParameterDomainError(f"need p > 0, got {p}")
    if init.dim != 2:
        raise ValueError("optimization is restricted to planar curves")
    curve = project(init)
    # one chord table per curve: the accepted candidate's table also
    # gives the next gradient
    d2, closest = _chord_table(curve)
    _require_regular_gradient(closest, p)
    value = chord_power_mean(d2, p)
    step = opts.step0
    history = [(0, value, float("nan"))]
    reason = Termination.MAX_ITERS
    iters = 0
    for iters in range(1, opts.max_iters + 1):
        grad = _table_gradient(curve.vertices, d2, p)
        pg = _tangent_project(curve, grad)
        gnorm = float(np.linalg.norm(pg))
        if gnorm < opts.tol_grad:
            reason = Termination.GRAD_TOL
            history.append((iters, value, gnorm))
            break
        direction = _tangent_project(
            curve, _smooth_direction(pg, opts.smooth_sigma))
        dnorm = float(np.linalg.norm(direction))
        if dnorm < 1e-15:
            # no ascent direction left to search along
            reason = Termination.LINE_SEARCH_STALLED
            history.append((iters, value, gnorm))
            break
        direction /= dnorm
        accepted = False
        for _ in range(60):
            try:
                candidate = project(
                    PolyCurve(curve.vertices + step * direction))
            except DegenerateCurveError:
                step *= 0.5
                continue
            cand_d2, closest = _chord_table(candidate)
            if closest < MIN_PAIR_DISTANCE ** 2:
                step *= 0.5
                continue
            new_value = chord_power_mean(cand_d2, p)
            if new_value >= value:
                curve, value, d2 = candidate, new_value, cand_d2
                accepted = True
                break
            step *= 0.5
        history.append((iters, value, gnorm))
        if not accepted:
            # step shrank to nothing without finding ascent
            reason = Termination.LINE_SEARCH_STALLED
            break
        step *= 2.0
    return OptimizeResult(curve=curve, value=value, iterations=iters,
                          reason=reason, history=history)


def sweep(p_grid, opts: OptimizeOptions) -> list[shape_mod.SweepRecord]:
    """Continuation over an ascending grid of exponents.

    Each p warm-starts from the previous maximizer, with a fresh mode-2
    perturbation of amplitude opts.perturb so the circle branch can
    destabilize.  Failures become flagged rows; the sweep continues.
    """
    p_grid = list(p_grid)
    if sorted(p_grid) != p_grid:
        raise ValueError("p_grid must be sorted ascending")
    records = []
    current = make_circle(opts.n)
    for p in p_grid:
        try:
            init = perturb_mode2(current, opts.perturb)
            result = maximize(p, init, opts)
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
                curve=canon,
            ))
        except (DegenerateCurveError, SingularGradientError):
            records.append(shape_mod.SweepRecord(
                p=p, value=float("nan"), r=float("nan"),
                efit_log10=float("nan"), eccentricity=float("nan"),
                converged=False))
    return records


def crossover_segment_circle() -> float:
    """Exponent where the doubly covered segment overtakes the circle in
    average chord power, found by bisection on the closed forms."""
    def gap(p):
        return segment_avg_chord(p) - circle_avg_chord(p)
    return float(optimize.brentq(gap, 2.5, 3.9, xtol=1e-8))
