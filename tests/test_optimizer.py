import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import linalg

from chordenergy import functionals as fn
from chordenergy import geometry as geo
from chordenergy import optimizer as opt
from chordenergy import shape as shp
from chordenergy.errors import DegenerateCurveError, ParameterDomainError, \
    SingularGradientError


def _fd_gradient(curve, p, h=1e-6):
    v = curve.vertices
    n, dim = v.shape
    grad = np.zeros_like(v)
    for i in range(n):
        for d in range(dim):
            plus = v.copy()
            plus[i, d] += h
            minus = v.copy()
            minus[i, d] -= h
            f_plus = np.mean(geo.squared_chord_matrix(plus) ** (p / 2))
            f_minus = np.mean(geo.squared_chord_matrix(minus) ** (p / 2))
            grad[i, d] = (f_plus - f_minus) / (2 * h)
    return grad


def _dense_tangent_project(curve, grad):
    """Reference: solve the n x n system J J^T mult = J grad densely."""
    v = curve.vertices
    n = curve.n
    edges = np.roll(v, -1, axis=0) - v
    u = edges / np.linalg.norm(edges, axis=1)[:, None]
    jg = np.einsum("id,id->i", u, np.roll(grad, -1, axis=0) - grad)
    jjt = 2.0 * np.eye(n)
    coupling = -np.einsum("id,id->i", u, np.roll(u, -1, axis=0))
    idx = np.arange(n)
    jjt[idx, (idx + 1) % n] = coupling
    jjt[(idx + 1) % n, idx] = coupling
    mult = linalg.solve(jjt, jg, assume_a="pos")
    return grad + mult[:, None] * u - np.roll(mult[:, None] * u, 1, axis=0)


def _frame(curve):
    return opt._TangentFrame(*opt._edges(curve.vertices))


def _relative_edge_error(v):
    lengths = geo.PolyCurve(v).edge_lengths()
    h = 2 * np.pi / len(lengths)
    return np.abs(lengths - h).max() / h


def _min_pair_distance(curve):
    d2 = geo.squared_chord_matrix(curve.vertices)
    np.fill_diagonal(d2, np.inf)
    return float(np.sqrt(d2.min()))


class TestObjectiveGradient:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_matches_finite_differences(self, p):
        curve = geo.random_closed_curve(11, n=64)
        grad = opt.objective_grad(curve, p)
        fd = _fd_gradient(curve, p)
        scale = max(1.0, np.abs(fd).max())
        assert np.abs(grad - fd).max() / scale < 1e-6

    def test_p2_closed_form(self, circle256):
        # for p = 2 the gradient is (4/N^2)(N v - sum v) exactly
        v = circle256.vertices
        n = circle256.n
        expected = (4.0 / n ** 2) * (n * v - v.sum(axis=0))
        assert np.abs(opt.objective_grad(circle256, 2.0)
                      - expected).max() < 1e-14

    def test_invalid_exponent(self, circle256):
        # at p = nan the gradient used to be all NaN
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ParameterDomainError):
                opt.objective_grad(circle256, bad)


def _dense_power_sum(v, p):
    """Dense n x n reference from exact vertex differences: the power
    mean, the gradient of the power sum and the closest squared chord."""
    n = len(v)
    diff = v[:, None, :] - v[None, :, :]
    d2 = np.einsum("ikd,ikd->ik", diff, diff)
    off = ~np.eye(n, dtype=bool)
    w = np.zeros_like(d2)
    w[off] = d2[off] ** ((p - 2) / 2)
    value = (np.sum(w * d2) / n ** 2) ** (1 / p)
    grad = (2 * p / n ** 2) * np.einsum("ik,ikd->id", w, diff)
    return value, grad, d2[off].min()


class TestChordBand:
    @pytest.mark.parametrize("n", [32, 33, 64, 255, 256])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.46, 4.0])
    def test_matches_dense_reference(self, n, p):
        # odd n holds each pair once in the band; even n holds the
        # offset n/2 twice, at half weight
        curve = opt.perturb_mode2(geo.make_ellipse(1.5, n), 0.05)
        v = curve.vertices
        band = opt._ChordBand(n)
        closest = band.tabulate(v)
        value = band.power_mean(p)
        grad = band.gradient(v, p)
        ref_value, ref_grad, ref_closest = _dense_power_sum(v, p)
        assert value == pytest.approx(ref_value, rel=1e-14, abs=0)
        scale = max(1.0, np.abs(ref_grad).max())
        assert np.abs(grad - ref_grad).max() / scale < 1e-12
        assert np.array_equal(opt.objective_grad(curve, p), grad)
        # the Gram form costs short chords their relative precision
        assert abs(closest - ref_closest) < 1e-14

    def test_space_curve(self):
        curve = geo.random_closed_curve(2, n=33, dim=3)
        ref_grad = _dense_power_sum(curve.vertices, 3.0)[1]
        grad = opt.objective_grad(curve, 3.0)
        assert grad.shape == (33, 3)
        assert np.abs(grad - ref_grad).max() < 1e-12 * np.abs(ref_grad).max()
        fd = _fd_gradient(curve, 3.0)
        assert np.abs(grad - fd).max() / max(1.0, np.abs(fd).max()) < 1e-6

    @pytest.mark.parametrize("offset", [1, 64, 65])
    def test_coincident_pair_is_singular_below_p2(self, offset):
        v = opt.perturb_mode2(geo.make_circle(128), 0.05).vertices.copy()
        v[offset] = v[0] + 0.1 * opt.MIN_PAIR_DISTANCE
        curve = geo.PolyCurve(v)
        with pytest.raises(SingularGradientError):
            opt.objective_grad(curve, 1.5)
        assert np.all(np.isfinite(opt.objective_grad(curve, 2.5)))


class TestProjection:
    def test_project_restores_invariants(self):
        rng = np.random.default_rng(3)
        curve = geo.make_circle(128)
        noisy = geo.PolyCurve(
            curve.vertices + 0.02 * rng.normal(size=(128, 2)))
        projected = opt.project(noisy)
        projected.validate()
        assert np.abs(projected.centroid()).max() < 1e-12

    def test_dependent_edge_constraints_raise(self):
        # a doubly covered segment: the Sherman-Morrison denominator of
        # its cyclic J J^T is exactly zero, which used to give NaNs
        segment = geo.make_double_segment(64)
        with pytest.raises(DegenerateCurveError, match="not independent"):
            _frame(segment)
        with pytest.raises(DegenerateCurveError, match="not independent"):
            opt.maximize(4.0, segment, opt.OptimizeOptions(n=64, max_iters=5))

    def test_tangent_projection_kills_constraint_derivative(self):
        curve = geo.random_closed_curve(6, n=128)
        grad = opt.objective_grad(curve, 3.0)
        pg = _frame(curve).project(grad)
        edges = curve.edges()
        u = edges / np.linalg.norm(edges, axis=1)[:, None]
        jg = np.einsum("id,id->i", u, np.roll(pg, -1, axis=0) - pg)
        assert np.abs(jg).max() < 1e-10

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("shape", ["bumped circle", "stretched ellipse"])
    def test_tangent_projection_matches_dense_solve(self, n, shape):
        if shape == "bumped circle":
            curve = opt.perturb_mode2(geo.make_circle(n), 0.05)
        else:
            curve = geo.make_ellipse(8, n)
        grad = opt.objective_grad(curve, 3.0)
        pg = _frame(curve).project(grad)
        ref = _dense_tangent_project(curve, grad)
        assert np.linalg.norm(pg - ref) / np.linalg.norm(ref) < 1e-10

    @pytest.mark.parametrize("n", [64, 1024])
    def test_normal_field_has_the_given_edge_derivative(self, n):
        # J normal(c) = J J^T (J J^T)^-1 c = c
        curve = opt.perturb_mode2(geo.make_circle(n), 0.05)
        frame = _frame(curve)
        c = np.random.default_rng(4).normal(size=n)
        field = frame.normal(c)
        jf = np.einsum("id,id->i", frame.u, np.roll(field, -1, axis=0) - field)
        assert np.abs(jf - c).max() < 1e-12 * np.abs(c).max()

    def test_project_is_field_minus_normal_of_its_edge_derivative(self):
        curve = geo.random_closed_curve(6, n=128)
        frame = _frame(curve)
        grad = opt.objective_grad(curve, 3.0)
        jg = np.einsum("id,id->i", frame.u, np.roll(grad, -1, axis=0) - grad)
        assert np.array_equal(frame.project(grad), grad - frame.normal(jg))

    def test_perturb_mode2_breaks_roundness(self, circle256):
        bumped = opt.perturb_mode2(circle256, 0.05)
        bumped.validate()
        assert shp.width_ratio(bumped) > 1.05


def _bumped_trial(n, step, direction="gradient"):
    """A bumped n-gon, its tangent frame and a trial v + step * d along a
    tangent direction d: the projected A_4 gradient scaled to unit norm,
    or a projected random field whose largest vertex move is 1."""
    curve = opt.perturb_mode2(geo.make_circle(n), 0.05)
    frame = _frame(curve)
    if direction == "gradient":
        d = frame.project(opt.objective_grad(curve, 4.0))
        d /= np.linalg.norm(d)
    else:
        d = frame.project(np.random.default_rng(n).normal(size=(n, 2)))
        d /= np.linalg.norm(d, axis=1).max()
    return curve, frame, curve.vertices + step * d


class TestRetraction:
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_equal_edges_and_centroid_at_origin(self, n):
        _, frame, trial = _bumped_trial(n, 0.1)
        assert _relative_edge_error(trial) > 1e-6
        v, edges, lengths = opt._retract(trial + [0.5, -0.25],
                                         2 * np.pi / n, frame)
        assert _relative_edge_error(v) < 1e-13
        assert np.abs(v.mean(axis=0)).max() < 1e-15
        # the edges it hands on are those of the returned vertices
        ref_edges = np.roll(v, -1, axis=0) - v
        assert np.abs(edges - ref_edges).max() < 1e-15
        assert np.abs(lengths - np.linalg.norm(ref_edges, axis=1)).max() \
            < 1e-15

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_feasible_curve_comes_back_unchanged(self, n):
        _, frame, trial = _bumped_trial(n, 0.1)
        h = 2 * np.pi / n
        for v in (geo.make_circle(n).vertices,
                  opt._retract(trial, h, frame)[0]):
            again = opt._retract(v, h, _frame(geo.PolyCurve(v)))[0]
            assert np.abs(again - v).max() < 1e-15

    @pytest.mark.parametrize("direction", ["gradient", "random"])
    @pytest.mark.parametrize("edges_moved", [2, 5, 20])
    def test_long_step_raises_or_returns_equal_edges(self, direction,
                                                      edges_moved):
        n = 256
        h = 2 * np.pi / n
        # the largest vertex move is edges_moved edge lengths
        step = edges_moved * h
        if direction == "gradient":
            step *= np.sqrt(n)
        _, frame, trial = _bumped_trial(n, step, direction)
        try:
            v = opt._retract(trial, h, frame)[0]
        except DegenerateCurveError:
            return
        assert _relative_edge_error(v) < 1e-13
        assert np.abs(v.mean(axis=0)).max() < 1e-15

    def test_growing_error_raises_at_once(self, monkeypatch):
        n = 256
        steps = []
        real_normal = opt._TangentFrame.normal

        def normal(self, c):
            steps.append(c)
            return real_normal(self, c)

        monkeypatch.setattr(opt._TangentFrame, "normal", normal)
        # two edge lengths per vertex along the gradient: the first
        # Newton step moves the edges further from 2*pi/n
        _, frame, trial = _bumped_trial(n, 2 * 2 * np.pi / np.sqrt(n))
        steps.clear()  # the projection of the direction
        with pytest.raises(DegenerateCurveError, match="diverged"):
            opt._retract(trial, 2 * np.pi / n, frame)
        assert len(steps) == 1

    def test_iteration_budget_at_n1024(self):
        # a fixed 1e-14 target is below round-off at n=1024: every trial
        # raised and the line search stalled on its first iteration
        n = 1024
        init = opt.perturb_mode2(geo.make_circle(n), 0.05)
        result = opt.maximize(4.0, init, opt.OptimizeOptions(
            n=n, max_iters=5))
        assert result.reason is opt.Termination.MAX_ITERS
        assert result.iterations == 5
        assert result.value > fn.avg_chord_p(init, 4.0)


class TestCanonicalize:
    def test_idempotent_up_to_tolerance(self):
        curve = opt.canonicalize(geo.random_closed_curve(8, n=256))
        again = opt.canonicalize(curve)
        assert np.abs(again.vertices - curve.vertices).max() < 1e-9

    def test_removes_rigid_motions(self):
        # the ellipse is mirror-symmetric; the random curve has decisive
        # third moments
        for curve in (geo.make_ellipse(2, 256),
                      geo.random_closed_curve(8, n=256)):
            a = opt.canonicalize(curve)
            for theta in (0.7, 2.5, 4.0, 5.5):
                rot = np.array([[np.cos(theta), -np.sin(theta)],
                                [np.sin(theta), np.cos(theta)]])
                moved = geo.PolyCurve(curve.vertices @ rot.T + [3.0, -1.0])
                b = opt.canonicalize(moved)
                assert np.abs(a.vertices - b.vertices).max() < 1e-9

    def test_removes_rigid_motions_of_the_p4_maximizer(self):
        # the maximizer is symmetric under both reflections, so both
        # third moments are round-off: the reflections must come from
        # the orientation, not from which mirror vertex wins by 1e-16
        init = opt.perturb_mode2(geo.make_circle(256), 0.05)
        curve = opt.maximize(4.0, init, opt.OptimizeOptions(n=256)).curve
        ref = opt.canonicalize(curve).vertices
        rng = np.random.default_rng(0)
        for shift in (0, 7) * 25:
            theta = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(theta), -np.sin(theta)],
                            [np.sin(theta), np.cos(theta)]])
            moved = np.roll(curve.vertices, shift, axis=0) @ rot.T \
                + [3.0, -1.0]
            canon = opt.canonicalize(geo.PolyCurve(moved)).vertices
            assert np.abs(canon - ref).max() < 1e-9

    def test_mirror_pair_at_the_largest_x_goes_to_the_larger_y(self):
        # a stretched 64-gon whose two rightmost vertices mirror each
        # other across the major axis: their x agree to round-off
        n = 64
        t = (2 * np.arange(n) + 1) * np.pi / n
        curve = geo.PolyCurve(np.column_stack([2 * np.cos(t), np.sin(t)]))
        ref = opt.canonicalize(curve).vertices
        assert ref[0, 1] > 0 and abs(ref[-1, 0] - ref[0, 0]) < 1e-9
        rng = np.random.default_rng(1)
        for shift in range(20):
            theta = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(theta), -np.sin(theta)],
                            [np.sin(theta), np.cos(theta)]])
            moved = np.roll(curve.vertices, shift, axis=0) @ rot.T
            canon = opt.canonicalize(geo.PolyCurve(moved)).vertices
            assert np.abs(canon - ref).max() < 1e-9

    def test_counterclockwise(self):
        curve = geo.random_closed_curve(8, n=256)
        for v in (curve.vertices, curve.vertices[::-1]):
            x, y = opt.canonicalize(geo.PolyCurve(v)).vertices.T
            assert np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) > 0

    def test_rejects_space_curves(self):
        with pytest.raises(ValueError):
            opt.canonicalize(geo.random_closed_curve(1, n=128, dim=3))


class TestMaximize:
    def test_subcritical_returns_to_circle(self):
        opts = opt.OptimizeOptions(n=128, max_iters=500)
        init = opt.perturb_mode2(geo.make_circle(128), 0.05)
        result = opt.maximize(1.5, init, opts)
        assert result.converged
        assert result.reason is opt.Termination.GRAD_TOL
        assert result.value == pytest.approx(fn.circle_avg_chord(1.5),
                                             abs=1e-3)
        assert shp.hausdorff(opt.canonicalize(result.curve),
                             geo.make_circle(128)) < 1e-3

    def test_line_search_stall_is_not_convergence(self):
        # the circle is stationary, so its projected gradient is
        # round-off, far above this tol_grad, and no step ascends
        opts = opt.OptimizeOptions(n=128, max_iters=50, tol_grad=1e-300)
        result = opt.maximize(1.5, geo.make_circle(128), opts)
        assert result.reason is opt.Termination.LINE_SEARCH_STALLED
        assert result.converged is False
        assert result.iterations < opts.max_iters

    def test_iteration_cap_is_not_convergence(self):
        opts = opt.OptimizeOptions(n=128, max_iters=3)
        init = opt.perturb_mode2(geo.make_circle(128), 0.05)
        result = opt.maximize(4.0, init, opts)
        assert result.reason is opt.Termination.MAX_ITERS
        assert result.converged is False
        assert result.iterations == 3

    def test_p4_from_perturbed_circle_within_budget(self):
        opts = opt.OptimizeOptions(n=128)
        init = opt.perturb_mode2(geo.make_circle(128), 0.05)
        result = opt.maximize(4.0, init, opts)
        assert result.iterations <= 250
        assert result.value >= 1.5975

    def test_p2_value_is_sqrt2(self):
        opts = opt.OptimizeOptions(n=128, max_iters=500)
        result = opt.maximize(2.0, geo.make_ellipse(1.5, 128), opts)
        assert result.value == pytest.approx(np.sqrt(2), abs=1e-3)

    def test_monotone_history(self):
        opts = opt.OptimizeOptions(n=128, max_iters=200)
        init = opt.perturb_mode2(geo.make_circle(128), 0.05)
        result = opt.maximize(4.0, init, opts)
        values = [v for _, v, _ in result.history]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_one_chord_table_per_retracted_trial(self, monkeypatch):
        counts = {"tables": 0, "projections": 0, "trials": 0, "retracted": 0}
        real_retract = opt._retract

        def counting(name, func):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)
            return wrapper

        def retract(*args):
            counts["trials"] += 1
            out = real_retract(*args)
            counts["retracted"] += 1
            return out

        init = opt.perturb_mode2(geo.make_circle(128), 0.05)
        monkeypatch.setattr(opt, "squared_chord_matrix",
                            counting("tables", geo.squared_chord_matrix))
        monkeypatch.setattr(opt, "project",
                            counting("projections", opt.project))
        monkeypatch.setattr(opt, "_retract", retract)
        result = opt.maximize(4.0, init, opt.OptimizeOptions(
            n=128, max_iters=50))
        # the resampler places the start curve only; every trial goes
        # through the Newton retraction, and each one it returns gets
        # one chord table
        assert counts["projections"] == 1
        assert counts["trials"] >= result.iterations
        assert counts["tables"] == counts["retracted"] + 1

    def test_one_frame_per_iteration_and_one_power_per_trial(
            self, monkeypatch):
        counts = {"frames": 0, "tables": 0, "powers": 0, "retractions": 0}
        built = []  # frames maximize builds, outside the retraction
        inside = []
        real_frame = opt._TangentFrame
        real_retract = opt._retract
        real_tabulate = opt._ChordBand.tabulate
        real_power_mean = opt._ChordBand.power_mean

        def frame(edges, lengths):
            made = real_frame(edges, lengths)
            if not inside:
                built.append(made)
            return made

        def retract(v, h, iteration_frame):
            # the first Newton step uses the iteration's factored frame
            assert iteration_frame is built[-1]
            counts["retractions"] += 1
            inside.append(True)
            try:
                return real_retract(v, h, iteration_frame)
            finally:
                inside.pop()

        def tabulate(band, v):
            counts["tables"] += 1
            return real_tabulate(band, v)

        def power_mean(band, p):
            counts["powers"] += 1
            return real_power_mean(band, p)

        monkeypatch.setattr(opt, "_TangentFrame", frame)
        monkeypatch.setattr(opt, "_retract", retract)
        monkeypatch.setattr(opt._ChordBand, "tabulate", tabulate)
        monkeypatch.setattr(opt._ChordBand, "power_mean", power_mean)
        init = opt.perturb_mode2(geo.make_circle(128), 0.05)
        result = opt.maximize(4.0, init, opt.OptimizeOptions(
            n=128, max_iters=50))
        assert len(built) == result.iterations
        assert counts["retractions"] >= result.iterations
        # the start curve's table and one per accepted trial at least
        assert counts["tables"] > result.iterations
        assert counts["powers"] == counts["tables"]

    @staticmethod
    def _crowded_retractions_rejected(monkeypatch, offset):
        init = opt.perturb_mode2(geo.make_circle(128), 0.05)
        start = opt.project(init)
        start_value = fn.avg_chord_p(start, 4.0)
        # scaled up, the curve beats the start by far; its vertex at the
        # given offset sits within MIN_PAIR_DISTANCE / 10 of vertex 0
        crowded = 1.1 * start.vertices
        crowded[offset] = crowded[0] + 0.1 * opt.MIN_PAIR_DISTANCE
        assert fn.avg_chord_p(geo.PolyCurve(crowded), 4.0) > start_value
        calls = []

        def retract(v, h, frame):
            calls.append(v)
            return (crowded,) + opt._edges(crowded)

        monkeypatch.setattr(opt, "_retract", retract)
        result = opt.maximize(4.0, init, opt.OptimizeOptions(
            n=128, max_iters=20))
        assert len(calls) > 1
        assert result.value == start_value
        assert _min_pair_distance(result.curve) >= opt.MIN_PAIR_DISTANCE

    def test_crowded_retraction_never_accepted(self, monkeypatch):
        self._crowded_retractions_rejected(monkeypatch, 1)

    def test_crowded_pair_at_half_turn_never_accepted(self, monkeypatch):
        # offset n/2, the band's last column, which holds each of its
        # pairs twice
        self._crowded_retractions_rejected(monkeypatch, 64)

    def test_invalid_inputs(self):
        opts = opt.OptimizeOptions(n=128)
        # at p = nan maximize used to return a NaN value, at p = inf 1.0
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ParameterDomainError, match="finite p > 0"):
                opt.maximize(bad, geo.make_circle(128), opts)
        with pytest.raises(ValueError):
            opt.maximize(2.0, geo.random_closed_curve(1, n=128, dim=3), opts)

    def test_options_validation(self):
        with pytest.raises(ValueError):
            opt.OptimizeOptions(n=16)
        for bad in (0.0, -1e-7, float("nan")):
            with pytest.raises(ValueError):
                opt.OptimizeOptions(tol_grad=bad)
        for bad in (0, -5):
            with pytest.raises(ValueError, match="max_iters"):
                opt.OptimizeOptions(max_iters=bad)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="perturb"):
                opt.OptimizeOptions(perturb=bad)

    def test_options_are_the_four_settings(self):
        assert list(opt.OptimizeOptions.__dataclass_fields__) == [
            "n", "max_iters", "tol_grad", "perturb"]


class TestFirstTrialStep:
    def test_barzilai_borwein_short_step(self):
        rng = np.random.default_rng(5)
        s = rng.normal(size=(64, 2))
        y = s + 0.1 * rng.normal(size=(64, 2))
        k = np.fft.fftfreq(64, d=1.0 / 64)
        smooth_y = np.real(np.fft.ifft(np.fft.fft(y, axis=0) / (
            1.0 + opt.SMOOTH_SIGMA * k ** 2)[:, None], axis=0))
        expected = np.sum(s * y) / np.sum(y * smooth_y) * 0.3
        assert opt._first_trial_step(7.0, s, y, 0.3) \
            == pytest.approx(expected, rel=1e-14)

    def test_non_positive_curvature_keeps_doubled_step(self):
        s = np.random.default_rng(6).normal(size=(64, 2))
        assert opt._first_trial_step(7.0, s, -s, 0.3) == 7.0
        assert opt._first_trial_step(7.0, s, np.zeros_like(s), 0.3) == 7.0

    def test_step_is_capped(self):
        s = np.random.default_rng(7).normal(size=(64, 2))
        step = opt._first_trial_step(7.0, s, 1e-9 * s, 1.0)
        assert step == opt.MAX_STEP_FACTOR * opt.STEP0 == 1e3


class TestSweep:
    def test_requires_sorted_grid(self):
        with pytest.raises(ValueError):
            opt.sweep([3.0, 2.0], opt.OptimizeOptions(n=128))

    def test_records_have_grid_exponents(self):
        opts = opt.OptimizeOptions(n=128, max_iters=300)
        grid = [2.0, 3.0]
        records = opt.sweep(grid, opts)
        assert [r.p for r in records] == grid
        assert all(np.isfinite(r.value) for r in records)
        assert all(r.r < 1.05 for r in records)
        for rec in records:
            rec.curve.validate()
            assert shp.width_ratio(rec.curve) == rec.r
            assert rec.reason == opt.Termination.GRAD_TOL.value
            assert 0 < rec.iterations <= opts.max_iters

    def test_high_leg_is_the_same_at_one_and_two_blas_threads(self):
        # a verdict must not depend on the BLAS thread count; the sweep
        # runs in fresh processes, since OpenBLAS reads it at load time
        src = os.path.dirname(os.path.dirname(os.path.abspath(opt.__file__)))
        probe = ("import json; from chordenergy import optimizer as opt; "
                 "recs = opt.sweep([3.8, 4.0], opt.OptimizeOptions(n=256)); "
                 "print(json.dumps([[r.iterations, r.reason, r.value] "
                 "for r in recs]))")
        tables = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src,
                       OPENBLAS_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-c", probe], env=env,
                                  capture_output=True, text=True,
                                  timeout=600)
            assert done.returncode == 0, done.stderr
            tables.append(json.loads(done.stdout))
        assert len(tables[0]) == 2
        assert tables[0] == tables[1]

    def test_criterion_9_sweep_iteration_budget(self):
        # the three legs of the criterion-9 sweep: 21 solves at n=256
        opts = opt.OptimizeOptions(n=256, max_iters=2000)
        grids = ([2.0, 2.5, 3.0, 3.2], [3.8, 4.0],
                 [round(3.0 + 0.05 * i, 2) for i in range(15)])
        records = [rec for grid in grids for rec in opt.sweep(grid, opts)]
        assert len(records) == 21
        assert all(rec.reason != opt.Termination.MAX_ITERS.value
                   for rec in records)
        assert sum(rec.iterations for rec in records) <= 2564


class TestCrossover:
    def test_value(self):
        c = opt.crossover_segment_circle()
        assert c == pytest.approx(3.57202, abs=1e-4)

    def test_sign_change(self):
        c = opt.crossover_segment_circle()
        below = fn.segment_avg_chord(c - 0.1) - fn.circle_avg_chord(c - 0.1)
        above = fn.segment_avg_chord(c + 0.1) - fn.circle_avg_chord(c + 0.1)
        assert below < 0 < above
