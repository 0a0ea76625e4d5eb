import functools
import json
import math
import time
import types
import warnings

import numpy as np
import pytest
from scipy import linalg

from chordenergy import functionals as fn
from chordenergy import geometry as geo
from chordenergy import harness
from chordenergy import optimizer as opt
from chordenergy import shape as shp
from chordenergy import spectral as spec
from chordenergy.errors import DegenerateCurveError, ParameterDomainError, \
    SingularGradientError
from test_import_path import _run_probe


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


def _unit_edges(curve):
    edges, lengths = geo._edges(curve.vertices)
    return edges / lengths[:, None]


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
        value = band.power_mean(v, p)
        grad = band.gradient(v, p)
        ref_value, ref_grad, ref_closest = _dense_power_sum(v, p)
        assert value == pytest.approx(ref_value, rel=1e-14, abs=0)
        scale = max(1.0, np.abs(ref_grad).max())
        assert np.abs(grad - ref_grad).max() / scale < 1e-12
        assert np.array_equal(opt.objective_grad(curve, p), grad)
        # the floor reads the closest pair, which the Gram form costs its
        # relative precision: a floor 1e-14 below it passes, 1e-14 above
        # it stops the pass
        assert band.power_mean(v, p, ref_closest - 1e-14) == value
        assert band.power_mean(v, p, ref_closest + 1e-14) is None

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

    @staticmethod
    def _block_entries(n, blocks):
        """A BAND_BLOCK that splits the chord table of n vertices into
        the given number of row blocks: 1, 2, or n // 2 for n, since a
        block holds two rows at least."""
        rows = {1: n, 2: -(-n // 2), n: 1}[blocks]
        return rows * (n + n // 2)

    @pytest.mark.parametrize("n", [33, 64, 256])
    def test_block_count_changes_no_bits(self, monkeypatch, n):
        # each Gram entry is the same dot product in every block shape,
        # and the row sums are summed in one order
        curve = opt.perturb_mode2(geo.make_ellipse(1.5, n), 0.05)
        v = curve.vertices
        init = opt.perturb_mode2(geo.make_circle(n), 0.05)
        runs = []
        for blocks in (1, 2, n):
            monkeypatch.setattr(opt, "BAND_BLOCK",
                                self._block_entries(n, blocks))
            band = opt._ChordBand(n)
            assert len(band.blocks) == min(blocks, n // 2)
            value = band.power_mean(v, 3.0)
            result = opt.maximize(4.0, init, opt.OptimizeOptions(
                n=n, max_iters=10))
            runs.append((value, band.gradient(v, 3.0),
                         opt.objective_grad(curve, 1.5), result))
        for value, grad, low_grad, result in runs[1:]:
            assert value == runs[0][0]
            assert np.array_equal(grad, runs[0][1])
            assert np.array_equal(low_grad, runs[0][2])
            first = runs[0][3]
            assert result.history[1:] == first.history[1:]
            assert result.history[0].value == first.history[0].value
            assert result.reason is first.reason
            assert np.array_equal(result.curve.vertices,
                                  first.curve.vertices)

    @pytest.mark.parametrize("n", [9, 33, 1226])
    def test_each_block_tabulates_its_own_rows(self, monkeypatch, n):
        # BAND_BLOCK of one row asks for one-row blocks; each block gets
        # two rows at least, and its chord table holds exactly the rows
        # whose band and row sums it fills
        monkeypatch.setattr(opt, "BAND_BLOCK", n + n // 2)
        band = opt._ChordBand(n)
        band.sums[:] = np.arange(n)
        for rows, table, _, band_weights, sums in band.blocks:
            assert len(sums) >= 2
            assert np.array_equal(np.arange(n)[rows], sums)
            assert table.shape[0] == len(band_weights) == len(sums)
        assert np.array_equal(
            np.concatenate([sums for *_, sums in band.blocks]), np.arange(n))
        # the same value and gradient as one block holding every row
        v = geo.random_closed_curve(2, n=n).vertices
        value = band.power_mean(v, 1.5)
        grad = band.gradient(v, 1.5)
        monkeypatch.setattr(opt, "BAND_BLOCK", n * (n + n // 2))
        whole = opt._ChordBand(n)
        assert len(whole.blocks) == 1
        assert whole.power_mean(v, 1.5) == value
        assert np.array_equal(whole.gradient(v, 1.5), grad)

    @pytest.mark.parametrize("rows", [1, 2, 7, 33])
    def test_gradient_row_chunks_match_dense_reference(self, monkeypatch,
                                                        rows):
        # chunks of one row (products through gemv), of a few rows with
        # a short last chunk, and one chunk of every row
        n = 33
        monkeypatch.setattr(opt, "GRAD_CHUNK", rows * (n + n // 2))
        curve = opt.perturb_mode2(geo.make_ellipse(1.5, n), 0.05)
        v = curve.vertices
        band = opt._ChordBand(n)
        band.power_mean(v, 3.0)
        grad = band.gradient(v, 3.0)
        ref_grad = _dense_power_sum(v, 3.0)[1]
        assert np.abs(grad - ref_grad).max() < 1e-12 * np.abs(ref_grad).max()

    def test_gradient_is_the_same_at_one_and_two_blas_threads(self):
        # whole-buffer products gave another gradient at 2 OpenBLAS
        # threads at n = 1225, 1226, 1227 and 1500; fresh processes,
        # since OpenBLAS reads the thread count at load time
        probe = ("import hashlib\n"
                 "from chordenergy import geometry as geo, optimizer as opt\n"
                 "for n in (256, 1225, 1226, 1227, 1500):\n"
                 "    curve = geo.random_closed_curve(2, n=n)\n"
                 "    grad = opt.objective_grad(curve, 1.5)\n"
                 "    print(n, hashlib.sha256(grad.tobytes()).hexdigest())")
        one, two = (_run_probe(probe, OPENBLAS_NUM_THREADS=threads)
                    for threads in ("1", "2"))
        assert len(one.splitlines()) == 5
        assert one == two

    def test_crowded_last_block_is_not_powered(self, monkeypatch):
        # two coincident dyadic vertices give an exactly zero chord in
        # the last block, whose power at p < 2 would divide by zero
        n = 64
        monkeypatch.setattr(opt, "BAND_BLOCK", self._block_entries(n, 2))
        v = opt.perturb_mode2(geo.make_circle(n), 0.05).vertices.copy()
        v[60] = v[61] = (0.5, 0.25)
        band = opt._ChordBand(n)
        last = slice(n // 2, n)
        floor = opt.MIN_PAIR_DISTANCE ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert band.power_mean(v, 1.5, floor) is None
            with pytest.raises(SingularGradientError):
                opt.objective_grad(geo.PolyCurve(v), 1.5)
        assert np.all(band.band_weights[:last.start] > 0)
        assert not band.band_weights[last].any()
        # with no floor the block is powered, and the zero chord warns
        with pytest.warns(RuntimeWarning):
            band.power_mean(v, 1.5)
        assert band.band_weights[last].any()

    def test_no_whole_chord_table_is_held(self):
        # the weight buffer and a scratch of at most BAND_BLOCK entries;
        # views of them count once, through the array that owns them
        n = 1024
        band = opt._ChordBand(n)
        owners = {}

        def own(obj):
            if isinstance(obj, (list, tuple)):
                for item in obj:
                    own(item)
            elif isinstance(obj, np.ndarray):
                while getattr(obj, "base", None) is not None:
                    obj = obj.base
                owners[id(obj)] = obj

        for name in band.__slots__:
            own(getattr(band, name))
        held = sum(array.nbytes for array in owners.values())
        assert held <= 8 * (n * (n + n // 2) + opt.BAND_BLOCK)


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
            geo._edge_normal(_unit_edges(segment), np.ones(64))
        with pytest.raises(DegenerateCurveError, match="not independent"):
            opt.maximize(4.0, segment, opt.OptimizeOptions(n=64, max_iters=5))

    def test_tangent_projection_kills_constraint_derivative(self):
        curve = geo.random_closed_curve(6, n=128)
        grad = opt.objective_grad(curve, 3.0)
        pg = geo._tangent_part(curve.vertices, grad)
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
        pg = geo._tangent_part(curve.vertices, grad)
        ref = _dense_tangent_project(curve, grad)
        assert np.linalg.norm(pg - ref) / np.linalg.norm(ref) < 1e-10

    @pytest.mark.parametrize("n", [64, 1024])
    def test_normal_field_has_the_given_edge_derivative(self, n):
        # J normal(c) = J J^T (J J^T)^-1 c = c
        curve = opt.perturb_mode2(geo.make_circle(n), 0.05)
        u = _unit_edges(curve)
        c = np.random.default_rng(4).normal(size=n)
        field = geo._edge_normal(u, c)
        jf = np.einsum("id,id->i", u, np.roll(field, -1, axis=0) - field)
        assert np.abs(jf - c).max() < 1e-12 * np.abs(c).max()

    def test_project_is_field_minus_normal_of_its_edge_derivative(self):
        curve = geo.random_closed_curve(6, n=128)
        u = _unit_edges(curve)
        grad = opt.objective_grad(curve, 3.0)
        jg = np.einsum("id,id->i", u, np.roll(grad, -1, axis=0) - grad)
        assert np.array_equal(geo._tangent_part(curve.vertices, grad),
                              grad - geo._edge_normal(u, jg))

    def test_one_lapack_call_per_normal_field(self, monkeypatch):
        # the cyclic solve and its Sherman-Morrison vector share one
        # tridiagonal solve, on two right-hand sides
        curve = opt.perturb_mode2(geo.make_circle(64), 0.05)
        geo._bind_lapack()
        calls = []
        real_ptsv = geo._ptsv

        def ptsv(*args, **kwargs):
            calls.append(args[2].shape)
            return real_ptsv(*args, **kwargs)

        monkeypatch.setattr(geo, "_ptsv", ptsv)
        geo._edge_normal(_unit_edges(curve), np.ones(64))
        assert calls == [(64, 2)]
        geo._tangent_part(curve.vertices, curve.vertices)
        assert len(calls) == 2

    def test_perturb_mode2_breaks_roundness(self, circle256):
        bumped = opt.perturb_mode2(circle256, 0.05)
        bumped.validate()
        assert shp.width_ratio(bumped) > 1.05


def _bumped_trial(n, step, direction="gradient"):
    """A trial v + step * d from a bumped n-gon v along a tangent
    direction d: the projected A_4 gradient scaled to unit norm, or a
    projected random field whose largest vertex move is 1."""
    curve = opt.perturb_mode2(geo.make_circle(n), 0.05)
    if direction == "gradient":
        d = geo._tangent_part(curve.vertices, opt.objective_grad(curve, 4.0))
        d /= np.linalg.norm(d)
    else:
        d = geo._tangent_part(curve.vertices,
                              np.random.default_rng(n).normal(size=(n, 2)))
        d /= np.linalg.norm(d, axis=1).max()
    return curve.vertices + step * d


class TestRetraction:
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_equal_edges_and_centroid_at_origin(self, n):
        trial = _bumped_trial(n, 0.1)
        assert _relative_edge_error(trial) > 1e-6
        v = geo._retract(trial + [0.5, -0.25], 2 * np.pi / n)
        assert v.shape == (n, 2)
        assert _relative_edge_error(v) < 1e-13
        assert np.abs(v.mean(axis=0)).max() < 1e-15

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_feasible_curve_comes_back_unchanged(self, n):
        trial = _bumped_trial(n, 0.1)
        h = 2 * np.pi / n
        for v in (geo.make_circle(n).vertices, geo._retract(trial, h)):
            again = geo._retract(v, h)
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
        trial = _bumped_trial(n, step, direction)
        try:
            v = geo._retract(trial, h)
        except DegenerateCurveError:
            return
        assert _relative_edge_error(v) < 1e-13
        assert np.abs(v.mean(axis=0)).max() < 1e-15

    def test_growing_error_raises_at_once(self, monkeypatch):
        n = 256
        h = 2 * np.pi / n
        steps, errors = [], []
        real_normal = geo._edge_normal
        real_edges = geo._edges

        def normal(u, c):
            steps.append(c)
            return real_normal(u, c)

        def edges(v):
            out = real_edges(v)
            errors.append(np.abs(out[1] - h).max() / h)
            return out

        # two edge lengths per vertex along the gradient: with J factored
        # at each iterate the error falls for a few steps, then grows
        trial = _bumped_trial(n, 2 * 2 * np.pi / np.sqrt(n))
        monkeypatch.setattr(geo, "_edge_normal", normal)
        monkeypatch.setattr(geo, "_edges", edges)
        with pytest.raises(DegenerateCurveError, match="diverged"):
            geo._retract(trial, h)
        # one error check before each step and one after the last
        assert len(errors) == len(steps) + 1 > 2
        # the first growth raises, with no step after it
        assert all(b < a for a, b in zip(errors[:-2], errors[1:-1]))
        assert errors[-1] > errors[-2]

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


def _eigh_canonicalize(curve):
    """canonicalize with the principal axis from LAPACK's eigensolver,
    as it was computed before the closed form."""
    v = curve.vertices - curve.vertices.mean(axis=0)
    _, vecs = np.linalg.eigh(v.T @ v)
    axis = vecs[:, -1]
    if np.sum((v @ axis) ** 3) < -1e-9:
        axis = -axis
    w = v @ np.column_stack([axis, [-axis[1], axis[0]]])
    if np.sum(w[:, 0] * np.roll(w[:, 1], -1)
              - np.roll(w[:, 0], -1) * w[:, 1]) < 0:
        w[:, 1] = -w[:, 1]
    x = w[:, 0]
    ties = np.flatnonzero(x >= x.max() - 1e-9)
    return np.roll(w, -int(ties[np.argmax(w[ties, 1])]), axis=0)


class TestCanonicalize:
    def test_matches_the_eigensolver_axis(self):
        rng = np.random.default_rng(34)
        compared = 0
        for seed in range(30):
            curve = geo.random_closed_curve(seed, n=256)
            theta = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(theta), -np.sin(theta)],
                            [np.sin(theta), np.cos(theta)]])
            curve = geo.PolyCurve(curve.vertices @ rot.T + [3.0, -1.0])
            v = curve.vertices - curve.vertices.mean(axis=0)
            low, high = np.linalg.eigvalsh(v.T @ v)
            ref = _eigh_canonicalize(curve)
            # only a decisive axis: separated second moments and a third
            # moment far from the 1e-9 threshold
            if low < 0.9 * high and abs(np.sum(ref[:, 0] ** 3)) > 1e-3:
                compared += 1
                assert np.abs(opt.canonicalize(curve).vertices - ref).max() \
                    < 1e-12
        assert compared >= 10

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


@functools.cache
def _circle_start_p4_value():
    """A_4 of the maximizer reached from the bumped circle at n=128."""
    init = opt.perturb_mode2(geo.make_circle(128), 0.05)
    return opt.maximize(4.0, init, opt.OptimizeOptions(n=128)).value


class TestMaximize:
    def test_gradient_norm_is_a_numpy_sum(self):
        # the stop test reads a numpy sum, not the BLAS dot of
        # np.linalg.norm, whose last bit changed with the OpenBLAS thread
        # count on a (20000, 2) array.  At n = 66 OpenBLAS's dot and the
        # numpy sum round differently even at one thread, so the test
        # tells them apart
        init = opt.perturb_mode2(geo.make_circle(66), 0.05)
        result = opt.maximize(4.0, init, opt.OptimizeOptions(
            n=66, max_iters=2))
        edges = geo._edges(init.vertices)[0]
        _, v = geo._close_angles(np.arctan2(edges[:, 1], edges[:, 0]),
                                 geo.TWO_PI / 66)
        tangent = geo._tangent_part(
            v, opt.objective_grad(geo.PolyCurve(v), 4.0))
        assert result.history[1].gnorm == \
            math.sqrt((tangent * tangent).sum())

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

    def test_stalled_search_stops_at_the_iterate(self, monkeypatch):
        # past its maximizer no step ascends: the last iteration's
        # searches end by the round-off stop or once a trial's vertices
        # equal the iterate's, not after 60 trials
        searches = []  # closures of trial angles, one list per iteration
        real_gradient = opt._ChordBand.gradient
        real_close = opt._close_angles

        def gradient(band, v, p):
            searches.append([])
            return real_gradient(band, v, p)

        def close(theta, h):
            out = real_close(theta, h)
            if searches:
                searches[-1].append(out[1])
            return out

        monkeypatch.setattr(opt._ChordBand, "gradient", gradient)
        monkeypatch.setattr(opt, "_close_angles", close)
        init = opt.perturb_mode2(geo.make_circle(64), 0.05)
        result = opt.maximize(4.0, init, opt.OptimizeOptions(
            n=64, tol_grad=1e-300))
        assert result.reason is opt.Termination.LINE_SEARCH_STALLED
        assert 0 < len(searches[-1]) <= 20
        assert result.history[-1].trials == len(searches[-1])
        # nothing accepted: the result is the iterate
        assert result.value == result.history[-2].value
        # one gradient per iteration, each before its searches
        assert len(searches) == result.iterations

    @staticmethod
    def _trials_at_the_iterate(monkeypatch, p, searches):
        """Every trial closes back onto the start: the first one ends
        each of the given number of searches, and nothing is accepted.
        The closure of the start curve is the real one."""
        real_close = opt._close_angles
        calls = []

        def close(theta, h):
            if not calls:
                calls.append(real_close(theta, h))
                return calls[-1]
            calls.append(theta)
            return calls[0][0].copy(), calls[0][1].copy()

        monkeypatch.setattr(opt, "_close_angles", close)
        init = opt.perturb_mode2(geo.make_circle(64), 0.05)
        result = opt.maximize(p, init, opt.OptimizeOptions(n=64))
        assert result.reason is opt.Termination.LINE_SEARCH_STALLED
        assert result.iterations == 1 and len(calls) == 1 + searches
        assert result.history[-1].trials == searches
        assert result.value == result.history[0].value
        assert np.array_equal(result.curve.vertices, calls[0][1])

    def test_trial_at_the_iterate_ends_the_search(self, monkeypatch):
        self._trials_at_the_iterate(monkeypatch, 4.0, 1)

    def test_trial_at_the_iterate_ends_the_metric_search_and_its_restart(
            self, monkeypatch):
        # below the critical exponent the first search is along the n-gon
        # metric, so it fails and its restart along the gradient follows
        self._trials_at_the_iterate(monkeypatch, 3.0, 2)

    def test_history_counts_the_trials(self, monkeypatch):
        calls = []
        searches = []  # (iteration, trials) of each line search
        real_close = opt._close_angles
        real_search = opt._line_search
        real_gradient = opt._ChordBand.gradient
        # each iteration reads its gradient first
        iteration = [0]

        def gradient(band, v, p):
            iteration[0] += 1
            return real_gradient(band, v, p)

        def search(*args):
            out = real_search(*args)
            searches.append((iteration[0], out[0]))
            return out

        monkeypatch.setattr(opt, "_close_angles",
                            lambda *args: calls.append(1) or
                            real_close(*args))
        monkeypatch.setattr(opt, "_line_search", search)
        monkeypatch.setattr(opt._ChordBand, "gradient", gradient)
        init = opt.perturb_mode2(geo.make_circle(128), 0.05)
        result = opt.maximize(4.0, init, opt.OptimizeOptions(
            n=128, max_iters=50))
        assert [rec.iteration for rec in result.history] \
            == list(range(result.iterations + 1))
        assert result.history[0].trials == 0
        # every closure but the start curve's is a trial
        assert sum(rec.trials for rec in result.history) == len(calls) - 1
        # a restart's trials count in the record of its iteration
        for rec in result.history[1:]:
            assert rec.trials == sum(t for i, t in searches
                                     if i == rec.iteration)
        iterations = [i for i, _ in searches]
        assert len(iterations) > len(set(iterations))
        assert all(isinstance(rec, opt.IterationRecord)
                   for rec in result.history)
        assert result.history[-1][2] == result.history[-1].gnorm

    def test_trial_that_does_not_close_halves_the_step(self, monkeypatch):
        # angles that do not close give no value, so the next trial
        # takes half the step along the same direction
        starts, steps = [], []
        real_close = opt._close_angles
        real_search = opt._line_search

        def search(band, p, h, theta, *args):
            starts.append(theta)
            return real_search(band, p, h, theta, *args)

        def close(theta, h):
            if starts:
                steps.append(theta - starts[0])
                if len(steps) == 1:
                    raise DegenerateCurveError("angles do not close")
            return real_close(theta, h)

        monkeypatch.setattr(opt, "_line_search", search)
        monkeypatch.setattr(opt, "_close_angles", close)
        init = opt.perturb_mode2(geo.make_circle(64), 0.05)
        result = opt.maximize(4.0, init, opt.OptimizeOptions(
            n=64, max_iters=1))
        assert result.history[-1].trials >= 2
        first, second = steps[:2]
        assert np.linalg.norm(second) == pytest.approx(
            np.linalg.norm(first) / 2, rel=1e-9)
        np.testing.assert_allclose(second, first / 2, rtol=0,
                                   atol=1e-9 * np.abs(first).max())

    def test_backtracked_steps_shrink_by_a_bounded_factor(self,
                                                          monkeypatch):
        # each trial lies at its step along the search direction from
        # the iterate's angles; a restart begins a new search
        searches, trials = [], []
        real_close = opt._close_angles
        real_search = opt._line_search

        def search(band, p, h, theta, *args):
            searches.append(theta)
            return real_search(band, p, h, theta, *args)

        def close(theta, h):
            if searches:
                trials.append((len(searches),
                               np.linalg.norm(theta - searches[-1])))
            return real_close(theta, h)

        monkeypatch.setattr(opt, "_line_search", search)
        monkeypatch.setattr(opt, "_close_angles", close)
        ratios = []
        for p in (3.6, 3.8, 4.0):
            init = opt.perturb_mode2(geo.make_circle(128), 0.05)
            opt.maximize(p, init, opt.OptimizeOptions(n=128))
            # to the stall at the round-off floor; below 1e-8 the
            # rounding of the angles shows in the distance
            ratios += [b[1] / a[1] for a, b in zip(trials, trials[1:])
                       if a[0] == b[0] and b[1] > 1e-8]
            searches.clear()
            trials.clear()
        ratios = np.array(ratios)
        assert len(ratios) > 10
        assert np.all(ratios >= opt.BACKTRACK_MIN * (1 - 1e-5))
        assert np.all(ratios <= opt.BACKTRACK_MAX * (1 + 1e-5))
        # the quadratic, not halving, set some of them
        assert np.any(ratios < 0.9 * opt.BACKTRACK_MAX)

    @staticmethod
    def _failing_searches(monkeypatch, keep_failing):
        """Record each line search as (theta, direction, slope, step,
        quasi_newton) and the pair count of each L-BFGS direction.  The
        first search along an L-BFGS direction reports failure, and with
        keep_failing so does every search after it."""
        calls, memory = [], []
        real_search = opt._line_search
        real_direction = opt._lbfgs_direction

        def direction(ascent, pairs, scales):
            memory.append(len(pairs))
            return real_direction(ascent, pairs, scales)

        def search(band, p, h, theta, v, value, direction, slope, step):
            quasi_newton = len(memory) > sum(c[4] for c in calls)
            failed = any(c[4] for c in calls)
            calls.append((theta, direction, slope, step, quasi_newton))
            out = real_search(band, p, h, theta, v, value, direction, slope,
                              step)
            if (quasi_newton and not failed) or (failed and keep_failing):
                return out[0], None
            return out

        monkeypatch.setattr(opt, "_lbfgs_direction", direction)
        monkeypatch.setattr(opt, "_line_search", search)
        return calls, memory

    def _restart_after_a_failed_quasi_newton_search(self, monkeypatch, p):
        calls, memory = self._failing_searches(monkeypatch, False)
        init = opt.perturb_mode2(geo.make_circle(128), 0.05)
        result = opt.maximize(p, init, opt.OptimizeOptions(n=128))
        # the failed search is followed by one along the unit gradient
        # from the same angles and STEP0, within the same iteration
        first = next(i for i, c in enumerate(calls) if c[4])
        theta, direction, slope, step, quasi_newton = calls[first + 1]
        assert not quasi_newton and theta is calls[first][0]
        assert np.linalg.norm(direction) == pytest.approx(1.0, rel=1e-14)
        assert step == opt.STEP0
        assert slope > 0
        # the restart cleared the pairs: the next L-BFGS direction has at
        # most the pair of the restart's step
        assert memory[1] == 1
        assert result.reason is not opt.Termination.MAX_ITERS
        values = [rec.value for rec in result.history]
        assert all(b >= a for a, b in zip(values, values[1:]))
        return calls

    def test_failed_quasi_newton_search_restarts_from_the_gradient(
            self, monkeypatch):
        calls = self._restart_after_a_failed_quasi_newton_search(
            monkeypatch, 4.0)
        # with no pair stored, the first iteration searches the gradient
        assert not calls[0][4]

    def test_failed_metric_search_restarts_from_the_gradient(
            self, monkeypatch):
        # below the critical exponent the first search, the first
        # iteration's, is the quasi-Newton one, along the n-gon metric
        calls = self._restart_after_a_failed_quasi_newton_search(
            monkeypatch, 3.0)
        assert calls[0][4]

    @staticmethod
    def _capped_first_step(monkeypatch, p):
        # a direction far longer than MAX_STEP_FACTOR * STEP0 is first
        # tried at that length, not at its full step
        starts = []  # (direction, step) of each line search
        real_search = opt._line_search
        real_direction = opt._lbfgs_direction

        def search(band, p, h, theta, v, value, direction, slope, step):
            starts.append((direction, step))
            return real_search(band, p, h, theta, v, value, direction, slope,
                               step)

        monkeypatch.setattr(opt, "_line_search", search)
        monkeypatch.setattr(opt, "_lbfgs_direction",
                            lambda ascent, pairs, scales: 1e9 * real_direction(
                                ascent, pairs, scales))
        init = opt.perturb_mode2(geo.make_circle(128), 0.05)
        opt.maximize(p, init, opt.OptimizeOptions(n=128, max_iters=3))
        direction, step = next(c for c in starts if np.linalg.norm(c[0]) > 1e3)
        assert step * np.linalg.norm(direction) == pytest.approx(
            opt.MAX_STEP_FACTOR * opt.STEP0, rel=1e-14)
        assert opt.MAX_STEP_FACTOR * opt.STEP0 == 1e3

    def test_quasi_newton_step_is_capped(self, monkeypatch):
        self._capped_first_step(monkeypatch, 4.0)

    def test_metric_step_is_capped(self, monkeypatch):
        # the first iteration's search below the critical exponent, along
        # the n-gon metric, is capped the same way
        self._capped_first_step(monkeypatch, 3.0)

    def _stall_after_a_failed_restart(self, monkeypatch, p):
        calls, memory = self._failing_searches(monkeypatch, True)
        init = opt.perturb_mode2(geo.make_circle(128), 0.05)
        result = opt.maximize(p, init, opt.OptimizeOptions(n=128))
        assert result.reason is opt.Termination.LINE_SEARCH_STALLED
        # the quasi-Newton search and its restart, in the last iteration
        assert len(memory) == 1
        assert [c[4] for c in calls[-2:]] == [True, False]
        assert calls[-1][0] is calls[-2][0]
        assert result.value == result.history[-2].value

    def test_failed_gradient_search_after_a_restart_stalls(self,
                                                           monkeypatch):
        self._stall_after_a_failed_restart(monkeypatch, 4.0)

    def test_failed_gradient_search_after_a_metric_search_stalls(
            self, monkeypatch):
        self._stall_after_a_failed_restart(monkeypatch, 3.0)

    def test_round_off_stop(self, monkeypatch):
        # the circle maximizes A_1.5, so every trial lowers the value;
        # the search closes trials while a backtracked step's predicted
        # gain step * slope is at least ROUNDOFF_ULPS ulps of F = A_p^p,
        # and none once it is below
        n, p = 64, 1.5
        h = 2 * np.pi / n
        theta, v = _closed_angles(geo.make_circle(n))
        band = opt._ChordBand(n)
        value = band.power_mean(v, p)
        field = np.sin(2 * theta)
        field -= geo._closure_normal(np.cos(theta), np.sin(theta),
                                     _closure_derivative(theta, field))
        direction = field / np.linalg.norm(field)
        floor = opt.ROUNDOFF_ULPS * np.spacing(value ** p)
        assert opt.ROUNDOFF_ULPS == 4
        steps, closures = [], []
        real_backtrack = opt._backtrack
        real_close = opt._close_angles

        def backtrack(*args):
            steps.append(real_backtrack(*args))
            return steps[-1]

        monkeypatch.setattr(opt, "_backtrack", backtrack)
        monkeypatch.setattr(opt, "_close_angles",
                            lambda *args: closures.append(1) or
                            real_close(*args))
        slope = 3e3 * floor
        trials, found = opt._line_search(band, p, h, theta, v, value,
                                         direction, slope, 0.1)
        assert found is None
        assert trials == len(closures) == len(steps) >= 3
        assert all(t * slope >= floor for t in steps[:-1])
        assert steps[-1] * slope < floor

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_start_reaches_the_maximizer(self, seed):
        # above the critical exponent a random start first finds the
        # oval, then relaxes its vertex phase; both within 150 iterations
        result = opt.maximize(4.0, geo.random_closed_curve(seed, n=128),
                              opt.OptimizeOptions(n=128))
        assert result.iterations < 150
        assert result.reason is not opt.Termination.MAX_ITERS
        assert result.value == pytest.approx(_circle_start_p4_value(),
                                              abs=1e-13)

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

    def test_first_search_follows_the_ngon_metric_below_the_critical_exponent(
            self, monkeypatch):
        # below p_c the first iteration searches along H0 ascent from the
        # full step; above it along the unit gradient from STEP0
        starts, directions = [], []
        real_search = opt._line_search
        real_direction = opt._lbfgs_direction

        def search(band, p, h, theta, v, value, direction, slope, step):
            starts.append((direction, step))
            return real_search(band, p, h, theta, v, value, direction, slope,
                               step)

        def direction(ascent, pairs, scales):
            directions.append((len(pairs), scales))
            return real_direction(ascent, pairs, scales)

        monkeypatch.setattr(opt, "_line_search", search)
        monkeypatch.setattr(opt, "_lbfgs_direction", direction)
        init = opt.perturb_mode2(geo.make_circle(128), 0.05)
        opt.maximize(3.0, init, opt.OptimizeOptions(n=128, max_iters=1))
        assert len(directions) == 1 and directions[0][0] == 0
        assert directions[0][1] is not None
        first, step = starts[0]
        assert np.linalg.norm(first) < opt.MAX_STEP_FACTOR * opt.STEP0
        assert step == 1.0
        starts.clear()
        directions.clear()
        opt.maximize(4.0, init, opt.OptimizeOptions(n=128, max_iters=1))
        assert directions == []
        first, step = starts[0]
        assert np.linalg.norm(first) == pytest.approx(1.0, rel=1e-14)
        assert step == opt.STEP0

    def test_chord_tables_are_the_trials_plus_one(self, monkeypatch):
        # one table per trial and one for the start curve; the n-gon
        # spectrum reads none, and no table is read twice
        tables = []
        real_table = opt.squared_chord_matrix
        monkeypatch.setattr(opt, "squared_chord_matrix",
                            lambda *args, **kwargs: tables.append(1) or
                            real_table(*args, **kwargs))
        init = opt.perturb_mode2(geo.make_circle(128), 0.05)
        result = opt.maximize(3.0, init, opt.OptimizeOptions(n=128))
        assert result.reason is opt.Termination.GRAD_TOL
        assert len(tables) == sum(rec.trials for rec in result.history) + 1

    def test_above_the_critical_exponent_the_ascent_is_unchanged(self):
        # criterion 10: past p_c the n-gon metric is not used, and the
        # solve is the gamma I ascent's, bit for bit
        init = opt.perturb_mode2(geo.make_circle(256), 0.05)
        result = opt.maximize(4.0, init, opt.OptimizeOptions(n=256))
        assert result.iterations == 40
        assert result.reason is opt.Termination.LINE_SEARCH_STALLED
        assert result.value == 1.5973587432527518

    def test_start_is_closed_from_its_own_edge_angles(self, monkeypatch):
        # a start with unequal edges is not resampled: its edge angles
        # are closed like a trial's, and the ascent reaches the n-gon
        def refuse(*args):
            raise AssertionError("maximize resampled or retracted a curve")

        monkeypatch.setattr(opt, "resample_arclength", refuse)
        monkeypatch.setattr(geo, "_retract", refuse)
        init = spec.ellipse_uniform_parameter([0.3, -1], [3, 0], [0, 1], 64)
        lengths = init.edge_lengths()
        assert lengths.max() > 2 * lengths.min()
        result = opt.maximize(2.0, init, opt.OptimizeOptions(n=64))
        assert result.reason is opt.Termination.GRAD_TOL
        result.curve.validate()
        assert result.value == pytest.approx(
            fn.avg_chord_p(geo.make_circle(64), 2.0), rel=1e-12)

    def test_monotone_history(self):
        opts = opt.OptimizeOptions(n=128, max_iters=200)
        init = opt.perturb_mode2(geo.make_circle(128), 0.05)
        result = opt.maximize(4.0, init, opts)
        values = [rec.value for rec in result.history]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_one_chord_table_per_retracted_trial(self, monkeypatch):
        # the retraction is the closure of the trial angles
        counts = {"tables": 0, "projections": 0, "closed": 0, "moved": 0}
        iterate = []  # the vertices whose gradient was read last
        real_close = opt._close_angles
        real_gradient = opt._ChordBand.gradient

        def counting(name, func):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)
            return wrapper

        def gradient(band, v, p):
            iterate[:] = [v]
            return real_gradient(band, v, p)

        def close(theta, h):
            out = real_close(theta, h)
            counts["closed"] += 1
            if not iterate or not np.array_equal(out[1], iterate[0]):
                counts["moved"] += 1
            return out

        init = opt.perturb_mode2(geo.make_circle(128), 0.05)
        monkeypatch.setattr(opt, "squared_chord_matrix",
                            counting("tables", geo.squared_chord_matrix))
        monkeypatch.setattr(opt, "project",
                            counting("projections", opt.project))
        monkeypatch.setattr(opt._ChordBand, "gradient", gradient)
        monkeypatch.setattr(opt, "_close_angles", close)
        result = opt.maximize(4.0, init, opt.OptimizeOptions(
            n=128, max_iters=50))
        # no curve of the solve is resampled: the start and every trial
        # go through the closure, and each one that moves the iterate
        # gets one chord table
        assert counts["projections"] == 0
        assert counts["closed"] > result.iterations
        assert counts["tables"] == counts["moved"]

    def test_one_frame_per_iteration_and_one_power_per_trial(
            self, monkeypatch):
        counts = {"loop": 0, "project": 0, "_close_angles": 0,
                  "tangent_parts": 0, "tables": 0, "powers": 0}
        inside = []  # the helper of maximize being run, if any
        real_normal = geo._edge_normal
        real_tangent_part = opt._tangent_part
        real_power_mean = opt._ChordBand.power_mean

        def normal(u, c):
            counts[inside[-1] if inside else "loop"] += 1
            return real_normal(u, c)

        def tangent_part(v, field):
            counts["tangent_parts"] += 1
            return real_tangent_part(v, field)

        def marked(func):
            def wrapper(*args):
                inside.append(func.__name__)
                try:
                    return func(*args)
                finally:
                    inside.pop()
            return wrapper

        def power_mean(band, v, p, floor=0.0):
            # one table per pass, powered unless a crowded pair ends it
            counts["tables"] += 1
            value = real_power_mean(band, v, p, floor)
            counts["powers"] += value is not None
            return value

        init = opt.perturb_mode2(geo.make_circle(128), 0.05)
        monkeypatch.setattr(geo, "_edge_normal", normal)
        monkeypatch.setattr(opt, "_tangent_part", tangent_part)
        monkeypatch.setattr(opt, "project", marked(opt.project))
        monkeypatch.setattr(opt, "_close_angles", marked(opt._close_angles))
        monkeypatch.setattr(opt._ChordBand, "power_mean", power_mean)
        result = opt.maximize(4.0, init, opt.OptimizeOptions(
            n=128, max_iters=50))
        # the stop test's projection, one normal field per iteration;
        # the closures solve for none, and no curve of the solve is
        # projected in the vertices
        assert counts["tangent_parts"] == result.iterations
        assert counts["loop"] == result.iterations
        assert counts["_close_angles"] == 0
        assert counts["project"] == 0
        # the start curve's table and one per accepted trial at least
        assert counts["tables"] > result.iterations
        assert counts["powers"] == counts["tables"]

    @staticmethod
    def _crowded_retractions_rejected(monkeypatch, offset):
        init = opt.perturb_mode2(geo.make_circle(128), 0.05)
        start_value = fn.avg_chord_p(opt.project(init), 4.0)
        calls = []
        real_close = opt._close_angles

        def close(theta, h):
            calls.append(theta)
            closed = real_close(theta, h)
            if len(calls) == 1:
                crowded[:] = 1.1 * closed[1]
                crowded[offset] = crowded[0] + 0.1 * opt.MIN_PAIR_DISTANCE
                return closed
            return closed[0], crowded.copy()

        # scaled up, the start curve is beaten by far; its vertex at the
        # given offset sits within MIN_PAIR_DISTANCE / 10 of vertex 0
        crowded = np.empty((128, 2))
        monkeypatch.setattr(opt, "_close_angles", close)
        result = opt.maximize(4.0, init, opt.OptimizeOptions(
            n=128, max_iters=20))
        assert fn.avg_chord_p(geo.PolyCurve(crowded), 4.0) > start_value
        assert len(calls) > 2
        assert result.value == result.history[0].value
        assert result.value == pytest.approx(start_value, rel=1e-14)
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

    @pytest.mark.parametrize("p", [304.0, 320.0, 1000.0])
    def test_exponent_whose_chord_powers_overflow_raises(self, p):
        # numpy used to warn of overflow from p = 320 on, and at p = 1000
        # maximize returned an infinite value after one iteration
        curve = opt.perturb_mode2(geo.make_circle(64), 0.05)
        opts = opt.OptimizeOptions(n=64, max_iters=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ParameterDomainError, match="overflow"):
                opt.maximize(p, curve, opts)
            with pytest.raises(ParameterDomainError, match="overflow"):
                opt.objective_grad(curve, p)

    def test_largest_admitted_exponent_runs_without_overflow(self):
        # the limit the docstrings and the README state
        assert opt._MAX_EXPONENT == 303
        curve = opt.perturb_mode2(geo.make_circle(64), 0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = opt.maximize(303.0, curve, opt.OptimizeOptions(
                n=64, max_iters=10))
            grad = opt.objective_grad(result.curve, 303.0)
        assert result.iterations > 1 and math.isfinite(result.value)
        assert all(math.isfinite(rec.gnorm) for rec in result.history[1:])
        assert np.isfinite(grad).all()

    def test_options_validation(self):
        with pytest.raises(ValueError):
            opt.OptimizeOptions(n=16)
        for bad in (0.0, -1e-7, float("nan"), math.inf):
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


def _closed_angles(curve):
    """The edge angles of an equal-edge curve, closed, and their polygon."""
    edges = curve.edges()
    return geo._close_angles(np.arctan2(edges[:, 1], edges[:, 0]),
                             2 * np.pi / curve.n)


def _closure_derivative(theta, field):
    """J field for the closure gap sum_i (cos theta_i, sin theta_i)."""
    return np.array([-np.sum(np.sin(theta) * field),
                     np.sum(np.cos(theta) * field)])


@pytest.mark.parametrize("n", [32, 33, 256])
class TestEdgeAngles:
    def test_closure_of_bumped_angles_validates(self, n):
        t = 2 * np.pi * np.arange(n) / n
        rng = np.random.default_rng(n)
        theta = t + np.pi / 2 + 0.2 * np.sin(2 * t) \
            + 0.01 * rng.normal(size=n)
        assert np.hypot(np.sum(np.cos(theta)), np.sum(np.sin(theta))) > 1e-3
        closed, v = geo._close_angles(theta, 2 * np.pi / n)
        geo.PolyCurve(v).validate()
        assert _relative_edge_error(v) < 1e-13
        assert np.abs(v.mean(axis=0)).max() < 1e-14
        assert np.hypot(np.sum(np.cos(closed)), np.sum(np.sin(closed))) \
            < 1e-13

    def test_feasible_curve_maps_to_itself(self, n):
        for curve in (geo.make_circle(n),
                      opt.perturb_mode2(geo.make_circle(n), 0.05),
                      geo.random_closed_curve(3, n=n)):
            edges = curve.edges()
            theta = np.arctan2(edges[:, 1], edges[:, 0])
            closed, v = geo._close_angles(theta, 2 * np.pi / n)
            assert np.abs(closed - theta).max() < 1e-13
            assert np.abs(v - (curve.vertices - curve.centroid())).max() \
                < 1e-13

    def test_parallel_edges_raise(self, n):
        with pytest.raises(DegenerateCurveError, match="not independent"):
            geo._close_angles(np.zeros(n), 2 * np.pi / n)

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_gradient_matches_finite_differences(self, n, p):
        h = 2 * np.pi / n
        theta, v = _closed_angles(geo.random_closed_curve(5, n=n))
        grad = geo._angle_gradient(theta, opt.objective_grad(
            geo.PolyCurve(v), p), h)
        # a tangent direction: a random field less its normal part
        field = np.random.default_rng(n).normal(size=n)
        cos, sin = np.cos(theta), np.sin(theta)
        field -= geo._closure_normal(cos, sin,
                                     _closure_derivative(theta, field))

        def power(t):
            return fn.avg_chord_p(geo.PolyCurve(
                geo._close_angles(theta + t * field, h)[1]), p) ** p

        eps = 1e-5
        fd = (power(eps) - power(-eps)) / (2 * eps)
        assert np.sum(grad * field) == pytest.approx(fd, rel=1e-6)

    def test_projection_kills_the_closure_derivative(self, n):
        theta, v = _closed_angles(geo.random_closed_curve(6, n=n))
        grad = geo._angle_gradient(theta, opt.objective_grad(
            geo.PolyCurve(v), 3.0), 2 * np.pi / n)
        # the round-off of two sums of n terms
        assert np.abs(_closure_derivative(theta, grad)).max() \
            < 4 * np.finfo(float).eps * np.sum(np.abs(grad))


def _ngon_gradient(n, p, theta):
    """Tangent angle gradient of -A_p^p at the closure of the angles
    theta."""
    h = 2 * np.pi / n
    band = opt._ChordBand(n)
    theta, v = geo._close_angles(theta, h)
    band.power_mean(v, p)
    return -geo._angle_gradient(theta, band.gradient(v, p), h)


def _dense_ngon_curvature(p, n):
    """Reference: the n-gon's curvature of -A_p^p along modes 2..n//2,
    an O(n^2) sum over the chord offsets c of
    p (p-2) d_c^(p-4) |b_c|^2 + p d_c^(p-2) ((h^2/2) (s_{m+1}^2 + s_{m-1}^2)
    - d_c^2), divided by -n^2, where d_c is the n-gon's chord, h = 2 pi/n,
    s_k(c) = sin(pi k c/n) / sin(pi k/n) and
    |b_c|^2 = (h^2 d_c^2/4) (s_{m+1} - s_{m-1})^2."""
    h = 2 * np.pi / n
    c = np.arange(1, n)
    d = h * np.sin(np.pi * c / n) / np.sin(np.pi / n)

    def s(k):
        return np.sin(np.pi * k * c / n) / np.sin(np.pi * k / n)

    out = []
    for m in range(2, n // 2 + 1):
        up, down = s(m + 1), s(m - 1)
        b2 = h * h * d * d / 4 * (up - down) ** 2
        out.append(-np.sum(p * (p - 2) * d ** (p - 4) * b2 + p * d ** (p - 2)
                           * (h * h / 2 * (up ** 2 + down ** 2) - d * d))
                   / n ** 2)
    return np.array(out)


def _critical_exponent(n):
    """The exponent where the n-gon's mode-2 curvature changes sign, by
    bisection on [3, 4]."""
    lo, hi = 3.0, 4.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if opt._ngon_curvature(mid, n)[0] > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestNgonSpectrum:
    @pytest.mark.parametrize("n", [32, 33])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_matches_dense_reference(self, n, p):
        # mode m of the circulant Hessian is its Rayleigh quotient along
        # cos(m phi), here from a central difference of the gradient
        h = 2 * np.pi / n
        scales = opt._ngon_scales(p, n)
        theta = h * np.arange(n)
        t = 1e-4
        for m in range(2, n // 2 + 1):
            u = np.cos(m * theta)
            hu = (_ngon_gradient(n, p, theta + t * u)
                  - _ngon_gradient(n, p, theta - t * u)) / (2 * t)
            reference = np.sum(hu * u) / np.sum(u * u)
            assert 1.0 / scales[m] == pytest.approx(reference, rel=1e-5)
        # modes 0 and 1 get the smallest of the others
        assert scales[0] == scales[1] == scales[2:].min()

    @pytest.mark.parametrize("n", [32, 33, 256])
    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_matches_the_chord_sum(self, n, p):
        reference = _dense_ngon_curvature(p, n)
        assert np.abs(opt._ngon_curvature(p, n) / reference - 1).max() \
            < 1e-12

    @pytest.mark.parametrize("n", [32, 256])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_matches_the_kernel_forward_difference(self, n, p):
        # the Hessian column along e_0 from one forward difference of the
        # chord kernel's angle gradient; its rfft is the spectrum, to
        # O(eps), and the odd second-order term is imaginary
        h = 2 * np.pi / n
        theta = h * np.arange(n)
        eps = 1e-4
        theta[0] += eps
        fd = np.fft.rfft(_ngon_gradient(n, p, theta)).real / eps
        scales = opt._ngon_scales(p, n)
        assert np.abs(fd[2:] * scales[2:] - 1).max() < 1e-8

    @pytest.mark.parametrize("n, critical", [(32, 3.456294),
                                             (64, 3.462166),
                                             (256, 3.463981)])
    def test_critical_exponent(self, n, critical):
        assert _critical_exponent(n) == pytest.approx(critical, abs=1e-6)

    def test_critical_exponent_tends_to_two_sqrt_three(self):
        # p_c(n) = 2 sqrt(3) - C/n^2 + O(n^-4): one Richardson step in
        # 1/n^2 cancels the second term
        limit = (4 * _critical_exponent(4096) - _critical_exponent(2048)) / 3
        assert limit == pytest.approx(2 * math.sqrt(3), abs=1e-9)

    @pytest.mark.parametrize("n, critical", [(32, 3.456294),
                                             (64, 3.462166),
                                             (256, 3.463981)])
    def test_present_below_and_absent_above_the_critical_exponent(
            self, n, critical):
        scales = opt._ngon_scales(critical - 0.003, n)
        assert scales.shape == (n // 2 + 1,) and np.all(scales > 0)
        assert opt._ngon_scales(critical + 0.003, n) is None

    @pytest.mark.parametrize("n", [32, 33, 256, 1024])
    def test_extreme_exponents_raise_no_warning(self, n):
        # the weights are powers of chords below 2, so neither the
        # smallest exponent tried nor the largest the ascent admits
        # overflows or divides by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert opt._ngon_scales(0.05, n) is not None
            assert opt._ngon_scales(float(opt._MAX_EXPONENT), n) is None

    def test_regular_ngon_gradient_vanishes(self):
        # so the closure constraints add no curvature at the n-gon
        for n in (32, 33, 256):
            grad = _ngon_gradient(n, 3.0, 2 * np.pi / n * np.arange(n))
            assert np.abs(grad).max() < 1e-15


def _circulant(scales, n):
    """The dense matrix that multiplies rfft mode m by scales[m]."""
    return np.fft.irfft(np.fft.rfft(np.eye(n), axis=0) * scales[:, None],
                        n, axis=0)


def _dense_inverse_bfgs(pairs, n, start=None):
    """Reference: the inverse-BFGS matrix of pairs (s, y), oldest first,
    from the matrix start, or from H0 = gamma I with gamma the newest
    pair's <s, y> / <y, y>."""
    if start is None:
        s, y = pairs[-1]
        hess = np.sum(s * y) / np.sum(y * y) * np.eye(n)
    else:
        hess = start
    for s, y in pairs:
        rho = 1.0 / np.sum(s * y)
        left = np.eye(n) - rho * np.outer(s, y)
        hess = left @ hess @ left.T + rho * np.outer(s, s)
    return hess


def _curvature_pairs(rng, n, count):
    """count pairs (s, y = A s) of a random symmetric positive definite A."""
    a = rng.normal(size=(n, n))
    a = a @ a.T / n + np.eye(n)
    return [(s, a @ s) for s in rng.normal(size=(count, n))]


class TestLbfgsDirection:
    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_matches_dense_inverse_bfgs(self, count):
        rng = np.random.default_rng(count)
        n = 40
        pairs = _curvature_pairs(rng, n, count)
        stored = []
        for s, y in pairs:
            stored = opt._remember(stored, s, y)
        ascent = rng.normal(size=n)
        expected = _dense_inverse_bfgs(pairs, n) @ ascent
        direction = opt._lbfgs_direction(ascent, stored)
        assert np.abs(direction - expected).max() \
            < 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_circulant_start_matches_dense_inverse_bfgs(self, count):
        rng = np.random.default_rng(20 + count)
        n = 40
        scales = rng.uniform(0.5, 2.0, size=n // 2 + 1)
        pairs = _curvature_pairs(rng, n, count)
        stored = []
        for s, y in pairs:
            stored = opt._remember(stored, s, y)
        ascent = rng.normal(size=n)
        start = _circulant(scales, n)
        expected = _dense_inverse_bfgs(pairs, n, start) @ ascent
        direction = opt._lbfgs_direction(ascent, stored, scales)
        assert np.abs(direction - expected).max() \
            < 1e-12 * np.abs(expected).max()

    def test_keeps_the_newest_memory_pairs(self):
        rng = np.random.default_rng(8)
        n = 40
        pairs = _curvature_pairs(rng, n, opt.MEMORY + 3)
        stored = []
        for s, y in pairs:
            stored = opt._remember(stored, s, y)
        assert len(stored) == opt.MEMORY == 5
        assert all(a[0] is b[0] for a, b in zip(stored, pairs[-5:]))
        ascent = rng.normal(size=n)
        expected = _dense_inverse_bfgs(pairs[-5:], n) @ ascent
        assert np.abs(opt._lbfgs_direction(ascent, stored) - expected).max() \
            < 1e-12 * np.abs(expected).max()

    def test_skips_pairs_without_positive_curvature(self):
        rng = np.random.default_rng(9)
        n = 40
        pairs = _curvature_pairs(rng, n, 2)
        stored = opt._remember([], *pairs[0])
        s = rng.normal(size=n)
        for y in (-s, np.zeros(n)):
            assert opt._remember(stored, s, y) is stored
        assert opt._remember([], s, -s) == []

    def test_direction_ascends(self):
        rng = np.random.default_rng(10)
        n = 40
        stored = []
        for s, y in _curvature_pairs(rng, n, 7):
            stored = opt._remember(stored, s, y)
        for ascent in rng.normal(size=(20, n)):
            assert np.sum(ascent * opt._lbfgs_direction(ascent, stored)) > 0


class TestBacktrack:
    def test_maximizer_of_the_quadratic(self):
        # F(t) = 1 + 2 t - 5 t^2 peaks at t = 0.2; from step 1 the drop
        # is F(0) - F(1) = 3
        assert opt._backtrack(1.0, 2.0, 3.0) == pytest.approx(0.2,
                                                             rel=1e-15)

    @pytest.mark.parametrize("slope, drop", [
        (1e-12, 1.0), (1.0, 1e-12), (1.0, 0.0), (0.0, 1.0), (-1e-18, 1.0)])
    def test_clamped(self, slope, drop):
        step = 0.75
        t = opt._backtrack(step, slope, drop)
        assert opt.BACKTRACK_MIN * step <= t <= opt.BACKTRACK_MAX * step


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

    def test_grid_is_checked_before_the_first_solve(self, monkeypatch):
        solves = []
        monkeypatch.setattr(opt, "maximize",
                            lambda *args, **kwargs: solves.append(args))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ParameterDomainError, match="overflow"):
                opt.sweep([2.0, 1000.0], opt.OptimizeOptions(n=64))
        assert solves == []

    def test_lapack_is_bound_before_the_first_clock(self, monkeypatch):
        # the one-off LAPACK lookup of the first tangent frame stays out
        # of every record's seconds
        events = []
        real_bind = opt._bind_lapack

        def perf_counter():
            events.append("clock")
            return time.perf_counter()

        monkeypatch.setattr(opt, "_bind_lapack",
                            lambda: events.append("bind") or real_bind())
        monkeypatch.setattr(opt, "time", types.SimpleNamespace(
            perf_counter=perf_counter))
        records = opt.sweep([2.0], opt.OptimizeOptions(n=64, max_iters=5))
        assert events[0] == "bind" and events.count("bind") == 1
        assert records[0].seconds > 0

    def test_one_resample_per_solve(self, monkeypatch):
        # perturb_mode2 places each start curve; maximize places none
        calls = []
        real_resample = opt.resample_arclength

        def resample(curve, m):
            calls.append(m)
            return real_resample(curve, m)

        monkeypatch.setattr(opt, "resample_arclength", resample)
        records = opt.sweep([2.0, 3.0, 4.0],
                            opt.OptimizeOptions(n=64, max_iters=20))
        assert all(np.isfinite(rec.value) for rec in records)
        assert calls == [64, 64, 64]

    def test_high_leg_is_the_same_at_one_and_two_blas_threads(self):
        # a verdict must not depend on the BLAS thread count; the sweep
        # runs in fresh processes, since OpenBLAS reads it at load time.
        # 3.45, 3.50 and 3.55 straddle the critical exponent
        probe = ("import json; from chordenergy import optimizer as opt; "
                 "o = opt.OptimizeOptions(n=256); "
                 "recs = opt.sweep([3.8, 4.0], o) "
                 "+ opt.sweep([3.45, 3.5, 3.55], o); "
                 "print(json.dumps([[r.iterations, r.reason, r.value] "
                 "for r in recs]))")
        tables = [json.loads(_run_probe(probe, OPENBLAS_NUM_THREADS=threads))
                  for threads in ("1", "2")]
        assert len(tables[0]) == 5
        assert tables[0] == tables[1]

    def test_failed_solve_is_a_flagged_row(self, monkeypatch, tmp_path):
        # the row of a failed solve is flagged, and the next exponent
        # starts from the last good maximizer
        real_maximize = opt.maximize
        starts, results = {}, {}

        def maximize(p, init, opts):
            starts[p] = init
            if p == 3.0:
                raise SingularGradientError("coincident vertices")
            results[p] = real_maximize(p, init, opts)
            return results[p]

        monkeypatch.setattr(opt, "maximize", maximize)
        opts = opt.OptimizeOptions(n=64, max_iters=20)
        records = opt.sweep([2.0, 3.0, 4.0], opts)
        good, failed, after = records
        assert failed.p == 3.0
        assert all(math.isnan(x) for x in (failed.value, failed.r,
                                           failed.efit_log10,
                                           failed.eccentricity))
        assert failed.converged is False and failed.reason == ""
        assert failed.curve is None and failed.iterations == 0
        assert failed.seconds >= 0
        assert math.isfinite(after.value) and after.curve is not None
        last_good = opt.perturb_mode2(results[2.0].curve, opts.perturb)
        for p in (3.0, 4.0):
            assert np.array_equal(starts[p].vertices, last_good.vertices)
        path = tmp_path / "sweep.csv"
        harness.write_sweep_csv(records, path)
        back = harness.read_sweep_csv(path)
        assert [rec.p for rec in back] == [2.0, 3.0, 4.0]
        assert back[0] == good and back[2] == after
        row = back[1]
        assert all(math.isnan(x) for x in (row.value, row.r, row.efit_log10,
                                           row.eccentricity))
        assert (row.converged, row.iterations, row.reason) == (False, 0, "")
        assert row.seconds == failed.seconds

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
