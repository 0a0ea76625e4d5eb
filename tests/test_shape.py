import math
import warnings

import numpy as np
import pytest

from chordenergy import geometry as geo
from chordenergy import optimizer as opt
from chordenergy import shape as shp


def _svd_reference(curve):
    """The singular values of the conic design of curve and the right
    singular vector of the smallest, by LAPACK's SVD."""
    x, y = curve.vertices.T
    design = np.column_stack([x * x, x * y, y * y, x, y, np.ones_like(x)])
    _, sing, vt = np.linalg.svd(design, full_matrices=False)
    return sing, vt[-1]


def _check_against_svd(curve):
    """Compare fit_conic with LAPACK's SVD where the smallest singular
    value is separated, sigma_6 / sigma_5 < 0.5; False elsewhere."""
    sing, vector = _svd_reference(curve)
    if not sing[-1] / sing[-2] < 0.5:
        return False
    fit = shp.fit_conic(curve)
    root = math.sqrt(curve.n)
    # 1e-12 relative, or the SVD's own backward error, an ulp of sigma_1:
    # below it no two factorizations of the design agree
    assert abs(fit.residual - sing[-1] / root) <= \
        1e-12 * sing[-1] / root + np.spacing(sing[0]) / root
    assert min(np.abs(fit.coefficients - vector).max(),
               np.abs(fit.coefficients + vector).max()) <= 1e-12
    return True


@pytest.fixture(scope="module")
def sweep_maximizers():
    opts = opt.OptimizeOptions(n=256)
    return [rec.curve for grid in ([2.0, 2.5, 3.0, 3.2], [3.8, 4.0],
                                   [3.3, 3.5, 3.7])
            for rec in opt.sweep(grid, opts)]


class TestWidthRatio:
    def test_circle_is_one(self, circle512):
        assert shp.width_ratio(circle512) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("ratio", [1.5, 2.0, 4.0])
    def test_ellipse_recovers_axis_ratio(self, ratio):
        curve = geo.make_ellipse(ratio, 512)
        assert shp.width_ratio(curve) == pytest.approx(ratio, rel=0.01)

    def test_collapsed_curve_is_infinite(self, double_segment512):
        assert shp.width_ratio(double_segment512) == shp.INFINITE_RATIO

    def test_input_validation(self):
        with pytest.raises(ValueError):
            shp.width_ratio(geo.random_closed_curve(1, n=128, dim=3))


class TestConicFit:
    def test_circle_fits_exactly(self, circle512):
        fit = shp.fit_conic(circle512)
        assert fit.elliptic
        assert fit.residual < 1e-12
        assert fit.eccentricity == pytest.approx(0.0, abs=1e-6)

    def test_ellipse_eccentricity(self):
        # uniform-parameter ellipse with semi-axes 2 and 1
        t = 2 * np.pi * np.arange(256) / 256
        pts = np.column_stack([2 * np.cos(t), np.sin(t)])
        fit = shp.fit_conic(geo.PolyCurve(pts))
        expected = np.sqrt(1 - 1 / 4)
        assert fit.elliptic
        assert fit.residual < 1e-12
        assert fit.eccentricity == pytest.approx(expected, abs=1e-9)

    def test_rotation_invariant_residual(self):
        curve = geo.random_closed_curve(9, n=256)
        theta = 1.1
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        rotated = geo.PolyCurve(curve.vertices @ rot.T)
        a = shp.fit_conic(curve)
        b = shp.fit_conic(rotated)
        # the algebraic residual is only approximately rotation
        # invariant: the unit-norm constraint on [x^2, xy, y^2, ...]
        # coefficients does not transform orthogonally
        assert a.residual == pytest.approx(b.residual, rel=0.05)

    def test_collinear_points_degenerate(self, double_segment512):
        fit = shp.fit_conic(double_segment512)
        assert not fit.elliptic
        assert np.isnan(fit.eccentricity)

    def test_collinear_points_stay_degenerate_when_canonicalized(self):
        # the segment stays on the x axis, so three design columns are
        # exact zeros and the fit is an exact null vector
        for n in (64, 256, 512):
            fit = shp.fit_conic(opt.canonicalize(geo.make_double_segment(n)))
            assert not fit.elliptic
            assert fit.residual == 0.0

    def test_random_conics_match_lapack_svd(self):
        rng = np.random.default_rng(34)
        compared = 0
        for _ in range(200):
            t = np.sort(rng.uniform(0, 2 * np.pi, 256))
            a, b = rng.uniform(0.2, 3.0, 2)
            angle = rng.uniform(0, np.pi)
            c, s = np.cos(angle), np.sin(angle)
            pts = np.column_stack([a * np.cos(t), b * np.sin(t)]) \
                @ np.array([[c, s], [-s, c]]) + rng.normal(size=2)
            pts += 10.0 ** rng.uniform(-10, -1) * rng.normal(size=pts.shape)
            pts *= 10.0 ** rng.uniform(-2, 2)
            compared += _check_against_svd(geo.PolyCurve(pts))
        assert compared >= 150

    def test_sweep_maximizers_match_lapack_svd(self, sweep_maximizers):
        assert all(_check_against_svd(curve) for curve in sweep_maximizers)

    def test_sign_rule(self, sweep_maximizers):
        for curve in sweep_maximizers + [geo.random_closed_curve(3, n=256)]:
            a, _, c = shp.fit_conic(curve).coefficients[:3]
            assert a + c > 0
        # a + c = 0: the first nonzero coefficient is positive
        coeffs = shp.fit_conic(geo.make_double_segment(64)).coefficients
        assert coeffs[np.flatnonzero(coeffs)[0]] > 0

    def test_at_the_largest_coordinate(self):
        # largest |coordinate| exactly MAX_COORDINATE: the squared
        # coordinates are finite, but sums of them overflowed
        v = geo.make_circle(64).vertices
        v = v / np.abs(v).max() * geo.MAX_COORDINATE
        assert np.abs(v).max() == geo.MAX_COORDINATE
        curve = geo.PolyCurve(v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            canon = opt.canonicalize(curve)
            fit = shp.fit_conic(curve)
            ratio = shp.width_ratio(curve)
            distance = shp.hausdorff(curve, canon)
        assert np.abs(canon.vertices).max() <= geo.MAX_COORDINATE
        assert fit.elliptic and fit.eccentricity < 1e-6
        assert ratio == pytest.approx(1.0, abs=2e-3)
        assert distance < 1e-2 * geo.MAX_COORDINATE

    def test_noisy_circle_residual_tracks_noise(self):
        rng = np.random.default_rng(4)
        base = geo.make_circle(256).vertices
        noisy = geo.PolyCurve(base + 1e-3 * rng.normal(size=base.shape))
        fit = shp.fit_conic(noisy)
        assert 1e-5 < fit.residual < 1e-2


class TestHausdorff:
    def test_identical_curves(self, circle256):
        assert shp.hausdorff(circle256, circle256) == 0.0

    def test_symmetry(self):
        a = geo.random_closed_curve(2, n=256)
        b = geo.random_closed_curve(3, n=256)
        assert shp.hausdorff(a, b) == shp.hausdorff(b, a)

    def test_concentric_circles(self):
        inner = geo.make_circle(256)
        outer = geo.PolyCurve(1.5 * inner.vertices)
        assert shp.hausdorff(inner, outer) == pytest.approx(0.5, abs=1e-3)

    def test_translation_shows_up(self, circle256):
        shifted = geo.PolyCurve(circle256.vertices + [0.1, 0.0])
        d = shp.hausdorff(circle256, shifted)
        assert d == pytest.approx(0.1, abs=1e-3)
