import numpy as np
import pytest

from chordenergy import geometry as geo
from chordenergy import shape as shp


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
