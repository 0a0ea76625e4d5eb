import tracemalloc

import numpy as np
import pytest

from chordenergy import functionals as fn
from chordenergy import geometry as geo
from chordenergy import spectral as spec
from chordenergy.errors import ParameterDomainError


def _longdouble_series(fc, n):
    """The deficit series on the n-point shift grid, summed harmonic by
    harmonic in extended precision."""
    s = (2 * np.pi * np.arange(1, n) / n).astype(np.longdouble)
    rho = np.zeros(n - 1, dtype=np.longdouble)
    for k in range(2, fc.K + 1):
        weight = np.sum(np.abs(fc.coeff(k).astype(np.clongdouble)) ** 2
                        + np.abs(fc.coeff(-k).astype(np.clongdouble)) ** 2)
        rho += weight * (k ** 2 * np.sin(s / 2) ** 2 - np.sin(k * s / 2) ** 2)
    return 8 * np.pi * rho


class TestAnalyze:
    def test_circle_energy_in_first_harmonic(self, circle512):
        fc = spec.analyze(circle512)
        a1 = np.sum(np.abs(fc.coeff(1)) ** 2)
        am1 = np.sum(np.abs(fc.coeff(-1)) ** 2)
        # all derivative energy sits at |k| = 1 with total weight 1;
        # the inscribed polygon's circumradius exceeds 1 by O(1/n^2)
        assert a1 + am1 == pytest.approx(1.0, abs=1e-4)
        for k in (2, 3, 5, 100):
            assert np.abs(fc.coeff(k)).max() < 1e-12

    def test_centroid(self):
        c = geo.random_closed_curve(4, n=256)
        fc = spec.analyze(c)
        assert np.allclose(fc.centroid(), c.centroid(), atol=1e-12)

    def test_reconstruct_round_trip(self, random_curves):
        for curve in random_curves[:3]:
            fc = spec.analyze(curve)
            err = np.abs(fc.reconstruct() - curve.vertices).max()
            assert err < 1e-10

    def test_derivative_energy_near_2pi(self, random_curves):
        # unit speed in the continuum; the polygon value is 2 pi exactly
        # for equal edges, and the truncated series sits just below it
        for curve in random_curves[:3]:
            energy = spec.analyze(curve).derivative_energy()
            assert energy == pytest.approx(2 * np.pi, rel=1e-3)

    def test_gather_matches_loop(self, random_curves):
        curve = random_curves[2]
        n, K = curve.n, 40
        spec_n = np.fft.fft(curve.vertices, axis=0) / n
        expected = np.array([spec_n[k % n] for k in range(-K, K + 1)])
        assert np.array_equal(spec.analyze(curve, K=K).coeffs, expected)

    def test_truncation_control(self, circle512):
        fc = spec.analyze(circle512, K=3)
        assert fc.K == 3
        assert fc.coeffs.shape == (7, 2)
        assert np.abs(fc.coeff(10)).max() == 0.0

    @pytest.mark.parametrize("n", [64, 65])
    def test_truncation_beyond_nyquist_rejected(self, n, legacy_curve):
        # K = 100 at n = 64 used to alias the DFT: derivative_energy()
        # read 50,618 instead of about 2 pi, on seed 1's curve from
        # numpy's random streams.  The rel=1e-3 below was set on that
        # curve and is not proven: at n = 64 the SplitMix64 curves of
        # seeds 1-10 read 0.84e-3 to 1.27e-3, and the earlier ones 0.86e-3
        # to 1.06e-3
        curve = legacy_curve(1, n=n)
        for K in (-1, (n - 1) // 2 + 1, 100):
            with pytest.raises(ParameterDomainError):
                spec.analyze(curve, K=K)
        top = spec.analyze(curve, K=(n - 1) // 2)
        assert top.K == (n - 1) // 2
        assert spec.analyze(curve, K=0).K == 0
        assert spec.analyze(curve).K == n // 2 - 1
        assert top.derivative_energy() == pytest.approx(2 * np.pi, rel=1e-3)


class TestDeficitSeries:
    def test_circle_deficit_vanishes(self, circle512):
        prof = spec.deficit(spec.analyze(circle512))
        assert prof.max_abs() < 1e-10

    def test_uniform_ellipse_deficit_vanishes(self):
        curve = spec.ellipse_uniform_parameter([1, -2], [2, 0], [0, 0.5], 512)
        prof = spec.deficit(spec.analyze(curve))
        assert prof.max_abs() < 1e-10

    def test_arclength_ellipse_deficit_positive(self):
        # the extremal family is about the parameterization: the same
        # trace traversed at unit speed has strictly positive deficit
        curve = geo.make_ellipse(2, 512)
        prof = spec.deficit(spec.analyze(curve))
        assert prof.rho.max() > 0.01

    def test_nonnegative_on_random_curves(self, random_curves):
        for curve in random_curves:
            prof = spec.deficit(spec.analyze(curve))
            assert prof.rho.min() >= -1e-8

    def test_matches_direct_computation(self, random_curves):
        for curve in random_curves[:3]:
            fc = spec.analyze(curve)
            prof = spec.deficit(fc)
            direct = np.array([spec.deficit_direct(curve, k)
                               for k in range(1, curve.n)])
            scale = max(1.0, 4.0 * fc.derivative_energy())
            assert np.abs(direct - prof.rho).max() / scale < 1e-4

    def test_matches_harmonic_loop(self, random_curves):
        fc = spec.analyze(random_curves[3])
        s = 2 * np.pi * np.arange(1, fc.n) / fc.n
        expected = np.zeros_like(s)
        for k in range(2, fc.K + 1):
            weight = np.sum(np.abs(fc.coeff(k)) ** 2
                            + np.abs(fc.coeff(-k)) ** 2)
            expected += 8 * np.pi * weight * (k ** 2 * np.sin(s / 2) ** 2
                                              - np.sin(k * s / 2) ** 2)
        prof = spec.deficit(fc)
        assert np.array_equal(prof.s, s)
        assert np.abs(prof.rho - expected).max() < 1e-14

    @pytest.mark.parametrize("n,explicit", [(64, None), (257, None),
                                            (512, None), (257, 100),
                                            (512, 300), (64, 7)])
    def test_fft_matches_longdouble_loop(self, n, explicit):
        # an explicit grid below 2K + 1 folds the harmonics modulo it
        for seed in (2, 5):
            fc = spec.analyze(geo.random_closed_curve(seed, n=n,
                                                      dim=2 + seed % 2))
            grid = explicit or n
            assert explicit is None or grid < 2 * fc.K + 1
            rho = spec.deficit(fc, explicit).rho
            scale = max(1.0, 4.0 * fc.derivative_energy())
            error = np.abs(rho - _longdouble_series(fc, grid)).max()
            assert rho.shape == (grid - 1,)
            assert float(error) <= 1e-15 * scale

    @pytest.mark.parametrize("grid", [-5, 0, False, 2.5, 64.0])
    def test_grid_must_be_a_positive_integer(self, circle256, grid):
        # the table form returned an empty or truncated profile here
        with pytest.raises(ParameterDomainError):
            spec.deficit(spec.analyze(circle256), grid)

    def test_no_shift_table(self):
        # the (K - 1) x (n - 1) sin^2 table took about 64 MB here
        fc = spec.analyze(geo.make_circle(4096))
        tracemalloc.start()
        try:
            spec.deficit(fc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_no_harmonics_above_one(self, circle512):
        prof = spec.deficit(spec.analyze(circle512, K=1))
        assert np.array_equal(prof.rho, np.zeros(511))
        curve = geo.random_closed_curve(4, n=128)
        for grid in (None, 2, 50):
            prof = spec.deficit(spec.analyze(curve, K=1), grid)
            assert np.array_equal(prof.rho, np.zeros((grid or 128) - 1))

    @pytest.mark.parametrize("n,dim", [(64, 3), (257, 2), (512, 2)])
    def test_direct_vectorized_matches_scalar(self, n, dim):
        curve = geo.random_closed_curve(n, n=n, dim=dim)
        ks = np.arange(1, n)
        vector = spec.deficit_direct(curve, ks)
        scalar = np.array([spec.deficit_direct(curve, int(k)) for k in ks])
        assert isinstance(spec.deficit_direct(curve, 5), float)
        assert vector.shape == (n - 1,)
        assert np.abs(vector - scalar).max() <= 1e-13

    def test_direct_matches_longdouble_reference(self, random_curves):
        curve = random_curves[4]
        n = curve.n
        v = curve.vertices.astype(np.longdouble)
        step = 2 * np.pi / n
        deriv = np.sum((np.roll(v, -1, axis=0) - v) ** 2) / np.longdouble(step)
        reference = np.array([
            np.longdouble(2 * np.sin(k * step / 2)) ** 2 * deriv
            - step * np.sum((np.roll(v, -k, axis=0) - v) ** 2)
            for k in range(1, n)])
        direct = spec.deficit_direct(curve, np.arange(1, n))
        # the deficit is the difference of two terms of size up to
        # lambda^2 * deriv <= 4 deriv; its error is relative to that
        assert np.abs(direct - reference).max() <= 1e-13 * float(4 * deriv)

    def test_shift_grid(self, circle256):
        prof = spec.deficit(spec.analyze(circle256))
        assert len(prof.s) == 255
        assert prof.s[0] == pytest.approx(2 * np.pi / 256)
        assert prof.s[-1] == pytest.approx(2 * np.pi * 255 / 256)


def _sin2(j, n):
    """sin^2(pi j / n) for integer j, the argument reduced mod n first."""
    return np.sin(np.pi * (j % n) / n) ** 2


def _chord_square_ratios(curve):
    """Each offset k = 1..n/2's sum of squared chords, read off the
    energy walk, and the regular n-gon's bound on it,
    sin^2(pi k/n) / sin^2(pi/n) times the sum of squared edges."""
    n = curve.n
    sums = fn._energy_walk(curve, [fn.EnergyParams(2, 1)]).chord_sums
    ks = np.arange(1, n // 2 + 1)
    return sums, _sin2(ks, n) / _sin2(1, n) * sums[0]


class TestChordSquareInequality:
    """The discrete chord-square inequality: for a closed n-gon, each
    offset's sum of squared chords is at most sin^2(pi k/n) / sin^2(pi/n)
    times its sum of squared edges, with equality at the regular n-gon.
    In the DFT of the vertices it is sin^2(pi m k/n) sin^2(pi/n) <=
    sin^2(pi k/n) sin^2(pi m/n) for every mode m and offset k."""

    @pytest.mark.parametrize("ns", [range(2, 257), [511, 512, 1024, 2048]],
                             ids=["up_to_256", "large"])
    def test_trig_form_for_every_mode_and_offset(self, ns):
        # sin^2 is symmetric under m -> n - m and k -> n - k, so m and k
        # up to n/2 cover all of them; no slack is needed
        for n in ns:
            half = np.arange(1, n // 2 + 1)
            m, k = half[:, None], half[None, :]
            lhs = _sin2(m * k, n) * _sin2(1, n)
            assert np.all(lhs <= _sin2(k, n) * _sin2(m, n)), n

    @pytest.mark.parametrize("dim", [2, 3])
    def test_per_offset_form_on_random_curves(self, dim):
        for seed in range(1, 31):
            sums, bound = _chord_square_ratios(
                geo.random_closed_curve(seed, n=512, dim=dim))
            assert np.all(sums <= bound), seed

    @pytest.mark.parametrize("n", [8, 9, 64, 255, 256, 512, 1024])
    def test_equality_at_the_regular_polygon(self, n):
        sums, bound = _chord_square_ratios(geo.make_circle(n))
        assert np.allclose(sums, bound, rtol=2e-15, atol=0)


class TestPointwiseLemmas:
    def test_trig_lemma_random_samples(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(2, 40))
            theta = float(rng.uniform(-8, 8))
            lhs, rhs = spec.trig_lemma_check(k, theta)
            assert lhs <= rhs + 1e-9

    def test_trig_lemma_equality_at_zero(self):
        lhs, rhs = spec.trig_lemma_check(5, 0.0)
        assert lhs == rhs == 0.0

    def test_trig_lemma_rejects_small_k(self):
        with pytest.raises(ValueError):
            spec.trig_lemma_check(1, 0.3)
        with pytest.raises(ParameterDomainError):
            spec.trig_lemma_check(np.array([2, 5, 1]), np.zeros(3))

    def test_trig_lemma_stacked_equals_single_calls(self):
        rng = np.random.default_rng(2)
        ks = rng.integers(2, 51, size=100)
        thetas = rng.uniform(-10, 10, size=100)
        lhs, rhs = spec.trig_lemma_check(ks, thetas)
        assert lhs.shape == rhs.shape == (100,)
        for k, theta, left, right in zip(ks, thetas, lhs, rhs):
            assert spec.trig_lemma_check(int(k), float(theta)) \
                == (left, right)

    def test_tetra_random_quadruples(self):
        rng = np.random.default_rng(1)
        for dim in (2, 3):
            for _ in range(500):
                pts = rng.normal(size=(4, dim))
                _, _, gap = spec.tetra_check(*pts)
                assert gap >= -1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    def test_tetra_stacked_equals_scalar_calls(self, dim):
        pts = np.random.default_rng(3).normal(size=(500, 4, dim))
        stacked = spec.tetra_check(*pts.transpose(1, 0, 2))
        rows = [spec.tetra_check(*row) for row in pts]
        assert all(part.shape == (500,) for part in stacked)
        assert np.array_equal(np.array(stacked).T, np.array(rows))
        assert all(type(x) is float for x in rows[0])

    def test_tetra_equality_for_parallel_sides(self):
        # equality holds exactly when B - A and C - D point the same way
        rng = np.random.default_rng(2)
        for _ in range(100):
            A, B, C = rng.normal(size=(3, 3))
            rho = float(rng.uniform(0.1, 5.0))
            D = C - rho * (B - A)
            _, _, gap = spec.tetra_check(A, B, C, D)
            assert abs(gap) < 1e-12
