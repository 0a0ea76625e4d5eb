import math
import re
import warnings

import numpy as np
import pytest

from chordenergy import functionals as fn
from chordenergy import geometry as geo
from chordenergy.errors import (
    DegenerateCurveError,
    InvalidDiscretizationError,
    KernelSingularityError,
    ParameterDomainError,
)


def _longdouble_energy(v, j, p):
    """(2pi/N)^2 sum over ordered pairs i != k of (chord^-j - arc^-j)^p,
    with exact vertex differences in extended precision."""
    n = len(v)
    v = v.astype(np.longdouble)
    step = 2 * np.pi / n
    total = np.longdouble(0)
    for k in range(1, n):
        chord = np.sqrt(np.sum((np.roll(v, -k, axis=0) - v) ** 2, axis=1))
        arc = np.longdouble(min(k, n - k) * step)
        total += np.sum(np.maximum(chord ** -j - arc ** -j, 0) ** p)
    return np.longdouble(step) ** 2 * total


def _roll_distortion_at(v, k):
    """Per-offset distortion by the np.roll form, the reference for the
    offset table."""
    n = len(v)
    s = k * (2 * np.pi / n)
    chords = np.linalg.norm(np.roll(v, -k, axis=0) - v, axis=1)
    return min(s, 2 * np.pi - s) / chords.min()


class TestEnergyParams:
    @pytest.mark.parametrize("j,p,ok", [
        (2, 1, True), (1, 2, True), (2.4, 2, True),
        (2.5, 2, False), (3, 1, False), (0, 1, False), (-1, 1, False)])
    def test_convergence_region(self, j, p, ok):
        assert fn.EnergyParams(j, p).convergent() is ok

    def test_theorem_needs_p_at_least_one(self):
        assert fn.EnergyParams(2, 0.5).convergent()
        assert not fn.EnergyParams(2, 0.5).theorem_applies()
        assert fn.EnergyParams(2, 1).theorem_applies()

    @pytest.mark.parametrize("j,p", [
        (2, 0), (2, -1), (math.nan, 1), (2, math.nan), (math.inf, 1),
        (2, math.inf)])
    def test_out_of_domain_rejected(self, j, p):
        with pytest.raises(ParameterDomainError):
            fn.EnergyParams(j, p)

    def test_require_convergent_raises(self):
        with pytest.raises(ParameterDomainError):
            fn.EnergyParams(3, 1).require_convergent()


class TestCircleBound:
    def test_j2_p1_is_four(self):
        assert fn.circle_bound(fn.EnergyParams(2, 1)) == pytest.approx(
            4.0, abs=1e-9)

    def test_j1_p1_closed_form(self):
        expected = 4 * math.pi * math.log(4 / math.pi)
        assert fn.circle_bound(fn.EnergyParams(1, 1)) == pytest.approx(
            expected, abs=1e-9)

    def test_series_cut_insensitive(self, monkeypatch):
        params = fn.EnergyParams(1.5, 1.5)
        a = fn.circle_bound(params)
        monkeypatch.setattr(fn, "SERIES_CUT", fn.SERIES_CUT / 10)
        b = fn.circle_bound(params)
        assert a == pytest.approx(b, abs=1e-9)

    def test_divergent_rejected(self):
        with pytest.raises(ParameterDomainError):
            fn.circle_bound(fn.EnergyParams(3, 2))

    @staticmethod
    def _quad_bound(j, p, series_cut=fn.SERIES_CUT):
        """The series head plus scipy's adaptive quadrature of the tail."""
        from scipy import integrate
        expo = (2.0 - j) * p
        head = (j / 6.0) ** p * series_cut ** (expo + 1) / (expo + 1)
        with warnings.catch_warnings():
            # near the edge of the convergence region quad warns of
            # round-off in the cancelling integrand
            warnings.simplefilter("ignore")
            tail, _ = integrate.quad(
                fn._bound_integrand, series_cut, math.pi / 2, args=(j, p),
                epsabs=1e-12, epsrel=1e-12, limit=200)
        return 2.0 ** (3.0 - j * p) * math.pi * (head + tail)

    def test_j2_p1_is_four_to_the_series_head(self):
        # the subtracted integrand left it 1.4e-12 below 4; what is left
        # is the series head's dropped s^2 term, 2 pi series_cut^3 / 45
        assert abs(fn.circle_bound(fn.EnergyParams(2, 1)) - 4.0) < 2e-13

    @staticmethod
    def _longdouble_bound(j, p, series_cut=fn.SERIES_CUT):
        """circle_bound's head and panels with the subtracted integrand
        csc^j s - s^-j evaluated in extended precision at its nodes."""
        expo = (2.0 - j) * p
        head = (j / 6.0) ** p * series_cut ** (expo + 1) / (expo + 1)
        ends = series_cut * 2.0 ** np.arange(
            math.ceil(math.log2(math.pi / 2 / series_cut)))
        ends = np.append(ends[ends < math.pi / 2], math.pi / 2)
        mids = 0.5 * (ends[1:] + ends[:-1])
        halves = 0.5 * (ends[1:] - ends[:-1])
        nodes, weights = np.polynomial.legendre.leggauss(fn.BOUND_NODES)
        ld = np.longdouble
        s = (mids[:, None] + halves[:, None] * nodes).astype(ld)
        integrand = (np.sin(s) ** -ld(j) - s ** -ld(j)) ** ld(p)
        tail = halves.astype(ld) @ (integrand @ weights.astype(ld))
        return float(ld(2.0) ** (3.0 - ld(j) * ld(p)) * ld(math.pi)
                     * (ld(head) + tail))

    @pytest.mark.parametrize("p", [0.25, 0.5, 1, 1.5, 2, 3, 4, 6, 8])
    def test_matches_long_double_nodes(self, p):
        # the subtracted integrand in doubles was up to 1.7e-10 off
        for t in (0.05, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.98):
            j = t * (2.0 + 1.0 / p)
            assert fn.circle_bound(fn.EnergyParams(j, p)) == pytest.approx(
                self._longdouble_bound(j, p), rel=1e-12, abs=0), (j, p)

    def test_integrand_series_meets_logarithm(self):
        # at the switch the series and the logarithm of s / sin s agree
        below = np.nextafter(fn._LOG_SINC_CUT, 0.0)
        for j, p in ((2, 1), (1, 2), (2.9, 0.5)):
            assert fn._bound_integrand(below, j, p) == pytest.approx(
                fn._bound_integrand(fn._LOG_SINC_CUT, j, p), rel=1e-14)

    @pytest.mark.parametrize("p", [0.25, 0.5, 1, 1.5, 2, 3, 4, 6, 8])
    def test_matches_adaptive_quadrature(self, p):
        # j from near 0 to near the convergence edge 2 + 1/p
        for t in (0.05, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.98):
            j = t * (2.0 + 1.0 / p)
            assert fn.circle_bound(fn.EnergyParams(j, p)) == pytest.approx(
                self._quad_bound(j, p), rel=1e-9, abs=0), (j, p)

    @pytest.mark.parametrize("jp", [(2, 1), (1, 1), (1, 2), (2, 1.5)])
    def test_verify_pairs_match_adaptive_quadrature(self, jp):
        assert fn.circle_bound(fn.EnergyParams(*jp)) == pytest.approx(
            self._quad_bound(*jp), rel=5e-12, abs=0)


class TestEnergy:
    def test_circle_approaches_bound(self):
        params = fn.EnergyParams(2, 1)
        errs = [abs(fn.energy_Ejp(geo.make_circle(n), params) - 4.0)
                for n in (128, 256, 512)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.05

    def test_circle_minimality_on_random_curves(self, random_curves):
        params = fn.EnergyParams(2, 1)
        bound = fn.circle_bound(params)
        for curve in random_curves[:5]:
            assert fn.energy_Ejp(curve, params) >= 0.95 * bound

    def test_divergent_params_rejected(self, circle256):
        with pytest.raises(ParameterDomainError):
            fn.energy_Ejp(circle256, fn.EnergyParams(3, 1))

    def test_self_touching_curve_rejected(self, double_segment512):
        with pytest.raises(DegenerateCurveError):
            fn.energy_Ejp(double_segment512, fn.EnergyParams(2, 1))

    def test_self_touching_pair_named(self, double_segment512):
        with pytest.raises(DegenerateCurveError) as err:
            fn.energy_Ejp(double_segment512, fn.EnergyParams(2, 1))
        i, k = map(int, re.search(r"\((\d+), (\d+)\)",
                                  str(err.value)).groups())
        v = double_segment512.vertices
        assert i != k and 0 <= max(i, k) < len(v)
        assert np.array_equal(v[i], v[k])

    @pytest.mark.parametrize("n", [64, 257, 512, 1024])
    @pytest.mark.parametrize("jp", [(2, 1), (1, 1), (1, 2), (2, 1.5)])
    def test_matches_longdouble_reference(self, n, jp):
        curve = geo.random_closed_curve(n, n=n, dim=2 + n % 2)
        params = fn.EnergyParams(*jp)
        reference = _longdouble_energy(curve.vertices, *jp)
        assert fn.energy_Ejp(curve, params) == pytest.approx(
            float(reference), rel=1e-13)


class TestPower:
    X = np.concatenate([
        np.geomspace(1e-12, 1e3, 20001),
        np.random.default_rng(0).uniform(1e-12, 1e3, 20000)])

    @pytest.mark.parametrize("e", [0.5, -0.5, 1.5, -1.5])
    def test_half_odd_exponents_match_np_power(self, e):
        reference = np.power(self.X, e)
        got = fn._power(self.X, e)
        assert np.max(np.abs(got - reference) / reference) <= 4e-16

    @pytest.mark.parametrize("e", [1, 1.0])
    def test_exponent_one_returns_its_input(self, e):
        assert fn._power(self.X, e) is self.X

    @pytest.mark.parametrize("e", [-2.5, -2, -1, -0.25, 0.25, 0.75, 1.25,
                                   2, 2.5, 3])
    def test_other_exponents_are_np_power(self, e):
        assert np.array_equal(fn._power(self.X, e), np.power(self.X, e))


class TestSharedEnergyWalk:
    """One walk of the chord table serves several (j, p) pairs."""

    PAIRS = [(2, 1), (1, 1), (1, 2), (2, 1.5)]

    @pytest.mark.parametrize("which", ["random2d", "random3d", "circle"])
    def test_equals_one_call_per_pair(self, which):
        curve = {"random2d": geo.random_closed_curve(4, n=300),
                 "random3d": geo.random_closed_curve(5, n=301, dim=3),
                 "circle": geo.make_circle(300)}[which]
        params = [fn.EnergyParams(j, p) for j, p in self.PAIRS]
        assert fn._energy_walk(curve, params)[0] \
            == [fn.energy_Ejp(curve, q) for q in params]

    @pytest.mark.parametrize("pairs", [
        PAIRS, [(1.5, 1.25), (0.5, 3), (1, 0.5)]],
        ids=["verify_grid", "off_grid"])
    @pytest.mark.parametrize("which", ["random2d", "random3d", "circle"])
    def test_matches_dense_power_reference(self, pairs, which):
        curve = {"random2d": geo.random_closed_curve(6, n=128),
                 "random3d": geo.random_closed_curve(7, n=129, dim=3),
                 "circle": geo.make_circle(128)}[which]
        walk = fn._energy_walk(curve, [fn.EnergyParams(j, p)
                                       for j, p in pairs])
        v = curve.vertices
        n = len(v)
        # row k - 1 holds |v_{i+k} - v_i|^2 for every i, k = 1..n-1, from
        # exact differences summed coordinate by coordinate
        ks = np.arange(1, n)
        diff = v[(np.arange(n) + ks[:, None]) % n] - v
        d2 = diff[..., 0] ** 2
        for d in range(1, curve.dim):
            d2 += diff[..., d] ** 2
        # the arc of offset k is that of min(k, n - k), which the walk
        # reads; 2 pi - s is not always 2 pi (n - k) / n exactly
        arcs = geo.offset_arcs(n, np.minimum(ks, n - ks))
        # an equal-edge polygon's adjacent chords equal their arcs, so the
        # integrand there is round-off, which p < 1 magnifies: chord^-j
        # is taken from 1/chord^2, as the walk takes it
        inverse = np.power(d2, -1.0)
        for (j, p), energy in zip(pairs, walk.energies):
            integrand = np.maximum(np.power(inverse, j / 2)
                                   - np.power(arcs, -j)[:, None], 0.0)
            reference = (2 * np.pi / n) ** 2 * np.sum(
                np.power(integrand, p))
            assert energy == pytest.approx(reference, rel=1e-14), (j, p)
        half = d2[: n // 2]
        assert np.array_equal(walk.min_d2, half.min(axis=1))
        assert np.abs(walk.chord_sums / half.sum(axis=1) - 1).max() \
            <= 1e-14

    def test_degenerate_curve_rejected(self, double_segment512):
        params = [fn.EnergyParams(j, p) for j, p in self.PAIRS]
        with pytest.raises(DegenerateCurveError):
            fn._energy_walk(double_segment512, params)

    def test_divergent_pair_rejected_before_the_walk(self, circle256,
                                                     monkeypatch):
        def no_walk(*args):
            raise AssertionError("walked the chord table")
        monkeypatch.setattr(fn, "offset_chord_blocks", no_walk)
        params = [fn.EnergyParams(2, 1), fn.EnergyParams(3, 1)]
        with pytest.raises(ParameterDomainError):
            fn._energy_walk(circle256, params)


def _parent_coincident_pair(v):
    """The pair the walk names on a non-embedded curve: the first block
    whose smallest chord is below COINCIDENCE_TOL, and the first entry of
    that block, in row-major order, holding its minimum."""
    n = len(v)
    ks = geo.half_offsets(n)[0]
    for rows, d2 in geo.offset_chord_blocks(v, ks):
        r, i = np.unravel_index(np.argmin(d2), d2.shape)
        if math.sqrt(d2[r, i]) < fn.COINCIDENCE_TOL:
            return int(i), int((i + ks[rows][r]) % n)
    return None


class TestWalkDistortion:
    """The energy walk's row minima give the distortion and the
    embedding check."""

    PAIRS = [(2, 1), (1, 1), (1, 2), (2, 1.5)]

    @pytest.mark.parametrize("n,dim", [(64, 2), (257, 2), (512, 2),
                                       (301, 3), (1024, 2)])
    def test_equals_distortion(self, n, dim):
        curve = geo.random_closed_curve(n, n=n, dim=dim)
        params = [fn.EnergyParams(j, p) for j, p in self.PAIRS]
        assert fn._energy_walk(curve, params).distortion \
            == fn.distortion(curve)

    def test_circle(self, circle256):
        walk = fn._energy_walk(circle256, [fn.EnergyParams(2, 1)])
        assert walk.distortion == fn.distortion(circle256)

    @pytest.mark.parametrize("n,i,k", [(257, 17, 200), (256, 3, 131),
                                       (512, 0, 256), (300, 290, 5)])
    def test_coincident_pair_named_as_before(self, n, i, k):
        v = geo.random_closed_curve(2, n=n).vertices.copy()
        v[k] = v[i]
        # a second coincidence at offset 2: the walk names the first one
        # in its order, as it did with a full argmin per block
        v[(i + 7) % n] = v[(i + 9) % n]
        curve = geo.PolyCurve(v)
        expected = _parent_coincident_pair(curve.vertices)
        assert expected is not None
        with pytest.raises(DegenerateCurveError) as err:
            fn._energy_walk(curve, [fn.EnergyParams(2, 1)])
        named = tuple(map(int, re.search(r"\((\d+), (\d+)\)",
                                         str(err.value)).groups()))
        assert named == expected
        assert np.array_equal(v[named[0]], v[named[1]])

    def test_double_segment_pair_named_as_before(self, double_segment512):
        expected = _parent_coincident_pair(double_segment512.vertices)
        with pytest.raises(DegenerateCurveError,
                           match=re.escape(f"({expected[0]}, {expected[1]})")):
            fn.energy_Ejp(double_segment512, fn.EnergyParams(2, 1))

    def test_argmin_only_when_raising(self, random_curves, monkeypatch):
        def no_argmin(*args, **kwargs):
            raise AssertionError("argmin on an embedded curve")
        monkeypatch.setattr(fn.np, "argmin", no_argmin)
        fn._energy_walk(random_curves[0], [fn.EnergyParams(2, 1)])


class TestRenormEnergy:
    def test_matches_energy_for_standard_integrand(self, circle256):
        params = fn.EnergyParams(2, 1)
        kernel = fn.ChordKernel(lambda c, a: np.maximum(c**-2 - a**-2, 0))
        assert fn.renorm_energy(circle256, kernel) == pytest.approx(
            fn.energy_Ejp(circle256, params), rel=1e-12)

    def test_singular_pair_named(self, circle256):
        # non-finite only on the longest chords, near the antipodes
        def long_chords_singular(c, a):
            return np.where(c > 2.0 - 1e-3, np.nan, 0.0)
        with pytest.raises(KernelSingularityError) as err:
            fn.renorm_energy(circle256,
                             fn.ChordKernel(long_chords_singular))
        i, k = err.value.pair
        v = circle256.vertices
        assert 0 <= i < len(v) and 0 <= k < len(v) and i != k
        assert np.linalg.norm(v[i] - v[k]) > 2.0 - 1e-3

    def test_singular_kernel_reported(self, circle256):
        def bad(c, a):
            with np.errstate(divide="ignore", invalid="ignore"):
                return 1.0 / (c - c)
        with pytest.raises(KernelSingularityError):
            fn.renorm_energy(circle256, fn.ChordKernel(bad))

    def test_singular_value_reported(self):
        # inf at the pair (3, 4) alone: the offset-1 row, vertex 3
        arc1 = geo.offset_arcs(64, 1)

        def inf_at_3_4(c, a):
            vals = np.zeros(c.shape)
            vals[(a == arc1) & (np.arange(c.shape[-1]) == 3)] = np.inf
            return vals
        with pytest.raises(KernelSingularityError, match="inf") as err:
            fn.renorm_energy(geo.make_circle(64), fn.ChordKernel(inf_at_3_4))
        assert err.value.pair == (3, 4)
        assert err.value.value == np.inf

    def test_validate_accepts_true_flags(self):
        kernel = fn.ChordKernel(lambda c, a: c**-2 - a**-2,
                                decreasing=True, convex=True)
        kernel.validate()

    def test_validate_rejects_false_flags(self):
        kernel = fn.ChordKernel(lambda c, a: c**2, decreasing=True,
                                name="square")
        with pytest.raises(ValueError, match="square"):
            kernel.validate()


class TestChordMeans:
    def test_circle_closed_forms(self):
        assert fn.circle_avg_chord(1) == pytest.approx(4 / math.pi, abs=1e-12)
        assert fn.circle_avg_chord(2) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_segment_closed_forms(self):
        assert fn.segment_avg_chord(1) == pytest.approx(math.pi / 3, abs=1e-12)
        assert fn.segment_avg_chord(4) == pytest.approx(
            math.pi / 15 ** 0.25, abs=1e-12)

    def test_discrete_circle_matches_closed_form(self, circle512):
        for p in (1, 2, 3):
            assert fn.avg_chord_p(circle512, p) == pytest.approx(
                fn.circle_avg_chord(p), abs=1e-4)

    def test_discrete_segment_matches_closed_form(self, double_segment512):
        for p in (1, 2, 4):
            assert fn.avg_chord_p(double_segment512, p) == pytest.approx(
                fn.segment_avg_chord(p), abs=1e-3)

    @pytest.mark.parametrize("p", [0.5, 1, 1.5, 2, 3, 4])
    def test_equals_mean_of_table_power(self, p, random_curves, circle512,
                                        double_segment512):
        for curve in (random_curves[2], circle512, double_segment512):
            d2 = geo.squared_chord_matrix(curve.vertices)
            top = d2.max()
            assert fn.avg_chord_p(curve, p) \
                == np.mean((d2 / top) ** (p / 2)) ** (1 / p) * np.sqrt(top)

    @pytest.mark.parametrize("p", [300, 344, 620, 621, 2000])
    def test_closed_forms_raise_where_doubles_overflow(self, p):
        # the circle's Gamma values overflow from p = 342 on, the
        # segment's pi^p from p = 620 on
        for closed_form, first_overflow in ((fn.circle_avg_chord, 342),
                                            (fn.segment_avg_chord, 620)):
            if p < first_overflow:
                assert math.isfinite(closed_form(p))
            else:
                with pytest.raises(ParameterDomainError, match="overflow"):
                    closed_form(p)

    def test_closed_forms_at_p300_are_the_formulas(self):
        p = 300
        integral = math.sqrt(math.pi) * math.gamma((p + 1) / 2) \
            / math.gamma(p / 2 + 1)
        assert fn.circle_avg_chord(p) \
            == ((2.0 ** p / math.pi) * integral) ** (1.0 / p)
        assert fn.segment_avg_chord(p) \
            == (2.0 * math.pi ** p / ((p + 1) * (p + 2))) ** (1.0 / p)

    @pytest.mark.parametrize("p", [1020, 1023, 1024])
    def test_finite_where_chord_powers_overflow(self, p):
        # on the 64-gon every d^p is finite here, but their sum used to
        # overflow and raise; A_p is near the diameter, about 2
        value = fn.avg_chord_p(geo.make_circle(64), p)
        assert math.isfinite(value) and 1.99 < value <= math.pi

    def test_collapsed_curve_is_zero(self):
        # every chord is zero, so there is no largest one to scale by
        curve = geo.PolyCurve(np.ones((8, 2)))
        assert fn.avg_chord_p(curve, 2.0) == 0.0

    @pytest.mark.parametrize("p", [0.5, 2, 7.3])
    def test_matches_long_double_reference(self, p):
        for curve in (geo.make_circle(64), geo.random_closed_curve(3, n=128),
                      geo.make_ellipse(3, 65)):
            v = curve.vertices.astype(np.longdouble)
            diff = v[:, None, :] - v[None, :, :]
            d2 = np.sum(diff * diff, axis=2)
            ref = np.mean(d2 ** np.longdouble(p / 2)) ** (1 / np.longdouble(p))
            assert fn.avg_chord_p(curve, p) == pytest.approx(float(ref),
                                                             rel=1e-13)

    def test_power_mean_monotone(self, random_curves):
        vals = [fn.avg_chord_p(random_curves[0], p)
                for p in (0.5, 1, 2, 3, 4)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_nonpositive_exponent_rejected(self, circle256):
        # at p = inf avg_chord_p used to return 1.0, at p = nan NaN
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ParameterDomainError):
                fn.avg_chord_p(circle256, bad)
            with pytest.raises(ParameterDomainError):
                fn.circle_avg_chord(bad)
            with pytest.raises(ParameterDomainError):
                fn.segment_avg_chord(bad)

    def test_closed_forms_reject_nonfinite_exponent(self):
        # at p = inf both used to return 1.0, at p = nan NaN
        for bad in (math.inf, math.nan):
            for closed_form in (fn.circle_avg_chord, fn.segment_avg_chord):
                with pytest.raises(ParameterDomainError):
                    closed_form(bad)


class TestDistortion:
    def test_circle_is_pi_over_two(self, circle512):
        assert fn.distortion(circle512) == pytest.approx(
            math.pi / 2, abs=1e-3)

    def test_circle_minimizes(self, random_curves):
        for curve in random_curves[:5]:
            assert fn.distortion(curve) >= math.pi / 2 - 1e-9

    def test_at_zero_separation(self, circle512):
        assert fn.distortion_at(circle512, 0) == 0.0

    def test_array_form_equals_scalar_calls(self, random_curves,
                                            double_segment512):
        for curve in (random_curves[3], double_segment512):
            ks = np.array([0, 1, 2, 5, 100, 256, 300, 511, 512, 700])
            values = fn.distortion_at(curve, ks)
            assert isinstance(values, np.ndarray)
            assert values.tolist() == [fn.distortion_at(curve, int(k))
                                       for k in ks]
        assert isinstance(fn.distortion_at(curve, 3), float)

    def test_self_touching_is_infinite(self, double_segment512):
        assert fn.distortion(double_segment512) == fn.INFINITE_DISTORTION
        assert fn.distortion_at(double_segment512, 2) \
            == fn.INFINITE_DISTORTION

    def test_nan_curve_rejected_before_distortion(self, circle256):
        v = circle256.vertices.copy()
        v[0, 0] = np.nan
        with pytest.raises(InvalidDiscretizationError):
            fn.distortion(geo.PolyCurve(v))

    @pytest.mark.parametrize("n", [64, 257, 512])
    def test_is_max_of_per_offset_distortion(self, n):
        curve = geo.random_closed_curve(n, n=n)
        per_offset = [fn.distortion_at(curve, k) for k in range(1, n // 2 + 1)]
        assert fn.distortion(curve) == max(per_offset)
        # bit for bit the np.roll form too
        assert per_offset == [_roll_distortion_at(curve.vertices, k)
                              for k in range(1, n // 2 + 1)]

    def test_matches_longdouble_reference(self, random_curves):
        curve = random_curves[1]
        v = curve.vertices.astype(np.longdouble)
        n = len(v)
        reference = max(
            min(k, n - k) * (2 * np.pi / n) / np.sqrt(np.min(np.sum(
                (np.roll(v, -k, axis=0) - v) ** 2, axis=1)))
            for k in range(1, n))
        assert fn.distortion(curve) == pytest.approx(float(reference),
                                                     rel=1e-13)

    def test_pointwise_bound(self, random_curves):
        curve = random_curves[0]
        n = curve.n
        for k in (1, 17, 128, 255):
            s = geo.offset_arcs(n, k)
            assert fn.distortion_at(curve, k) \
                >= s / geo.lambda_chord(s) - 1e-4


class TestChordAverage:
    def test_concave_bound_on_circle(self, circle512):
        n = circle512.n
        for k in (3, 64, 256):
            s = geo.offset_arcs(n, k)
            lam2 = geo.lambda_chord(s) ** 2
            avg = fn.chord_average(circle512, k, np.sqrt)
            assert avg <= math.sqrt(lam2) + 1e-4

    def test_array_form_equals_scalar_calls(self, random_curves):
        curve = random_curves[4]
        v = curve.vertices
        ks = np.arange(1, curve.n, 7)
        for f in (np.sqrt, np.log, lambda x: x ** 0.4):
            values = fn.chord_average(curve, ks, f)
            assert isinstance(values, np.ndarray)
            assert values.tolist() == [fn.chord_average(curve, int(k), f)
                                       for k in ks]
            # bit for bit the np.roll form too
            assert values.tolist() == [float(np.mean(f(np.sum(
                (np.roll(v, -k, axis=0) - v) ** 2, axis=1)))) for k in ks]
        assert isinstance(fn.chord_average(curve, 3, np.sqrt), float)

    def test_identity_function_gives_mean_square(self, random_curves):
        curve = random_curves[0]
        k = 37
        chords = np.roll(curve.vertices, -k, axis=0) - curve.vertices
        expected = float(np.mean(np.sum(chords**2, axis=1)))
        assert fn.chord_average(curve, k, lambda x: x) == pytest.approx(
            expected, rel=1e-12)
