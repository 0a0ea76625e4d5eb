import json

import numpy as np
import pytest

from chordenergy import functionals as fn
from chordenergy import geometry as geo
from chordenergy import optimizer as opt
from chordenergy import shape as shp
from chordenergy.errors import DegenerateCurveError, \
    InvalidDiscretizationError

TWO_PI = 2 * np.pi


class TestPolyCurve:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vertex_rejected(self, bad):
        v = geo.make_circle(64).vertices.copy()
        v[5, 1] = bad
        with pytest.raises(InvalidDiscretizationError, match="finite"):
            geo.PolyCurve(v).validate()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_edge_lengths_are_norm_bit_for_bit(self, dim):
        # geometry measures edges in one place, with the arithmetic of
        # np.linalg.norm; einsum's differs in the last bits in 3-D
        rng = np.random.default_rng(dim)
        for _ in range(20):
            v = rng.normal(size=(257, dim))
            edges = np.roll(v, -1, axis=0) - v
            norms = np.linalg.norm(edges, axis=1)
            curve = geo.PolyCurve(v)
            assert np.array_equal(curve.edges(), edges)
            assert np.array_equal(curve.edge_lengths(), norms)
            assert np.array_equal(geo._edges(v)[1], norms)


class TestSettle:
    """The stop rule shared by the Newton projection and the inscriber,
    on scripted error sequences: state i carries the error errs[i]."""

    @staticmethod
    def _settle(errs, tol=1e-14, cap=200):
        def step(state):
            return state[0] + 1, errs[state[0] + 1]
        return geo._settle((0, errs[0]), step, tol, cap,
                           InvalidDiscretizationError, "error")

    def test_stops_below_the_tolerance(self):
        assert self._settle([1e-2, 1e-5, 1e-15, 1.0]) == (2, 1e-15)

    def test_linear_convergence_goes_on_to_edge_spread_tol(self):
        # a factor 0.75 per step never halves the error: the rule keeps
        # stepping while the error is above EDGE_SPREAD_TOL
        errs = [0.5 * 0.75 ** i for i in range(60)]
        index, err = self._settle(errs)
        assert err <= geo.EDGE_SPREAD_TOL < errs[index - 1]

    @pytest.mark.parametrize("last, kept", [(2e-9, 1), (0.8e-9, 2)])
    def test_keeps_the_better_state_at_round_off(self, last, kept):
        assert self._settle([1e-4, 1e-9, last, 0.0])[0] == kept

    def test_growth_beyond_edge_spread_tol_raises(self):
        with pytest.raises(InvalidDiscretizationError, match="diverged"):
            self._settle([1e-3, 2e-3, 0.0])

    def test_cap_raises(self):
        with pytest.raises(InvalidDiscretizationError, match="after 3 steps"):
            self._settle([1e-1, 0.9e-1, 0.8e-1, 0.7e-1, 0.0], cap=3)


class TestMakeCircle:
    def test_below_minimum_raises(self):
        with pytest.raises(InvalidDiscretizationError):
            geo.make_circle(4)

    def test_perimeter_and_edges(self):
        c = geo.make_circle(256)
        assert c.perimeter() == pytest.approx(TWO_PI, abs=1e-12)
        lengths = c.edge_lengths()
        assert np.allclose(lengths, TWO_PI / 256, atol=1e-12)

    def test_circumradius(self):
        c = geo.make_circle(256)
        r_n = (np.pi / 256) / np.sin(np.pi / 256)
        radii = np.linalg.norm(c.vertices, axis=1)
        assert np.abs(radii - r_n).max() < 1e-12


class TestMakeEllipse:
    def test_unit_ratio_is_circle(self):
        e = geo.make_ellipse(1, 256)
        c = geo.make_circle(256)
        assert np.abs(e.vertices - c.vertices).max() < 1e-9

    def test_axis_ratio_controls_widths(self):
        from chordenergy.shape import width_ratio
        e = geo.make_ellipse(2, 512)
        assert width_ratio(e) == pytest.approx(2.0, abs=0.01)

    def test_perimeter_normalized(self):
        e = geo.make_ellipse(2, 512)
        assert e.perimeter() == pytest.approx(TWO_PI, rel=1e-9)

    def test_ratio_below_one_rejected(self):
        with pytest.raises(InvalidDiscretizationError):
            geo.make_ellipse(0.5, 256)

    def test_unequal_inscribed_edges_raise(self):
        # at odd n the inscriber's passes shrink the spread of a
        # stretched ellipse by about a quarter each, and at (8, 9) the
        # pass cap comes first
        with pytest.raises(InvalidDiscretizationError, match="spread"):
            geo.make_ellipse(8, 9)

    def test_unequal_inscribed_edges_raise_at_the_pass_cap(self):
        with pytest.raises(InvalidDiscretizationError,
                           match=f"after {geo.INSCRIBE_MAX_PASSES} steps"):
            geo.make_ellipse(8, 9)

    @pytest.mark.parametrize("ratio, n", [(3, 9), (4, 15), (6, 63), (8, 33),
                                          (10, 127), (20, 511)])
    def test_linearly_converging_inscription_gets_equal_edges(self, ratio,
                                                             n):
        # the spread shrinks by a constant factor above one half per
        # pass; the inscriber used to stop at the first such pass
        geo.make_ellipse(ratio, n).validate()

    @pytest.mark.parametrize("n", [8, 256, 1024])
    @pytest.mark.parametrize("ratio", [1, 2, 8, 100])
    def test_vertices_on_the_ellipse(self, ratio, n):
        # inscribed on the analytic trace: (x / ratio)^2 + y^2 is the
        # same squared scale at every vertex
        e = geo.make_ellipse(ratio, n)
        e.validate()
        x, y = e.vertices.T
        scale = np.sqrt((x / ratio) ** 2 + y ** 2)
        assert np.abs(scale / scale[0] - 1).max() < 1e-12
        assert e.vertices[0, 1] == 0.0


class TestDoubleSegment:
    def test_odd_count_rejected(self):
        with pytest.raises(InvalidDiscretizationError):
            geo.make_double_segment(255)

    def test_collinear_up_down(self):
        d = geo.make_double_segment(256)
        assert np.all(d.vertices[:, 1] == 0)
        x = d.vertices[:, 0]
        assert x[0] == 0
        assert x[128] == pytest.approx(np.pi, abs=1e-12)
        assert np.all(np.diff(x[:129]) > 0)
        assert np.all(np.diff(x[128:]) < 0)

    def test_fold_symmetry(self):
        d = geo.make_double_segment(256)
        for i in (1, 50, 100):
            assert _offset_table(d.vertices, [256 - 2 * i])[0, i] == 0.0


class TestRandomClosedCurve:
    def test_deterministic(self):
        a = geo.random_closed_curve(5)
        b = geo.random_closed_curve(5)
        assert np.array_equal(a.vertices, b.vertices)

    def test_invariants(self):
        for seed in range(5):
            c = geo.random_closed_curve(seed, n=256)
            c.validate()

    def test_single_harmonic_gives_ellipse_trace(self):
        from chordenergy.shape import fit_conic
        c = geo.random_closed_curve(1, K=1, n=256)
        fit = fit_conic(c)
        assert fit.residual < 1e-9

    def test_three_dimensional(self):
        c = geo.random_closed_curve(2, n=256, dim=3)
        assert c.dim == 3
        c.validate()

    @pytest.mark.parametrize("seed", [131, 140])
    def test_small_odd_n_gets_equal_edges(self, seed):
        # relative edge spreads 0.17 and 0.25 under the inscriber's
        # earlier stop rule, which ended at the first pass that did not
        # halve the spread
        geo.random_closed_curve(seed, n=9).validate()

    @pytest.mark.parametrize("size, match", [
        ({"n": 7}, "n >= 8"), ({"n": 0}, "n >= 8"),
        ({"dim": 4}, "dim 2 or 3"), ({"dim": 1}, "dim 2 or 3")],
        ids=["n7", "n0", "dim4", "dim1"])
    def test_bad_size_raises_before_any_draw(self, size, match,
                                             monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a curve")
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(InvalidDiscretizationError, match=match):
            geo.random_closed_curve(1, **size)

    def test_draws_the_inscriber_rejects_fall_through(self, monkeypatch):
        # with two passes no draw reaches equal edges: each substream's
        # InvalidDiscretizationError is skipped, and the seed runs out
        monkeypatch.setattr(geo, "INSCRIBE_MAX_PASSES", 2)
        with pytest.raises(DegenerateCurveError, match="no non-degenerate"):
            geo.random_closed_curve(1, n=64)

    def test_inscriber_stops_at_round_off(self, monkeypatch):
        # the edge spread falls quadratically to ~1e-13 by the sixth
        # pass; the inscriber must stop there, not run its pass cap
        calls = []
        inscribe = geo._inscribe_equal_chords

        def counting(trace, n, *args, **kwargs):
            def counted(t):
                calls.append(t)
                return trace(t)
            return inscribe(counted, n, *args, **kwargs)

        monkeypatch.setattr(geo, "_inscribe_equal_chords", counting)
        for seed in (1, 2, 3, 7, 1001):
            calls.clear()
            c = geo.random_closed_curve(seed, n=512)
            c.validate()
            lengths = c.edge_lengths()
            spread = (lengths.max() - lengths.min()) / lengths.mean()
            assert spread <= geo.EDGE_SPREAD_TOL
            assert spread < 1e-10
            assert len(calls) <= 12


def _uncached_random_closed_curve(seed, K=6, n=512, dim=2):
    """random_closed_curve with every harmonic evaluated on the spot by
    the trace's own recurrence, the reference for the harmonic-table
    cache."""
    for attempt in range(32):
        rng = np.random.default_rng((seed, attempt))
        ks = np.arange(1, K + 1)[:, None]
        scale = 0.25 * geo.AMPLITUDE_DECAY ** ks
        a = rng.normal(size=(K, dim)) * scale
        b = rng.normal(size=(K, dim)) * scale
        a[0, 0] += 1.0
        b[0, 1] += 1.0
        coef = np.stack([a, b], axis=1).reshape(2 * K, dim)
        dcoef = np.stack([ks * b, -ks * a], axis=1).reshape(2 * K, dim)

        def trace(t, coef=coef):
            return geo._harmonics(t, K) @ coef

        dense = TWO_PI * np.arange(4096) / 4096
        speed = np.linalg.norm(geo._harmonics(dense, K) @ dcoef, axis=1)
        perim = float(np.trapezoid(
            np.append(speed, speed[0]), dx=TWO_PI / 4096))
        if perim < 1e-6 or speed.min() < 0.35 * speed.mean():
            continue
        try:
            return geo._inscribe_equal_chords(trace, n)
        except DegenerateCurveError:
            continue
    raise DegenerateCurveError(seed)


class TestHarmonics:
    @pytest.mark.parametrize("K", [1, 6, 12])
    def test_matches_cos_and_sin(self, K):
        # the uniform grid, and the shifted parameters of later passes
        t = np.concatenate([
            TWO_PI * np.arange(512) / 512,
            np.random.default_rng(K).uniform(-0.1, TWO_PI + 0.1, 4096)])
        table = geo._harmonics(t, K)
        assert table.shape == (len(t), 2 * K)
        phase = np.outer(t, np.arange(1, K + 1))
        assert np.abs(table[:, 0::2] - np.cos(phase)).max() <= 1e-14
        assert np.abs(table[:, 1::2] - np.sin(phase)).max() <= 1e-14

    @pytest.mark.parametrize("K", [1, 6])
    def test_is_the_cumprod_form(self, K):
        t = np.concatenate([
            TWO_PI * np.arange(512) / 512,
            np.random.default_rng(K).uniform(-0.1, TWO_PI + 0.1, 4096)])
        z = np.exp(1j * t)
        cumprod = np.cumprod(np.broadcast_to(z[:, None], (z.size, K)),
                             axis=1).view(float)
        assert np.array_equal(geo._harmonics(t, K), cumprod)

    def test_table_is_the_recurrence_on_the_grid(self):
        geo._harmonic_table.cache_clear()
        for m, K in ((64, 6), (geo.SPEED_GRID, 3)):
            assert np.array_equal(
                geo._harmonic_table(m, K),
                geo._harmonics(TWO_PI * np.arange(m) / m, K))


class TestHarmonicTableCache:
    CASES = [(seed, n, dim, K) for seed in (0, 3, 11) for n in (64, 257, 512)
             for dim in (2, 3) for K in (1, 6)]

    def test_equal_to_uncached_on_cold_and_warm_cache(self):
        expected = [_uncached_random_closed_curve(seed, K=K, n=n, dim=dim)
                    for seed, n, dim, K in self.CASES]
        for warmth in ("cold", "warm"):
            if warmth == "cold":
                geo._harmonic_table.cache_clear()
            for (seed, n, dim, K), vertices in zip(self.CASES, expected):
                curve = geo.random_closed_curve(seed, K=K, n=n, dim=dim)
                assert np.array_equal(curve.vertices, vertices), \
                    (warmth, seed, n, dim, K)
        assert geo._harmonic_table.cache_info().hits > 0

    def test_cache_is_bounded(self):
        assert geo._harmonic_table.cache_info().maxsize is not None

    def test_cached_tables_are_read_only(self):
        geo.random_closed_curve(1, n=64)
        for table in (geo._harmonic_table(geo.SPEED_GRID, 6),
                      geo._harmonic_table(64, 6)):
            for part in table:
                with pytest.raises(ValueError):
                    part[0, 0] = 1.0
                with pytest.raises(ValueError):
                    part *= 2.0


def _offset_table(v, ks):
    """The squared chords of the offsets ks as one (len(ks), n) table,
    joined from the blocks of offset_chord_blocks."""
    return np.concatenate([table for _, table
                           in geo.offset_chord_blocks(v, ks)])


def _brute_squared_chords(v, ks):
    n = len(v)
    out = np.empty((len(ks), n))
    for r, k in enumerate(ks):
        for i in range(n):
            acc = 0.0
            for x in v[(i + k) % n] - v[i]:
                acc += x * x
            out[r, i] = acc
    return out


def _gathered_squared_chords(v, ks):
    """The offset table as gathered copies of the cyclic vertex windows
    minus the vertices, squared and summed coordinate by coordinate."""
    n = len(v)
    coords = np.concatenate([v, v]).T
    offsets = np.asarray(ks)[:, None] % n + np.arange(n)
    diff = coords[:, offsets] - coords[:, None, :n]
    diff *= diff
    table = diff[0]
    for sq in diff[1:]:
        table += sq
    return table


def _gram_table_before_others(vertices):
    """squared_chord_matrix as it was before it took others= and out=."""
    n, dim = vertices.shape
    sq = np.einsum("id,id->i", vertices, vertices)
    left = np.empty((n, dim + 2))
    left[:, :dim] = -2.0 * vertices
    left[:, dim] = sq
    left[:, dim + 1] = 1.0
    right = np.empty((n, dim + 2))
    right[:, :dim] = vertices
    right[:, dim] = 1.0
    right[:, dim + 1] = sq
    d2 = left @ right.T
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


class TestGramTable:
    @pytest.mark.parametrize("n", [8, 33, 256, 1024])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_default_call_is_unchanged(self, n, dim):
        v = np.random.default_rng(n + dim).normal(size=(n, dim))
        assert np.array_equal(geo.squared_chord_matrix(v),
                              _gram_table_before_others(v))

    @pytest.mark.parametrize("n, m", [(8, 5), (33, 49), (256, 384)])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_others_into_out_match_exact_differences(self, n, m, dim):
        rng = np.random.default_rng(n + m + dim)
        v = rng.normal(size=(n, dim))
        others = rng.normal(size=(m, dim))
        out = np.full((n, m), np.nan)
        d2 = geo.squared_chord_matrix(v, others, out=out)
        assert d2 is out
        diff = v[:, None, :] - others[None, :, :]
        exact = np.einsum("ikd,ikd->ik", diff, diff)
        scale = np.abs(v).max() ** 2 + np.abs(others).max() ** 2
        assert np.abs(d2 - exact).max() < 1e-14 * scale


    @pytest.mark.parametrize("n", [8, 256])
    def test_negative_round_off_is_clamped(self, n):
        # far from the origin the distance of a vertex to its own copy
        # cancels to round-off of either sign.  The table keeps it; its
        # reader, the optimizer's chord band, turns the negative entries
        # it reads into zero, and the others keep their bits.  Each
        # vertex appears twice, so the copies are pairs of the band
        # (offset n of 2n) and off the diagonal.  At p = 4 the band's
        # weights d2^1 are the clamped band, with offset n at half weight
        v = 1e4 + np.random.default_rng(n).normal(size=(n, 2))
        twice = np.concatenate((v, v))
        band = opt._ChordBand(2 * n)
        raw = geo.squared_chord_matrix(twice, np.concatenate((twice, v)))
        raw_band = opt._band_view(raw, n)
        assert raw_band.min() < 0
        assert band.power_mean(twice, 4.0) is not None
        clamped = np.maximum(raw_band, 0.0)
        clamped[:, -1] *= 0.5
        assert np.array_equal(band.band_weights, clamped)
        # the clamped closest pair is exactly zero: below any floor
        assert band.band_weights.min() == 0.0
        assert opt._ChordBand(2 * n).power_mean(twice, 4.0, 5e-324) is None

        # avg_chord_p walks exact differences, in which the copies give
        # exact zeros
        diff = twice[:, None, :] - twice[None, :, :]
        d2 = np.sum(diff * diff, axis=2)
        assert d2.min() == 0.0
        top = d2.max()
        expected = np.mean((d2 / top) ** 1.5) ** (1 / 3) * np.sqrt(top)
        assert fn.avg_chord_p(geo.PolyCurve(twice), 3.0) == pytest.approx(
            expected, rel=1e-14)


class TestOffsetKernel:
    @pytest.mark.parametrize("n", [8, 9, 64, 257, 512])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_double_loop(self, n, dim):
        v = np.random.default_rng(n + dim).normal(size=(n, dim))
        if n <= 64:
            ks = np.arange(n)
        else:
            ks = np.array([0, 1, 2, n // 2, n // 2 + 1, n - 1, n + 3])
        table = _offset_table(v, ks)
        assert table.shape == (len(ks), n)
        assert np.array_equal(table, _brute_squared_chords(v, ks))

    @pytest.mark.parametrize("n", [8, 9, 64, 257])
    def test_half_offsets_cover_every_ordered_pair(self, n):
        ks, weights = geo.half_offsets(n)
        assert ks[0] == 1 and ks[-1] == n // 2
        assert weights.sum() == n - 1
        # offset k and n - k hold the same chords, shifted by k
        v = np.random.default_rng(n).normal(size=(n, 2))
        table = _offset_table(v, ks)
        partner = _offset_table(v, n - ks)
        for r, k in enumerate(ks):
            assert np.array_equal(np.roll(partner[r], -k), table[r])

    def test_blocks_walk_every_offset_once(self):
        ks = np.arange(1, 3 * geo.OFFSET_BLOCK + 5)
        v = np.random.default_rng(0).normal(size=(400, 2))
        seen = []
        for rows, table in geo.offset_chord_blocks(v, ks):
            assert len(table) <= geo.OFFSET_BLOCK
            diff = v[(ks[rows][:, None] + np.arange(400)) % 400] - v
            assert np.array_equal(table, diff[..., 0] * diff[..., 0]
                                  + diff[..., 1] * diff[..., 1])
            seen.extend(ks[rows])
        assert seen == list(ks)

    # evenly spaced ascending runs (sliced), then uneven, descending,
    # duplicate and wrapped offsets (gathered), in one list so that runs
    # cross block boundaries
    MIXED = [1, 2, 3, 4, 5, 9, 13, 17, 21, 2, 3, 5, 8, 13, 40, 30, 20, 10,
             6, 6, 6, 7, 0, 64, 128, 65, 66, 67, 68, 11]

    @pytest.mark.parametrize("per_block", [None, 4, 1])
    @pytest.mark.parametrize("n, ks", [
        (64, "half"), (64, "mixed"), (65, "mixed"), (64, "single"),
        (257, "half"), (257, "every_fifth")])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_equals_gather_reference(self, n, ks, dim, per_block,
                                     monkeypatch):
        if per_block is not None:
            monkeypatch.setattr(geo, "OFFSET_BLOCK", per_block * n)
        ks = {"half": geo.half_offsets(n)[0],
              "mixed": np.array(self.MIXED),
              "single": np.array([7]),
              "every_fifth": np.arange(3, n + 40, 5)}[ks]
        v = np.random.default_rng(n + dim).normal(size=(n, dim))
        table = _offset_table(v, ks)
        assert np.array_equal(table, _gathered_squared_chords(v, ks))
        # summed a coordinate at a time through a scratch buffer that
        # the blocks share, a short last block included, the table's
        # roots are np.linalg.norm's of the chord vectors bit for bit
        diff = v[(ks[:, None] + np.arange(n)) % n] - v
        assert np.array_equal(np.sqrt(table), np.linalg.norm(diff, axis=-1))

    def test_even_runs_are_indexed_by_slices(self):
        assert geo._offset_index(np.array([3, 5, 7])) == slice(3, 8, 2)
        assert geo._offset_index(np.array([9])) == slice(9, 10, 1)
        for block in ([3, 5, 8], [7, 5, 3], [4, 4, 4], [63, 0, 1]):
            block = np.array(block)
            assert geo._offset_index(block) is block

    def test_arcs_fold_at_half_turn(self):
        n = 512
        arcs = geo.offset_arcs(n, np.arange(n))
        assert arcs[0] == 0.0
        assert arcs[n // 2] == pytest.approx(np.pi)
        assert np.array_equal(arcs[1:], arcs[1:][::-1])
        for k in (0, 1, 100, 256, 400, n + 100):
            s = min(k % n, n - k % n) * (TWO_PI / n)
            assert geo.offset_arcs(n, k) == arcs[k % n] == min(s, TWO_PI - s)

    @pytest.mark.parametrize("n", [511, 512])
    def test_mirrored_offsets_share_their_arc(self, n):
        ks = np.arange(1, n)
        assert np.array_equal(geo.offset_arcs(n, n - ks),
                              geo.offset_arcs(n, ks))

    def test_offsets_up_to_half_keep_their_bits(self):
        # the fold to the short way round moves only offsets past n/2,
        # so the walks over k = 1..n/2 read the arcs they always read
        for n in range(8, 1100):
            s = np.arange(n // 2 + 1) * (TWO_PI / n)
            assert np.array_equal(geo.offset_arcs(n, np.arange(n // 2 + 1)),
                                  np.minimum(s, TWO_PI - s)), n


class TestResample:
    def test_fixed_point_on_circle(self):
        c = geo.make_circle(256)
        again = geo.resample_arclength(c, 256)
        assert np.abs(again.vertices - c.vertices).max() < 1e-12

    def test_downsample_circle_is_regular(self):
        coarse = geo.resample_arclength(geo.make_circle(256), 128)
        r_n = (np.pi / 128) / np.sin(np.pi / 128)
        radii = np.linalg.norm(coarse.vertices, axis=1)
        assert np.abs(radii - r_n).max() < 1e-12

    def test_equalization_idempotent(self):
        e = geo.make_ellipse(2, 512)
        again = geo.resample_arclength(e, 512)
        lengths = again.edge_lengths()
        assert (lengths.max() - lengths.min()) / lengths.mean() < 1e-9
        assert np.abs(again.vertices - e.vertices).max() < 1e-9

    def test_garbage_polyline_gets_equal_edges(self):
        # one interpolation pass and the Newton projection place 64
        # random points on an equal-edge curve about half an edge from
        # the input, scaled to perimeter 2*pi and centred
        garbage = geo.PolyCurve(np.random.default_rng(0).normal(size=(64, 2)))
        resampled = geo.resample_arclength(garbage, 64)
        resampled.validate()
        scaled = (garbage.vertices - garbage.centroid()) \
            * (TWO_PI / garbage.perimeter())
        assert shp.hausdorff(resampled, geo.PolyCurve(scaled)) \
            < 0.6 * TWO_PI / 64

    def test_collapsed_curve_raises(self):
        tiny = geo.PolyCurve(1e-9 * geo.make_circle(64).vertices)
        with pytest.raises(DegenerateCurveError, match="collapsed"):
            geo.resample_arclength(tiny, 64)

    def test_double_segment_raises(self):
        # its edge constraints are dependent: the cyclic J J^T is
        # singular, and the Sherman-Morrison denominator exactly zero
        with pytest.raises(DegenerateCurveError, match="not independent"):
            geo.resample_arclength(geo.make_double_segment(64), 64)

    @pytest.mark.parametrize("amplitude", [0.01, 0.05, 0.1, 0.5, 1.0])
    def test_never_returns_unequal_edges(self, amplitude):
        # noise up to 20 edge lengths: each resampling either raises or
        # returns a curve with unit speed
        for seed in range(4):
            rng = np.random.default_rng(seed)
            noisy = geo.PolyCurve(geo.make_circle(128).vertices
                                  + amplitude * rng.normal(size=(128, 2)))
            try:
                resampled = geo.resample_arclength(noisy, 128)
            except DegenerateCurveError:
                continue
            resampled.validate()

    @pytest.mark.parametrize("n", [64, 128, 512])
    @pytest.mark.parametrize("sigma", [0.05, 0.1, 0.2, 1.0])
    def test_noisy_polygon_gets_equal_edges(self, n, sigma):
        # noise of sigma edge lengths on every vertex of the n-gon
        for seed in range(20):
            rng = np.random.default_rng(seed)
            noisy = geo.PolyCurve(geo.make_circle(n).vertices
                                  + sigma * (TWO_PI / n)
                                  * rng.normal(size=(n, 2)))
            resampled = geo.resample_arclength(noisy, n)
            resampled.validate()
            assert np.abs(resampled.centroid()).max() < 1e-15

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_noisy_space_curve_gets_equal_edges(self, seed):
        # the edge-length projection takes the edge directions in any
        # dimension: noise of 0.2 edge lengths on a random 3-D curve
        n = 128
        curve = geo.random_closed_curve(seed, n=n, dim=3)
        rng = np.random.default_rng(seed)
        noisy = geo.PolyCurve(curve.vertices + 0.2 * (TWO_PI / n)
                              * rng.normal(size=(n, 3)))
        resampled = geo.resample_arclength(noisy, n)
        assert resampled.dim == 3
        resampled.validate()
        assert np.abs(resampled.centroid()).max() < 1e-15

    def test_round_off_stall_returns(self, monkeypatch):
        # far from the origin the edge lengths carry round-off near 1e-9,
        # above RETRACT_TOL and below EDGE_SPREAD_TOL: the projection
        # stops at the first Newton step that fails to halve the error
        far = geo.PolyCurve(geo.make_circle(256).vertices + 1e5)
        steps = []
        real = geo._edge_normal

        def counting(u, c):
            steps.append(1)
            return real(u, c)

        monkeypatch.setattr(geo, "_edge_normal", counting)
        resampled = geo.resample_arclength(far, 256)
        lengths = resampled.edge_lengths()
        assert (lengths.max() - lengths.min()) / lengths.mean() \
            <= geo.EDGE_SPREAD_TOL
        assert 1 <= len(steps) <= 3


class TestMetricQueries:
    def test_chord_diameter(self, circle512):
        d2 = _offset_table(circle512.vertices, [256])[0, 0]
        assert np.sqrt(d2) == pytest.approx(2.0, abs=1e-4)

    def test_chord_zero_separation(self, circle512):
        assert _offset_table(circle512.vertices, [0])[0, 17] == 0.0

    def test_chord_quarter_arc(self, circle512):
        d2 = _offset_table(circle512.vertices, [128])[0, 0]
        assert np.sqrt(d2) == pytest.approx(np.sqrt(2), abs=1e-4)

    def test_arc_distance_wraps(self, circle512):
        n = circle512.n
        assert geo.offset_arcs(n, n // 2) == pytest.approx(np.pi)
        assert geo.offset_arcs(n, 3 * n // 4) == pytest.approx(np.pi / 2)
        assert geo.offset_arcs(n, 0) == 0.0

    @pytest.mark.parametrize("s,expected", [
        (np.pi, 2.0), (0.0, 0.0), (np.pi / 2, np.sqrt(2))])
    def test_lambda_chord(self, s, expected):
        assert geo.lambda_chord(s) == pytest.approx(expected, abs=1e-12)

    def test_chord_below_arc(self, random_curves):
        # edges are only equal to relative 1e-6, so the nominal grid arc
        # can undershoot the true polygon path by that much; offset 0 is
        # included, its exact-difference chords are exactly zero
        for curve in random_curves[:3]:
            ks = np.arange(curve.n)
            chords = np.sqrt(_offset_table(curve.vertices, ks))
            arcs = geo.offset_arcs(curve.n, ks)
            assert np.all(chords <= arcs[:, None] * (1 + 1e-5))

    def test_lambda_matches_circle_chords(self, circle512):
        n = circle512.n
        tol = 2 * (np.pi / n) ** 2
        ks = [1, 10, 100, 256]
        chords = np.sqrt(_offset_table(circle512.vertices, ks)[:, 0])
        for k, chord in zip(ks, chords):
            s = 2 * np.pi * k / n
            assert abs(geo.lambda_chord(s) - chord) < tol


class TestCurveFile:
    def test_round_trip(self, tmp_path):
        c = geo.random_closed_curve(3, n=256)
        path = tmp_path / "curve.json"
        geo.save_curve(c, path)
        loaded = geo.load_curve(path)
        assert np.array_equal(loaded.vertices, c.vertices)

    def test_bad_perimeter_rejected(self, tmp_path):
        c = geo.make_circle(256)
        payload = {"dim": 2, "n": 256,
                   "vertices": (1.5 * c.vertices).tolist()}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidDiscretizationError):
            geo.load_curve(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        c = geo.make_circle(256)
        payload = {"dim": 2, "n": 128, "vertices": c.vertices.tolist()}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidDiscretizationError):
            geo.load_curve(path)

    @pytest.mark.parametrize("key", ["dim", "n", "vertices"])
    def test_missing_key_rejected(self, tmp_path, key):
        c = geo.make_circle(64)
        payload = {"dim": 2, "n": 64, "vertices": c.vertices.tolist()}
        del payload[key]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidDiscretizationError, match=key):
            geo.load_curve(path)
