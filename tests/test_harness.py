import time
import tracemalloc

import numpy as np
import pytest

from chordenergy import functionals as fn
from chordenergy import geometry as geo
from chordenergy import harness
from chordenergy import optimizer as opt
from chordenergy import shape as shp
from chordenergy import spectral as spec
from chordenergy.errors import ParameterDomainError


class TestExperimentConfig:
    def test_json_round_trip(self):
        config = harness.ExperimentConfig(p_min=2.0, p_max=3.0, p_step=0.25,
                                          fine_grid=(2.62, 2.63), n=128)
        again = harness.ExperimentConfig.from_json(config.to_json())
        assert again == config

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            harness.ExperimentConfig.from_json('{"p_min": 1.0, "bogus": 2}')

    def test_loads_config_with_legacy_seed(self):
        # the config.json of earlier versions, which carried a seed
        legacy = ('{"p_min": 1.0, "p_max": 4.0, "p_step": 0.05, '
                  '"fine_grid": [3.462, 3.464], "n": 256, "seed": 0, '
                  '"max_iters": 2000, "perturb": 0.05, "version": 2}')
        config = harness.ExperimentConfig.from_json(legacy)
        assert config == harness.ExperimentConfig(fine_grid=(3.462, 3.464),
                                                  version=2)
        assert "seed" not in config.to_json()

    def test_figures_solve_with_the_options_built_with_the_config(
            self, monkeypatch, tmp_path):
        config = harness.ExperimentConfig(p_min=2.0, p_max=2.0, n=64,
                                          max_iters=100, perturb=0.1)
        assert config.options == opt.OptimizeOptions(n=64, max_iters=100,
                                                     perturb=0.1)
        assert harness.ExperimentConfig().options == opt.OptimizeOptions()
        used = []
        monkeypatch.setattr(opt, "sweep",
                            lambda grid, opts: used.append(opts) or [])
        harness.reproduce_figures(tmp_path, config)
        assert used == [config.options] and used[0] is config.options

    def test_non_object_config_rejected(self):
        with pytest.raises(ValueError, match="object"):
            harness.ExperimentConfig.from_json('["p_min"]')

    def test_grid_merges_fine_points(self):
        config = harness.ExperimentConfig(p_min=1.0, p_max=2.0, p_step=0.5,
                                          fine_grid=(1.25, 1.5))
        assert config.p_grid() == [1.0, 1.25, 1.5, 2.0]

    @pytest.mark.parametrize("step", [0.0, -0.5, float("nan")])
    def test_nonpositive_step_rejected(self, step):
        with pytest.raises(ParameterDomainError):
            harness.ExperimentConfig(p_step=step)

    @pytest.mark.parametrize("p_max, step", [(4.0, 1e-300), (4.0, 5e-324),
                                             (4.0, 3.0 / 10_000),
                                             (301.0, 0.03)])
    def test_runaway_grid_rejected(self, p_max, step, monkeypatch):
        # refused before any exponent is built
        monkeypatch.setattr(harness.ExperimentConfig, "p_grid",
                            lambda self: pytest.fail("grid built"))
        with pytest.raises(ParameterDomainError, match="exponents"):
            harness.ExperimentConfig(p_max=p_max, p_step=step)

    def test_largest_grid_accepted(self):
        config = harness.ExperimentConfig(
            p_min=1.0, p_max=4.0, p_step=3.0 / (harness.MAX_GRID_EXPONENTS - 1))
        assert len(config.p_grid()) == harness.MAX_GRID_EXPONENTS


class TestVerifyAll:
    def test_small_run_passes(self):
        report = harness.verify_all(seed=1, n_curves=3, n=256)
        assert report.passed, report.summary()

    def test_deterministic(self):
        a = harness.verify_all(seed=1, n_curves=2, n=128)
        b = harness.verify_all(seed=1, n_curves=2, n=128)
        assert [(c.name, c.measured) for c in a.checks] \
            == [(c.name, c.measured) for c in b.checks]

    def test_summary_has_line_per_check(self):
        report = harness.verify_all(seed=2, n_curves=1, n=128)
        lines = report.summary().splitlines()
        assert len(lines) == len(report.checks) + 1
        assert all(line.startswith(("PASS", "FAIL")) for line in lines[:-1])

    def test_checks_are_timed(self):
        start = time.perf_counter()
        report = harness.verify_all(seed=1, n_curves=2, n=128)
        wall = time.perf_counter() - start
        seconds = [c.seconds for c in report.checks]
        assert all(s >= 0 for s in seconds)
        assert sum(seconds) <= wall
        assert all(f"time={c.seconds:.4f}s" in line for c, line
                   in zip(report.checks, report.summary().splitlines()))

    def test_check_result_positional_fields(self):
        check = harness.CheckResult("x", True, 1.0, 0.0, 1e-9)
        assert check.seconds == 0.0

    def test_distortion_read_off_the_energy_walk(self, monkeypatch):
        n, n_curves = 64, 3
        full = fn.half_offsets(n)[0]
        counts = {"distortion": 0, "distortion_at": 0, "deficit_direct": 0}
        full_walks = {}  # id of the vertices -> full half-offset walks
        real_blocks = fn.offset_chord_blocks
        real_distortion = fn.distortion

        def counted(name, real):
            def call(*args):
                counts[name] += 1
                return real(*args)
            return call

        def blocks(vertices, ks):
            if np.array_equal(np.asarray(ks) % len(vertices), full):
                key = id(vertices)
                full_walks[key] = full_walks.get(key, 0) + 1
            return real_blocks(vertices, ks)

        for module, name in ((fn, "distortion"), (fn, "distortion_at"),
                             (spec, "deficit_direct")):
            monkeypatch.setattr(module, name,
                                counted(name, getattr(module, name)))
        monkeypatch.setattr(fn, "offset_chord_blocks", blocks)
        monkeypatch.setattr(spec, "offset_chord_blocks", blocks)
        report = harness.verify_all(seed=1, n_curves=n_curves, n=n)
        assert report.passed, report.summary()
        assert counts == {"distortion": 0, "distortion_at": 0,
                          "deficit_direct": 0}
        # the planar curves and the one space curve, one energy walk
        # each; the "A_p monotone" check's five power means walk the
        # first planar curve once more
        assert sorted(full_walks.values()) == [1] * n_curves + [2]
        check = {c.name: c for c in report.checks}["distortion >= pi/2"]
        curves = [geo.random_closed_curve(1 + i, n=n)
                  for i in range(n_curves)]
        assert check.measured == min(real_distortion(c) for c in curves)

    @pytest.mark.parametrize("n", [64, 65])
    def test_walk_reads_equal_the_public_functions(self, n, monkeypatch):
        n_curves = 12
        ratios, deficits = [], []
        real_ratios = fn._distortion_ratios
        real_deficit = spec._mirrored_deficit

        def distortion_ratios(arcs, min_d2, ks):
            ratios.append((ks, real_ratios(arcs, min_d2, ks)))
            return ratios[-1][1]

        def mirrored_deficit(curve, ks, half_sums):
            deficits.append((curve, real_deficit(curve, ks, half_sums)))
            return deficits[-1][1]

        monkeypatch.setattr(fn, "_distortion_ratios", distortion_ratios)
        monkeypatch.setattr(spec, "_mirrored_deficit", mirrored_deficit)
        harness.verify_all(seed=2, n_curves=n_curves, n=n)
        monkeypatch.undo()
        curves = [geo.random_closed_curve(2 + i, n=n)
                  for i in range(n_curves)]
        # the walks' own distortions come first, one per curve, then the
        # distortion_at check's ratios of the first ten curves
        checked = ratios[-10:]
        assert len(ratios) == n_curves + 1 + 10
        ks = np.arange(1, n // 2 + 1, max(1, n // 128))
        for curve, (read_ks, read) in zip(curves, checked):
            assert np.array_equal(read_ks, ks)
            assert np.array_equal(read, fn.distortion_at(curve, ks))
        assert len(deficits) == n_curves
        for curve, (read_curve, read) in zip(curves, deficits):
            assert np.array_equal(read_curve.vertices, curve.vertices)
            assert np.array_equal(
                read, spec.deficit_direct(curve, np.arange(1, n)))

    def test_chord_means_through_the_public_functions(self, monkeypatch):
        # one batch call per curve through the module attributes, which
        # perfbench's tracer wraps; no private twin is left to call
        assert not hasattr(fn, "_power_means")
        assert not hasattr(fn, "_chord_averages")
        calls = {"avg_chord_p": [], "chord_average": []}

        def counted(name, real):
            def call(curve, *args):
                calls[name].append(args)
                return real(curve, *args)
            return call

        for name in calls:
            monkeypatch.setattr(fn, name, counted(name, getattr(fn, name)))
        report = harness.verify_all(seed=1, n_curves=12, n=64)
        assert report.passed, report.summary()
        assert [ps for ps, in calls["avg_chord_p"]] == [(0.5, 1, 2, 3, 4)]
        assert len(calls["chord_average"]) == 10
        assert all(len(fs) == 3 for _, fs in calls["chord_average"])

    def test_memory_does_not_grow_with_the_curve_count(self):
        # the curves are generated, walked and folded one at a time, and
        # only the first 20 planar ones are kept; holding every curve
        # and walk raised the peak by about 270 KB from 20 to 200 curves
        harness.verify_all(n_curves=20, n=64)  # first-call caches
        peaks = []
        for n_curves in (20, 200):
            tracemalloc.start()
            try:
                harness.verify_all(n_curves=n_curves, n=64)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 4096, peaks

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            harness.verify_all(n_curves=0)


def _sweep_records():
    return [
        shp.SweepRecord(p=2.0, value=np.sqrt(2), r=1.0 + 1e-15,
                        efit_log10=-12.345, eccentricity=0.1,
                        converged=True, iterations=36,
                        reason="grad_tol", seconds=0.1 + 1e-17),
        shp.SweepRecord(p=4.0, value=1.5973, r=9.2,
                        efit_log10=-2.8, eccentricity=0.99,
                        converged=False, iterations=68,
                        reason="line_search_stalled", seconds=1.2345),
        shp.SweepRecord(p=4.5, value=np.nan, r=np.nan,
                        efit_log10=np.nan, eccentricity=np.nan,
                        converged=False, seconds=0.004),
    ]


class TestSweepCsv:
    def test_round_trip_preserves_floats(self, tmp_path):
        records = _sweep_records()
        path = tmp_path / "sweep.csv"
        harness.write_sweep_csv(records, path)
        assert path.read_text().splitlines()[0] \
            == ",".join(harness.SWEEP_COLUMNS)
        again = harness.read_sweep_csv(path)
        assert again[:2] == records[:2]
        assert [rec.seconds for rec in again] \
            == [rec.seconds for rec in records]
        assert (again[2].iterations, again[2].reason) == (0, "")

    def test_version_2_header_rejected(self, tmp_path):
        # format 2, read until the earlier formats were dropped, lacked
        # the seconds column
        path = tmp_path / "sweep_v2.csv"
        path.write_text("p,value,r,efit_log10,eccentricity,converged,"
                        "iterations,reason\n"
                        "2,1.4142135623730951,1,-12.5,0.1,1,26,grad_tol\n")
        with pytest.raises(ValueError, match="header"):
            harness.read_sweep_csv(path)

    def test_sweep_times_each_solve(self):
        start = time.perf_counter()
        records = opt.sweep([2.0, 3.0], opt.OptimizeOptions(
            n=64, max_iters=50))
        wall = time.perf_counter() - start
        seconds = [rec.seconds for rec in records]
        assert all(s > 0 for s in seconds)
        assert sum(seconds) <= wall

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("p,value\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            harness.read_sweep_csv(path)


class TestSvg:
    def test_emit_curves(self, tmp_path, circle256):
        path = tmp_path / "gallery.svg"
        harness.emit_svg([circle256, geo.make_ellipse(2, 256)],
                         ["circle", "ellipse"], path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<path") == 2
        assert "circle" in text and "ellipse" in text

    def test_emit_empty_is_valid(self, tmp_path):
        path = tmp_path / "empty.svg"
        harness.emit_svg([], [], path)
        assert "</svg>" in path.read_text()

    def test_a_missing_label_is_refused(self, tmp_path, circle256):
        # zip used to drop the curves past the last label
        path = tmp_path / "gallery.svg"
        with pytest.raises(ParameterDomainError, match="one label per"):
            harness.emit_svg([circle256, geo.make_ellipse(2, 256)],
                             ["only one"], path)
        assert not path.exists()

    def test_write_error_names_the_file(self, tmp_path, circle256):
        path = tmp_path / "missing" / "gallery.svg"
        with pytest.raises(FileNotFoundError) as info:
            harness.emit_svg([circle256], ["circle"], path)
        assert info.value.filename == str(path)

    def test_plot_is_an_open_path_with_markers(self, tmp_path):
        path = tmp_path / "plot.svg"
        harness._polyline_svg([1.0, 2.0, float("nan"), 3.0],
                              [0.0, 1.0, 5.0, 4.0], path, "p", "r")
        text = path.read_text()
        assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg" '
                               'width="800" height="800"')
        assert text.count("<path") == 1 and " Z" not in text
        assert text.count("<circle") == 3


class TestReproduceFigures:
    def test_quick_run_outputs(self, tmp_path):
        config = harness.ExperimentConfig(p_min=2.0, p_max=3.0, p_step=1.0,
                                          n=64, max_iters=100)
        paths = harness.reproduce_figures(tmp_path, config)
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "config.json").exists()
        assert (tmp_path / "gallery.svg").exists()
        assert (tmp_path / "width_ratio.svg").exists()
        assert (tmp_path / "fit_error.svg").exists()
        records = harness.read_sweep_csv(paths["sweep_csv"])
        assert [r.p for r in records] == [2.0, 3.0]
        for rec in records:
            assert (tmp_path / f"curve_p{rec.p:.3f}.json").exists()
        saved = geo.load_curve(tmp_path / "curve_p2.000.json")
        saved.validate()
