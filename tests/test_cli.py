import json
import math

import pytest

from chordenergy import cli
from chordenergy import geometry as geo
from chordenergy import harness


@pytest.fixture()
def curve_file(tmp_path):
    path = tmp_path / "curve.json"
    geo.save_curve(geo.make_circle(128), path)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScalarCommands:
    def test_energy(self, capsys, curve_file):
        code, out, _ = run(capsys, "energy", "--curve", curve_file,
                           "--j", "2", "--p", "1")
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(3.89, abs=0.01)
        assert payload["n"] == 128

    def test_bound(self, capsys):
        code, out, _ = run(capsys, "bound", "--j", "2", "--p", "1")
        assert code == cli.EXIT_OK
        assert json.loads(out)["value"] == pytest.approx(4.0, abs=1e-8)

    def test_apnorm(self, capsys, curve_file):
        code, out, _ = run(capsys, "apnorm", "--curve", curve_file,
                           "--p", "2")
        assert code == cli.EXIT_OK
        assert json.loads(out)["value"] == pytest.approx(2 ** 0.5, abs=1e-3)

    def test_distortion(self, capsys, curve_file):
        code, out, _ = run(capsys, "distortion", "--curve", curve_file)
        assert code == cli.EXIT_OK
        assert json.loads(out)["value"] == pytest.approx(1.5708, abs=1e-3)

    def test_crossover(self, capsys):
        code, out, _ = run(capsys, "crossover")
        assert code == cli.EXIT_OK
        assert float(out) == pytest.approx(3.57202, abs=1e-4)

    def test_shape(self, capsys, curve_file):
        code, out, _ = run(capsys, "shape", "--curve", curve_file)
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["elliptic"] is True
        assert payload["r"] == pytest.approx(1.0, abs=1e-3)


class TestDeficitCommand:
    def test_series_csv(self, capsys, curve_file, tmp_path):
        out_path = tmp_path / "deficit.csv"
        code, _, _ = run(capsys, "deficit", "--curve", curve_file,
                         "--out", str(out_path))
        assert code == cli.EXIT_OK
        lines = out_path.read_text().splitlines()
        assert lines[0] == "s,rho"
        assert len(lines) == 128  # header + n - 1 shifts
        assert all(abs(float(line.split(",")[1])) < 1e-9
                   for line in lines[1:])

    def test_direct_to_stdout(self, capsys, curve_file):
        code, out, _ = run(capsys, "deficit", "--curve", curve_file,
                           "--direct")
        assert code == cli.EXIT_OK
        assert out.splitlines()[0] == "s,rho"

    def test_series_and_direct_share_the_shift_column(self, capsys,
                                                      tmp_path):
        path = tmp_path / "curve.json"
        geo.save_curve(geo.random_closed_curve(3, n=128), path)
        tables = {}
        for flags in ((), ("--direct",)):
            code, out, _ = run(capsys, "deficit", "--curve", str(path), *flags)
            assert code == cli.EXIT_OK
            tables[flags] = [line.split(",") for line in out.splitlines()[1:]]
        series, direct = tables[()], tables[("--direct",)]
        assert [s for s, _ in series] == [s for s, _ in direct]
        assert len(series) == 127


class TestOptimizationCommands:
    def test_maximize_writes_curve(self, capsys, tmp_path):
        out_path = tmp_path / "max.json"
        code, out, _ = run(capsys, "--n", "64", "maximize", "--p", "2",
                           "--max-iters", "200", "--out", str(out_path))
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(2 ** 0.5, abs=1e-2)
        assert payload["params"]["reason"] in (
            "grad_tol", "line_search_stalled", "max_iters")
        assert payload["params"]["converged"] is (
            payload["params"]["reason"] == "grad_tol")
        geo.load_curve(out_path).validate()

    def test_sweep_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "--n", "64", "sweep", "--p-min", "2",
                         "--p-max", "2.5", "--step", "0.5",
                         "--max-iters", "100", "--out", str(out_path))
        assert code == cli.EXIT_OK
        assert len(harness.read_sweep_csv(out_path)) == 2

    def test_verify_small(self, capsys):
        code, out, _ = run(capsys, "--n", "128", "verify", "--curves", "1")
        assert code == cli.EXIT_OK
        assert "checks passed" in out


class TestErrorPaths:
    def test_divergent_params_exit_code(self, capsys, curve_file):
        code, _, err = run(capsys, "energy", "--curve", curve_file,
                           "--j", "3", "--p", "2")
        assert code == cli.EXIT_PRECONDITION
        assert "error" in err

    def test_apnorm_at_large_p_is_valid_json(self, capsys, curve_file):
        # the chord powers used to overflow: the command printed
        # "value": Infinity, then exited 2
        code, out, _ = run(capsys, "apnorm", "--curve", curve_file,
                           "--p", "1100")
        assert code == cli.EXIT_OK
        value = json.loads(out)["value"]
        assert 1.99 < value <= math.pi

    def test_infinite_values_print_strict_json(self, capsys, tmp_path):
        def refuse(name):
            raise AssertionError(f"{name} is not JSON")

        # the doubly covered segment's distortion and width ratio are
        # infinite
        segment = tmp_path / "segment.json"
        geo.save_curve(geo.make_double_segment(64), segment)
        for command, key in (("distortion", "value"), ("shape", "r")):
            code, out, _ = run(capsys, command, "--curve", str(segment))
            assert code == cli.EXIT_OK
            assert json.loads(out, parse_constant=refuse)[key] == "inf"
        # the energy sum overflows: an error, not "value": Infinity
        ellipse = tmp_path / "ellipse.json"
        geo.save_curve(geo.make_ellipse(50.0, 64), ellipse)
        code, out, err = run(capsys, "energy", "--curve", str(ellipse),
                             "--j", "1", "--p", "300")
        assert code == cli.EXIT_PRECONDITION
        assert out == "" and "overflows" in err

    def test_verify_names_a_bad_vertex_count(self, capsys):
        code, _, err = run(capsys, "--n", "7", "verify", "--curves", "1")
        assert code == cli.EXIT_PRECONDITION
        assert "need n >= 8" in err

    def test_missing_curve_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "energy", "--curve",
                         str(tmp_path / "nope.json"), "--j", "2", "--p", "1")
        assert code == cli.EXIT_IO

    def test_malformed_curve_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "n": 4, "vertices": [[0, 0]]}')
        code, _, _ = run(capsys, "distortion", "--curve", str(bad))
        assert code == cli.EXIT_PRECONDITION

    def test_quiet_suppresses_json(self, capsys):
        code, out, _ = run(capsys, "--quiet", "bound", "--j", "2", "--p", "1")
        assert code == cli.EXIT_OK
        assert out == ""

    def test_nan_vertex_curve_file(self, capsys, tmp_path):
        payload = {"dim": 2, "n": 64,
                   "vertices": geo.make_circle(64).vertices.tolist()}
        payload["vertices"][3][0] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "apnorm", "--curve", str(bad),
                           "--p", "2")
        assert code == cli.EXIT_PRECONDITION
        if out:
            json.loads(out)

    def test_curve_file_without_n(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "vertices": [[0, 0]]}')
        code, _, err = run(capsys, "distortion", "--curve", str(bad))
        assert code == cli.EXIT_PRECONDITION
        assert "error" in err

    def test_bound_rejects_zero_p(self, capsys):
        code, _, err = run(capsys, "bound", "--j", "2", "--p", "0")
        assert code == cli.EXIT_PRECONDITION
        assert "error" in err

    def test_maximize_rejects_nonpositive_iteration_cap(self, capsys):
        code, out, err = run(capsys, "--n", "64", "maximize", "--p", "2",
                             "--max-iters", "-5")
        assert code == cli.EXIT_PRECONDITION
        assert out == ""
        assert "max_iters" in err

    @pytest.mark.parametrize("args", [
        ["--p", "nan"], ["--p", "inf"], ["--p", "2", "--perturb", "nan"]])
    def test_maximize_rejects_nonfinite_input(self, capsys, args):
        # --p nan used to exit 0 and print "value": NaN, invalid JSON
        code, out, err = run(capsys, "--n", "64", "maximize", *args)
        assert code == cli.EXIT_PRECONDITION
        assert out == ""
        assert "error" in err

    def test_maximize_rejects_an_exponent_that_overflows(self, capsys):
        # --p 1000 used to exit 0 and print "value": Infinity
        code, out, err = run(capsys, "--n", "64", "maximize", "--p", "1000")
        assert code == cli.EXIT_PRECONDITION
        assert out == ""
        assert "overflow" in err

    def test_sweep_rejects_an_exponent_that_overflows(self, capsys,
                                                      tmp_path):
        out_csv = tmp_path / "s.csv"
        code, out, err = run(capsys, "--n", "64", "sweep", "--p-min", "2",
                             "--p-max", "1000", "--step", "499",
                             "--out", str(out_csv))
        assert code == cli.EXIT_PRECONDITION
        assert out == "" and "overflow" in err
        assert not out_csv.exists()

    def test_figures_rejects_bad_config_before_writing(self, capsys,
                                                       tmp_path):
        # a wrong type, and exponents the optimizer refuses: chord powers
        # that overflow, and a zero exponent
        for i, (text, field_name) in enumerate([
                ('{"p_min": "x"}', "p_min"),
                ('{"p_min": 300, "p_max": 400}', "p_max"),
                ('{"p_min": 0}', "p_min")]):
            config = tmp_path / f"config{i}.json"
            config.write_text(text)
            out_dir = tmp_path / f"figures{i}"
            code, out, err = run(capsys, "figures", "--out", str(out_dir),
                                 "--config", str(config))
            assert code == cli.EXIT_PRECONDITION
            assert out == "" and field_name in err
            assert not out_dir.exists()

    def test_sweep_rejects_zero_step(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--p-min", "2", "--p-max", "3",
                           "--step", "0", "--out", str(tmp_path / "s.csv"))
        assert code == cli.EXIT_PRECONDITION
        assert "error" in err

    def test_sweep_rejects_a_runaway_grid(self, capsys, tmp_path,
                                          monkeypatch):
        # a step of 1e-300 asked for about 3e300 exponents; the grid must
        # be refused before it is built
        monkeypatch.setattr(harness.ExperimentConfig, "p_grid",
                            lambda self: pytest.fail("grid built"))
        out_csv = tmp_path / "s.csv"
        code, out, err = run(capsys, "--n", "64", "sweep", "--p-min", "1",
                             "--p-max", "4", "--step", "1e-300",
                             "--out", str(out_csv))
        assert code == cli.EXIT_PRECONDITION
        assert out == "" and "exponents" in err
        assert not out_csv.exists()

    def test_sweep_rejects_empty_range(self, capsys, tmp_path):
        # p_max < p_min used to write a header-only CSV and exit 0
        out_csv = tmp_path / "s.csv"
        code, out, err = run(capsys, "--n", "64", "sweep", "--p-min", "3",
                             "--p-max", "2", "--out", str(out_csv))
        assert code == cli.EXIT_PRECONDITION
        assert out == "" and "p_max" in err
        assert not out_csv.exists()
