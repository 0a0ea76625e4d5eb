"""Self-tests of the benchmark: tiny-size runs of every workload emit
exactly the metrics BENCHMARK.json declares, the sweep checks encode
criterion 9, and the tracer restores every binding it replaced.

    python3 -m pytest perfbench/tests
"""

import json
import math
import os
import sys

import pytest

import chordenergy
from chordenergy import optimizer as opt
from chordenergy import shape as shp

import run
import tracing
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

SOLVE_NAMES = workloads.WORKLOADS["sweep256"].solve_names()
TINY = workloads.tiny_workloads()


def _declared(kind):
    return [(m["name"], m["unit"]) for m in SPEC[kind]]


def _emitted(result):
    return [(name, m["unit"]) for name, m in result["metrics"].items()]


def _check_result_shape(result):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])


def test_spec_matches_code():
    # large_n runs by hand only; see README.md
    assert sorted(w["name"] for w in SPEC["workloads"]) == \
        sorted(set(workloads.WORKLOADS) - {"large_n"})
    assert _declared("end_to_end") == list(run.END_TO_END)
    assert _declared("per_layer") == run.per_layer_names(SOLVE_NAMES)


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_untraced_run_emits_end_to_end_metrics(name):
    details, result = run.measure(TINY[name], seed=3, seconds=0.01)
    _check_result_shape(result)
    assert _emitted(result) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert details["units"] == 1


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_traced_run_emits_per_layer_metrics(name):
    _, result = run.measure_traced(TINY[name], seed=3,
                                   solve_names=SOLVE_NAMES)
    _check_result_shape(result)
    assert _emitted(result) == _declared("per_layer")


def test_traced_sweep_reports_every_solve():
    _, result = run.measure_traced(TINY["sweep256"], seed=0,
                                   solve_names=SOLVE_NAMES)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["attempted"] == len(SOLVE_NAMES)
    # max_iters=3 stops every solve at the cap
    for stem in SOLVE_NAMES:
        assert metrics[f"optimizer.{stem}.iterations"] == 3
        assert metrics[f"optimizer.{stem}.reason"] == \
            run.REASON_CODES["max_iters"]
    assert metrics["optimizer.solves_capped"] == len(SOLVE_NAMES)
    assert metrics["optimizer.iterations"] == 3 * len(SOLVE_NAMES)
    assert metrics["optimizer.maximize.calls"] == len(SOLVE_NAMES)


def _records(grid, r):
    return [shp.SweepRecord(p=p, value=1.0, r=r(p), efit_log10=-3.0,
                            eccentricity=0.5, converged=True) for p in grid]


@pytest.mark.parametrize("break_at, failed", [
    (3.45, []),             # transition inside [3.3, 3.5721]
    (3.25, ["trans.p3.25"]),  # breaks before 3.3
    (3.6, ["trans.p3.55"]),   # no transition by 3.5721
])
def test_sweep_checks_follow_criterion_9(monkeypatch, break_at, failed):
    def fake_sweep(grid, opts):
        if grid[0] >= 3.8:
            return _records(grid, lambda p: 2.0)
        if len(grid) == 4:
            return _records(grid, lambda p: 1.0)
        return _records(grid, lambda p: 1.2 if p >= break_at else 1.0)

    monkeypatch.setattr(opt, "sweep", fake_sweep)
    sweep = workloads.Sweep()
    unit = sweep.run(sweep.setup(0), tracing.Tracer(targets=()))
    assert unit.attempted == 21
    assert unit.failures == failed


def test_sweep_check_fails_nan_row(monkeypatch):
    def fake_sweep(grid, opts):
        recs = _records(grid, lambda p: 2.0 if p >= 3.5 else 1.0)
        if grid[0] >= 3.8:
            recs[0] = shp.SweepRecord(p=3.8, value=math.nan, r=math.nan,
                                      efit_log10=math.nan,
                                      eccentricity=math.nan, converged=False)
        return recs

    monkeypatch.setattr(opt, "sweep", fake_sweep)
    sweep = workloads.Sweep()
    unit = sweep.run(sweep.setup(0), tracing.Tracer(targets=()))
    assert unit.failures == ["high.p3.80"]


def _bindings():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "chordenergy" or name.startswith("chordenergy.")
            for attr, value in vars(module).items() if callable(value)}


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    original = chordenergy.geometry.squared_chord_matrix
    holders = [key for key, value in before.items() if value is original]
    # defined in geometry, imported by name into functionals and optimizer
    assert {k[0] for k in holders} >= {"chordenergy.geometry",
                                       "chordenergy.functionals",
                                       "chordenergy.optimizer"}
    with tracing.Tracer():
        during = _bindings()
        for key in holders:
            assert during[key] is not original
            assert during[key].__wrapped__ is original
    assert _bindings() == before


def test_tracer_restores_bindings_after_an_error():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    assert _bindings() == before


def test_tracer_counts_calls_through_imported_names():
    init = opt.perturb_mode2(chordenergy.make_circle(32), 0.05)
    with tracing.Tracer() as tracer:
        result = opt.maximize(4.0, init, opt.OptimizeOptions(n=32,
                                                             max_iters=2))
    # optimizer reaches these only through its own imported bindings
    assert tracer.stats["functionals.avg_chord_p"].calls >= 2
    assert tracer.stats["geometry.resample_arclength"].calls >= 2
    assert tracer.inner_calls["geometry.squared_chord_matrix"] >= 2
    assert tracer.solves[0].iterations == result.iterations == 2
    top = tracer.stats["optimizer.maximize"]
    assert top.self_s <= top.busy_s
    assert tracer.top_level_busy_s() == pytest.approx(top.busy_s)
