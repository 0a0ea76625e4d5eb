"""chordenergy benchmark.

    python3 perfbench/run.py --workload {sweep256,verify512,large_n}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.
BLAS is pinned to one thread before numpy is imported, and the run is
refused if the loaded OpenBLAS reports another thread count.

``--trace 0`` repeats the workload's fixed work (one *unit*) as often
as it fits into ``--seconds``, at least once, and reports medians of the
end-to-end metrics.  ``--trace 1`` runs one unit with every layer
function wrapped and reports the per-layer metrics.  The last stdout
line is the result object; the line before it records the environment
and the details (per-solve table, failed checks).  See README.md.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
BLAS_THREADS = 1

if __name__ == "__main__":
    for _var in THREAD_VARS:
        os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

from tracing import (LAYER_FUNCTIONS, NESTED_FUNCTIONS, Tracer,  # noqa: E402
                     wrapper_cost_s)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: set-up samples per untraced run, half taken before the timed units and
#: half after, so that their median spans the run; setup_s is the median
SETUP_SAMPLES = 10

#: numeric stop reason in the per-solve metrics; 0 means "not run"
REASON_CODES = {"grad_tol": 1, "stalled": 2, "max_iters": 3}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("ms_per_iter", "ms"),
    ("peak_rss_mb", "MB"),
)

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import chordenergy; "
                 "print(time.perf_counter() - t)")


def per_layer_names(solve_names) -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in a fixed order."""
    out = []
    for fname in LAYER_FUNCTIONS:
        out.append((f"{fname}.calls", "count"))
        out.append((f"{fname}.ms", "ms"))
        if fname in NESTED_FUNCTIONS:
            out.append((f"{fname}.self_ms", "ms"))
    out += [("optimizer.iterations", "count"),
            ("optimizer.accept_ratio", "ratio"),
            ("optimizer.pairwise_passes_per_iter", "ratio"),
            ("optimizer.solves_capped", "count")]
    for stem in solve_names:
        out += [(f"optimizer.{stem}.iterations", "count"),
                (f"optimizer.{stem}.s", "s"),
                (f"optimizer.{stem}.reason", "code")]
    out += [("trace.wall_ms", "ms"), ("trace.attributed_ms", "ms"),
            ("trace.unattributed_ms", "ms"), ("trace.overhead_ms", "ms")]
    return out


# ---------------------------------------------------------------- environment

def _blas_thread_counts() -> dict:
    """Thread count reported by each OpenBLAS library mapped into this
    process (numpy and scipy may each bundle one)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()
                            and line.split()[-1].startswith("/")})
    except OSError:
        return {}
    counts = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                counts[os.path.basename(path)] = int(func())
                break
    return counts


def _blas_version(module) -> str | None:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_rev() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    import numpy
    import scipy
    counts = _blas_thread_counts()
    return {
        "git_rev": _git_rev(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(numpy),
        "openblas_scipy": _blas_version(scipy),
        "blas_threads": max(counts.values()) if counts else None,
        "blas_threads_by_library": counts,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# ---------------------------------------------------------------- measuring

def _import_seconds() -> float:
    """Time of ``import chordenergy`` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC],
                          capture_output=True, text=True, check=True,
                          timeout=120, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def _measure_setup(workload, seed, samples: list):
    """Appends SETUP_SAMPLES // 2 set-up samples (package import plus
    input generation) to ``samples``; returns the inputs."""
    for _ in range(SETUP_SAMPLES // 2):
        import_s = _import_seconds()
        start = time.perf_counter()
        inputs = workload.setup(seed)
        samples.append(import_s + time.perf_counter() - start)
    return inputs


def _ms_per_iter(unit, solves, wall_s) -> float:
    """Optimizer wall time per iteration; per inner unit of work on a
    workload that runs no optimizer."""
    iterations = sum(s.iterations for s in solves)
    if iterations:
        return 1000.0 * sum(s.seconds for s in solves) / iterations
    return 1000.0 * wall_s / unit.inner_units


def _solve_table(solves) -> list[dict]:
    return [{"leg": s.leg, "p": s.p, "iterations": s.iterations,
             "s": round(s.seconds, 4), "reason": s.reason}
            for s in solves]


def measure(workload, seed: int, seconds: float):
    """Untraced run: returns (details, result)."""
    setup_samples = []
    inputs = _measure_setup(workload, seed, setup_samples)
    walls, per_iter, units = [], [], []
    start = time.perf_counter()
    while True:
        with Tracer(targets=("optimizer.maximize",)) as hook:
            t0 = time.perf_counter()
            unit = workload.run(inputs, hook)
            wall = time.perf_counter() - t0
        if not units:
            # after one unit, so the figure does not depend on how many
            # units fit into --seconds
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls.append(wall)
        per_iter.append(_ms_per_iter(unit, hook.solves, wall))
        units.append(unit)
        solves = hook.solves
        # stop before a unit that would end past --seconds
        if time.perf_counter() - start + wall > seconds:
            break
    _measure_setup(workload, seed, setup_samples)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_samples),
        "ms_per_iter": statistics.median(per_iter),
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "units": len(units),
        "unit_wall_s": walls,
        "setup_samples_s": setup_samples,
        "iterations_per_unit": sum(s.iterations for s in solves),
        "solves_capped": sum(s.capped for s in solves),
        "solves": _solve_table(solves),
        "failures": sorted({f for u in units for f in u.failures}),
    }
    return details, _result(units, metrics, END_TO_END)


def measure_traced(workload, seed: int, solve_names):
    """Traced run of one unit: returns (details, result)."""
    from workloads import solve_stem
    inputs = workload.setup(seed)
    cost = wrapper_cost_s()
    with Tracer() as tracer:
        t0 = time.perf_counter()
        unit = workload.run(inputs, tracer)
        wall = time.perf_counter() - t0
    values = {}
    for fname, st in tracer.stats.items():
        values[f"{fname}.calls"] = st.calls
        values[f"{fname}.ms"] = 1000.0 * st.busy_s
        if fname in NESTED_FUNCTIONS:
            values[f"{fname}.self_ms"] = 1000.0 * st.self_s
    iters = sum(s.iterations for s in tracer.solves)
    projects = tracer.inner_calls.get("optimizer.project", 0)
    pairwise = tracer.inner_calls.get("geometry.squared_chord_matrix", 0)
    values["optimizer.iterations"] = iters
    values["optimizer.accept_ratio"] = iters / projects if projects else 0.0
    values["optimizer.pairwise_passes_per_iter"] = \
        pairwise / iters if iters else 0.0
    values["optimizer.solves_capped"] = sum(s.capped for s in tracer.solves)
    by_stem = {solve_stem(s.leg, s.p): s for s in tracer.solves}
    for stem in solve_names:
        s = by_stem.get(stem)
        values[f"optimizer.{stem}.iterations"] = s.iterations if s else 0
        values[f"optimizer.{stem}.s"] = s.seconds if s else 0.0
        values[f"optimizer.{stem}.reason"] = \
            REASON_CODES[s.reason] if s else 0
    attributed = tracer.top_level_busy_s()
    calls = sum(st.calls for st in tracer.stats.values())
    values["trace.wall_ms"] = 1000.0 * wall
    values["trace.attributed_ms"] = 1000.0 * attributed
    values["trace.unattributed_ms"] = 1000.0 * (wall - attributed)
    values["trace.overhead_ms"] = 1000.0 * cost * calls
    details = {
        "units": 1,
        "traced_calls": calls,
        "wrapper_cost_us": 1e6 * cost,
        "solves": _solve_table(tracer.solves),
        "failures": unit.failures,
    }
    return details, _result([unit], values, per_layer_names(solve_names))


def _result(units, values, declared) -> dict:
    """The result object; ``declared`` lists (name, unit) in spec order."""
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared},
    }


# ---------------------------------------------------------------- entry point

def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"need a value >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"need a value > 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep256", "verify512", "large_n"))
    parser.add_argument("--seed", type=_nonnegative_int, required=True)
    parser.add_argument("--seconds", type=_positive_float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "chordenergy", "__init__.py")):
        print(f"perfbench: chordenergy sources not found under {SRC}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    env = environment()
    if env["blas_threads"] not in (None, BLAS_THREADS):
        print(f"perfbench: BLAS runs {env['blas_threads']} threads, not "
              f"{BLAS_THREADS}; results would not be comparable",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    solve_names = WORKLOADS["sweep256"].solve_names()
    if args.trace:
        details, result = measure_traced(workload, args.seed, solve_names)
    else:
        details, result = measure(workload, args.seed, args.seconds)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "env": env, "details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
