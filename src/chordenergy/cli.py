"""Command-line interface.

Exit codes: 0 success, 2 precondition/parameter errors, 3 verification
failure, 4 I/O errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import functionals as fn
from . import geometry as geo
from . import harness
from . import optimizer as opt
from . import shape as shp
from . import spectral as spec
from .errors import ChordEnergyError

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_VERIFICATION = 3
EXIT_IO = 4


def _json_value(value):
    """value, a payload dict or an entry of one, with each infinite float
    as the string "inf" or "-inf", which JSON can hold."""
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _emit(payload, quiet: bool) -> None:
    """Print payload as strict JSON: a NaN raises ValueError before
    anything is written."""
    if not quiet:
        text = json.dumps(_json_value(payload), indent=2, allow_nan=False)
        sys.stdout.write(text + "\n")


def cmd_verify(args) -> int:
    report = harness.verify_all(seed=args.seed, n_curves=args.curves,
                                n=args.n)
    if not args.quiet:
        print(report.summary())
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def cmd_energy(args) -> int:
    curve = geo.load_curve(args.curve)
    params = fn.EnergyParams(args.j, args.p)
    value = fn.energy_Ejp(curve, params)
    _emit({"value": value, "n": curve.n,
           "params": {"j": args.j, "p": args.p}}, args.quiet)
    return EXIT_OK


def cmd_apnorm(args) -> int:
    curve = geo.load_curve(args.curve)
    value = fn.avg_chord_p(curve, args.p)
    _emit({"value": value, "n": curve.n, "params": {"p": args.p}}, args.quiet)
    return EXIT_OK


def cmd_distortion(args) -> int:
    curve = geo.load_curve(args.curve)
    value = fn.distortion(curve)
    _emit({"value": value, "n": curve.n, "params": {}}, args.quiet)
    return EXIT_OK


def cmd_bound(args) -> int:
    value = fn.circle_bound(fn.EnergyParams(args.j, args.p))
    _emit({"value": value, "n": None,
           "params": {"j": args.j, "p": args.p}}, args.quiet)
    return EXIT_OK


def cmd_deficit(args) -> int:
    curve = geo.load_curve(args.curve)
    if args.direct:
        ks = np.arange(1, curve.n)
        # the shift grid of spec.deficit, so both paths share the s column
        rows = list(zip((geo.TWO_PI * ks / curve.n).tolist(),
                        spec.deficit_direct(curve, ks).tolist()))
    else:
        prof = spec.deficit(spec.analyze(curve))
        rows = list(zip(prof.s.tolist(), prof.rho.tolist()))
    out = args.out or "-"
    lines = ["s,rho"] + [f"{s:.17g},{r:.17g}" for s, r in rows]
    text = "\n".join(lines) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)
    return EXIT_OK


def cmd_maximize(args) -> int:
    opts = opt.OptimizeOptions(n=args.n, max_iters=args.max_iters,
                               perturb=args.perturb)
    init = opt.perturb_mode2(geo.make_circle(args.n), args.perturb)
    result = opt.maximize(args.p, init, opts)
    canon = opt.canonicalize(result.curve)
    if args.out:
        geo.save_curve(canon, args.out)
    _emit({"value": result.value, "n": args.n,
           "params": {"p": args.p, "iterations": result.iterations,
                      "converged": result.converged,
                      "reason": result.reason.value}}, args.quiet)
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = harness.ExperimentConfig(
        p_min=args.p_min, p_max=args.p_max, p_step=args.step, n=args.n,
        max_iters=args.max_iters, perturb=args.perturb)
    records = opt.sweep(config.p_grid(), config.options)
    harness.write_sweep_csv(records, args.out)
    if not args.quiet:
        print(f"wrote {len(records)} rows to {args.out}")
    return EXIT_OK


def cmd_crossover(args) -> int:
    value = opt.crossover_segment_circle()
    if args.quiet:
        return EXIT_OK
    print(f"{value:.6f}")
    return EXIT_OK


def cmd_shape(args) -> int:
    curve = geo.load_curve(args.curve)
    canon = opt.canonicalize(curve)
    fit = shp.fit_conic(canon)
    ratio = shp.width_ratio(canon)
    _emit({"r": ratio,
           "efit_log10": float(np.log10(max(fit.residual, 1e-300))),
           "eccentricity": fit.eccentricity if fit.elliptic else None,
           "elliptic": fit.elliptic}, args.quiet)
    return EXIT_OK


def cmd_figures(args) -> int:
    config = None
    if args.config:
        with open(args.config) as fh:
            config = harness.ExperimentConfig.from_json(fh.read())
    paths = harness.reproduce_figures(args.out, config)
    if not args.quiet:
        print(json.dumps({k: v for k, v in paths.items()
                          if k != "records"}, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    defaults = opt.OptimizeOptions()
    parser = argparse.ArgumentParser(
        prog="chordenergy",
        description="Chord functionals on discrete closed curves: "
                    "energies, deficits, and maximizer experiments.")
    parser.add_argument("--seed", type=int, default=1,
                        help="random-curve seed; only verify reads it")
    parser.add_argument("--n", type=int, default=512)
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("verify", help="run the inequality verification suite")
    s.add_argument("--curves", type=int, default=50)
    s.set_defaults(func=cmd_verify)

    s = sub.add_parser("energy", help="chord/arc energy of a curve file")
    s.add_argument("--curve", required=True)
    s.add_argument("--j", type=float, required=True)
    s.add_argument("--p", type=float, required=True)
    s.set_defaults(func=cmd_energy)

    s = sub.add_parser("apnorm", help="p-th power mean chord length")
    s.add_argument("--curve", required=True)
    s.add_argument("--p", type=float, required=True)
    s.set_defaults(func=cmd_apnorm)

    s = sub.add_parser("distortion", help="Gromov distortion of a curve file")
    s.add_argument("--curve", required=True)
    s.set_defaults(func=cmd_distortion)

    s = sub.add_parser("bound", help="sharp circle value of the energy")
    s.add_argument("--j", type=float, required=True)
    s.add_argument("--p", type=float, required=True)
    s.set_defaults(func=cmd_bound)

    s = sub.add_parser("deficit", help="Wirtinger deficit profile as CSV")
    s.add_argument("--curve", required=True)
    s.add_argument("--direct", action="store_true")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_deficit)

    s = sub.add_parser("maximize", help="maximize the chord-power mean")
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--max-iters", type=int, default=defaults.max_iters)
    s.add_argument("--perturb", type=float, default=defaults.perturb)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_maximize)

    s = sub.add_parser("sweep", help="continuation sweep over exponents")
    s.add_argument("--p-min", type=float, required=True)
    s.add_argument("--p-max", type=float, required=True)
    s.add_argument("--step", type=float, default=0.05)
    s.add_argument("--max-iters", type=int, default=defaults.max_iters)
    s.add_argument("--perturb", type=float, default=defaults.perturb)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sweep)

    s = sub.add_parser("crossover",
                       help="exponent where the segment beats the circle")
    s.set_defaults(func=cmd_crossover)

    s = sub.add_parser("shape", help="shape diagnostics of a curve file")
    s.add_argument("--curve", required=True)
    s.set_defaults(func=cmd_shape)

    s = sub.add_parser("figures", help="full sweep and SVG figure set")
    s.add_argument("--out", required=True)
    s.add_argument("--config", default=None)
    s.set_defaults(func=cmd_figures)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ChordEnergyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
