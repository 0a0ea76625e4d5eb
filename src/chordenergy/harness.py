"""Experiment orchestration: the verification suite, figure
reproduction, and SVG emission."""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import functionals as fn
from . import geometry as geo
from . import optimizer as opt
from . import shape as shp
from . import spectral as spec
from .errors import ParameterDomainError

#: version of the sweep CSV and of the config JSON that reproduce_figures
#: writes
FORMAT_VERSION = 3

#: floats are written with 17 significant digits so CSV/JSON round-trip
FLOAT_FMT = "%.17g"

#: width and height of the SVG figures, in pixels
SVG_SIZE = 800

#: the most exponents a config's regular grid, p_min to p_max at p_step,
#: may hold: a tiny p_step would otherwise build an unbounded list
MAX_GRID_EXPONENTS = 10_000


def _require_number(name: str, value, kinds: tuple) -> None:
    """Raise ParameterDomainError unless value, not a bool, is a finite
    instance of kinds; numpy integers fail, as json cannot write them."""
    if isinstance(value, bool) or not isinstance(value, kinds) \
            or not math.isfinite(value):
        raise ParameterDomainError(
            f"config field {name} must be a finite "
            f"{' or '.join(k.__name__ for k in kinds)}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of a sweep/figures run, round-trippable as JSON.  Making
    one checks every field, the exponents p_min, p_max and fine_grid
    against the range maximize admits (optimizer._require_exponent) and
    the size of the regular grid against MAX_GRID_EXPONENTS, and builds
    options, its OptimizeOptions."""

    p_min: float = 1.0
    p_max: float = 4.0
    p_step: float = 0.05
    fine_grid: tuple = ()
    n: int = opt.OptimizeOptions.n
    max_iters: int = opt.OptimizeOptions.max_iters
    perturb: float = opt.OptimizeOptions.perturb
    version: int = FORMAT_VERSION

    def __post_init__(self):
        for name in ("p_min", "p_max", "p_step", "perturb"):
            _require_number(name, getattr(self, name), (int, float))
        for name in ("n", "max_iters", "version"):
            _require_number(name, getattr(self, name), (int,))
        if not isinstance(self.fine_grid, (list, tuple)):
            raise ParameterDomainError(
                f"config field fine_grid must be a list: {self.fine_grid!r}")
        object.__setattr__(self, "fine_grid", tuple(self.fine_grid))
        for p in self.fine_grid:
            _require_number("fine_grid", p, (int, float))
        # the exponents maximize admits, checked here so that a refused
        # grid stops a run before it writes anything
        for name, p in ([("p_min", self.p_min), ("p_max", self.p_max)]
                        + [("fine_grid", p) for p in self.fine_grid]):
            try:
                opt._require_exponent(p)
            except ParameterDomainError as exc:
                raise ParameterDomainError(
                    f"config field {name}: {exc}") from exc
        if not self.p_step > 0:
            raise ParameterDomainError(
                f"need a positive p_step, got {self.p_step}")
        if not self.p_max >= self.p_min:
            raise ParameterDomainError(
                f"need p_max >= p_min, got p_min={self.p_min} and "
                f"p_max={self.p_max}")
        # p_grid holds round(steps) + 1 regular exponents; steps is a
        # float, inf for a subnormal p_step, so it is compared as one
        steps = (self.p_max - self.p_min) / self.p_step
        if not steps < MAX_GRID_EXPONENTS - 0.5:
            raise ParameterDomainError(
                f"p_step {self.p_step} gives more than {MAX_GRID_EXPONENTS} "
                f"exponents from p_min={self.p_min} to p_max={self.p_max}")
        if not 1 <= self.version <= FORMAT_VERSION:
            raise ParameterDomainError(
                f"unknown config version {self.version}")
        object.__setattr__(self, "options", opt.OptimizeOptions(
            n=self.n, max_iters=self.max_iters, perturb=self.perturb))

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ParameterDomainError(f"config is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ParameterDomainError("config JSON must be an object")
        # configs of earlier versions carry a seed that nothing read
        payload.pop("seed", None)
        unknown = sorted(set(payload) - set(cls.__dataclass_fields__))
        if unknown:
            raise ParameterDomainError(f"unknown config fields: {unknown}")
        return cls(**payload)

    def p_grid(self) -> list[float]:
        count = int(round((self.p_max - self.p_min) / self.p_step)) + 1
        grid = [round(self.p_min + i * self.p_step, 10) for i in range(count)]
        grid.extend(p for p in self.fine_grid if p not in grid)
        return sorted(grid)


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: float
    tolerance: float
    #: wall time of the check, as VerificationReport.add measures it
    seconds: float = 0.0


@dataclass
class VerificationReport:
    """The checks of a verification run, each with its wall time.

    add() credits a check with the time since the previous add(), or
    since the report was made: the work done between two checks belongs
    to the second.  verify_all walks each curve's chord table once, for
    all four energies, the distortion, each offset's smallest squared
    chord and each offset's sum of squared chords, before its first
    energy check, so that check carries the whole walk, the curve set-up
    and, in a fresh process, circle_bound's Gauss-Legendre nodes (about
    1 ms).  The other three energy checks carry only their circle
    bounds; the "distortion >= pi/2" check only the minimum over the
    planar curves' distortions; the "distortion_at >= s/lambda(s)" check
    only the ratios read off the walk's minima; and the deficit checks
    only the DFT series and the deficits read off the walk's chord
    sums."""

    checks: list = field(default_factory=list)
    _mark: float = field(default_factory=time.perf_counter, init=False,
                         repr=False, compare=False)

    def add(self, name, passed, measured, bound, tolerance):
        now = time.perf_counter()
        self.checks.append(CheckResult(name, bool(passed), float(measured),
                                       float(bound), float(tolerance),
                                       now - self._mark))
        self._mark = now

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status}  {c.name}: measured={c.measured:.6g} "
                         f"bound={c.bound:.6g} tol={c.tolerance:.2g} "
                         f"time={c.seconds:.4f}s")
        n_fail = sum(not c.passed for c in self.checks)
        lines.append(f"{len(self.checks) - n_fail}/{len(self.checks)} "
                     "checks passed")
        return "\n".join(lines)


def verify_all(seed: int = 1, n_curves: int = 50, n: int = 512) -> VerificationReport:
    """Run every cross-module inequality suite on seeded random curves.
    seed, n_curves and n must be integers."""
    geo.require_integer("n_curves", n_curves, 1, ParameterDomainError)
    report = VerificationReport()
    # circle minimality of the chord/arc energies: one chord-table walk
    # per curve, the planar ones and then the space ones, for all four,
    # the distortion and the per-offset minima and chord sums that the
    # distortion and deficit checks read; each walk is folded into the
    # running minima, and only the first 20 planar curves and their
    # walks, all that the later checks read, are kept, so memory does
    # not grow with n_curves
    params_seq = [fn.EnergyParams(j, p)
                  for (j, p) in [(2, 1), (1, 1), (1, 2), (2, 1.5)]]
    worst_energies = np.full(len(params_seq), np.inf)
    worst_distortion = np.inf
    curves, walks = [], []
    for dim, first, count in ((2, seed, n_curves),
                              (3, seed + 1000, max(1, n_curves // 10))):
        for i in range(count):
            curve = geo.random_closed_curve(first + i, n=n, dim=dim)
            walk = fn._energy_walk(curve, params_seq)
            np.minimum(worst_energies, walk.energies, out=worst_energies)
            if dim == 2:
                worst_distortion = min(worst_distortion, walk.distortion)
                if i < 20:
                    curves.append(curve)
                    walks.append(walk)
    del curve, walk
    for params, worst in zip(params_seq, worst_energies):
        bound = fn.circle_bound(params)
        report.add(f"energy({params.j},{params.p}) >= circle bound",
                   worst >= 0.95 * bound, worst, bound, 0.05 * bound)

    # chord-average inequality for concave increasing test functions.
    # An inscribed polygon's chords overshoot the smooth chord function
    # by O(1/n^2), so the continuum bounds below get a matching slack.
    disc_tol = 10.0 / n**2
    concave = (np.sqrt, np.log, lambda x: x ** 0.4)
    ks = np.arange(1, n, max(1, n // 64))
    lam2 = geo.lambda_chord(geo.offset_arcs(n, ks)) ** 2
    worst_gap = -np.inf
    for c in curves[: min(10, n_curves)]:
        # one walk of the sampled offsets for all three functions
        for f, means in zip(concave, fn.chord_average(c, ks, concave)):
            gaps = means - f(lam2)
            worst_gap = max(worst_gap, float(gaps.max()))
    report.add("chord average <= f(lambda^2)", worst_gap <= disc_tol,
               worst_gap, 0.0, disc_tol)

    # distortion lower bounds
    report.add("distortion >= pi/2", worst_distortion >= np.pi / 2 - 1e-9,
               worst_distortion, np.pi / 2, 1e-9)
    ks = np.arange(1, n // 2 + 1, max(1, n // 128))
    s = geo.offset_arcs(n, ks)
    bound_at = s / geo.lambda_chord(s)
    worst_at = np.inf
    for walk in walks[: min(10, n_curves)]:
        # fn.distortion_at(c, ks) bit for bit: every ks is <= n/2
        ratios = fn._distortion_ratios(s, walk.min_d2[ks - 1], ks)
        worst_at = min(worst_at, float((ratios - bound_at).min()))
    report.add("distortion_at >= s/lambda(s)", worst_at >= -disc_tol,
               worst_at, 0.0, disc_tol)

    # Wirtinger deficit: series nonnegativity and oracle agreement
    worst_rho = np.inf
    worst_agree = 0.0
    for c, walk in zip(curves, walks):
        fc = spec.analyze(c)
        prof = spec.deficit(fc)
        worst_rho = min(worst_rho, prof.rho.min())
        # spec.deficit_direct(c, np.arange(1, n)) bit for bit
        direct = spec._mirrored_deficit(c, np.arange(1, n), walk.chord_sums)
        scale = max(1.0, 4.0 * fc.derivative_energy())
        worst_agree = max(worst_agree,
                          float(np.abs(direct - prof.rho).max()) / scale)
    report.add("deficit series >= 0", worst_rho >= -1e-8, worst_rho, 0.0, 1e-8)
    # aliasing between DFT and continuum coefficients is O(1/n^2)
    agree_tol = max(1e-4, disc_tol)
    report.add("deficit series vs direct", worst_agree <= agree_tol,
               worst_agree, 0.0, agree_tol)

    # pointwise lemmas
    rng = np.random.default_rng(seed)
    ks = rng.integers(2, 51, size=10000)
    thetas = rng.uniform(-10, 10, size=10000)
    viol = np.subtract(*spec.trig_lemma_check(ks, thetas))
    report.add("sin^2(k theta) <= k^2 sin^2(theta)", viol.max() <= 1e-9,
               float(viol.max()), 0.0, 1e-9)
    del ks, thetas, viol
    worst_tetra = np.inf
    for dim in (2, 3):
        pts = rng.normal(size=(2000, 4, dim))
        _, _, gaps = spec.tetra_check(*pts.transpose(1, 0, 2))
        worst_tetra = min(worst_tetra, float(gaps.min()))
    del pts, gaps
    report.add("tetrahedron inequality gap >= 0", worst_tetra >= -1e-12,
               worst_tetra, 0.0, 1e-12)

    # power-mean monotonicity of the chord means, from one walk of the
    # first curve's chord table for all five exponents
    c = curves[0]
    vals = fn.avg_chord_p(c, (0.5, 1, 2, 3, 4))
    mono = all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    report.add("A_p monotone in p", mono, float(min(np.diff(vals))), 0.0, 1e-12)
    return report


def _svg_path(points, closed: bool) -> str:
    """The stroked path through the pixel points, closed or open."""
    d = "M " + " L ".join(f"{x:.2f} {y:.2f}" for x, y in points) \
        + (" Z" if closed else "")
    return f'<path d="{d}" fill="none" stroke="black" stroke-width="1.5"/>'


def _write_svg(path, elements) -> None:
    """Write an SVG document of the given elements to path."""
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
             f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
             *elements, "</svg>"]
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def emit_svg(curves, labels, path) -> None:
    """Write planar curves into one SVG document with a shared scale,
    one label per curve."""
    curves = list(curves)
    labels = list(labels)
    if len(labels) != len(curves):
        raise ParameterDomainError(
            f"need one label per curve, got {len(labels)} for "
            f"{len(curves)} curves")
    elements = []
    if curves:
        allpts = np.vstack([c.vertices for c in curves])
        lo = allpts.min(axis=0)
        hi = allpts.max(axis=0)
        span = max(float((hi - lo).max()), 1e-12)
        margin = 0.08 * SVG_SIZE

        def to_px(pts):
            scaled = (pts - (lo + hi) / 2) / span * (SVG_SIZE - 2 * margin)
            x = scaled[:, 0] + SVG_SIZE / 2
            y = SVG_SIZE / 2 - scaled[:, 1]
            return np.column_stack([x, y])

        for curve, label in zip(curves, labels):
            px = to_px(curve.vertices)
            elements.append(_svg_path(px, closed=True))
            lx, ly = px[0]
            elements.append(f'<text x="{lx + 4:.2f}" y="{ly - 4:.2f}" '
                            f'font-size="14">{label}</text>')
    _write_svg(path, elements)


def _polyline_svg(xs, ys, path, xlabel, ylabel) -> None:
    """Minimal scatter/line plot as SVG (axes, ticks omitted on purpose)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = np.isfinite(xs) & np.isfinite(ys)
    xs, ys = xs[keep], ys[keep]
    margin = 80
    elements = []
    if len(xs) >= 2:
        def scale(v, lo, hi, a, b):
            if hi - lo < 1e-300:
                return np.full_like(v, (a + b) / 2)
            return a + (v - lo) / (hi - lo) * (b - a)
        px = scale(xs, xs.min(), xs.max(), margin, SVG_SIZE - margin)
        py = scale(ys, ys.min(), ys.max(), SVG_SIZE - margin, margin)
        elements.append(_svg_path(zip(px, py), closed=False))
        for x, y in zip(px, py):
            elements.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3"/>')
        elements.append(f'<text x="{SVG_SIZE // 2}" y="{SVG_SIZE - 20}" '
                        f'font-size="16">{xlabel}</text>')
        elements.append(f'<text x="20" y="{SVG_SIZE // 2}" font-size="16" '
                        f'transform="rotate(-90 20 {SVG_SIZE // 2})">'
                        f'{ylabel}</text>')
    _write_svg(path, elements)


#: sweep CSV header of format FORMAT_VERSION, the only one read
SWEEP_COLUMNS = ["p", "value", "r", "efit_log10", "eccentricity",
                 "converged", "iterations", "reason", "seconds"]


def write_sweep_csv(records, path) -> None:
    """Write the sweep records as CSV in format FORMAT_VERSION."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for rec in records:
            writer.writerow([
                FLOAT_FMT % rec.p, FLOAT_FMT % rec.value, FLOAT_FMT % rec.r,
                FLOAT_FMT % rec.efit_log10, FLOAT_FMT % rec.eccentricity,
                int(rec.converged), rec.iterations, rec.reason,
                FLOAT_FMT % rec.seconds])


def read_sweep_csv(path) -> list[shp.SweepRecord]:
    """Read a sweep CSV of format FORMAT_VERSION; any other header,
    earlier formats' included, raises ParameterDomainError."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != SWEEP_COLUMNS:
            raise ParameterDomainError(f"bad CSV header {reader.fieldnames}")
        for row in reader:
            out.append(shp.SweepRecord(
                p=float(row["p"]), value=float(row["value"]),
                r=float(row["r"]), efit_log10=float(row["efit_log10"]),
                eccentricity=float(row["eccentricity"]),
                converged=bool(int(row["converged"])),
                iterations=int(row["iterations"]), reason=row["reason"],
                seconds=float(row["seconds"])))
    return out


def reproduce_figures(outdir, config: ExperimentConfig | None = None) -> dict:
    """Run the sweep behind the figure set and write all outputs.

    Produces sweep.csv, one curve JSON per grid exponent, a gallery SVG
    of selected maximizers, and width-ratio / fit-error plots.  Agreement
    is qualitative (transition location and trends), not pixel parity.
    """
    config = config or ExperimentConfig(
        fine_grid=tuple(round(3.462 + 0.002 * i, 10) for i in range(12)))
    os.makedirs(outdir, exist_ok=True)
    grid = config.p_grid()
    records = opt.sweep(grid, config.options)
    curves = {rec.p: rec.curve for rec in records if rec.curve is not None}
    for p, curve in curves.items():
        geo.save_curve(curve, os.path.join(outdir, f"curve_p{p:.3f}.json"))
    csv_path = os.path.join(outdir, "sweep.csv")
    write_sweep_csv(records, csv_path)
    with open(os.path.join(outdir, "config.json"), "w") as fh:
        fh.write(config.to_json())

    gallery = [p for p in grid if p in curves]
    gallery = gallery[:: max(1, len(gallery) // 8)]
    gallery_path = os.path.join(outdir, "gallery.svg")
    emit_svg([curves[p] for p in gallery],
             [f"p={p:g}" for p in gallery], gallery_path)
    width_path = os.path.join(outdir, "width_ratio.svg")
    _polyline_svg([r.p for r in records], [r.r for r in records],
                  width_path, "p", "width ratio r(p)")
    efit_path = os.path.join(outdir, "fit_error.svg")
    _polyline_svg([r.p for r in records], [r.efit_log10 for r in records],
                  efit_path, "p", "log10 ellipse-fit error")
    return {"sweep_csv": csv_path, "gallery": gallery_path,
            "width_ratio": width_path, "fit_error": efit_path,
            "records": records}
