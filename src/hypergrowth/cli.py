"""Command-line front end emitting plot-ready CSV curves and JSON reports.

Subcommands: ``fit`` (hyperbolic fit of one series), ``ratio`` (paired
numerator/denominator fit and ratio model), ``diagnose`` (gradient and
growth-rate curves, monotonicity verdicts, structural-break scan),
``synth`` (synthetic series generation), ``downsample`` (year subsetting).

Every run is reproducible: identical inputs, flags, and seed produce
byte-identical outputs, and each JSON report embeds the fully resolved
configuration under ``config``. Exit codes: 0 success, 1 usage error,
2 data/validation error, 3 numeric-domain error.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from .core import HyperbolicParams, last_guarded_time
from .diagnostics import (
    DEFAULT_BREAK_CANDIDATES,
    INDUSTRIAL_REVOLUTION_WINDOW,
    DiagnosticsCurve,
    curves_vs_size,
    gradient_curve,
    growth_rate_curve,
    monotonicity_check,
    series_growth_rate,
    takeoff_scan,
    _model_curve,
)
from .errors import DataError, DomainError, ValidationError
from .fitting import WEIGHTINGS, HyperbolicFit, fit_hyperbolic, fit_ratio, predict
from .ingest import json_table, parse_csv, synthesize, write_columns, write_csv
from .ratio import RatioModel, classify_shape, eval_ratio, make_ratio
from .series import TimeSeries, _exact

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DOMAIN = 3

DEFAULT_GRID_POINTS = 512
# A grid size numpy accepts: it refuses arange and linspace of 2**60 - 64
# points or more with "array is too big", not MemoryError.
MAX_GRID_POINTS = np.iinfo(np.intp).max // 16

#: The series commands and the file each writes in --out-dir when --out is not given.
SERIES_FILES = {"synth": "synthetic.csv", "downsample": "downsampled.csv"}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 on usage errors and reads ``-1e3`` and ``-inf`` as numbers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Python 3.13's rule, on any version, plus -inf and -nan: a type then refuses them by name
        self._negative_number_matcher = re.compile(r"-\.?\d|-(?:inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def _resolve_grid(args, series, *models: HyperbolicParams) -> np.ndarray:
    """The curve grid: by default from the earliest first year of the fitted ``series``
    (0.0 when there are none) to inside the guard of the earliest singularity of ``models``."""
    default_start = min((float(s.years[0]) for s in series), default=0.0)
    start = args.grid_from if args.grid_from is not None else default_start
    end = args.grid_to if args.grid_to is not None else min(map(last_guarded_time, models))
    if not math.isfinite(end - start):
        raise ValidationError(f"grid span from {_exact(start)} to {_exact(end)} overflows float64")
    grid = np.linspace(start, end, args.grid_points)
    if not (grid[1:] > grid[:-1]).all():  # an empty span, or one too narrow for its points
        raise ValidationError(
            f"{grid.size} grid points from {_exact(start)} to {_exact(end)} do not increase")
    return grid


def _fit_summary(fit: HyperbolicFit) -> dict:
    line = fit.line
    return {
        "a": fit.params.a,
        "k": fit.params.k,
        "t_s": fit.t_s,
        "rmse_reciprocal": float(np.ldexp(np.sqrt(line.sse / line.sw), -fit.value_scale)),
        "r_squared_reciprocal": 1.0 - line.sse / line.sst,
        "n_points": len(line.residuals),
    }


def _model_summary(m: RatioModel) -> dict:
    return {
        "numerator": {"a": m.f.a, "k": m.f.k, "t_s": m.f.singularity_time},
        "denominator": {"a": m.g.a, "k": m.g.k, "t_s": m.g.singularity_time},
        "modulation_constant": m.modulation_constant,
        "shape": classify_shape(m).value,
        "domain_end": m.domain_end,
    }


def _write_table(out_dir: Path, stem: str, header: list[str], columns, fmt: str) -> str:
    """Write every artifact table, CSV or JSON, each column named once; returns the file name."""
    if len(header) != len(columns) or len(set(header)) < len(header):
        raise ValueError(f"header {header} does not name each of {len(columns)} columns once")
    name = f"{stem}.{fmt}"
    if fmt == "csv":
        write_columns(out_dir / name, header, columns)
    else:
        _write_json(out_dir / name, json_table(dict(zip(header, columns))))
    return name


def _curve_table(stem: str, curve: DiagnosticsCurve) -> tuple:
    """A curve's (stem, header, columns): its abscissa, then its values."""
    return stem, [curve.x_name, curve.quantity], [curve.x, curve.values]


def _write_json(path: Path, parts) -> None:
    with open(path, "wb") as fh:
        fh.writelines(parts)


def _print(text: str) -> None:
    """The CLI's one stdout writer: ``text`` and a newline to ``sys.stdout.buffer``, fs-encoded."""
    sys.stdout.flush()
    sys.stdout.buffer.write(os.fsencode(text) + b"\n")
    sys.stdout.buffer.flush()  # a closed pipe raises here, where main handles it


def _load_series(path: str, args) -> TimeSeries:
    series = parse_csv(path, year_col=args.year_col, value_col=args.value_col)
    if args.window:
        series = series.restrict(*args.window)
    return series


def _fit_pair(args, numerator_path: str, denominator_path: str):
    """Load and fit a numerator/denominator pair.

    Returns the ratio fit, both series and the report's ``fits`` section.
    """
    pair = [_load_series(numerator_path, args), _load_series(denominator_path, args)]
    rfit = fit_ratio(*pair, weighting=args.weighting)
    fits = {
        "numerator": _fit_summary(rfit.numerator_fit),
        "denominator": _fit_summary(rfit.denominator_fit),
    }
    return rfit, pair, fits


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_fit(args) -> tuple[dict, dict]:
    series = _load_series(args.input, args)
    fit = fit_hyperbolic(series, weighting=args.weighting)
    grid = _resolve_grid(args, [series], fit.params)
    curve = predict(fit, grid, name=f"{series.name} fitted")
    return {
        "series": {
            "name": series.name,
            "year_range": [float(series.years[0]), float(series.years[-1])],
        },
        "fit": _fit_summary(fit),
    }, {"fitted_curve": ("fitted_curve", ["year", "value"], [curve.years, curve.values])}


def cmd_ratio(args) -> tuple[dict, dict]:
    rfit, pair, fits = _fit_pair(args, args.numerator, args.denominator)
    model = rfit.model
    grid = _resolve_grid(args, pair, model.f, model.g)
    curve = _model_curve(model, "year", "value", grid, eval_ratio(model, grid))
    residuals = rfit.observed_ratio - rfit.predicted_ratio
    max_abs = np.max(np.abs(residuals))
    top = np.frexp(max_abs)[1]  # each r / 2**top is below 1 in size, so its square is finite
    sections = {
        "fits": fits,
        "ratio": _model_summary(model),
        "residuals": {
            "n_common_years": int(rfit.common_years.size),
            "rmse": float(np.ldexp(np.sqrt(np.mean(np.ldexp(residuals, -top) ** 2)), top)),
            "max_abs": float(max_abs),
        },
    }
    header = ["year", "observed", "model", "residual"]
    columns = [rfit.common_years, rfit.observed_ratio, rfit.predicted_ratio, residuals]
    return sections, {
        "observed_vs_model": ("ratio_observed_vs_model", header, columns),
        "ratio_curve": _curve_table("ratio_curve", curve),
    }


def cmd_diagnose(args) -> tuple[dict, dict]:
    model, rfit, pair, fits = args.model, None, [], {}
    if args.gdp is not None:
        rfit, pair, fits = _fit_pair(args, args.gdp, args.pop)
        model = rfit.model
    break_targets = pair + ([] if args.series is None else [_load_series(args.series, args)])

    grid = _resolve_grid(args, pair, model.f, model.g)
    grad = gradient_curve(model, grid)
    rate = growth_rate_curve(model, grid)
    curves = {"gradient_curve": grad, "growth_rate_curve": rate}
    monotonicity = {c.quantity: dataclasses.asdict(monotonicity_check(c)) for c in (grad, rate)}
    if args.levels:
        grad_vs, rate_vs = curves_vs_size(model, args.levels)
        curves.update(gradient_vs_size=grad_vs, growth_rate_vs_size=rate_vs)
    if rfit is not None:
        curves["observed_growth_rate"] = series_growth_rate(
            TimeSeries(years=rfit.common_years, values=rfit.observed_ratio, name="observed ratio")
        )

    break_tests = {
        target.name: [
            dataclasses.asdict(entry)
            for entry in takeoff_scan(target, args.candidates, alpha=args.alpha)
        ]
        for target in break_targets
    }
    sections = {
        "model": _model_summary(model),
        "fits": fits,
        "monotonicity": monotonicity,
        "break_tests": break_tests,
        "metadata": {"industrial_revolution_window": list(INDUSTRIAL_REVOLUTION_WINDOW)},
    }
    return sections, {stem: _curve_table(stem, curve) for stem, curve in curves.items()}


def cmd_synth(args) -> TimeSeries:
    n = np.floor((args.stop - args.start) / args.step + 1e-9) + 1
    if not n <= MAX_GRID_POINTS:
        raise ValidationError(f"grid of {n:g} points exceeds {MAX_GRID_POINTS:g}")
    grid = args.start + args.step * np.arange(int(n))
    return synthesize(args.model, grid, noise_sigma=args.noise, seed=args.seed)


def cmd_downsample(args) -> TimeSeries:
    series = _load_series(args.input, args)
    missing = sorted(set(args.years) - set(series.years.tolist()))
    if missing:
        raise ValidationError(
            f"requested years not present in {series.name!r}: {', '.join(map(_exact, missing))}"
        )
    mask = np.isin(series.years, args.years)
    return TimeSeries(years=series.years[mask], values=series.values[mask], name=series.name)


# ---------------------------------------------------------------------------
# Parser construction and entry point
# ---------------------------------------------------------------------------


def _checked(convert, ok, rule: str):
    """An argparse ``type``: ``convert`` the text, then reject values not ``ok``."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_GRID_POINTS = _checked(int, lambda n: 2 <= n <= MAX_GRID_POINTS, f"in [2, {MAX_GRID_POINTS:g}]")
_ALPHA = _checked(float, lambda a: 0 < a < 1, "in (0, 1)")
_FINITE = _checked(float, math.isfinite, "finite")
_POSITIVE = _checked(float, lambda v: 0 < v < math.inf, "positive and finite")
_NON_NEGATIVE = _checked(float, lambda v: 0 <= v < math.inf, "non-negative and finite")
_SEED = _checked(int, lambda n: n >= 0, "non-negative")


def _column(text: str) -> str:
    """An argparse ``type`` for column names, which go into UTF-8 CSV headers that parse_csv
    reads back: it drops a leading BOM and strips each cell, and a CR in a header ends its line."""
    try:  # argv bytes that are not UTF-8 arrive as lone surrogates
        if text.encode("utf-8").decode("utf-8-sig").strip() == text and "\r" not in text:
            return text
    except UnicodeEncodeError:
        pass
    raise argparse.ArgumentTypeError(
        f"must be UTF-8 text without surrounding whitespace, a leading BOM or a CR, "
        f"got {ascii(text)}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", default=".", help="directory for emitted artifacts")
    p.add_argument("--year-col", type=_column, default="year", help="CSV year column name")
    p.add_argument("--value-col", type=_column, default="value", help="CSV value column name")


def _add_analysis(p: argparse.ArgumentParser) -> None:
    """The flags of the commands that fit or model and write curves: fit, ratio, diagnose."""
    _add_common(p)
    p.add_argument("--weighting", choices=WEIGHTINGS, default="unweighted")
    p.add_argument(
        "--window",
        nargs=2,
        type=_FINITE,
        metavar=("LO", "HI"),
        default=None,
        help="restrict the fit to years in [LO, HI]",
    )
    p.add_argument("--grid-from", type=_FINITE, default=None, help="curve grid start year")
    p.add_argument("--grid-to", type=_FINITE, default=None, help="curve grid end year")
    p.add_argument(
        "--grid-points", type=_GRID_POINTS, default=DEFAULT_GRID_POINTS, help="curve grid size"
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="curve artifact format")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hypergrowth",
        description="Fit hyperbolic growth trajectories, build ratio models, "
        "and test for growth-regime changes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit one series and emit the fitted curve")
    p.add_argument("input", help="input CSV file")
    _add_analysis(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("ratio", help="fit numerator/denominator series and their ratio")
    p.add_argument("numerator", help="numerator CSV (e.g. GDP)")
    p.add_argument("denominator", help="denominator CSV (e.g. population)")
    _add_analysis(p)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("diagnose", help="gradient/growth-rate curves and break tests")
    p.add_argument("--gdp", default=None, help="numerator CSV (fit mode)")
    p.add_argument("--pop", default=None, help="denominator CSV (fit mode)")
    p.add_argument("--f-a", type=_POSITIVE, default=None, help="numerator intercept")
    p.add_argument("--f-k", type=_POSITIVE, default=None, help="numerator slope")
    p.add_argument("--g-a", type=_POSITIVE, default=None, help="denominator intercept")
    p.add_argument("--g-k", type=_POSITIVE, default=None, help="denominator slope")
    p.add_argument("--series", default=None, help="extra CSV to scan for structural breaks")
    years = " ".join(map("{:g}".format, DEFAULT_BREAK_CANDIDATES))
    p.add_argument("--candidates", nargs="*", type=_FINITE, default=list(DEFAULT_BREAK_CANDIDATES),
                   help=f"candidate break years (default: {years}; pass no values to skip)")
    p.add_argument("--alpha", type=_ALPHA, default=0.05, help="break-test significance")
    p.add_argument(
        "--levels",
        nargs="+",
        type=_FINITE,
        default=None,
        help="ratio sizes for vs-size curves",
    )
    _add_analysis(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("synth", help="generate a synthetic hyperbolic series")
    p.add_argument("--a", type=_POSITIVE, required=True, help="reciprocal-line intercept")
    p.add_argument("--k", type=_POSITIVE, required=True, help="reciprocal-line slope")
    p.add_argument("--from", dest="start", type=_FINITE, required=True, help="first year")
    p.add_argument("--to", dest="stop", type=_FINITE, required=True, help="last year")
    p.add_argument("--step", type=_POSITIVE, default=1.0, help="year spacing")
    p.add_argument("--noise", type=_NON_NEGATIVE, default=0.0, help="multiplicative noise sigma")
    p.add_argument("--seed", type=_SEED, default=0, help="noise RNG seed")
    p.add_argument("--out", default=None, help="output CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_synth, window=None)

    p = sub.add_parser("downsample", help="subset a series to selected years")
    p.add_argument("input", help="input CSV file")
    p.add_argument("--years", nargs="+", type=_FINITE, required=True, help="years to keep")
    p.add_argument("--out", default=None, help="output CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_downsample, window=None)

    return parser


def _validate_args(parser: argparse.ArgumentParser, args) -> None:
    models = [("--a/--k", "a", "k")] if args.command == "synth" else []
    if args.command == "diagnose":
        given = [v is not None for v in (args.f_a, args.f_k, args.g_a, args.g_k)]
        if (args.gdp is None) != (args.pop is None):
            parser.error("--gdp and --pop must be given together")
        elif args.gdp is None and not all(given):
            parser.error("need --gdp/--pop or all of --f-a, --f-k, --g-a, --g-k")
        elif args.gdp is None:
            models = [("--f-a/--f-k", "f_a", "f_k"), ("--g-a/--g-k", "g_a", "g_k")]
        elif any(given):
            parser.error("give either --gdp/--pop or explicit --f-a/--f-k/--g-a/--g-k")
        stems = [Path(p).stem for p in (args.gdp, args.pop, args.series) if p is not None]
        if len(set(stems)) < len(stems):  # each stem keys one series' break_tests entry
            parser.error(f"--gdp, --pop and --series share a file stem: {', '.join(stems)}")
    if args.command == "synth" and args.stop < args.start:
        parser.error(f"--to {_exact(args.stop)} is before --from {_exact(args.start)}")
    if args.window and args.window[1] < args.window[0]:
        parser.error(f"--window HI {_exact(args.window[1])} is below LO {_exact(args.window[0])}")
    if args.year_col == args.value_col:
        parser.error(f"--year-col and --value-col are both {args.year_col!r}")
    built = []
    for flags, a, k in models:
        try:
            built.append(HyperbolicParams(getattr(args, a), getattr(args, k)))
            if len(built) == 2:  # the diagnose pair: its ratio model must be valid too
                flags = "--f-a/--f-k/--g-a/--g-k"
                built = [make_ratio(*built)]
        except ValueError as exc:
            parser.error(f"{flags}: {exc}")
    args.model = built[0] if built else None  # the model the flags give, for the command


def main(argv=None) -> int:
    """Run one subcommand in its ``--out-dir``; returns the exit code.

    Commands only compute; this is the one place that writes, so a failed
    command writes nothing: a series to ``--out``, or each table and then the
    report, in one envelope (``schema_version``, ``command``, and ``config``,
    every other resolved flag), to ``<command>_report.json`` and stdout. A
    data error or a grid too big to allocate (MemoryError) exits 2, a domain
    error 3, each with one error JSON. A closed stdout exits 2, files kept.
    """
    if argv is None:  # run as a program: collections and exit skip the import-time heap
        gc.freeze()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate_args(parser, args)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        code, result = EXIT_OK, args.func(args)
        if args.command in SERIES_FILES:
            text = str(Path(args.out) if args.out else out / SERIES_FILES[args.command])
            write_csv(result, text, year_col=args.year_col, value_col=args.value_col)
        else:
            sections, tables = result
            artifacts = {key: _write_table(out, *t, args.format) for key, t in tables.items()}
            config = {k: v for k, v in vars(args).items() if k not in ("command", "func", "model")}
            report = {"schema_version": SCHEMA_VERSION, "command": args.command,
                      "config": config, **sections, "artifacts": artifacts}
            text = json.dumps(report, indent=2, sort_keys=True)
            _write_json(out / f"{args.command}_report.json", (text.encode("ascii"), b"\n"))
    except (DataError, DomainError, OSError, MemoryError) as exc:
        code = EXIT_DOMAIN if isinstance(exc, DomainError) else EXIT_DATA
        kind = next(c for c in type(exc).__mro__ if c.__name__[0] != "_")  # not _ArrayMemoryError
        error = {"type": kind.__name__, "message": str(exc), "exit_code": code}
        text = json.dumps({"error": error}, indent=2, sort_keys=True)
    try:
        _print(text)
    except BrokenPipeError:  # stdout's reader is gone; the files written stay
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit flush
        return EXIT_DATA
    return code


if __name__ == "__main__":
    sys.exit(main())
