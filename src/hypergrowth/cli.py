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
import json
import math
import os
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
)
from .errors import DataError, DomainError, ValidationError
from .fitting import WEIGHTINGS, HyperbolicFit, fit_hyperbolic, fit_ratio, predict
from .ingest import _CHUNK_ROWS, _format_json, parse_csv, synthesize, write_columns, write_csv
from .ratio import RatioModel, classify_shape, eval_ratio, make_ratio
from .series import TimeSeries

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DOMAIN = 3

DEFAULT_GRID_POINTS = 512
# The most float64 elements numpy allows in one array; it refuses larger
# grids with "Maximum allowed size exceeded".
MAX_GRID_POINTS = np.iinfo(np.intp).max // 8


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def _model_guard_time(m: RatioModel) -> float:
    return min(last_guarded_time(m.f), last_guarded_time(m.g))


def _resolve_grid(args, default_start: float, default_end: float) -> np.ndarray:
    start = args.grid_from if args.grid_from is not None else default_start
    end = args.grid_to if args.grid_to is not None else default_end
    if end <= start:
        raise ValidationError(f"empty grid: grid end {end:g} not after start {start:g}")
    return np.linspace(start, end, args.grid_points)


def _config_echo(args) -> dict:
    return {key: value for key, value in vars(args).items() if key != "func"}


def _fit_summary(fit: HyperbolicFit) -> dict:
    return {
        "a": fit.params.a,
        "k": fit.params.k,
        "t_s": fit.t_s,
        "rmse_reciprocal": fit.rmse_reciprocal,
        "r_squared_reciprocal": fit.r_squared_reciprocal,
        "n_points": fit.n_points,
        "weighting": fit.weighting,
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
    """Write parallel columns as CSV or JSON; returns the file name."""
    name = f"{stem}.{fmt}"
    if fmt == "csv":
        write_columns(out_dir / name, header, columns)
    else:
        _write_json(out_dir / name, _json_table(dict(zip(header, columns))))
    return name


def _write_curve(out_dir: Path, stem: str, curve: DiagnosticsCurve, fmt: str) -> str:
    x_name = "year" if curve.abscissa_kind == "time" else "ratio_size"
    return _write_table(out_dir, stem, [x_name, curve.quantity], [curve.x, curve.values], fmt)


def _json_table(table: dict):
    """``json.dumps(table, indent=2, sort_keys=True)`` plus a newline.

    Yields the text in pieces of at most _CHUNK_ROWS cells, so a writer holds one at a time.
    """
    if not table:
        yield "{}\n"
        return
    sep = "{\n"
    for key in sorted(table):
        yield f"{sep}  {json.dumps(key)}: "
        column = np.asarray(table[key], dtype=float)
        if column.size:
            yield "[\n    "
            for start in range(0, column.size, _CHUNK_ROWS):
                if start:
                    yield ",\n    "
                yield _format_json(column[start : start + _CHUNK_ROWS]).decode()
            yield "\n  ]"
        else:
            yield "[]"
        sep = ",\n"
    yield "\n}\n"


def _write_json(path: Path, parts) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(parts)


def _emit_report(out_dir: Path, name: str, report: dict) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    _write_json(out_dir / name, (text, "\n"))
    print(text)


def _echo_path(path: Path) -> None:
    """Print a path as its own bytes, which need not be text in stdout's encoding."""
    if not hasattr(sys.stdout, "buffer"):  # a text-only stream, such as io.StringIO
        print(path)
        return
    sys.stdout.flush()
    sys.stdout.buffer.write(os.fsencode(path) + b"\n")


def _emit_error(exc: Exception, exit_code: int) -> int:
    error = {"type": type(exc).__name__, "message": str(exc), "exit_code": exit_code}
    print(json.dumps({"error": error}, indent=2, sort_keys=True))
    return exit_code


def _load_series(path: str, args) -> TimeSeries:
    series = parse_csv(path, year_col=args.year_col, value_col=args.value_col)
    if getattr(args, "window", None):
        lo, hi = args.window
        series = series.restrict(lo, hi)
    return series


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    out = _out_dir(args)
    series = _load_series(args.input, args)
    fit = fit_hyperbolic(series, weighting=args.weighting)
    grid = _resolve_grid(args, float(series.years[0]), last_guarded_time(fit.params))
    curve = predict(fit, grid, name=f"{series.name} fitted")
    curve_file = _write_table(
        out, "fitted_curve", ["year", "value"], [curve.years, curve.values], args.format
    )
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "fit",
        "config": _config_echo(args),
        "series": {
            "name": series.name,
            "n_points": len(series),
            "year_range": [float(series.years[0]), float(series.years[-1])],
        },
        "fit": _fit_summary(fit),
        "artifacts": {"fitted_curve": curve_file},
    }
    _emit_report(out, "fit_report.json", report)
    return EXIT_OK


def cmd_ratio(args) -> int:
    out = _out_dir(args)
    numerator = _load_series(args.numerator, args)
    denominator = _load_series(args.denominator, args)
    rfit = fit_ratio(numerator, denominator, weighting=args.weighting)
    model = rfit.model

    observed_file = _write_table(
        out,
        "ratio_observed_vs_model",
        ["year", "observed", "model", "residual"],
        [rfit.common_years, rfit.observed_ratio, rfit.predicted_ratio, rfit.residuals],
        args.format,
    )
    start = min(float(numerator.years[0]), float(denominator.years[0]))
    grid = _resolve_grid(args, start, _model_guard_time(model))
    curve_file = _write_table(
        out, "ratio_curve", ["year", "value"], [grid, eval_ratio(model, grid)], args.format
    )

    residuals = rfit.residuals
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "ratio",
        "config": _config_echo(args),
        "fits": {
            "numerator": _fit_summary(rfit.numerator_fit),
            "denominator": _fit_summary(rfit.denominator_fit),
        },
        "ratio": _model_summary(model),
        "residuals": {
            "n_common_years": int(rfit.common_years.size),
            "rmse": float(np.sqrt(np.mean(residuals**2))) if residuals.size else None,
            "max_abs": float(np.max(np.abs(residuals))) if residuals.size else None,
        },
        "artifacts": {
            "observed_vs_model": observed_file,
            "ratio_curve": curve_file,
        },
    }
    _emit_report(out, "ratio_report.json", report)
    return EXIT_OK


def cmd_diagnose(args) -> int:
    out = _out_dir(args)
    data_mode = args.gdp is not None
    break_targets: list[TimeSeries] = []
    fits = {}

    if data_mode:
        numerator = _load_series(args.gdp, args)
        denominator = _load_series(args.pop, args)
        rfit = fit_ratio(numerator, denominator, weighting=args.weighting)
        model = rfit.model
        fits = {
            "numerator": _fit_summary(rfit.numerator_fit),
            "denominator": _fit_summary(rfit.denominator_fit),
        }
        default_start = min(float(numerator.years[0]), float(denominator.years[0]))
        break_targets = [numerator, denominator]
    else:
        model = make_ratio(
            HyperbolicParams(args.f_a, args.f_k), HyperbolicParams(args.g_a, args.g_k)
        )
        default_start = 0.0
    if args.series is not None:
        break_targets.append(_load_series(args.series, args))

    grid = _resolve_grid(args, default_start, _model_guard_time(model))
    grad = gradient_curve(model, grid)
    rate = growth_rate_curve(model, grid)
    artifacts = {
        "gradient_curve": _write_curve(out, "gradient_curve", grad, args.format),
        "growth_rate_curve": _write_curve(out, "growth_rate_curve", rate, args.format),
    }

    monotonicity = {}
    for label, curve in (("gradient", grad), ("growth_rate", rate)):
        check = monotonicity_check(curve)
        monotonicity[label] = {
            "verdict": check.verdict.value,
            "first_violation": check.first_violation,
        }

    if args.levels:
        grad_vs, rate_vs = curves_vs_size(model, args.levels)
        for stem, curve in (("gradient_vs_size", grad_vs), ("growth_rate_vs_size", rate_vs)):
            artifacts[stem] = _write_curve(out, stem, curve, args.format)

    if data_mode:
        observed = series_growth_rate(
            TimeSeries(
                years=rfit.common_years,
                values=rfit.observed_ratio,
                name="observed ratio",
            )
        )
        artifacts["observed_growth_rate"] = _write_curve(
            out, "observed_growth_rate", observed, args.format
        )

    candidates = (
        list(DEFAULT_BREAK_CANDIDATES) if args.candidates is None else args.candidates
    )
    break_tests = {
        target.name: [
            dataclasses.asdict(entry)
            for entry in takeoff_scan(target, candidates, alpha=args.alpha)
        ]
        for target in break_targets
    }

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "diagnose",
        "config": _config_echo(args),
        "model": _model_summary(model),
        "fits": fits,
        "monotonicity": monotonicity,
        "break_tests": break_tests,
        "metadata": {
            "industrial_revolution_window": list(INDUSTRIAL_REVOLUTION_WINDOW),
            "break_candidates": [float(c) for c in candidates],
            "alpha": args.alpha,
        },
        "artifacts": artifacts,
    }
    _emit_report(out, "diagnose_report.json", report)
    return EXIT_OK


def cmd_synth(args) -> int:
    out = _out_dir(args)
    params = HyperbolicParams(args.a, args.k)
    if args.step <= 0:
        raise ValidationError(f"step must be positive, got {args.step:g}")
    if args.stop < args.start:
        raise ValidationError(f"grid end {args.stop:g} before start {args.start:g}")
    n = np.floor((args.stop - args.start) / args.step + 1e-9) + 1
    if not n <= MAX_GRID_POINTS:
        raise ValidationError(f"grid of {n:g} points exceeds {MAX_GRID_POINTS:g}")
    grid = args.start + args.step * np.arange(int(n))
    series = synthesize(
        params, grid, noise_sigma=args.noise, seed=args.seed, name="synthetic"
    )
    dest = Path(args.out) if args.out else out / "synthetic.csv"
    write_csv(series, dest, year_col=args.year_col, value_col=args.value_col)
    _echo_path(dest)
    return EXIT_OK


def cmd_downsample(args) -> int:
    out = _out_dir(args)
    series = parse_csv(args.input, year_col=args.year_col, value_col=args.value_col)
    wanted = np.asarray(args.years, dtype=float)
    missing = sorted(set(wanted.tolist()) - set(series.years.tolist()))
    if missing:
        raise ValidationError(
            f"requested years not present in {series.name!r}: "
            + ", ".join(f"{y:g}" for y in missing)
        )
    mask = np.isin(series.years, wanted)
    subset = TimeSeries(years=series.years[mask], values=series.values[mask], name=series.name)
    dest = Path(args.out) if args.out else out / "downsampled.csv"
    write_csv(subset, dest, year_col=args.year_col, value_col=args.value_col)
    _echo_path(dest)
    return EXIT_OK


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
_SEED = _checked(int, lambda n: n >= 0, "non-negative")


def _column(text: str) -> str:
    """An argparse ``type`` for column names, which go into UTF-8 CSV headers."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:  # argv bytes that are not UTF-8 arrive as lone surrogates
        raise argparse.ArgumentTypeError(f"must be UTF-8 text, got {ascii(text)}") from None
    return text


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", default=".", help="directory for emitted artifacts")
    p.add_argument("--year-col", type=_column, default="year", help="CSV year column name")
    p.add_argument("--value-col", type=_column, default="value", help="CSV value column name")


def _add_grid(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-from", type=_FINITE, default=None, help="curve grid start year")
    p.add_argument("--grid-to", type=_FINITE, default=None, help="curve grid end year")
    p.add_argument(
        "--grid-points", type=_GRID_POINTS, default=DEFAULT_GRID_POINTS, help="curve grid size"
    )
    p.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="curve artifact format"
    )


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--weighting", choices=WEIGHTINGS, default="unweighted")
    p.add_argument(
        "--window",
        nargs=2,
        type=float,
        metavar=("LO", "HI"),
        default=None,
        help="restrict the fit to years in [LO, HI]",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hypergrowth",
        description="Fit hyperbolic growth trajectories, build ratio models, "
        "and test for growth-regime changes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit one series and emit the fitted curve")
    p.add_argument("input", help="input CSV file")
    _add_common(p)
    _add_fit_flags(p)
    _add_grid(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("ratio", help="fit numerator/denominator series and their ratio")
    p.add_argument("numerator", help="numerator CSV (e.g. GDP)")
    p.add_argument("denominator", help="denominator CSV (e.g. population)")
    _add_common(p)
    _add_fit_flags(p)
    _add_grid(p)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("diagnose", help="gradient/growth-rate curves and break tests")
    p.add_argument("--gdp", default=None, help="numerator CSV (fit mode)")
    p.add_argument("--pop", default=None, help="denominator CSV (fit mode)")
    p.add_argument("--f-a", type=_POSITIVE, default=None, help="numerator intercept")
    p.add_argument("--f-k", type=_POSITIVE, default=None, help="numerator slope")
    p.add_argument("--g-a", type=_POSITIVE, default=None, help="denominator intercept")
    p.add_argument("--g-k", type=_POSITIVE, default=None, help="denominator slope")
    p.add_argument(
        "--series", default=None, help="extra CSV to scan for structural breaks"
    )
    p.add_argument(
        "--candidates",
        nargs="*",
        type=float,
        default=None,
        help="candidate break years (default: 1750 1870; pass no values to skip)",
    )
    p.add_argument("--alpha", type=_ALPHA, default=0.05, help="break-test significance")
    p.add_argument(
        "--levels",
        nargs="+",
        type=_FINITE,
        default=None,
        help="ratio sizes for vs-size curves",
    )
    _add_common(p)
    _add_fit_flags(p)
    _add_grid(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("synth", help="generate a synthetic hyperbolic series")
    p.add_argument("--a", type=_POSITIVE, required=True, help="reciprocal-line intercept")
    p.add_argument("--k", type=_POSITIVE, required=True, help="reciprocal-line slope")
    p.add_argument("--from", dest="start", type=_FINITE, required=True, help="first year")
    p.add_argument("--to", dest="stop", type=_FINITE, required=True, help="last year")
    p.add_argument("--step", type=_FINITE, default=1.0, help="year spacing")
    p.add_argument("--noise", type=_FINITE, default=0.0, help="multiplicative noise sigma")
    p.add_argument("--seed", type=_SEED, default=0, help="noise RNG seed")
    p.add_argument("--out", default=None, help="output CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("downsample", help="subset a series to selected years")
    p.add_argument("input", help="input CSV file")
    p.add_argument(
        "--years", nargs="+", type=float, required=True, help="years to keep"
    )
    p.add_argument("--out", default=None, help="output CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_downsample)

    return parser


def _validate_diagnose_args(parser: argparse.ArgumentParser, args) -> None:
    if args.command != "diagnose":
        return
    data_mode = args.gdp is not None or args.pop is not None
    params_given = [args.f_a, args.f_k, args.g_a, args.g_k]
    if data_mode:
        if args.gdp is None or args.pop is None:
            parser.error("--gdp and --pop must be given together")
        if any(v is not None for v in params_given):
            parser.error("give either --gdp/--pop or explicit --f-a/--f-k/--g-a/--g-k")
    else:
        if any(v is None for v in params_given):
            parser.error("need --gdp/--pop or all of --f-a, --f-k, --g-a, --g-k")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate_diagnose_args(parser, args)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DataError as exc:
        return _emit_error(exc, EXIT_DATA)
    except OSError as exc:
        return _emit_error(exc, EXIT_DATA)
    except DomainError as exc:
        return _emit_error(exc, EXIT_DOMAIN)


if __name__ == "__main__":
    sys.exit(main())
