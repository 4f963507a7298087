"""Correctness checks for benchmark operations.

Every check returns a list of problems; an empty list means the operation
is correct. The references are computed here with numpy (and scipy for the
F tail) from the reported parameters and the generated inputs, never by
calling back into the package.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: |fitted t_s - generating t_s| allowed, in years. Over 2000 seeds the
#: largest error on the 31-point inputs was 3.8 years (sd about 1 year).
T_S_TOLERANCE = 10.0
#: Relative agreement required between a curve row and its reference.
CURVE_RTOL = 1e-10
#: CSV abscissas carry 12 significant digits, so a grid year may be off by
#: up to 5e-12 relative. For CSV curves each row's tolerance is widened by
#: how far the reference moves under that abscissa error; near a singularity
#: that is large, because two correct evaluations at a rounded year differ.
ABSCISSA_ROUNDING = 5e-12


@dataclass(frozen=True)
class Line:
    """A reported reciprocal line a - k*t."""

    a: float
    k: float

    @classmethod
    def of(cls, entry: dict) -> "Line":
        return cls(float(entry["a"]), float(entry["k"]))

    def at(self, t):
        return self.a - self.k * t


@dataclass
class CliExpectation:
    """What a CLI operation's artifacts must satisfy.

    ``truth`` maps a CSV stem (``gdp``, ``population``) to its generating
    singularity time; ``inputs`` maps it to the generated CSV path.
    """

    truth: dict[str, float]
    inputs: dict[str, Path]
    levels: tuple[float, ...] = ()
    _columns: dict = field(default_factory=dict, repr=False)

    def input_columns(self, stem: str) -> tuple[np.ndarray, np.ndarray]:
        if stem not in self._columns:
            data = np.loadtxt(self.inputs[stem], delimiter=",", skiprows=1, ndmin=2)
            self._columns[stem] = (data[:, 0], data[:, 1])
        return self._columns[stem]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_table(path: Path, header: list[str]) -> dict[str, np.ndarray]:
    """Columns of a CSV or JSON curve artifact, checked against ``header``."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        if sorted(payload) != sorted(header):
            raise ValueError(f"{path.name}: keys {sorted(payload)} != {sorted(header)}")
        return {key: np.asarray(payload[key], dtype=float) for key in header}
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n").split(",")
        if first != header:
            raise ValueError(f"{path.name}: header {first} != {header}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path.name}: {data.shape[1]} columns, expected {len(header)}")
    return {key: data[:, i] for i, key in enumerate(header)}


def _compare_curve(name: str, x, values, reference, exact_abscissa: bool) -> list[str]:
    """Compare every row of a curve with its reference.

    ``exact_abscissa`` holds for JSON artifacts, data years and ratio
    levels; CSV grid years are rounded, see ABSCISSA_ROUNDING.
    """
    ref = reference(x)
    tol = CURVE_RTOL * np.abs(ref)
    if not exact_abscissa:
        for shifted in (x * (1.0 + ABSCISSA_ROUNDING), x * (1.0 - ABSCISSA_ROUNDING)):
            tol = tol + np.abs(reference(shifted) - ref)
    bad = np.flatnonzero(~(np.abs(values - ref) <= tol))
    if bad.size:
        row = int(bad[0])
        return [
            f"{name}: {bad.size} rows differ from the reference, first at row {row} "
            f"(x={x[row]!r}, got {values[row]!r}, expected {ref[row]!r})"
        ]
    return []


def _check_fit_entry(label: str, entry: dict, stem: str, exp: CliExpectation) -> list[str]:
    t_s = float(entry["t_s"])
    truth = exp.truth[stem]
    if not abs(t_s - truth) <= T_S_TOLERANCE:
        return [f"{label}: fitted t_s {t_s!r} is more than {T_S_TOLERANCE} years from {truth}"]
    if not math.isclose(t_s, entry["a"] / entry["k"], rel_tol=1e-12):
        return [f"{label}: t_s {t_s!r} != a/k"]
    return []


def _stem(path_arg: str) -> str:
    return Path(path_arg).stem


def check_report_content(report: dict, out_dir: Path, exp: CliExpectation) -> list[str]:
    """Full content check of one fit/ratio/diagnose report and its artifacts."""
    config = report["config"]
    command = report["command"]
    artifacts = report["artifacts"]
    n_grid = int(config["grid_points"])
    problems: list[str] = []

    json_curves = config["format"] == "json"

    def table(key, header):
        cols = read_table(out_dir / artifacts[key], header)
        n = len(cols[header[0]])
        return cols, n

    if command == "fit":
        stem = _stem(config["input"])
        problems += _check_fit_entry("fit", report["fit"], stem, exp)
        line = Line.of(report["fit"])
        cols, n = table("fitted_curve", ["year", "value"])
        if n != n_grid:
            problems.append(f"fitted_curve: {n} rows for {n_grid} grid points")
        problems += _compare_curve(
            "fitted_curve", cols["year"], cols["value"], lambda t: 1.0 / line.at(t), json_curves
        )
        return problems

    if command == "ratio":
        num_stem, den_stem = _stem(config["numerator"]), _stem(config["denominator"])
        fits = report["fits"]
        model = report["ratio"]
    else:
        num_stem, den_stem = _stem(config["gdp"]), _stem(config["pop"])
        fits = report["fits"]
        model = report["model"]
    problems += _check_fit_entry("numerator", fits["numerator"], num_stem, exp)
    problems += _check_fit_entry("denominator", fits["denominator"], den_stem, exp)
    f, g = Line.of(model["numerator"]), Line.of(model["denominator"])
    c = f.k * g.a - g.k * f.a
    escalating = exp.truth[num_stem] < exp.truth[den_stem]
    if model["shape"] != ("escalating" if escalating else "diminishing"):
        problems.append(f"ratio shape {model['shape']!r} contradicts the generating parameters")

    t_num, y_num = exp.input_columns(num_stem)
    t_den, y_den = exp.input_columns(den_stem)
    if not np.array_equal(t_num, t_den):
        problems.append("benchmark inputs do not share their years")
        return problems
    observed = y_num / y_den

    if command == "ratio":
        cols, n = table("ratio_curve", ["year", "value"])
        if n != n_grid:
            problems.append(f"ratio_curve: {n} rows for {n_grid} grid points")
        problems += _compare_curve(
            "ratio_curve", cols["year"], cols["value"], lambda t: g.at(t) / f.at(t), json_curves
        )
        header = ["year", "observed", "model", "residual"]
        cols, n = table("observed_vs_model", header)
        if n != len(t_num) or n != report["residuals"]["n_common_years"]:
            problems.append(f"observed_vs_model: {n} rows for {len(t_num)} common years")
            return problems
        problems += _compare_curve(
            "observed_vs_model", cols["year"], cols["model"], lambda t: g.at(t) / f.at(t), True
        )
        if not np.allclose(cols["observed"], observed, rtol=CURVE_RTOL, atol=0.0):
            problems.append("observed_vs_model: observed ratio differs from the inputs")
        resid = cols["observed"] - cols["model"]
        if np.any(np.abs(cols["residual"] - resid) > CURVE_RTOL * np.abs(cols["observed"])):
            problems.append("observed_vs_model: residual != observed - model")
        return problems

    # diagnose
    for key, column, reference in (
        ("gradient_curve", "gradient", lambda t: c / f.at(t) ** 2),
        ("growth_rate_curve", "growth_rate", lambda t: c / (f.at(t) * g.at(t))),
    ):
        cols, n = table(key, ["year", column])
        if n != n_grid:
            problems.append(f"{key}: {n} rows for {n_grid} grid points")
        problems += _compare_curve(key, cols["year"], cols[column], reference, json_curves)
    if exp.levels:
        # At ratio size L the numerator's line is C/(L k_f - k_g), so both
        # curves have closed forms in L alone.
        for key, column, reference in (
            ("gradient_vs_size", "gradient", lambda s: (s * f.k - g.k) ** 2 / c),
            ("growth_rate_vs_size", "growth_rate", lambda s: (s * f.k - g.k) ** 2 / (c * s)),
        ):
            cols, n = table(key, ["ratio_size", column])
            if n != len(exp.levels):
                problems.append(f"{key}: {n} rows for {len(exp.levels)} levels")
            problems += _compare_curve(key, cols["ratio_size"], cols[column], reference, True)
    cols, n = table("observed_growth_rate", ["year", "growth_rate"])
    if n != len(t_num) - 2:
        problems.append(f"observed_growth_rate: {n} rows for {len(t_num)} observations")
    else:
        rate = np.log(observed[2:] / observed[:-2]) / (t_num[2:] - t_num[:-2])
        if not np.allclose(cols["growth_rate"], rate, rtol=CURVE_RTOL, atol=0.0):
            problems.append("observed_growth_rate differs from the inputs' log-differences")

    want = "monotone_increasing" if c > 0 else "monotone_decreasing"
    for label, entry in report["monotonicity"].items():
        if entry["verdict"] != want or entry["first_violation"] is not None:
            problems.append(f"monotonicity[{label}] is {entry}, expected {want}")
    for target, entries in report["break_tests"].items():
        for entry in entries:
            result = entry["result"]
            if result is None:
                problems.append(f"break test {target}@{entry['candidate_year']}: {entry['error']}")
                continue
            p = result["p_value"]
            if not 0.0 <= p <= 1.0 or (p < result["alpha"]) != (
                result["decision"] == "break_detected"
            ):
                problems.append(f"break test {target}@{entry['candidate_year']}: {result}")
    return problems


@dataclass
class ChildResult:
    code: int
    stdout: bytes
    stderr: bytes
    seconds: float
    maxrss_kb: int


def check_cli_op(
    kind: str,
    result: ChildResult,
    out_dir: Path,
    exp: CliExpectation,
    first_digests: dict[str, dict[str, str]],
) -> list[str]:
    """Check one CLI operation.

    The first operation of each kind gets the full content check and fixes
    the reference digests; every later one must reproduce them byte for
    byte (the README's reproducibility promise).
    """
    if result.code != 0:
        tail = (result.stdout[-400:] + result.stderr[-400:]).decode(errors="replace")
        return [f"exit code {result.code}: {tail}"]
    try:
        report = json.loads(result.stdout)
        command = report["command"]
        names = [f"{command}_report.json", *report["artifacts"].values()]
        if (out_dir / names[0]).read_bytes() != result.stdout:
            return ["stdout differs from the written report"]
        digests = {name: sha256(out_dir / name) for name in names}
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return [f"unreadable report or artifact: {exc!r}"]
    reference = first_digests.get(kind)
    if reference is not None:
        if digests != reference:
            changed = sorted(n for n in digests if digests[n] != reference.get(n))
            return [f"artifacts differ from the first run of {kind}: {changed}"]
        return []
    try:
        problems = check_report_content(report, out_dir, exp)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        problems = [f"content check failed: {exc!r}"]
    if not problems:
        first_digests[kind] = digests
    return problems


# ---------------------------------------------------------------------------
# Monte Carlo replicates
# ---------------------------------------------------------------------------


def reference_series(line: Line, years, sigma: float, seed: int) -> np.ndarray:
    """The noisy series a replicate should have drawn, rebuilt with numpy."""
    rng = np.random.default_rng(seed)
    return (1.0 / line.at(years)) * np.exp(rng.normal(0.0, sigma, size=years.shape))


def _lstsq_sse(t, z) -> float:
    design = np.column_stack([np.ones_like(t), t])
    coef = np.linalg.lstsq(design, z, rcond=None)[0]
    r = z - design @ coef
    return float(r @ r)


def check_replicate(record: dict, years, sigma: float) -> list[str]:
    """Check a replicate's inputs, fits and break tests independently.

    ``record`` holds what the replicate produced. The F tail comes from
    ``scipy.special.fdtrc``, which is what ``scipy.stats.f.sf`` evaluates;
    importing it alone takes a fraction of the time of ``scipy.stats``.
    """
    from scipy.special import fdtrc

    problems: list[str] = []
    series = {}
    for role in ("numerator", "denominator"):
        expected = reference_series(record[f"{role}_line"], years, sigma, record[f"{role}_seed"])
        got = record[f"{role}_values"]
        if not np.allclose(got, expected, rtol=1e-12, atol=0.0):
            problems.append(f"{role} input differs from the seeded draw")
        series[role] = expected
    for weighting, fits in record["fits"].items():
        for role, (a, k) in fits.items():
            y = series[role]
            w = y if weighting == "size_squared" else None  # polyfit weights residuals
            slope, intercept = np.polyfit(years, 1.0 / y, 1, w=w)
            if not (
                math.isclose(a, intercept, rel_tol=1e-9) and math.isclose(k, -slope, rel_tol=1e-9)
            ):
                problems.append(
                    f"{weighting} {role} fit (a={a!r}, k={k!r}) != polyfit "
                    f"(a={intercept!r}, k={-slope!r})"
                )

    z = 1.0 / series["numerator"]
    n = len(years)
    sse_single = _lstsq_sse(years, z)
    for year, f_stat, p_value, decision in record["scan"]:
        before = years < year
        sse_split = _lstsq_sse(years[before], z[before]) + _lstsq_sse(years[~before], z[~before])
        f_ref = (sse_single - sse_split) / 2.0 / (sse_split / (n - 4))
        p_ref = float(fdtrc(2, n - 4, f_ref))
        if abs(f_stat - f_ref) > 1e-7 * max(1.0, abs(f_ref)):
            problems.append(f"F at {year}: {f_stat!r} != lstsq {f_ref!r}")
        if abs(p_value - p_ref) > 1e-9:
            problems.append(f"p at {year}: {p_value!r} != scipy {p_ref!r}")
        if decision != ("break_detected" if p_value < 0.05 else "no_break"):
            problems.append(f"decision at {year} contradicts p={p_value!r}")
    return problems
