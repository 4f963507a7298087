"""Per-layer span tracing, installed from outside the package.

Each traced call is wrapped where its caller looks the name up: the
wrapper replaces the module attribute (or class attribute) that the caller
reads, so ``diagnostics.f_survival`` is what ``break_test`` calls and
``cli.parse_csv`` is what the CLI calls. The package source is untouched,
and ``Tracer.uninstall`` restores every original.

A span records its name, start, end, parent span and operation id. Spans
are kept in memory in flat arrays and written out when the run ends. A
span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.

Run as a script, this module is one traced CLI operation:

    python bench/tracing.py SPANS.json -- fit gdp.csv --out-dir out

runs ``hypergrowth.cli.main`` inside a ``cli.main`` span with every wrapper
installed, writes the spans to SPANS.json and exits with main's code.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time
from pathlib import Path

LAYERS = ("cli", "ingest", "series", "fitting", "ratio", "diagnostics", "special", "core")


def _size(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 1


def _count_parse(tracer, args, kwargs, result):
    tracer.add("ingest.parse_csv_calls", 1)
    tracer.add("ingest.rows_parsed", len(result))


def _count_points(tracer, args, kwargs, result):
    tracer.add("ratio.points_evaluated", _size(args[1] if len(args) > 1 else kwargs["t"]))


def _count_candidates(tracer, args, kwargs, result):
    tracer.add("diagnostics.candidates_attempted", len(result))


def _counter(name):
    def hook(tracer, args, kwargs, result):
        tracer.add(name, 1)

    return hook


def _count_table(tracer, args, kwargs, result):
    out_dir, _stem, _header, columns, fmt = args
    tracer.add("cli.rows_written", len(columns[0]) if len(columns) else 0)
    if fmt == "csv":  # the JSON path goes through _write_json, counted there
        tracer.add("cli.bytes_written", (Path(out_dir) / result).stat().st_size)


def _count_json(tracer, args, kwargs, result):
    tracer.add("cli.bytes_written", Path(args[0]).stat().st_size)


def wrap_points(hg):
    """(owner, attribute, span name, counter hook) for every traced call site."""
    cli, ingest, fitting = hg["cli"], hg["ingest"], hg["fitting"]
    ratio, diagnostics = hg["ratio"], hg["diagnostics"]
    core_calls = _counter("core.calls")
    constructs = _counter("series.constructs")
    fits = _counter("fitting.fit_hyperbolic_calls")
    return [
        # Call sites inside the CLI.
        (cli._Parser, "parse_args", "cli.parse_args", None),
        (cli, "_write_table", "cli.write_table", _count_table),
        (cli, "_write_json", "cli.write_json", _count_json),
        (cli, "parse_csv", "ingest.parse_csv", _count_parse),
        (cli, "TimeSeries", "series.TimeSeries", constructs),
        (cli, "HyperbolicParams", "core.HyperbolicParams", core_calls),
        (cli, "fit_hyperbolic", "fitting.fit_hyperbolic", fits),
        (cli, "fit_ratio", "fitting.fit_ratio", None),
        (cli, "predict", "fitting.predict", None),
        (cli, "make_ratio", "ratio.make_ratio", None),
        (cli, "eval_ratio", "ratio.eval_ratio", _count_points),
        (cli, "classify_shape", "ratio.classify_shape", None),
        (cli, "gradient_curve", "diagnostics.gradient_curve", None),
        (cli, "growth_rate_curve", "diagnostics.growth_rate_curve", None),
        (cli, "curves_vs_size", "diagnostics.curves_vs_size", None),
        (cli, "series_growth_rate", "diagnostics.series_growth_rate", None),
        (cli, "monotonicity_check", "diagnostics.monotonicity_check", None),
        (cli, "takeoff_scan", "diagnostics.takeoff_scan", _count_candidates),
        # Call sites inside the library; the benchmark's own in-process
        # operations also call through these module attributes.
        (ingest, "synthesize", "ingest.synthesize", None),
        (ingest, "TimeSeries", "series.TimeSeries", constructs),
        (ingest, "eval_hyperbolic", "core.eval_hyperbolic", core_calls),
        (fitting, "fit_ratio", "fitting.fit_ratio", None),
        (fitting, "fit_hyperbolic", "fitting.fit_hyperbolic", fits),
        (fitting, "TimeSeries", "series.TimeSeries", constructs),
        (fitting, "HyperbolicParams", "core.HyperbolicParams", core_calls),
        (fitting, "eval_hyperbolic", "core.eval_hyperbolic", core_calls),
        (fitting, "reciprocal_value", "core.reciprocal_value", core_calls),
        (fitting, "make_ratio", "ratio.make_ratio", None),
        (fitting, "eval_ratio", "ratio.eval_ratio", _count_points),
        (ratio, "classify_shape", "ratio.classify_shape", None),
        (ratio, "eval_hyperbolic", "core.eval_hyperbolic", core_calls),
        (ratio, "reciprocal_value", "core.reciprocal_value", core_calls),
        (diagnostics, "gradient_curve", "diagnostics.gradient_curve", None),
        (diagnostics, "growth_rate_curve", "diagnostics.growth_rate_curve", None),
        (diagnostics, "monotonicity_check", "diagnostics.monotonicity_check", None),
        (diagnostics, "takeoff_scan", "diagnostics.takeoff_scan", _count_candidates),
        (diagnostics, "break_test", "diagnostics.break_test", _counter("diagnostics.break_tests")),
        (diagnostics, "_line_sse", "fitting.line_sse", None),
        (diagnostics, "f_survival", "special.f_survival", _counter("special.f_survival_calls")),
        (diagnostics, "ratio_gradient", "ratio.ratio_gradient", _count_points),
        (diagnostics, "ratio_growth_rate", "ratio.ratio_growth_rate", _count_points),
        (diagnostics, "time_at_ratio", "ratio.time_at_ratio", None),
    ]


def package_modules() -> dict:
    """The modules whose attributes ``wrap_points`` replaces."""
    from hypergrowth import cli, diagnostics, fitting, ingest, ratio

    return {
        "cli": cli,
        "diagnostics": diagnostics,
        "fitting": fitting,
        "ingest": ingest,
        "ratio": ratio,
    }


class Tracer:
    """Span recorder; ``install`` wraps the package, ``uninstall`` restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters: dict[str, float] = {}
        self.op_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None):
        nid = self._intern(name)
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        # Classes are wrapped too; copying their __dict__ would be wrong.
        return functools.update_wrapper(traced, fn, updated=())

    def install(self, modules: dict) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hook in wrap_points(modules):
            # parse_args is inherited, so _Parser's own __dict__ may lack it.
            self._saved.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counters": self.counters,
        }

    def merge(self, data: dict, op_id: int) -> None:
        """Append the spans of a traced child process as operation ``op_id``."""
        offset = len(self.start)
        remap = [self._intern(name) for name in data["names"]]
        self.name_id.extend(remap[i] for i in data["name_id"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in data["parent"])
        self.op.extend(op_id for _ in data["op"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        for key, value in data["counters"].items():
            self.add(key, value)


# Metrics built from span times: (metric, "self" or "inclusive", span names).
SPAN_METRICS = (
    ("cli.main_s", "inclusive", ("cli.main",)),
    ("cli.parse_args_s", "inclusive", ("cli.parse_args",)),
    ("cli.write_s", "self", ("cli.write_table", "cli.write_json")),
    ("ingest.parse_csv_s", "self", ("ingest.parse_csv",)),
    ("ingest.synthesize_s", "self", ("ingest.synthesize",)),
    ("series.construct_s", "self", ("series.TimeSeries",)),
    ("fitting.fit_hyperbolic_s", "self", ("fitting.fit_hyperbolic",)),
    ("fitting.fit_ratio_s", "self", ("fitting.fit_ratio",)),
    ("fitting.predict_s", "self", ("fitting.predict",)),
    ("fitting.line_sse_s", "self", ("fitting.line_sse",)),
    (
        "ratio.eval_s",
        "self",
        ("ratio.eval_ratio", "ratio.ratio_gradient", "ratio.ratio_growth_rate"),
    ),
    (
        "diagnostics.curves_s",
        "self",
        (
            "diagnostics.gradient_curve",
            "diagnostics.growth_rate_curve",
            "diagnostics.curves_vs_size",
            "diagnostics.series_growth_rate",
        ),
    ),
    ("diagnostics.monotonicity_s", "self", ("diagnostics.monotonicity_check",)),
    ("diagnostics.takeoff_scan_s", "self", ("diagnostics.takeoff_scan",)),
    ("diagnostics.break_test_s", "self", ("diagnostics.break_test",)),
    ("special.f_survival_s", "self", ("special.f_survival",)),
)
COUNT_METRICS = (
    "cli.bytes_written",
    "cli.rows_written",
    "ingest.parse_csv_calls",
    "ingest.rows_parsed",
    "series.constructs",
    "fitting.fit_hyperbolic_calls",
    "ratio.points_evaluated",
    "diagnostics.break_tests",
    "diagnostics.candidates_attempted",
    "special.f_survival_calls",
    "core.calls",
)


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-operation means of every span and count metric, plus layer self times."""
    import numpy as np

    n_ops = max(n_ops, 1)
    names = np.asarray(tracer.names, dtype=object)
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    duration = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    has_parent = parent >= 0
    children = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    self_time = duration - children
    span_names = names[name_id] if len(name_id) else np.array([], dtype=object)

    def total(kind: str, wanted) -> float:
        mask = np.isin(span_names, list(wanted))
        return float((self_time if kind == "self" else duration)[mask].sum())

    out: dict[str, float] = {}
    for metric, kind, wanted in SPAN_METRICS:
        out[metric] = total(kind, wanted) / n_ops
    for layer in LAYERS:
        wanted = [n for n in tracer.names if n.split(".")[0] == layer]
        out[f"{layer}.self_s"] = total("self", wanted) / n_ops
    for metric in COUNT_METRICS:
        out[metric] = tracer.counters.get(metric, 0) / n_ops
    out["cli.write_mb_per_s"] = (
        out["cli.bytes_written"] / 1e6 / out["cli.write_s"] if out["cli.write_s"] > 0 else 0.0
    )
    parse_s = out["ingest.parse_csv_s"]
    out["ingest.parse_rows_per_s"] = out["ingest.rows_parsed"] / parse_s if parse_s > 0 else 0.0
    attempted = out["diagnostics.candidates_attempted"]
    out["diagnostics.candidates_tested_ratio"] = (
        out["diagnostics.break_tests"] / attempted if attempted > 0 else 0.0
    )
    out["trace.spans_per_op"] = len(duration) / n_ops
    return out


def save_spans(tracer: Tracer, path: Path) -> None:
    """Write all spans of a run as flat numpy arrays (``.npz``)."""
    import numpy as np

    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(
        path,
        names=np.asarray(tracer.names, dtype=str),
        name_id=np.frombuffer(tracer.name_id, dtype=np.int32),
        parent=np.frombuffer(tracer.parent, dtype=np.int32),
        op=np.frombuffer(tracer.op, dtype=np.int32),
        start=np.frombuffer(tracer.start),
        end=np.frombuffer(tracer.end),
    )


def _traced_cli(argv: list[str]) -> int:
    spans_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS.json -- CLI-ARGS...")
    modules = package_modules()
    tracer = Tracer()
    tracer.install(modules)
    try:
        code = tracer.wrap("cli.main", modules["cli"].main)(cli_argv)
    finally:
        tracer.uninstall()
        Path(spans_path).write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1:]))
