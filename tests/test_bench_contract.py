"""The benchmark's layer tracer must still find every call site it wraps.

``bench/tracing.py`` replaces module and class attributes of the package
by name. A refactor that drops or renames one of them would break the
traced benchmark runs, so this test installs the tracer on the real
package and checks that every wrap point was replaced and then restored,
and that a traced break-test scan still records each line fit and tail call.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from hypergrowth import TimeSeries

from conftest import F_PARAMS, SEED

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_resolves_and_is_restored():
    tracing = _load_tracing()
    modules = tracing.package_modules()
    points = [(owner, attr) for owner, attr, _, _ in tracing.wrap_points(modules)]
    originals = [getattr(owner, attr) for owner, attr in points]

    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        unwrapped = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for (owner, attr), original in zip(points, originals)
            if getattr(getattr(owner, attr), "__wrapped__", None) is not original
        ]
    finally:
        tracer.uninstall()

    assert not unwrapped, f"tracer did not replace: {unwrapped}"
    assert [getattr(owner, attr) for owner, attr in points] == originals


def test_tracer_sees_every_break_test_call():
    # The wrap of diagnostics._line_sse sees a line fit only when the segment sums look the
    # kernel up as a diagnostics global; a helper moved into fitting would hide its calls.
    tracing = _load_tracing()
    modules = tracing.package_modules()
    years = np.linspace(1500.0, 1950.0, 31)
    noise = np.exp(np.random.default_rng(SEED).normal(0.0, 0.005, years.size))
    series = TimeSeries(years, 1.0 / (F_PARAMS.a - F_PARAMS.k * years) * noise, "null")

    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        entries = modules["diagnostics"].takeoff_scan(series, [1750.0, 1870.0])
    finally:
        tracer.uninstall()

    assert all(entry.result is not None for entry in entries)
    spans = Counter(tracer.names[i] for i in tracer.name_id)
    assert spans["fitting.line_sse"] == 6
    assert spans["special.f_survival"] == 2
    assert tracer.counters["diagnostics.break_tests"] == 2
