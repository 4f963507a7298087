"""The benchmark's layer tracer must still find every call site it wraps.

``bench/tracing.py`` replaces module and class attributes of the package
by name. A refactor that drops or renames one of them would break the
traced benchmark runs, so this test installs the tracer on the real
package and checks that every wrap point was replaced and then restored.
"""

import importlib.util
from pathlib import Path

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
