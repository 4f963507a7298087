"""Byte-for-byte golden tests of every CLI artifact, report and error.

Each case runs ``hypergrowth.cli.main`` in process inside a scratch
directory with relative paths only, so reports embed no absolute paths.
Every file the cases leave behind, plus each case's exit code and stdout,
must equal the files under ``tests/golden/``. To regenerate them from a
commit whose output is trusted:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergrowth import TimeSeries, write_csv
from hypergrowth.cli import _write_table, main

GOLDEN = Path(__file__).parent / "golden"

F = ["--a", "4.5", "--k", "2.2e-3"]
G = ["--a", "7.0", "--k", "3.35e-3"]
H = ["--a", "3.0", "--k", "1.6e-3"]
F_G_PARAMS = ["--f-a", "4.5", "--f-k", "2.2e-3", "--g-a", "7.0", "--g-k", "3.35e-3"]
GRID = ["--grid-points", "16"]

# (case name, argv). Later cases read the CSVs the synth cases write.
CLI_CASES = [
    ("synth_f", ["synth", *F, "--from", "0", "--to", "2000", "--step", "50",
                 "--noise", "0.01", "--seed", "3", "--out", "f.csv"]),
    ("synth_g", ["synth", *G, "--from", "0", "--to", "2000", "--step", "50",
                 "--noise", "0.01", "--seed", "4", "--out", "g.csv"]),
    ("synth_h", ["synth", *H, "--from", "0", "--to", "1800", "--step", "25",
                 "--noise", "0.02", "--seed", "5", "--out-dir", "synth_h"]),
    ("downsample", ["downsample", "f.csv", "--years", "0", "500", "1000", "1500",
                    "2000", "--out-dir", "downsample"]),
    ("fit", ["fit", "f.csv", "--out-dir", "fit", *GRID]),
    ("fit_json", ["fit", "f.csv", "--format", "json", "--window", "500", "2000",
                  "--weighting", "size_squared", "--out-dir", "fit_json", *GRID]),
    ("ratio", ["ratio", "f.csv", "g.csv", "--out-dir", "ratio", *GRID]),
    ("diagnose_data", ["diagnose", "--gdp", "f.csv", "--pop", "g.csv",
                       "--series", "synth_h/synthetic.csv", "--levels", "1.6", "2", "5",
                       "--candidates", "1000", "1750", "1870", "1990",
                       "--out-dir", "diagnose_data", *GRID]),
    ("diagnose_params", ["diagnose", *F_G_PARAMS, "--grid-from", "1000",
                         "--out-dir", "diagnose_params", *GRID]),
    ("error_parse", ["fit", "bad.csv", "--out-dir", "error_parse", *GRID]),
    ("error_level", ["diagnose", *F_G_PARAMS, "--levels", "1.0",
                     "--out-dir", "error_level", *GRID]),
    ("error_synth_domain", ["synth", *F, "--from", "0", "--to", "2100", "--step", "50",
                            "--out-dir", "error_synth_domain"]),
    ("error_ratio_domain", ["ratio", "f.csv", "g.csv", "--grid-to", "3000",
                            "--out-dir", "error_ratio_domain", *GRID]),
]

# Float edge values: subnormals, extremes of range, integers, negative zero.
EDGE_YEARS = [-1e300, -0.0, 1, 1000, 2000, 123456789012345, 1e300]
EDGE_VALUES = [5e-324, 2.2250738585072014e-308, 1e-300, 0.1, 1 / 3, 1e300, 1.7976931348623157e308]
EDGE_COLUMNS = [
    [-1e300, -0.0, 0.0, 1, 1000, 2000, 123456789012345, 1e300, 1.7976931348623157e308],
    [5e-324, -5e-324, 1e-300, 2.2250738585072014e-308, 0.1, 1 / 3, 2 / 3, 1e300, -1e-300],
    [float("inf"), float("-inf"), float("nan"), -0.0, -1, 7, 0.5, 1e16, 123456.7890123456],
]


def _tree(root: Path) -> dict[str, bytes]:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def run_cli_cases() -> dict[str, bytes]:
    """Run every CLI case in the current directory; return all outputs by name."""
    Path("bad.csv").write_text("year,value\n1,1\n2,oops\n", encoding="utf-8")
    outputs = {}
    for name, argv in CLI_CASES:
        stdout = io.TextIOWrapper(io.BytesIO())  # the CLI writes bytes to its buffer
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        outputs[f"{name}.stdout"] = f"exit {code}\n".encode() + stdout.buffer.getvalue()
    outputs.update(_tree(Path(".")))
    return outputs


def run_edge_cases() -> dict[str, bytes]:
    """Write the edge values through both CSV writers and the JSON table path."""
    out = Path("edge")
    out.mkdir()
    write_csv(TimeSeries(years=EDGE_YEARS, values=EDGE_VALUES), out / "series.csv")
    for fmt in ("csv", "json"):
        _write_table(out, "table", ["x", "y", "z"], EDGE_COLUMNS, fmt)
    return _tree(out)


def _first_difference(actual: bytes, expected: bytes) -> str:
    """The first line at which two differing outputs part, both sides quoted."""
    pairs = itertools.zip_longest(actual.splitlines(True), expected.splitlines(True), fillvalue=b"")
    number, got, want = next((i, g, w) for i, (g, w) in enumerate(pairs, start=1) if g != w)
    return f"line {number}: expected {want!r}, got {got!r}"


def _assert_matches(actual: dict[str, bytes], golden_dir: Path) -> None:
    expected = _tree(golden_dir)
    assert sorted(actual) == sorted(expected)
    differing = [
        f"{name}: {_first_difference(actual[name], expected[name])}"
        for name in expected
        if actual[name] != expected[name]
    ]
    assert not differing, f"outputs differ from {golden_dir}:\n" + "\n".join(differing)


def test_cli_outputs_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _assert_matches(run_cli_cases(), GOLDEN / "cli")


def test_edge_values_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _assert_matches(run_edge_cases(), GOLDEN / "edge")


# Reference writers: the per-cell code the bulk writers replaced.
def _oracle_csv(header, columns) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format(x, ".12g") for x in row] for row in zip(*columns))
    return buf.getvalue().encode("utf-8")


def _oracle_json(header, columns) -> bytes:
    payload = {key: [float(x) for x in col] for key, col in zip(header, columns)}
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, float("inf"), float("-inf"), float("nan"), 1e16,
               123456.7890123456]
FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS)
NAMES = st.text(st.characters(codec="utf-8") | st.sampled_from([",", '"', "é", "年"]), max_size=6)


@st.composite
def tables(draw):
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, 50))
    header = draw(st.lists(NAMES, min_size=n_cols, max_size=n_cols, unique=True))
    columns = [draw(st.lists(FLOATS, min_size=n_rows, max_size=n_rows)) for _ in header]
    return header, columns


@given(table=tables())
@settings(max_examples=200, deadline=None)
def test_bulk_writers_match_per_cell_oracle(table):
    header, columns = table
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch)
        for fmt, oracle in (("csv", _oracle_csv), ("json", _oracle_json)):
            name = _write_table(out, "table", header, columns, fmt)
            assert (out / name).read_bytes() == oracle(header, columns)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("header", [["x", "y", "z"], ["x", "x"]], ids=["count", "repeat"])
def test_header_names_each_column_once(tmp_path, fmt, header):
    with pytest.raises(ValueError, match="does not name each of 2 columns once"):
        _write_table(tmp_path, "table", header, [[1.0, 2.0], [3.0, 4.0]], fmt)
    assert list(tmp_path.iterdir()) == []


def _regenerate() -> None:
    for kind, run in (("cli", run_cli_cases), ("edge", run_edge_cases)):
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            try:
                outputs = run()
            finally:
                os.chdir(cwd)
        target = GOLDEN / kind
        shutil.rmtree(target, ignore_errors=True)
        for name, data in outputs.items():
            (target / name).parent.mkdir(parents=True, exist_ok=True)
            (target / name).write_bytes(data)
        print(f"wrote {len(outputs)} files under {target}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
