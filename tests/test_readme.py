"""The README's library tour and CLI block run as printed and give their commented results."""

import re
import shlex
from pathlib import Path

import pytest

from hypergrowth import Monotonicity, Shape
from hypergrowth.cli import SCHEMA_VERSION, main

README = Path(__file__).resolve().parents[1] / "README.md"

# Each commented expression of the tour and the result its comment states.
RESULTS = [
    ("classify_shape(model)", lambda r: r is Shape.ESCALATING, "# Shape.ESCALATING"),
    ("eval_ratio(model, 0.0)", lambda r: r == pytest.approx(1.5556, abs=5e-5), "# 1.5556"),
    ("time_at_ratio(model, 2.0)", lambda r: r == pytest.approx(1904.76, abs=5e-3), "# 1904.76"),
    ("monotonicity_check(curve)", lambda r: r.verdict is Monotonicity.INCREASING,
     "# monotone_increasing"),
]


@pytest.fixture(scope="module")
def tour():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    return blocks[0], namespace


@pytest.mark.parametrize("expression, holds, comment", RESULTS, ids=[r[0] for r in RESULTS])
def test_commented_result(tour, expression, holds, comment):
    block, namespace = tour
    line = next(line for line in block.splitlines() if line.startswith(expression))
    assert comment in line
    assert holds(eval(expression, namespace))


def cli_lines() -> list[str]:
    """The lines of the ``sh`` block under ``## CLI``, each ``\\``-continued line joined."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    return block.replace("\\\n", " ").splitlines()


def test_cli_block(tmp_path, monkeypatch, capsys):
    """Each command exits 0 and writes its --out and the files its comment names."""
    monkeypatch.chdir(tmp_path)
    commands, named = 0, []
    for line in cli_lines():
        if line.startswith("#"):
            named += re.findall(r"\w+\.(?:csv|json)", line)
        elif line.startswith("hypergrowth"):
            argv = shlex.split(line)[1:]
            assert main(argv) == 0, line
            flags = dict(zip(argv, argv[1:]))
            out_dir = Path(flags.get("--out-dir", "."))
            expected = [out_dir / name for name in named] + [Path(flags.get("--out", "."))]
            assert [path for path in expected if not path.exists()] == [], line
            commands, named = commands + 1, []
    capsys.readouterr()
    assert commands == 7


def test_report_schema_version():
    """The report envelope the README describes carries the version the CLI writes."""
    assert f"`schema_version` (currently {SCHEMA_VERSION})" in README.read_text(encoding="utf-8")
