"""The README's library tour runs as printed and gives its commented results."""

import re
from pathlib import Path

import pytest

from hypergrowth import Monotonicity, Shape

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
