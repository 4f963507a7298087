"""Seeded benchmark inputs, written with the package's own synthesize/write_csv.

Every input is a function of the workload seed alone: the same seed gives
byte-identical CSV files. Three hyperbolic series are drawn per seed, a
GDP-like numerator, a population-like denominator and an extra component
series for ``diagnose --series``; each gets its own child of one
``numpy.random.SeedSequence`` so that adding a series never changes the
others.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hypergrowth import HyperbolicParams, synthesize, write_csv


def _params(t_s: float, scale: float) -> HyperbolicParams:
    """Trajectory scale/(t_s - t), i.e. a = t_s/scale and k = 1/scale."""
    return HyperbolicParams(a=t_s / scale, k=1.0 / scale)


#: Generating parameters. GDP (billions) blows up ten years before
#: population (millions), so their ratio escalates and passes the
#: ``--levels`` sizes 1.6-2.0 between 2002 and 2011, inside the model domain.
GDP = _params(2020.0, 1.8e5)
POPULATION = _params(2030.0, 1.8e5)
EXTRA = _params(2045.0, 5.0e4)
SERIES = (("gdp", GDP), ("population", POPULATION), ("series", EXTRA))

#: Maddison-style benchmark years: sparse before 1950, dense after.
HISTORICAL_YEARS = np.array(
    [0.0, 1000.0, 1500.0, 1600.0, 1700.0, 1820.0, 1870.0, 1890.0, 1913.0, 1929.0]
    + [1950.0 + 2.5 * i for i in range(21)]
)
HISTORICAL_SIGMA = 0.01

LARGE_ROWS = 100_000
LARGE_STEP = 0.02
LARGE_SIGMA = 0.01

#: Null replicates of the Monte Carlo workload: 31 points, 1500-1950.
MC_YEARS = np.linspace(1500.0, 1950.0, 31)
MC_SIGMA = 0.005


@dataclass(frozen=True)
class InputSet:
    """Paths of one generated (gdp, population, series) triple."""

    gdp: Path
    population: Path
    series: Path


def _draw_seeds(seed: int, salt: int) -> list[int]:
    children = np.random.SeedSequence([seed, salt]).spawn(len(SERIES))
    return [int(c.generate_state(1, dtype=np.uint64)[0]) for c in children]


def write_inputs(out_dir: Path, seed: int, years, sigma: float, salt: int) -> InputSet:
    """Synthesize the three series on ``years`` and write them as CSVs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for (name, params), draw in zip(SERIES, _draw_seeds(seed, salt)):
        series = synthesize(params, years, noise_sigma=sigma, seed=draw, name=name)
        paths[name] = out_dir / f"{name}.csv"
        write_csv(series, paths[name])
    return InputSet(gdp=paths["gdp"], population=paths["population"], series=paths["series"])


def historical_inputs(out_dir: Path, seed: int) -> InputSet:
    return write_inputs(out_dir, seed, HISTORICAL_YEARS, HISTORICAL_SIGMA, salt=1)


def large_inputs(out_dir: Path, seed: int) -> InputSet:
    years = LARGE_STEP * np.arange(LARGE_ROWS)
    return write_inputs(out_dir, seed, years, LARGE_SIGMA, salt=2)


def mc_replicate_seeds(seed: int, index: int) -> tuple[int, int]:
    """Noise seeds of the numerator and denominator of null replicate ``index``."""
    children = np.random.SeedSequence([seed, 3, index]).spawn(2)
    return tuple(int(c.generate_state(1, dtype=np.uint64)[0]) for c in children)
