"""hypergrowth benchmark: seeded inputs, four workloads, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/`` and nothing is installed. Each workload is a closed
loop with one client: the next operation starts when the previous one ends,
and CLI operations run as one child process at a time.

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
alternates traced and untraced operations and reports the per-layer
metrics (see ``tracing.py``) plus the tracing overhead, the difference
between the traced and untraced ``op_p50_s``. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACED_CLI = Path(__file__).resolve().parent / "tracing.py"

WORKLOADS = ("historical_cli", "large_grid_cli", "large_input_cli", "mc_null_scan")

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Cold interpreter starts timed before and again after the timed loop;
#: the median of all of them is reported.
SETUP_BURST = 5
#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 60.0
#: Tail percentiles must leave at least this many samples beyond them.
TAIL_SAMPLES = 10
#: Untimed Monte Carlo replicates run before timing starts.
MC_WARMUP = 20
#: Every MC_SAMPLE_EVERY-th replicate is checked against numpy/scipy.
MC_SAMPLE_EVERY = 64
LARGE_GRID = "200000"
LEVELS = ("1.6", "1.8", "2.0")


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    from tracing import COUNT_METRICS, LAYERS, SPAN_METRICS

    units = {
        "startup.python_s": "s",
        "startup.numpy_import_s": "s",
        "startup.hypergrowth_import_s": "s",
    }
    units.update((name, "s") for name, _, _ in SPAN_METRICS)
    units.update((f"{layer}.self_s", "s") for layer in LAYERS)
    units.update((name, "count") for name in COUNT_METRICS)
    units.update(
        {
            "cli.write_mb_per_s": "MB/s",
            "ingest.parse_rows_per_s": "1/s",
            "diagnostics.candidates_tested_ratio": "ratio",
            "trace.spans_per_op": "count",
            "trace.op_p50_s": "s",
            "trace.overhead_s": "s",
        }
    )
    return units


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail_rank(n: int) -> tuple[int, int]:
    """(percentile, 1-based rank) of the highest whole percentile that
    leaves at least TAIL_SAMPLES samples beyond it (nearest-rank)."""
    if n <= TAIL_SAMPLES:
        return 100, n
    pct = (100 * (n - TAIL_SAMPLES)) // n
    return pct, max(1, math.ceil(pct * n / 100))


@dataclass
class Samples:
    """Wall times of operations, grouped by kind (the command of a cycle)."""

    times: dict[str, list[float]] = field(default_factory=dict)

    def add(self, kind: str, seconds: float) -> None:
        self.times.setdefault(kind, []).append(seconds)

    @property
    def count(self) -> int:
        return sum(len(v) for v in self.times.values())

    def p50(self) -> float:
        """Mean over kinds of each kind's median.

        With one kind this is the plain median. With several, a pooled
        median would sit on the boundary between two kinds' clusters and
        jump with their extremes, so each kind contributes its own median.
        """
        return statistics.fmean(statistics.median(v) for v in self.times.values())

    def tail(self) -> tuple[float, int, int]:
        """(seconds, percentile, samples): the tail percentile of the times
        relative to their kind's median, scaled by ``p50``. With one kind
        this is the plain percentile of the times."""
        ratios = sorted(
            t / statistics.median(v) for v in self.times.values() for t in v
        )
        pct, rank = tail_rank(len(ratios))
        return self.p50() * ratios[rank - 1], pct, len(ratios)

    def ops_per_s(self) -> float:
        return self.count / sum(sum(v) for v in self.times.values())


@dataclass
class Outcome:
    """Everything one workload run measured."""

    attempted: int = 0
    failed: int = 0
    untraced: Samples = field(default_factory=Samples)
    traced: Samples = field(default_factory=Samples)
    peak_rss_kb: int = 0
    n_traced_ops: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], env: dict[str, str], stderr_path: Path):
    """Run one child to completion; time it and read its max RSS.

    The child is reaped with a blocking ``wait4``: ``subprocess.run`` with a
    timeout polls with sleeps of up to 50 ms, which would add to the time.
    """
    from check import ChildResult

    with open(stderr_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return ChildResult(proc.returncode, out, err.read(), seconds, usage.ru_maxrss)


class ColdStarts:
    """Cold interpreter starts, timed in bursts before and after the run.

    ``setup_s`` is a cold ``python -c "import hypergrowth.cli"``; traced
    runs also time ``pass`` and ``import numpy``. Half of the starts come
    before the timed loop and half after it, so the median spans the run's
    drift; none run inside the loop, where they would disturb the caches
    of the operations that follow.
    """

    def __init__(self, trace: bool, stderr_path: Path):
        self.env = child_env()
        self.codes = {"setup_s": "import hypergrowth.cli"}
        if trace:
            self.codes = {
                "startup.python_s": "pass",
                "startup.numpy_import_s": "import numpy",
                **self.codes,
            }
        self.times: dict[str, list[float]] = {name: [] for name in self.codes}
        self._stderr = stderr_path
        self._cold_start("import hypergrowth.cli")  # compiles bytecode, warms the file cache

    def _cold_start(self, code: str) -> float:
        result = run_child([sys.executable, "-c", code], self.env, self._stderr)
        if result.code != 0:
            err = result.stderr.decode(errors="replace")
            raise RuntimeError(f"cold start {code!r} failed: {err}")
        return result.seconds

    def burst(self) -> None:
        for _ in range(SETUP_BURST):
            for name, code in self.codes.items():  # interleaved, so drift hits all alike
                self.times[name].append(self._cold_start(code))

    def medians(self) -> dict[str, float]:
        out = {name: statistics.median(v) for name, v in self.times.items()}
        if "startup.numpy_import_s" in out:
            out["startup.hypergrowth_import_s"] = out["setup_s"] - out["startup.numpy_import_s"]
        return out


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


def cli_cycle(workload: str, inp) -> list[tuple[str, list[str]]]:
    """(kind, CLI arguments) of each operation in one cycle of a workload."""
    gdp, pop, extra = (str(p.relative_to(ROOT)) for p in (inp.gdp, inp.population, inp.series))
    pair = ["--gdp", gdp, "--pop", pop]
    if workload == "historical_cli":
        return [
            ("fit", ["fit", gdp]),
            ("ratio", ["ratio", gdp, pop]),
            ("diagnose", ["diagnose", *pair, "--series", extra, "--levels", *LEVELS]),
        ]
    if workload == "large_grid_cli":
        grid = ["--grid-points", LARGE_GRID]
        return [
            ("diagnose_csv", ["diagnose", *pair, *grid]),
            ("diagnose_json", ["diagnose", *pair, *grid, "--format", "json"]),
            ("ratio", ["ratio", gdp, pop, *grid]),
            ("fit", ["fit", gdp, *grid]),
        ]
    return [
        ("fit", ["fit", gdp]),
        ("diagnose", ["diagnose", *pair, "--series", extra]),
    ]


def run_cli_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path, tracer):
    import inputs
    from check import CliExpectation, check_cli_op

    make = inputs.large_inputs if workload == "large_input_cli" else inputs.historical_inputs
    inp = make(work / "in", seed)
    exp = CliExpectation(
        truth={name: p.singularity_time for name, p in inputs.SERIES},
        inputs={"gdp": inp.gdp, "population": inp.population, "series": inp.series},
        levels=tuple(float(x) for x in LEVELS) if workload == "historical_cli" else (),
    )
    cycle = cli_cycle(workload, inp)
    env = child_env()
    outcome = Outcome()
    first_digests: dict[str, dict[str, str]] = {}
    spans_path = work / "spans-op.json"

    def op(kind: str, args: list[str], traced: bool):
        out_dir = work / "out" / kind
        argv = [*args, "--out-dir", str(out_dir.relative_to(ROOT))]
        if traced:
            cmd = [sys.executable, str(TRACED_CLI), str(spans_path), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "hypergrowth.cli", *argv]
        result = run_child(cmd, env, work / "stderr.txt")
        outcome.record(check_cli_op(kind, result, out_dir, exp, first_digests))
        if traced and spans_path.exists():
            tracer.merge(json.loads(spans_path.read_text(encoding="utf-8")), outcome.n_traced_ops)
            outcome.n_traced_ops += 1
            spans_path.unlink()
        return result

    t0 = time.perf_counter()
    n_cycles = 0
    while time.perf_counter() - t0 < seconds or (trace and n_cycles < 2):
        traced = trace and n_cycles % 2 == 0
        for kind, args in cycle:
            result = op(kind, args, traced)
            (outcome.traced if traced else outcome.untraced).add(kind, result.seconds)
            if not traced:
                outcome.peak_rss_kb = max(outcome.peak_rss_kb, result.maxrss_kb)
        n_cycles += 1
    return outcome


# ---------------------------------------------------------------------------
# Monte Carlo workload
# ---------------------------------------------------------------------------


def mc_replicate(modules, years, grid, candidates, seeds):
    """One null replicate, calling the package through module attributes."""
    import inputs

    ingest, fitting = modules["ingest"], modules["fitting"]
    ratio, diagnostics = modules["ratio"], modules["diagnostics"]
    num = ingest.synthesize(inputs.GDP, years, inputs.MC_SIGMA, seeds[0], "numerator")
    den = ingest.synthesize(inputs.POPULATION, years, inputs.MC_SIGMA, seeds[1], "denominator")
    fits = {w: fitting.fit_ratio(num, den, weighting=w) for w in fitting.WEIGHTINGS}
    shapes = [ratio.classify_shape(fit.model) for fit in fits.values()]
    verdicts = []
    for fit in fits.values():
        for curve in (diagnostics.gradient_curve, diagnostics.growth_rate_curve):
            verdicts.append(diagnostics.monotonicity_check(curve(fit.model, grid)))
    scan = diagnostics.takeoff_scan(num, candidates)
    return num, den, fits, shapes, verdicts, scan


def replicate_record(index, seeds, num, den, fits, scan) -> dict:
    """What ``check.check_replicate`` needs to re-derive one replicate."""
    import inputs
    from check import Line

    return {
        "index": index,
        "numerator_line": Line(inputs.GDP.a, inputs.GDP.k),
        "denominator_line": Line(inputs.POPULATION.a, inputs.POPULATION.k),
        "numerator_seed": seeds[0],
        "denominator_seed": seeds[1],
        "numerator_values": num.values,
        "denominator_values": den.values,
        "fits": {
            w: {
                "numerator": (fit.numerator_fit.params.a, fit.numerator_fit.params.k),
                "denominator": (fit.denominator_fit.params.a, fit.denominator_fit.params.k),
            }
            for w, fit in fits.items()
        },
        "scan": [
            (e.candidate_year, e.result.f_statistic, e.result.p_value, e.result.decision.value)
            for e in scan
        ],
    }


def run_mc_workload(seed: int, seconds: float, trace: bool, tracer):
    import numpy as np

    import inputs
    from check import check_replicate
    from tracing import package_modules

    modules = package_modules()
    years = inputs.MC_YEARS
    grid = np.linspace(years[0], years[-1], 512)
    candidates = years[3:-3]  # every year with at least 3 points on each side
    escalating = modules["ratio"].Shape.ESCALATING
    non_monotone = modules["diagnostics"].Monotonicity.NON_MONOTONE
    outcome = Outcome()
    sampled = []

    def op(index: int, traced: bool) -> float:
        seeds = inputs.mc_replicate_seeds(seed, index)
        if traced:
            tracer.op_id = outcome.n_traced_ops
            tracer.install(modules)
        t0 = time.perf_counter()
        try:
            num, den, fits, shapes, verdicts, scan = mc_replicate(
                modules, years, grid, candidates, seeds
            )
        except Exception as exc:  # any library error is a failed operation
            outcome.record([f"replicate {index}: {exc!r}"])
            return time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
                outcome.n_traced_ops += 1
        elapsed = time.perf_counter() - t0
        problems = []
        if not all(s == escalating for s in shapes):
            problems.append(f"replicate {index}: shapes {shapes}")
        if any(v.verdict == non_monotone for v in verdicts):
            problems.append(f"replicate {index}: non-monotone ratio curve")
        if any(entry.result is None for entry in scan):
            problems.append(f"replicate {index}: untested candidates")
        outcome.record(problems)
        if index % MC_SAMPLE_EVERY == 0 and not problems:
            sampled.append(replicate_record(index, seeds, num, den, fits, scan))
        return elapsed

    index = 0
    for _ in range(MC_WARMUP):
        op(index, traced=False)
        index += 1
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        traced = trace and index % 2 == 0
        (outcome.traced if traced else outcome.untraced).add("replicate", op(index, traced))
        index += 1
    outcome.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # Outside the timed region: compare sampled replicates with numpy/scipy.
    for record in sampled:
        problems = check_replicate(record, years, inputs.MC_SIGMA)
        if problems:
            outcome.failed += 1
            outcome.problems.extend(f"replicate {record['index']}: {p}" for p in problems[:3])
    if not sampled:
        outcome.record(["no replicate was sampled for the numpy/scipy check"])
    return outcome


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (metrics, outcome, extra report lines)."""
    from tracing import LAYERS, Tracer, layer_metrics, save_spans

    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer()
    try:
        starts = ColdStarts(trace, work / "stderr-setup.txt")
        starts.burst()
        if workload == "mc_null_scan":
            outcome = run_mc_workload(seed, seconds, trace, tracer)
        else:
            outcome = run_cli_workload(workload, seed, seconds, trace, work, tracer)
        starts.burst()
        metrics = starts.medians()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    u = outcome.untraced
    tail_s, pct, n = u.tail()
    lines = [
        f"error_ratio {outcome.failed / max(outcome.attempted, 1):.6g} ratio",
        f"op_tail_percentile {pct} p ({n} samples, {n - tail_rank(n)[1]} beyond)",
    ]
    lines += [f"op_p50_s[{kind}] {statistics.median(v):.6g} s" for kind, v in u.times.items()]
    if not trace:
        metrics.update(
            op_p50_s=u.p50(),
            op_tail_s=tail_s,
            ops_per_s=u.ops_per_s(),
            peak_rss_mb=outcome.peak_rss_kb / 1024.0,
        )
        return metrics, outcome, lines

    save_spans(tracer, WORK / f"spans-{workload}.npz")
    metrics.update(layer_metrics(tracer, outcome.n_traced_ops))
    metrics["trace.op_p50_s"] = outcome.traced.p50()
    metrics["trace.overhead_s"] = metrics["trace.op_p50_s"] - u.p50()
    metrics.pop("setup_s")
    layer_times = sorted(
        ((metrics[f"{layer}.self_s"], layer) for layer in LAYERS), reverse=True
    )
    lines.append(f"untraced_op_p50_s {u.p50():.6g} s")
    lines.append("layer_self_ranking " + " > ".join(f"{name}={t:.4g}s" for t, name in layer_times))
    return metrics, outcome, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hypergrowth" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'hypergrowth'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hypergrowth

    if Path(hypergrowth.__file__).resolve().parent != (SRC / "hypergrowth").resolve():
        print(f"imported hypergrowth from {hypergrowth.__file__}, not {SRC}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    units = per_layer_units() if trace else END_TO_END
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    attempted = failed = 0
    for workload in names:
        metrics, outcome, lines = run_workload(workload, args.seed, args.seconds, trace)
        attempted += outcome.attempted
        failed += outcome.failed
        for problem in outcome.problems[:10]:
            print(f"[{workload}] FAILED: {problem}", file=sys.stderr)
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
        for name, unit in units.items():
            print(f"{name} {metrics[name]:.6g} {unit}")
        for line in lines:
            print(line)
        results[workload] = {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        }

    summary = results[names[0]] if len(names) == 1 else results
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": summary}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
