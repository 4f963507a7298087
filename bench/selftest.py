"""Tests of the benchmark itself: ``python3 bench/selftest.py``.

They show that the checker counts a corrupted artifact and a nonzero exit
as failures, so that a zero failure count means something, and that a
traced operation's layer self times add up to no more than its
``cli.main_s``. They start a handful of CLI child processes and take a few
seconds.
"""

from __future__ import annotations

import json
import shutil
import sys
import unittest
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from check import CliExpectation, check_cli_op, check_replicate  # noqa: E402
from tracing import LAYERS, Tracer, layer_metrics, package_modules  # noqa: E402

WORK = run.WORK / "selftest"


def setUpModule():
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)


def tearDownModule():
    shutil.rmtree(WORK, ignore_errors=True)


class CliCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.inp = inputs.historical_inputs(WORK / "in", seed=7)
        cls.exp = CliExpectation(
            truth={name: p.singularity_time for name, p in inputs.SERIES},
            inputs={"gdp": cls.inp.gdp, "population": cls.inp.population, "series": cls.inp.series},
        )
        cls.env = run.child_env()
        cls.out = WORK / "fit"
        cls.argv = ["fit", str(cls.inp.gdp), "--out-dir", str(cls.out)]
        cls.result = run.run_child(
            [sys.executable, "-m", "hypergrowth.cli", *cls.argv], cls.env, WORK / "stderr.txt"
        )
        cls.digests = {}
        cls.first_problems = check_cli_op("fit", cls.result, cls.out, cls.exp, cls.digests)

    def corrupted_copy(self, name: str, row: int, last_digit: bool) -> Path:
        """Copy the fit output and change one digit of one curve value:
        its last digit, or its fourth significant digit."""
        copy = WORK / name
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(self.out, copy)
        path = copy / "fitted_curve.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        year, value = lines[row + 1].rstrip("\n").split(",")
        digits = [i for i, ch in enumerate(value) if ch.isdigit()]
        first = next(k for k, i in enumerate(digits) if value[i] != "0")
        digit = digits[-1] if last_digit else digits[first + 3]
        value = value[:digit] + str((int(value[digit]) + 1) % 10) + value[digit + 1 :]
        lines[row + 1] = f"{year},{value}\n"
        path.write_text("".join(lines), encoding="utf-8")
        return copy

    def test_clean_run_passes(self):
        self.assertEqual(self.result.code, 0)
        self.assertEqual(self.first_problems, [])
        self.assertIn("fit", self.digests)

    def test_repeat_with_changed_last_digit_fails(self):
        # The last of 12 digits is within the curve tolerance; the digest
        # comparison with the first run of the command catches it.
        copy = self.corrupted_copy("changed_repeat", row=300, last_digit=True)
        problems = check_cli_op("fit", self.result, copy, self.exp, dict(self.digests))
        self.assertTrue(problems)
        self.assertIn("fitted_curve.csv", problems[0])

    def test_first_run_with_changed_digit_fails(self):
        copy = self.corrupted_copy("changed_first", row=1, last_digit=False)
        problems = check_cli_op("fit", self.result, copy, self.exp, {})
        self.assertTrue(problems)
        self.assertIn("fitted_curve", problems[0])

    def test_nonzero_exit_fails(self):
        argv = ["fit", str(WORK / "missing.csv"), "--out-dir", str(WORK / "missing")]
        result = run.run_child(
            [sys.executable, "-m", "hypergrowth.cli", *argv], self.env, WORK / "stderr.txt"
        )
        self.assertEqual(result.code, 2)
        outcome = run.Outcome()
        outcome.record(check_cli_op("fit", result, WORK / "missing", self.exp, {}))
        self.assertEqual((outcome.attempted, outcome.failed), (1, 1))

    def test_traced_self_times_within_main(self):
        spans = WORK / "spans.json"
        argv = ["diagnose", "--gdp", str(self.inp.gdp), "--pop", str(self.inp.population),
                "--series", str(self.inp.series), "--out-dir", str(WORK / "traced")]
        result = run.run_child(
            [sys.executable, str(run.TRACED_CLI), str(spans), "--", *argv],
            self.env,
            WORK / "stderr.txt",
        )
        self.assertEqual(result.code, 0, result.stderr)
        tracer = Tracer()
        tracer.merge(json.loads(spans.read_text(encoding="utf-8")), op_id=0)
        metrics = layer_metrics(tracer, n_ops=1)
        total_self = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        self.assertGreater(metrics["cli.main_s"], 0.0)
        self.assertLessEqual(total_self, metrics["cli.main_s"] * (1 + 1e-12))
        self.assertLessEqual(metrics["cli.self_s"], metrics["cli.main_s"])
        self.assertEqual(metrics["diagnostics.break_tests"], 6)


class ReplicateCheckTest(unittest.TestCase):
    def test_changed_p_value_fails(self):
        years = inputs.MC_YEARS
        grid = np.linspace(years[0], years[-1], 512)
        seeds = inputs.mc_replicate_seeds(5, 0)
        num, den, fits, _, _, scan = run.mc_replicate(
            package_modules(), years, grid, years[3:-3], seeds
        )
        record = run.replicate_record(0, seeds, num, den, fits, scan)
        self.assertEqual(check_replicate(record, years, inputs.MC_SIGMA), [])
        year, f_stat, p_value, decision = record["scan"][4]
        record["scan"][4] = (year, f_stat, p_value + 1e-6, decision)
        self.assertTrue(check_replicate(record, years, inputs.MC_SIGMA))


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_the_driver(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        # mc_null_scan runs and prints but is not bounded; see README.md.
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS[:3]))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.per_layer_units())

    def test_tail_rank_leaves_ten_samples(self):
        self.assertEqual(run.tail_rank(20), (50, 10))
        self.assertEqual(run.tail_rank(100), (90, 90))
        self.assertEqual(run.tail_rank(1000), (99, 990))
        for n in (11, 37, 101, 7531):
            self.assertGreaterEqual(n - run.tail_rank(n)[1], run.TAIL_SAMPLES)

if __name__ == "__main__":
    unittest.main()
