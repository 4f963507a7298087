import argparse
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hypergrowth
from hypergrowth import HyperbolicParams, TimeSeries, parse_csv, synthesize, write_csv
from hypergrowth.cli import MAX_GRID_POINTS, _column, build_parser, main

from conftest import F_PARAMS, G_PARAMS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def synth_file(tmp_path, name, params, start=0.0, stop=2000.0, step=100.0, noise=0.0, seed=0):
    path = tmp_path / name
    code = main(
        [
            "synth",
            "--a",
            str(params.a),
            "--k",
            str(params.k),
            "--from",
            str(start),
            "--to",
            str(stop),
            "--step",
            str(step),
            "--noise",
            str(noise),
            "--seed",
            str(seed),
            "--out",
            str(path),
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    return path


class TestSynth:
    def test_row_count_and_final_value(self, tmp_path, capsys):
        path = synth_file(tmp_path, "f.csv", F_PARAMS)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "year,value"
        assert len(lines) == 22  # header + 21 samples
        year, value = lines[-1].split(",")
        assert float(year) == 2000.0
        assert float(value) == pytest.approx(10.0, rel=1e-9)

    def test_noiseless_ignores_seed(self, tmp_path, capsys):
        one = synth_file(tmp_path, "one.csv", F_PARAMS, noise=0.0, seed=1)
        two = synth_file(tmp_path, "two.csv", F_PARAMS, noise=0.0, seed=2)
        assert one.read_bytes() == two.read_bytes()

    def test_seeded_noise_reproducible(self, tmp_path, capsys):
        one = synth_file(tmp_path, "one.csv", F_PARAMS, noise=0.01, seed=5)
        two = synth_file(tmp_path, "two.csv", F_PARAMS, noise=0.01, seed=5)
        three = synth_file(tmp_path, "three.csv", F_PARAMS, noise=0.01, seed=6)
        assert one.read_bytes() == two.read_bytes()
        assert one.read_bytes() != three.read_bytes()

    def test_grid_past_singularity_exits_3(self, tmp_path, capsys):
        code, out = run_cli(
            capsys,
            "synth",
            "--a",
            "4.5",
            "--k",
            "2.2e-3",
            "--from",
            "0",
            "--to",
            "2050",
            "--step",
            "50",
            "--out-dir",
            str(tmp_path),
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["error"]["type"] == "DomainError"
        assert "2045.45" in payload["error"]["message"]


class TestFit:
    def test_recovers_parameters(self, tmp_path, capsys):
        data = synth_file(tmp_path, "f.csv", F_PARAMS)
        capsys.readouterr()
        code, out = run_cli(capsys, "fit", str(data), "--out-dir", str(tmp_path))
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == 2
        assert report["fit"]["a"] == pytest.approx(4.5, rel=1e-10)
        assert report["fit"]["k"] == pytest.approx(2.2e-3, rel=1e-10)
        assert report["fit"]["t_s"] == pytest.approx(2045.4545454545455, rel=1e-9)
        on_disk = json.loads((tmp_path / "fit_report.json").read_text())
        assert on_disk == report
        curve_lines = (tmp_path / "fitted_curve.csv").read_text().splitlines()
        assert curve_lines[0] == "year,value"
        assert len(curve_lines) == 1 + report["config"]["grid_points"]

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("year,value\n1,1\n2,oops\n")
        code, out = run_cli(capsys, "fit", str(bad), "--out-dir", str(tmp_path))
        assert code == 2
        payload = json.loads(out)
        assert payload["error"]["type"] == "ParseError"
        assert "line 3" in payload["error"]["message"]

    @pytest.mark.filterwarnings("error")
    def test_huge_values_fit_finite(self, tmp_path, capsys):
        # Near 1e196, y**2 overflows and squared reciprocal residuals underflow
        # unless the fit runs in scaled space.
        data = tmp_path / "huge.csv"
        rows = "".join(f"{i},{1e196 * (1 + 0.1 * i):.6g}\n" for i in range(5))
        data.write_text("year,value\n" + rows)
        for weighting in ("unweighted", "size_squared"):
            code, out = run_cli(
                capsys, "fit", str(data), "--weighting", weighting, "--out-dir", str(tmp_path)
            )
            assert code == 0
            fit = json.loads(out)["fit"]
            assert all(np.isfinite(fit[key]) for key in ("a", "k", "t_s", "r_squared_reciprocal"))
            assert 0.0 < fit["rmse_reciprocal"] < 1e-197

    @pytest.mark.filterwarnings("error")
    def test_years_spanning_float_range_fit(self, tmp_path, capsys):
        # Year offsets of 1e300 from their mean would overflow their squares unscaled.
        data = tmp_path / "span.csv"
        data.write_text("year,value\n-1e300,1\n0,2\n1e300,3\n")
        code, out = run_cli(capsys, "fit", str(data), "--out-dir", str(tmp_path))
        assert code == 0
        assert capsys.readouterr().err == ""
        fit = json.loads(out)["fit"]
        assert fit["a"] == pytest.approx(11 / 18, rel=1e-12)
        assert fit["k"] == pytest.approx(1e-300 / 3, rel=1e-12)

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, out = run_cli(capsys, "fit", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path))
        assert code == 2

    def test_byte_identical_reruns(self, tmp_path, capsys):
        data = synth_file(tmp_path, "f.csv", F_PARAMS)
        capsys.readouterr()
        args = ("fit", str(data), "--out-dir", str(tmp_path))
        assert main(list(args)) == 0
        first_report = (tmp_path / "fit_report.json").read_bytes()
        first_curve = (tmp_path / "fitted_curve.csv").read_bytes()
        assert main(list(args)) == 0
        assert (tmp_path / "fit_report.json").read_bytes() == first_report
        assert (tmp_path / "fitted_curve.csv").read_bytes() == first_curve

    def test_window_flag_restricts_fit(self, tmp_path, capsys):
        data = synth_file(tmp_path, "f.csv", F_PARAMS)
        capsys.readouterr()
        code, out = run_cli(
            capsys,
            "fit",
            str(data),
            "--window",
            "0",
            "1000",
            "--out-dir",
            str(tmp_path),
        )
        assert code == 0
        report = json.loads(out)
        assert report["fit"]["n_points"] == 11
        assert report["config"]["window"] == [0.0, 1000.0]

    def test_json_curve_format(self, tmp_path, capsys):
        data = synth_file(tmp_path, "f.csv", F_PARAMS)
        capsys.readouterr()
        code, out = run_cli(
            capsys, "fit", str(data), "--format", "json", "--out-dir", str(tmp_path)
        )
        assert code == 0
        report = json.loads(out)
        assert report["artifacts"]["fitted_curve"] == "fitted_curve.json"
        curve = json.loads((tmp_path / "fitted_curve.json").read_text())
        assert set(curve) == {"year", "value"}


class TestRatio:
    def test_synthetic_pair(self, tmp_path, capsys):
        f_file = synth_file(tmp_path, "f.csv", F_PARAMS)
        g_file = synth_file(tmp_path, "g.csv", G_PARAMS)
        capsys.readouterr()
        code, out = run_cli(
            capsys, "ratio", str(f_file), str(g_file), "--out-dir", str(tmp_path)
        )
        assert code == 0
        report = json.loads(out)
        assert report["ratio"]["shape"] == "escalating"
        assert report["ratio"]["modulation_constant"] == pytest.approx(3.25e-4, rel=1e-8)
        assert report["ratio"]["numerator"]["t_s"] == pytest.approx(2045.4545, abs=0.01)
        assert report["ratio"]["denominator"]["t_s"] == pytest.approx(2089.5522, abs=0.01)
        assert report["ratio"]["domain_end"] == pytest.approx(2045.4545, abs=0.01)
        assert report["residuals"]["rmse"] < 1e-10
        observed = (tmp_path / "ratio_observed_vs_model.csv").read_text().splitlines()
        assert observed[0] == "year,observed,model,residual"
        assert (tmp_path / "ratio_curve.csv").exists()

    def test_identical_inputs_constant(self, tmp_path, capsys):
        f_file = synth_file(tmp_path, "f.csv", F_PARAMS)
        capsys.readouterr()
        code, out = run_cli(
            capsys, "ratio", str(f_file), str(f_file), "--out-dir", str(tmp_path)
        )
        assert code == 0
        report = json.loads(out)
        assert report["ratio"]["shape"] == "constant"
        curve = np.loadtxt(tmp_path / "ratio_curve.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(curve[:, 1], 1.0, rtol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_rmse_of_residuals_whose_squares_overflow(self, tmp_path, capsys):
        grid = np.linspace(1500, 1950, 31)
        pair = [(HyperbolicParams(2020e-250, 1e-250), 1), (HyperbolicParams(2030e-50, 1e-50), 2)]
        for name, (params, seed) in zip(("f.csv", "g.csv"), pair):
            write_csv(synthesize(params, grid, 0.05, seed=seed), tmp_path / name)
        code, out = run_cli(
            capsys, "ratio", str(tmp_path / "f.csv"), str(tmp_path / "g.csv"),
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        residuals = json.loads(out)["residuals"]
        assert residuals["max_abs"] > 1e154  # its square overflows float64
        assert residuals["max_abs"] / 31**0.5 <= residuals["rmse"] <= residuals["max_abs"]


class TestDiagnose:
    def test_explicit_params_mode(self, tmp_path, capsys):
        code, out = run_cli(
            capsys,
            "diagnose",
            "--f-a",
            "4.5",
            "--f-k",
            "2.2e-3",
            "--g-a",
            "7.0",
            "--g-k",
            "3.35e-3",
            "--levels",
            "1.6",
            "1.8",
            "2.0",
            "--out-dir",
            str(tmp_path),
        )
        assert code == 0
        report = json.loads(out)
        assert report["model"]["shape"] == "escalating"
        assert report["monotonicity"]["gradient"]["verdict"] == "monotone_increasing"
        assert report["monotonicity"]["growth_rate"]["verdict"] == "monotone_increasing"
        assert report["break_tests"] == {}  # no data series provided
        assert report["metadata"]["industrial_revolution_window"] == [1760.0, 1840.0]
        for stem in ("gradient_curve", "growth_rate_curve", "gradient_vs_size", "growth_rate_vs_size"):
            assert (tmp_path / f"{stem}.csv").exists()

    def test_dense_grid_steps_below_1e_12_stay_monotone(self, tmp_path, capsys):
        # Each step is about 2e-13 of its values, and every one counts.
        code, out = run_cli(
            capsys, "diagnose", "--f-a", "4.5", "--f-k", "2.2e-3", "--g-a", "7.0",
            "--g-k", "3.35e-3", "--grid-from=-1e6", "--grid-to=-999999.99",
            "--grid-points", "100000", "--candidates", "--out-dir", str(tmp_path),
        )
        assert code == 0
        for verdict in json.loads(out)["monotonicity"].values():
            assert verdict == {"verdict": "monotone_increasing", "first_violation": None}

    def test_shape_of_a_rounding_error_c_agrees_with_its_curves(self, tmp_path, capsys):
        # g is f scaled by 3 up to rounding; C is 2**-57, not 0.0, so the ratio escalates.
        code, out = run_cli(
            capsys, "diagnose", "--f-a", "7.873971570789526", "--f-k", "0.0020202761029576868",
            "--g-a", "23.62191471236858", "--g-k", "0.00606082830887306", "--candidates",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        report = json.loads(out)
        assert report["model"]["modulation_constant"] == 6.938893903907228e-18
        assert report["model"]["shape"] == "escalating"
        for verdict in report["monotonicity"].values():
            assert verdict["verdict"] == "monotone_increasing"

    def test_data_mode_runs_break_tests(self, tmp_path, capsys):
        f_file = synth_file(tmp_path, "f.csv", F_PARAMS, start=1000.0, stop=1950.0, step=25.0)
        g_file = synth_file(tmp_path, "g.csv", G_PARAMS, start=1000.0, stop=1950.0, step=25.0)
        capsys.readouterr()
        code, out = run_cli(
            capsys,
            "diagnose",
            "--gdp",
            str(f_file),
            "--pop",
            str(g_file),
            "--out-dir",
            str(tmp_path),
        )
        assert code == 0
        report = json.loads(out)
        assert report["fits"]["numerator"]["a"] == pytest.approx(4.5, rel=1e-9)
        assert report["fits"]["denominator"]["a"] == pytest.approx(7.0, rel=1e-9)
        assert report["config"]["candidates"] == [1750.0, 1870.0]
        assert set(report["break_tests"]) == {"f", "g"}
        for scans in report["break_tests"].values():
            assert [s["candidate_year"] for s in scans] == report["config"]["candidates"]
            for scan in scans:
                assert scan["result"]["decision"] == "no_break"
                assert scan["result"]["p_value"] == 1.0
        assert (tmp_path / "observed_growth_rate.csv").exists()

    def test_empty_candidates(self, tmp_path, capsys):
        f_file = synth_file(tmp_path, "f.csv", F_PARAMS, start=1000.0, stop=1950.0, step=25.0)
        g_file = synth_file(tmp_path, "g.csv", G_PARAMS, start=1000.0, stop=1950.0, step=25.0)
        capsys.readouterr()
        code, out = run_cli(
            capsys,
            "diagnose",
            "--gdp",
            str(f_file),
            "--pop",
            str(g_file),
            "--candidates",
            "--out-dir",
            str(tmp_path),
        )
        assert code == 0
        report = json.loads(out)
        assert report["config"]["candidates"] == []
        assert all(scans == [] for scans in report["break_tests"].values())

    def test_extra_series_scanned(self, tmp_path, capsys):
        years = np.linspace(1700.0, 1900.0, 15)
        z = np.where(years < 1750.0, 5.0 - 2e-3 * years, 8.5 - 4e-3 * years)
        rng = np.random.default_rng(7)
        values = (1.0 / z) * np.exp(rng.normal(0.0, 0.005, years.size))
        control = tmp_path / "control.csv"
        control.write_text(
            "year,value\n"
            + "\n".join(f"{float(t)!r},{float(v)!r}" for t, v in zip(years, values))
            + "\n"
        )
        code, out = run_cli(
            capsys,
            "diagnose",
            "--f-a",
            "4.5",
            "--f-k",
            "2.2e-3",
            "--g-a",
            "7.0",
            "--g-k",
            "3.35e-3",
            "--series",
            str(control),
            "--out-dir",
            str(tmp_path),
        )
        assert code == 0
        report = json.loads(out)
        scans = {s["candidate_year"]: s for s in report["break_tests"]["control"]}
        assert scans[1750.0]["result"]["decision"] == "break_detected"
        assert scans[1870.0]["result"]["decision"] == "no_break"

    @pytest.mark.parametrize("unit", [1e-160, 1e100, 1e300])
    def test_break_tests_do_not_depend_on_units(self, tmp_path, capsys, unit):
        # Criterion 6's first null series: F and p must not move with the units, except
        # that residual sums of squares outside float64's normal range become error entries.
        years = np.linspace(1500.0, 1950.0, 31)
        clean = 1.0 / (F_PARAMS.a - F_PARAMS.k * years)
        values = clean * np.exp(np.random.default_rng(20260810).normal(0.0, 0.005, years.size))
        scans = {}
        for name, scale in (("plain", 1.0), ("scaled", unit)):
            rows = "".join(f"{float(t)!r},{float(v)!r}\n" for t, v in zip(years, values * scale))
            (tmp_path / f"{name}.csv").write_text("year,value\n" + rows)
            argv = ["diagnose", "--f-a", "4.5", "--f-k", "2.2e-3", "--g-a", "7.0", "--g-k",
                    "3.35e-3", "--series", str(tmp_path / f"{name}.csv"), "--out-dir",
                    str(tmp_path / name)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
            captured = capsys.readouterr()
            assert code == 0
            assert captured.err == ""
            scans[name] = json.loads(captured.out)["break_tests"][name]
        assert [e["candidate_year"] for e in scans["scaled"]] == [1750.0, 1870.0]
        for plain, scaled in zip(scans["plain"], scans["scaled"]):
            if unit != 1e100:
                assert scaled["result"] is None
                assert scaled["error"].startswith("series 'scaled': residual sums of squares")
            else:
                assert scaled["error"] is None
                for key in ("f_statistic", "p_value"):
                    assert scaled["result"][key] == pytest.approx(plain["result"][key], rel=1e-12)
                assert scaled["result"]["decision"] == plain["result"]["decision"]

    def test_shared_file_stem_is_usage_error(self, tmp_path, capsys):
        # break_tests is keyed by file stem, so a shared stem would drop a series' results.
        paths = [tmp_path / "a" / "data.csv", tmp_path / "b" / "data.csv", tmp_path / "data.csv"]
        for path, params in zip(paths, (F_PARAMS, G_PARAMS, F_PARAMS)):
            path.parent.mkdir(exist_ok=True)
            synth_file(path.parent, path.name, params, start=1000.0, stop=1950.0, step=25.0)
        capsys.readouterr()
        out_dir = tmp_path / "out"
        code = main(["diagnose", "--gdp", str(paths[0]), "--pop", str(paths[1]),
                     "--series", str(paths[2]), "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.endswith(
            "error: --gdp, --pop and --series share a file stem: data, data, data\n"
        )
        assert not out_dir.exists()

    def test_usage_error_without_inputs(self, tmp_path, capsys):
        code = main(["diagnose", "--out-dir", str(tmp_path)])
        assert code == 1

    def test_mixed_inputs_rejected(self, tmp_path, capsys):
        code = main(
            ["diagnose", "--gdp", "x.csv", "--pop", "y.csv", "--f-a", "1.0", "--out-dir", str(tmp_path)]
        )
        assert code == 1


class TestDownsample:
    def test_subset(self, tmp_path, capsys):
        data = synth_file(tmp_path, "f.csv", F_PARAMS)
        out_file = tmp_path / "sub.csv"
        code = main(
            [
                "downsample",
                str(data),
                "--years",
                "0",
                "1000",
                "1800",
                "2000",
                "--out",
                str(out_file),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 5

    def test_missing_year_named(self, tmp_path, capsys):
        data = synth_file(tmp_path, "f.csv", F_PARAMS)
        capsys.readouterr()
        code, out = run_cli(
            capsys,
            "downsample",
            str(data),
            "--years",
            "0",
            "1234",
            "--out-dir",
            str(tmp_path),
        )
        assert code == 2
        payload = json.loads(out)
        assert "1234" in payload["error"]["message"]

    def test_downsampled_refit_matches(self, tmp_path, capsys):
        data = synth_file(tmp_path, "f.csv", F_PARAMS)
        sub = tmp_path / "sub.csv"
        main(
            [
                "downsample",
                str(data),
                "--years",
                "0",
                "1000",
                "1800",
                "2000",
                "--out",
                str(sub),
                "--out-dir",
                str(tmp_path),
            ]
        )
        capsys.readouterr()
        _, full_out = run_cli(capsys, "fit", str(data), "--out-dir", str(tmp_path / "full"))
        _, sub_out = run_cli(capsys, "fit", str(sub), "--out-dir", str(tmp_path / "sub"))
        full_fit = json.loads(full_out)["fit"]
        sub_fit = json.loads(sub_out)["fit"]
        assert sub_fit["a"] == pytest.approx(full_fit["a"], rel=1e-9)
        assert sub_fit["k"] == pytest.approx(full_fit["k"], rel=1e-9)


class TestInputFileErrors:
    """Reader failures exit 2 with a JSON error naming the line, stderr empty."""

    def test_over_limit_quoted_field(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text('year,value,note\n1,2,"' + "x" * 200_000 + '"\n3,4,a\n')
        code = main(["fit", str(path), "--out-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        error = json.loads(captured.out)["error"]
        assert error["type"] == "ParseError"
        assert error["message"] == "line 2: field larger than field limit (131072)"

    def test_crlf_file_with_long_unquoted_note_is_read(self, tmp_path, capsys):
        rows = "".join(f"{t},{1 / (4.5 - 2.2e-3 * t)!r},n\r\n" for t in range(0, 2000, 100))
        path = tmp_path / "crlf.csv"
        path.write_bytes(("year,value,note\r\n0,0.2222222222222222," + "x" * 200_000 + "\r\n"
                          + rows[rows.index("\n") + 1:]).encode())
        code = main(["fit", str(path), "--out-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert json.loads(captured.out)["fit"]["n_points"] == 20


    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("year,value,note\n1,2,a\n2,3,caf\xe9\n3,4,b\n".encode("latin-1"))
        code = main(["fit", str(path), "--out-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        error = json.loads(captured.out)["error"]
        assert error["type"] == "ParseError"
        assert error["message"] == "line 3: not UTF-8 text: invalid continuation byte"


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["synth", "--a", "4.5"]) == 1

    def test_invalid_params_exit_1(self, tmp_path, capsys):
        code, out = run_cli(
            capsys,
            "synth",
            "--a",
            "-4.5",
            "--k",
            "2.2e-3",
            "--from",
            "0",
            "--to",
            "100",
            "--out-dir",
            str(tmp_path),
        )
        assert code == 1


F_G_PARAMS = ["--f-a", "4.5", "--f-k", "2.2e-3", "--g-a", "7.0", "--g-k", "3.35e-3"]


class TestParseTimeValidation:
    """Bad grid, model-parameter, synth and --alpha flags fail in argparse.

    Each exits 1 with a usage message and writes no artifact.
    """

    def assert_rejected(self, tmp_path, capsys, argv, flag):
        out_dir = tmp_path / "out"
        capsys.readouterr()  # drop what setup printed
        code = main([*argv, "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("usage:")
        assert f"argument {flag}: must be" in captured.err
        assert not out_dir.exists()
        return captured.err

    @pytest.mark.parametrize("points", ["-5", "0"])
    def test_fit_grid_below_two(self, tmp_path, capsys, points):
        f = synth_file(tmp_path, "f.csv", F_PARAMS)
        argv = ["fit", str(f), "--grid-points", points]
        self.assert_rejected(tmp_path, capsys, argv, "--grid-points")

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_diagnose_grid_below_two(self, tmp_path, capsys, points):
        argv = ["diagnose", *F_G_PARAMS, "--grid-points", points]
        self.assert_rejected(tmp_path, capsys, argv, "--grid-points")

    @pytest.mark.parametrize("alpha", ["1.5", "0", "1", "-0.05", "nan"])
    def test_alpha_outside_unit_interval(self, tmp_path, capsys, alpha):
        argv = ["diagnose", *F_G_PARAMS, "--alpha", alpha]
        self.assert_rejected(tmp_path, capsys, argv, "--alpha")

    @pytest.mark.parametrize("command", ["fit", "ratio", "diagnose"])
    @pytest.mark.parametrize(
        "bound",
        [["--grid-from", "nan"], ["--grid-from=-inf"], ["--grid-to", "nan"]],
        ids=["from-nan", "from-minus-inf", "to-nan"],
    )
    def test_non_finite_grid_bound(self, tmp_path, capsys, command, bound):
        f = str(synth_file(tmp_path, "f.csv", F_PARAMS))
        g = str(synth_file(tmp_path, "g.csv", G_PARAMS))
        inputs = {"fit": [f], "ratio": [f, g], "diagnose": ["--gdp", f, "--pop", g]}
        argv = [command, *inputs[command], *bound]
        self.assert_rejected(tmp_path, capsys, argv, bound[0].split("=")[0])

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("flag", ["--a", "--k"])
    def test_synth_params_positive_finite(self, tmp_path, capsys, flag, value):
        argv = ["synth", "--a", "4.5", "--k", "2.2e-3", "--from", "0", "--to", "100"]
        argv[argv.index(flag) + 1] = value
        self.assert_rejected(tmp_path, capsys, argv, flag)

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("flag", ["--f-a", "--f-k", "--g-a", "--g-k"])
    def test_diagnose_params_positive_finite(self, tmp_path, capsys, flag, value):
        argv = ["diagnose", *F_G_PARAMS]
        argv[argv.index(flag) + 1] = value
        self.assert_rejected(tmp_path, capsys, argv, flag)

    @pytest.mark.parametrize(
        "flag, value",
        [("--from", "nan"), ("--to", "inf"), ("--step", "nan"), ("--noise", "nan"), ("--seed", "-1")],
    )
    def test_synth_grid_and_noise_flags(self, tmp_path, capsys, flag, value):
        argv = ["synth", "--a", "4.5", "--k", "2.2e-3", "--from", "0", "--to", "100",
                "--noise", "0.01", flag, value]
        self.assert_rejected(tmp_path, capsys, argv, flag)

    def test_grid_points_above_limit(self, tmp_path, capsys):
        argv = ["diagnose", *F_G_PARAMS, "--grid-points", str(10**20)]
        self.assert_rejected(tmp_path, capsys, argv, "--grid-points")

    @pytest.mark.parametrize("span", [["--to", "1e308"], ["--step", "1e-320"]], ids=["to", "step"])
    def test_synth_grid_too_large(self, tmp_path, capsys, span):
        argv = ["synth", "--a", "4.5", "--k", "2.2e-3", "--from", "0", "--to", "100", *span,
                "--out", str(tmp_path / "s.csv"), "--out-dir", str(tmp_path)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        assert json.loads(captured.out)["error"]["message"].endswith("points exceeds 5.76461e+17")
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("flag", ["--year-col", "--value-col"])
    def test_column_name_not_utf8(self, tmp_path, capsys, flag):
        # Undecodable argv bytes arrive as lone surrogates, which no UTF-8 header can hold.
        # parse_csv strips header cells and drops a leading BOM, and an unquoted CR ends the
        # header line, so a name these change could be written but not read back.
        synth = ["synth", "--a", "4.5", "--k", "2.2e-3", "--from", "0", "--to", "10",
                 "--out", str(tmp_path / "out" / "s.csv")]
        for name in ["\udcff", " y", "v\t", "\ufeffy", "a\rb"]:
            for argv in (synth, ["fit", "f.csv"]):
                self.assert_rejected(tmp_path, capsys, [*argv, flag, name], flag)

    @pytest.mark.parametrize("argv, dest, value", [
        (["fit", "f.csv", "--window", "-1e3", "2000"], "window", [-1000.0, 2000.0]),
        (["synth", "--a", "1", "--k", "1e-3", "--from", "-1e3", "--to", "0"], "start", -1000.0),
        (["diagnose", *F_G_PARAMS, "--candidates", "-1e3", "-.5E3"], "candidates",
         [-1000.0, -500.0]),
        (["downsample", "f.csv", "--years", "-1e3", "-1e+2"], "years", [-1000.0, -100.0]),
        (["fit", "f.csv", "--grid-from", "-1e200"], "grid_from", -1e200),
    ], ids=["window", "synth_from", "candidates", "years", "grid_from"])
    def test_negative_scientific_value_is_a_number(self, argv, dest, value):
        # Before Python 3.13, argparse reads "-1e3" as an option, not a number.
        assert getattr(build_parser().parse_args(argv), dest) == value

    @pytest.mark.parametrize("argv, flag, value", [
        (["diagnose", *F_G_PARAMS, "--grid-from", "-inf"], "--grid-from", "-inf"),
        (["diagnose", *F_G_PARAMS, "--grid-to", "-NaN"], "--grid-to", "-NaN"),
        (["fit", "f.csv", "--grid-from", "-Infinity"], "--grid-from", "-Infinity"),
        (["diagnose", *F_G_PARAMS, "--levels", "2", "-inf"], "--levels", "-inf"),
        (["diagnose", *F_G_PARAMS, "--candidates", "-1e3", "-nan"], "--candidates", "-nan"),
        (["fit", "f.csv", "--window", "-inf", "0"], "--window", "-inf"),
        (["synth", "--a", "1", "--k", "1e-3", "--from", "-nan", "--to", "0"], "--from", "-nan"),
    ], ids=["grid_from", "grid_to", "grid_from_word", "levels", "candidates", "window",
            "synth_from"])
    def test_negative_non_finite_without_equals(self, tmp_path, capsys, argv, flag, value):
        # "-inf" and "-nan" read as values, so the flag's own rule names them; argparse alone
        # reads them as options ("expected one argument", "unrecognized arguments").
        err = self.assert_rejected(tmp_path, capsys, argv, flag)
        assert f"argument {flag}: must be finite, got {value}\n" in err

    def test_help_is_still_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: hypergrowth")

    def test_negative_infinity_still_refused(self, tmp_path, capsys):
        assert main(["diagnose", *F_G_PARAMS, "--grid-from=-inf", "--out-dir", str(tmp_path)]) == 1
        assert "argument --grid-from: must be finite, got -inf" in capsys.readouterr().err

    def test_non_numeric_grid_points_named(self, capsys):
        assert main(["diagnose", *F_G_PARAMS, "--grid-points", "x"]) == 1
        assert "argument --grid-points: invalid int value: 'x'" in capsys.readouterr().err

    def test_two_point_grid_accepted(self, tmp_path, capsys):
        code, _ = run_cli(
            capsys, "diagnose", *F_G_PARAMS, "--grid-points", "2", "--alpha", "0.01",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert len((tmp_path / "gradient_curve.csv").read_text().splitlines()) == 3


def _accepted(name):
    try:
        return _column(name) == name
    except argparse.ArgumentTypeError:
        return False


@settings(max_examples=1000)
@given(names=st.lists(st.text(st.characters(exclude_characters="\0")), min_size=2, max_size=2,
                      unique=True))
def test_accepted_column_names_read_back(tmp_path_factory, names):
    # argv cannot carry a NUL. Every name _column accepts reads back from the header
    # write_csv gives it.
    assume(all(map(_accepted, names)))
    path = tmp_path_factory.getbasetemp() / "columns.csv"
    series = TimeSeries(years=[1500.0, 1600.0, 1700.0], values=[0.5, 0.75, 1.25])
    write_csv(series, path, *names)
    got = parse_csv(path, *names)
    assert got.years.tobytes() == series.years.tobytes()
    assert got.values.tobytes() == series.values.tobytes()


class TestExtremeFlagValues:
    """Flags at the edge of float range fail with their documented exit code.

    No numpy RuntimeWarning may escape: warnings are errors inside main.
    """

    def run_strict(self, capsys, argv):
        capsys.readouterr()  # drop what setup printed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        return code, capsys.readouterr()

    @pytest.mark.parametrize("level", ["inf", "nan"])
    def test_non_finite_level_is_a_usage_error(self, tmp_path, capsys, level):
        f = str(synth_file(tmp_path, "f.csv", F_PARAMS))
        g = str(synth_file(tmp_path, "g.csv", G_PARAMS))
        out_dir = tmp_path / "out"
        argv = ["diagnose", "--gdp", f, "--pop", g, "--levels", level, "--out-dir", str(out_dir)]
        code, captured = self.run_strict(capsys, argv)
        assert code == 1
        assert captured.out == ""
        assert "argument --levels: must be finite" in captured.err
        assert not out_dir.exists()

    def test_overflowing_level_is_a_domain_error(self, tmp_path, capsys):
        f = str(synth_file(tmp_path, "f.csv", F_PARAMS))
        g = str(synth_file(tmp_path, "g.csv", G_PARAMS))
        argv = ["diagnose", "--gdp", f, "--pop", g, "--levels", "1e308", "--out-dir", str(tmp_path)]
        code, captured = self.run_strict(capsys, argv)
        assert code == 3
        assert captured.err == ""
        message = json.loads(captured.out)["error"]["message"]
        assert message.startswith("level 1e+308 is only attained at t=inf")

    @pytest.mark.parametrize("level", ["1e308", "-1e308"])
    def test_level_with_nan_root_is_unattainable(self, tmp_path, capsys, level):
        # level*k_f and level*a_f both overflow, so the closed-form root is inf/inf
        argv = ["diagnose", "--f-a", "4.5", "--f-k", "2", "--g-a", "7", "--g-k", "3.35e-3",
                f"--levels={level}", "--out-dir", str(tmp_path)]
        code, captured = self.run_strict(capsys, argv)
        assert code == 3
        assert captured.err == ""
        error = json.loads(captured.out)["error"]
        assert error["type"] == "NoSolutionError"
        assert error["message"] == (
            f"level {float(level):g} has no representable crossing time before the ratio "
            "domain end (earliest singularity at t_s=2.25)"
        )

    @pytest.mark.parametrize("command", ["fit", "diagnose"])
    def test_overflowing_grid_span_is_a_data_error(self, tmp_path, capsys, command):
        inputs = {"fit": [str(synth_file(tmp_path, "f.csv", F_PARAMS))], "diagnose": F_G_PARAMS}
        argv = [command, *inputs[command], "--grid-from=-1.7e308", "--grid-to=1.7e308",
                "--out-dir", str(tmp_path)]
        code, captured = self.run_strict(capsys, argv)
        assert code == 2
        assert captured.err == ""
        error = json.loads(captured.out)["error"]
        assert error["type"] == "ValidationError"
        assert error["message"] == "grid span from -1.7e+308 to 1.7e+308 overflows float64"

    @pytest.mark.parametrize(
        "extreme, monotone",
        [(["--grid-from=-1e16"], True), (["--grid-from=-1e20"], True),
         (["--grid-from=-1e156"], False), (["--grid-from=-1e200"], False),
         (["--grid-from=-1.7e308"], False), (["--f-a", "1e308", "--f-k", "1"], False)],
        ids=["-1e16", "-1e20", "-1e156", "-1e200", "-1.7e308", "f-a-1e308"],
    )
    def test_far_grid_verdicts_keep_the_sign_of_c(self, tmp_path, capsys, extreme, monotone):
        # Far from both singularities the curves are tiny: they keep the sign of C,
        # or, once a value falls below float64's normal range, the grid is refused.
        params = F_G_PARAMS[4:] if extreme[0] == "--f-a" else F_G_PARAMS
        argv = ["diagnose", *params, *extreme, "--candidates", "--out-dir", str(tmp_path)]
        code, captured = self.run_strict(capsys, argv)
        assert captured.err == ""
        if monotone:
            assert code == 0
            verdicts = {entry["verdict"] for entry in json.loads(captured.out)["monotonicity"].values()}
            assert verdicts == {"monotone_increasing"}
        else:
            assert code == 2
            error = json.loads(captured.out)["error"]
            assert error["type"] == "ValidationError"
            assert error["message"].startswith("ratio gradient ")
            assert "underflows float64" in error["message"]

    @pytest.mark.parametrize(
        "flag, value, exit_code, message",
        [
            ("--k", "1e308", 3, "time at or beyond the singularity guard (singularity at t_s=1e-308)"),
            ("--noise", "3000", 2, "series 'synthetic': non-finite value inf at year 2"),
        ],
    )
    def test_synth_overflow(self, tmp_path, capsys, flag, value, exit_code, message):
        argv = ["synth", "--a", "1", "--k", "0.001", "--from", "0", "--to", "3",
                "--out", str(tmp_path / "s.csv"), "--out-dir", str(tmp_path), flag, value]
        code, captured = self.run_strict(capsys, argv)
        assert code == exit_code
        assert captured.err == ""
        assert json.loads(captured.out)["error"]["message"] == message
        assert not (tmp_path / "s.csv").exists()


SYNTH_F = ["synth", "--a", "4.5", "--k", "2.2e-3", "--from", "0", "--to", "2000", "--step", "100"]
# Each grid below asks for at least 3.4 EiB, more than any 64-bit address space
# holds, so numpy's allocation fails without touching memory.
ADDRESS_SPACE_64 = pytest.mark.skipif(np.iinfo(np.intp).bits != 64, reason="needs a 64-bit intp")
# Ten points between two neighbouring floats: linspace repeats the years.
REPEATING_GRID = ["--grid-from", "1000", "--grid-to", "1000.0000000000001", "--grid-points", "10"]

# A model whose C = 5e-301 makes its curves about 1e-310 at ratio sizes near 0.5.
TINY_K_PARAMS = ["--f-a", "1", "--f-k", "1e-300", "--g-a", "1", "--g-k", "5e-301", "--candidates"]

# (case, argv, exit code, error type[, mark]); {name} is replaced by that input file's path.
FAILURES = [
    ("parse", ["fit", "{bad}"], 2, "ParseError"),
    # "1820,1,041": an unquoted thousands separator is not read as the value 1.
    ("thousands_separator", ["downsample", "{thousands}", "--years", "1700", "1820"],
     2, "ParseError"),
    ("repeated_column", ["fit", "{repeated}"], 2, "ParseError"),
    ("validation", ["downsample", "{f}", "--years", "0", "1234"], 2, "ValidationError"),
    ("insufficient_data", ["fit", "{two_points}"], 2, "InsufficientDataError"),
    ("fit_rejected", ["fit", "{falling}"], 2, "FitRejectedError"),
    ("fit_span", ["fit", "{wide}"], 2, "FitRejectedError"),
    ("singularity_overflow", ["fit", "{far}"], 2, "FitRejectedError"),
    # 123.4 at every year: a line fit's slope would be rounding noise (k = 3.8e-37 here).
    ("fit_constant", ["fit", "{flat}", "--weighting", "size_squared"], 2, "FitRejectedError"),
    # Two values with one reciprocal, 0.5000000000000001: their line is a constant too.
    ("fit_one_reciprocal", ["fit", "{one_reciprocal}", "--weighting", "size_squared"],
     2, "FitRejectedError"),
    ("synth_domain", [*SYNTH_F, "--to", "2100"], 3, "DomainError"),
    ("unattainable_level", ["diagnose", *F_G_PARAMS, "--levels", "1.0"], 3, "NoSolutionError"),
    ("empty_grid", ["fit", "{f}", "--grid-from", "2000", "--grid-to", "1000"], 2, "ValidationError"),
    *[(f"grid_repeats_{argv[0]}", [*argv, *REPEATING_GRID], 2, "ValidationError")
      for argv in (["fit", "{f}"], ["ratio", "{f}", "{g}"], ["diagnose", "--gdp", "{f}", "--pop", "{g}"])],
    ("grid_span_overflow", ["diagnose", *F_G_PARAMS, "--grid-from=-1.7e308", "--grid-to=1.7e308"],
     2, "ValidationError"),
    ("gradient_underflow", ["diagnose", *F_G_PARAMS, "--grid-from=-1e200"], 2, "ValidationError"),
    ("reciprocal_overflow", ["diagnose", "--f-a", "4.5", "--f-k", "10", "--g-a", "7", "--g-k",
                             "3.35e-3", "--grid-from=-1.7e308", "--candidates"], 2, "ValidationError"),
    ("out_dir_is_a_file", ["fit", "{f}", "--out-dir", "{f}"], 2, "FileExistsError"),
    # C = k_f*a_g - k_g*a_f overflows, or underflows, in the values' units.
    ("ratio_terms_overflow", ["ratio", "{tiny_f}", "{tiny_g}"], 2, "UnrepresentableError"),
    ("ratio_terms_underflow", ["ratio", "{huge_f}", "{huge_g}"], 2, "UnrepresentableError"),
    ("diagnose_terms_underflow", ["diagnose", "--gdp", "{huge_f}", "--pop", "{huge_g}"],
     2, "UnrepresentableError"),
    # 1/line overflows inside the singularity guard; the curve check refuses the inf.
    ("fitted_curve_overflow", ["fit", "{huge_f}"], 2, "ValidationError"),
    ("gradient_overflow", ["diagnose", "--f-a", "1e-300", "--f-k", "1e-303", "--g-a", "1e10",
                           "--g-k", "5e6", "--candidates"], 2, "ValidationError"),
    ("levels_span_float64", ["diagnose", *F_G_PARAMS, "--levels", "-1e308", "1e308"],
     3, "NoSolutionError"),
    # Both series and C fit, but their quotient, about 1e600 or 1e-600, does not.
    ("ratio_quotient_overflow", ["ratio", "{hi}", "{lo}"], 2, "UnrepresentableError"),
    ("diagnose_quotient_overflow", ["diagnose", "--gdp", "{hi}", "--pop", "{lo}", "--candidates"],
     2, "UnrepresentableError"),
    ("ratio_quotient_underflow", ["ratio", "{lo}", "{hi}"], 2, "UnrepresentableError"),
    # Three common years, but the third lies past the ratio domain end 3.05051.
    ("ratio_common_years_past_domain", ["ratio", "{n5}", "{d5}"], 2, "InsufficientDataError"),
    # A non-constant model's value, gradient and growth rate are never 0: the
    # curve is refused where one falls below float64's normal range.
    ("ratio_value_underflow", ["ratio", "{f_65}", "{g_tiny}", "--grid-points", "6"],
     2, "ValidationError"),
    ("level_gradient_underflow", ["diagnose", *TINY_K_PARAMS, "--levels", "0.50001"],
     2, "ValidationError"),
    # Next to the asymptote k_g/k_f = 0.5 the root overflows to -inf.
    ("level_root_overflow", ["diagnose", *TINY_K_PARAMS, "--levels", "0.5000000000000001"],
     3, "NoSolutionError"),
    ("grid_unallocatable_fit", ["fit", "{f}", "--grid-points", str(MAX_GRID_POINTS)],
     2, "MemoryError", ADDRESS_SPACE_64),
    ("grid_unallocatable_synth", [*SYNTH_F, "--to", "5e17", "--step", "1"], 2, "MemoryError",
     ADDRESS_SPACE_64),
]

BAD_PARAMS = "need finite positive a, k and a/k, got a=1e+300, k=1e-10"

USAGE_ERRORS = [
    ["frobnicate"],
    ["synth", "--a", "4.5"],
    ["diagnose"],
    ["diagnose", "--gdp", "{f}"],
    ["diagnose", *F_G_PARAMS, "--alpha", "2"],
    ["diagnose", *F_G_PARAMS, "--levels", "inf"],
    ["fit", "{f}", "--grid-points", "1"],
    [*SYNTH_F, "--a", "nan"],
    [*SYNTH_F, "--a", "1e300", "--k", "1e-10"],
    ["diagnose", "--f-a", "1e300", "--f-k", "1e-10", "--g-a", "7", "--g-k", "3.35e-3", "--candidates"],
    ["diagnose", "--gdp", "{f}", "--pop", "{g}", "--candidates", "nan"],
    ["fit", "{f}", "--window", "0", "inf"],
    ["downsample", "{f}", "--years", "nan"],
    [*SYNTH_F, "--noise", "-1"],
    ["diagnose", "--f-a", "1e200", "--f-k", "1e200", "--g-a", "1e200", "--g-k", "1", "--candidates"],
    ["fit", "{f}", "--year-col", "year", "--value-col", "year"],
    [*SYNTH_F, "--year-col", "v", "--value-col", "v"],
    ["fit", "{f}", "--window", "2000", "500"],
]


class TestDefaultGridStart:
    """Without --grid-from a curve grid starts at the earliest first year of the fitted series.

    A command that fits no series starts at 0; an extra break-test series never moves it.
    """

    @staticmethod
    def first_year(path):
        return float(path.read_text().splitlines()[1].split(",")[0])

    @pytest.fixture
    def files(self, tmp_path):
        return {
            "f": synth_file(tmp_path, "f.csv", F_PARAMS, start=200.0),
            "g": synth_file(tmp_path, "g.csv", G_PARAMS, start=100.0),
            "s": synth_file(tmp_path, "s.csv", F_PARAMS, start=-500.0),
        }

    @pytest.mark.parametrize("argv, curve, start", [
        (["fit", "{f}"], "fitted_curve", 200.0),
        (["ratio", "{f}", "{g}"], "ratio_curve", 100.0),
        (["diagnose", "--gdp", "{f}", "--pop", "{g}", "--series", "{s}"], "gradient_curve", 100.0),
        (["diagnose", *F_G_PARAMS], "gradient_curve", 0.0),
    ], ids=["fit", "ratio", "diagnose_pair", "diagnose_params"])
    def test_grid_starts_at_fitted_series(self, tmp_path, capsys, files, argv, curve, start):
        out = tmp_path / "out"
        argv = [a.format(**{k: str(v) for k, v in files.items()}) for a in argv]
        assert main([*argv, "--out-dir", str(out)]) == 0
        assert self.first_year(out / f"{curve}.csv") == start


class TestRefusalEchoesGivenNumber:
    """A refusal prints a number the user gave with the digits that tell it apart."""

    def test_missing_year_next_to_a_present_one(self, tmp_path, capsys):
        data = synth_file(tmp_path, "f.csv", F_PARAMS)  # holds 1300
        capsys.readouterr()
        code, out = run_cli(capsys, "downsample", str(data), "--years", "1300", "1300.0000001",
                            "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert json.loads(out)["error"]["message"].endswith(": 1300.0000001")

    def test_grid_bounds_one_float_apart(self, tmp_path, capsys):
        argv = ["diagnose", *F_G_PARAMS, "--grid-from", "1000", "--grid-to", "1000.0000000000002",
                "--grid-points", "10", "--out-dir", str(tmp_path / "out")]
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"]["message"] == (
            "10 grid points from 1000 to 1000.0000000000002 do not increase"
        )

    @pytest.mark.parametrize("argv, message", [
        (["synth", "--a", "1", "--k", "1e-3", "--from", "100.0000001", "--to", "100"],
         "--to 100 is before --from 100.0000001"),
        (["fit", "f.csv", "--window", "1000.0000001", "1000"],
         "--window HI 1000 is below LO 1000.0000001"),
    ], ids=["synth_to_from", "window"])
    def test_usage_error_names_exact_bound(self, tmp_path, capsys, argv, message):
        assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.endswith(f"error: {message}\n")
        assert not (tmp_path / "out").exists()


class TestEveryFailurePath:
    """Each failure exits with its documented code; stderr stays empty on data and domain errors.

    Runs in process with every warning an error, so no numpy RuntimeWarning can escape.
    """

    @pytest.fixture
    def inputs(self, tmp_path):
        files = {
            "f": synth_file(tmp_path, "f.csv", F_PARAMS),
            "g": synth_file(tmp_path, "g.csv", G_PARAMS),
            "bad": tmp_path / "bad.csv",
            "thousands": tmp_path / "thousands.csv",
            "repeated": tmp_path / "repeated.csv",
            "two_points": tmp_path / "two.csv",
            "falling": tmp_path / "falling.csv",
            "wide": tmp_path / "wide.csv",
            "far": tmp_path / "far.csv",
            "flat": tmp_path / "flat.csv",
            "one_reciprocal": tmp_path / "one_reciprocal.csv",
            "tiny_f": tmp_path / "tiny_f.csv",
            "tiny_g": tmp_path / "tiny_g.csv",
            "huge_f": tmp_path / "huge_f.csv",
            "huge_g": tmp_path / "huge_g.csv",
            "hi": tmp_path / "hi.csv",
            "lo": tmp_path / "lo.csv",
            "n5": tmp_path / "n5.csv",
            "d5": tmp_path / "d5.csv",
            "f_65": synth_file(tmp_path, "f_65.csv", F_PARAMS, stop=1950.0, step=65.0),
            # t_s = 2000, before f's 2045; values near 1e300 put R = f/g near 1e-301 and below
            "g_tiny": synth_file(tmp_path, "g_tiny.csv", HyperbolicParams(7e-301, 3.5e-304),
                                 stop=1950.0, step=65.0),
        }
        files["bad"].write_text("year,value\n1,1\n2,oops\n")
        files["thousands"].write_text("year,value\n1700,603\n1820,1,041\n")
        files["repeated"].write_text("year,value,value\n1,1,5\n2,2,6\n3,3,7\n4,4,8\n")
        files["two_points"].write_text("year,value\n1,1\n2,2\n")
        files["falling"].write_text("year,value\n0,10\n1,6\n2,3\n3,1\n")
        files["wide"].write_text("year,value\n0,1e-200\n1,1e-100\n2,1\n3,1e100\n4,1e200\n")
        # a and k fit (k is 25/26 * 1e-308), but t_s = a/k overflows float64
        files["far"].write_text("year,value\n1e308,1\n1.5e308,2\n1.7e308,3\n")
        files["one_reciprocal"].write_text(
            "year,value\n1500,1.9999999999999996\n1515,1.9999999999999998\n"
            "1530,1.9999999999999998\n1545,1.9999999999999996\n")
        for name, rows in {
            "tiny_f": [(t, repr(1e-200 / (1 - t))) for t in (0, 0.1, 0.2, 0.3, 0.4)],
            "tiny_g": [(t, repr(1e-200 / (1 - 0.1 * t))) for t in (0, 0.1, 0.2, 0.3, 0.4)],
            "huge_f": [(i, "%.6g" % (1e300 * (1 + 0.1 * i))) for i in range(5)],
            "huge_g": [(i, "%.6g" % (1e300 * (1 + 0.05 * i))) for i in range(5)],
            "hi": [(i, repr(1e300 / (1 - 0.1 * i))) for i in range(5)],
            "lo": [(i, repr(1e-300 / (1 - 0.05 * i))) for i in range(5)],
            "n5": [(0, 1), (1, 100), (2, 100), (3, 100), (4, 100)],
            "d5": [(t, repr(1 / (20 - t))) for t in (2, 3, 4)],
            "flat": [(t, 123.4) for t in range(1500, 1951, 15)],
        }.items():
            files[name].write_text("year,value\n" + "".join(f"{t},{v}\n" for t, v in rows))
        return {name: str(path) for name, path in files.items()}

    def run_strict(self, capsys, argv, inputs):
        capsys.readouterr()  # drop what setup printed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([arg.format(**inputs) for arg in argv])
        return code, capsys.readouterr()

    @pytest.mark.parametrize("argv, exit_code, error_type",
                             [pytest.param(*case[1:4], marks=case[4:], id=case[0])
                              for case in FAILURES])
    def test_error_json_on_stdout(self, tmp_path, capsys, inputs, argv, exit_code, error_type):
        own_out_dir = "--out-dir" in argv
        if not own_out_dir:
            argv = [*argv, "--out-dir", str(tmp_path / "out")]
        code, captured = self.run_strict(capsys, argv, inputs)
        assert code == exit_code
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert captured.out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert list(payload) == ["error"]
        assert sorted(payload["error"]) == ["exit_code", "message", "type"]
        assert payload["error"]["type"] == error_type
        assert payload["error"]["exit_code"] == exit_code
        if not own_out_dir:  # every check runs before any file is written
            assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("case, message", [
        ("ratio_value_underflow", "ratio value 0 at year 2000 underflows float64"),
        ("level_gradient_underflow", "ratio gradient 2e-310 at ratio_size 0.50001 underflows"),
        ("level_root_overflow", "level 0.5000000000000001 has no representable crossing time"),
    ])
    def test_model_curve_refusal_names_its_value(self, tmp_path, capsys, inputs, case, message):
        argv = {c[0]: c[1] for c in FAILURES}[case]
        _, captured = self.run_strict(capsys, [*argv, "--out-dir", str(tmp_path)], inputs)
        assert json.loads(captured.out)["error"]["message"].startswith(message)

    @pytest.mark.parametrize("case, message", [
        ("thousands_separator", "line 3: expected 2 fields, got 3"),
        ("repeated_column", "line 1: repeated column 'value' in header ['year', 'value', 'value']"),
    ])
    def test_input_refusal_names_its_line(self, tmp_path, capsys, inputs, case, message):
        argv = {c[0]: c[1] for c in FAILURES}[case]
        _, captured = self.run_strict(capsys, [*argv, "--out-dir", str(tmp_path)], inputs)
        assert json.loads(captured.out)["error"]["message"] == message

    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=lambda argv: " ".join(argv))
    def test_usage_error_writes_nothing(self, tmp_path, capsys, monkeypatch, inputs, argv):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code, captured = self.run_strict(capsys, argv, inputs)
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("usage:")
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        # These two exited 2 with a JSON error before --step and --to/--from were parse-time rules.
        ([*SYNTH_F, "--step", "0"], "argument --step: must be positive and finite, got 0"),
        ([*SYNTH_F, "--to", "-100"], "--to -100 is before --from 0"),
        # A model error names the flags that gave the model.
        ([*SYNTH_F, "--a", "1e300", "--k", "1e-10"], f"--a/--k: {BAD_PARAMS}"),
        (["diagnose", "--f-a", "1e300", "--f-k", "1e-10", "--g-a", "7", "--g-k", "3.35e-3",
          "--candidates"], f"--f-a/--f-k: {BAD_PARAMS}"),
        (["diagnose", "--f-a", "4.5", "--f-k", "2.2e-3", "--g-a", "1e300", "--g-k", "1e-10",
          "--candidates"], f"--g-a/--g-k: {BAD_PARAMS}"),
        (["diagnose", "--f-a", "1e200", "--f-k", "1e200", "--g-a", "1e200", "--g-k", "1",
          "--candidates"],
         "--f-a/--f-k/--g-a/--g-k: need normal floats k_f*a_g and k_g*a_f, got inf and 1e+200"),
        # Two faults each: the rule checked first reports.
        (["fit", "{f}", "--window", "2000", "500", "--year-col", "v", "--value-col", "v"],
         "--window HI 500 is below LO 2000"),
        ([*SYNTH_F, "--a", "1e300", "--k", "1e-10", "--to", "-100"],
         "--to -100 is before --from 0"),
        ([*SYNTH_F, "--a", "1e300", "--k", "1e-10", "--year-col", "v", "--value-col", "v"],
         "--year-col and --value-col are both 'v'"),
        (["diagnose", "--gdp", "{f}", "--f-a", "4.5"], "--gdp and --pop must be given together"),
        (["diagnose", "--gdp", "{f}", "--pop", "{g}", "--f-a", "4.5", "--window", "2000", "500"],
         "give either --gdp/--pop or explicit --f-a/--f-k/--g-a/--g-k"),
        (["diagnose", "--f-a", "4.5", "--window", "2000", "500"],
         "need --gdp/--pop or all of --f-a, --f-k, --g-a, --g-k"),
    ], ids=["synth_step_zero", "synth_to_before_from", "synth_model", "diagnose_f_model",
            "diagnose_g_model", "diagnose_ratio_model", "window_before_columns",
            "to_before_model", "columns_before_model", "gdp_pop_before_params",
            "params_conflict_before_window", "params_missing_before_window"])
    def test_usage_error_message_is_exact(self, tmp_path, capsys, monkeypatch, inputs, argv,
                                          message):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code, captured = self.run_strict(capsys, argv, inputs)
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("usage:")
        assert captured.err.endswith(f"error: {message}\n")
        assert list(work.iterdir()) == []


def child_env(**extra) -> dict:
    """The environment of a child ``python -m hypergrowth.cli`` that imports this package."""
    package_root = str(Path(hypergrowth.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


@pytest.mark.skipif(sys.platform != "linux", reason="needs a file system that takes any name bytes")
@pytest.mark.parametrize("command", ["synth", "downsample"])
def test_output_path_echoed_as_its_bytes(tmp_path, command):
    """A path that is not UTF-8 is printed byte for byte, even to a strict UTF-8 stdout."""
    source = synth_file(tmp_path, "f.csv", F_PARAMS)
    dest = os.fsencode(tmp_path) + b"/o\xff.csv"
    args = {
        "synth": ["synth", "--a", "4.5", "--k", "2.2e-3", "--from", "0", "--to", "100"],
        "downsample": ["downsample", str(source), "--years", "0", "100"],
    }[command]
    result = subprocess.run(
        [sys.executable, "-m", "hypergrowth.cli", *args, "--out", dest, "--out-dir", str(tmp_path)],
        env=child_env(PYTHONIOENCODING="utf-8"),
        capture_output=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == b""
    assert result.stdout == dest + b"\n"
    assert os.path.exists(dest)


@pytest.mark.parametrize("command", ["fit", "synth"])
def test_closed_stdout_exits_2_quietly(tmp_path, command):
    """A stdout pipe whose reader has gone: exit 2, nothing on stderr, the files still written."""
    source = synth_file(tmp_path, "f.csv", F_PARAMS)
    out_dir = tmp_path / "out"
    args = {"fit": ["fit", str(source)], "synth": SYNTH_F}[command]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "hypergrowth.cli", *args, "--out-dir", str(out_dir)],
            env=child_env(), stdout=write_end, stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 2
    assert result.stderr == b""
    written = {"fit": "fit_report.json", "synth": "synthetic.csv"}[command]
    assert (out_dir / written).stat().st_size > 0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_program_run_matches_in_process_main(tmp_path, monkeypatch, capsysbinary, fmt):
    """``python -m hypergrowth.cli``, which freezes the heap first, writes as main(argv) does."""
    synth_file(tmp_path, "f.csv", F_PARAMS, noise=0.01, seed=1)
    synth_file(tmp_path, "g.csv", G_PARAMS, noise=0.01, seed=2)
    capsysbinary.readouterr()  # the paths synth printed
    commands = [["fit", "f.csv"], ["ratio", "f.csv", "g.csv"],
                ["diagnose", "--gdp", "f.csv", "--pop", "g.csv"]]
    runs = {}
    for side in ("main", "program"):
        work = tmp_path / side
        work.mkdir()
        for name in ("f.csv", "g.csv"):
            shutil.copy(tmp_path / name, work / name)
        monkeypatch.chdir(work)
        stdout = []
        for command in commands:
            argv = [*command, "--format", fmt, "--grid-points", "16", "--out-dir", command[0]]
            if side == "main":
                stdout.append((main(argv), capsysbinary.readouterr().out))
            else:
                child = subprocess.run([sys.executable, "-m", "hypergrowth.cli", *argv],
                                       env=child_env(), capture_output=True)
                assert child.stderr == b""
                stdout.append((child.returncode, child.stdout))
        files = {p.relative_to(work): p.read_bytes() for p in work.rglob("*") if p.is_file()}
        runs[side] = stdout, files
    assert [code for code, _ in runs["main"][0]] == [0, 0, 0]
    assert runs["program"] == runs["main"]


@pytest.mark.parametrize("command", [
    ["fit", "f.csv"],
    ["ratio", "f.csv", "g.csv"],
    ["diagnose", "--gdp", "f.csv", "--pop", "g.csv", "--series", "s.csv",
     "--levels", "1.6", "1.8", "2.0"],
    ["diagnose", *F_G_PARAMS, "--levels", "1.6", "1.8", "2.0"],
], ids=["fit", "ratio", "diagnose_pair", "diagnose_params"])
def test_json_tables_hold_the_csv_tables(tmp_path, monkeypatch, capsys, command):
    """Each --format json table has its CSV table's header as keys, and its cells at 12 digits."""
    for seed, (name, params) in enumerate([("f.csv", F_PARAMS), ("g.csv", G_PARAMS),
                                           ("s.csv", F_PARAMS)]):
        synth_file(tmp_path, name, params, noise=0.01, seed=seed)
    monkeypatch.chdir(tmp_path)
    artifacts = {}
    for fmt in ("csv", "json"):
        capsys.readouterr()
        assert main([*command, "--format", fmt, "--grid-points", "64", "--out-dir", fmt]) == 0
        artifacts[fmt] = json.loads(capsys.readouterr().out)["artifacts"]
    assert artifacts["csv"].keys() == artifacts["json"].keys()
    for key, name in artifacts["csv"].items():
        header, *rows = (tmp_path / "csv" / name).read_text().splitlines()
        table = json.loads((tmp_path / "json" / artifacts["json"][key]).read_text())
        assert list(table) == sorted(header.split(","))
        for i, column in enumerate(header.split(",")):
            assert [float(format(v, ".12g")) for v in table[column]] == [
                float(row.split(",")[i]) for row in rows]


@pytest.mark.skipif(shutil.which("hypergrowth") is None, reason="entry point not installed")
def test_console_script_smoke(tmp_path):
    result = subprocess.run(
        [
            "hypergrowth",
            "synth",
            "--a",
            "4.5",
            "--k",
            "2.2e-3",
            "--from",
            "0",
            "--to",
            "500",
            "--step",
            "100",
            "--out",
            str(tmp_path / "s.csv"),
            "--out-dir",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert (tmp_path / "s.csv").exists()
