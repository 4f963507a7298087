import json
import shutil
import subprocess

import numpy as np
import pytest

from hypergrowth.cli import main

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
        assert report["schema_version"] == 1
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_weights_exit_2(self, tmp_path, capsys):
        # y**2 overflows to inf near 1e196, so the weighted fit is NaN.
        data = tmp_path / "huge.csv"
        rows = "".join(f"{i},{1e196 * (1 + 0.1 * i):.6g}\n" for i in range(5))
        data.write_text("year,value\n" + rows)
        code, out = run_cli(
            capsys, "fit", str(data), "--weighting", "size_squared", "--out-dir", str(tmp_path)
        )
        assert code == 2
        assert json.loads(out)["error"]["type"] == "FitRejectedError"

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
        assert set(report["break_tests"]) == {"f", "g"}
        for scans in report["break_tests"].values():
            assert [s["candidate_year"] for s in scans] == [1750.0, 1870.0]
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
    """Bad --grid-points, --alpha, --grid-from/--grid-to fail in argparse.

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
