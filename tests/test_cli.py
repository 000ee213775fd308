import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confound_lens import (Dataset, cli, collinearity_ratio, exposure_stats_from_ols,
                           fit_ols, robustness_value, TreatmentSummary)
from confound_lens.cli import main
from confound_lens.ingest import dataset_to_csv

FIXTURE = str(Path(__file__).resolve().parent.parent / "data" / "nhanes_synthetic.csv")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def _floats_in_json(node):
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        yield float(node)
    elif isinstance(node, dict):
        for v in node.values():
            yield from _floats_in_json(v)
    elif isinstance(node, list):
        for v in node:
            yield from _floats_in_json(v)


class TestSensitivitySummaryMode:
    def test_reference_values_print_exactly(self, capsys):
        code, out, err = run_cli(capsys, "sensitivity", "--t", "64.27081",
                                 "--df", "997")
        assert code == 0
        assert "0.80557" in out
        assert "0.83266" in out
        assert "0.82515" in out

    def test_second_reference_block(self, capsys):
        report = run_json(capsys, "sensitivity", "--t", "65.7786", "--df", "997")
        stats = report["strata"][0]["sensitivity"]
        assert stats["partial_r2"] == pytest.approx(0.81273, abs=5e-5)
        assert stats["rv_q"] == pytest.approx(0.83813, abs=5e-5)
        assert stats["rv_q_alpha"] == pytest.approx(0.83096, abs=5e-5)

    def test_requires_both_t_and_df(self, capsys):
        code, _, err = run_cli(capsys, "sensitivity", "--t", "4.0")
        assert code == 1
        assert "both" in err

    def test_data_mode_agrees_with_summary_mode_exactly(self, capsys, tmp_path):
        csv_path = tmp_path / "sim.csv"
        code, _, _ = run_cli(capsys, "simulate", "--preset", "study1",
                             "--n", "400", "--seed", "5",
                             "--output", str(csv_path))
        assert code == 0
        data_report = run_json(capsys, "sensitivity", "--input", str(csv_path),
                               "--outcome", "y", "--exposure", "a",
                               "--controls", "x", "--deterministic")
        block = data_report["strata"][0]
        t = block["treatment"]["t_value"]
        df = block["treatment"]["df"]
        summary_report = run_json(capsys, "sensitivity", "--t", repr(t),
                                  "--df", str(df), "--deterministic")
        assert summary_report["strata"][0]["sensitivity"] == block["sensitivity"]


class TestSimulate:
    def test_csv_output_shape(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--preset", "study2",
                               "--n", "7", "--seed", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "u,x,a,y"
        assert len(lines) == 8

    def test_same_seed_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "simulate", "--preset", "study1",
                             "--n", "50", "--seed", "9")
        _, out2, _ = run_cli(capsys, "simulate", "--preset", "study1",
                             "--n", "50", "--seed", "9")
        assert out1 == out2

    def test_json_spec_file(self, capsys, tmp_path):
        spec_path = tmp_path / "model.json"
        spec_path.write_text(json.dumps({
            "beta": 1.0, "gamma": 0.5, "theta_x": 0.0, "a_on_u": 1.0,
            "a_noise_sd": 0.5, "x_noise_sd": 0.5, "y_noise_sd": 1.0,
        }), encoding="utf-8")
        code, out, _ = run_cli(capsys, "simulate", "--preset", str(spec_path),
                               "--n", "5", "--seed", "2")
        assert code == 0
        assert out.splitlines()[0] == "u,x,a,y"

    def test_bad_json_spec_is_parse_error(self, capsys, tmp_path):
        spec_path = tmp_path / "broken.json"
        spec_path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(capsys, "simulate", "--preset", str(spec_path))
        assert code == 2

    def test_unknown_preset_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--preset", "study99")
        assert code == 1
        assert "study1" in err

    def test_replicates_report(self, capsys):
        report = run_json(capsys, "simulate", "--preset", "study2", "--n", "300",
                          "--seed", "3", "--replicates", "8", "--deterministic")
        block = report["strata"][0]
        assert block["replicates"]["count"] == 8
        assert block["population"]["bias"] == pytest.approx(0.2 / 0.69, abs=1e-12)
        decomp = block["population"]["bias_decomposition"]
        assert decomp["bias"] == pytest.approx(
            decomp["factor_gamma"] * decomp["factor_proxy_noise"]
            * decomp["factor_collinearity"], abs=0)


class TestPipeline:
    def test_simulate_piped_into_sensitivity_via_stdin(self, capsys, monkeypatch):
        code, csv_text, _ = run_cli(capsys, "simulate", "--preset", "study2",
                                    "--n", "1000", "--seed", "7")
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(csv_text))
        report = run_json(capsys, "sensitivity", "--input", "-",
                          "--outcome", "y", "--exposure", "a",
                          "--controls", "x", "--deterministic")
        rv = report["strata"][0]["sensitivity"]["rv_q"]
        assert rv == pytest.approx(0.83813, abs=0.01)


class TestFitAndLogit:
    def test_fit_on_fixture_stratified(self, capsys):
        report = run_json(capsys, "fit", "--input", FIXTURE,
                          "--outcome", "smoker", "--exposure", "poverty_index",
                          "--controls", "age,education_grade",
                          "--stratify", "sex", "--deterministic")
        assert {b["stratum"] for b in report["strata"]} == {"Male", "Female"}
        for block in report["strata"]:
            assert block["ols"]["df_residual"] == block["ols"]["n"] - 4
            assert set(block["ols"]["vif"]) == {"poverty_index", "age",
                                                "education_grade"}

    def test_logit_on_fixture(self, capsys):
        report = run_json(capsys, "logit", "--input", FIXTURE,
                          "--outcome", "smoker",
                          "--controls", "age,race:Black,race:Other,"
                                        "education_grade,poverty_index",
                          "--stratify", "sex", "--deterministic")
        for block in report["strata"]:
            logit = block["logit"]
            assert logit["converged"] is True
            assert 0.5 < logit["c_statistic_in_sample"] < 1.0


PARITY_ARGV = {
    "fit": ("fit", "--input", FIXTURE, "--outcome", "smoker",
            "--exposure", "poverty_index", "--controls", "age"),
    "logit-stratified": ("logit", "--input", FIXTURE, "--outcome", "smoker",
                         "--controls", "age,race:Black,race:Other,"
                                       "education_grade,poverty_index",
                         "--stratify", "sex"),
    "sensitivity": ("sensitivity", "--input", FIXTURE, "--outcome", "smoker",
                    "--exposure", "poverty_index", "--controls", "age,education_grade"),
    "sensitivity-summary": ("sensitivity", "--t", "2.5", "--df", "40",
                            "--estimate", "1.25", "--se", "0.5"),
    "ratio-ci-stratified": ("ratio-ci", "--input", FIXTURE, "--exposure", "smoker",
                            "--proxy", "poverty_index", "--controls", "age,education_grade",
                            "--stratify", "sex"),
    "simulate-replicates": ("simulate", "--preset", "study2", "--n", "300", "--seed", "3",
                            "--replicates", "8"),
}


class TestTextJsonParity:
    @pytest.mark.parametrize("name", list(PARITY_ARGV))
    def test_text_json_parity(self, capsys, name):
        code, text, _ = run_cli(capsys, *PARITY_ARGV[name], "--deterministic")
        assert code == 0
        report = run_json(capsys, *PARITY_ARGV[name], "--deterministic")
        printed = set(re.findall(r"-?\d+\.\d{5}\b", text))
        assert printed
        json_renderings = {f"{v:.5f}" for v in _floats_in_json(report["strata"])}
        json_renderings |= {str(int(v)) for v in _floats_in_json(report["strata"])}
        missing = {p for p in printed if p not in json_renderings}
        assert not missing, f"text numbers absent from JSON: {missing}"


class TestRatioCiCommand:
    def test_stratified_intervals(self, capsys):
        report = run_json(capsys, "ratio-ci", "--input", FIXTURE,
                          "--exposure", "smoker", "--proxy", "poverty_index",
                          "--controls", "age,education_grade",
                          "--stratify", "sex", "--level", "0.95",
                          "--deterministic")
        for block in report["strata"]:
            rc = block["ratio_ci"]
            assert rc["lower"] <= rc["point_estimate"] <= rc["upper"]
            assert rc["component_level"] == pytest.approx(0.975)
            assert rc["variance_interval"][0] > 0

    def test_bad_level(self, capsys):
        code, _, err = run_cli(capsys, "ratio-ci", "--input", FIXTURE,
                               "--exposure", "smoker", "--proxy", "poverty_index",
                               "--level", "1.5")
        assert code == 1


class TestBiasGridMatchesRatioCi:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(10, 300),
           exponents=st.tuples(st.floats(-3, 3), st.floats(-3, 3)))
    def test_same_ratio_bit_for_bit(self, seed, n, exponents):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n)
        a = rng.normal() * x + rng.normal(size=n)
        data = Dataset.from_columns({"a": a * 10.0 ** exponents[0],
                                     "x": x * 10.0 ** exponents[1]})
        with tempfile.TemporaryDirectory() as tmp:
            csv_path, grid, report = (str(Path(tmp) / name)
                                      for name in ("data.csv", "grid.csv", "ci.json"))
            with open(csv_path, "w", encoding="utf-8") as fh:
                dataset_to_csv(data, fh)
            common = ("--input", csv_path, "--exposure", "a", "--proxy", "x")
            assert main(["bias-grid", *common, "--gamma-grid", "1", "--eps-grid", "1",
                         "--output", grid]) == 0
            assert main(["ratio-ci", *common, "--format", "json", "--output", report]) == 0
            bias = float(Path(grid).read_text().splitlines()[1].split(",")[2])
            strata = json.loads(Path(report).read_text())["strata"]
        assert bias == strata[0]["ratio_ci"]["point_estimate"]
        assert bias == collinearity_ratio(exposure_stats_from_ols(fit_ols(data, "a", ["x"]), "x"))


class TestBiasGrid:
    def test_zero_gamma_grid_gives_zero_bias(self, capsys, tmp_path):
        csv_path = tmp_path / "sim.csv"
        run_cli(capsys, "simulate", "--preset", "study1", "--n", "500",
                "--seed", "1", "--output", str(csv_path))
        code, out, _ = run_cli(capsys, "bias-grid", "--input", str(csv_path),
                               "--exposure", "a", "--proxy", "x",
                               "--gamma-grid", "0", "--eps-grid", "0,0.25,1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "gamma,var_eps_x,bias"
        assert len(lines) == 4
        assert all(line.split(",")[2] == "0.0" for line in lines[1:])

    def test_grid_values_scale_linearly(self, capsys, tmp_path):
        csv_path = tmp_path / "sim.csv"
        run_cli(capsys, "simulate", "--preset", "study1", "--n", "500",
                "--seed", "1", "--output", str(csv_path))
        code, out, _ = run_cli(capsys, "bias-grid", "--input", str(csv_path),
                               "--exposure", "a", "--proxy", "x",
                               "--gamma-grid", "1,2", "--eps-grid", "0.25")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert float(rows[1][2]) == pytest.approx(2 * float(rows[0][2]), rel=1e-12)

    def test_linspace_grid_syntax(self, capsys, tmp_path):
        csv_path = tmp_path / "sim.csv"
        run_cli(capsys, "simulate", "--preset", "study2", "--n", "200",
                "--seed", "2", "--output", str(csv_path))
        code, out, _ = run_cli(capsys, "bias-grid", "--input", str(csv_path),
                               "--exposure", "a", "--proxy", "x",
                               "--gamma-grid", "0:2:5", "--eps-grid", "0.5")
        assert code == 0
        assert len(out.strip().splitlines()) == 6


class TestDeterminismAndOutput:
    def test_deterministic_json_is_byte_identical(self, capsys):
        args = ("sensitivity", "--t", "10.0", "--df", "500",
                "--format", "json", "--deterministic")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_timestamp_present_without_deterministic_flag(self, capsys):
        report = run_json(capsys, "sensitivity", "--t", "10.0", "--df", "500")
        assert "generated_at" in report
        deterministic = run_json(capsys, "sensitivity", "--t", "10.0",
                                 "--df", "500", "--deterministic")
        assert "generated_at" not in deterministic

    def test_json_round_trips(self, capsys):
        report = run_json(capsys, "sensitivity", "--t", "5.0", "--df", "99",
                          "--deterministic")
        assert json.loads(json.dumps(report)) == report
        assert report["report_version"] == 1

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "sensitivity", "--t", "5.0", "--df", "99",
                               "--format", "json", "--output", str(out_path))
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["command"] == "sensitivity"


class TestExitCodes:
    def test_usage_missing_input(self, capsys):
        code, _, _ = run_cli(capsys, "fit", "--outcome", "y", "--controls", "x")
        assert code == 1

    def test_usage_unknown_column(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--input", FIXTURE,
                               "--outcome", "nope", "--controls", "age")
        assert code == 1
        assert "nope" in err

    def test_usage_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "fit", "--input", "/does/not/exist.csv",
                             "--outcome", "y", "--controls", "x")
        assert code == 1

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n3\n", encoding="utf-8")
        code, _, _ = run_cli(capsys, "fit", "--input", str(bad),
                             "--outcome", "a", "--controls", "b")
        assert code == 2

    def test_rank_deficiency_exit_3(self, capsys, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("y,x1,x2\n1,1,2\n2,2,4\n3,3,6\n4,4.5,9\n5,5,10\n",
                        encoding="utf-8")
        code, _, _ = run_cli(capsys, "fit", "--input", str(path),
                             "--outcome", "y", "--controls", "x1,x2")
        assert code == 3

    def test_degenerate_exposure_exit_3_from_ratio_ci_and_bias_grid(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.normal(size=2000)
        five = np.arange(1.0, 6.0)
        tables = {
            "collinear": {"a": x + 1e-7 * rng.normal(size=2000), "x": x},  # 1 - R^2 ~ 1e-14
            "exact": {"a": 2.0 * five, "x": five},  # residual variance exactly 0
            "constant": {"a": np.full(5, 3.0), "x": five},  # Var(A) = 0
            "constant-0.1": {"a": np.full(7, 0.1), "x": np.arange(7.0)},  # mean(a) != 0.1
        }
        for name, columns in tables.items():
            path = tmp_path / f"{name}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                dataset_to_csv(Dataset.from_columns(columns), fh)
            common = ("--input", str(path), "--exposure", "a", "--proxy", "x")
            results = [run_cli(capsys, "ratio-ci", *common),
                       run_cli(capsys, "bias-grid", *common, "--gamma-grid", "1",
                               "--eps-grid", "1")]
            assert [(code, out) for code, out, _ in results] == [(3, ""), (3, "")], name
            assert results[0][2] == results[1][2]
            assert "ratio is unbounded" in results[0][2], name

    def test_separation_exit_4(self, capsys, tmp_path):
        path = tmp_path / "sep.csv"
        path.write_text("y,x\n0,-2\n0,-1\n1,1\n1,2\n", encoding="utf-8")
        code, _, _ = run_cli(capsys, "logit", "--input", str(path),
                             "--outcome", "y", "--controls", "x")
        assert code == 4

    @pytest.mark.parametrize("flag, argv", [
        ("--q", ("sensitivity", "--t", "5", "--df", "99", "--q", "nan")),
        ("--q", ("sensitivity", "--t", "5", "--df", "99", "--q", "inf")),
        ("--alpha", ("simulate", "--preset", "study1", "--n", "5", "--alpha", "7")),
        ("--n", ("simulate", "--preset", "study1", "--n", "0")),
        ("--seed", ("simulate", "--preset", "study1", "--seed", "-1")),
        ("--replicates", ("simulate", "--preset", "study1", "--replicates", "0")),
        ("--level", ("ratio-ci", "--input", FIXTURE, "--exposure", "smoker",
                     "--proxy", "poverty_index", "--level", "1.5")),
        ("--eps-grid", ("bias-grid", "--input", "/does/not/exist.csv", "--exposure", "a",
                        "--proxy", "x", "--eps-grid", "0,-1")),
        ("--t", ("sensitivity", "--t", "nan", "--df", "40")),
        ("--t", ("sensitivity", "--t", "inf", "--df", "40")),
        ("--df", ("sensitivity", "--t", "2.5", "--df", "0")),
        ("--estimate", ("sensitivity", "--t", "5", "--df", "99", "--estimate", "nan",
                        "--se", "1", "--format", "json")),
        ("--se", ("sensitivity", "--t", "5", "--df", "99", "--estimate", "1", "--se", "inf")),
        ("--gamma-grid", ("bias-grid", "--input", "/does/not/exist.csv", "--exposure", "a",
                          "--proxy", "x", "--gamma-grid", "nan")),
        ("--eps-grid", ("bias-grid", "--input", "/does/not/exist.csv", "--exposure", "a",
                        "--proxy", "x", "--eps-grid", "inf")),
        ("--seed", ("simulate", "--preset", "study1", "--n", "5",
                    "--seed", "18446744073709551616")),
    ], ids=["q-nan", "q-inf", "simulate-csv-alpha", "n", "seed", "replicates", "level",
            "eps-grid", "t-nan", "t-inf", "df-0", "estimate-nan", "se-inf", "gamma-grid-nan",
            "eps-grid-inf", "seed-2^64"])
    def test_bad_flag_value_is_usage_error(self, capsys, flag, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: argument {flag}: ")

    @pytest.mark.parametrize("flags", [("--format", "json"), ("--format", "text"),
                                       ("--deterministic",)], ids=" ".join)
    def test_bias_grid_rejects_report_flags_before_reading_input(self, capsys, flags):
        code, out, err = run_cli(capsys, "bias-grid", "--input", "/does/not/exist.csv",
                                 "--exposure", "a", "--proxy", "x", *flags)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err

    def test_bad_flag_value_precedes_bad_spec_file(self, capsys, tmp_path):
        spec_path = tmp_path / "broken.json"
        spec_path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(capsys, "simulate", "--preset", str(spec_path), "--n", "0")
        assert code == 1
        assert "argument --n" in err

    def test_bias_grid_rejects_stratify_before_reading_input(self, capsys):
        code, _, err = run_cli(capsys, "bias-grid", "--input", "/does/not/exist.csv",
                               "--exposure", "a", "--proxy", "x", "--stratify", "sex")
        assert code == 1
        assert "--stratify" in err

    def test_unexpected_failure_exit_5_without_traceback(self, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 29.1 PiB")

        monkeypatch.setattr(cli, "generate", out_of_memory)
        code, out, err = run_cli(capsys, "simulate", "--preset", "study1",
                                 "--n", "1000000000000000")
        assert code == 5
        assert out == ""
        assert err == "error: MemoryError: Unable to allocate 29.1 PiB\n"
