"""Tests of the benchmark itself: oracles, failure accounting and the tracer.

    python -m pytest bench/test_bench.py

Workloads are shrunk so each test runs the real CLI in a worker process in a
few seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "MC_SMALL", {"n": 1000, "replicates": 20})
    monkeypatch.setattr(workloads, "MC_LARGE", {"n": 20_000, "replicates": 2})
    monkeypatch.setattr(workloads, "SURVEY_ROWS", 3000)
    monkeypatch.setattr(workloads, "ROUNDTRIP_N", 2000)


def _run(name: str, tmp_path: Path, traced: bool = False, periods: int = 2):
    wl = workloads.build(name, 7, tmp_path)
    phase = {"name": "traced" if traced else "timed", "seconds": 0,
             "min_ops": periods * len(wl.slots), "whole_periods": True, "traced": traced}
    result = run.run_worker(wl, SRC, tmp_path, run._child_env(SRC), [phase], timeout=300)
    return wl, result


def _corrupt(path: Path) -> None:
    """Shift the first decimal digit of a checked number by 5."""
    text = path.read_text(encoding="utf-8")
    at = next(text.index(a) + len(a) for a in ('"mean_beta_hat": ', '"point_estimate": ',
                                                "R-squared: ") if a in text)
    dot = text.index(".", at)
    digit = str((int(text[dot + 1]) + 5) % 10)
    path.write_text(text[:dot + 1] + digit + text[dot + 2:], encoding="utf-8")


@pytest.mark.parametrize("name", sorted(workloads.BY_NAME))
def test_every_op_passes_its_oracle_and_a_corrupted_output_fails(name, small, tmp_path):
    wl, result = _run(name, tmp_path)
    ops, first_dir = result["ops"], result["first_dir"]
    assert len(ops) == 2 * len(wl.slots)
    failed, problems = run.account(wl, ops, first_dir)
    assert (failed, problems) == (0, [])

    # a corrupted number in one slot's output fails both ops of that slot
    _corrupt(first_dir / f"0-{Path(wl.slots[0].calls[-1].output).name}")
    failed, problems = run.account(wl, ops, first_dir)
    assert failed == 2, problems
    assert all(p.startswith("slot 0 ") for p in problems)


def test_nonzero_exit_and_nondeterministic_bytes_count_as_failed(small, tmp_path):
    wl, result = _run("mc-small", tmp_path)
    ops = [dict(op) for op in result["ops"]]
    ops[-1]["codes"] = [3]
    ops[-2]["digest"] = "0" * 64
    failed, problems = run.account(wl, ops, result["first_dir"])
    assert failed == 2
    assert any("exited [3]" in p for p in problems)
    assert any("differs from its first run" in p for p in problems)


def test_text_report_parses_to_the_json_report(small, tmp_path):
    wl, result = _run("survey-csv", tmp_path, periods=1)
    first = result["first_dir"]
    by_kind = {}
    for slot, s in enumerate(wl.slots):
        call = s.calls[0]
        path = first / f"{slot}-{Path(call.output).name}"
        by_kind.setdefault(call.check["kind"], {})[call.check["format"]] = \
            checks.read_output(path.read_text(encoding="utf-8"), call.check["format"])
    for kind, both in by_kind.items():
        assert both["text"].keys() == both["json"].keys(), kind
        assert checks.compare(both["json"], both["text"], "text") == [], kind


def test_replicate_oracle_rejects_a_wrong_population_block():
    spec = checks.PRESETS["study1"]
    model = checks.population(spec)
    se = (model["residual_variance"] / (1000 * model["var_a_given_x"])) ** 0.5
    cov = model["cov"]
    report = {"config": {"spec": spec, "n": 1000, "replicates": 4, "seed": 1},
              "strata": [{"population": {
                  "beta_true": 2.4, "beta_y_on_ax": model["beta_y_on_ax"],
                  "bias": model["beta_y_on_ax"] - 2.4,
                  "moments": {"var_u": 1.0, "var_x": cov[1, 1], "var_a": cov[2, 2],
                              "cov_a_x": cov[2, 1], "cov_a_u": cov[2, 0],
                              "cov_a_eps_x": 0.0, "var_eps_x": 0.25}},
                  "replicates": {"count": 4, "n": 1000, "mean_beta_hat": model["beta_y_on_ax"],
                                 "sd_beta_hat": se, "mean_std_error": se,
                                 "mean_partial_r2": 0.5, "mean_rv_q": 0.6,
                                 "mean_rv_q_alpha": 0.5}}]}
    check = {"preset": "study1", "n": 1000, "replicates": 4, "seed": 1}
    assert checks.check_replicates(json.dumps(report), check) == []
    report["strata"][0]["population"]["moments"]["var_a"] += 1e-6
    report["strata"][0]["replicates"]["mean_beta_hat"] += 10 * se
    problems = checks.check_replicates(json.dumps(report), check)
    assert len(problems) == 2, problems


def _counts(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items()
            if not k.endswith(("_ms", "overhead_frac", "cli.output.bytes"))}


@pytest.mark.parametrize("name", ["mc-small", "survey-csv"])
def test_traced_counts_repeat_exactly(name, small, tmp_path):
    counts = []
    for k in range(2):
        tmp = tmp_path / str(k)
        tmp.mkdir()
        _, result = _run(name, tmp, traced=True, periods=1 + k)
        spans = json.loads((tmp / "spans.json").read_text(encoding="utf-8"))
        ops = len(result["ops"])
        metrics, _ = tracer.summarise(spans, ops, 1.0, 0.0, result["missing"])
        assert result["missing"] == []
        assert set(metrics) == set(tracer.PER_LAYER)
        counts.append(_counts(metrics))
    assert counts[0] == counts[1]
    if name == "survey-csv":
        assert counts[0]["ratio_ci.exposure_fits_per_interval"] == 2.0
        assert counts[0]["logit.irls_iterations"] > 0
    else:
        # three p-values per fit plus the Newton steps of one t quantile
        per_fit = counts[0]["distributions.t_cdf.calls"] / counts[0]["ols.fit_ols.calls"]
        assert per_fit == 3 + counts[0]["distributions.cdf_evals_per_quantile"]


def test_tracer_wraps_every_holder_and_skips_a_missing_target(monkeypatch):
    from confound_lens import cli, ols, ratio_ci, simulate
    original = ols.fit_ols
    monkeypatch.delattr(ols, "vif")
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.fit_ols is simulate.fit_ols is ratio_ci.fit_ols is ols.fit_ols
        assert ols.fit_ols is not original
        assert t.missing == ["confound_lens.ols.vif"]
    finally:
        t.restore()
    assert cli.fit_ols is original
    metrics, _ = tracer.summarise([], 1, 0.0, 0.0, t.missing)
    assert "ols.vif.calls" not in metrics and "ols.fit_ols.calls" in metrics


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(k, unit, better) for k, (unit, better, _) in tracer.PER_LAYER.items()]
    ops = [{"phase": "timed", "slot": 0, "ms": 10.0 + k} for k in range(40)]
    wl = workloads.Workload("mc-small", 0, [workloads.Slot((), 5)], {})
    metrics, _ = run.end_to_end(wl, ops, 1024, 0.5)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: v["unit"] for k, v in metrics.items()}
    assert metrics["op_tail_ms"]["value"] == 39.0  # nearest-rank p75 of 10..49
