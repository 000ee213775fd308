"""Acceptance suite: one test per release criterion, each printing a PASS
line (run with `pytest tests/test_acceptance.py -v -s`).

Tolerances are pinned here and nowhere else; timing limits are asserted with
perf_counter around the measured section only.
"""

import io
import json
import math
import sys
import time

import numpy as np
import pytest

from confound_lens import (Dataset, ExposureModelStats, ProxyModel, STUDY_PRESETS,
                           TreatmentSummary, attenuation_slope, c_statistic,
                           chisq_cdf, chisq_quantile, collinearity_ratio,
                           conservative_ratio_ci, exposure_stats_from_ols,
                           fit_logit, fit_ols, general_bias, generate, normal_cdf,
                           normal_quantile, partial_r2, population_ols_bias,
                           decompose_bias,
                           replicate_study, robustness_value,
                           robustness_value_alpha, t_cdf, t_quantile)
from confound_lens.cli import main
from confound_lens.simulate import exposure_stats_from_moments, population_moments

import oracles


def _report(name: str, detail: str = "") -> None:
    print(f"\nACCEPTANCE {name}: PASS {detail}".rstrip())


def test_criterion_1_reference_sensitivity_block_exact():
    """Two (t, df) pairs reproduce the six anchor statistics to 5e-5,
    in under a millisecond."""
    ts1 = TreatmentSummary(t_value=64.27081, df=997)
    ts2 = TreatmentSummary(t_value=65.7786, df=997)

    def block():
        return (partial_r2(ts1), robustness_value(ts1, 1.0),
                robustness_value_alpha(ts1, 1.0, 0.05),
                partial_r2(ts2), robustness_value(ts2, 1.0),
                robustness_value_alpha(ts2, 1.0, 0.05))

    block()  # warm-up, outside the timed window
    elapsed = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        values = block()
        elapsed = min(elapsed, time.perf_counter() - t0)

    expected = (0.80557, 0.83266, 0.82515, 0.81273, 0.83813, 0.83096)
    for got, want in zip(values, expected):
        assert got == pytest.approx(want, abs=5e-5)
    assert elapsed < 1e-3, f"six statistics took {elapsed * 1e3:.3f} ms"
    _report("criterion 1", f"(block in {elapsed * 1e6:.0f} us)")


def test_criterion_2_population_bias_oracle_equivalence():
    """Preset population biases hit their closed-form values, the factored
    decomposition agrees to 1e-12, and a Monte Carlo fit at n = 1e6 lands
    within 3 standard errors.  Under 30 s."""
    t0 = time.perf_counter()
    expected = {"study1": (0.8 / 0.8025, 2.4), "study2": (0.2 / 0.69, 3.0)}
    printed = {"study1": 0.996885, "study2": 0.289855}
    for name, (bias_true, beta_true) in expected.items():
        spec = STUDY_PRESETS[name]
        bias = population_ols_bias(spec)
        assert bias == pytest.approx(bias_true, abs=1e-12)
        assert bias == pytest.approx(printed[name], abs=5e-7)

        m = population_moments(spec)
        decomposed = decompose_bias(
            ProxyModel(gamma=spec.gamma, var_eps_x=m.var_eps_x),
            exposure_stats_from_moments(m))
        assert abs(decomposed.bias - bias) <= 1e-12

        data = generate(spec, 10 ** 6, 2026)
        fit = fit_ols(data, "y", ["a", "x"])
        mc_bias = fit.coefficient("a") - beta_true
        assert mc_bias == pytest.approx(bias, abs=3 * fit.std_error("a"))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report("criterion 2", f"({elapsed:.1f} s)")


def test_criterion_3_general_form_reduction():
    """With zero proxy-exposure noise covariance the general bias equals the
    factored bias exactly on 1000 random parameter draws; the cancelling
    covariance kills the bias to 1e-12."""
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 1000:
        gamma = float(rng.uniform(-5, 5))
        var_eps = float(rng.uniform(0, 5))
        cov_ax = float(rng.uniform(-3, 3))
        var_x = float(rng.uniform(0.1, 5))
        var_a = float(rng.uniform(0.1, 5))
        r2 = cov_ax ** 2 / (var_a * var_x)
        if r2 >= 1.0 - 1e-9:
            continue
        exposure = ExposureModelStats(beta_a_on_x=cov_ax / var_x,
                                      residual_variance=var_a * (1 - r2), r2_a_on_x=r2)
        proxy = ProxyModel(gamma=gamma, var_eps_x=var_eps, cov_a_eps_x=0.0)
        assert general_bias(proxy, exposure) == \
            decompose_bias(proxy, exposure).bias
        checked += 1

    # numerator cancellation: Cov(A, eps_X) = Var(eps_X) * beta_AX
    for _ in range(200):
        var_eps = float(rng.uniform(0.01, 2))
        cov_ax = float(rng.uniform(-1, 1))
        var_x = float(rng.uniform(0.5, 3))
        var_a = float(rng.uniform(0.5, 3))
        r2 = cov_ax ** 2 / (var_a * var_x)
        if r2 >= 1.0 - 1e-9:
            continue
        beta_ax = cov_ax / var_x
        cov_a_eps = var_eps * beta_ax
        if abs(cov_a_eps) > math.sqrt(var_eps * var_a):
            continue
        proxy = ProxyModel(gamma=2.0, var_eps_x=var_eps, cov_a_eps_x=cov_a_eps)
        exposure = ExposureModelStats(beta_a_on_x=beta_ax, residual_variance=var_a * (1 - r2),
                                      r2_a_on_x=r2)
        assert abs(general_bias(proxy, exposure)) <= 1e-12
    _report("criterion 3")


def test_criterion_4_single_draw_plausibility():
    """200 replicates of the first study at n = 1000: the replicate mean sits
    within 0.02 of the population coefficient 3.3969, and the single-draw
    anchor estimate 3.48138 lies within 3 of its quoted SEs (0.05417) of
    that mean.  Under 60 s."""
    t0 = time.perf_counter()
    summary = replicate_study(STUDY_PRESETS["study1"], 1000, 200, seed=7)
    elapsed = time.perf_counter() - t0
    assert abs(summary.mean_beta_hat - 3.3969) < 0.02
    assert abs(3.48138 - summary.mean_beta_hat) < 3 * 0.05417
    assert elapsed < 60.0
    _report("criterion 4",
            f"(mean {summary.mean_beta_hat:.5f}, {elapsed:.1f} s)")


def test_criterion_5_attenuation_by_simulation():
    """Noisy-regressor slope at n = 1e6: beta=2, Var(X*)=1, Var(eps_X)=1
    attenuates to 1.00 within 0.01."""
    from confound_lens import DgpSpec
    spec = DgpSpec(beta=0.0, gamma=2.0, theta_x=0.0, a_on_u=0.0,
                   a_noise_sd=1.0, x_noise_sd=1.0, y_noise_sd=1.0)
    data = generate(spec, 10 ** 6, 1114)
    fit = fit_ols(data, "y", ["x"])
    predicted = attenuation_slope(2.0, 1.0, 1.0)
    assert predicted == 1.0
    assert fit.coefficient("x") == pytest.approx(1.0, abs=0.01)
    _report("criterion 5", f"(slope {fit.coefficient('x'):.4f})")


def test_criterion_6_ratio_ci_coverage():
    """500 replicates of the second study's exposure model at n = 10_000:
    empirical coverage of the true ratio 0.4/0.69 is at least 95% minus two
    Monte Carlo SEs; nesting and point containment hold on every replicate.
    Under 5 minutes."""
    t0 = time.perf_counter()
    spec = STUDY_PRESETS["study2"]
    true_ratio = 0.4 / 0.69
    replicates = 500
    covered = 0
    for r in range(replicates):
        data = generate(spec, 10_000, 60_000 + r)
        fit = fit_ols(data, "a", ["x"])
        interval = conservative_ratio_ci(fit, "x", 0.95)
        wide = conservative_ratio_ci(fit, "x", 0.99)
        point = collinearity_ratio(exposure_stats_from_ols(fit, "x"))
        assert interval.lower <= point <= interval.upper
        assert wide.lower <= interval.lower and interval.upper <= wide.upper
        if interval.lower <= true_ratio <= interval.upper:
            covered += 1
    coverage = covered / replicates
    mc_se = math.sqrt(0.95 * 0.05 / replicates)
    elapsed = time.perf_counter() - t0
    assert coverage >= 0.95 - 2 * mc_se, f"coverage {coverage:.3f}"
    assert elapsed < 300.0
    _report("criterion 6", f"(coverage {coverage:.3f}, {elapsed:.0f} s)")


def test_criterion_7_engine_oracle_equivalence():
    """OLS matches raw normal equations, the logistic fit matches a
    finite-difference Newton maximizer of the explicit likelihood (1e-6),
    and the C-statistic equals exhaustive pairwise concordance at n <= 50."""
    rng = np.random.default_rng(47)
    for _ in range(10):
        n = int(rng.integers(8, 21))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        cols = {f"x{j}": X[:, j] for j in range(p)}
        cols["y"] = y
        fit = fit_ols(Dataset.from_columns(cols), "y",
                      [f"x{j}" for j in range(p)])
        expected = oracles.ols_normal_equations(np.column_stack([np.ones(n), X]), y)
        np.testing.assert_allclose(fit.coefficients, expected, atol=1e-6, rtol=1e-6)

    data = Dataset.from_columns({
        "x1": [0.2, -1.1, 0.7, 1.9, -0.4, 0.9, -1.6, 0.3],
        "y": [1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    })
    logit_fit = fit_logit(data, "y", ["x1"])
    X = np.column_stack([np.ones(8), data.column("x1")])
    expected = oracles.logit_newton_fd(X, data.column("y"))
    np.testing.assert_allclose(logit_fit.coefficients, expected, atol=1e-6)

    for trial in range(20):
        rng2 = np.random.default_rng(500 + trial)
        n = int(rng2.integers(4, 51))
        scores = rng2.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=n)
        y = rng2.integers(0, 2, size=n).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        assert c_statistic(scores, y) == pytest.approx(
            oracles.c_statistic_pairwise(scores, y), abs=1e-14)
    _report("criterion 7")


def test_criterion_8_distribution_round_trips():
    """|cdf(quantile(p)) - p| <= 1e-8 on a 1000-point grid for all three
    families; the df = 10 chi-square quantiles match 3.2470 / 20.4832 to
    1e-3."""
    ps = (np.arange(1000) + 0.5) / 1000.0
    worst = 0.0
    for p in ps:
        p = float(p)
        worst = max(worst, abs(normal_cdf(normal_quantile(p)) - p))
        worst = max(worst, abs(t_cdf(t_quantile(p, 30), 30) - p))
        worst = max(worst, abs(chisq_cdf(chisq_quantile(p, 10), 10) - p))
    assert worst <= 1e-8
    assert chisq_quantile(0.025, 10) == pytest.approx(3.2470, abs=1e-3)
    assert chisq_quantile(0.975, 10) == pytest.approx(20.4832, abs=1e-3)
    _report("criterion 8", f"(worst round-trip {worst:.2e})")


def test_criterion_9_cli_end_to_end(capsys, monkeypatch):
    """simulate study2 --n 1000 --seed 7 piped into sensitivity yields an
    RV(q=1) within 0.01 of 0.83813, and deterministic mode is byte-identical
    across runs."""
    assert main(["simulate", "--preset", "study2", "--n", "1000",
                 "--seed", "7"]) == 0
    csv_text = capsys.readouterr().out

    def run_sensitivity() -> str:
        monkeypatch.setattr(sys, "stdin", io.StringIO(csv_text))
        code = main(["sensitivity", "--input", "-", "--outcome", "y",
                     "--exposure", "a", "--controls", "x",
                     "--format", "json", "--deterministic"])
        assert code == 0
        return capsys.readouterr().out

    first = run_sensitivity()
    second = run_sensitivity()
    assert first == second, "deterministic runs must be byte-identical"

    report = json.loads(first)
    rv = report["strata"][0]["sensitivity"]["rv_q"]
    assert rv == pytest.approx(0.83813, abs=0.01)
    _report("criterion 9", f"(rv {rv:.5f})")
