from pathlib import Path

import numpy as np
import pytest

from confound_lens import (Dataset, NoVariationError, SeparationError,
                           c_statistic, fit_logit, ingest_csv)
from confound_lens.errors import DomainError, InsufficientRowsError, RankDeficientError
from confound_lens import logit
from confound_lens.logit import _sigmoid

import oracles


FIXTURE = Path(__file__).resolve().parent.parent / "data" / "nhanes_synthetic.csv"


def _data(**cols):
    return Dataset.from_columns(cols)


class TestFitLogit:
    @pytest.mark.parametrize("lookup", ["coefficient", "std_error"])
    def test_unknown_name_is_a_key_error_listing_the_names(self, lookup):
        fit = fit_logit(_data(x=[-1.0, -1.0, 1.0, 1.0], y=[0.0, 1.0, 0.0, 1.0]), "y", ["x"])
        with pytest.raises(KeyError, match="no coefficient 'nope'; have intercept, x"):
            getattr(fit, lookup)("nope")

    def test_balanced_symmetric_data_gives_zero_coefficients(self):
        data = _data(x=[-1.0, -1.0, 1.0, 1.0], y=[0.0, 1.0, 0.0, 1.0])
        fit = fit_logit(data, "y", ["x"])
        assert fit.converged
        np.testing.assert_allclose(fit.coefficients, 0.0, atol=1e-8)

    def test_perfect_separation_raises(self):
        data = _data(x=[-2.0, -1.0, -0.5, 0.5, 1.0, 2.0],
                     y=[0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        with pytest.raises(SeparationError):
            fit_logit(data, "y", ["x"])

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_perfect_separation_raises_in_any_units(self, scale):
        x = scale * np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        data = _data(x=x, y=[0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        with pytest.raises(SeparationError):
            fit_logit(data, "y", ["x"])

    def test_quasi_separation_by_rare_indicator_raises(self):
        # the 5 flagged rows are all ones: the indicator's MLE is +infinity
        # while its coefficient and every linear predictor stay near 20 when
        # the score falls under the tolerance
        rng = np.random.default_rng(0)
        x = rng.normal(size=1000)
        flag = np.zeros(1000)
        flag[:5] = 1.0
        y = (rng.random(1000) < 0.3).astype(float)
        y[:5] = 1.0
        with pytest.raises(SeparationError):
            fit_logit(_data(x=x, flag=flag, y=y), "y", ["x", "flag"])

    @pytest.mark.parametrize("far", [100.0, 1e4])
    def test_far_covariate_value_on_predicted_side_converges(self, far):
        # one row far out where the model already predicts y = 1 has a linear
        # predictor near far - 5 at a finite MLE pinned by the other rows
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 10.0, 1000)
        y = (rng.random(1000) < _sigmoid(x - 5.0)).astype(float)
        bulk = fit_logit(_data(x=x, y=y), "y", ["x"])
        fit = fit_logit(_data(x=np.append(x, far), y=np.append(y, 1.0)), "y", ["x"])
        assert fit.converged
        np.testing.assert_allclose(fit.coefficients, bulk.coefficients, rtol=1e-3)

    def test_rescaled_covariate_converges_with_rescaled_coefficient(self):
        # age / 2000 makes the age coefficient about -29: a bound on |beta|
        # would read that as separation, though the fitted probabilities are
        # those of the unscaled fit
        data = ingest_csv(FIXTURE)
        values = data.values.copy()
        values[:, data.names.index("age")] /= 2000.0
        fit = fit_logit(data, "smoker", ["age", "poverty_index"])
        rescaled = fit_logit(Dataset(data.names, values), "smoker",
                             ["age", "poverty_index"])
        assert fit.converged and rescaled.converged
        assert rescaled.iterations == fit.iterations
        assert rescaled.coefficient("age") == pytest.approx(
            2000.0 * fit.coefficient("age"), rel=1e-9)
        assert rescaled.coefficient("poverty_index") == pytest.approx(
            fit.coefficient("poverty_index"), rel=1e-9)
        np.testing.assert_allclose(rescaled.fitted_probabilities,
                                   fit.fitted_probabilities, rtol=1e-9)

    @pytest.mark.parametrize("column, scale", [("age", 1e6), ("poverty_index", 1e7)])
    def test_converges_in_the_unscaled_iteration_count_in_any_units(self, column, scale):
        # IRLS stops on the Newton decrement, which a column's units leave
        # unchanged; the raw score at these scales stays far above 1e-8
        data = ingest_csv(FIXTURE)
        regressors = ["age", "poverty_index"]
        values = data.values.copy()
        values[:, data.names.index(column)] *= scale
        fit = fit_logit(data, "smoker", regressors)
        rescaled = fit_logit(Dataset(data.names, values), "smoker", regressors)
        assert fit.converged and rescaled.converged
        assert rescaled.iterations == fit.iterations
        assert rescaled.coefficient(column) == pytest.approx(
            fit.coefficient(column) / scale, rel=1e-9)

    def test_separation_by_a_finely_scaled_indicator_raises(self):
        # the raw score falls below 1e-8 while |eta| is still about 9 and no
        # row has saturated; the decrement keeps IRLS going until one does
        flag = 1.8e-5 * np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        data = _data(flag=flag, y=[0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        with pytest.raises(SeparationError):
            fit_logit(data, "y", ["flag"])

    def test_collinear_design_is_rank_deficient_not_separated(self):
        # the first step's weights are all equal, so its rank failure is the
        # design's own and keeps the design's error class
        x = np.array([0.3, -1.2, 0.8, 2.0, -0.5, 1.1, -0.9, 0.4])
        data = _data(x=x, x2=3.0 * x - 1.0, y=[1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0])
        with pytest.raises(RankDeficientError):
            fit_logit(data, "y", ["x", "x2"])

    def test_too_few_rows_for_the_coefficients(self):
        data = _data(x=[0.3, -1.2, 0.8], z=[1.0, 2.0, 0.5], y=[1.0, 0.0, 1.0])
        with pytest.raises(InsufficientRowsError):
            fit_logit(data, "y", ["x", "z"])

    def test_single_class_outcome(self):
        data = _data(x=[1.0, 2.0, 3.0], y=[1.0, 1.0, 1.0])
        with pytest.raises(NoVariationError):
            fit_logit(data, "y", ["x"])

    def test_non_binary_outcome(self):
        data = _data(x=[1.0, 2.0, 3.0], y=[0.0, 0.5, 1.0])
        with pytest.raises(DomainError):
            fit_logit(data, "y", ["x"])

    def test_eight_row_instance_matches_likelihood_maximizer(self):
        # classes overlap on x1 (a negative at 0.9 inside the positive range),
        # so the maximum-likelihood optimum is finite
        data = _data(x1=[0.2, -1.1, 0.7, 1.9, -0.4, 0.9, -1.6, 0.3],
                     y=[1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0])
        fit = fit_logit(data, "y", ["x1"])
        X = np.column_stack([np.ones(8), data.column("x1")])
        expected = oracles.logit_newton_fd(X, data.column("y"))
        np.testing.assert_allclose(fit.coefficients, expected, atol=1e-6)
        # and the IRLS optimum is no worse than the oracle's
        assert oracles.logit_log_likelihood(fit.coefficients, X, data.column("y")) >= \
            oracles.logit_log_likelihood(expected, X, data.column("y")) - 1e-10

    def test_score_equations_at_convergence(self):
        rng = np.random.default_rng(42)
        n = 500
        x1 = rng.normal(size=n)
        x2 = rng.normal(size=n)
        eta = 0.3 + 0.8 * x1 - 0.5 * x2
        y = (rng.random(n) < _sigmoid(eta)).astype(float)
        data = _data(x1=x1, x2=x2, y=y)
        fit = fit_logit(data, "y", ["x1", "x2"])
        assert fit.converged
        X = np.column_stack([np.ones(n), x1, x2])
        score = X.T @ (y - fit.fitted_probabilities)
        assert np.max(np.abs(score)) <= 1e-8

    # (y, x1, x2, x3): cubed exponential draws, rounded to 6 decimals.  The full
    # Newton step from the second iterate lowers the log-likelihood.
    HEAVY_TAILED = np.array([
        (1, 0.114227, 0.433272, 0.005824),
        (1, 0.013302, 1.065067, 0.02242),
        (1, 0.025363, 0.041689, 0.000664),
        (0, 18.750983, 0.413383, 1.372315),
        (1, 0.3168, 1.886416, 4e-06),
        (0, 0.009371, 0.108328, 2.765283),
        (0, 0.004249, 0.187654, 0.333075),
        (1, 4.970722, 117.913501, 29.376745),
        (1, 0.002389, 0.012759, 18.165539),
        (0, 7.905477, 0.015061, 1.831512),
        (1, 7.171397, 0.005575, 3.100541),
        (0, 1.439127, 0.064435, 0.004896),
        (0, 0.000462, 2.945677, 0.197497),
        (0, 101.276244, 244.159702, 3.5e-05),
        (0, 12.364181, 2.202842, 0.020199),
        (1, 0.335118, 0.036165, 0.526373),
        (1, 0.004355, 1e-06, 1.169419),
        (0, 0.002664, 3.947269, 0.005461),
        (0, 0.027619, 1.906883, 1.960285),
        (1, 0.012228, 0.061916, 0.002844),
        (1, 0.002543, 16.971747, 17.601171),
    ])

    def test_step_halving_still_reaches_the_score_equations(self, monkeypatch):
        evaluations = []
        log_likelihood = logit._log_likelihood
        monkeypatch.setattr(logit, "_log_likelihood",
                            lambda y, eta: evaluations.append(1) or log_likelihood(y, eta))
        y, X = self.HEAVY_TAILED[:, 0], self.HEAVY_TAILED[:, 1:]
        fit = fit_logit(Dataset(("y", "x1", "x2", "x3"), self.HEAVY_TAILED), "y",
                        ["x1", "x2", "x3"])
        assert fit.converged
        # one evaluation at the start and one per full step; any more were halvings
        assert len(evaluations) > 1 + fit.iterations
        X = np.column_stack([np.ones(len(y)), X])
        score = X.T @ (y - fit.fitted_probabilities)
        assert np.max(np.abs(score)) <= 1e-8

    def test_fitted_probabilities_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=80) * 3
        y = (rng.random(80) < _sigmoid(1.5 * x)).astype(float)
        if y.min() == y.max():  # pragma: no cover
            pytest.skip("degenerate draw")
        try:
            fit = fit_logit(_data(x=x, y=y), "y", ["x"])
        except SeparationError:  # pragma: no cover
            pytest.skip("separated draw")
        assert np.all(fit.fitted_probabilities > 0.0)
        assert np.all(fit.fitted_probabilities < 1.0)

    def test_simulated_recovery_within_three_ses(self):
        # 100 replicates of n = 50_000 with known coefficients; a replicate
        # succeeds when every coefficient lands within 3 standard errors.
        rng = np.random.default_rng(0)
        truth = np.array([0.25, -0.5, 0.9])
        n = 50_000
        successes = 0
        for _ in range(100):
            x1 = rng.normal(size=n)
            x2 = rng.normal(size=n)
            eta = truth[0] + truth[1] * x1 + truth[2] * x2
            y = (rng.random(n) < _sigmoid(eta)).astype(float)
            fit = fit_logit(_data(x1=x1, x2=x2, y=y), "y", ["x1", "x2"])
            if np.all(np.abs(fit.coefficients - truth) <= 3 * fit.standard_errors):
                successes += 1
        assert successes >= 99


class TestCStatistic:
    def test_perfect_ranking(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        assert c_statistic(scores, y) == 1.0

    def test_constant_scores_are_pure_ties(self):
        scores = np.full(10, 0.5)
        y = np.array([0.0, 1.0] * 5)
        assert c_statistic(scores, y) == 0.5

    def test_six_row_example_matches_pairwise_enumeration(self):
        scores = np.array([0.2, 0.4, 0.4, 0.6, 0.7, 0.1])
        y = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        assert c_statistic(scores, y) == pytest.approx(
            oracles.c_statistic_pairwise(scores, y), abs=1e-15)

    @pytest.mark.parametrize("trial", range(10))
    def test_random_instances_match_pairwise(self, trial):
        rng = np.random.default_rng(200 + trial)
        n = int(rng.integers(5, 51))
        scores = rng.choice([0.1, 0.25, 0.5, 0.8], size=n)
        y = rng.integers(0, 2, size=n).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        assert c_statistic(scores, y) == pytest.approx(
            oracles.c_statistic_pairwise(scores, y), abs=1e-14)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(9)
        scores = rng.random(40)
        y = rng.integers(0, 2, size=40).astype(float)
        y[0], y[1] = 0.0, 1.0
        base = c_statistic(scores, y)
        for transform in (np.exp, lambda s: 3 * s - 1, lambda s: s ** 3):
            assert c_statistic(transform(scores), y) == pytest.approx(base, abs=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_raises(self, bad):
        # a NaN has no place among the ranks, so it would rank by its row
        with pytest.raises(DomainError, match="scores must be finite"):
            c_statistic(np.array([0.2, bad, 0.4, 0.1]), np.array([0.0, 1.0, 1.0, 0.0]))

    def test_single_class_raises(self):
        with pytest.raises(NoVariationError):
            c_statistic(np.array([0.2, 0.4]), np.array([1.0, 1.0]))

    def test_accepts_fit_object(self):
        data = _data(x=[-1.0, -1.0, 1.0, 1.0], y=[0.0, 1.0, 0.0, 1.0])
        fit = fit_logit(data, "y", ["x"])
        assert c_statistic(fit.fitted_probabilities, data.column("y")) == 0.5
