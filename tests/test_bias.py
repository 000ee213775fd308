import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confound_lens import (BiasDecomposition, DegenerateExposureError,
                           ExposureModelStats, ProxyModel, attenuation_slope,
                           collinearity_ratio, exposure_stats_from_ols, fit_ols,
                           general_bias, generate, decompose_bias)
from confound_lens.errors import DomainError
from confound_lens.simulate import DgpSpec, STUDY_PRESETS

# Hand covariance algebra on the bundled presets:
#   study1: Var(A) = 2^2 + 0.05^2 = 4.0025, Cov(A,X) = 2, Var(X) = 1.25
#           beta_AX = 1.6, R2 = 4/(4.0025*1.25), resid var = 0.8025
#   study2: Var(A) = 0.25 + 0.64 = 0.89, Cov(A,X) = 0.5, Var(X) = 1.25
#           beta_AX = 0.4, R2 = 0.25/(0.89*1.25), resid var = 0.69
STUDY1_STATS = ExposureModelStats(beta_a_on_x=1.6,
                                  residual_variance=4.0025 * (1 - 4.0 / (4.0025 * 1.25)),
                                  r2_a_on_x=4.0 / (4.0025 * 1.25))
STUDY2_STATS = ExposureModelStats(beta_a_on_x=0.4,
                                  residual_variance=0.89 * (1 - 0.25 / (0.89 * 1.25)),
                                  r2_a_on_x=0.25 / (0.89 * 1.25))
STUDY1_BIAS = 0.8 / 0.8025          # = 0.996885 to printed precision
STUDY2_BIAS = 0.2 / 0.69            # = 0.289855
STUDY1_RATIO = 1.6 / 0.8025         # = 1.99377
STUDY2_RATIO = 0.4 / 0.69           # = 0.57971

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)
pos_floats = st.floats(min_value=1e-3, max_value=50, allow_nan=False)
r2_floats = st.floats(min_value=0.0, max_value=0.999, allow_nan=False)


class TestAttenuation:
    def test_quarter_noise(self):
        assert attenuation_slope(1.0, 1.0, 0.25) == pytest.approx(0.8, abs=1e-15)

    def test_no_measurement_error_returns_beta(self):
        for beta in (-2.0, 0.0, 3.7):
            assert attenuation_slope(beta, 0.123, 0.0) == beta

    def test_magnitude_never_exceeds_beta(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            beta, vx, ve = rng.normal(), rng.uniform(0.01, 5), rng.uniform(0, 5)
            assert abs(attenuation_slope(beta, vx, ve)) <= abs(beta) + 1e-15

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            attenuation_slope(1.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            attenuation_slope(1.0, 1.0, -0.5)

    def test_monte_carlo_slope_of_noisy_regressor(self):
        # latent regressor with unit variance, noise variance 1, effect 2:
        # slope of y on the noisy x should be 2 * 1/(1+1) = 1
        spec = DgpSpec(beta=0.0, gamma=2.0, theta_x=0.0, a_on_u=0.0,
                       a_noise_sd=1.0, x_noise_sd=1.0, y_noise_sd=1.0)
        data = generate(spec, 10 ** 6, 42)
        fit = fit_ols(data, "y", ["x"])
        assert fit.coefficient("x") == pytest.approx(
            attenuation_slope(2.0, 1.0, 1.0), abs=0.01)


class TestDecomposeBias:
    def test_zero_gamma_means_zero_bias(self):
        d = decompose_bias(ProxyModel(gamma=0.0, var_eps_x=0.3), STUDY1_STATS)
        assert d.bias == 0.0

    def test_study1_population_value(self):
        d = decompose_bias(ProxyModel(gamma=2.0, var_eps_x=0.25), STUDY1_STATS)
        assert d.bias == pytest.approx(STUDY1_BIAS, abs=1e-12)
        assert d.bias == pytest.approx(0.996885, abs=5e-7)

    def test_study2_population_value(self):
        d = decompose_bias(ProxyModel(gamma=2.0, var_eps_x=0.25), STUDY2_STATS)
        assert d.bias == pytest.approx(STUDY2_BIAS, abs=1e-12)
        assert d.bias == pytest.approx(0.289855, abs=5e-7)

    def test_rejects_correlated_proxy_noise(self):
        with pytest.raises(DomainError):
            decompose_bias(ProxyModel(gamma=1.0, var_eps_x=0.25,
                                         cov_a_eps_x=0.1), STUDY1_STATS)

    @given(gamma=finite_floats, var_eps=st.floats(min_value=0, max_value=20),
           beta=finite_floats, var_a=pos_floats, r2=r2_floats)
    @settings(max_examples=300, deadline=None)
    def test_factorization_is_exact(self, gamma, var_eps, beta, var_a, r2):
        exposure = ExposureModelStats(beta_a_on_x=beta, residual_variance=var_a * (1 - r2),
                                      r2_a_on_x=r2)
        d = decompose_bias(ProxyModel(gamma=gamma, var_eps_x=var_eps), exposure)
        assert d.bias == d.factor_gamma * d.factor_proxy_noise * d.factor_collinearity

    @given(gamma=st.floats(min_value=1e-3, max_value=20),
           var_eps=st.floats(min_value=1e-3, max_value=20),
           beta=st.floats(min_value=-20, max_value=20), var_a=pos_floats,
           r2=r2_floats)
    @settings(max_examples=300, deadline=None)
    def test_sign_matches_gamma_times_beta(self, gamma, var_eps, beta, var_a, r2):
        exposure = ExposureModelStats(beta_a_on_x=beta, residual_variance=var_a * (1 - r2),
                                      r2_a_on_x=r2)
        d = decompose_bias(ProxyModel(gamma=gamma, var_eps_x=var_eps), exposure)
        assert math.copysign(1, d.bias) == math.copysign(1, gamma * beta) or d.bias == 0

    def test_strictly_increasing_in_beta_ax_with_fixed_residual_variance(self):
        # hold gamma, proxy noise and the residual exposure variance fixed
        resid = 0.8
        biases = []
        for beta_ax in np.linspace(0.1, 3.0, 12):
            var_a = resid + beta_ax ** 2  # Var(A) = resid + beta^2 Var(X), Var(X)=1
            r2 = beta_ax ** 2 / var_a
            exposure = ExposureModelStats(beta_a_on_x=beta_ax,
                                          residual_variance=var_a * (1 - r2), r2_a_on_x=r2)
            biases.append(decompose_bias(
                ProxyModel(gamma=2.0, var_eps_x=0.25), exposure).bias)
        assert all(b2 > b1 for b1, b2 in zip(biases, biases[1:]))


class TestGeneralBias:
    @given(gamma=finite_floats, var_eps=st.floats(min_value=0, max_value=20),
           cov_ax=st.floats(min_value=-10, max_value=10), var_x=pos_floats,
           var_a=pos_floats)
    @settings(max_examples=1000, deadline=None)
    def test_reduction_to_factored_form_is_exact(self, gamma, var_eps, cov_ax,
                                                 var_x, var_a):
        r2 = cov_ax ** 2 / (var_a * var_x)
        if not 0.0 <= r2 < 1.0 - 1e-9:
            return
        exposure = ExposureModelStats(beta_a_on_x=cov_ax / var_x,
                                      residual_variance=var_a * (1 - r2), r2_a_on_x=r2)
        proxy = ProxyModel(gamma=gamma, var_eps_x=var_eps, cov_a_eps_x=0.0)
        assert general_bias(proxy, exposure) == \
            decompose_bias(proxy, exposure).bias

    def test_numerator_cancellation_gives_zero(self):
        # Cov(A, eps_X) = Var(eps_X) * beta_AX kills the bias entirely
        var_eps, cov_ax, var_x = 0.25, 0.5, 1.25
        beta_ax = cov_ax / var_x
        exposure = ExposureModelStats(beta_a_on_x=beta_ax,
                                      residual_variance=0.89 * (1 - cov_ax ** 2 / (0.89 * var_x)),
                                      r2_a_on_x=cov_ax ** 2 / (0.89 * var_x))
        proxy = ProxyModel(gamma=2.0, var_eps_x=var_eps,
                           cov_a_eps_x=var_eps * beta_ax)
        assert abs(general_bias(proxy, exposure)) <= 1e-12

    def test_correlated_noise_dgp_matches_monte_carlo(self):
        # A loads on eps_X directly (0.5), breaking the factored form
        spec = DgpSpec(beta=1.0, gamma=2.0, theta_x=0.0, a_on_u=2.0,
                       a_noise_sd=0.5, x_noise_sd=0.5, y_noise_sd=1.0,
                       a_on_eps_x=0.5)
        from confound_lens import population_ols_bias
        expected_bias = population_ols_bias(spec)
        data = generate(spec, 10 ** 6, 99)
        fit = fit_ols(data, "y", ["a", "x"])
        observed_bias = fit.coefficient("a") - spec.beta
        assert observed_bias == pytest.approx(expected_bias,
                                              abs=3 * fit.std_error("a"))

    def test_cauchy_schwarz_guard(self):
        exposure = ExposureModelStats(beta_a_on_x=0.4, residual_variance=1.0 * (1 - 0.2),
                                      r2_a_on_x=0.2)
        proxy = ProxyModel(gamma=1.0, var_eps_x=0.25, cov_a_eps_x=0.9)
        with pytest.raises(DomainError):
            general_bias(proxy, exposure)


class TestCollinearityRatio:
    def test_study_population_ratios(self):
        assert collinearity_ratio(STUDY1_STATS) == pytest.approx(STUDY1_RATIO, rel=1e-12)
        assert collinearity_ratio(STUDY2_STATS) == pytest.approx(STUDY2_RATIO, rel=1e-12)

    def test_zero_beta_gives_zero(self):
        stats = ExposureModelStats(beta_a_on_x=0.0, residual_variance=2.0 * (1 - 0.0),
                                   r2_a_on_x=0.0)
        assert collinearity_ratio(stats) == 0.0

    def test_degenerate_exposure(self):
        stats = ExposureModelStats(beta_a_on_x=1.0,
                                   residual_variance=1.0 * (1 - (1.0 - 1e-13)),
                                   r2_a_on_x=1.0 - 1e-13)
        with pytest.raises(DegenerateExposureError):
            collinearity_ratio(stats)

    def test_exact_fit_is_degenerate(self):
        stats = ExposureModelStats(beta_a_on_x=2.0, residual_variance=1e-31, r2_a_on_x=1.0)
        with pytest.raises(DegenerateExposureError):
            collinearity_ratio(stats)
        with pytest.raises(DegenerateExposureError):
            general_bias(ProxyModel(gamma=1.0, var_eps_x=0.25, cov_a_eps_x=0.1), stats)

    def test_var_a_is_backed_out_of_the_residual_variance(self):
        assert STUDY1_STATS.var_a == pytest.approx(4.0025, rel=1e-15)

    def test_residual_exposure_variance_value(self):
        assert STUDY1_STATS.residual_variance == pytest.approx(0.8025, rel=1e-12)


class TestExposureStatsFromOls:
    def test_ratio_from_fit_equals_coef_over_sigma2(self):
        data = generate(STUDY_PRESETS["study2"], 5000, 21)
        fit = fit_ols(data, "a", ["x"])
        stats = exposure_stats_from_ols(fit, "x")
        assert collinearity_ratio(stats) == \
            fit.coefficient("x") / fit.residual_variance

    def test_sample_stats_near_population(self):
        data = generate(STUDY_PRESETS["study1"], 200_000, 4)
        fit = fit_ols(data, "a", ["x"])
        stats = exposure_stats_from_ols(fit, "x")
        assert stats.beta_a_on_x == pytest.approx(1.6, abs=0.02)
        assert stats.var_a == pytest.approx(4.0025, abs=0.1)
        assert stats.r2_a_on_x == pytest.approx(STUDY1_STATS.r2_a_on_x, abs=0.01)


class TestValidation:
    def test_negative_proxy_noise_variance(self):
        with pytest.raises(DomainError):
            ProxyModel(gamma=1.0, var_eps_x=-0.1)

    def test_bad_exposure_stats(self):
        with pytest.raises(DomainError):
            ExposureModelStats(beta_a_on_x=1.0, residual_variance=0.0 * (1 - 0.5),
                               r2_a_on_x=0.5)
        # an exact fit is admitted and left to the degeneracy rule
        exact = ExposureModelStats(beta_a_on_x=1.0, residual_variance=1.0 * (1 - 1.0),
                                   r2_a_on_x=1.0)
        with pytest.raises(DegenerateExposureError):
            collinearity_ratio(exact)

    def test_decomposition_consistency_enforced(self):
        with pytest.raises(DomainError):
            BiasDecomposition(bias=1.0, factor_gamma=1.0,
                              factor_proxy_noise=1.0, factor_collinearity=2.0)
