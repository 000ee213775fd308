import numpy as np
import pytest

from confound_lens import (DgpSpec, PopulationMoments, STUDY_PRESETS,
                           derive_replicate_seed, exposure_stats_from_moments,
                           fit_ols, general_bias, generate, population_moments,
                           population_ols_bias, replicate_study)
from confound_lens.bias import ProxyModel
from confound_lens.errors import DomainError


def _random_spec(rng) -> DgpSpec:
    return DgpSpec(
        beta=float(rng.uniform(-3, 3)),
        gamma=float(rng.uniform(-3, 3)),
        theta_x=float(rng.uniform(-2, 2)),
        a_on_u=float(rng.uniform(-2, 2)),
        a_noise_sd=float(rng.uniform(0.1, 2)),
        x_noise_sd=float(rng.uniform(0.1, 2)),
        y_noise_sd=float(rng.uniform(0.1, 2)),
        a_on_eps_x=float(rng.uniform(-1, 1)),
    )


class TestDgpSpec:
    def test_rejects_negative_sd(self):
        with pytest.raises(DomainError):
            DgpSpec(beta=1, gamma=1, theta_x=0, a_on_u=1,
                    a_noise_sd=-0.1, x_noise_sd=0.5, y_noise_sd=1)

    def test_round_trips_through_dict(self):
        spec = STUDY_PRESETS["study1"]
        assert DgpSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_unknown_keys(self):
        with pytest.raises(DomainError):
            DgpSpec.from_dict({"beta": 1, "nonsense": 2})

    def test_presets_match_their_generating_equations(self):
        s1 = STUDY_PRESETS["study1"]
        assert (s1.beta, s1.gamma, s1.a_on_u) == (2.4, 2.0, 2.0)
        assert (s1.a_noise_sd, s1.x_noise_sd, s1.y_noise_sd) == (0.05, 0.5, 1.5)
        s2 = STUDY_PRESETS["study2"]
        assert (s2.beta, s2.gamma, s2.a_on_u) == (3.0, 2.0, 0.5)
        assert (s2.a_noise_sd, s2.x_noise_sd, s2.y_noise_sd) == (0.8, 0.5, 1.0)


class TestPopulationMoments:
    def test_study1_values(self):
        m = population_moments(STUDY_PRESETS["study1"])
        assert m.var_a == pytest.approx(4.0025, abs=1e-15)
        assert m.cov_a_x == pytest.approx(2.0, abs=1e-15)
        assert m.var_x == pytest.approx(1.25, abs=1e-15)
        assert m.var_eps_x == pytest.approx(0.25, abs=1e-15)
        stats = exposure_stats_from_moments(m)
        assert stats.beta_a_on_x == pytest.approx(1.6, abs=1e-15)
        assert stats.r2_a_on_x == pytest.approx(0.7995003123048093, abs=1e-12)

    def test_study2_values(self):
        m = population_moments(STUDY_PRESETS["study2"])
        assert m.var_a == pytest.approx(0.89, abs=1e-15)
        stats = exposure_stats_from_moments(m)
        assert stats.beta_a_on_x == pytest.approx(0.4, abs=1e-15)
        assert m.var_a * (1 - stats.r2_a_on_x) == pytest.approx(0.69, abs=1e-12)

    def test_unlinked_exposure_has_zero_covariance(self):
        spec = DgpSpec(beta=1, gamma=1, theta_x=0, a_on_u=0.0,
                       a_noise_sd=1, x_noise_sd=0.5, y_noise_sd=1,
                       a_on_eps_x=0.0)
        assert population_moments(spec).cov_a_x == 0.0

    def test_psd_guard(self):
        with pytest.raises(DomainError):
            PopulationMoments(var_a=1.0, var_x=1.0, var_u=1.0, cov_a_x=5.0,
                              cov_a_u=0.0, cov_a_eps_x=0.0, var_eps_x=0.5)


class TestPopulationBias:
    def test_study_values(self):
        assert population_ols_bias(STUDY_PRESETS["study1"]) == \
            pytest.approx(0.8 / 0.8025, abs=1e-12)
        assert population_ols_bias(STUDY_PRESETS["study2"]) == \
            pytest.approx(0.2 / 0.69, abs=1e-12)

    def test_zero_gamma(self):
        spec = DgpSpec(beta=1, gamma=0.0, theta_x=0.3, a_on_u=1,
                       a_noise_sd=0.5, x_noise_sd=0.5, y_noise_sd=1)
        assert population_ols_bias(spec) == 0.0

    def test_equals_general_bias_fed_with_moments_exactly(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            spec = _random_spec(rng)
            m = population_moments(spec)
            expected = general_bias(
                ProxyModel(gamma=spec.gamma, var_eps_x=m.var_eps_x,
                           cov_a_eps_x=m.cov_a_eps_x),
                exposure_stats_from_moments(m), m.cov_a_x, m.var_x)
            assert population_ols_bias(spec) == expected


class TestGenerate:
    def test_noiseless_relations_recover_beta_exactly(self):
        spec = DgpSpec(beta=1.7, gamma=0.0, theta_x=0.0, a_on_u=1.0,
                       a_noise_sd=0.0, x_noise_sd=0.0, y_noise_sd=0.0)
        data = generate(spec, 50, 1)
        fit = fit_ols(data, "y", ["a"], include_intercept=False)
        assert fit.coefficient("a") == pytest.approx(1.7, abs=1e-13)
        assert fit.residual_variance == pytest.approx(0.0, abs=1e-24)

    def test_same_seed_is_bit_identical(self):
        spec = STUDY_PRESETS["study1"]
        a = generate(spec, 500, 7)
        b = generate(spec, 500, 7)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        spec = STUDY_PRESETS["study1"]
        assert not np.array_equal(generate(spec, 100, 1).values,
                                  generate(spec, 100, 2).values)

    def test_columns_and_structure(self):
        spec = STUDY_PRESETS["study2"]
        data = generate(spec, 200, 3)
        assert data.names == ("u", "x", "a", "y")
        # y is an exact function of the draws: rebuild it from columns
        # y = beta*a + theta_x*x + gamma*u + noise, so corr(y, a) is high
        assert abs(np.corrcoef(data.column("y"), data.column("a"))[0, 1]) > 0.5

    def test_moment_convergence_ten_random_specs(self):
        rng = np.random.default_rng(77)
        n = 10 ** 6
        for k in range(10):
            spec = _random_spec(rng)
            m = population_moments(spec)
            data = generate(spec, n, 1000 + k)
            a, x = data.column("a"), data.column("x")
            var_a = float(np.var(a, ddof=1))
            cov_ax = float(np.cov(a, x, ddof=1)[0, 1])
            # Gaussian standard errors of sample (co)variances
            se_var_a = m.var_a * np.sqrt(2.0 / (n - 1))
            se_cov = np.sqrt((m.var_a * m.var_x + m.cov_a_x ** 2) / (n - 1))
            assert abs(var_a - m.var_a) <= 5 * se_var_a
            assert abs(cov_ax - m.cov_a_x) <= 5 * se_cov

    def test_seed_validation(self):
        with pytest.raises(DomainError):
            generate(STUDY_PRESETS["study1"], 10, -1)
        with pytest.raises(DomainError):
            generate(STUDY_PRESETS["study1"], 0, 1)


class TestReplicateStudy:
    def test_single_replicate_reproduces_generate_plus_fit(self):
        spec = STUDY_PRESETS["study2"]
        summary = replicate_study(spec, 300, 1, seed=5)
        data = generate(spec, 300, derive_replicate_seed(5, 0))
        fit = fit_ols(data, "y", ["a", "x"])
        assert summary.beta_hats[0] == fit.coefficient("a")
        assert summary.std_errors[0] == fit.std_error("a")

    def test_extending_replicates_keeps_prefix(self):
        spec = STUDY_PRESETS["study1"]
        short = replicate_study(spec, 200, 5, seed=11)
        long = replicate_study(spec, 200, 10, seed=11)
        np.testing.assert_array_equal(short.beta_hats, long.beta_hats[:5])

    def test_mean_lands_near_population_value(self):
        spec = STUDY_PRESETS["study1"]
        pop = spec.beta + population_ols_bias(spec)
        summary = replicate_study(spec, 1000, 50, seed=2)
        mc_se = summary.sd_beta_hat / np.sqrt(summary.replicates)
        assert abs(summary.mean_beta_hat - pop) <= 4 * mc_se

    def test_derived_seeds_are_distinct_and_deterministic(self):
        seeds = {derive_replicate_seed(9, i) for i in range(100)}
        assert len(seeds) == 100
        assert derive_replicate_seed(9, 3) == derive_replicate_seed(9, 3)
