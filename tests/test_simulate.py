import numpy as np
import pytest

from confound_lens import (DgpSpec, PopulationMoments, STUDY_PRESETS,
                           derive_replicate_seed, exposure_stats_from_moments,
                           fit_ols, general_bias, generate, population_moments,
                           population_bias_decomposition, population_ols_bias,
                           replicate_study, simulate)
from confound_lens.bias import ProxyModel
from confound_lens.distributions import normal_quantile_vec
from confound_lens.errors import DegenerateExposureError, DomainError


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

    def test_exposure_without_variance_is_degenerate(self):
        spec = DgpSpec(beta=1, gamma=1, theta_x=0, a_on_u=0, a_noise_sd=0,
                       x_noise_sd=0.5, y_noise_sd=1, a_on_eps_x=0)
        for population_value in (population_ols_bias, population_bias_decomposition):
            with pytest.raises(DegenerateExposureError):
                population_value(spec)

    def test_exposure_explained_exactly_by_the_proxy_is_degenerate(self):
        # A = 0.7 X exactly; Cov(A,X)^2 / (Var(A) Var(X)) rounds above 1
        spec = DgpSpec(beta=1, gamma=1, theta_x=0, a_on_u=0.7, a_noise_sd=0,
                       x_noise_sd=0.5, y_noise_sd=1, a_on_eps_x=0.7)
        m = population_moments(spec)
        assert m.cov_a_x ** 2 / (m.var_a * m.var_x) > 1.0
        assert exposure_stats_from_moments(m).r2_a_on_x == 1.0
        with pytest.raises(DegenerateExposureError):
            population_ols_bias(spec)

    def test_equals_general_bias_fed_with_moments_exactly(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            spec = _random_spec(rng)
            m = population_moments(spec)
            expected = general_bias(
                ProxyModel(gamma=spec.gamma, var_eps_x=m.var_eps_x,
                           cov_a_eps_x=m.cov_a_eps_x),
                exposure_stats_from_moments(m))
            assert population_ols_bias(spec) == expected


class TestGenerate:
    def test_noiseless_relations_recover_beta_exactly(self):
        spec = DgpSpec(beta=1.7, gamma=0.0, theta_x=0.0, a_on_u=1.0,
                       a_noise_sd=0.0, x_noise_sd=0.0, y_noise_sd=0.0)
        data = generate(spec, 50, 1)
        fit = fit_ols(data, "y", ["a"])
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

    def test_top_bins_of_the_53_bit_grid_give_finite_draws(self, monkeypatch):
        # bin j maps to (j + 1/2) / 2^53 only below 2^52; above, j + 1/2 rounds
        # half to even, and the top bin 2^53 - 1 would reach u = 1 (z = inf)
        # but is held at the largest double below 1
        top, half = 2 ** 53 - 1, 2 ** 52
        bins = np.array([[top, 0, top - 2, half + 1], [0, 0, half, half - 1]], dtype=np.uint64)

        class FixedBins(np.random.Generator):
            def integers(self, low, high, size, dtype):
                assert (low, high, size) == (0, 2 ** 53, (2, 4))
                return bins

        monkeypatch.setattr(np.random, "Generator", FixedBins)
        # u, a and y are the draws of columns 0, 2 and 3 themselves
        spec = DgpSpec(beta=0.0, gamma=0.0, theta_x=0.0, a_on_u=0.0,
                       a_noise_sd=1.0, x_noise_sd=0.0, y_noise_sd=1.0)
        data = generate(spec, 2, 1)
        expected_u = [[1.0 - 2.0 ** -53, 1.0 - 2.0 ** -52, 0.5 + 2.0 ** -52],
                      [2.0 ** -54, 0.5, 0.5 - 2.0 ** -54]]
        drawn = np.column_stack([data.column(c) for c in ("u", "a", "y")])
        assert np.isfinite(drawn).all()
        np.testing.assert_array_equal(drawn, normal_quantile_vec(np.array(expected_u)))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_spec_that_overflows_the_draws_is_a_domain_error(self):
        spec = DgpSpec(beta=1e308, gamma=2.0, theta_x=0.0, a_on_u=2.0,
                       a_noise_sd=0.05, x_noise_sd=0.5, y_noise_sd=1.5)
        with pytest.raises(DomainError, match="overflow"):
            generate(spec, 100, 1)
        with pytest.raises(DomainError, match="overflow"):
            replicate_study(spec, 100, 3, seed=1)


class TestReplicateStudy:
    def test_single_replicate_reproduces_generate_plus_fit(self):
        # n = 1000 stacks 4 replicates per sampler block; 10 replicates leave
        # a last stack of 2
        spec = STUDY_PRESETS["study2"]
        for n, replicates in [(300, 1), (1000, 10)]:
            summary = replicate_study(spec, n, replicates, seed=5)
            for r in range(replicates):
                data = generate(spec, n, derive_replicate_seed(5, r))
                fit = fit_ols(data, "y", ["a", "x"])
                assert summary.beta_hats[r] == fit.coefficient("a")
                assert summary.std_errors[r] == fit.std_error("a")

    def test_results_do_not_depend_on_the_stack_size(self, monkeypatch):
        spec, n, replicates = STUDY_PRESETS["study1"], 50, 23
        summaries = []
        for stack in (1, 7, replicates):
            monkeypatch.setattr(simulate, "_BLOCK", 4 * n * stack)
            summaries.append(replicate_study(spec, n, replicates, seed=3, q=0.5))
        for other in summaries[1:]:
            for name, value in vars(summaries[0]).items():
                np.testing.assert_array_equal(getattr(other, name), value, err_msg=name)

    def test_rejects_zero_rows_before_sizing_a_stack(self):
        with pytest.raises(DomainError):
            replicate_study(STUDY_PRESETS["study1"], 0, 3, seed=1)

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
