from pathlib import Path

import numpy as np
import pytest

from confound_lens import (Dataset, RatioInterval, STUDY_PRESETS,
                           collinearity_ratio, conservative_ratio_ci,
                           exposure_stats_from_ols, fit_ols, generate,
                           ratio_point_estimate, variance_ci, wald_ci)
from confound_lens import ratio_ci
from confound_lens.cli import main
from confound_lens.errors import DegenerateExposureError, DomainError
from confound_lens.ratio_ci import component_level

import oracles

# Frozen from the bisection oracles:
#   t_quantile(0.975, 10) = 2.2281388519862944
#   chisq_quantile(0.975, 10) = 20.483177350807267
#   chisq_quantile(0.025, 10) = 3.246972780236801
WALD_2_HALF_10 = (0.8859305740068528, 3.1140694259931472)
VARIANCE_CI_1_10 = (0.48820550780447594, 3.0797917558368324)


class TestWaldCi:
    def test_symmetric_around_zero_large_df(self):
        lo, hi = wald_ci(0.0, 1.0, 10 ** 6, 0.95)
        assert lo == pytest.approx(-1.959964, abs=1e-4)
        assert hi == pytest.approx(1.959964, abs=1e-4)
        assert lo == -hi

    def test_frozen_example_df10(self):
        lo, hi = wald_ci(2.0, 0.5, 10, 0.95)
        assert lo == pytest.approx(WALD_2_HALF_10[0], abs=1e-9)
        assert hi == pytest.approx(WALD_2_HALF_10[1], abs=1e-9)
        # and against the live oracle
        tq = oracles.t_quantile_oracle(0.975, 10)
        assert hi == pytest.approx(2.0 + tq * 0.5, abs=1e-7)

    def test_width_increases_with_level(self):
        widths = [wald_ci(1.0, 0.3, 25, lvl)[1] - wald_ci(1.0, 0.3, 25, lvl)[0]
                  for lvl in (0.90, 0.95, 0.99)]
        assert widths[0] < widths[1] < widths[2]

    def test_rejects_bad_se(self):
        with pytest.raises(DomainError):
            wald_ci(1.0, 0.0, 10, 0.95)

    def test_rejects_bad_level(self):
        with pytest.raises(DomainError):
            wald_ci(1.0, 1.0, 10, 1.0)


class TestVarianceCi:
    def test_frozen_example_df10(self):
        lo, hi = variance_ci(1.0, 10, 0.95)
        assert lo == pytest.approx(VARIANCE_CI_1_10[0], rel=1e-8)
        assert hi == pytest.approx(VARIANCE_CI_1_10[1], rel=1e-8)
        assert lo == pytest.approx(10 / oracles.chisq_quantile_oracle(0.975, 10), rel=1e-6)
        assert hi == pytest.approx(10 / oracles.chisq_quantile_oracle(0.025, 10), rel=1e-6)

    @pytest.mark.parametrize("df", [1, 2, 5, 10, 50, 200])
    @pytest.mark.parametrize("level", [0.5, 0.8, 0.95, 0.99])
    def test_contains_the_point_estimate(self, df, level):
        lo, hi = variance_ci(2.5, df, level)
        assert lo < 2.5 < hi
        assert lo > 0.0

    def test_interval_shrinks_to_point_for_huge_df(self):
        lo, hi = variance_ci(1.0, 10 ** 5, 0.95)
        assert hi - lo < 0.02
        assert lo < 1.0 < hi

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(DomainError):
            variance_ci(0.0, 10, 0.95)


def _study2_dataset(n=2000, seed=0) -> Dataset:
    return generate(STUDY_PRESETS["study2"], n, seed)


class TestConservativeRatioCi:
    def test_interval_is_minmax_of_endpoint_ratios(self):
        data = _study2_dataset()
        interval = conservative_ratio_ci(data, "a", "x", [], 0.95)
        ratios = [b / v for b in interval.beta_interval
                  for v in interval.variance_interval]
        assert interval.lower == min(ratios)
        assert interval.upper == max(ratios)

    def test_positive_numerator_case_uses_opposite_corners(self):
        data = _study2_dataset()
        interval = conservative_ratio_ci(data, "a", "x", [], 0.95)
        bl, bu = interval.beta_interval
        vl, vu = interval.variance_interval
        assert bl > 0  # strongly positive proxy coefficient here
        assert interval.lower == bl / vu
        assert interval.upper == bu / vl

    def test_point_estimate_containment(self):
        data = _study2_dataset()
        point = ratio_point_estimate(data, "a", "x", [])
        interval = conservative_ratio_ci(data, "a", "x", [], 0.95)
        assert interval.lower <= point <= interval.upper

    def test_numerator_straddling_zero(self):
        # proxy unrelated to the exposure: the interval must straddle zero
        rng = np.random.default_rng(8)
        data = Dataset.from_columns({
            "a": rng.normal(size=500),
            "x": rng.normal(size=500),
        })
        interval = conservative_ratio_ci(data, "a", "x", [], 0.95)
        point = ratio_point_estimate(data, "a", "x", [])
        assert interval.lower < 0.0 < interval.upper
        assert interval.lower <= point <= interval.upper

    def test_nesting_across_levels(self):
        for seed in range(5):
            data = _study2_dataset(seed=seed)
            narrow = conservative_ratio_ci(data, "a", "x", [], 0.95)
            wide = conservative_ratio_ci(data, "a", "x", [], 0.99)
            assert wide.lower <= narrow.lower
            assert narrow.upper <= wide.upper

    def test_point_containment_on_100_random_datasets(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            n = int(rng.integers(30, 200))
            slope = float(rng.normal())
            x = rng.normal(size=n)
            a = slope * x + rng.normal(size=n) * float(rng.uniform(0.3, 2))
            z = rng.normal(size=n)
            data = Dataset.from_columns({"a": a, "x": x, "z": z})
            interval = conservative_ratio_ci(data, "a", "x", ["z"], 0.95)
            point = ratio_point_estimate(data, "a", "x", ["z"])
            assert interval.lower <= point <= interval.upper

    def test_bonferroni_component_level(self):
        assert component_level(0.95) == pytest.approx(0.975, abs=1e-15)
        assert component_level(0.9) == pytest.approx(0.95, abs=1e-15)

    def test_controls_change_the_target(self):
        spec = STUDY_PRESETS["study2"]
        data = generate(spec, 5000, 14)
        with_u = conservative_ratio_ci(data, "a", "x", ["u"], 0.95)
        without = conservative_ratio_ci(data, "a", "x", [], 0.95)
        assert with_u.beta_interval != without.beta_interval


class TestRatioPointEstimate:
    def test_large_sample_matches_population_ratio(self):
        data = generate(STUDY_PRESETS["study2"], 300_000, 6)
        assert ratio_point_estimate(data, "a", "x", []) == \
            pytest.approx(0.4 / 0.69, abs=0.01)

    def test_orthogonal_proxy_gives_near_zero(self):
        rng = np.random.default_rng(2)
        data = Dataset.from_columns({
            "a": rng.normal(size=20_000),
            "x": rng.normal(size=20_000),
        })
        assert abs(ratio_point_estimate(data, "a", "x", [])) < 0.05

    def test_equals_collinearity_ratio_of_same_fit(self):
        data = _study2_dataset(seed=4)
        fit = fit_ols(data, "a", ["x"])
        stats = exposure_stats_from_ols(fit, "x")
        assert ratio_point_estimate(data, "a", "x", []) == collinearity_ratio(stats)


class TestDegenerateExposure:
    def test_exact_fit_is_degenerate_not_a_domain_error(self):
        x = np.random.default_rng(3).normal(size=50)
        data = Dataset.from_columns({"a": 2.0 * x, "x": x})
        with pytest.raises(DegenerateExposureError):
            conservative_ratio_ci(data, "a", "x")
        with pytest.raises(DegenerateExposureError):
            ratio_point_estimate(data, "a", "x")


class TestSingleExposureFit:
    @staticmethod
    def _count_fits(monkeypatch):
        calls = []
        real = ratio_ci.fit_ols
        monkeypatch.setattr(ratio_ci, "fit_ols",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        return calls

    def test_interval_carries_the_point_estimate_of_its_fit(self, monkeypatch):
        data = _study2_dataset(seed=4)
        calls = self._count_fits(monkeypatch)
        interval = conservative_ratio_ci(data, "a", "x", [], 0.95)
        assert len(calls) == 1
        assert interval.point_estimate == ratio_point_estimate(data, "a", "x", [])

    def test_cli_fits_the_exposure_model_once_per_stratum(self, monkeypatch, capsys):
        fixture = str(Path(__file__).resolve().parent.parent / "data" / "nhanes_synthetic.csv")
        calls = self._count_fits(monkeypatch)
        assert main(["ratio-ci", "--input", fixture, "--exposure", "smoker",
                     "--proxy", "poverty_index", "--stratify", "sex",
                     "--format", "json", "--deterministic"]) == 0
        assert len(calls) == 2


class TestRatioIntervalType:
    def test_rejects_unordered_bounds(self):
        with pytest.raises(DomainError):
            RatioInterval(lower=1.0, upper=0.0, level=0.95,
                          beta_interval=(0.0, 1.0), variance_interval=(0.5, 1.0),
                          point_estimate=0.5)

    def test_rejects_nonpositive_variance_interval(self):
        with pytest.raises(DomainError):
            RatioInterval(lower=0.0, upper=1.0, level=0.95,
                          beta_interval=(0.0, 1.0), variance_interval=(0.0, 1.0),
                          point_estimate=0.5)
