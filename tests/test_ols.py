import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confound_lens import (Dataset, InsufficientRowsError, RankDeficientError,
                           STUDY_PRESETS, conservative_ratio_ci, fit_ols, generate,
                           ingest_csv, vif)
from confound_lens import ols
from confound_lens.errors import DomainError

import oracles

# Population values for the bundled study1 model (hand covariance algebra:
# Var(A) = 4.0025, Cov(A,X) = 2, Var(X) = 1.25).
STUDY1_BETA_YAX = 3.3968847352024922
STUDY1_RESID_VAR_AX = 0.8025
STUDY1_R2_AX = 0.7995003123048093


def _data(**cols):
    return Dataset.from_columns(cols)


class TestFitOls:
    def test_exact_fit(self):
        data = _data(y=[3.0, 5.0, 7.0, 9.0], x=[1.0, 2.0, 3.0, 4.0])
        fit = fit_ols(data, "y", ["x"])
        assert fit.coefficient("intercept") == pytest.approx(1.0, abs=1e-12)
        assert fit.coefficient("x") == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.residual_variance == pytest.approx(0.0, abs=1e-20)
        # zero residuals: infinite t-values, whose p-values are exactly 0
        assert list(fit.t_values) == [math.inf, math.inf]
        assert list(fit.p_values) == [0.0, 0.0]

    def test_intercept_only_residual_variance_is_sample_variance(self):
        data = _data(y=[1.0, 2.0, 3.0])
        fit = fit_ols(data, "y", [])
        assert fit.residual_variance == pytest.approx(1.0, abs=1e-14)

    def test_duplicated_regressor_is_rank_deficient(self):
        data = _data(y=[1.0, 2.0, 3.0, 4.0], x1=[1.0, 2.0, 3.0, 4.5],
                     x2=[1.0, 2.0, 3.0, 4.5])
        with pytest.raises(RankDeficientError):
            fit_ols(data, "y", ["x1", "x2"])

    def test_insufficient_rows(self):
        data = _data(y=[1.0, 2.0, 3.0], a=[1.0, 0.0, 2.0], b=[0.0, 1.0, 1.5])
        with pytest.raises(InsufficientRowsError):
            fit_ols(data, "y", ["a", "b"])

    def test_unknown_column(self):
        data = _data(y=[1.0, 2.0], x=[0.0, 1.0])
        with pytest.raises(KeyError):
            fit_ols(data, "y", ["nope"])

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_study1_sample_recovers_population_coefficient(self, seed):
        data = generate(STUDY_PRESETS["study1"], 1000, seed)
        fit = fit_ols(data, "y", ["a", "x"])
        assert abs(fit.coefficient("a") - STUDY1_BETA_YAX) < 3 * fit.std_error("a")

    def test_study1_exposure_residual_variance(self):
        data = generate(STUDY_PRESETS["study1"], 100_000, 11)
        fit = fit_ols(data, "a", ["x"])
        assert fit.residual_variance == pytest.approx(STUDY1_RESID_VAR_AX, abs=0.02)
        assert fit.r_squared == pytest.approx(STUDY1_R2_AX, abs=0.01)


class TestAgainstNormalEquations:
    @pytest.mark.parametrize("trial", range(12))
    def test_matches_brute_force(self, trial):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(6, 21))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        cols = {f"x{j}": X[:, j] for j in range(p)}
        cols["y"] = y
        fit = fit_ols(Dataset.from_columns(cols), "y",
                      [f"x{j}" for j in range(p)])
        expected = oracles.ols_normal_equations(
            np.column_stack([np.ones(n), X]), y)
        np.testing.assert_allclose(fit.coefficients, expected, rtol=1e-9)


class TestFitInvariants:
    @pytest.fixture()
    def fit_and_data(self):
        data = generate(STUDY_PRESETS["study2"], 400, 3)
        return fit_ols(data, "y", ["a", "x"]), data

    def test_residual_orthogonality(self, fit_and_data):
        fit, data = fit_and_data
        n = data.n
        for name in ("a", "x"):
            col = data.column(name)
            scale = float(np.max(np.abs(col))) * float(np.max(np.abs(fit.residuals)))
            assert abs(fit.residuals @ col) <= 1e-8 * n * max(scale, 1.0)
        assert abs(fit.residuals.sum()) <= 1e-8 * n  # intercept column

    def test_fitted_plus_residual_reconstructs_outcome(self, fit_and_data):
        fit, data = fit_and_data
        y = data.column("y")
        X = np.column_stack([np.ones(data.n), data.column("a"), data.column("x")])
        reconstructed = X @ fit.coefficients + fit.residuals
        np.testing.assert_allclose(reconstructed, y, rtol=1e-10)

    def test_t_equals_estimate_over_se(self, fit_and_data):
        fit, _ = fit_and_data
        np.testing.assert_allclose(
            fit.t_values, fit.coefficients / fit.standard_errors, rtol=1e-12)

    @pytest.mark.parametrize("c", [2.0, -0.5, 1e4, 1e-4])
    def test_affine_equivariance(self, fit_and_data, c):
        fit, data = fit_and_data
        scaled = Dataset.from_columns({
            "y": data.column("y"),
            "a": data.column("a") * c,
            "x": data.column("x"),
        })
        refit = fit_ols(scaled, "y", ["a", "x"])
        assert refit.coefficient("a") == pytest.approx(fit.coefficient("a") / c, rel=1e-10)
        assert refit.std_error("a") == pytest.approx(fit.std_error("a") / abs(c), rel=1e-10)
        assert refit.t_value("a") == pytest.approx(fit.t_value("a") * np.sign(c), rel=1e-10)
        assert refit.p_value("a") == pytest.approx(fit.p_value("a"), rel=1e-8, abs=1e-300)
        assert refit.r_squared == pytest.approx(fit.r_squared, rel=1e-10)
        assert refit.residual_variance == pytest.approx(fit.residual_variance, rel=1e-10)

    def test_df_residual_accounting(self, fit_and_data):
        fit, data = fit_and_data
        assert fit.df_residual == data.n - 3
        rss = float(fit.residuals @ fit.residuals)
        assert fit.residual_variance == pytest.approx(rss / fit.df_residual, rel=1e-14)


class TestVif:
    def test_orthogonal_columns(self):
        data = _data(x1=[1.0, -1.0, 1.0, -1.0], x2=[1.0, 1.0, -1.0, -1.0],
                     y=[0.1, 0.2, 0.3, 0.4])
        assert vif(data, ["x1", "x2"]) == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_near_duplicate_columns_blow_up(self):
        rng = np.random.default_rng(5)
        x1 = rng.normal(size=200)
        x2 = x1 + 1e-4 * rng.normal(size=200)
        data = _data(x1=x1, x2=x2)
        values = vif(data, ["x1", "x2"])
        assert all(v > 10 for v in values)

    def test_study1_pair(self):
        data = generate(STUDY_PRESETS["study1"], 100_000, 2)
        values = vif(data, ["a", "x"])
        assert values[0] == pytest.approx(1.0 / (1.0 - STUDY1_R2_AX), abs=0.15)

    def test_needs_two_regressors(self):
        data = _data(x=[1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            vif(data, ["x"])

    def test_exact_duplicate_raises(self):
        data = _data(x1=[1.0, 2.0, 3.0, 4.0], x2=[2.0, 4.0, 6.0, 8.0])
        with pytest.raises(RankDeficientError):
            vif(data, ["x1", "x2"])


FIXTURE = Path(__file__).resolve().parent.parent / "data" / "nhanes_synthetic.csv"
CONTROLS = ["age", "education_grade"]


def _rescaled(data: Dataset, name: str, scale: float) -> Dataset:
    values = data.values.copy()
    values[:, data.names.index(name)] *= scale
    return Dataset(data.names, values)


class TestRankCheckIsUnitFree:
    """The rank verdict reads the design with unit columns: a money column in
    cents (poverty_index x 1e7 has a raw singular-value ratio of 9e-11) fits,
    while a collinear or all-zero column is still rejected whatever its units."""

    @pytest.mark.parametrize("scale", [1e7, 1e8])
    def test_rescaled_column_fits_with_inverse_coefficient(self, scale):
        data = ingest_csv(FIXTURE)
        base = fit_ols(data, "smoker", ["poverty_index", *CONTROLS])
        fit = fit_ols(_rescaled(data, "poverty_index", scale), "smoker",
                      ["poverty_index", *CONTROLS])
        assert fit.coefficient("poverty_index") == pytest.approx(
            base.coefficient("poverty_index") / scale, rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("scale", [1e7, 1e8])
    def test_rescaled_proxy_ratio_interval_fits(self, scale):
        data = ingest_csv(FIXTURE)
        base = conservative_ratio_ci(data, "smoker", "poverty_index", CONTROLS)
        ci = conservative_ratio_ci(_rescaled(data, "poverty_index", scale), "smoker",
                                   "poverty_index", CONTROLS)
        assert ci.point_estimate * scale == pytest.approx(base.point_estimate, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_exact_collinearity_is_caught_at_any_scale(self, scale):
        data = ingest_csv(FIXTURE)
        dup = scale * data.column("poverty_index")
        values = np.column_stack([data.values, dup])
        with pytest.raises(RankDeficientError):
            fit_ols(Dataset((*data.names, "dup"), values), "smoker",
                    ["poverty_index", "dup", *CONTROLS])

    def test_all_zero_column_raises(self):
        data = _data(y=[1.0, 2.0, 3.0, 4.0], x=[1.0, 2.0, 3.0, 5.0], z=[0.0] * 4)
        with pytest.raises(RankDeficientError, match="all zero"):
            fit_ols(data, "y", ["x", "z"])


@st.composite
def vif_designs(draw):
    """(n, k) regressor arrays: plain, near-collinear or with an indicator,
    columns on scales from 1e-6 to 1e6, and n down to 1 row."""
    k = draw(st.integers(2, 5))
    n = draw(st.one_of(st.integers(1, k + 2), st.integers(k + 3, 400)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.normal(size=(n, k))
    kind = draw(st.sampled_from(["plain", "near-collinear", "indicator"]))
    if kind == "near-collinear":
        noise = 10.0 ** draw(st.integers(-14, -2))
        values[:, -1] = values[:, :-1] @ rng.normal(size=k - 1) + noise * rng.normal(size=n)
    elif kind == "indicator":
        values[:, 0] = rng.random(n) < 0.5
    exponents = draw(st.lists(st.integers(-6, 6), min_size=k, max_size=k))
    return values * 10.0 ** np.array(exponents, dtype=np.float64)


def _vif_outcome(fn):
    """The VIFs' bytes, or the kind of error raised."""
    try:
        return np.array(fn()).tobytes()
    except oracles.VifOracleError as exc:
        return exc.kind
    except RankDeficientError:
        return "rank"
    except InsufficientRowsError:
        return "rows"


class TestVifMatchesNestedRefits:
    @settings(max_examples=400, deadline=None)
    @given(vif_designs())
    def test_bit_identical_or_same_error(self, values):
        names = [f"x{j}" for j in range(values.shape[1])]
        data = Dataset(tuple(names), values)
        assert _vif_outcome(lambda: vif(data, names)) == \
            _vif_outcome(lambda: oracles.vif_nested(data.values))

    def test_as_many_rows_as_regressors(self):
        data = _data(x1=[1.0, 2.0, 4.0], x2=[3.0, 1.0, 0.5], x3=[0.2, 0.9, 0.1])
        with pytest.raises(InsufficientRowsError):
            vif(data, ["x1", "x2", "x3"])
        with pytest.raises(oracles.VifOracleError, match="rows"):
            oracles.vif_nested(data.values)


@st.composite
def design_stacks(draw):
    """(b, n, p + 1) arrays: a stack of designs with their outcome last,
    columns on scales from 1e-6 to 1e6."""
    b, p = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    n = draw(st.integers(p + 1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    exponents = draw(st.lists(st.integers(-6, 6), min_size=p + 1, max_size=p + 1))
    return rng.normal(size=(b, n, p + 1)) * 10.0 ** np.array(exponents, dtype=np.float64)


class TestStackedKernel:
    @settings(max_examples=200, deadline=None)
    @given(design_stacks())
    def test_each_fit_of_a_stack_is_bit_identical_to_its_single_fit(self, values):
        X, y = np.ascontiguousarray(values[..., :-1]), values[..., -1]
        df = X.shape[1] - X.shape[2]
        stacked = ols._least_squares(X, y)
        stacked_se = ols._standard_errors(stacked[0], stacked[3], stacked[2] / df)
        for i in range(X.shape[0]):
            single = ols._least_squares(X[i], y[i])
            for a, b in zip(single, stacked):
                assert np.asarray(a).tobytes() == b[i].tobytes()
            single_se = ols._standard_errors(single[0], single[3], float(single[2]) / df)
            for a, b in zip(single_se, stacked_se):
                assert a.tobytes() == b[i].tobytes()

    def test_rank_check_of_a_stack_fails_for_any_collinear_design(self):
        X = np.random.default_rng(0).normal(size=(3, 20, 2))
        X[1, :, 1] = 2.0 * X[1, :, 0]
        with pytest.raises(RankDeficientError):
            ols._least_squares(X, X[..., 0].copy())


class TestDataset:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            _data(x=[1.0, np.nan])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            Dataset(("a", "a"), np.ones((2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(("a",), np.empty((0, 1)))

    def test_immutable(self):
        data = _data(x=[1.0, 2.0])
        with pytest.raises(ValueError):
            data.values[0, 0] = 5.0

