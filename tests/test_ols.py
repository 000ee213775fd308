import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confound_lens import (Dataset, InsufficientRowsError, RankDeficientError,
                           STUDY_PRESETS, conservative_ratio_ci, fit_logit, fit_ols, generate,
                           ingest_csv, replicate_study, vif)
from confound_lens import logit, ols
from confound_lens.errors import DomainError

import oracles

# Population values for the bundled study1 model (hand covariance algebra:
# Var(A) = 4.0025, Cov(A,X) = 2, Var(X) = 1.25).
STUDY1_BETA_YAX = 3.3968847352024922
STUDY1_RESID_VAR_AX = 0.8025
STUDY1_R2_AX = 0.7995003123048093


FIXTURE = Path(__file__).resolve().parent.parent / "data" / "nhanes_synthetic.csv"
CONTROLS = ["age", "education_grade"]
# the regressors of the golden "fit" report
FIT_REGRESSORS = ["poverty_index", "age", "education_grade", "race:Black", "race:Other"]


def _data(**cols):
    return Dataset.from_columns(cols)


# y = 3, 5, 7, 9 on x = [1, 2, 3, 4] c, on x shifted by 1e6, and y = 3 - x on
# 1..7.  The residuals y - X b are rounding noise, 0 at some scales of x and not
# at others (c = 0.1, 3, 1/3 and 1e3, and 3 - x), whose RSS gives t near 1e15.
EXACT_FITS = {
    **{f"x*{c:g}": (np.arange(1.0, 5.0) * c, np.arange(3.0, 10.0, 2.0))
       for c in (1.0, 10.0, 0.1, 3.0, 7.0, 1.0 / 3.0, 1e-3, 1e3)},
    "x+1e6": (np.arange(1.0, 5.0) + 1e6, np.arange(3.0, 10.0, 2.0)),
    "3-x": (np.arange(1.0, 8.0), 3.0 - np.arange(1.0, 8.0)),
}


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

    @pytest.mark.parametrize("x, y", EXACT_FITS.values(), ids=EXACT_FITS.keys())
    def test_exact_fit_in_any_units(self, x, y):
        fit = fit_ols(_data(y=y, x=x), "y", ["x"])
        assert list(fit.t_values) == list(np.sign(fit.coefficients) * math.inf)
        assert list(fit.p_values) == [0.0, 0.0]
        assert (fit.residual_variance, fit.r_squared) == (0.0, 1.0)

    @pytest.mark.parametrize("noise, exact", [(1e-9, False), (1e-11, True)])
    def test_exact_fit_rule_edge(self, noise, exact):
        """A residual norm `noise` times y's centred norm: within RANK_TOL
        (1e-10) of it, the rank rule's tolerance, the fit is exact.  The
        residual [1, -1, -1, 1] is orthogonal to the intercept and to x, and
        its norm, 2, is 1 / sqrt(5) of that of 2x less its mean."""
        x = np.arange(1.0, 5.0)
        y = 1.0 + 2.0 * x + noise * math.sqrt(5.0) * np.array([1.0, -1.0, -1.0, 1.0])
        fit = fit_ols(_data(y=y, x=x), "y", ["x"])
        assert (fit.residual_variance == 0.0) == exact
        assert np.isinf(fit.t_values).tolist() == [exact, exact]

    def test_zero_slope_has_p_value_1(self):
        fit = fit_ols(_data(y=[1.0, 2.0, 2.0, 1.0], x=[1.0, 2.0, 3.0, 4.0]), "y", ["x"])
        assert (fit.t_value("x"), fit.p_value("x")) == (0.0, 1.0)

    def test_p_values_are_the_t_tail(self):
        """2 P(T > |t|), not 2 (1 - P(T <= |t|)), which is 0 for the intercept
        (t = 16.55) and 7e-12 off for poverty_index.  References from scipy:
            fit = fit_ols(ingest_csv(FIXTURE), "smoker", FIT_REGRESSORS)
            [2 * scipy.stats.t.sf(abs(t), fit.df_residual) for t in fit.t_values]
        """
        fit = fit_ols(ingest_csv(FIXTURE), "smoker", FIT_REGRESSORS)
        assert fit.df_residual == 794
        np.testing.assert_allclose(fit.p_values, [
            4.178190299861766e-53, 8.879017908307886e-06, 0.0067353809376885475,
            0.03363427593687052, 0.8992225702205555, 0.14459220423362767],
            rtol=2e-12, atol=0.0)

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

    @staticmethod
    def residuals(fit, data):
        """y - X b from the fitted coefficients."""
        X = np.column_stack([np.ones(data.n), data.column("a"), data.column("x")])
        return data.column("y") - X @ fit.coefficients

    def test_residual_orthogonality(self, fit_and_data):
        fit, data = fit_and_data
        n = data.n
        residuals = self.residuals(fit, data)
        for name in ("a", "x"):
            col = data.column(name)
            scale = float(np.max(np.abs(col))) * float(np.max(np.abs(residuals)))
            assert abs(residuals @ col) <= 1e-8 * n * max(scale, 1.0)
        assert abs(residuals.sum()) <= 1e-8 * n  # intercept column

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
        residuals = self.residuals(fit, data)
        rss = float(residuals @ residuals)
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


EXPOSURE_UNITS = (1e-6, -3.0, 1e4, -1e-3)
PROXY_UNITS = (1e-8, -2.0, 1e8, 0.5)


def _rescaled(data: Dataset, name: str, scale: float) -> Dataset:
    values = data.values.copy()
    values[:, data.names.index(name)] *= scale
    return Dataset(data.names, values)


def _ratio_interval(data: Dataset):
    """The ratio interval of smoker ~ poverty_index + CONTROLS."""
    return conservative_ratio_ci(fit_ols(data, "smoker", ["poverty_index", *CONTROLS]),
                                 "poverty_index")


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
        base = _ratio_interval(data)
        ci = _ratio_interval(_rescaled(data, "poverty_index", scale))
        assert ci.point_estimate * scale == pytest.approx(base.point_estimate, rel=1e-12)

    @pytest.mark.parametrize("a, b", itertools.product(EXPOSURE_UNITS, PROXY_UNITS))
    def test_rescaled_exposure_and_proxy_scale_the_ratio_interval(self, a, b):
        """With the exposure in units of a and the proxy in units of b, the ratio
        and both interval ends are the original ones over a * b; the ends swap
        when a * b < 0."""
        data = ingest_csv(FIXTURE)
        base = _ratio_interval(data)
        ci = _ratio_interval(_rescaled(_rescaled(data, "smoker", a), "poverty_index", b))
        ends = (ci.lower, ci.upper) if a * b > 0 else (ci.upper, ci.lower)
        np.testing.assert_allclose(np.array([ci.point_estimate, *ends]) * (a * b),
                                   [base.point_estimate, base.lower, base.upper],
                                   rtol=1e-9, atol=0.0)

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
    """The VIFs, or the kind of error raised."""
    try:
        return np.array(fn())
    except oracles.VifOracleError as exc:
        return exc.kind
    except RankDeficientError:
        return "rank"
    except InsufficientRowsError:
        return "rows"


# Each VIF lies within VIF_REL_TOL * eps * sqrt(sum of the design's VIFs) of
# the exact one, relatively.  A design's rounding error reaches every VIF
# through its smallest singular value with unit columns, whose inverse square
# is at most that sum, so a VIF of 1.2 beside one of 1e15 may err by 2e-8.
# The worst seen was 3.4, over 10000 vif_designs() examples (about 6000 of
# full rank); the former nested refits (1 / (1 - R^2) by subtraction) broke
# the bound on 320 of 1666 and read inf on some.
VIF_REL_TOL = 25.0
EPS = np.finfo(np.float64).eps


def _assert_vifs_near_exact(got, values):
    exact = np.array(oracles.vif_exact(values))
    assert np.all(got >= 1.0), got
    bound = VIF_REL_TOL * EPS * math.sqrt(exact.sum())
    np.testing.assert_array_less(np.abs(got - exact), bound * exact)


class TestVifAgainstOracles:
    @settings(max_examples=400, deadline=None)
    @given(vif_designs())
    def test_near_exact_with_the_nested_refits_verdict(self, values):
        """The rows/rank verdict of the former nested refits, and VIFs within
        the bound of the exact ones."""
        names = [f"x{j}" for j in range(values.shape[1])]
        got = _vif_outcome(lambda: vif(Dataset(tuple(names), values), names))
        expected = _vif_outcome(lambda: oracles.vif_nested(values))
        if isinstance(expected, str) or isinstance(got, str):
            assert got == expected
        else:
            _assert_vifs_near_exact(got, values)

    def test_one_r_only_qr_and_no_refit(self, monkeypatch):
        modes = []
        qr = np.linalg.qr

        def counted_qr(a, mode="reduced"):
            modes.append(mode)
            return qr(a, mode=mode)

        def no_refit(*args):
            raise AssertionError("vif refits")

        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        monkeypatch.setattr(ols, "_fit", no_refit)
        data = ingest_csv(FIXTURE)
        assert len(vif(data, ["poverty_index", *CONTROLS])) == 3
        assert modes == ["r"]

    def test_as_many_rows_as_regressors(self):
        data = _data(x1=[1.0, 2.0, 4.0], x2=[3.0, 1.0, 0.5], x3=[0.2, 0.9, 0.1])
        with pytest.raises(InsufficientRowsError):
            vif(data, ["x1", "x2", "x3"])
        with pytest.raises(oracles.VifOracleError, match="rows"):
            oracles.vif_nested(data.values)


@st.composite
def design_stacks(draw):
    """(b, n, p + 1) arrays: a stack of regressors with their outcome last,
    columns on scales from 1e-6 to 1e6 and origins up to 1e6 away."""
    b, p = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    n = draw(st.integers(p + 2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    exponents = draw(st.lists(st.integers(-6, 6), min_size=p + 1, max_size=p + 1))
    origins = draw(st.lists(st.floats(-1e6, 1e6), min_size=p + 1, max_size=p + 1))
    return rng.normal(size=(b, n, p + 1)) * 10.0 ** np.array(exponents, dtype=np.float64) \
        + np.array(origins)


# |r_squared - r_squared_two_pass| <= R2_TOL * eps * kappa, kappa the
# condition number of the centred design with unit columns, through which the
# rounding of either fit reaches R^2.  The worst seen was 3.8 over 30000 random
# designs like design_stacks' (a third of them with n = p + 2 to p + 4);
# unscaled by kappa the error reached 34 eps, at kappa = 182.
R2_TOL = 8.0


def _unit_column_condition(values: np.ndarray) -> float:
    X = np.column_stack([np.ones(len(values)), values - values.mean(axis=0)])
    svals = np.linalg.svd(X / np.linalg.norm(X, axis=0), compute_uv=False)
    return float(svals[0] / svals[-1])


class TestOneFactor:
    @settings(max_examples=200, deadline=None)
    @given(design_stacks())
    def test_r_squared_within_rounding_of_the_two_pass_formula(self, values):
        for design in values:
            names = [f"x{j}" for j in range(design.shape[1] - 1)]
            got = fit_ols(Dataset((*names, "y"), design), "y", names).r_squared
            expected = oracles.r_squared_two_pass(design[:, :-1], design[:, -1])
            bound = R2_TOL * EPS * _unit_column_condition(design[:, :-1])
            assert abs(got - expected) <= bound, (got, expected)

    def test_qr_runs_in_mode_r_only(self, monkeypatch):
        modes = []
        qr = np.linalg.qr

        def recorded_qr(a, mode="reduced"):
            modes.append(mode)
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", recorded_qr)
        data = ingest_csv(FIXTURE)
        fit_ols(data, "smoker", FIT_REGRESSORS)
        vif(data, FIT_REGRESSORS)
        replicate_study(STUDY_PRESETS["study1"], 200, 3, seed=1)
        probs = fit_logit(data, "smoker", FIT_REGRESSORS).fitted_probabilities
        # no row saturates, so the separation check forms no Q either
        assert np.abs(np.log(probs / (1.0 - probs))).max() <= logit.SATURATION_ETA
        assert len(modes) > 4 and set(modes) == {"r"}


class TestStackedKernel:
    @settings(max_examples=200, deadline=None)
    @given(design_stacks())
    def test_each_fit_of_a_stack_is_bit_identical_to_its_single_fit(self, values):
        stacked = ols._fit(values[..., :-1], values[..., -1])
        for i in range(values.shape[0]):
            single = ols._fit(values[i, :, :-1], values[i, :, -1])
            # coefficients, standard errors, t-values, RSS, R^2
            for a, b in zip(single, stacked, strict=True):
                assert np.asarray(a).tobytes() == b[i].tobytes()

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

