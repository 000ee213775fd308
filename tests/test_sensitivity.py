import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confound_lens import (STUDY_PRESETS, Dataset, SensitivityReport, TreatmentSummary,
                           fit_ols, generate, partial_r2, robustness_value,
                           robustness_value_alpha, sensitivity_report)
from confound_lens.errors import DomainError

# The six reference values for the two bundled studies (t, df = 997).
# Only (t, df) enter the statistics; attaching the 5-decimal rounded
# estimate/SE pairs would trip the 1e-8 consistency check, by design.
STUDY1_TS = TreatmentSummary(t_value=64.27081, df=997)
STUDY2_TS = TreatmentSummary(t_value=65.7786, df=997)


class TestReferenceValues:
    @pytest.mark.parametrize("ts,pr2,rv,rva", [
        (STUDY1_TS, 0.80557, 0.83266, 0.82515),
        (STUDY2_TS, 0.81273, 0.83813, 0.83096),
    ])
    def test_five_decimal_reference_block(self, ts, pr2, rv, rva):
        assert partial_r2(ts) == pytest.approx(pr2, abs=5e-5)
        assert robustness_value(ts, q=1.0) == pytest.approx(rv, abs=5e-5)
        assert robustness_value_alpha(ts, q=1.0, alpha=0.05) == \
            pytest.approx(rva, abs=5e-5)


class TestTrivialCases:
    def test_zero_t(self):
        ts = TreatmentSummary(t_value=0.0, df=997)
        assert partial_r2(ts) == 0.0
        assert robustness_value(ts) == 0.0
        assert robustness_value_alpha(ts) == 0.0

    def test_insignificant_t_gives_zero_alpha_rv(self):
        ts = TreatmentSummary(t_value=0.5, df=30)
        assert robustness_value_alpha(ts, q=1.0, alpha=0.05) == 0.0
        assert robustness_value(ts) > 0.0


class TestInvariants:
    @given(t=st.floats(min_value=-500, max_value=500),
           df=st.integers(min_value=1, max_value=5000),
           q=st.floats(min_value=1e-3, max_value=10))
    @settings(max_examples=300, deadline=None)
    def test_defining_identity(self, t, df, q):
        ts = TreatmentSummary(t_value=t, df=df)
        rv = robustness_value(ts, q)
        f_q2 = (q * abs(t) / math.sqrt(df)) ** 2
        # recovering f^2 from rv amplifies one ulp of rv by ~f^4, so the
        # identity is only representable in doubles for moderate f
        assume(f_q2 <= 1e4)
        assert abs(rv * rv / (1.0 - rv) - f_q2) <= 1e-10 * max(1.0, f_q2)

    def test_alpha_rv_never_exceeds_rv_200_draws(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            ts = TreatmentSummary(t_value=float(rng.normal(0, 40)),
                                  df=int(rng.integers(2, 3000)))
            q = float(rng.uniform(0.05, 4.0))
            alpha = float(rng.uniform(0.001, 0.999))
            assert robustness_value_alpha(ts, q, alpha) <= robustness_value(ts, q)

    def test_monotone_in_abs_t(self):
        df, q, alpha = 120, 1.0, 0.05
        ts_values = [TreatmentSummary(t_value=t, df=df)
                     for t in np.linspace(0.0, 60.0, 40)]
        rvs = [robustness_value(ts, q) for ts in ts_values]
        rvas = [robustness_value_alpha(ts, q, alpha) for ts in ts_values]
        assert all(b >= a for a, b in zip(rvs, rvs[1:]))
        assert all(b >= a for a, b in zip(rvas, rvas[1:]))

    @given(t=st.floats(min_value=-300, max_value=300),
           df=st.integers(min_value=1, max_value=5000))
    @settings(max_examples=200, deadline=None)
    def test_partial_r2_consistency_with_f(self, t, df):
        ts = TreatmentSummary(t_value=t, df=df)
        pr2 = partial_r2(ts)
        f2 = (abs(t) / math.sqrt(df)) ** 2
        assume(f2 <= 1e3)  # same ulp-amplification limit as above
        assert abs(pr2 / (1.0 - pr2) - f2) <= 1e-12 * max(1.0, f2)

    @pytest.mark.parametrize("df", [2, 997])
    @pytest.mark.parametrize("t", [1e8, 5e9, -5e9, 1e154, 1e200])
    def test_values_stay_inside_unit_interval_for_huge_t(self, t, df):
        # each statistic rounds to 1 from |t| / sqrt(df) ~ 1e8; t^2 overflows from |t| ~ 1.3e154
        ts = TreatmentSummary(t_value=t, df=df)
        report = sensitivity_report(ts)
        values = [robustness_value(ts), robustness_value_alpha(ts), partial_r2(ts),
                  report.partial_r2, report.rv_q, report.rv_q_alpha]
        assert all(math.isfinite(v) and 0.0 <= v < 1.0 for v in values), values


class TestTreatmentSummary:
    def test_consistency_check(self):
        with pytest.raises(DomainError):
            TreatmentSummary(t_value=10.0, df=50, estimate=1.0, std_error=1.0)

    def test_valid_triple_accepted(self):
        ts = TreatmentSummary(t_value=2.0, df=50, estimate=1.0, std_error=0.5)
        assert ts.estimate == 1.0

    @pytest.mark.parametrize("df", [0, -1, 1.5])
    def test_df_validation(self, df):
        with pytest.raises(DomainError):
            TreatmentSummary(t_value=1.0, df=df)

    def test_nonfinite_t_rejected(self):
        with pytest.raises(DomainError):
            TreatmentSummary(t_value=float("inf"), df=10)

    def test_from_ols_matches_direct_construction(self):
        data = generate(STUDY_PRESETS["study1"], 500, 9)
        fit = fit_ols(data, "y", ["a", "x"])
        ts = TreatmentSummary.from_ols(fit, "a")
        direct = TreatmentSummary(t_value=fit.t_value("a"), df=fit.df_residual,
                                  estimate=fit.coefficient("a"),
                                  std_error=fit.std_error("a"))
        assert sensitivity_report(ts) == sensitivity_report(direct)

    @pytest.mark.parametrize("y", [[3.0, 5.0, 7.0, 9.0], [2.0, 2.0, 2.0, 2.0]],
                             ids=["t-inf", "t-0"])
    def test_from_ols_rejects_an_exactly_fitted_treatment(self, y):
        fit = fit_ols(Dataset.from_columns({"y": y, "x": [1.0, 2.0, 3.0, 4.0]}), "y", ["x"])
        assert fit.std_error("x") == 0.0
        with pytest.raises(DomainError, match="treatment 'x' has standard error 0 "
                                              r"\(an exact fit\)"):
            TreatmentSummary.from_ols(fit, "x")

    def test_alpha_rv_needs_df_at_least_two(self):
        ts = TreatmentSummary(t_value=5.0, df=1)
        with pytest.raises(DomainError):
            robustness_value_alpha(ts)


class TestReportObject:
    def test_report_collects_all_statistics(self):
        r = sensitivity_report(STUDY1_TS, q=1.0, alpha=0.05)
        assert isinstance(r, SensitivityReport)
        assert r.rv_q_alpha <= r.rv_q
        assert r.q == 1.0 and r.alpha == 0.05

    def test_invalid_q_and_alpha(self):
        with pytest.raises(DomainError):
            robustness_value(STUDY1_TS, q=0.0)
        with pytest.raises(DomainError):
            robustness_value_alpha(STUDY1_TS, alpha=1.0)

    def test_report_invariant_enforced(self):
        with pytest.raises(DomainError):
            SensitivityReport(partial_r2=0.5, rv_q=0.3, rv_q_alpha=0.4,
                              q=1.0, alpha=0.05)
