import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confound_lens.distributions import (chisq_cdf, chisq_quantile, normal_cdf,
                                         normal_quantile, normal_quantile_vec, t_cdf,
                                         t_quantile)
from confound_lens import distributions
from confound_lens.errors import DomainError

import oracles

# Frozen from the oracles in oracles.py (erf bisection, density quadrature).
NORMAL_Q_975 = 1.9599639845400545
T_Q_975_996 = 1.9623486307683535
T_Q_975_1 = 12.706204736174696
CHISQ_Q_975_10 = 20.483177350807267
CHISQ_Q_025_10 = 3.246972780236801
T_CDF_19624_996 = 0.975002992701876


class TestQuantileProbability:
    """p of a quantile function lies strictly inside (0, 1)."""

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7, float("nan"), float("inf")])
    def test_rejects_out_of_range(self, bad):
        for quantile in (normal_quantile, lambda p: t_quantile(p, 5),
                         lambda p: chisq_quantile(p, 5)):
            with pytest.raises(DomainError):
                quantile(bad)


class TestNormal:
    def test_median_is_zero(self):
        assert normal_quantile(0.5) == 0.0

    def test_upper_quantile_matches_oracle(self):
        assert normal_quantile(0.975) == pytest.approx(NORMAL_Q_975, abs=1e-9)
        live = oracles.normal_quantile_oracle(0.975)
        assert normal_quantile(0.975) == pytest.approx(live, abs=1e-9)

    def test_antisymmetry(self):
        assert normal_quantile(0.025) == pytest.approx(-normal_quantile(0.975), abs=1e-12)

    def test_cdf_matches_erf(self):
        for x in np.linspace(-8, 8, 101):
            assert normal_cdf(float(x)) == pytest.approx(
                oracles.normal_cdf_erf(float(x)), abs=1e-12)

    def test_round_trip_dense_grid(self):
        ps = np.arange(1, 1000) / 1000.0
        zs = normal_quantile_vec(ps)
        back = np.array([normal_cdf(float(z)) for z in zs])
        assert np.max(np.abs(back - ps)) <= 1e-8

    def test_vec_agrees_with_scalar(self):
        ps = np.array([1e-9, 0.02425, 0.3, 0.5, 0.7, 1 - 1e-9])
        zs = normal_quantile_vec(ps)
        for p, z in zip(ps, zs):
            assert normal_quantile(float(p)) == z

    @pytest.mark.parametrize("bad", [0.0, 1.0, -1.0, 2.0])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            normal_quantile(bad)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _neighbours(values, count: int) -> np.ndarray:
    """Each value and the `count` floats either side of it."""
    out = []
    for v in np.asarray(values, dtype=np.float64):
        lo = hi = v
        out.append(v)
        for _ in range(count):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            out += [lo, hi]
    return np.array(out)


def _quantile_bits_match_masked_kernel(p: np.ndarray) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = normal_quantile_vec(p)
    assert z.shape == p.shape
    assert np.array_equal(_bits(z), _bits(oracles.normal_quantile_vec_masked(p)))


@st.composite
def probability_arrays(draw):
    """Arrays of 1 to 40,000 probabilities in (0, 1), spanning several
    sampler blocks: the sampler's own 53-bit grid, uniform doubles, log-uniform
    deep tails on either side, and hypothesis-chosen values scattered in."""
    n = draw(st.integers(1, 40_000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["grid53", "uniform", "deep-tail"]))
    if kind == "grid53":
        # bins below the top one, whose centre rounds to exactly 1.0
        p = (rng.integers(0, 2 ** 53 - 1, n, dtype=np.uint64) + 0.5) / 2.0 ** 53
    elif kind == "uniform":
        p = rng.random(n)
    else:
        p = 10.0 ** rng.uniform(-300.0, -1.0, n)
        p = np.where(rng.random(n) < 0.5, p, 1.0 - p)
    special = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                            max_size=20))
    p[rng.integers(0, n, len(special))] = special
    return np.where((p > 0.0) & (p < 1.0), p, 0.5)


class TestSamplerBitIdentity:
    """The blocked, bitwise-selecting normal kernels reproduce the former
    masked-selection kernels (tests/oracles.py) bit for bit, and warn on no
    valid input although every element runs every main branch."""

    @settings(max_examples=60, deadline=None)
    @given(probability_arrays())
    def test_quantile_arrays(self, p):
        _quantile_bits_match_masked_kernel(p)

    def test_quantile_edges(self):
        edges = _neighbours([
            0.5, 0.02425, 0.97575,                 # Acklam's branch edges
            0.5 / 2 ** 53, 1.0 - 2.0 ** -52,       # ends of the sampler's 53-bit grid
            5e-324, 2.2250738585072014e-308,      # subnormal and smallest normal
            float(np.nextafter(1.0, 0.0)),
        ], 100)
        # Cody's erfc branch edges |x| = 0.46875 and 4, as Newton-step points
        z_edges = _neighbours([-0.46875 * math.sqrt(2.0), -4.0 * math.sqrt(2.0)], 100)
        p_edges = np.array([normal_cdf(float(z)) for z in z_edges])
        p = np.concatenate([edges, p_edges, 1.0 - p_edges])
        _quantile_bits_match_masked_kernel(p[(p > 0.0) & (p < 1.0)])

    def test_quantile_two_dimensional_and_strided(self):
        n = 3 * 16384 // 4 + 5
        p = np.random.default_rng(11).random((n, 4))
        p[p == 0.0] = 0.5
        _quantile_bits_match_masked_kernel(p)
        _quantile_bits_match_masked_kernel(p[::3, 1::2])
        _quantile_bits_match_masked_kernel(p.T)

    def test_quantile_zero_dimensional(self):
        _quantile_bits_match_masked_kernel(np.array(0.3))

    def test_cdf(self):
        xs = np.concatenate([
            np.linspace(-40.0, 40.0, 4001),
            [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
             -2.2250738585072014e-308],
            _neighbours([0.46875 * math.sqrt(2.0), 4.0 * math.sqrt(2.0)], 100),
            -_neighbours([0.46875 * math.sqrt(2.0), 4.0 * math.sqrt(2.0)], 100),
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.array([normal_cdf(float(x)) for x in xs])
        with np.errstate(under="ignore"):
            want = np.array([float(0.5 * oracles.erfc_masked(np.float64(-x) / math.sqrt(2.0)))
                             for x in xs])
        assert np.array_equal(_bits(got), _bits(want))


class TestStudentT:
    @pytest.mark.parametrize("df", [1, 3, 996])
    def test_center(self, df):
        assert t_cdf(0.0, df) == 0.5
        assert t_quantile(0.5, df) == 0.0

    def test_cdf_matches_quadrature_oracle(self):
        assert t_cdf(1.9624, 996) == pytest.approx(T_CDF_19624_996, abs=1e-9)
        for x, df in [(0.5, 3), (2.0, 7), (-1.3, 12), (3.5, 996)]:
            assert t_cdf(x, df) == pytest.approx(oracles.t_cdf_oracle(x, df), abs=1e-9)

    def test_antisymmetry(self):
        for x, df in [(0.7, 4), (1.9624, 996), (2.5, 1)]:
            assert t_cdf(-x, df) == pytest.approx(1.0 - t_cdf(x, df), abs=1e-12)

    def test_quantiles_match_oracle(self):
        assert t_quantile(0.975, 996) == pytest.approx(T_Q_975_996, abs=1e-7)
        assert t_quantile(0.975, 1) == pytest.approx(T_Q_975_1, abs=1e-9)
        assert t_quantile(0.975, 1) == pytest.approx(
            math.tan(math.pi * (0.975 - 0.5)), abs=1e-12)

    def test_quantile_inverts_cdf(self):
        for p in (0.001, 0.2, 0.6, 0.975, 0.999):
            for df in (1, 2, 5, 996):
                assert abs(t_cdf(t_quantile(p, df), df) - p) <= 1e-9

    def test_large_df_approaches_normal(self):
        assert t_quantile(0.975, 10 ** 6) == pytest.approx(
            normal_quantile(0.975), abs=1e-4)

    @pytest.mark.parametrize("df", [0, -3, 1.5, "x"])
    def test_df_domain(self, df):
        with pytest.raises(DomainError):
            t_cdf(1.0, df)

    # P(T <= -x) by 40-digit mpmath (CI installs no mpmath):
    #     mp.dps = 40
    #     X = mpf(x)
    #     tail = betainc(mpf(df) / 2, mpf(1) / 2, 0, df / (df + X * X), regularized=True) / 2
    # where the tail is >= 1e-300.  df = 24997 is the survey strata's.
    T_CDF_MPMATH = [
        (1, 1e-08, 0.49999999681690116), (1, 1.96, 0.15017144588801656),
        (1, 30.0, 0.010606402405535424), (1, 1e+100, 3.183098861837907e-101),
        (2, 1e-08, 0.4999999964644661), (2, 1.96, 0.09452865480086614),
        (2, 30.0, 0.0005546313409798294), (2, 1e+100, 5e-201),
        (3, 1e-08, 0.499999996324474), (3, 1.96, 0.07242610428242682),
        (3, 30.0, 4.0676402135819796e-05), (3, 1e+100, 1.1026577908435841e-300),
        (27, 1e-08, 0.49999999604733747), (27, 1.96, 0.0301958651607711),
        (27, 30.0, 1.4289356486694257e-22),
        (996, 1e-08, 0.4999999960115784), (996, 1.96, 0.02513714970799514),
        (996, 30.0, 1.0780769012268518e-141),
        (24997, 1e-08, 0.4999999960106171), (24997, 1.96, 0.025003441673335926),
        (24997, 30.0, 1.3628377880959943e-194),
        (1000000, 1e-08, 0.4999999960105782), (1000000, 1.96, 0.024998033792634895),
        (1000000, 30.0, 6.010047116831719e-198),
        (100000000, 1e-08, 0.4999999960105772), (100000000, 1.96, 0.024997896534664055),
        (100000000, 30.0, 4.916682142941633e-198),
    ]

    @pytest.mark.parametrize("df, x, tail", T_CDF_MPMATH)
    def test_cdf_matches_mpmath_on_the_smaller_tail(self, df, x, tail):
        assert t_cdf(-x, df) == pytest.approx(tail, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("df", [1, 2, 30, 2 ** 62, 10 ** 300])
    def test_cdf_is_a_probability_at_any_x(self, df):
        # The shifted window keeps the node count bounded at any (df, x).
        for x in (5e-324, 1e200, 1e300, math.inf):
            for signed in (x, -x):
                value = t_cdf(signed, df)
                assert type(value) is float and 0.0 <= value <= 1.0

    @pytest.mark.parametrize("df", [10 ** 10, 10 ** 16, 10 ** 18, 2 ** 62, 10 ** 300])
    def test_quantile_at_huge_df_matches_its_expansion(self, df):
        # The next term of the expansion is O(1 / df^2).
        z = normal_quantile(0.975)
        expected = z + (z ** 3 + z) / (4 * df)
        assert t_quantile(0.975, df) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("df, p, expected", [
        (1, 1e-300, -3.1830988618379066e+299),  # -1 / tan(pi p)
        (1, 1 - 2 ** -40, 349985421095.13297),  # 1 / tan(pi (1 - p))
        (2, 1e-17, -223606797.74997896),        # (2p - 1) / sqrt(2p (1 - p))
    ])
    def test_closed_forms_keep_both_tails(self, df, p, expected):
        assert t_quantile(p, df) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("df", [1, 2])
    @pytest.mark.parametrize("p", [2 ** -40, 1e-10, 0.1, 0.3])
    def test_closed_forms_are_antisymmetric(self, df, p):
        upper = 1.0 - p
        assert t_quantile(upper, df) == -t_quantile(1.0 - upper, df)

    # findroot of log(tail(-e^s)) = log(1e-300) with the mpmath tail above.
    @pytest.mark.parametrize("df, expected", [
        (3, -1.0331108360446529e+100),
        (5, -1.5683925590993378e+60),
        (30, -50178575360.505081),
    ])
    def test_quantile_in_the_power_law_tail(self, df, expected):
        # Newton crawls here by about 1 + 1/df a step, so the bracket and
        # bisection find it; P ~ |x|^-df turns p's 1e-9 into x's 1e-9 / df.
        assert t_quantile(1e-300, df) == pytest.approx(expected, rel=1e-9)
        assert t_cdf(t_quantile(1e-300, df), df) == pytest.approx(1e-300, rel=1e-8, abs=0.0)

    def test_cdf_at_the_df_1_closed_form_deep_tail(self):
        assert t_cdf(t_quantile(1e-300, 1), 1) == pytest.approx(1e-300, rel=1e-12, abs=0.0)


class TestChiSquare:
    def test_quantiles_match_oracle(self):
        assert chisq_quantile(0.975, 10) == pytest.approx(CHISQ_Q_975_10, rel=1e-8)
        assert chisq_quantile(0.025, 10) == pytest.approx(CHISQ_Q_025_10, rel=1e-8)
        live = oracles.chisq_quantile_oracle(0.975, 10)
        assert chisq_quantile(0.975, 10) == pytest.approx(live, rel=1e-7)

    def test_cdf_matches_quadrature_oracle(self):
        for x, df in [(3.0, 2), (9.34, 10), (450.0, 500)]:
            assert chisq_cdf(x, df) == pytest.approx(
                oracles.chisq_cdf_oracle(x, df), abs=1e-9)

    def test_quantile_vanishes_with_p(self):
        qs = [chisq_quantile(p, 10) for p in (1e-4, 1e-10, 1e-20, 1e-30)]
        assert all(q > 0.0 for q in qs)
        assert all(a > b for a, b in zip(qs, qs[1:]))
        assert qs[-1] < 1e-4

    @pytest.mark.parametrize("df", [2, 3, 10, 27, 100])
    def test_quantile_round_trips_in_deep_lower_tails(self, df):
        # Where the Wilson-Hilferty start is not positive it comes from the
        # power-law tail: from a fixed small start, bisection toward 0 needs
        # about 1000 halvings to reach the quantile at p = 1e-300.
        for p in (1e-15, 1e-100, 1e-200, 1e-300):
            q = chisq_quantile(p, df)
            assert chisq_cdf(q, df) == pytest.approx(p, rel=1e-8, abs=0.0)

    def test_cdf_at_zero(self):
        assert chisq_cdf(0.0, 5) == 0.0
        assert chisq_cdf(-1.0, 5) == 0.0

    def test_cdf_at_the_smallest_subnormal(self):
        # gammainc(1/2, 0, 5e-324 / 2, regularized=True) at 40 digits; x / 2
        # underflows, x / df does not.
        assert chisq_cdf(5e-324, 1) == pytest.approx(1.7735048886036273e-162, rel=1e-12, abs=0.0)

    def test_quantile_below_the_smallest_positive_double(self):
        # P(5e-324) is already 1.8e-162 at df = 1: no positive double has
        # P = 1e-300, and the bracket closes on 0 and 5e-324.
        assert chisq_quantile(1e-300, 1) == 5e-324

    def test_quantile_inverts_cdf_large_df(self):
        # exercises the quadrature route for large shape
        for p in (0.025, 0.5, 0.975):
            for df in (10 ** 5, 10 ** 6):
                assert abs(chisq_cdf(chisq_quantile(p, df), df) - p) <= 1e-8

    # Quantiles at the df that survey strata and mc-large reach, by 40-digit
    # mpmath quadrature of the density (agreeing with mpmath's gammainc to
    # every digit at df = 1e6, where gammainc's series still converges):
    #     mp.dps = 40
    #     def cdf(x, df):
    #         a, y = mpf(df) / 2, mpf(x) / 2
    #         sd, mode = sqrt(a), a - 1
    #         dens = lambda t: exp((a - 1) * log(t) - t - loggamma(a))
    #         if y <= mode:
    #             return quad(dens, linspace(mode - 60 * sd, y, 121))
    #         return 1 - quad(dens, linspace(y, mode + 60 * sd, 121))
    #     z, h = sqrt(2) * erfinv(2 * mpf(p) - 1), mpf(2) / (9 * df)
    #     findroot(lambda x: cdf(x, df) - mpf(p), df * (1 - h + z * sqrt(h)) ** 3,
    #              tol=mpf(10) ** -28)
    # scipy 1.17's chi2.ppf(1e-6, 1e7) is 7.4e-7 below the first 1e7 value:
    # the true CDF there is 1.00817e-6.
    @pytest.mark.parametrize("df, p, expected", [
        (10 ** 6, 1e-6, 993292.0337373913),
        (10 ** 6, 0.025, 997230.0871432901),
        (10 ** 6, 0.5, 999999.3333334123),
        (10 ** 6, 0.975, 1002773.701467926),
        (10 ** 7, 1e-6, 9978756.435091652),
        (10 ** 7, 0.025, 9991236.669053895),
        (10 ** 7, 0.5, 9999999.333333341),
        (10 ** 7, 0.975, 10008767.119557811),
    ])
    def test_quantile_at_large_df_matches_mpmath(self, df, p, expected):
        assert chisq_quantile(p, df) == pytest.approx(expected, rel=1e-8)

    # P(X <= x) by 40-digit mpmath on the smaller tail (CI installs no mpmath):
    #     mp.dps = 40
    #     lower = gammainc(mpf(df) / 2, 0, mpf(x) / 2, regularized=True)
    #     upper = gammainc(mpf(df) / 2, mpf(x) / 2, inf, regularized=True)
    # x is chisq_quantile(p, df) at p = 0.025, 0.5, 0.975 and 0.999, and the
    # findroot of log(lower) = log(p) at p = 1e-10, 1e-100 and 1e-300, each
    # rounded to 6 digits.  At df = 1, where P(5e-324) is already 1.8e-162,
    # x = 1e-300 stands in for p = 1e-300.  df = 397 is where the ratio-ci
    # fixture's strata sit; 1399 and 1401 straddle a = 700.
    CHISQ_CDF_MPMATH = [
        (1, 1e-300, 'lower', 7.9788456080286537e-151),
        (1, 1.5708e-200, 'lower', 1.0000011692168149e-100),
        (1, 1.5708e-20, 'lower', 1.0000011692168149e-10),
        (1, 0.000982069, 'lower', 0.024999998509054704),
        (1, 0.454936, 'lower', 0.49999980065296306),
        (1, 5.02389, 'upper', 0.024999944957571447),
        (1, 10.8276, 'upper', 0.00099998172918164173),
        (2, 2e-300, 'lower', 1.0e-300),
        (2, 2e-100, 'lower', 1.0e-100),
        (2, 2e-10, 'lower', 9.9999999995000004e-11),
        (2, 0.0506356, 'lower', 0.024999992215317342),
        (2, 1.38629, 'lower', 0.49999890971883864),
        (2, 7.37776, 'upper', 0.024999986352852128),
        (2, 13.8155, 'upper', 0.0010000052789960708),
        (27, 7.02218e-22, 'lower', 9.9999760013056285e-301),
        (27, 4.58445e-07, 'lower', 1.0000119376795431e-100),
        (27, 2.30333, 'lower', 1.0000247923558075e-10),
        (27, 14.5734, 'lower', 0.025000209010977057),
        (27, 26.3363, 'lower', 0.49999783464956867),
        (27, 43.1945, 'upper', 0.025000064018332735),
        (27, 55.476, 'upper', 0.0010000057981423117),
        (397, 4.63452, 'lower', 1.0000737272698222e-300),
        (397, 53.2693, 'lower', 9.9993372431599369e-101),
        (397, 243.155, 'lower', 1.0001471135886188e-10),
        (397, 343.69, 'lower', 0.024999706540732959),
        (397, 396.334, 'upper', 0.49999337783914579),
        (397, 454.097, 'upper', 0.025000205908424983),
        (397, 489.803, 'upper', 0.0010000479837775671),
        (1399, 226.739, 'lower', 9.9876007738185157e-301),
        (1399, 552.581, 'lower', 1.0001285890682466e-100),
        (1399, 1088.35, 'lower', 9.9928300218334698e-11),
        (1399, 1297.23, 'lower', 0.024996964865408535),
        (1399, 1398.33, 'lower', 0.49997442671129828),
        (1399, 1504.56, 'upper', 0.024995379201515869),
        (1399, 1568.18, 'upper', 0.00099978947349038451),
        (1401, 227.444, 'lower', 1.000128369754447e-300),
        (1401, 553.794, 'lower', 9.9980536931946172e-101),
        (1401, 1090.11, 'lower', 9.9929667407102903e-11),
        (1401, 1299.16, 'lower', 0.025001714914364996),
        (1401, 1400.33, 'lower', 0.49997444559003083),
        (1401, 1506.63, 'upper', 0.02499968384846551),
        (1401, 1570.29, 'upper', 0.0010001899906726242),
        (24997, 17601.6, 'lower', 1.0082051014370002e-300),
        (24997, 20536.6, 'lower', 9.9969800788784985e-101),
        (24997, 23600.9, 'lower', 1.0014971878921575e-10),
        (24997, 24560.7, 'lower', 0.02500994671889925),
        (24997, 24996.3, 'lower', 0.49994051903606804),
        (24997, 25437.1, 'upper', 0.025006768072178805),
        (24997, 25693.7, 'upper', 0.00099939441010085457),
        (100000, 84333.5, 'lower', 9.9917616361265847e-301),
        (100000, 90784.9, 'lower', 1.0011925195356322e-100),
        (100000, 97181.4, 'lower', 1.0002995615397865e-10),
        (100000, 99125.4, 'lower', 0.025003509968891571),
        (100000, 99999.3, 'lower', 0.49997026377430482),
        (100000, 100878.0, 'upper', 0.025054008583201869),
        (100000, 101388.0, 'upper', 0.00099773097407605678),
    ]

    @pytest.mark.parametrize("df, x, side, tail", CHISQ_CDF_MPMATH)
    def test_cdf_matches_mpmath_on_the_smaller_tail(self, df, x, side, tail):
        lower = chisq_cdf(x, df)
        smaller = lower if side == "lower" else 1.0 - lower
        assert smaller == pytest.approx(tail, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("df", [10 ** 8, 10 ** 12, 10 ** 16, 10 ** 18, 2 ** 62, 10 ** 300])
    @pytest.mark.parametrize("p", [0.025, 0.975])
    def test_quantile_at_huge_df_matches_cornish_fisher(self, p, df):
        # The next Cornish-Fisher term is O(1 / sqrt(df)).
        z = normal_quantile(p)
        expected = df + z * math.sqrt(2 * df) + 2 * (z * z - 1) / 3
        assert chisq_quantile(p, df) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("df", [1, 2 ** 62, 10 ** 300])
    def test_cdf_is_a_probability_at_any_x(self, df):
        # The quadrature's node count is bounded by construction, at any (df, x).
        for x in (1e-300, df / 1e5, df, 1e5 * df, 1e300):
            value = chisq_cdf(x, df)
            assert type(value) is float and 0.0 <= value <= 1.0


class TestCriticalValueCache:
    """t and chi-square quantiles are memoised on the validated (p, df)."""

    @pytest.mark.parametrize("quantile, core", [
        (t_quantile, distributions._t_quantile),
        (chisq_quantile, distributions._chisq_quantile),
    ])
    def test_cached_value_equals_fresh_value(self, quantile, core):
        for p, df in [(0.975, 996), (0.025, 3), (0.6, 40)]:
            fresh = core.__wrapped__(p, df)
            assert quantile(p, df) == fresh
            assert quantile(np.float64(p), float(df)) == fresh

    @pytest.mark.parametrize("quantile", [t_quantile, chisq_quantile])
    @pytest.mark.parametrize("p, df", [([0.5], 3), (np.array([0.975]), 3), ({}, 3),
                                       (0.975, [3]), (0.975, 2.5)])
    def test_unhashable_or_bad_arguments_are_domain_errors(self, quantile, p, df):
        with pytest.raises(DomainError):
            quantile(p, df)


CDFS = {"normal_cdf": normal_cdf,
        "t_cdf": lambda x: t_cdf(x, 5),
        "chisq_cdf": lambda x: chisq_cdf(x, 5)}


class TestCdfArgument:
    """x of a CDF is any real number but NaN; +-inf give 0 and 1."""

    @pytest.mark.parametrize("bad", [True, False, "1", None, math.nan], ids=repr)
    @pytest.mark.parametrize("name", CDFS)
    def test_rejects_what_is_not_a_number(self, name, bad):
        with pytest.raises(DomainError):
            CDFS[name](bad)

    @pytest.mark.parametrize("name", CDFS)
    def test_infinities(self, name):
        for low, high in [(-math.inf, math.inf), (-10 ** 400, 10 ** 400)]:
            assert CDFS[name](low) == 0.0
            assert CDFS[name](high) == 1.0

    @pytest.mark.parametrize("name", CDFS)
    def test_float32_is_its_python_value(self, name):
        result = CDFS[name](np.float32(1.5))
        assert type(result) is float
        assert _bits(result) == _bits(CDFS[name](1.5))


@pytest.mark.parametrize("family_quantile,family_cdf,df", [
    (lambda p: normal_quantile(p), lambda x: normal_cdf(x), None),
    (lambda p: t_quantile(p, 7), lambda x: t_cdf(x, 7), 7),
    (lambda p: t_quantile(p, 996), lambda x: t_cdf(x, 996), 996),
    (lambda p: chisq_quantile(p, 3), lambda x: chisq_cdf(x, 3), 3),
    (lambda p: chisq_quantile(p, 996), lambda x: chisq_cdf(x, 996), 996),
])
def test_round_trip_family(family_quantile, family_cdf, df):
    ps = [0.001] + [i / 100.0 for i in range(1, 100)] + [0.999]
    for p in ps:
        assert abs(family_cdf(family_quantile(p)) - p) <= 1e-8


@pytest.mark.parametrize("quantile", [
    lambda p: normal_quantile(p),
    lambda p: t_quantile(p, 4),
    lambda p: chisq_quantile(p, 9),
])
def test_quantile_strictly_increasing_1000_points(quantile):
    ps = (np.arange(1000) + 0.5) / 1000.0
    values = [quantile(float(p)) for p in ps]
    assert all(a < b for a, b in zip(values, values[1:]))


@given(p=st.floats(min_value=1e-6, max_value=1 - 1e-6),
       df=st.integers(min_value=1, max_value=2000))
@settings(max_examples=120, deadline=None)
def test_t_round_trip_property(p, df):
    assert abs(t_cdf(t_quantile(p, df), df) - p) <= 1e-8


@given(p=st.floats(min_value=1e-6, max_value=1 - 1e-6),
       df=st.integers(min_value=1, max_value=2000))
@settings(max_examples=120, deadline=None)
def test_chisq_round_trip_property(p, df):
    assert abs(chisq_cdf(chisq_quantile(p, df), df) - p) <= 1e-8
