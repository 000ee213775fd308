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

    def test_cdf_at_zero(self):
        assert chisq_cdf(0.0, 5) == 0.0
        assert chisq_cdf(-1.0, 5) == 0.0

    def test_quantile_inverts_cdf_large_df(self):
        # exercises the quadrature route for large shape
        for p in (0.025, 0.5, 0.975):
            for df in (10 ** 5, 10 ** 6):
                assert abs(chisq_cdf(chisq_quantile(p, df), df) - p) <= 1e-8


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
