"""One table of argument rules over the public entry points.

Every bad value (a bool, a numeric string, NaN, infinity, an out-of-range
number) raises DomainError; numpy scalars of a valid value are accepted.
"""

import math
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from confound_lens import (STUDY_PRESETS, DgpSpec, DomainError, ExposureModelStats,
                           ProxyModel, TreatmentSummary, attenuation_slope, chisq_quantile,
                           conservative_ratio_ci, derive_replicate_seed, fit_ols, generate,
                           normal_quantile, replicate_study, sensitivity_report, simulate,
                           t_quantile)
from confound_lens.ratio_ci import _variance_ci, _wald_ci

STUDY1 = STUDY_PRESETS["study1"]
TS = TreatmentSummary(5.0, 99)
FIT = fit_ols(generate(STUDY1, 40, 1), "a", ["x"])


def _spec(**field):
    return DgpSpec(**{**STUDY1.to_dict(), **field})


# name: (call taking the argument under test, a valid value, out-of-range values)
ARGUMENTS = {
    "t_quantile.p": (lambda v: t_quantile(v, 5), 0.875, [0.0, 1.0, -0.5]),
    "t_quantile.df": (lambda v: t_quantile(0.9, v), 5, [0, -2, 2.5]),
    "chisq_quantile.p": (lambda v: chisq_quantile(v, 5), 0.875, [0.0, 1.5]),
    "chisq_quantile.df": (lambda v: chisq_quantile(0.9, v), 5, [0, 2.5]),
    "normal_quantile.p": (normal_quantile, 0.25, [0.0, 1.0, -0.2, 1.7]),
    "TreatmentSummary.t_value": (lambda v: TreatmentSummary(v, 10), 2.0, []),
    "TreatmentSummary.df": (lambda v: TreatmentSummary(2.0, v), 10, [0, 1.5]),
    "TreatmentSummary.estimate": (
        lambda v: TreatmentSummary(2.0, 10, estimate=v, std_error=0.5), 1.0, []),
    "TreatmentSummary.std_error": (
        lambda v: TreatmentSummary(2.0, 10, std_error=v), 0.5, [0.0, -1.0]),
    "sensitivity_report.q": (lambda v: sensitivity_report(TS, q=v), 1.0, [0.0, -1.0]),
    "sensitivity_report.alpha": (lambda v: sensitivity_report(TS, alpha=v), 0.0625,
                                 [0.0, 1.0]),
    "wald_ci.coef": (lambda v: _wald_ci(v, 1.0, 10, 0.95), 1.0, []),
    "wald_ci.se": (lambda v: _wald_ci(1.0, v, 10, 0.95), 1.0, [0.0, -1.0]),
    "wald_ci.df": (lambda v: _wald_ci(1.0, 1.0, v, 0.95), 10, [0]),
    "wald_ci.level": (lambda v: _wald_ci(1.0, 1.0, 10, v), 0.875, [0.0, 1.0]),
    "variance_ci.residual_variance": (lambda v: _variance_ci(v, 10, 0.95), 2.0, [0.0]),
    "variance_ci.df": (lambda v: _variance_ci(2.0, v, 0.95), 10, [0, 2.5]),
    "variance_ci.level": (lambda v: _variance_ci(2.0, 10, v), 0.875, [1.0]),
    "conservative_ratio_ci.level": (
        lambda v: conservative_ratio_ci(FIT, "x", level=v), 0.875, [0.0, 1.0]),
    "ProxyModel.gamma": (lambda v: ProxyModel(gamma=v, var_eps_x=0.25), 1.0, []),
    "ProxyModel.var_eps_x": (lambda v: ProxyModel(gamma=1.0, var_eps_x=v), 0.25, [-0.25]),
    "ProxyModel.cov_a_eps_x": (
        lambda v: ProxyModel(gamma=1.0, var_eps_x=0.25, cov_a_eps_x=v), 0.5, []),
    "ExposureModelStats.beta_a_on_x": (lambda v: ExposureModelStats(v, 0.5, 0.5), 1.0, []),
    "ExposureModelStats.residual_variance": (
        lambda v: ExposureModelStats(1.0, v, 0.5), 0.5, [-0.5]),
    "ExposureModelStats.r2_a_on_x": (
        lambda v: ExposureModelStats(1.0, 0.5, v), 0.5, [-0.25, 1.25]),
    "attenuation_slope.beta": (lambda v: attenuation_slope(v, 1.0, 0.5), 2.0, []),
    "attenuation_slope.var_xstar": (lambda v: attenuation_slope(2.0, v, 0.5), 1.0, [0.0]),
    "attenuation_slope.var_eps_x": (lambda v: attenuation_slope(2.0, 1.0, v), 0.5, [-0.5]),
    "DgpSpec.beta": (lambda v: _spec(beta=v), 2.5, []),
    "DgpSpec.y_noise_sd": (lambda v: _spec(y_noise_sd=v), 1.5, [-1.5]),
    "generate.n": (lambda v: generate(STUDY1, v, 1), 5, [0, 2.5]),
    "generate.seed": (lambda v: generate(STUDY1, 5, v), 1, [-1, 2 ** 64]),
    "replicate_study.n": (lambda v: replicate_study(STUDY1, v, 2, 1), 20, [0]),
    "replicate_study.replicates": (lambda v: replicate_study(STUDY1, 20, v, 1), 2, [0]),
    "replicate_study.seed": (lambda v: replicate_study(STUDY1, 20, 2, v), 1, [-1, 2 ** 64]),
    "replicate_study.q": (lambda v: replicate_study(STUDY1, 20, 2, 1, q=v), 0.5, [0.0]),
    "replicate_study.alpha": (
        lambda v: replicate_study(STUDY1, 20, 2, 1, alpha=v), 0.0625, [1.0]),
    "derive_replicate_seed.base_seed": (
        lambda v: derive_replicate_seed(v, 0), 1, [-1, 2 ** 64]),
    "derive_replicate_seed.index": (lambda v: derive_replicate_seed(1, v), 3, [-1]),
}

NOT_NUMBERS = [True, False, "0.5", math.nan, math.inf, -math.inf]


def _same(a, b) -> bool:
    if is_dataclass(a):
        return type(a) is type(b) and all(_same(getattr(a, f.name), getattr(b, f.name))
                                          for f in fields(a))
    return type(a) is type(b) and np.array_equal(a, b)


@pytest.mark.parametrize("bad", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("name", ARGUMENTS)
def test_rejects_what_is_not_a_finite_number(name, bad):
    with pytest.raises(DomainError):
        ARGUMENTS[name][0](bad)


@pytest.mark.parametrize("name", [n for n, (_, _, out) in ARGUMENTS.items() if out])
def test_rejects_out_of_range_values(name):
    call, _, out_of_range = ARGUMENTS[name]
    for bad in out_of_range:
        with pytest.raises(DomainError):
            call(bad)


@pytest.mark.parametrize("name", ARGUMENTS)
def test_accepts_numpy_scalars_as_their_python_value(name):
    call, valid, _ = ARGUMENTS[name]
    scalar = np.int64(valid) if isinstance(valid, int) else np.float32(valid)
    # every valid value is exact in float32, and a checked argument arrives as
    # the Python number, so the result is the same to the bit and the type
    assert _same(call(scalar), call(valid))


def test_integers_accept_a_float_with_an_integer_value():
    assert _same(generate(STUDY1, 5.0, 1.0), generate(STUDY1, 5, 1))
    assert _same(TreatmentSummary(2.0, 10.0), TreatmentSummary(2.0, 10))


def test_replicate_study_checks_q_and_alpha_before_drawing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a replicate was drawn")

    monkeypatch.setattr(simulate, "_draws", no_draws)
    for bad in ({"q": math.nan}, {"alpha": 1.5}):
        with pytest.raises(DomainError):
            replicate_study(STUDY1, 1000, 200, 7, **bad)
