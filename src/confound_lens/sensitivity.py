"""Robustness-value sensitivity statistics for a treatment coefficient.

Everything is a function of the treatment t-statistic and the residual
degrees of freedom, through the partial Cohen f of the treatment,
f = |t| / sqrt(df).  The robustness value RV solves RV^2 / (1 - RV) = f^2:
it is the share of residual variance (of both treatment and outcome) that an
unmeasured confounder would need to explain away the stated fraction q of the
estimate.  The alpha variant subtracts the critical f for significance at
level alpha (two-sided, df - 1) before applying the same map.  One kernel
serves one study's t-value and a stack of replicates' t-values alike.  Every
statistic is held at or below the largest double under 1: near an exact fit
(|t| / sqrt(df) beyond about 1e8) each rounds to 1, and t^2 may overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import checks
from .distributions import t_quantile
from .errors import DomainError
from .ols import OlsFit

_EXACT_FIT = ("has standard error 0 (an exact fit), so its partial R^2 and robustness "
              "values are undefined")


@dataclass(frozen=True)
class TreatmentSummary:
    """The treatment row of a regression summary: t-value and df, with the
    estimate and standard error carried along when known."""

    t_value: float
    df: int
    estimate: float | None = None
    std_error: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "t_value", checks.finite(self.t_value, "t_value"))
        object.__setattr__(self, "df", checks.integer(self.df, "df", 1))
        if self.estimate is not None:
            object.__setattr__(self, "estimate", checks.finite(self.estimate, "estimate"))
        if self.std_error is not None:
            object.__setattr__(self, "std_error",
                               checks.at_least(self.std_error, "std_error", 0.0, strict=True))
            if self.estimate is not None:
                implied = self.estimate / self.std_error
                if abs(implied - self.t_value) > 1e-8 * max(1.0, abs(self.t_value)):
                    raise DomainError(
                        f"t_value {self.t_value} does not match estimate/std_error "
                        f"= {implied}"
                    )

    @classmethod
    def from_ols(cls, fit: OlsFit, treatment: str) -> "TreatmentSummary":
        if fit.std_error(treatment) == 0.0:
            raise DomainError(f"treatment {treatment!r} {_EXACT_FIT}")
        return cls(t_value=fit.t_value(treatment), df=fit.df_residual,
                   estimate=fit.coefficient(treatment), std_error=fit.std_error(treatment))


@dataclass(frozen=True)
class SensitivityReport:
    partial_r2: float
    rv_q: float
    rv_q_alpha: float
    q: float
    alpha: float

    def __post_init__(self):
        for name in ("partial_r2", "rv_q", "rv_q_alpha"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise DomainError(f"{name} must lie in [0, 1), got {v}")
        if self.rv_q_alpha > self.rv_q:
            raise DomainError("rv_q_alpha cannot exceed rv_q")


_BELOW_ONE = math.nextafter(1.0, 0.0)


@np.errstate(all="ignore")  # 4 / f^2 is inf where f^2 is 0 or subnormal
def _rv_from_f(f):
    # Rationalized form of (sqrt(f^4 + 4 f^2) - f^2) / 2: exact for small f, and RV -> f
    # where f*f underflows.  It rounds to 1 once f > ~1e8, hence the clamp.
    f = np.maximum(f, 0.0)
    f2 = f * f
    return np.minimum(np.where(f2 > 0.0, 2.0 / (1.0 + np.sqrt(1.0 + 4.0 / f2)), f), _BELOW_ONE)


@np.errstate(all="ignore")
def _partial_r2(t, df: int):
    t2 = np.multiply(t, t)
    return np.fmin(t2 / (t2 + df), _BELOW_ONE)  # t^2 = inf: inf / inf is nan


def _statistics(t, df: int, q: float, alpha: float):
    """Partial R^2, RV(q) and RV(q, alpha) of t-values `t`, a float or an array."""
    if df < 2:
        raise DomainError("robustness_value_alpha needs df >= 2")
    f_q = q * np.abs(t) / math.sqrt(df)
    f_crit = t_quantile(1.0 - alpha / 2.0, df - 1) / math.sqrt(df - 1)
    return _partial_r2(t, df), _rv_from_f(f_q), _rv_from_f(f_q - f_crit)


def partial_r2(ts: TreatmentSummary) -> float:
    """t^2 / (t^2 + df): the treatment's partial R^2 with the outcome."""
    return float(_partial_r2(ts.t_value, ts.df))


def robustness_value(ts: TreatmentSummary, q: float = 1.0) -> float:
    """Confounder strength (as partial R^2 with treatment and outcome) that
    would remove a fraction q of the point estimate."""
    q = checks.at_least(q, "q", 0.0, strict=True)
    return float(_rv_from_f(q * abs(ts.t_value) / math.sqrt(ts.df)))


def robustness_value_alpha(ts: TreatmentSummary, q: float = 1.0,
                           alpha: float = 0.05) -> float:
    """Confounder strength that would make the q-reduced estimate lose
    significance at level alpha (two-sided)."""
    return sensitivity_report(ts, q, alpha).rv_q_alpha


def sensitivity_report(ts: TreatmentSummary, q: float = 1.0,
                       alpha: float = 0.05) -> SensitivityReport:
    q = checks.at_least(q, "q", 0.0, strict=True)
    alpha = checks.probability(alpha, "alpha")
    pr2, rv_q, rv_q_alpha = map(float, _statistics(ts.t_value, ts.df, q, alpha))
    return SensitivityReport(partial_r2=pr2, rv_q=rv_q, rv_q_alpha=rv_q_alpha,
                             q=q, alpha=alpha)
