"""Conservative confidence intervals for the collinearity ratio.

The target is beta_AX / (Var(A)(1 - R2_AX)), estimated by bias.collinearity_ratio
of one `OlsFit` of the exposure model A ~ X + controls, which every ratio
statistic reads: the proxy's partial coefficient over the model's residual
variance, with the same degeneracy rule as every other ratio.  A Wald t
interval for the numerator and a chi-square interval for the denominator are
each run at level 1 - (1 - level)/2 (a Bonferroni split of the miss
probability), and the ratio interval is the min/max over the four endpoint
ratios.  Coverage is therefore at least the nominal level under the model,
usually strictly above it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import checks
from .bias import collinearity_ratio, exposure_stats_from_ols
from .distributions import chisq_quantile, t_quantile
from .errors import DomainError
from .ols import OlsFit


@dataclass(frozen=True)
class RatioInterval:
    lower: float
    upper: float
    level: float
    component_level: float  # the level of each of the two component intervals
    beta_interval: tuple[float, float]
    variance_interval: tuple[float, float]
    point_estimate: float  # from the same exposure fit as the interval

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise DomainError(f"lower {self.lower} exceeds upper {self.upper}")
        checks.probability(self.level, "level")
        checks.probability(self.component_level, "component_level")
        if not self.beta_interval[0] <= self.beta_interval[1]:
            raise DomainError("beta_interval endpoints out of order")
        if not 0.0 < self.variance_interval[0] <= self.variance_interval[1]:
            raise DomainError("variance_interval must be positive and ordered")


def _wald_ci(coef: float, se: float, df: int, level: float) -> tuple[float, float]:
    """coef +/- t_quantile(1 - (1-level)/2, df) * se."""
    level = checks.probability(level, "confidence level")
    coef = checks.finite(coef, "coef")
    se = checks.at_least(se, "standard error", 0.0, strict=True)
    half = t_quantile(1.0 - (1.0 - level) / 2.0, df) * se
    return (coef - half, coef + half)


def _variance_ci(residual_variance: float, df: int, level: float) -> tuple[float, float]:
    """Chi-square interval for a residual variance on df degrees of freedom."""
    level = checks.probability(level, "confidence level")
    residual_variance = checks.at_least(residual_variance, "residual variance", 0.0, strict=True)
    tail = (1.0 - level) / 2.0
    hi_quantile = chisq_quantile(1.0 - tail, df)
    lo_quantile = chisq_quantile(tail, df)
    return (df * residual_variance / hi_quantile, df * residual_variance / lo_quantile)


def conservative_ratio_ci(fit: OlsFit, proxy: str, level: float = 0.95) -> RatioInterval:
    """Ratio interval with guaranteed coverage >= level under the model, and
    the point estimate, from `fit`, a fitted exposure model A ~ proxy + controls."""
    level = checks.probability(level, "confidence level")
    sub = 1.0 - (1.0 - level) / 2.0
    point_estimate = collinearity_ratio(exposure_stats_from_ols(fit, proxy))
    beta_int = _wald_ci(fit.coefficient(proxy), fit.std_error(proxy),
                        fit.df_residual, sub)
    var_int = _variance_ci(fit.residual_variance, fit.df_residual, sub)
    ratios = [b / v for b in beta_int for v in var_int]
    return RatioInterval(
        lower=min(ratios),
        upper=max(ratios),
        level=level,
        component_level=sub,
        beta_interval=beta_int,
        variance_interval=var_int,
        point_estimate=point_estimate,
    )
