"""Conservative confidence intervals for the collinearity ratio.

The target is beta_AX / (Var(A)(1 - R2_AX)), estimated by
bias.collinearity_ratio of the fitted exposure model: the proxy's partial
coefficient over the model's residual variance, with the same degeneracy
rule as every other ratio in the package.  A Wald t
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
from .dataset import Dataset
from .distributions import chisq_quantile, t_quantile
from .errors import DomainError
from .ols import fit_ols


@dataclass(frozen=True)
class RatioInterval:
    lower: float
    upper: float
    level: float
    beta_interval: tuple[float, float]
    variance_interval: tuple[float, float]
    point_estimate: float  # from the same exposure fit as the interval

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise DomainError(f"lower {self.lower} exceeds upper {self.upper}")
        checks.probability(self.level, "level")
        if not self.beta_interval[0] <= self.beta_interval[1]:
            raise DomainError("beta_interval endpoints out of order")
        if not 0.0 < self.variance_interval[0] <= self.variance_interval[1]:
            raise DomainError("variance_interval must be positive and ordered")


def component_level(level: float) -> float:
    """Level at which each of the two component intervals is run."""
    return 1.0 - (1.0 - checks.probability(level, "confidence level")) / 2.0


def wald_ci(coef: float, se: float, df: int, level: float) -> tuple[float, float]:
    """coef +/- t_quantile(1 - (1-level)/2, df) * se."""
    level = checks.probability(level, "confidence level")
    coef = checks.finite(coef, "coef")
    se = checks.at_least(se, "standard error", 0.0, strict=True)
    half = t_quantile(1.0 - (1.0 - level) / 2.0, df) * se
    return (coef - half, coef + half)


def variance_ci(residual_variance: float, df: int, level: float) -> tuple[float, float]:
    """Chi-square interval for a residual variance on df degrees of freedom."""
    level = checks.probability(level, "confidence level")
    residual_variance = checks.at_least(residual_variance, "residual variance", 0.0, strict=True)
    tail = (1.0 - level) / 2.0
    hi_quantile = chisq_quantile(1.0 - tail, df)
    lo_quantile = chisq_quantile(tail, df)
    return (df * residual_variance / hi_quantile, df * residual_variance / lo_quantile)


def conservative_ratio_ci(data: Dataset, exposure: str, proxy: str,
                          controls: list[str] | tuple[str, ...] = (),
                          level: float = 0.95) -> RatioInterval:
    """Ratio interval with guaranteed coverage >= level under the model, and
    the point estimate, all from one fit of the exposure model."""
    level = checks.probability(level, "confidence level")
    fit = fit_ols(data, exposure, [proxy, *controls])
    point_estimate = collinearity_ratio(exposure_stats_from_ols(fit, proxy))
    sub = component_level(level)
    beta_int = wald_ci(fit.coefficient(proxy), fit.std_error(proxy),
                       fit.df_residual, sub)
    var_int = variance_ci(fit.residual_variance, fit.df_residual, sub)
    ratios = [b / v for b in beta_int for v in var_int]
    return RatioInterval(
        lower=min(ratios),
        upper=max(ratios),
        level=level,
        beta_interval=beta_int,
        variance_interval=var_int,
        point_estimate=point_estimate,
    )


def ratio_point_estimate(data: Dataset, exposure: str, proxy: str,
                         controls: list[str] | tuple[str, ...] = ()) -> float:
    """The collinearity ratio of one fit of the exposure model."""
    fit = fit_ols(data, exposure, [proxy, *controls])
    return collinearity_ratio(exposure_stats_from_ols(fit, proxy))
