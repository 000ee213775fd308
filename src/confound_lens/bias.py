"""Omitted-variable bias under proxy adjustment.

For the structural model

    Y = alpha_0 + beta * A + theta_X * X + gamma * U + eps_Y,
    X = U + eps_X,

the coefficient of A in a least-squares fit of Y on (A, X) misses the causal
beta by

    gamma * (Var(eps_X) * beta_AX - Cov(A, eps_X)) / (Var(A) * (1 - R2_AX)),

where beta_AX and R2_AX come from the regression of A on X.  When A and
eps_X are uncorrelated the bias factors into confounding strength, proxy
noise, and the observable collinearity ratio beta_AX / (Var(A)(1 - R2_AX)).

Var(A)(1 - R2_AX) is the residual variance of that regression, so the
exposure model is summarised by beta_AX, its residual variance and R2_AX,
whether they come from a fit (exposure_stats_from_ols) or from population
moments (simulate.exposure_stats_from_moments).  collinearity_ratio is the
one expression of the ratio and holds the one degeneracy rule; every ratio
and bias in the package goes through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import checks
from .errors import DegenerateExposureError, DomainError
from .ols import OlsFit

# Below this residual-variance fraction the denominator Var(A)(1 - R2) is
# treated as zero and the ratio as unbounded.
DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class ProxyModel:
    """Confounding strength of U on Y and the noise of X as a proxy for U."""

    gamma: float
    var_eps_x: float
    cov_a_eps_x: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "gamma", checks.finite(self.gamma, "gamma"))
        object.__setattr__(self, "var_eps_x", checks.at_least(self.var_eps_x, "var_eps_x", 0.0))
        object.__setattr__(self, "cov_a_eps_x", checks.finite(self.cov_a_eps_x, "cov_a_eps_x"))


@dataclass(frozen=True)
class ExposureModelStats:
    """The exposure model A ~ X: slope, residual variance Var(A)(1 - R2) and R2.

    R2 = 1 and a zero residual variance are admitted, so that an exact fit
    reaches collinearity_ratio and its degeneracy rule.  An exposure without
    variance has R2 = 1: all of its variation, none, is explained.
    """

    beta_a_on_x: float
    residual_variance: float
    r2_a_on_x: float

    def __post_init__(self):
        for name, low in (("beta_a_on_x", -math.inf), ("residual_variance", 0.0),
                          ("r2_a_on_x", 0.0)):
            object.__setattr__(self, name, checks.at_least(getattr(self, name), name, low))
        if self.r2_a_on_x > 1.0:
            raise DomainError(f"r2_a_on_x must lie in [0, 1], got {self.r2_a_on_x}")
        if self.residual_variance == 0.0 and self.r2_a_on_x < 1.0:
            raise DomainError("a zero residual_variance needs r2_a_on_x = 1")

    @property
    def var_a(self) -> float:
        """Var(A), backed out of the residual variance (R2 < 1 only)."""
        return self.residual_variance / (1.0 - self.r2_a_on_x)


@dataclass(frozen=True)
class BiasDecomposition:
    """Bias split into confounding strength x proxy noise x collinearity.

    The product of the three factors reproduces `bias` bit for bit; both are
    computed along the same arithmetic path.
    """

    bias: float
    factor_gamma: float
    factor_proxy_noise: float
    factor_collinearity: float

    def __post_init__(self):
        product = self.factor_gamma * self.factor_proxy_noise * self.factor_collinearity
        if not (product == self.bias):
            raise DomainError("bias must equal the product of its three factors")


def collinearity_ratio(exposure: ExposureModelStats) -> float:
    """beta_AX / (Var(A)(1 - R2_AX)): the observable amplification factor.

    Raises DegenerateExposureError when 1 - R2_AX falls below DEGENERATE_TOL,
    an exact fit included: X then explains A and the ratio is unbounded.
    """
    slack = 1.0 - exposure.r2_a_on_x
    if slack < DEGENERATE_TOL:
        raise DegenerateExposureError(
            f"1 - R2_AX = {slack:.3e} is below {DEGENERATE_TOL:g}; the bias "
            "ratio is unbounded"
        )
    return exposure.beta_a_on_x / exposure.residual_variance


def attenuation_slope(beta: float, var_xstar: float, var_eps_x: float) -> float:
    """Slope of Y on a noisy regressor X = X* + eps_X when Y = b0 + beta X*.

    The classical errors-in-variables shrinkage: the returned value is
    beta * Var(X*) / (Var(X*) + Var(eps_X)) and never exceeds |beta|.
    """
    beta = checks.finite(beta, "beta")
    var_xstar = checks.at_least(var_xstar, "var_xstar", 0.0, strict=True)
    var_eps_x = checks.at_least(var_eps_x, "var_eps_x", 0.0)
    return beta * (var_xstar / (var_xstar + var_eps_x))


def decompose_bias(proxy: ProxyModel, exposure: ExposureModelStats) -> BiasDecomposition:
    """Three-factor bias decomposition, valid when Cov(A, eps_X) = 0."""
    if proxy.cov_a_eps_x != 0.0:
        raise DomainError(
            "the factored decomposition requires Cov(A, eps_X) = 0; "
            "use general_bias for the correlated case"
        )
    ratio = collinearity_ratio(exposure)
    return BiasDecomposition(
        bias=proxy.gamma * proxy.var_eps_x * ratio,
        factor_gamma=proxy.gamma,
        factor_proxy_noise=proxy.var_eps_x,
        factor_collinearity=ratio,
    )


def general_bias(proxy: ProxyModel, exposure: ExposureModelStats) -> float:
    """Bias allowing Cov(A, eps_X) != 0.

    Cov(A, eps_X) is unobservable in practice; this form is meant for
    simulation settings where eps_X is known.  With cov_a_eps_x = 0 it is
    decompose_bias(...).bias.
    """
    if proxy.cov_a_eps_x == 0.0:
        return decompose_bias(proxy, exposure).bias
    collinearity_ratio(exposure)  # the degeneracy rule, before var_a is backed out
    bound = math.sqrt(proxy.var_eps_x * exposure.var_a)
    if abs(proxy.cov_a_eps_x) > bound * (1.0 + 1e-9) + 1e-300:
        raise DomainError(
            f"|cov_a_eps_x| = {abs(proxy.cov_a_eps_x):g} violates the "
            f"Cauchy-Schwarz bound {bound:g}"
        )
    return proxy.gamma * (proxy.var_eps_x * exposure.beta_a_on_x - proxy.cov_a_eps_x) \
        / exposure.residual_variance


def exposure_stats_from_ols(fit: OlsFit, proxy_label: str) -> ExposureModelStats:
    """The exposure model of a fitted A ~ X (+ controls) regression: the
    proxy's coefficient, the residual variance (denominator n - p) and R2."""
    return ExposureModelStats(
        beta_a_on_x=fit.coefficient(proxy_label),
        residual_variance=fit.residual_variance,
        r2_a_on_x=fit.r_squared,
    )
