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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateExposureError, DomainError
from .ols import OlsFit

# Below this residual-variance fraction the denominator Var(A)(1 - R2) is
# treated as zero and the ratio as unbounded.
DEGENERATE_TOL = 1e-12


def _finite(value, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{what} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ProxyModel:
    """Confounding strength of U on Y and the noise of X as a proxy for U."""

    gamma: float
    var_eps_x: float
    cov_a_eps_x: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "gamma", _finite(self.gamma, "gamma"))
        object.__setattr__(self, "var_eps_x", _finite(self.var_eps_x, "var_eps_x"))
        object.__setattr__(self, "cov_a_eps_x", _finite(self.cov_a_eps_x, "cov_a_eps_x"))
        if self.var_eps_x < 0.0:
            raise DomainError(f"var_eps_x must be >= 0, got {self.var_eps_x}")


@dataclass(frozen=True)
class ExposureModelStats:
    """Observable moments of the exposure model A ~ X."""

    beta_a_on_x: float
    var_a: float
    r2_a_on_x: float

    def __post_init__(self):
        object.__setattr__(self, "beta_a_on_x", _finite(self.beta_a_on_x, "beta_a_on_x"))
        object.__setattr__(self, "var_a", _finite(self.var_a, "var_a"))
        object.__setattr__(self, "r2_a_on_x", _finite(self.r2_a_on_x, "r2_a_on_x"))
        if self.var_a <= 0.0:
            raise DomainError(f"var_a must be > 0, got {self.var_a}")
        if not 0.0 <= self.r2_a_on_x < 1.0:
            raise DomainError(f"r2_a_on_x must lie in [0, 1), got {self.r2_a_on_x}")


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


def residual_exposure_variance(exposure: ExposureModelStats) -> float:
    """Var(A) * (1 - R2_AX), the exposure variance left unexplained by X."""
    slack = 1.0 - exposure.r2_a_on_x
    if slack < DEGENERATE_TOL:
        raise DegenerateExposureError(
            f"1 - R2_AX = {slack:.3e} is below {DEGENERATE_TOL:g}; the bias "
            "ratio is unbounded"
        )
    return exposure.var_a * slack


def collinearity_ratio(exposure: ExposureModelStats) -> float:
    """beta_AX / (Var(A)(1 - R2_AX)): the observable amplification factor."""
    return exposure.beta_a_on_x / residual_exposure_variance(exposure)


def attenuation_slope(beta: float, var_xstar: float, var_eps_x: float) -> float:
    """Slope of Y on a noisy regressor X = X* + eps_X when Y = b0 + beta X*.

    The classical errors-in-variables shrinkage: the returned value is
    beta * Var(X*) / (Var(X*) + Var(eps_X)) and never exceeds |beta|.
    """
    beta = _finite(beta, "beta")
    var_xstar = _finite(var_xstar, "var_xstar")
    var_eps_x = _finite(var_eps_x, "var_eps_x")
    if var_xstar <= 0.0:
        raise DomainError(f"var_xstar must be > 0, got {var_xstar}")
    if var_eps_x < 0.0:
        raise DomainError(f"var_eps_x must be >= 0, got {var_eps_x}")
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


def general_bias(proxy: ProxyModel, exposure: ExposureModelStats,
                 cov_a_x: float, var_x: float) -> float:
    """Bias allowing Cov(A, eps_X) != 0, written with beta_AX = Cov(A,X)/Var(X).

    Cov(A, eps_X) is unobservable in practice; this form is meant for
    simulation settings where eps_X is known.  With cov_a_eps_x = 0 it takes
    the identical arithmetic path as decompose_bias.
    """
    cov_a_x = _finite(cov_a_x, "cov_a_x")
    var_x = _finite(var_x, "var_x")
    if var_x <= 0.0:
        raise DomainError(f"var_x must be > 0, got {var_x}")
    bound = math.sqrt(proxy.var_eps_x * exposure.var_a)
    if abs(proxy.cov_a_eps_x) > bound * (1.0 + 1e-9) + 1e-300:
        raise DomainError(
            f"|cov_a_eps_x| = {abs(proxy.cov_a_eps_x):g} violates the "
            f"Cauchy-Schwarz bound {bound:g}"
        )
    beta_ax = cov_a_x / var_x
    denom = residual_exposure_variance(exposure)
    if proxy.cov_a_eps_x == 0.0:
        return proxy.gamma * proxy.var_eps_x * (beta_ax / denom)
    return proxy.gamma * (proxy.var_eps_x * beta_ax - proxy.cov_a_eps_x) / denom


def exposure_stats_from_ols(fit: OlsFit, proxy_label: str) -> ExposureModelStats:
    """Exposure-model moments extracted from a fitted A ~ X regression.

    var_a is backed out so that var_a * (1 - R2) equals the fit's residual
    variance (denominator n - p) up to rounding: ratios computed from these
    stats can differ from coefficient / sigma^2 of the same fit in the last
    bit, so reports of the ratio use the latter (ratio_ci._point_estimate).
    """
    r2 = fit.r_squared
    if 1.0 - r2 < DEGENERATE_TOL:
        raise DegenerateExposureError(
            f"exposure model has R^2 = {r2}; residual exposure variance vanishes"
        )
    return ExposureModelStats(
        beta_a_on_x=fit.coefficient(proxy_label),
        var_a=fit.residual_variance / (1.0 - r2),
        r2_a_on_x=r2,
    )
