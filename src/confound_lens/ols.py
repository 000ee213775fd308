"""Ordinary least squares with full inference output.

The solver goes through a QR factorization rather than the normal equations:
the whole point of this package is diagnosing strongly collinear designs, and
squaring the design matrix would throw away half the usable precision exactly
where it matters.  A fit factors [X | y] once and reads every statistic off
that one R.  Centred regressors keep any covariate's origin out of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .distributions import t_cdf
from .errors import DomainError, InsufficientRowsError, RankDeficientError

INTERCEPT = "intercept"

# Smallest acceptable ratio of the singular values of the design with its
# columns scaled to unit norm.  Below this the design is treated as exactly
# collinear; "merely strong" multicollinearity (VIFs in the tens or hundreds)
# sits far above it.
RANK_TOL = 1e-10


class _NamedCoefficients:
    """Per-coefficient values of a fit, looked up by coefficient name."""

    def _index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no coefficient {name!r}; have {', '.join(self.names)}") from None

    def coefficient(self, name: str) -> float:
        return float(self.coefficients[self._index(name)])

    def std_error(self, name: str) -> float:
        return float(self.standard_errors[self._index(name)])


@dataclass(frozen=True)
class OlsFit(_NamedCoefficients):
    """Coefficients and inference for one least-squares fit."""

    outcome: str
    names: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    t_values: np.ndarray
    p_values: np.ndarray
    r_squared: float
    residual_variance: float
    df_residual: int
    n: int

    def t_value(self, name: str) -> float:
        return float(self.t_values[self._index(name)])

    def p_value(self, name: str) -> float:
        return float(self.p_values[self._index(name)])


def _design(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The intercept column and the regressors `values` (..., n, k) minus
    their means, and the means (..., k).  Each column is centred on its own,
    so a fit's bits depend neither on its stack nor on the other columns."""
    k = values.shape[-1]
    X = np.ones(values.shape[:-1] + (k + 1,))
    means = np.empty(values.shape[:-2] + (k,))
    for j in range(k):
        means[..., j] = values[..., j].mean(axis=-1)
        X[..., j + 1] = values[..., j] - means[..., j, None]
    return X, means


def _check_rank(R: np.ndarray) -> None:
    """Raise RankDeficientError for a collinear design, given its R factor.

    R's columns have the design's column norms, so R with unit columns has
    the singular values of the design with unit columns, at p x p rather
    than n x p cost.  The verdict therefore does not depend on the units of
    any column.  A stack of factors (b, p, p) fails if any of them does.
    """
    norms = np.linalg.norm(R, axis=-2)
    if not norms.all():
        raise RankDeficientError("design is rank deficient (a column is all zero)")
    svals = np.linalg.svd(R / norms[..., None, :], compute_uv=False)
    ratio = np.min(svals[..., -1] / svals[..., 0])
    if ratio < RANK_TOL:
        raise RankDeficientError(
            f"design is numerically rank deficient (singular value ratio "
            f"{ratio:.2e} < {RANK_TOL:g} with unit columns)"
        )


def _least_squares(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR solve of y on X, one design X (n, p) and y (n,) or a stack (b, n, p) and
    (b, n): the coefficients and the R factor of [X | y], whose last column is Q'y and
    whose corner is the residual norm (Golub & Van Loan 5.3).  Every least-squares fit
    goes through here.  [X | y] is C-contiguous, so a fit's bits do not depend on its stack."""
    n, p = X.shape[-2:]
    if n - p < 1:
        raise InsufficientRowsError(f"n={n} rows leave no residual degrees of freedom for p={p}")
    R = np.linalg.qr(np.concatenate((X, y[..., None]), axis=-1), mode="r")
    _check_rank(R[..., :p, :p])
    return np.linalg.solve(R[..., :p, :p], R[..., :p, p:])[..., 0], R


def _inference(beta: np.ndarray, R: np.ndarray, y0, means: np.ndarray, variance):
    """Coefficients, standard errors and t-values (+-inf, or 0 for beta 0, where
    se is 0) from a fit, or a stack, of the outcome less y0 on the design
    centred at `means`: b0 = y0 + c0 - m.c[1:], and row 0 of R^-1 becomes
    R^-1[0] - m R^-1[1:], so var(b0) = [1, -m] Sigma [1, -m]'."""
    r_inv = np.linalg.inv(R)
    beta[..., 0] += y0 - np.einsum("...j,...j->...", means, beta[..., 1:])
    r_inv[..., 0, :] -= np.einsum("...j,...jk->...k", means, r_inv[..., 1:, :])
    se = np.sqrt(np.asarray(variance)[..., None] * np.einsum("...ij,...ij->...i", r_inv, r_inv))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_values = np.where(se > 0.0, beta / se, np.sign(beta) * np.inf)
    return beta, se, np.where((se == 0.0) & (beta == 0.0), 0.0, t_values)


def _fit(values: np.ndarray, y: np.ndarray):
    """The centred fit of outcomes y (..., n) on an intercept and the regressors
    `values` (..., n, k), one design or a stack: coefficients, standard errors,
    t-values, RSS = R[p, p]^2 and R^2 = ESS / (ESS + RSS) (1 where y does not vary),
    ESS = |Q'y|^2 past the intercept's row.  y is fitted less its first value: less
    its mean, the intercept would be 0 and its rounding error in every residual.
    RSS <= RANK_TOL^2 (ESS + RSS) is an exact fit in any units: RSS 0, R^2 1."""
    X, means = _design(values)
    beta, R = _least_squares(X, y - y[..., :1])
    n, p = X.shape[-2:]
    ess = np.sum(R[..., 1:p, p] ** 2, axis=-1)
    rss = R[..., p, p] ** 2
    rss = np.where(rss <= RANK_TOL ** 2 * (ess + rss), 0.0, rss)
    r_squared = np.divide(ess, ess + rss, out=np.ones_like(rss), where=rss > 0.0)
    return (*_inference(beta, R[..., :p, :p], y[..., 0], means, rss / (n - p)),
            rss, r_squared)


def fit_ols(data: Dataset, outcome: str, regressors: list[str] | tuple[str, ...]) -> OlsFit:
    """Least-squares fit of `outcome` on an intercept and `regressors`.

    p-values are two-sided, 2 P(T <= -|t|) with n - p degrees of freedom, p
    counting the intercept: the tail itself, as 1 - P(T <= |t|) would cancel.
    r_squared is centered.  With no regressors this is the intercept-only fit.
    """
    y = data.column(outcome)  # a missing outcome is named before a missing regressor
    beta, standard_errors, t_values, rss, r_squared = _fit(
        data.matrix(list(regressors)), y)
    df_residual = data.n - len(regressors) - 1
    p_values = np.array([2.0 * t_cdf(-abs(t), df_residual) for t in t_values])

    return OlsFit(
        outcome=outcome,
        names=(INTERCEPT, *regressors),
        coefficients=beta,
        standard_errors=standard_errors,
        t_values=t_values,
        p_values=p_values,
        r_squared=float(r_squared),
        residual_variance=float(rss) / df_residual,
        df_residual=df_residual,
        n=data.n,
    )


def vif(data: Dataset, regressors: list[str] | tuple[str, ...]) -> list[float]:
    """Variance inflation factor 1 / (1 - R^2_j) of each regressor j on an
    intercept and the others, as SS_j [(X'X)^-1]_jj = |R e_j|^2 |e_j' R^-1|^2
    (Belsley, Kuh & Welsch 1980), R the factor of the centred design bar its
    intercept.  No 1 - R^2 is formed: relative error < 25 eps sqrt(sum of VIFs)."""
    regressors = list(regressors)
    if len(regressors) < 2:
        raise DomainError("vif needs at least two regressors")
    values = data.matrix(regressors)
    n, k = values.shape
    if n <= k:  # each auxiliary regression has k coefficients
        raise InsufficientRowsError(f"n={n} rows leave no residual degrees of freedom for p={k}")
    R = np.linalg.qr(_design(values)[0], mode="r")
    _check_rank(R)
    R = R[1:, 1:]  # R[0, j] is sqrt(n) times column j's mean less its rounded mean
    r_inv = np.linalg.inv(R)
    vifs = np.einsum("ij,ij->j", R, R) * np.einsum("ij,ij->i", r_inv, r_inv)
    return np.maximum(vifs, 1.0).tolist()  # >= 1 by Cauchy-Schwarz, bar rounding
