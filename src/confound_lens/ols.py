"""Ordinary least squares with full inference output.

The solver goes through a QR factorization rather than the normal equations:
the whole point of this package is diagnosing strongly collinear designs, and
squaring the design matrix would throw away half the usable precision exactly
where it matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    residuals: np.ndarray
    n: int
    include_intercept: bool

    def t_value(self, name: str) -> float:
        return float(self.t_values[self._index(name)])

    def p_value(self, name: str) -> float:
        return float(self.p_values[self._index(name)])


def _design(data: Dataset, regressors: list[str] | tuple[str, ...],
            include_intercept: bool) -> tuple[np.ndarray, tuple[str, ...]]:
    if not (regressors or include_intercept):
        raise DomainError("at least one regressor or an intercept is required")
    X = data.matrix(list(regressors))
    names = tuple(regressors)
    if include_intercept:
        X = np.column_stack([np.ones(data.n), X])
        names = (INTERCEPT,) + names
    return X, names


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


def _check_design_rank(X: np.ndarray) -> None:
    _check_rank(np.linalg.qr(X, mode="r"))


def _least_squares(X: np.ndarray, y: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """QR solve of y on X: coefficients, residuals, RSS and the R factor.

    Every least-squares fit goes through here, for one design X (n, p) and
    y (n,) or a stack X (b, n, p) and y (b, n).  A fit's bits do not depend on
    its stack if X is C-contiguous and y is a column view of one array."""
    n, p = X.shape[-2:]
    if n - p < 1:
        raise InsufficientRowsError(f"n={n} rows leave no residual degrees of freedom for p={p}")
    Q, R = np.linalg.qr(X)
    _check_rank(R)
    beta = np.linalg.solve(R, np.swapaxes(Q, -1, -2) @ y[..., None])[..., 0]
    residuals = y - (X @ beta[..., None])[..., 0]
    return beta, residuals, (residuals[..., None, :] @ residuals[..., None])[..., 0, 0], R


def _standard_errors(beta: np.ndarray, R: np.ndarray, residual_variance):
    """Standard errors and t-values (+-inf, or 0 for beta 0, where se is 0)."""
    r_inv = np.linalg.inv(R)
    xtx_inv_diag = np.einsum("...ij,...ij->...i", r_inv, r_inv)
    se = np.sqrt(np.asarray(residual_variance)[..., None] * xtx_inv_diag)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_values = np.where(se > 0.0, beta / se, np.sign(beta) * np.inf)
    return se, np.where((se == 0.0) & (beta == 0.0), 0.0, t_values)


def _r_squared(y: np.ndarray, rss: float, include_intercept: bool) -> float:
    """Centered R^2 with an intercept, against the zero model without; 1 when
    y has no variation to explain."""
    if include_intercept and y.min() == y.max():  # y - mean(y) would be rounding noise
        return 1.0
    tss = float(np.sum((y - y.mean()) ** 2)) if include_intercept else float(y @ y)
    return 1.0 if tss <= 0.0 else min(max(1.0 - rss / tss, 0.0), 1.0)


def fit_ols(data: Dataset, outcome: str, regressors: list[str] | tuple[str, ...],
            include_intercept: bool = True) -> OlsFit:
    """Least-squares fit of `outcome` on `regressors`.

    p-values are two-sided from the t distribution with n - p degrees of
    freedom.  r_squared is centered when an intercept is included and is
    computed against the zero model otherwise.
    """
    y = data.column(outcome)
    X, names = _design(data, regressors, include_intercept)
    beta, residuals, rss, R = _least_squares(X, y)
    n, p = X.shape
    df_residual = n - p
    residual_variance = float(rss) / df_residual
    standard_errors, t_values = _standard_errors(beta, R, residual_variance)
    p_values = np.array([2.0 * (1.0 - t_cdf(abs(t), df_residual)) for t in t_values])

    return OlsFit(
        outcome=outcome,
        names=names,
        coefficients=beta,
        standard_errors=standard_errors,
        t_values=t_values,
        p_values=p_values,
        r_squared=_r_squared(y, float(rss), include_intercept),
        residual_variance=residual_variance,
        df_residual=df_residual,
        residuals=residuals,
        n=n,
        include_intercept=include_intercept,
    )


def vif(data: Dataset, regressors: list[str] | tuple[str, ...]) -> list[float]:
    """Variance inflation factor 1 / (1 - R^2_j) for each regressor.

    Each auxiliary regression of one regressor on the others includes an
    intercept, the usual convention.
    """
    regressors = list(regressors)
    if len(regressors) < 2:
        raise DomainError("vif needs at least two regressors")
    X, _ = _design(data, regressors, include_intercept=True)
    _check_design_rank(X)
    ys = X.T[1:]  # row j - 1 is the column view X[:, j], refitted on the rest
    _, _, rss, _ = _least_squares(np.stack([np.delete(X, j, 1) for j in range(1, len(X.T))]), ys)
    slacks = [1.0 - _r_squared(y, float(r), include_intercept=True) for y, r in zip(ys, rss)]
    return [float("inf") if slack <= 0.0 else 1.0 / slack for slack in slacks]
