"""Logistic regression by iteratively reweighted least squares, plus the
concordance (C-) statistic used to summarize propensity models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import (DomainError, InsufficientRowsError, NoVariationError,
                     SeparationError)
from .ols import RANK_TOL, _check_design_rank, _design, _NamedCoefficients

MAX_ITERATIONS = 50
DECREMENT_TOL = 1e-20  # on grad' info^-1 grad, which column units leave unchanged
# |linear predictor| beyond this puts a fitted probability within e**-10 of 0/1
SATURATION_ETA = 10.0


@dataclass(frozen=True)
class LogitFit(_NamedCoefficients):
    outcome: str
    names: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    fitted_probabilities: np.ndarray
    converged: bool
    iterations: int
    log_likelihood: float
    n: int


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    with np.errstate(under="ignore"):
        out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
        e = np.exp(eta[~pos])
        out[~pos] = e / (1.0 + e)
    return out


def _log_likelihood(y: np.ndarray, eta: np.ndarray) -> float:
    # sum y*eta - log(1 + exp(eta)), stably
    return float(y @ eta - np.logaddexp(0.0, eta).sum())


def _check_binary(y: np.ndarray, what: str) -> None:
    if not np.all((y == 0.0) | (y == 1.0)):
        raise DomainError(f"{what} must contain only 0/1 values")
    if y.min() == y.max():
        raise NoVariationError(f"{what} contains a single class")


def _separated(X: np.ndarray, eta: np.ndarray) -> bool:
    """True when the unsaturated rows no longer pin every coefficient.

    Separation runs IRLS off along a direction that is zero on the rows it
    cannot separate; at a finite MLE the unsaturated rows determine the fit,
    however far one saturated row lies.  The rank test reads an orthonormal
    basis of X's columns, so covariate units do not enter it.
    """
    unsaturated = np.abs(eta) <= SATURATION_ETA
    if unsaturated.all():
        return False
    basis = np.linalg.qr(X)[0][unsaturated]
    if basis.shape[0] < basis.shape[1]:
        return True
    svals = np.linalg.svd(np.linalg.qr(basis, mode="r"), compute_uv=False)
    return bool(svals[-1] <= RANK_TOL * svals[0])


def fit_logit(data: Dataset, outcome: str, regressors: list[str] | tuple[str, ...]) -> LogitFit:
    """Maximum-likelihood logistic fit of `outcome` on an intercept and
    `regressors`, by step-halving IRLS.

    Standard errors come from the inverse observed information at the
    optimum.  Raises SeparationError once the unsaturated rows stop
    determining the coefficients (see _separated).
    """
    y = data.column(outcome)
    _check_binary(y, f"outcome {outcome!r}")
    X, names = _design(data, regressors)
    n, p = X.shape
    if n - p < 1:
        raise InsufficientRowsError(f"n={n} rows leave no residual degrees of freedom for p={p}")
    _check_design_rank(X)

    beta = np.zeros(p)
    eta = X @ beta
    ll = _log_likelihood(y, eta)

    for iterations in range(MAX_ITERATIONS + 1):
        mu = _sigmoid(eta)
        grad = X.T @ (y - mu)
        w = mu * (1.0 - mu)
        info = X.T @ (X * w[:, None])
        try:
            direction = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            raise SeparationError(
                "weighted information matrix is singular; fitted probabilities "
                "have collapsed to 0/1"
            ) from None
        converged = bool(grad @ direction <= DECREMENT_TOL)
        if converged or iterations == MAX_ITERATIONS:
            break

        # slack scales with |ll|: at large n the log-likelihood's own rounding
        # noise sits near ulp(|ll|), and a fixed 1e-12 would trigger spurious
        # halving right at the optimum
        slack = 1e-10 * max(1.0, abs(ll))
        step = 1.0
        for _ in range(30):
            candidate = beta + step * direction
            cand_eta = X @ candidate
            cand_ll = _log_likelihood(y, cand_eta)
            if cand_ll >= ll - slack:
                break
            step *= 0.5
        beta, eta, ll = candidate, cand_eta, cand_ll
        if _separated(X, eta):
            raise SeparationError(
                f"iteration {iterations + 1}: the rows with fitted probabilities not "
                f"numerically 0 or 1 no longer determine the coefficients; data "
                f"look quasi-completely separated")

    standard_errors = np.sqrt(np.diag(np.linalg.inv(info)))
    tiny = np.finfo(np.float64).tiny
    probs = np.clip(mu, tiny, 1.0 - np.finfo(np.float64).epsneg)

    return LogitFit(
        outcome=outcome,
        names=names,
        coefficients=beta,
        standard_errors=standard_errors,
        fitted_probabilities=probs,
        converged=converged,
        iterations=iterations,
        log_likelihood=ll,
        n=n,
    )


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing their average rank."""
    n = scores.shape[0]
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], n]
    avg = 0.5 * (starts + 1 + ends)
    ranks = np.empty(n)
    ranks[order] = np.repeat(avg, ends - starts)
    return ranks


def c_statistic(scores, outcome) -> float:
    """Probability that a random positive case outranks a random negative one
    by `scores`, such as a fit's `fitted_probabilities`.

    Ties count one half (the Mann-Whitney convention), so a constant score
    gives exactly 0.5.  Computed by sort-and-rank in O(n log n).
    """
    scores = np.asarray(scores, dtype=np.float64)
    y = np.asarray(outcome, dtype=np.float64)
    if scores.shape != y.shape:
        raise DomainError("scores and outcome must have the same length")
    _check_binary(y, "outcome")
    n_pos = int(y.sum())
    n_neg = y.shape[0] - n_pos
    ranks = _average_ranks(scores)
    u = ranks[y == 1.0].sum() - 0.5 * n_pos * (n_pos + 1)
    return float(u / (n_pos * n_neg))
