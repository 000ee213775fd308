"""Logistic regression by iteratively reweighted least squares, plus the
concordance (C-) statistic used to summarize propensity models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DomainError, NoVariationError, RankDeficientError, SeparationError
from .ols import (INTERCEPT, _check_rank, _design, _least_squares, _NamedCoefficients,
                  _inference)

MAX_ITERATIONS = 50
DECREMENT_TOL = 1e-20  # on |R step|^2, which column units and origins leave unchanged
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
    basis of X's columns, so covariate units and origins do not enter it.
    """
    unsaturated = np.abs(eta) <= SATURATION_ETA
    if unsaturated.all():
        return False
    basis = np.linalg.qr(X)[0][unsaturated]
    try:
        _check_rank(np.linalg.qr(basis, mode="r"))
    except RankDeficientError:
        return True
    return basis.shape[0] < basis.shape[1]  # fewer rows than coefficients


def fit_logit(data: Dataset, outcome: str, regressors: list[str] | tuple[str, ...]) -> LogitFit:
    """Maximum-likelihood logistic fit of `outcome` on an intercept and
    `regressors`, by step-halving IRLS.

    Each Newton step is the QR fit of (y - mu) / sqrt(w) on the centred
    design weighted by sqrt(w), w = mu (1 - mu); standard errors come from
    the last step's R.  Raises SeparationError once the unsaturated rows stop
    determining the coefficients (see _separated).
    """
    y = data.column(outcome)
    _check_binary(y, f"outcome {outcome!r}")
    X, means = _design(data.matrix(list(regressors)))
    beta = np.zeros(X.shape[1])
    eta = X @ beta
    ll = _log_likelihood(y, eta)

    for iterations in range(MAX_ITERATIONS + 1):
        mu = _sigmoid(eta)
        sqrt_w = np.sqrt(mu * (1.0 - mu))
        z = np.divide(y - mu, sqrt_w, out=np.zeros_like(mu), where=sqrt_w > 0.0)
        try:
            direction, R = _least_squares(X * sqrt_w[:, None], z)
        except RankDeficientError:
            if iterations == 0:  # equal weights: the design itself is collinear
                raise
            raise SeparationError("fitted probabilities have collapsed to 0/1") from None
        converged = bool(R[:-1, -1] @ R[:-1, -1] <= DECREMENT_TOL)
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

    beta, standard_errors, _ = _inference(beta, R[:-1, :-1], 0.0, means, 1.0)
    probs = np.clip(mu, np.finfo(np.float64).tiny, 1.0 - np.finfo(np.float64).epsneg)

    return LogitFit(
        outcome=outcome,
        names=(INTERCEPT, *regressors),
        coefficients=beta,
        standard_errors=standard_errors,
        fitted_probabilities=probs,
        converged=converged,
        iterations=iterations,
        log_likelihood=ll,
        n=data.n,
    )


def c_statistic(scores, outcome) -> float:
    """Probability that a random positive case outranks a random negative one
    by `scores`, such as a fit's `fitted_probabilities`.

    Ties count one half (the Mann-Whitney convention), so a constant score
    gives exactly 0.5.  Computed by sort-and-rank in O(n log n).  Scores must
    be finite: a NaN has no rank among them.
    """
    scores = np.asarray(scores, dtype=np.float64)
    y = np.asarray(outcome, dtype=np.float64)
    if scores.shape != y.shape:
        raise DomainError("scores and outcome must have the same length")
    if not np.isfinite(scores).all():
        raise DomainError("scores must be finite")
    _check_binary(y, "outcome")
    n_pos = int(y.sum())
    n_neg = y.shape[0] - n_pos
    # ranks 1..n, each tie at the average of the ranks it spans
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2)[inverse]
    u = ranks[y == 1.0].sum() - 0.5 * n_pos * (n_pos + 1)
    return float(u / (n_pos * n_neg))
