"""Independent oracles used to derive expected values.

Nothing here shares code with the package: normal quantities go through the
standard library's erf, t and chi-square CDFs are numeric integrals of their
densities, quantiles are bisections on those integrals, least squares is
solved by raw normal equations, the logistic oracle runs Newton steps
with finite-difference derivatives of the explicit log-likelihood, and the
CSV reference reads and writes row by row, one cell at a time (the package's
former ingest, without its later BOM and row-number fixes).  The VIF
reference is the package's former `vif`: an SVD rank check of the design,
then one complete least-squares refit per regressor.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from collections import Counter

import numpy as np

_GL_X, _GL_W = np.polynomial.legendre.leggauss(80)


def normal_cdf_erf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def bisect(f, target: float, lo: float, hi: float, iterations: int = 200) -> float:
    flo = f(lo) - target
    fhi = f(hi) - target
    if flo > 0 or fhi < 0:
        raise ValueError(f"root not bracketed: f(lo)-t={flo}, f(hi)-t={fhi}")
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if f(mid) - target <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def normal_quantile_oracle(p: float) -> float:
    return bisect(normal_cdf_erf, p, -40.0, 40.0)


def _integrate(fn, lo: float, hi: float, pieces: int) -> float:
    total = 0.0
    edges = np.linspace(lo, hi, pieces + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        total += half * float(np.sum(_GL_W * fn(mid + half * _GL_X)))
    return total


def t_pdf(t, df: int):
    c = math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0) - 0.5 * math.log(df * math.pi)
    return np.exp(c - (df + 1) / 2.0 * np.log1p(np.square(t) / df))


def t_cdf_oracle(x: float, df: int) -> float:
    if x < 0.0:
        return 1.0 - t_cdf_oracle(-x, df)
    return 0.5 + _integrate(lambda t: t_pdf(t, df), 0.0, x, pieces=max(8, int(x) + 8))


def t_quantile_oracle(p: float, df: int) -> float:
    # expand the bracket first; a fixed huge one would make the quadrature
    # oracle integrate over millions of pieces at the early midpoints
    hi = 2.0
    while t_cdf_oracle(hi, df) < p and hi < 1e8:
        hi *= 2.0
    lo = -2.0
    while t_cdf_oracle(lo, df) > p and lo > -1e8:
        lo *= 2.0
    return bisect(lambda t: t_cdf_oracle(t, df), p, lo, hi)


def gamma_lower_oracle(a: float, x: float) -> float:
    lg = math.lgamma(a)

    def density(t):
        t = np.maximum(t, 1e-300)
        return np.exp((a - 1.0) * np.log(t) - t - lg)

    return _integrate(density, 0.0, x, pieces=max(16, int(x) + 16))


def chisq_cdf_oracle(x: float, df: int) -> float:
    return gamma_lower_oracle(df / 2.0, x / 2.0)


def chisq_quantile_oracle(p: float, df: int) -> float:
    hi = df + 200.0 + 40.0 * math.sqrt(df)
    return bisect(lambda x: chisq_cdf_oracle(x, df), p, 0.0, hi)


def ols_normal_equations(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    xtx = X.T @ X
    return np.linalg.solve(xtx, X.T @ y)


def logit_log_likelihood(beta: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    eta = X @ beta
    return float(y @ eta - np.logaddexp(0.0, eta).sum())


def logit_newton_fd(X: np.ndarray, y: np.ndarray, steps: int = 60,
                    h: float = 1e-5) -> np.ndarray:
    """Newton ascent with central finite differences of the log-likelihood."""
    p = X.shape[1]
    beta = np.zeros(p)

    def grad_hess(b):
        g = np.zeros(p)
        H = np.zeros((p, p))
        for i in range(p):
            e = np.zeros(p)
            e[i] = h
            g[i] = (logit_log_likelihood(b + e, X, y)
                    - logit_log_likelihood(b - e, X, y)) / (2 * h)
        for i in range(p):
            for j in range(i, p):
                ei = np.zeros(p); ei[i] = h
                ej = np.zeros(p); ej[j] = h
                H[i, j] = H[j, i] = (
                    logit_log_likelihood(b + ei + ej, X, y)
                    - logit_log_likelihood(b + ei - ej, X, y)
                    - logit_log_likelihood(b - ei + ej, X, y)
                    + logit_log_likelihood(b - ei - ej, X, y)
                ) / (4 * h * h)
        return g, H

    for _ in range(steps):
        g, H = grad_hess(beta)
        step = np.linalg.solve(H, g)
        beta = beta - step
        if np.max(np.abs(step)) < 1e-10:
            break
    return beta


def c_statistic_pairwise(scores: np.ndarray, y: np.ndarray) -> float:
    pos = scores[y == 1]
    neg = scores[y == 0]
    wins = 0.0
    for s in pos:
        for t in neg:
            if s > t:
                wins += 1.0
            elif s == t:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# row-wise CSV reference
# ---------------------------------------------------------------------------

class CsvOracleError(Exception):
    """`kind` is "parse" (malformed input) or "empty" (no complete rows)."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


_MISSING = object()


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    try:
        table = [row for row in csv.reader(io.StringIO(text)) if row]
    except csv.Error as exc:
        raise CsvOracleError("parse", f"malformed CSV: {exc}") from exc
    if not table:
        raise CsvOracleError("parse", "file has no header row")
    header = [h.strip() for h in table[0]]
    if any(not h for h in header) or len(set(header)) != len(header):
        raise CsvOracleError("parse", "bad header")
    rows = []
    for row in table[1:]:
        if len(row) != len(header):
            raise CsvOracleError("parse", "ragged row")
        rows.append([cell.strip() for cell in row])
    return header, rows


def _csv_cell(cell: str):
    if cell == "":
        return _MISSING
    try:
        value = float(cell)
    except ValueError:
        return cell
    return value if math.isfinite(value) else _MISSING


def _csv_dataset(header, rows, source_name):
    ncol = len(header)
    parsed = [[_csv_cell(row[j]) for row in rows] for j in range(ncol)]
    numeric = [all(not isinstance(v, str) for v in col) for col in parsed]
    keep = [i for i in range(len(rows))
            if all(parsed[j][i] is not _MISSING for j in range(ncol))]
    dropped = len(rows) - len(keep)
    if dropped:
        warnings.warn(f"{source_name}: dropped {dropped} row(s) with missing values")
    if not keep:
        raise CsvOracleError("empty", "no complete rows")
    names, columns = [], []
    for j, col_name in enumerate(header):
        col = [parsed[j][i] for i in keep]
        if numeric[j]:
            names.append(col_name)
            columns.append(np.array(col, dtype=np.float64))
            continue
        levels = [str(v) for v in col]
        counts = Counter(levels)
        reference = min(counts, key=lambda lv: (-counts[lv], lv))
        for level in sorted(counts):
            if level != reference:
                names.append(f"{col_name}:{level}")
                columns.append(np.array([1.0 if v == level else 0.0 for v in levels]))
    if not names or len(set(names)) != len(names):
        raise CsvOracleError("parse", "no usable or duplicate columns")
    return tuple(names), np.column_stack(columns)


def csv_rowwise(text: str, source_name: str = "<stream>"):
    """(names, values) of a CSV text; warns as the package does."""
    header, rows = _csv_rows(text)
    return _csv_dataset(header, rows, source_name)


def csv_rowwise_stratified(text: str, stratify: str, source_name: str = "<stream>"):
    """[(label, names, values)] per stratum, labels sorted."""
    header, rows = _csv_rows(text)
    if stratify not in header:
        raise KeyError(stratify)
    j = header.index(stratify)
    groups: dict[str, list[list[str]]] = {}
    missing = 0
    for row in rows:
        if row[j] == "":
            missing += 1
        else:
            groups.setdefault(row[j], []).append(row[:j] + row[j + 1:])
    if missing:
        warnings.warn(f"{source_name}: dropped {missing} row(s) with a missing "
                      f"{stratify!r} value")
    if not groups:
        raise CsvOracleError("empty", "every row is missing the stratum")
    sub_header = header[:j] + header[j + 1:]
    return [(label, *_csv_dataset(sub_header, groups[label],
                                  f"{source_name}[{stratify}={label}]"))
            for label in sorted(groups)]


def csv_write_rowwise(names, values: np.ndarray) -> str:
    """CSV text with one csv.writer row of repr(float) cells per data row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    for row in values:
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# nested-refit VIF reference
# ---------------------------------------------------------------------------

class VifOracleError(Exception):
    """`kind` is "rank" (collinear design) or "rows" (no residual df)."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


def _svd_rank_check(X: np.ndarray) -> None:
    svals = np.linalg.svd(X, compute_uv=False)
    if svals[0] == 0.0 or svals[-1] / svals[0] < 1e-10:
        raise VifOracleError("rank")


def _intercept_fit_r_squared(X: np.ndarray, y: np.ndarray) -> float:
    n, p = X.shape
    if n - p < 1:
        raise VifOracleError("rows")
    _svd_rank_check(X)
    Q, R = np.linalg.qr(X)
    beta = np.linalg.solve(R, Q.T @ y)
    fitted = X @ beta
    residuals = y - fitted
    rss = float(residuals @ residuals)
    tss = float(np.sum((y - y.mean()) ** 2))
    return 0.0 if tss <= 0.0 else min(max(1.0 - rss / tss, 0.0), 1.0)


def vif_nested(values: np.ndarray) -> list[float]:
    """VIF of each column of the (n, k) array `values`, k >= 2."""
    n, k = values.shape
    _svd_rank_check(np.column_stack([np.ones(n), values]))
    out = []
    for j in range(k):
        others = np.column_stack([values[:, i] for i in range(k) if i != j])
        r2 = _intercept_fit_r_squared(np.column_stack([np.ones(n), others]), values[:, j])
        slack = 1.0 - r2
        out.append(float("inf") if slack <= 0.0 else 1.0 / slack)
    return out
