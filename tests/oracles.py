"""Independent oracles used to derive expected values.

Nothing here shares code with the package: normal quantities go through the
standard library's erf, t and chi-square CDFs are numeric integrals of their
densities, quantiles are bisections on those integrals, least squares is
solved by raw normal equations, the logistic oracle runs Newton steps
with finite-difference derivatives of the explicit log-likelihood, and the
CSV reference reads and writes row by row, one cell at a time (the package's
former ingest, without its later BOM and row-number fixes).  VIFs have two
references.  `vif_exact` computes S_jj [S^-1]_jj from the centred
cross-products S of the floats in exact rational arithmetic (`fractions`,
rounded once at the end); the package's VIFs are held to a relative bound
against it.  `vif_nested` is the package's former `vif` on the design as
`fit_ols` builds it: a row count check, an SVD rank check of the centred
design with its columns scaled to unit norm, then one complete least-squares
refit per regressor, of the regressor less its first value on the others less
their means.  Its rows/rank verdict is the one the package must give; its
values, 1 / (1 - R^2) by subtraction, lose about VIF * eps relative and are
not compared.  `r_squared_two_pass` is the package's former R^2 on that
refit: 1 - RSS/TSS, RSS from the residuals of the explicit-Q solve and TSS
from a second pass over the outcome.  The normal sampler reference is the package's former
masked-selection kernel, kept verbatim.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from collections import Counter
from fractions import Fraction

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
    norms = np.sqrt(np.sum(X * X, axis=0))
    if not norms.all():
        raise VifOracleError("rank")
    svals = np.linalg.svd(X / norms, compute_uv=False)
    if svals[-1] / svals[0] < 1e-10:
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


def _centred_design(values: np.ndarray) -> np.ndarray:
    """The intercept column and each column of `values` minus its own mean."""
    return np.column_stack([np.ones(len(values))] + [c - c.mean() for c in values.T])


def r_squared_two_pass(values: np.ndarray, y: np.ndarray) -> float:
    """Centred R^2 of y on an intercept and the (n, k) array `values`, from
    the fit of y less its first value on the centred design."""
    return _intercept_fit_r_squared(_centred_design(values), y - y[0])


def vif_nested(values: np.ndarray) -> list[float]:
    """VIF of each column of the (n, k) array `values`, k >= 2, from fits of
    the column less its first value on the centred others, as `fit_ols` fits
    them."""
    n, k = values.shape
    if n - k < 1:  # every nested refit has k coefficients
        raise VifOracleError("rows")
    _svd_rank_check(_centred_design(values))
    out = []
    for j in range(k):
        others = np.column_stack([values[:, i] for i in range(k) if i != j])
        r2 = _intercept_fit_r_squared(_centred_design(others), values[:, j] - values[0, j])
        slack = 1.0 - r2
        out.append(float("inf") if slack <= 0.0 else 1.0 / slack)
    return out


# ---------------------------------------------------------------------------
# exact VIF reference
# ---------------------------------------------------------------------------

def _integer_column(column: list[float]) -> list[int]:
    """The floats of `column` times the largest of their denominators, which
    are powers of two: integers, exactly."""
    ratios = [x.as_integer_ratio() for x in column]
    scale = max(den for _, den in ratios)
    return [num * (scale // den) for num, den in ratios]


def _determinant(matrix: list[list[int]]) -> Fraction:
    """Gaussian elimination in exact rational arithmetic."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            factor = rows[r][c] / rows[c][c]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    return det


def vif_exact(values) -> list[float]:
    """VIF of each column of the (n, k) array `values`, k >= 2, in exact
    arithmetic on its floats as they are, rounded once at the end: with S the
    centred cross-product matrix, VIF_j = S_jj [S^-1]_jj
    = S_jj det(S less row and column j) / det(S); inf where det(S) = 0.

    Scaling column j by c > 0 scales row and column j of S by c and leaves
    every VIF as it was, so each column is first scaled to integers a, and
    n^2 S = n sum(a_i a_j) - sum(a_i) sum(a_j) is a matrix of integers."""
    rows = [[float(v) for v in row] for row in values]
    n, k = len(rows), len(rows[0])
    cols = [_integer_column([row[j] for row in rows]) for j in range(k)]
    sums = [sum(col) for col in cols]
    S = [[n * sum(a * b for a, b in zip(cols[i], cols[j])) - sums[i] * sums[j]
          for j in range(k)] for i in range(k)]
    det = _determinant(S)
    if det == 0:
        return [math.inf] * k
    return [float(S[j][j] * _determinant([[S[r][c] for c in range(k) if c != j]
                                          for r in range(k) if r != j]) / det)
            for j in range(k)]


# ---------------------------------------------------------------------------
# The package's former normal sampler: Cody's erfc and Acklam's quantile with
# one Newton step, each branch evaluated on a boolean-mask selection of its
# elements.  Copied verbatim (bar the names); the package's blocked, bitwise
# selecting kernel must reproduce it bit for bit.
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_PI = 0.5641895835477563
_NORM_PDF_C = 0.3989422804014327  # 1/sqrt(2*pi)

_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
          3.20937758913846947e03, 1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
          2.84423683343917062e03)
_ERFC_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
           2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
           2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_ERFC_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
           1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
_ERFC_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
           1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_ERFC_Q = (2.56852019228982242e00, 1.87295284992346047e00, 5.27905102951428412e-1,
           6.05183413124413191e-2, 2.33520497626869185e-3)


def erfc_masked(x: np.ndarray) -> np.ndarray:
    """Complementary error function, good to ~1e-13 relative."""
    x = np.asarray(x, dtype=np.float64)
    y = np.abs(x)
    out = np.empty_like(y)

    small = y <= 0.46875
    if small.any():
        ys = y[small]
        z = ys * ys
        num = _ERF_A[4] * z
        den = z
        for i in range(3):
            num = (num + _ERF_A[i]) * z
            den = (den + _ERF_B[i]) * z
        out[small] = 1.0 - ys * (num + _ERF_A[3]) / (den + _ERF_B[3])

    mid = (y > 0.46875) & (y <= 4.0)
    if mid.any():
        ym = y[mid]
        num = _ERFC_C[8] * ym
        den = ym
        for i in range(7):
            num = (num + _ERFC_C[i]) * ym
            den = (den + _ERFC_D[i]) * ym
        out[mid] = np.exp(-ym * ym) * (num + _ERFC_C[7]) / (den + _ERFC_D[7])

    big = y > 4.0
    if big.any():
        yb = y[big]
        z = 1.0 / (yb * yb)
        num = _ERFC_P[5] * z
        den = z
        for i in range(4):
            num = (num + _ERFC_P[i]) * z
            den = (den + _ERFC_Q[i]) * z
        r = z * (num + _ERFC_P[4]) / (den + _ERFC_Q[4])
        with np.errstate(under="ignore"):
            out[big] = np.exp(-yb * yb) * (_INV_SQRT_PI - r) / yb

    return np.where(x < 0.0, 2.0 - out, out)


_PPF_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_PPF_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_PPF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_PPF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)


def normal_quantile_vec_masked(p: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF, elementwise on an array in (0, 1).

    Inputs must already be validated; this is the bulk path used by the
    simulator's inverse-CDF sampling.  Absolute error is a few ulp.
    """
    p = np.asarray(p, dtype=np.float64)
    flip = p > 0.5
    q = np.where(flip, 1.0 - p, p)  # exact: p >= 0.5 makes 1 - p lossless
    z = np.empty_like(q)

    tail = q < 0.02425
    if tail.any():
        s = np.sqrt(-2.0 * np.log(q[tail]))
        num = ((((_PPF_C[0] * s + _PPF_C[1]) * s + _PPF_C[2]) * s + _PPF_C[3]) * s + _PPF_C[4]) * s + _PPF_C[5]
        den = (((_PPF_D[0] * s + _PPF_D[1]) * s + _PPF_D[2]) * s + _PPF_D[3]) * s + 1.0
        z[tail] = num / den
    center = ~tail
    if center.any():
        u = q[center] - 0.5
        r = u * u
        num = ((((_PPF_A[0] * r + _PPF_A[1]) * r + _PPF_A[2]) * r + _PPF_A[3]) * r + _PPF_A[4]) * r + _PPF_A[5]
        den = ((((_PPF_B[0] * r + _PPF_B[1]) * r + _PPF_B[2]) * r + _PPF_B[3]) * r + _PPF_B[4]) * r + 1.0
        z[center] = u * num / den

    # One Newton step against the lower-tail CDF, where erfc keeps full
    # relative precision (z <= 0 here).
    with np.errstate(under="ignore"):
        cdf = 0.5 * erfc_masked(-z / _SQRT2)
        pdf = np.exp(-0.5 * z * z) * _NORM_PDF_C
        step = (cdf - q) / pdf
    z = z - np.where(pdf > 0.0, step, 0.0)
    return np.where(flip, -z, z)
