"""Normal, Student-t and chi-square distribution functions.

Self-contained (no external math library): the normal CDF uses Cody's
rational approximations for erfc, the normal quantile uses Acklam's rational
approximation refined by one Newton step on the CDF, and the t family is
built on the regularized incomplete beta (a Lentz continued fraction).  The
chi-square CDF, at every df, is one Gauss-Legendre quadrature of the gamma
density over s = log(t / a): the mass below log(x / a) over the whole mass,
so no lgamma and no normalising constant enters it.

The bulk normal quantile (and the erfc inside its Newton step) runs over
fixed blocks of 16384 elements of the flattened input, with work rows
allocated per call, so its memory does not grow with the input beyond the
output.  Every element of a block goes through every main branch of the
rational approximations; the branch it belongs to is then picked with a
bitwise select on the 64-bit patterns, `b ^ ((a ^ b) & mask)`, where the
mask comes from a sign bit.  Gathering by a boolean mask drawn from random
uniforms defeats the CPU's branch prediction and costs several times the
arithmetic it saves.  The bitwise select is exact, so each element still
takes exactly the operations, in the same order, of its own branch, and the
output bits do not depend on the blocking.

All functions are pure and reentrant.  t and chi-square critical values are
memoised on their validated (p, df).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import checks
from .errors import ConvergenceError

__all__ = [
    "normal_cdf",
    "normal_quantile",
    "normal_quantile_vec",
    "t_cdf",
    "t_quantile",
    "chisq_cdf",
    "chisq_quantile",
]

_MAX_ITER = 500
_CONV_TOL = 1e-14
_FPMIN = 1e-300
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_PI = 0.5641895835477563
_NORM_PDF_C = 0.3989422804014327  # 1/sqrt(2*pi)


# ---------------------------------------------------------------------------
# Block kernels: branch-free evaluation with exact bitwise selects
# ---------------------------------------------------------------------------

# Elements per block of the bulk kernels: large enough to amortise the cost
# of a ufunc call, small enough for a block's work rows to stay in cache.
_BLOCK = 16384
_SIGN_BIT = np.int64(-(1 << 63))


def _sign_mask(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """int64 all ones where float64 `x` has its sign bit set, else zero."""
    return np.right_shift(x.view(np.int64), 63, out=out)


def _select(mask: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """b = a where mask is all ones, else b; bit for bit.  Clobbers a."""
    ai, bi = a.view(np.int64), b.view(np.int64)
    np.bitwise_xor(ai, bi, out=ai)
    np.bitwise_and(ai, mask, out=ai)
    np.bitwise_xor(bi, ai, out=bi)


def _horner(x: np.ndarray, coefs: tuple, out: np.ndarray | None = None) -> np.ndarray:
    """((c0 x + c1) x + ...) x + c_last, one rounded step at a time."""
    out = np.multiply(x, coefs[0], out=out)
    for c in coefs[1:-1]:
        out += c
        out *= x
    out += coefs[-1]
    return out


def _discarded_branch_errstate():
    # Every element also runs the branches it does not take; their overflow
    # and NaN are discarded by the selects and must not warn.
    return np.errstate(over="ignore", under="ignore", invalid="ignore")


# ---------------------------------------------------------------------------
# erfc (Cody 1969 rational approximations)
# ---------------------------------------------------------------------------

# Coefficients in Horner order, highest power first.  A leading 1.0 stands
# for a monic polynomial: 1.0 * x is exactly x.
_ERF_NUM = (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
            3.77485237685302021e02, 3.20937758913846947e03)
_ERF_DEN = (1.0, 2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
            2.84423683343917062e03)
_ERFC_NUM = (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
             6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
             1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03)
_ERFC_DEN = (1.0, 1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
             1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
             3.43936767414372164e03, 1.23033935480374942e03)
_ERFC_ASYM_NUM = (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
                  1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4)
_ERFC_ASYM_DEN = (1.0, 2.56852019228982242e00, 1.87295284992346047e00,
                  5.27905102951428412e-1, 6.05183413124413191e-2, 2.33520497626869185e-3)


def _erfc(x: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
    """erfc of the 1-D block x into out, good to ~1e-13 relative.

    work holds five rows of x's length.  Both main branches run on every
    element.  The asymptotic branch y > 4 (a normal tail below 8e-9, rare in
    any sample) is patched afterwards on its own elements.
    """
    y, a, b, c = work[:4]
    mask = work[4].view(np.int64)
    np.abs(x, out=y)

    # y <= 0.46875: 1 - y * P(y^2) / Q(y^2)
    np.multiply(y, y, out=c)
    _horner(c, _ERF_NUM, a)
    _horner(c, _ERF_DEN, b)
    a *= y
    a /= b
    np.subtract(1.0, a, out=out)

    # 0.46875 < y <= 4: exp(-y^2) * P(y) / Q(y)
    _horner(y, _ERFC_NUM, a)
    _horner(y, _ERFC_DEN, b)
    np.negative(y, out=c)
    c *= y
    np.exp(c, out=c)
    c *= a
    c /= b
    np.subtract(0.46875, y, out=a)
    _select(_sign_mask(a, mask), c, out)

    big = y > 4.0
    if big.any():
        yb = y[big]
        z = 1.0 / (yb * yb)
        r = z * _horner(z, _ERFC_ASYM_NUM) / _horner(z, _ERFC_ASYM_DEN)
        out[big] = np.exp(-yb * yb) * (_INV_SQRT_PI - r) / yb

    # erfc(x) = 2 - erfc(-x); at x = -0.0 both sides are exactly 1.0
    np.subtract(2.0, out, out=a)
    _select(_sign_mask(x, mask), a, out)


def normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    work = np.empty((7, 1))
    work[0] = -checks.real(x, "x") / _SQRT2
    with _discarded_branch_errstate():
        _erfc(work[0], work[1], work[2:])
    return float(0.5 * work[1, 0])


# ---------------------------------------------------------------------------
# Normal quantile: Acklam's rational approximation + one Newton step
# ---------------------------------------------------------------------------

# Horner order as above; each denominator ends in its constant term 1.0.
_PPF_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_PPF_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01, 1.0)
_PPF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_PPF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00, 1.0)


def _quantile_block(p: np.ndarray, z: np.ndarray, work: np.ndarray) -> None:
    """Inverse normal CDF of the 1-D block p into z; work has eight rows."""
    q, x, cdf = work[:3]
    zt, u, a, b, c = work[3:]
    mask = x.view(np.int64)
    np.subtract(1.0, p, out=q)
    np.minimum(p, q, out=q)  # exact: p >= 0.5 makes 1 - p lossless

    # q < 0.02425: C(s) / D(s), s = sqrt(-2 log q)
    np.log(q, out=c)
    c *= -2.0
    np.sqrt(c, out=c)
    _horner(c, _PPF_C, a)
    _horner(c, _PPF_D, b)
    np.divide(a, b, out=zt)

    # otherwise: u A(u^2) / B(u^2), u = q - 0.5
    np.subtract(q, 0.5, out=u)
    np.multiply(u, u, out=c)
    _horner(c, _PPF_A, a)
    _horner(c, _PPF_B, b)
    np.multiply(u, a, out=z)
    z /= b
    np.subtract(q, 0.02425, out=c)
    _select(_sign_mask(c, mask), zt, z)

    # One Newton step against the lower-tail CDF, where erfc keeps full
    # relative precision (z <= 0 here).
    np.negative(z, out=x)
    x /= _SQRT2
    _erfc(x, cdf, work[3:])
    cdf *= 0.5
    pdf, step = a, b
    np.multiply(z, -0.5, out=pdf)
    pdf *= z
    np.exp(pdf, out=pdf)
    pdf *= _NORM_PDF_C
    np.subtract(cdf, q, out=step)
    step /= pdf
    # no step where pdf underflows to 0: pdf >= 0, so -bits < 0 iff pdf > 0
    np.negative(pdf.view(np.int64), out=mask)
    mask >>= 63
    np.bitwise_and(step.view(np.int64), mask, out=step.view(np.int64))
    z -= step

    # p > 0.5 flips the sign: 0.5 - p is negative exactly there
    np.subtract(0.5, p, out=c)
    np.bitwise_and(c.view(np.int64), _SIGN_BIT, out=mask)
    np.bitwise_xor(z.view(np.int64), mask, out=z.view(np.int64))


def normal_quantile_vec(p: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF, elementwise on an array in (0, 1).

    Inputs must already be validated; this is the bulk path used by the
    simulator's inverse-CDF sampling.  Absolute error is a few ulp.
    """
    p = np.asarray(p, dtype=np.float64)
    flat = p.reshape(-1)
    out = np.empty(flat.shape)
    work = np.empty((8, min(flat.size, _BLOCK)))
    with _discarded_branch_errstate():
        for start in range(0, flat.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            w = out[block].size
            _quantile_block(flat[block], out[block], work[:, :w])
    return out.reshape(p.shape)


def normal_quantile(p) -> float:
    """z such that normal_cdf(z) = p; absolute error well below 1e-9."""
    return float(normal_quantile_vec(np.array([checks.probability(p, "probability")]))[0])


# ---------------------------------------------------------------------------
# Regularized incomplete beta (continued fraction)
# ---------------------------------------------------------------------------

def _beta_cf(a: float, b: float, x: float) -> float:
    """Lentz continued fraction for the incomplete beta."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CONV_TOL:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge in {_MAX_ITER} "
        f"iterations (a={a}, b={b}, x={x})"
    )


def _betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


# ---------------------------------------------------------------------------
# Regularized incomplete gamma (Gauss-Legendre quadrature in log space)
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _log_gamma_mass(a: float, lo: float, hi: float) -> float:
    """Integral of exp(-a (expm1(s) - s)) over [lo, hi], on 1/sqrt(a)-wide segments."""
    if not hi > lo:
        return 0.0
    nseg = max(1, math.ceil((hi - lo) * math.sqrt(a)))
    half = 0.5 * (hi - lo) / nseg
    mids = lo + half * (2.0 * np.arange(nseg) + 1.0)
    s = mids[:, None] + half * _GL_NODES
    return half * float(np.sum(np.exp(-a * (np.expm1(s) - s)) @ _GL_WEIGHTS))


def _gamma_masses(a: float, s: float) -> tuple[float, float]:
    """Masses of exp(-a g(u)), g(u) = expm1(u) - u >= 0, below and above u = s.

    With t = a e^u this is the Gamma(a) density of u up to a constant: peaked
    at u = 0, with sd about 1/sqrt(a).  The cuts: g(u) >= u^2 / 2 for u > 0,
    so the density at hi = 45 sd is below e^-1000.  g(u) >= u^2 / 3 on
    [-1, 0], so it is below e^-760 at lo = -48 sd when that is >= -1.
    Otherwise lo = -(1 + 64 / a): below -1, g falls with slope
    1 - e^u >= 1 - 1/e, so a g gains at least 40 over the last 64 / a, and the
    density at lo is below e^-40 of its value anywhere on [-1, 0].  For the
    same reason the lower integral starts 64 / a below s when that is lower
    still, which keeps deep lower tails accurate to their own size.  Each
    integral spans at most 137 sd-wide segments (at a = 1/2), at any (a, s).
    """
    sd = 1.0 / math.sqrt(a)
    hi = 45.0 * sd
    deep = 64.0 / a
    lo = -48.0 * sd if 48.0 * sd <= 1.0 else -(1.0 + deep)
    return (_log_gamma_mass(a, min(lo, s - deep), min(s, hi)),
            _log_gamma_mass(a, max(lo, s), hi))


def _gammainc_lower_reg(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x), a > 0: mass below log(x / a) / whole."""
    ratio = x / a
    if not ratio > 0.0:
        return 0.0  # x <= 0, or x / a underflows, which it does only where P does
    below, above = _gamma_masses(a, math.log(ratio))
    return below / (below + above)


# ---------------------------------------------------------------------------
# Student t
# ---------------------------------------------------------------------------

def t_cdf(x: float, df) -> float:
    """P(T_df <= x) via the regularized incomplete beta."""
    df = checks.integer(df, "degrees of freedom", 1)
    x = checks.real(x, "x")
    if x == 0.0:
        return 0.5
    xb = df / (df + x * x)  # handles x = +-inf (xb -> 0)
    tail = 0.5 * _betainc_reg(0.5 * df, 0.5, xb)
    return 1.0 - tail if x > 0.0 else tail


def _t_pdf(x: float, df: int) -> float:
    c = math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df) - 0.5 * math.log(df * math.pi)
    return math.exp(c - 0.5 * (df + 1) * math.log1p(x * x / df))


def t_quantile(p, df) -> float:
    """Inverse of t_cdf: |t_cdf(result, df) - p| <= 1e-9."""
    return _t_quantile(checks.probability(p, "probability"),
                       checks.integer(df, "degrees of freedom", 1))


@functools.lru_cache(maxsize=1024)
def _t_quantile(pv: float, df: int) -> float:
    if pv == 0.5:
        return 0.0
    if df == 1:
        return math.tan(math.pi * (pv - 0.5))
    if df == 2:
        u = 2.0 * pv - 1.0
        return u * math.sqrt(2.0 / (1.0 - u * u))
    z = normal_quantile(pv)
    # first-order df correction gives a start within a few percent
    start = z + (z ** 3 + z) / (4.0 * df)
    return _invert_monotone(lambda t: t_cdf(t, df), lambda t: _t_pdf(t, df),
                            pv, start, scale=1.0 + abs(start))


# ---------------------------------------------------------------------------
# Chi-square
# ---------------------------------------------------------------------------

def chisq_cdf(x: float, df) -> float:
    """P(X <= x) for a chi-square variable with df degrees of freedom."""
    df = checks.integer(df, "degrees of freedom", 1)
    x = checks.real(x, "x")
    if x == math.inf:
        return 1.0
    return _gammainc_lower_reg(0.5 * df, 0.5 * x)


def _chisq_pdf(x: float, df: int, mass: float) -> float:
    # chisq_cdf's own derivative, the quadrature's integrand at s = log(x / df)
    # over x times its whole mass, so Newton's step needs no lgamma either.
    ratio = x / df
    if not ratio > 0.0:
        return 0.0
    s = math.log(ratio)
    return math.exp(-0.5 * df * (math.expm1(s) - s)) / (x * mass)


def chisq_quantile(p, df) -> float:
    """Inverse chi-square CDF, relative error <= 1e-8."""
    return _chisq_quantile(checks.probability(p, "probability"),
                           checks.integer(df, "degrees of freedom", 1))


@functools.lru_cache(maxsize=1024)
def _chisq_quantile(pv: float, df: int) -> float:
    z = normal_quantile(pv)
    a = 0.5 * df
    mass = sum(_gamma_masses(a, 0.0))
    # Wilson-Hilferty start; where its cube is not positive, p is deep in the
    # power-law tail P ~ e^(a (s + 1)) / (a mass), s = log(x / df)
    h = 2.0 / (9.0 * df)
    start = df * (1.0 - h + z * math.sqrt(h)) ** 3
    if not start > 0.0:
        start = df * math.exp(math.log(pv * a * mass) / a - 1.0)
    return _invert_monotone(lambda x: chisq_cdf(x, df), lambda x: _chisq_pdf(x, df, mass),
                            pv, start, scale=max(start, 1.0), lo_bound=0.0)


# ---------------------------------------------------------------------------
# Safeguarded Newton inversion shared by the t and chi-square quantiles
# ---------------------------------------------------------------------------

def _invert_monotone(cdf, pdf, p: float, start: float, scale: float,
                     lo_bound: float = -math.inf) -> float:
    """Solve cdf(x) = p by Newton with a bisection safeguard."""
    # tolerance must go relative for tiny p, or any deep-tail point "solves" it
    ptol = min(1e-13, 1e-9 * p)
    # bracket the root around the start
    lo, hi = start, start
    step = max(abs(scale), 1.0)
    for _ in range(200):
        if cdf(lo) <= p:
            break
        lo = max(lo_bound, lo - step)
        step *= 2.0
        if lo == lo_bound:
            break
    step = max(abs(scale), 1.0)
    for _ in range(200):
        if cdf(hi) >= p:
            break
        hi += step
        step *= 2.0

    x = min(max(start, lo), hi)
    for _ in range(300):
        err = cdf(x) - p
        if abs(err) <= ptol:
            return x
        if err > 0.0:
            hi = min(hi, x)
        else:
            lo = max(lo, x)
        d = pdf(x)
        if d > 0.0:
            nxt = x - err / d
        else:
            nxt = math.nan
        if not (lo < nxt < hi):
            nxt = 0.5 * (lo + hi)
        if nxt == x:
            return x
        x = nxt
    # ptol can sit below the CDF's own evaluation noise; the bracket is then
    # already far tighter than the documented 1e-9 / 1e-8 contracts.
    if abs(cdf(x) - p) <= max(1e-11, 1e-7 * p):
        return x
    raise ConvergenceError(f"quantile inversion stalled at p={p}")
