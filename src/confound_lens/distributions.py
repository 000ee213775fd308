"""Normal, Student-t and chi-square distribution functions.

Self-contained (no external math library): the normal CDF uses Cody's
rational approximations for erfc, and the normal quantile uses Acklam's
rational approximation refined by one Newton step on the CDF.

The chi-square and t families share one Gauss-Legendre quadrature over
u = log(W / df), W chi-square on df degrees of freedom, whose density is
exp(-a (expm1(u) - u)) up to a constant, a = df / 2.  The chi-square CDF at
x is the mass below log(x / df) over the whole mass; the t CDF is a normal
mixture, T = Z / sqrt(W / df), so P(T <= -x) is the mean of Phi(-x e^(u/2))
under it.  No gamma function or normalising constant enters.  Both quantiles
come from one safeguarded Newton iteration on the CDF's own derivative.

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
import struct

import numpy as np

from . import checks

__all__ = [
    "normal_cdf",
    "normal_quantile",
    "normal_quantile_vec",
    "t_cdf",
    "t_quantile",
    "chisq_cdf",
    "chisq_quantile",
]

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
# One quadrature for both families: the gamma density of u = log(W / df)
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
# expm1(u) - u = u^2 (1/2! + u/3! + ... + u^7/9!), Horner order
_G_SERIES = tuple(1.0 / math.factorial(k) for k in range(9, 1, -1))


def _g(u: np.ndarray) -> np.ndarray:
    """expm1(u) - u >= 0, by its Taylor series where |u| < 0.05.

    The difference cancels there: a = df / 2 would multiply its rounding
    error, about 1e-16 |u|, at u ~ 1 / sqrt(a).  The series' first omitted
    term is below 3e-17 of its sum.
    """
    series = _horner(u, _G_SERIES) * (u * u)
    return np.where(np.abs(u) < 0.05, series, np.expm1(u) - u)


def _window(a: float) -> tuple[float, float]:
    """Where the mass of exp(-a g(u)), g(u) = expm1(u) - u, lies.

    With W = 2a e^u chi-square on 2a df this is the density of u up to a
    constant: peaked at u = 0, with sd about 1/sqrt(a).  The cuts: g(u) >=
    u^2 / 2 for u > 0, so the density at hi = 45 sd is below e^-1000.
    g(u) >= u^2 / 3 on [-1, 0], so it is below e^-760 at lo = -48 sd when
    that is >= -1.  Otherwise lo = -(1 + 64 / a): below -1, g falls with
    slope 1 - e^u >= 1 - 1/e, so a g gains at least 40 over the last 64 / a,
    and the density at lo is below e^-40 of its value anywhere on [-1, 0].
    The window spans at most 137 sd-wide segments (at a = 1/2).
    """
    sd = 1.0 / math.sqrt(a)
    return (-48.0 * sd if 48.0 * sd <= 1.0 else -(1.0 + 64.0 / a)), 45.0 * sd


def _mass(a: float, lo: float, hi: float, factor=None) -> float:
    """sqrt(a) times the integral of factor(u) exp(-a g(u)) over [lo, hi].

    32-point Gauss-Legendre on 1/sqrt(a)-wide segments.  The sqrt(a) keeps the
    whole mass near sqrt(2 pi) at any a, so tails far below it do not underflow.
    """
    if not hi > lo:
        return 0.0
    root = math.sqrt(a)
    nseg = max(1, math.ceil((hi - lo) * root))
    half = 0.5 * (hi - lo) / nseg
    mids = lo + half * (2.0 * np.arange(nseg) + 1.0)
    u = (mids[:, None] + half * _GL_NODES).ravel()
    f = np.exp(-a * _g(u))
    if factor is not None:
        f *= factor(u)
    return half * root * float(np.sum(f.reshape(nseg, -1) @ _GL_WEIGHTS))


@functools.lru_cache(maxsize=1024)
def _whole_mass(df: int) -> float:
    """The whole mass of exp(-a g(u)), a = df / 2, on _mass' scale."""
    a = 0.5 * df
    return _mass(a, *_window(a))


# ---------------------------------------------------------------------------
# Student t: a normal mixture over the same quadrature
# ---------------------------------------------------------------------------

def _t_mass(x: float, df: int, density: bool = False) -> float:
    """P(T_df <= -x) at x >= 0, or the density at x, times _mass' whole mass.

    Over u = log(W / df) the tail is the mean of Phi(-x e^(u/2)) and the
    density that of phi(x e^(u/2)) e^(u/2).  Either integrand is a bump of the
    gamma's shape and sd, peaked near u* = -log(1 + x^2 / df) (exactly so as
    x grows), so it is integrated over the gamma's window shifted by u*.
    """
    a = 0.5 * df
    lo, hi = _window(a)
    shift = -2.0 * math.log(math.hypot(1.0, x / math.sqrt(df)))  # x^2 may overflow
    log_x = math.log(x) if x > 0.0 else -math.inf

    def factor(u: np.ndarray) -> np.ndarray:
        y = np.exp(0.5 * u + log_x)  # x e^(u/2), with no overflow or subnormal
        if density:
            return _NORM_PDF_C * np.exp(0.5 * u - 0.5 * y * y)
        phi = np.empty_like(y)
        _erfc(y / _SQRT2, phi, np.empty((5, y.size)))
        return 0.5 * phi

    with _discarded_branch_errstate():
        return _mass(a, lo + shift, hi + shift, factor)


def t_cdf(x: float, df) -> float:
    """P(T_df <= x): a normal mixture over the chi-square quadrature."""
    df = checks.integer(df, "degrees of freedom", 1)
    x = checks.real(x, "x")
    tail = _t_mass(abs(x), df) / _whole_mass(df)
    return 1.0 - tail if x > 0.0 else tail


def t_quantile(p, df) -> float:
    """Inverse of t_cdf: |t_cdf(result, df) - p| <= 1e-9."""
    return _t_quantile(checks.probability(p, "probability"),
                       checks.integer(df, "degrees of freedom", 1))


@functools.lru_cache(maxsize=1024)
def _t_quantile(pv: float, df: int) -> float:
    if pv == 0.5:
        return 0.0
    if df == 1:  # closed forms, each written so that neither tail rounds away
        return math.copysign(1.0 / math.tan(math.pi * min(pv, 1.0 - pv)), pv - 0.5)
    if df == 2:
        return (2.0 * pv - 1.0) / math.sqrt(2.0 * pv * (1.0 - pv))
    z = normal_quantile(pv)
    # first-order df correction gives a start within a few percent
    start = z + (z ** 3 + z) / (4.0 * df)
    whole = _whole_mass(df)
    return _invert_monotone(lambda t: t_cdf(t, df),
                            lambda t: _t_mass(abs(t), df, density=True) / whole,
                            pv, start, scale=1.0 + abs(start))


# ---------------------------------------------------------------------------
# Chi-square
# ---------------------------------------------------------------------------

def _gamma_masses(a: float, s: float) -> tuple[float, float]:
    """Masses of exp(-a g(u)) below and above u = s, on _mass' scale.

    The lower integral starts 64 / a below s when that is below the window,
    for the reason the window's lo does, which keeps deep lower tails
    accurate to their own size.
    """
    lo, hi = _window(a)
    return (_mass(a, min(lo, s - 64.0 / a), min(s, hi)), _mass(a, max(lo, s), hi))


def chisq_cdf(x: float, df) -> float:
    """P(X <= x): the gamma mass below u = log(x / df) over the whole mass."""
    df = checks.integer(df, "degrees of freedom", 1)
    x = checks.real(x, "x")
    if x == math.inf:
        return 1.0
    ratio = x / df
    if not ratio > 0.0:
        return 0.0  # x <= 0, or x / df underflows, which it does only where P does
    below, above = _gamma_masses(0.5 * df, math.log(ratio))
    return below / (below + above)


def _chisq_pdf(x: float, df: int, whole: float) -> float:
    # chisq_cdf's own derivative, the quadrature's integrand at u = log(x / df)
    # over x times its whole mass, so Newton's step needs no gamma function either.
    ratio = x / df
    if not ratio > 0.0:
        return 0.0
    a = 0.5 * df
    return math.sqrt(a) * math.exp(-a * float(_g(np.float64(math.log(ratio))))) / (x * whole)


def chisq_quantile(p, df) -> float:
    """Inverse chi-square CDF, relative error <= 1e-8."""
    return _chisq_quantile(checks.probability(p, "probability"),
                           checks.integer(df, "degrees of freedom", 1))


@functools.lru_cache(maxsize=1024)
def _chisq_quantile(pv: float, df: int) -> float:
    z = normal_quantile(pv)
    a = 0.5 * df
    whole = _whole_mass(df)
    # Wilson-Hilferty start; where its cube is not positive, p is deep in the
    # power-law tail P ~ e^(a (u + 1)) / (sqrt(a) whole), u = log(x / df)
    h = 2.0 / (9.0 * df)
    start = df * (1.0 - h + z * math.sqrt(h)) ** 3
    if not start > 0.0:
        start = df * math.exp(math.log(pv * math.sqrt(a) * whole) / a - 1.0)
    return _invert_monotone(lambda x: chisq_cdf(x, df), lambda x: _chisq_pdf(x, df, whole),
                            pv, start, scale=max(start, 1.0), lo_bound=0.0)


# ---------------------------------------------------------------------------
# Safeguarded Newton inversion shared by the t and chi-square quantiles
# ---------------------------------------------------------------------------

def _midpoint(lo: float, hi: float) -> float:
    """The double halfway from lo to hi in the order of the doubles."""
    # a double's rank: its bit pattern as an integer, negated below zero
    k = sum(b if b >= 0 else -(b & 0x7FFF_FFFF_FFFF_FFFF)
            for b in struct.unpack("<2q", struct.pack("<2d", lo, hi))) // 2
    return math.copysign(struct.unpack("<d", struct.pack("<q", abs(k)))[0], k)


def _invert_monotone(cdf, pdf, p: float, start: float, scale: float,
                     lo_bound: float = -math.inf) -> float:
    """Solve cdf(x) = p by Newton inside a bracket, else bisection (rtsafe).

    The bracket grows from the start until the cdf crosses p, as it must by
    cdf(lo_bound) = 0 and cdf(inf) = 1.  A Newton step is taken only while it
    stays inside and under half the step before; otherwise the bracket is
    halved in the order of the doubles, closing to adjacent doubles in at most
    64 halvings.  Returns the first x with |cdf(x) - p| <= min(1e-13, 1e-9 p),
    else the end of that bracket whose cdf is nearer p by ratio.
    """
    ptol = min(1e-13, 1e-9 * p)
    lo, hi, step = start, start, scale
    flo = fhi = cdf(start)
    while flo > p:
        hi, fhi = lo, flo
        lo = max(lo_bound, lo - step)
        flo = cdf(lo)
        step *= 2.0
    while fhi < p:
        lo, flo = hi, fhi
        hi += step
        fhi = cdf(hi)
        step *= 2.0
    x, fx = (lo, flo) if p - flo < fhi - p else (hi, fhi)
    last = math.inf
    while abs(fx - p) > ptol:
        mid = _midpoint(lo, hi)
        if mid == lo or mid == hi:
            return hi if (fhi / p) * (flo / p) < 1.0 else lo
        d = pdf(x)
        newton = x - (fx - p) / d if d > 0.0 else math.nan
        nxt = newton if lo < newton < hi and abs(newton - x) < 0.5 * last else mid
        last = abs(nxt - x)
        x, fx = nxt, cdf(nxt)
        if fx < p:
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
    return x
