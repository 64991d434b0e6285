"""F-distribution tail probabilities via the regularized incomplete beta.

Self-contained double-precision implementation: the continued fraction is
evaluated with the modified Lentz method and switched to the symmetric
branch where it converges fastest. Accuracy is limited by the usual
cancellation near probability one, which is why the survival function is
computed directly instead of as ``1 - cdf``.
"""

from __future__ import annotations

from math import exp, lgamma, log, log1p

_MAX_ITER = 500
_EPS = 1e-16
_TINY = 1e-300


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (converges for x < (a+1)/(a+b+2))."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        # the even and then the odd term of the fraction, one Lentz step each
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    return h


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log1p(-x)
    front = exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def f_sf(f: float, d1: float, d2: float) -> float:
    """Upper tail P(F > f) for an F(d1, d2) variate."""
    if d1 <= 0 or d2 <= 0:
        raise ValueError("degrees of freedom must be positive")
    if f <= 0.0:
        return 1.0
    if f == float("inf"):
        return 0.0
    return betainc_reg(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * f))
