"""Special functions backing the randomness-test P-values.

Both kernels are built from scratch: the complementary error function
from its Maclaurin series with a Lentz continued fraction in the tail,
and the regularized upper incomplete gamma from the standard series /
continued-fraction split at x = a + 1.  Targets: erfc relative error
<= 1e-12 over |x| <= 10, igamc relative error <= 1e-10.
"""

from __future__ import annotations

import math

_SQRT_PI = math.sqrt(math.pi)
_EPS = 1e-17
_TINY = 1e-300
_MAX_ITER = 10_000


def _erf_series(x: float) -> float:
    # erf(x) = 2/sqrt(pi) * sum_n (-1)^n x^(2n+1) / (n! (2n+1))
    term = x
    total = x
    xx = x * x
    for n in range(1, 400):
        term *= -xx / n
        contrib = term / (2 * n + 1)
        total += contrib
        if abs(contrib) < _EPS * abs(total):
            break
    return 2.0 * total / _SQRT_PI


def _erfc_cf(x: float) -> float:
    # erfc(x) = exp(-x^2)/sqrt(pi) / (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    # evaluated with the modified Lentz algorithm.
    f = x
    c = x
    d = 0.0
    for n in range(1, _MAX_ITER):
        a = n / 2.0
        d = x + a * d
        if d == 0.0:
            d = _TINY
        c = x + a / c
        if c == 0.0:
            c = _TINY
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(-x * x) / (_SQRT_PI * f)


def erfc(x: float) -> float:
    """Complementary error function."""
    if math.isnan(x):
        return x
    if x < 0.0:
        return 2.0 - erfc(-x)
    if x < 1.5:
        return 1.0 - _erf_series(x)
    if x > 26.5:
        return 0.0  # below double-precision range
    return _erfc_cf(x)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc."""
    return 0.5 * erfc(-x / math.sqrt(2.0))


def _gamma_p_series(a: float, x: float) -> float:
    # series for P(a, x) over igamc's prefactor; converges fast for x < a + 1
    ap = a
    total = 1.0 / a
    delta = total
    for _ in range(_MAX_ITER):
        ap += 1.0
        delta *= x / ap
        total += delta
        if abs(delta) < abs(total) * _EPS:
            break
    return total


def _gamma_q_cf(a: float, x: float) -> float:
    # Q(a, x) over igamc's prefactor, by modified Lentz; best for x >= a + 1
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h


def igamc(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x)."""
    if not (a > 0.0) or not math.isfinite(a):
        raise ValueError(f"igamc requires a > 0, got {a}")
    if not (x >= 0.0):
        raise ValueError(f"igamc requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    # the prefactor x^a e^-x / Gamma(a), 0 where its log underflows exp
    log_prefactor = -x + a * math.log(x) - math.lgamma(a)
    prefactor = 0.0 if log_prefactor < -745.0 else math.exp(log_prefactor)
    if x < a + 1.0:
        return min(max(1.0 - _gamma_p_series(a, x) * prefactor, 0.0), 1.0)
    return min(max(_gamma_q_cf(a, x) * prefactor, 0.0), 1.0)
