"""Small statistics helpers for experiment reports: two-sample t-tests and
95% confidence intervals, with no runtime dependency beyond the stdlib.

The t distribution's tail probabilities come from the regularized
incomplete beta function, evaluated with the standard continued-fraction
expansion.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from statistics import fmean, variance


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log(1.0 - x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf(t: float, df: float) -> float:
    """P(T >= t) for Student's t with `df` degrees of freedom."""
    if df <= 0:
        raise ValueError("df must be positive")
    t2 = t * t
    if t2 * (df + 2.0) < 3.0 * df:
        # betainc would need 1 - x, lost when x = df / (df + t2) rounds to 1
        p = 0.5 * (1.0 - betainc(0.5, df / 2.0, t2 / (df + t2)))
    else:
        p = 0.5 * betainc(df / 2.0, 0.5, df / (df + t2))
    return p if t >= 0 else 1.0 - p


def t_critical(df: float, tail_prob: float = 0.025) -> float:
    """Smallest t with P(T >= t) <= tail_prob, by bisection."""
    if df <= 0:
        raise ValueError("df must be positive")
    lo, hi = 0.0, 1.0
    while t_sf(hi, df) > tail_prob:
        hi *= 2.0
        if hi > 1e8:
            raise ValueError("no finite critical value")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_sf(mid, df) > tail_prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class TTestResult:
    statistic: float
    df: float
    p_value: float
    significant: bool  # at the 5% level
    degenerate: bool = False


def t_test(xs, ys, alpha: float = 0.05) -> TTestResult:
    """Two-sample pooled-variance t-test (two-sided).

    Degenerate inputs (no spread within either sample) are flagged: equal
    means give p = 1, different means give p = 0. A pooled variance below
    the smallest normal double counts as no spread: it has underflowed
    into the subnormal range, where it keeps too few significant bits for
    the statistic built on it to mean anything."""
    xs, ys = list(xs), list(ys)
    if len(xs) < 2 or len(ys) < 2:
        raise ValueError("need at least two samples per group")
    n1, n2 = len(xs), len(ys)
    m1, m2 = fmean(xs), fmean(ys)
    v1, v2 = variance(xs), variance(ys)
    df = n1 + n2 - 2
    pooled = ((n1 - 1) * v1 + (n2 - 1) * v2) / df
    if pooled < sys.float_info.min:
        if m1 == m2:
            return TTestResult(0.0, df, 1.0, False, degenerate=True)
        stat = math.inf if m1 > m2 else -math.inf
        return TTestResult(stat, df, 0.0, True, degenerate=True)
    stat = (m1 - m2) / math.sqrt(pooled * (1.0 / n1 + 1.0 / n2))
    p = 2.0 * t_sf(abs(stat), df)
    p = min(p, 1.0)
    return TTestResult(stat, df, p, p < alpha)


@dataclass(frozen=True)
class ConfidenceInterval:
    mean: float
    low: float
    high: float

    @property
    def half_width(self) -> float:
        return self.high - self.mean


def ci95(samples) -> ConfidenceInterval:
    """95% confidence interval for the mean, using the t distribution."""
    samples = list(samples)
    if len(samples) < 2:
        raise ValueError("need at least two samples for an interval")
    n = len(samples)
    m = fmean(samples)
    s = math.sqrt(variance(samples))
    if s == 0.0:
        return ConfidenceInterval(m, m, m)
    half = t_critical(n - 1) * s / math.sqrt(n)
    return ConfidenceInterval(m, m - half, m + half)
