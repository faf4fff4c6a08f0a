"""Statistics tests, checked against scipy as an independent reference."""

import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

scipy_stats = pytest.importorskip("scipy.stats")
scipy_special = pytest.importorskip("scipy.special")

from pbesynth.stats import betainc, ci95, t_critical, t_sf, t_test

FIXED_PAIRS = [
    ([12.1, 14.2, 13.3, 11.8, 15.0], [10.2, 11.1, 9.8, 12.0, 10.5]),
    ([0.5, 0.52, 0.48, 0.51], [0.49, 0.50, 0.53, 0.47]),
    ([1, 2, 3, 4, 5, 6], [2, 2, 3, 5, 8, 13]),
    ([-3.0, -1.5, 0.0, 2.5], [4.0, 4.5, 3.9, 4.1]),
]


def test_betainc_against_scipy():
    for a, b in [(0.5, 0.5), (2.0, 3.0), (5.5, 0.5), (10.0, 10.0)]:
        for x in [0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0]:
            assert betainc(a, b, x) == pytest.approx(
                scipy_special.betainc(a, b, x), abs=1e-9)


def test_t_sf_against_scipy():
    for df in [1, 2, 5, 10, 30, 100]:
        for t in [-4.0, -1.0, 0.0, 0.5, 2.0, 6.0]:
            assert t_sf(t, df) == pytest.approx(
                scipy_stats.t.sf(t, df), abs=1e-9)


def test_t_critical_against_scipy():
    for df in [1, 4, 9, 29, 99]:
        assert t_critical(df) == pytest.approx(
            scipy_stats.t.ppf(0.975, df), abs=1e-7)


def test_t_test_against_scipy_fixed_vectors():
    for xs, ys in FIXED_PAIRS:
        ours = t_test(xs, ys)
        ref = scipy_stats.ttest_ind(xs, ys, equal_var=True)
        assert ours.statistic == pytest.approx(ref.statistic, abs=1e-9)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-9)


def test_ci95_against_scipy():
    for xs, _ in FIXED_PAIRS:
        ours = ci95(xs)
        n = len(xs)
        m = sum(xs) / n
        sem = scipy_stats.sem(xs)
        lo, hi = scipy_stats.t.interval(0.95, n - 1, loc=m, scale=sem)
        assert ours.low == pytest.approx(lo, abs=1e-9)
        assert ours.high == pytest.approx(hi, abs=1e-9)


def test_identical_samples_are_degenerate():
    r = t_test([3, 3, 3], [3, 3, 3])
    assert r.statistic == 0.0
    assert r.p_value == 1.0
    assert not r.significant
    assert r.degenerate
    c = ci95([4, 4, 4, 4])
    assert (c.low, c.mean, c.high) == (4.0, 4.0, 4.0)


def test_constant_but_different_samples():
    r = t_test([1, 1, 1], [2, 2, 2])
    assert math.isinf(r.statistic)
    assert r.p_value == 0.0
    assert r.significant and r.degenerate


def test_subnormal_pooled_variance_is_degenerate():
    # The squared deviations of these samples underflow into the subnormal
    # range, which leaves the pooled variance only a few significant bits;
    # the true statistic is -1, scipy reports about -1.08.
    r = t_test([0.0, 0.0], [0.0, 8.29768612474518e-162])
    assert r.degenerate
    assert r.statistic == -math.inf
    assert r.p_value == 0.0


def test_t_sf_keeps_its_precision_near_zero():
    # With one degree of freedom T is Cauchy: P(T >= t) = 1/2 - atan(t)/pi,
    # which holds to the last bits also where df / (df + t^2) rounds to 1.
    for t in (3.9e-8, 1e-6, -1e-5, 0.01):
        assert t_sf(t, 1) == pytest.approx(0.5 - math.atan(t) / math.pi,
                                           rel=1e-14)


def test_t_test_requires_two_per_group():
    with pytest.raises(ValueError):
        t_test([1], [2, 3])


def _exact_statistic(xs, ys):
    """The pooled t statistic in exact rational arithmetic; only the square
    root is taken in floats, scaled by a power of 4 so it cannot overflow."""
    xs, ys = list(map(Fraction, xs)), list(map(Fraction, ys))
    n1, n2 = len(xs), len(ys)
    m1, m2 = sum(xs) / n1, sum(ys) / n2
    ss = sum((x - m1) ** 2 for x in xs) + sum((y - m2) ** 2 for y in ys)
    t2 = (m1 - m2) ** 2 * (n1 + n2 - 2) / (ss * Fraction(n1 + n2, n1 * n2))
    k = max(0, (t2.numerator.bit_length() - t2.denominator.bit_length()) // 2)
    return math.copysign(math.ldexp(math.sqrt(t2 / 4 ** k), k), m1 - m2)


def _close(x):
    # relative for large statistics, where 1e-8 is below one ulp
    return pytest.approx(x, rel=1e-12, abs=1e-8)


@settings(max_examples=50)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=10),
       st.lists(st.floats(-50, 50), min_size=2, max_size=10))
@example([0.0] * 4 + [1.1754943508222875e-38], [1.0, 1.0])
@example([0.0] * 7 + [6.0, 50.0], [0.0] * 7 + [7.0, 49.00000271836737])
def test_t_test_matches_scipy_property(xs, ys):
    ours = t_test(xs, ys)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ref = scipy_stats.ttest_ind(xs, ys, equal_var=True)
    if ours.degenerate:
        return
    if any("catastrophic cancellation" in str(w.message) for w in caught):
        # scipy's two-pass moments lost precision, so it is no reference:
        # check against exact arithmetic instead
        exact = _exact_statistic(xs, ys)
        assert ours.statistic == _close(exact)
        assert ours.p_value == _close(
            2 * scipy_stats.t.sf(abs(exact), ours.df))
        return
    assert ours.statistic == _close(ref.statistic)
    assert ours.p_value == _close(ref.pvalue)
