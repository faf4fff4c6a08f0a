"""Statistics tests, checked against scipy as an independent reference."""

import math

import pytest
from hypothesis import given, settings, strategies as st

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


def test_t_test_requires_two_per_group():
    with pytest.raises(ValueError):
        t_test([1], [2, 3])


@settings(max_examples=50)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=10),
       st.lists(st.floats(-50, 50), min_size=2, max_size=10))
def test_t_test_matches_scipy_property(xs, ys):
    ours = t_test(xs, ys)
    ref = scipy_stats.ttest_ind(xs, ys, equal_var=True)
    if ours.degenerate:
        return
    assert ours.statistic == pytest.approx(ref.statistic, abs=1e-8)
    assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-8)
