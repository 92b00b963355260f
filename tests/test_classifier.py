"""Tests for the classification rules.

The tail rule is checked against an independent grid-scan oracle that
locates the nearest point of positive estimated density by scanning and
bisection (tests/helpers.py), never by endpoint arithmetic.
"""

from fractions import Fraction

import numpy as np
import pytest

from helpers import scan_segments_oracle, tail_oracle

from kdeclass import (
    BIWEIGHT,
    EPANECHNIKOV,
    EmptyTailError,
    KdeEstimate,
    Kernel,
    Label,
    ParameterError,
    TRIWEIGHT,
    classify_a1,
    classify_ahat,
    classify_multi,
    classify_multivariate,
    classify_tail,
    crossings,
    decision_segments,
    fit_classifier,
    make_pair,
    optimal_bandwidths,
)
from kdeclass import classifier
from kdeclass.classifier import FROM_F, FROM_G, _ahat_from_f, _body_label
from kdeclass.densities import DensityPair, Normal


def _fit(rng, n1=25, n2=25, h1=0.4, h2=0.4, p=0.5, shift=1.0):
    x = rng.normal(0.0, 1.0, n1)
    y = rng.normal(shift, 1.0, n2)
    return fit_classifier(x, y, h1, h2, p=p)


# ----------------------------------------------------------------------
# fit_classifier / pooled lower median
# ----------------------------------------------------------------------
def test_pooled_lower_median_odd():
    clf = fit_classifier([1.0, 3.0], [2.0], 0.5, 0.5)
    assert clf.pooled_median == 2.0


def test_pooled_lower_median_even_takes_lower():
    clf = fit_classifier([1.0, 2.0], [3.0, 4.0], 0.5, 0.5)
    assert clf.pooled_median == 2.0  # lower of the two middle values


def test_fit_classifier_rejects_bad_prior():
    for p in (0.0, 1.0, -0.2, 1.4):
        with pytest.raises(ParameterError):
            fit_classifier([0.0], [1.0], 0.5, 0.5, p=p)


def test_deltahat_matches_components():
    rng = np.random.default_rng(7)
    clf = _fit(rng, p=0.3)
    xs = np.linspace(-3.0, 4.0, 41)
    expect = 0.3 * clf.fhat(xs) - 0.7 * clf.ghat(xs)
    assert np.allclose(clf.deltahat(xs), expect, rtol=0.0, atol=0.0)


# ----------------------------------------------------------------------
# the optimal rule: the body label of the true delta
# ----------------------------------------------------------------------
def test_optimal_rule_is_the_body_label_of_delta():
    pair = make_pair("class1a")
    for x in np.linspace(-5.0, 4.0, 37):
        d = pair.delta(float(x))
        lab = _body_label(d)
        assert lab.population == (FROM_F if d > 0 else FROM_G if d < 0 else FROM_F)
        assert lab.route == "body"


def test_optimal_rule_tie_goes_to_first_population():
    same = Normal(0.0, 1.0)
    pair = DensityPair(f=same, g=same, p=0.5, name="same")
    assert pair.delta(0.3) == 0.0
    lab = _body_label(pair.delta(0.3))
    assert lab.population == FROM_F
    assert lab.tie_break


# ----------------------------------------------------------------------
# classify_a1 (plug-in body rule)
# ----------------------------------------------------------------------
def test_classify_a1_sign_and_none():
    rng = np.random.default_rng(11)
    clf = _fit(rng, h1=0.3, h2=0.35, p=0.4)
    for x in np.linspace(-8.0, 9.0, 171):
        fv, gv = clf.fhat(float(x)), clf.ghat(float(x))
        lab = classify_a1(clf, float(x))
        if fv == 0.0 and gv == 0.0:
            assert lab is None
        else:
            d = 0.4 * fv - 0.6 * gv
            want = FROM_F if d >= 0.0 else FROM_G
            assert lab.population == want
            assert lab.route == "body"


def test_classify_a1_none_iff_both_vanish():
    clf = fit_classifier([0.0], [5.0], 0.25, 0.25)
    assert classify_a1(clf, 2.5) is None          # interior gap
    assert classify_a1(clf, 0.1) is not None      # inside f support
    assert classify_a1(clf, 5.1) is not None      # inside g support


def _flip_floats(clf, a, b, spread):
    """The floats within `spread` ulps of where the sign of the array
    deltahat flips inside (a, b), found by bisection down to adjacent floats."""
    def f_side(t):
        return clf.deltahat(np.array([t]))[0] >= 0.0
    side_a = f_side(a)
    while np.nextafter(a, b) < b:
        mid = 0.5 * (a + b)
        a, b = (mid, b) if f_side(mid) == side_a else (a, mid)
    return a + np.spacing(a) * np.arange(-spread, spread + 1)


def test_classify_a1_agrees_with_array_sign_at_near_ties():
    """At the floats around each sign flip of deltahat, where rounding
    decides the label, the scalar body rule matches the array's sign."""
    rng = np.random.default_rng(3)
    grid = np.linspace(-3.0, 4.0, 1401)
    flips = 0
    for _ in range(10):
        n = int(rng.integers(20, 301))
        clf = _fit(rng, n1=n, n2=n)
        f_side = clf.deltahat(grid) >= 0.0
        for i in np.flatnonzero(f_side[1:] != f_side[:-1])[:6]:
            xs = _flip_floats(clf, grid[i], grid[i + 1], 200)
            want = np.where(clf.deltahat(xs) >= 0.0, FROM_F, FROM_G)
            for x, pop in zip(xs, want):
                lab = classify_a1(clf, float(x))
                assert lab is None or lab.population == pop
            flips += 1
    assert flips > 20


def test_classify_a1_exact_tie_breaks_to_f():
    data = [0.0, 1.0, 2.0]
    clf = fit_classifier(data, data, 0.8, 0.8, p=0.5)
    lab = classify_a1(clf, 1.0)
    assert lab.population == FROM_F
    assert lab.tie_break


# ----------------------------------------------------------------------
# classify_tail: explicit cases, then the grid-scan oracle
# ----------------------------------------------------------------------
def test_classify_tail_explicit_right():
    # f support ends at 0.5, g support ends at 4.5; query far right
    clf = fit_classifier([0.0], [4.0], 0.5, 0.5)
    lab = classify_tail(clf, 8.0, "right")
    assert lab.population == FROM_G
    assert lab.route == "tail-right"


def test_classify_tail_explicit_left():
    clf = fit_classifier([0.0], [4.0], 0.5, 0.5)
    lab = classify_tail(clf, -3.0, "left")
    assert lab.population == FROM_F
    assert lab.route == "tail-left"


def test_classify_tail_tie_goes_to_f():
    clf = fit_classifier([0.0], [0.0], 0.5, 0.5)
    lab = classify_tail(clf, 2.0, "right")
    assert lab.population == FROM_F
    assert lab.tie_break


def test_classify_tail_tie_on_both_sides():
    # one datum per sample at 0 with equal bandwidths: both sides tie, and
    # the mirrored left side breaks the tie toward f as the right side does
    clf = fit_classifier([0.0], [0.0], 0.5, 0.5)
    for x, side in ((2.0, "right"), (-2.0, "left")):
        lab = classify_tail(clf, x, side)
        assert lab == Label(FROM_F, "tail-" + side, tie_break=True)


def test_classify_tail_requires_vanishing_estimates():
    clf = fit_classifier([0.0], [4.0], 0.5, 0.5)
    with pytest.raises(ParameterError):
        classify_tail(clf, 0.1, "right")


def test_classify_tail_rejects_bad_side():
    clf = fit_classifier([0.0], [4.0], 0.5, 0.5)
    with pytest.raises(ParameterError):
        classify_tail(clf, 2.0, "up")


def test_classify_tail_empty_side_raises():
    clf = fit_classifier([0.0], [1.0], 0.2, 0.2)
    # right of all data: no left endpoints at or above x
    with pytest.raises(EmptyTailError):
        classify_tail(clf, 10.0, "left")
    with pytest.raises(EmptyTailError):
        classify_tail(clf, -10.0, "right")


def test_classify_tail_agrees_with_grid_scan_oracle():
    """100 random sparse configurations; exact label agreement on every
    query point where both estimates vanish, on every side with data."""
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(100):
        n1 = int(rng.integers(1, 7))
        n2 = int(rng.integers(1, 7))
        x_data = rng.uniform(-8.0, 8.0, n1)
        y_data = rng.uniform(-8.0, 8.0, n2)
        h1 = float(rng.uniform(0.05, 0.3))
        h2 = float(rng.uniform(0.05, 0.3))
        clf = fit_classifier(x_data, y_data, h1, h2)
        lo = min(x_data.min() - h1, y_data.min() - h2) - 2.0
        hi = max(x_data.max() + h1, y_data.max() + h2) + 2.0
        grid = np.linspace(lo, hi, 1200)
        vanish = grid[(clf.fhat(grid) == 0.0) & (clf.ghat(grid) == 0.0)]
        if vanish.size == 0:
            continue
        queries = rng.choice(vanish, size=min(3, vanish.size), replace=False)
        for x in queries:
            for side in ("right", "left"):
                want = tail_oracle(clf, float(x), side)
                if want is None:
                    with pytest.raises(EmptyTailError):
                        classify_tail(clf, float(x), side)
                else:
                    got = classify_tail(clf, float(x), side)
                    assert got.population == want
                    checked += 1
    assert checked > 150  # plenty of live comparisons actually happened


# ----------------------------------------------------------------------
# classify_ahat (composite rule)
# ----------------------------------------------------------------------
def test_classify_ahat_body_where_defined():
    rng = np.random.default_rng(3)
    clf = _fit(rng)
    for x in np.linspace(-2.0, 3.0, 21):
        body = classify_a1(clf, float(x))
        if body is not None:
            assert classify_ahat(clf, float(x)) == body


def test_classify_ahat_uses_median_side():
    # pooled data [0, 4, 10]; lower median 4
    clf = fit_classifier([0.0], [4.0, 10.0], 0.5, 0.5)
    assert clf.pooled_median == 4.0
    # x = 7 > median: right-side tail rule; nearest endpoint below is g's 4.5
    lab = classify_ahat(clf, 7.0)
    assert lab == Label(FROM_G, "tail-right")
    # x = 2 < median: left-side tail rule; nearest endpoint above is g's 3.5
    lab = classify_ahat(clf, 2.0)
    assert lab == Label(FROM_G, "tail-left")
    # far left, still left side: nearest endpoint above -5 is f's -0.5
    lab = classify_ahat(clf, -5.0)
    assert lab == Label(FROM_F, "tail-left")


def test_classify_ahat_median_point_goes_left():
    # x == pooled median is not > median, so the left tail rule fires
    clf = fit_classifier([0.0], [4.0, 10.0], 0.5, 0.5)
    lab = classify_ahat(clf, 2.0)
    assert lab.route == "tail-left"


UNIFORM = Kernel("uniform", [Fraction(1, 2)])


def _edge_points(clf, rng, extra):
    """Every support edge X_i -+ h of both samples, the floats either side,
    the pooled median and `extra` random points around the data."""
    edges = np.concatenate([np.r_[e.data - e.h, e.data + e.h]
                            for e in (clf.fhat, clf.ghat)])
    return np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                           [clf.pooled_median],
                           rng.uniform(edges.min() - 1.0, edges.max() + 1.0, extra)])


@pytest.mark.parametrize("kernel", [TRIWEIGHT, UNIFORM], ids=lambda k: k.name)
def test_array_composite_rule_matches_classify_ahat(kernel):
    """Sparse samples with gaps, so both tail sides and the body rule all
    label points; the array form agrees with classify_ahat everywhere."""
    rng = np.random.default_rng(11)
    for _ in range(25):
        n1, n2 = (int(k) for k in rng.integers(1, 30, size=2))
        clf = fit_classifier(rng.uniform(-6.0, 6.0, n1), rng.uniform(-4.0, 8.0, n2),
                             rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0),
                             p=rng.uniform(0.2, 0.8), kernel=kernel)
        xs = _edge_points(clf, rng, 100)
        want = [classify_ahat(clf, float(x)).population == FROM_F for x in xs]
        assert _ahat_from_f(clf, xs).tolist() == want


def test_array_composite_rule_raises_where_classify_ahat_does():
    # K(u) = 3/2 u^2 vanishes at u = 0: at the pooled median 0 both
    # estimates vanish and no support starts at or above it
    clf = fit_classifier([0.0], [0.0], 0.5, 0.5, kernel=Kernel("u2", [0, Fraction(3, 2)]))
    for x in (0.0, np.nan):
        with pytest.raises(EmptyTailError):
            classify_ahat(clf, x)
        with pytest.raises(EmptyTailError):
            _ahat_from_f(clf, np.array([-1.0, x, 1.0]))
    assert _ahat_from_f(clf, np.array([-1.0, 1.0])).tolist() == [True, True]


# ----------------------------------------------------------------------
# classify_multi
# ----------------------------------------------------------------------
def test_classify_multi_two_populations_matches_a1():
    rng = np.random.default_rng(5)
    x = rng.normal(0.0, 1.0, 30)
    y = rng.normal(1.5, 1.0, 30)
    p = 0.35
    clf = fit_classifier(x, y, 0.4, 0.5, p=p)
    models = [(clf.fhat, p), (clf.ghat, 1.0 - p)]
    for q in np.linspace(-4.0, 6.0, 101):
        got = classify_multi(models, float(q))
        body = classify_a1(clf, float(q))
        if body is None:
            assert got is None
        else:
            assert got == (0 if body.population == FROM_F else 1)


def test_classify_multi_tie_takes_first_index():
    est = KdeEstimate([0.0, 1.0], 0.7)
    models = [(est, 0.5), (est, 0.5)]
    assert classify_multi(models, 0.5) == 0


def test_classify_multi_three_populations():
    a = KdeEstimate([0.0], 0.5)
    b = KdeEstimate([2.0], 0.5)
    c = KdeEstimate([4.0], 0.5)
    models = [(a, 1 / 3), (b, 1 / 3), (c, 1 / 3)]
    assert classify_multi(models, 0.1) == 0
    assert classify_multi(models, 2.1) == 1
    assert classify_multi(models, 3.9) == 2
    assert classify_multi(models, 9.0) is None


def test_classify_multi_validation():
    est = KdeEstimate([0.0], 0.5)
    with pytest.raises(ParameterError):
        classify_multi([(est, 1.0)], 0.0)  # one population
    with pytest.raises(ParameterError):
        classify_multi([(est, 0.7), (est, 0.7)], 0.0)  # sum != 1
    with pytest.raises(ParameterError):
        classify_multi([(est, 1.2), (est, -0.2)], 0.0)  # nonpositive prior
    for bad in (np.nan, np.inf):
        with pytest.raises(ParameterError):
            classify_multi([(est, bad), (est, 0.5)], 0.0)  # non-finite prior


# ----------------------------------------------------------------------
# classify_multivariate
# ----------------------------------------------------------------------
def test_multivariate_d1_matches_univariate():
    rng = np.random.default_rng(17)
    x = rng.normal(0.0, 1.0, 20)
    y = rng.normal(1.0, 1.0, 20)
    clf = fit_classifier(x, y, 0.45, 0.5, p=0.4)
    for q in np.linspace(-3.0, 4.0, 61):
        uni = classify_a1(clf, float(q))
        multi = classify_multivariate(x[:, None], y[:, None], 0.45, 0.5,
                                      [float(q)], p=0.4)
        if uni is None:
            assert multi is None
        else:
            assert multi.population == uni.population


def test_multivariate_d2_separated_clouds():
    rng = np.random.default_rng(23)
    x = rng.normal(0.0, 0.5, (30, 2))
    y = rng.normal(0.0, 0.5, (30, 2)) + np.array([4.0, 4.0])
    near_x = classify_multivariate(x, y, 0.8, 0.8, [0.0, 0.0])
    near_y = classify_multivariate(x, y, 0.8, 0.8, [4.0, 4.0])
    far = classify_multivariate(x, y, 0.8, 0.8, [40.0, -40.0])
    assert near_x.population == FROM_F
    assert near_y.population == FROM_G
    assert far is None


def test_multivariate_validation():
    x = np.zeros((5, 2))
    y = np.ones((5, 2))
    with pytest.raises(ParameterError):
        classify_multivariate(x, y, 0.5, 0.5, [0.0])  # dim mismatch
    with pytest.raises(ParameterError):
        classify_multivariate(x, y, -0.5, 0.5, [0.0, 0.0])
    with pytest.raises(ParameterError):
        classify_multivariate(x, y, 0.5, 0.5, [0.0, 0.0], p=1.0)
    for h in (np.nan, np.inf, 0.0):
        with pytest.raises(ParameterError):
            classify_multivariate(x, y, h, 0.5, [0.0, 0.0])
        with pytest.raises(ParameterError):
            classify_multivariate(x, y, 0.5, h, [0.0, 0.0])
    with pytest.raises(ParameterError):
        classify_multivariate(np.r_[x, [[np.nan, 0.0]]], y, 0.5, 0.5, [0.0, 0.0])
    with pytest.raises(ParameterError):
        classify_multivariate(x, np.empty((0, 2)), 0.5, 0.5, [0.0, 0.0])


# ----------------------------------------------------------------------
# decision_segments
# ----------------------------------------------------------------------
def _assert_partition(segs, lo, hi):
    assert segs[0][0] == lo
    assert segs[-1][1] == hi
    for (a, b, _lab) in segs:
        assert a < b
    for left, right in zip(segs, segs[1:]):
        assert left[1] == right[0]
        assert left[2] != right[2]  # adjacent labels merged


def test_decision_segments_partition_and_pointwise_agreement():
    rng = np.random.default_rng(41)
    x = rng.normal(0.0, 1.0, 40)
    y = rng.normal(1.2, 0.8, 40)
    clf = fit_classifier(x, y, 0.35, 0.3, p=0.5)
    lo, hi = -6.0, 7.0
    segs = decision_segments(clf, lo, hi, rule="ahat")
    _assert_partition(segs, lo, hi)
    for a, b, lab in segs:
        if b - a < 1e-5:
            continue
        for frac in (0.25, 0.5, 0.75):
            q = a + frac * (b - a)
            assert classify_ahat(clf, float(q)).population == lab


def test_decision_segments_body_rule_pointwise():
    rng = np.random.default_rng(43)
    x = rng.normal(0.0, 1.0, 25)
    y = rng.normal(1.5, 1.0, 25)
    clf = fit_classifier(x, y, 0.3, 0.3, p=0.45)
    segs = decision_segments(clf, -5.0, 6.0, rule="body")
    _assert_partition(segs, -5.0, 6.0)
    for a, b, lab in segs:
        if b - a < 1e-5:
            continue
        q = 0.5 * (a + b)
        body = classify_a1(clf, float(q))
        want = FROM_F if body is None else body.population
        assert want == lab


def _assert_segments_equal(got, want, tol=1e-9):
    assert len(got) == len(want)
    for (ga, gb, gl), (wa, wb, wl) in zip(got, want):
        assert abs(ga - wa) < tol
        assert abs(gb - wb) < tol
        assert gl == wl


def test_decision_segments_gap_labels():
    # islands: [-0.5, 0.5], [3.5, 4.5], [9.5, 10.5]; pooled median 4
    clf = fit_classifier([0.0], [4.0, 10.0], 0.5, 0.5)

    # body rule: gaps tie toward f, islands follow their only sample, and
    # adjacent equal labels merge
    body = decision_segments(clf, -2.0, 12.0, rule="body")
    _assert_segments_equal(body, [
        (-2.0, 3.5, FROM_F),
        (3.5, 4.5, FROM_G),
        (4.5, 9.5, FROM_F),
        (9.5, 10.5, FROM_G),
        (10.5, 12.0, FROM_F),
    ])

    # composite rule: the gap (0.5, 3.5) sits left of the median, and the
    # nearest left endpoint above its midpoint belongs to g (3.5); the gap
    # (4.5, 9.5) sits right of the median and g owns 4.5, so everything
    # from 0.5 onward merges into one g segment
    composite = decision_segments(clf, -2.0, 12.0, rule="ahat")
    _assert_segments_equal(composite, [
        (-2.0, 0.5, FROM_F),
        (0.5, 12.0, FROM_G),
    ])


def test_decision_segments_infinite_range():
    rng = np.random.default_rng(47)
    x = rng.normal(0.0, 1.0, 20)
    y = rng.normal(1.0, 1.0, 20)
    clf = fit_classifier(x, y, 0.4, 0.4)
    segs = decision_segments(clf, -np.inf, np.inf, rule="ahat")
    assert segs[0][0] == -np.inf
    assert segs[-1][1] == np.inf
    # the unbounded gaps are labeled like any point inside them
    a, b, lab = segs[0]
    assert classify_ahat(clf, float(b - 0.5)).population == lab
    a, b, lab = segs[-1]
    assert classify_ahat(clf, float(a + 0.5)).population == lab


def test_decision_segments_flip_location():
    # equal single-point samples with offset: deltahat flips exactly halfway
    clf = fit_classifier([0.0], [0.3], 1.0, 1.0, p=0.5)
    segs = decision_segments(clf, -0.6, 0.9, rule="body")
    flips = [b for a, b, _ in segs[:-1]]
    assert any(abs(c - 0.15) < 1e-8 for c in flips)


def _narrow_g_region():
    """A g-region about 3.9e-3 wide around 0.123456: one g datum there,
    with h2 set so that q*ghat exceeds p*fhat at it by a factor 1 + 1e-4."""
    x = np.linspace(-3.0, 3.0, 61)
    y = np.r_[0.123456, np.linspace(50.0, 60.0, 19)]
    fhat = KdeEstimate(x, 1.0)
    h2 = (0.5 * TRIWEIGHT.at_zero / 20) / (0.5 * fhat(0.123456) * (1 + 1e-4))
    return fit_classifier(x, y, 1.0, h2, p=0.5)


def test_narrow_g_region_is_there():
    clf = _narrow_g_region()
    assert clf.deltahat(0.123456) == pytest.approx(-8.2e-6, rel=0.01)
    assert classify_a1(clf, 0.123456).population == FROM_G


@pytest.mark.xfail(strict=True, reason="the midpoint sign scan misses a region "
                   "narrower than its pitch")
def test_decision_segments_finds_region_narrower_than_scan_pitch():
    segs = decision_segments(_narrow_g_region(), -5.0, 5.0, rule="body")
    assert any(a < 0.123456 < b and lab == FROM_G for a, b, lab in segs)


@pytest.mark.parametrize("pair_id", ["class1a", "class2b"])
@pytest.mark.parametrize("n", [1, 5, 200, 2000])
def test_decision_segments_match_island_scan_oracle(pair_id, n):
    # the one-pass scan reproduces the island-by-island scan exactly: same
    # edges, cuts and labels, and the same value types (repr equality)
    pair = make_pair(pair_id)
    rng = np.random.default_rng(n)
    x = pair.sample("f", n, rng)
    y = pair.sample("g", n, rng)
    for h1, h2 in ((0.05, 0.08), (0.3, 0.25), (1.2, 0.9)):
        clf = fit_classifier(x, y, h1, h2, pair.p)
        first = clf.fhat.data[0]  # inside an island, as a numpy float
        # the middle of the widest spacing of the pooled data, in a gap when
        # the spacing exceeds both supports
        pooled = np.sort(np.r_[x, y])
        k = int(np.argmax(np.diff(pooled))) if n > 1 else 0
        inner = 0.5 * (pooled[k] + pooled[k + 1]) if n > 1 else first + 5.0
        beyond = float(max(clf.fhat.data[-1] + h1, clf.ghat.data[-1] + h2)) + 1.0
        ranges = [(-np.inf, np.inf), (-np.inf, first), (first, np.inf),
                  (first - 0.01, first + 0.01), (inner, np.inf), (-np.inf, inner),
                  (beyond, beyond + 2.0), (-3, 3)]
        for lo, hi in ranges:
            for rule in ("ahat", "body"):
                want = scan_segments_oracle(clf, lo, hi, rule)
                assert repr(decision_segments(clf, lo, hi, rule)) == repr(want)


@pytest.mark.parametrize("x, y, ranges", [
    # supports [-1, 1], [1, 3] and [3, 5] touch: one island, split only by
    # the sign of deltahat; lo = -1 (an int) equals the island start
    ([0.0, 2.0], [4.0], [(-np.inf, np.inf), (-2.0, 6.0), (1.0, 3.0), (0.5, 4.5), (-1, 6)]),
    # at 1e17 the support rounds to a single point, which still splits the
    # gap around it into two differently labeled gaps
    ([1e17], [0.0], [(-np.inf, np.inf), (-1, 2e17), (0, 1)]),
])
def test_decision_segments_edge_islands_match_oracle(x, y, ranges):
    clf = fit_classifier(x, y, 1.0, 1.0)
    for lo, hi in ranges:
        for rule in ("ahat", "body"):
            want = scan_segments_oracle(clf, lo, hi, rule)
            assert repr(decision_segments(clf, lo, hi, rule)) == repr(want)


def test_decision_segments_zero_pitch():
    # both supports round to the point 1e17, so the one island has zero
    # width and no midpoints, the scan pitch is 0 and the line is all gaps
    clf = fit_classifier([1e17], [1e17], 1.0, 1.0)
    segs = decision_segments(clf, -np.inf, np.inf)
    _assert_partition(segs, -np.inf, np.inf)
    for t in (-1e18, 0.0, 9e16, 1.1e17, 1e18):  # in the gaps either side
        lab = next(lab for a, b, lab in segs if a <= t <= b)
        assert classify_ahat(clf, t).population == lab
    assert decision_segments(clf, -np.inf, np.inf, rule="body") == [(-np.inf, np.inf, FROM_F)]


@pytest.mark.parametrize("p", [0.3, 0.5])
def test_decision_segments_many_gaps_take_classify_ahat_labels(p):
    # 40 + 40 data spaced far beyond their supports: some 80 islands and as
    # many gaps, all labeled by one composite-rule call per estimate; the
    # segment holding each gap's interior point has classify_ahat's label
    rng = np.random.default_rng(17)
    clf = fit_classifier(rng.uniform(-60.0, 60.0, 40), rng.uniform(-50.0, 70.0, 40),
                         0.1, 0.15, p=p)
    islands = []
    for a, b in sorted((x - e.h, x + e.h) for e in (clf.fhat, clf.ghat) for x in e.data):
        if islands and a <= islands[-1][1]:
            islands[-1][1] = max(islands[-1][1], b)
        else:
            islands.append([a, b])
    edges = [-np.inf, *np.ravel(islands), np.inf]
    for lo, hi in ((-np.inf, np.inf), (-20.0, np.inf), (-55.5, 33.3)):
        segs = decision_segments(clf, lo, hi)
        assert repr(segs) == repr(scan_segments_oracle(clf, lo, hi))
        gaps = [(max(a, lo), min(b, hi)) for a, b in zip(edges[::2], edges[1::2])
                if max(a, lo) < min(b, hi)]
        assert len(gaps) > 30
        for a, b in gaps:
            x = 0.5 * (a + b) if np.isfinite(a + b) else (a + 1.0 if np.isfinite(a) else b - 1.0)
            (label,) = [lab for sa, sb, lab in segs if sa <= x <= sb]
            assert label == classify_ahat(clf, x).population


# ----------------------------------------------------------------------
# the certified scan: labels exactly those of the full midpoint scan
# ----------------------------------------------------------------------
@pytest.fixture
def scan_records(monkeypatch):
    """Record each scan of decision_segments: its labels, the full scan's
    labels np.where(deltahat(mids) >= 0, 0, 1), and how many midpoints
    the Taylor bound left to deltahat (None where the full scan ran).  Only
    the scan's own _certify call counts, not the flip bisection's."""
    records, scanning = [], []
    scan, certify = classifier._scan_labels, classifier._certify

    def spy_scan(clf, islands, spacing):
        records.append({"unsure": None})
        scanning.append(True)
        try:
            labs = scan(clf, islands, spacing)
        finally:
            scanning.pop()
        mids = np.concatenate([np.empty(0), *islands])
        records[-1].update(labs=labs, mids=mids,
                           want=np.where(clf.deltahat(mids) >= 0.0, 0, 1))
        return labs

    def spy_certify(*args):
        labs, unsure = certify(*args)
        if scanning:
            records[-1]["unsure"] = unsure.size
        return labs, unsure

    monkeypatch.setattr(classifier, "_scan_labels", spy_scan)
    monkeypatch.setattr(classifier, "_certify", spy_certify)
    return records


def _assert_exact(records):
    for rec in records:
        assert rec["labs"].tobytes() == rec["want"].tobytes()


@pytest.mark.parametrize("kernel", [TRIWEIGHT, BIWEIGHT], ids=lambda k: k.name)
@pytest.mark.parametrize("seed", range(6))
def test_certified_scan_labels_equal_full_scan(scan_records, kernel, seed):
    rng = np.random.default_rng(seed)
    pair = make_pair(["class1a", "class1b", "class2a"][seed % 3])
    for n in (30, 300, 1500):
        x, y = pair.sample("f", n, rng), pair.sample("g", n, rng)
        h1, h2 = np.exp(rng.uniform(np.log(0.03), np.log(1.5), 2))
        clf = fit_classifier(x, y, h1, h2, rng.uniform(0.2, 0.8), kernel)
        decision_segments(clf, -np.inf, np.inf)
        decision_segments(clf, *np.sort(rng.normal(0.0, 2.0, 2)), rule="body")
    _assert_exact(scan_records)
    assert any(rec["unsure"] is not None for rec in scan_records)


def test_certified_scan_takes_the_fast_path_on_class1a(scan_records):
    # the benchmark's class1a replicate at n = 2000: coarse points and the
    # Taylor bound decide almost every midpoint
    pair = make_pair("class1a")
    plan = optimal_bandwidths(pair, crossings(pair), n=2000)
    rng = np.random.default_rng(0)
    clf = fit_classifier(pair.sample("f", 2000, rng), pair.sample("g", 2000, rng),
                         plan.h1, plan.h2, pair.p)
    decision_segments(clf, -np.inf, np.inf)
    _assert_exact(scan_records)
    (rec,) = scan_records
    assert 0 < rec["unsure"] < rec["mids"].size / 10


def _touches_zero(clf, mids):
    near = mids[np.abs(mids) < 1.5]
    return abs(clf.deltahat(0.0)) < 1e-15 and np.all(clf.deltahat(near) <= 1e-15)


@pytest.mark.parametrize("clf, lo, hi, check", [
    # touches 0 without crossing: p / h1 = q / (2 h2) makes deltahat's
    # maximum on [-1.5, 1.5], at 0, zero up to rounding
    (fit_classifier([0.0], [0.0, 5.0], 1.0, 1.5, p=0.25), -np.inf, np.inf, _touches_zero),
    # the root 0.15 within 1e-12 of a scan midpoint: 89 cells centred on it
    (fit_classifier([0.0], [0.3], 1.0, 1.0), 0.15 - 44.4 * 2.3 / 2048, 0.15 + 44.4 * 2.3 / 2048,
     lambda clf, mids: np.min(np.abs(mids - 0.15)) < 1e-12),
    # identical samples with p = 1/2: deltahat is exactly 0 everywhere
    (fit_classifier(np.linspace(-1.0, 1.0, 9), np.linspace(-1.0, 1.0, 9), 0.7, 0.7),
     -np.inf, np.inf, lambda clf, mids: not np.any(clf.deltahat(mids))),
], ids=["touching-zero", "root-at-midpoint", "identical-samples"])
def test_certified_scan_falls_back_where_the_sign_is_in_doubt(scan_records, clf, lo, hi, check):
    for rule in ("ahat", "body"):
        decision_segments(clf, lo, hi, rule)
    _assert_exact(scan_records)
    assert all(rec["unsure"] > 0 for rec in scan_records)
    assert check(clf, scan_records[0]["mids"])


def test_certified_scan_needs_a_smooth_kernel_edge(scan_records):
    # Epanechnikov's K' jumps at +-1, so no Taylor bound holds: full scan
    rng = np.random.default_rng(5)
    clf = fit_classifier(rng.normal(0.0, 1.0, 500), rng.normal(1.0, 1.0, 500), 0.2, 0.2,
                         kernel=EPANECHNIKOV)
    decision_segments(clf, -np.inf, np.inf)
    _assert_exact(scan_records)
    assert scan_records[0]["unsure"] is None


# ----------------------------------------------------------------------
# the certified flip bisection: cuts exactly those of plain bisection
# ----------------------------------------------------------------------
@pytest.fixture
def flip_records(monkeypatch):
    """Record each _refine_flips call's brackets and cuts, the anchors it
    evaluates and its fallbacks to _refine_flip."""
    records = {"calls": [], "anchors": 0, "fallbacks": 0}
    refine_flips, refine_flip, anchor = (classifier._refine_flips, classifier._refine_flip,
                                         classifier._anchor)

    def spy_flips(clf, flips):
        cuts = refine_flips(clf, flips)
        records["calls"].append((clf, flips, cuts))
        return cuts

    def spy_flip(*args):
        records["fallbacks"] += 1
        return refine_flip(*args)

    def spy_anchor(*args):
        records["anchors"] += 1
        return anchor(*args)

    monkeypatch.setattr(classifier, "_refine_flips", spy_flips)
    monkeypatch.setattr(classifier, "_refine_flip", spy_flip)
    monkeypatch.setattr(classifier, "_anchor", spy_anchor)
    return records


_REFINE_FLIP = classifier._refine_flip


def _plain_cuts(clf, flips):
    """The plain bisection of each flip, by the unpatched _refine_flip."""
    return [_REFINE_FLIP(clf, *flip) for flip in flips]


@pytest.mark.parametrize("kernel", [TRIWEIGHT, BIWEIGHT], ids=lambda k: k.name)
@pytest.mark.parametrize("seed", range(4))
def test_certified_bisection_equals_plain_bisection(flip_records, kernel, seed):
    rng = np.random.default_rng(100 + seed)
    pair = make_pair(["class1a", "class1b", "class2a", "class2b"][seed])
    for n in (30, 300, 2000):
        x, y = pair.sample("f", n, rng), pair.sample("g", n, rng)
        h1, h2 = np.exp(rng.uniform(np.log(0.05), np.log(1.0), 2))
        clf = fit_classifier(x, y, h1, h2, rng.uniform(0.2, 0.8), kernel)
        for lo, hi, rule in ((-np.inf, np.inf, "ahat"), (-2.0, 2.5, "body")):
            segs = decision_segments(clf, lo, hi, rule)
            assert repr(segs) == repr(scan_segments_oracle(clf, lo, hi, rule))
    flips = [flip for _, fl, _ in flip_records["calls"] for flip in fl]
    assert len(flips) > 3
    for clf, fl, cuts in flip_records["calls"]:
        assert repr(cuts) == repr(_plain_cuts(clf, fl))  # values and types
    assert flip_records["anchors"] <= 4 * len(flips)


def test_certified_bisection_takes_the_fast_path_on_class1a(flip_records, monkeypatch):
    # the benchmark's class1a replicate at n = 2000: plain bisection makes
    # 58 scalar deltahat calls for its two flips; the anchors leave none
    # in doubt here (0 calls), and the bound allows a few
    pair = make_pair("class1a")
    plan = optimal_bandwidths(pair, crossings(pair), n=2000)
    rng = np.random.default_rng(0)
    clf = fit_classifier(pair.sample("f", 2000, rng), pair.sample("g", 2000, rng),
                         plan.h1, plan.h2, pair.p)
    scalar = []
    deltahat = classifier.TrainedClassifier.deltahat

    def spy(self, x):
        if np.ndim(x) == 0:
            scalar.append(x)
        return deltahat(self, x)

    monkeypatch.setattr(classifier.TrainedClassifier, "deltahat", spy)
    segs = decision_segments(clf, -np.inf, np.inf)
    (call,) = flip_records["calls"]
    assert len(call[1]) == 2
    assert len(scalar) <= 4
    assert repr(call[2]) == repr(_plain_cuts(clf, call[1]))
    assert repr(segs) == repr(scan_segments_oracle(clf, -np.inf, np.inf))


_W = 2.0 ** -6


@pytest.mark.parametrize("clf, flips", [
    # deltahat(0.15) is exactly 0 and 0.15 the second midpoint of each
    # bracket: the Newton anchors land near it, not on it
    (fit_classifier([0.0], [0.3], 1.0, 1.0),
     [(0.15 - 3 * _W, 0.15 + _W, 0), (0.15 - _W, 0.15 + 3 * _W, 0),
      (0.15 - 7 * _W, 0.15 + _W, 0)]),
    # touches 0 without crossing at 0 (the touching-zero classifier)
    (fit_classifier([0.0], [0.0, 5.0], 1.0, 1.5, p=0.25),
     [(-0.3, 0.2, 1), (-0.3, 0.2, 0), (-0.01, 0.02, 1)]),
    # identical samples with p = 1/2: deltahat and its slope are 0
    (fit_classifier(np.linspace(-1.0, 1.0, 9), np.linspace(-1.0, 1.0, 9), 0.7, 0.7),
     [(-0.5, 0.3, 0), (-0.5, 0.3, 1)]),
], ids=["root-at-dyadic-midpoint", "touching-zero", "identical-samples"])
def test_certified_bisection_falls_back_where_a_sign_is_in_doubt(flip_records, clf, flips):
    want = _plain_cuts(clf, flips)
    assert repr(classifier._refine_flips(clf, flips)) == repr(want)
    assert flip_records["fallbacks"] == len(flips)


def test_certified_bisection_root_at_the_first_midpoint_needs_no_fallback(flip_records):
    # the first midpoint is evaluated, so its sign is exact even at a root
    clf = fit_classifier([0.0], [0.3], 1.0, 1.0)
    assert clf.deltahat(0.15) == 0.0
    flips = [(0.15 - _W, 0.15 + _W, 0), (0.15 - _W, 0.15 + _W, 1)]
    assert repr(classifier._refine_flips(clf, flips)) == repr(_plain_cuts(clf, flips))
    assert flip_records["fallbacks"] == 0


def test_certified_bisection_needs_a_smooth_kernel_edge(flip_records):
    # Epanechnikov's K' jumps at +-1: every flip is bisected plainly
    rng = np.random.default_rng(5)
    clf = fit_classifier(rng.normal(0.0, 1.0, 500), rng.normal(1.0, 1.0, 500), 0.2, 0.2,
                         kernel=EPANECHNIKOV)
    segs = decision_segments(clf, -np.inf, np.inf)
    assert repr(segs) == repr(scan_segments_oracle(clf, -np.inf, np.inf))
    (call,) = flip_records["calls"]
    assert len(call[1]) > 0
    assert flip_records["anchors"] == 0
    assert flip_records["fallbacks"] == len(call[1])


def test_decision_segments_huge_magnitude_gaps_take_classify_ahat_labels():
    # one unit in from an island edge at 1e17 rounds back onto the edge,
    # where the body rule gives "g"; the gaps' tail rule gives "f"
    clf = fit_classifier([1e17], [1e17], 1.0, 1.0, p=0.3)
    segs = decision_segments(clf, -np.inf, np.inf)
    assert segs == [(-np.inf, np.inf, FROM_F)]
    for t in (0.0, -1e18, 2e17, 1e18):
        assert classify_ahat(clf, t).population == FROM_F
    assert repr(segs) == repr(scan_segments_oracle(clf, -np.inf, np.inf))
    # the interior point stays one unit in below 2**53, and is never the edge
    for end in (-1e17, -3.0, 0.5, 2.0 ** 53, 2.0 ** 54, 1e17, 1e300):
        below, above = (classifier._interior_point(-np.inf, end),
                        classifier._interior_point(end, np.inf))
        assert below < end < above
        if abs(end) < 2.0 ** 53:
            assert (below, above) == (end - 1.0, end + 1.0)


def test_decision_segments_drop_a_zero_width_island():
    # both supports round onto the point 1e17, an island of zero width: it
    # has no midpoints, so the partition gives that point its gaps' label
    # "f", where the rule itself gives the body rule's "g" (deltahat < 0)
    clf = fit_classifier([1e17], [1e17], 1.0, 1.0, p=0.3)
    for lo, hi in [(-np.inf, np.inf), (0.0, 2e17)]:
        assert decision_segments(clf, lo, hi) == [(lo, hi, FROM_F)]
    assert classify_ahat(clf, 1e17) == Label(FROM_G, "body")


def test_decision_segments_validation():
    clf = fit_classifier([0.0], [1.0], 0.5, 0.5)
    with pytest.raises(ParameterError):
        decision_segments(clf, 1.0, -1.0)
    with pytest.raises(ParameterError):
        decision_segments(clf, -1.0, 1.0, rule="fancy")
