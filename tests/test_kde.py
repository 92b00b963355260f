"""Kernel density estimates: the scatter engine _kde_many and array
evaluation vs the dense sum over all pairs, leave-one-out identities, exact
pointwise moments vs Monte Carlo, and smoothed-bootstrap distributional
correctness.

The engine adds each point's kernel values in sorted-data order with
np.add.at and evaluates the kernel in s**2 - u**2, so it is held to the
dense oracle within the per-point rounding bound helpers.kde_rounding_bound,
which is 0 (so the match is exact) where no datum reaches a point.  A
scalar call adds the same values in the same order, so it is held to the
array value bit for bit.
"""

import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from helpers import kde_rounding_bound, naive_kde
from kdeclass import (
    BIWEIGHT,
    EPANECHNIKOV,
    KdeEstimate,
    Kernel,
    Normal,
    ParameterError,
    TRIWEIGHT,
    kde_mean_var,
    smoothed_bootstrap,
)
from kdeclass import kde as kde_module
from kdeclass.kde import _kde_many

# the uniform kernels jump at their support edges, where the built-ins
# vanish, so a pair left out at |u| = s shows up in the sum
KERNELS = (TRIWEIGHT, BIWEIGHT, EPANECHNIKOV,
           Kernel("uniform", [Fraction(1, 2)]),
           Kernel("uniform-wide", [Fraction(1, 6)], support_halfwidth=3))


def assert_matches_dense(got, data, h, kernel, points):
    """The dense oracle's shape, and its values within the rounding bound:
    exact zeros where no datum reaches a point."""
    want = naive_kde(data, h, kernel, points)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= kde_rounding_bound(data, h, kernel, points))


def edge_points(data, h, s, rng, extra):
    """Sorted points holding every kernel support edge X +- h*s, the floats
    either side of each, and `extra` uniform points over the span."""
    edges = np.concatenate([data - h * s, data + h * s])
    pts = np.concatenate([edges, np.nextafter(edges, -np.inf),
                          np.nextafter(edges, np.inf),
                          rng.uniform(data.min() - 2 * h, data.max() + 2 * h, extra)])
    return np.sort(pts)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
@pytest.mark.parametrize("B,G", [(1, 1), (1, 3), (4, 1), (5, 4)])
def test_kde_many_matches_dense_sum(kernel, B, G):
    rng = np.random.default_rng(B * 10 + G)
    n = 23 if B > 1 else 150                    # one block, or two of numpy's
    samples = rng.normal(size=(B, n))
    samples[:, 5:9] = samples[:, :4]            # duplicated data
    hs = np.geomspace(0.05, 2.0, G)
    s = float(kernel.support_halfwidth)
    points = edge_points(samples.ravel(), hs[0], s, rng, 300)
    got = _kde_many(samples, hs, points, kernel)
    assert got.shape == (B, G, points.size)
    for b in range(B):
        for g, h in enumerate(hs):
            assert_matches_dense(got[b, g], samples[b], h, kernel, points)
    # the points just outside the outermost edges see nothing
    assert np.all(got[:, 0, 0] == 0.0) and np.all(got[:, 0, -1] == 0.0)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 128, 129, 200, 300])
@pytest.mark.parametrize("cap", [None, 1, 1000])
def test_kde_many_follows_numpy_pairwise_blocks(n, cap, monkeypatch):
    # sizes below, at and past numpy's pairwise blocks of 8 and 128 values;
    # caps 1 and 1000 evaluate one column, or a few dozen, of one sample per
    # step, each block adding into the sums the sample's earlier blocks left
    # in the output, and give the very same values
    rng = np.random.default_rng(n)
    samples = rng.normal(size=(3, n))
    hs = [0.1, 0.9]
    points = np.sort(rng.uniform(-4.0, 4.0, 120))
    whole = _kde_many(samples, hs, points)
    if cap is not None:
        monkeypatch.setattr(kde_module, "_BLOCK_ELEMENTS", cap)
    got = _kde_many(samples, hs, points)
    assert np.array_equal(got, whole)
    for b in range(3):
        for g, h in enumerate(hs):
            assert_matches_dense(got[b, g], samples[b], h, TRIWEIGHT, points)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), B=st.integers(1, 4),
       G=st.integers(1, 3), kernel=st.sampled_from(KERNELS))
def test_kde_many_within_rounding_bound_at_every_edge(seed, n, B, G, kernel):
    # points at every support edge X +- h*s of every sample and bandwidth,
    # and the floats either side of each: there the kernel vanishes (the
    # built-ins) or jumps (the uniform kernels)
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=(B, n)) * rng.uniform(0.1, 10.0)
    hs = rng.uniform(0.01, 2.0, G)
    s = float(kernel.support_halfwidth)
    edges = np.concatenate([samples.ravel() + sign * h * s for h in hs for sign in (-1, 1)])
    points = np.sort(np.concatenate([edges, np.nextafter(edges, -np.inf),
                                     np.nextafter(edges, np.inf)]))
    got = _kde_many(samples, hs, points, kernel)
    assert np.all(got >= 0.0)
    for b in range(B):
        for g, h in enumerate(hs):
            # in slices of points, so the dense oracle stays small
            for lo in range(0, points.size, 2000):
                part = slice(lo, lo + 2000)
                bound = kde_rounding_bound(samples[b], h, kernel, points[part])
                want = naive_kde(samples[b], h, kernel, points[part])
                assert np.all(np.abs(got[b, g, part] - want) <= bound)
                # the bound is 0 exactly where no datum reaches the point
                assert np.all(got[b, g, part][bound == 0.0] == 0.0)


class CountingKernel(Kernel):
    """The triweight kernel, counting the values it evaluates."""

    def __init__(self):
        super().__init__("counting-triweight", TRIWEIGHT.poly_coeffs)
        self.evaluated = 0

    def __call__(self, u):
        self.evaluated += np.size(u)
        return super().__call__(u)


def spaced_samples(n, offsets, rng):
    """One sample per offset: n data about one apart, sorted column i within
    0.05 of i + offset."""
    noise = rng.uniform(-0.05, 0.05, (len(offsets), n))
    return np.arange(n) + np.asarray(offsets, dtype=float)[:, None] + noise


def points_reached_by(data, c0, c1, hs, rng, extra):
    """Sorted points that columns c0..c1-1 of `data` (spaced as by
    spaced_samples, kernel reach hs) reach, about 2*hs of them each, and no
    other column does: the support edges X +- hs inside
    [c0 - 0.45 + hs, c1 - 0.55 - hs], the floats either side of each, and
    `extra` uniform points in that interval."""
    lo, hi = c0 - 0.45 + hs, c1 - 0.55 - hs
    edges = np.concatenate([data - hs, data + hs])
    edges = edges[(edges > lo) & (edges < hi)]
    return np.sort(np.concatenate([edges, np.nextafter(edges, -np.inf),
                                   np.nextafter(edges, np.inf),
                                   rng.uniform(lo, hi, extra)]))


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
@pytest.mark.parametrize("k", [0, 999, 1999])
def test_kde_many_points_one_datum_reaches(kernel, k):
    # 64 points inside one datum's reach at n = 2000: all the other columns,
    # whole 128-blocks of them, lie outside the live span
    rng = np.random.default_rng(k)
    data = np.sort(rng.normal(size=2000))
    s = float(kernel.support_halfwidth)
    h = 1e-4 / s
    points = np.sort(data[k] + h * s * rng.uniform(-1.0, 1.0, 64))
    got = _kde_many(data[None, :], [h, 10 * h], points, kernel)
    for g, hg in enumerate([h, 10 * h]):
        assert_matches_dense(got[0, g], data, hg, kernel, points)
    assert np.all(got[0, 0] > 0.0)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_kde_many_points_outside_the_data(kernel):
    rng = np.random.default_rng(2)
    samples = rng.normal(size=(2, 300))
    s = float(kernel.support_halfwidth)
    lo, hi = samples.min() - 0.25 * s, samples.max() + 0.25 * s   # reach <= 0.2*s
    for points in (np.sort(lo - rng.uniform(0, 1, 40)), np.sort(hi + rng.uniform(0, 1, 40)),
                   np.r_[lo - 1.0, lo, hi, hi + 1.0]):
        got = _kde_many(samples, [0.1, 0.2], points, kernel)
        assert np.array_equal(got, np.zeros((2, 2, points.size)))
        assert_matches_dense(got[1, 1], samples[1], 0.2, kernel, points)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
@pytest.mark.parametrize("cap", [None, 1])
@pytest.mark.parametrize("n,c0,c1", [(129, 3, 129), (150, 75, 147), (300, 11, 298),
                                     (300, 150, 299)])
def test_kde_many_live_span_mid_lane_to_block_tail(kernel, cap, n, c0, c1, monkeypatch):
    # numpy splits n = 129 into 64 + (64 + a 1-value tail), 150 into 72 +
    # (72 + 6) and 300 into 72 + 72 + 72 + (80 + 4): each span [c0, c1) of
    # live columns starts mid-lane and ends inside a block tail of the dense
    # oracle's pairwise sum
    if cap is not None:
        monkeypatch.setattr(kde_module, "_BLOCK_ELEMENTS", cap)
    rng = np.random.default_rng(n + c0)
    h = 3.4 / float(kernel.support_halfwidth)
    data = spaced_samples(n, [0.0], rng)[0]
    points = points_reached_by(data, c0, c1, 3.4, rng, 100)
    got = _kde_many(data[None, :], [h], points, kernel)
    assert_matches_dense(got[0, 0], data, h, kernel, points)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
@pytest.mark.parametrize("cap", [None, 1])
def test_kde_many_disjoint_live_spans(kernel, cap, monkeypatch):
    # the same points meet columns 10..29 of the first sample, 50..69 of the
    # second and 90..109 of the third: the span covers all three, and each
    # sample's columns outside its own run add exact zeros
    if cap is not None:
        monkeypatch.setattr(kde_module, "_BLOCK_ELEMENTS", cap)
    rng = np.random.default_rng(3)
    h = 3.4 / float(kernel.support_halfwidth)
    samples = spaced_samples(200, [0.0, -40.0, -80.0], rng)
    points = points_reached_by(samples[0], 10, 30, 3.4, rng, 100)
    got = _kde_many(samples, [h], points, kernel)
    for b in range(3):
        assert_matches_dense(got[b, 0], samples[b], h, kernel, points)
        assert np.any(got[b, 0] > 0.0)


def test_kde_many_evaluates_only_the_live_span():
    # a narrow run of points at n = 2000: the engine evaluates the live
    # columns times the widest run, not all n columns
    rng = np.random.default_rng(4)
    data = np.sort(rng.normal(size=2000))
    h = 0.01
    points = np.sort(data[1000] + h * rng.uniform(-1.0, 1.0, 64))
    reach = 1.01 * h                 # wider than the engine's rounding slack
    near = data[(data >= points[0] - reach) & (data <= points[-1] + reach)]
    width = np.max(np.searchsorted(points, near + reach, side="right")
                   - np.searchsorted(points, near - reach, side="left"))
    kernel = CountingKernel()
    got = _kde_many(data[None, :], [h], points, kernel)
    assert_matches_dense(got[0, 0], data, h, TRIWEIGHT, points)
    assert 0 < kernel.evaluated <= near.size * width
    assert near.size * width < data.size * width / 20


def test_kde_many_evaluates_every_column_when_all_are_live():
    # study-shaped: B replicates, G bandwidths, a 201-point grid over the
    # data, every datum reaching some point; the count is B * n * (the sum
    # over bandwidths of the widest run), every column evaluated once
    rng = np.random.default_rng(6)
    samples = rng.normal(size=(20, 60))
    hs = np.geomspace(0.2, 1.0, 5)
    points = np.linspace(samples.min() - 1.0, samples.max() + 1.0, 201)
    widths = [np.max(np.searchsorted(points, samples + h, side="right")
                     - np.searchsorted(points, samples - h, side="left")) for h in hs]
    kernel = CountingKernel()
    got = _kde_many(samples, hs, points, kernel)
    assert kernel.evaluated == samples.size * sum(widths)
    assert_matches_dense(got[7, 3], samples[7], hs[3], TRIWEIGHT, points)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_array_call_matches_dense_sum(kernel):
    rng = np.random.default_rng(5)
    data = np.repeat(rng.normal(size=40), 3)    # every datum three times
    h = 0.3
    est = KdeEstimate(data, h, kernel)
    s = float(kernel.support_halfwidth)
    pts = edge_points(est.data, h, s, rng, 200)
    pts = np.concatenate([pts, pts[::7]])       # duplicated points
    rng.shuffle(pts)                            # in no order
    grid = pts[: 20 * 30].reshape(20, 30)       # and 2-D
    assert_matches_dense(est(pts), data, h, kernel, pts)
    got = est(grid)
    assert got.shape == (20, 30)
    assert_matches_dense(got, data, h, kernel, grid)


def test_engine_large_sample_matches_dense_sum():
    rng = np.random.default_rng(11)
    data = rng.normal(size=2000)
    for h in (0.05, 0.4):
        est = KdeEstimate(data, h)
        xs = np.sort(rng.uniform(-4.5, 4.5, size=1500))
        assert_matches_dense(est(xs), data, h, TRIWEIGHT, xs)
        # the data themselves, as loo_all evaluates them
        assert_matches_dense(est(est.data), data, h, TRIWEIGHT, est.data)


def test_engine_nonfinite_and_empty_points():
    data = np.array([-1.0, 0.0, 0.5, 3.0])
    est = KdeEstimate(data, 0.8)
    pts = np.array([np.nan, 0.2, -np.inf, np.inf, 0.2, np.nan, 2.9])
    got = est(pts)
    assert np.array_equal(got[[0, 2, 3, 5]], np.zeros(4))
    assert_matches_dense(got, data, 0.8, TRIWEIGHT, pts)
    sorted_pts = np.array([-np.inf, -0.5, 0.1, np.inf, np.nan])
    many = _kde_many(np.stack([data, data[::-1] + 0.25]), [0.3, 1.0], sorted_pts)
    assert np.all(many[:, :, [0, 3, 4]] == 0.0)
    assert_matches_dense(many[1, 1], data[::-1] + 0.25, 1.0, TRIWEIGHT, sorted_pts)
    assert est(np.array([])).shape == (0,)
    assert est(np.empty((0, 3))).shape == (0, 3)
    assert _kde_many(data[None, :], [0.5, 1.0], []).shape == (1, 2, 0)


def test_kde_many_validation():
    data = np.zeros((2, 3))
    with pytest.raises(ParameterError):
        _kde_many(data, [1.0], [1.0, 0.0])        # points not sorted
    with pytest.raises(ParameterError):
        _kde_many(data, [0.0], [0.0])
    with pytest.raises(ParameterError):
        _kde_many(data[0], [1.0], [0.0])           # samples must be 2-D
    with pytest.raises(ParameterError):
        _kde_many(np.zeros((2, 0)), [1.0], [0.0])
    with pytest.raises(ParameterError):
        _kde_many(np.full((1, 2), np.inf), [1.0], [0.0])
    with pytest.raises(ParameterError):
        _kde_many(data, [1.0], [0.0, np.nan, -1.0])  # NaN before a number
    assert _kde_many(data, [1.0], [0.0, 1.0, np.nan, np.nan]).shape == (2, 1, 4)
    assert _kde_many(np.zeros((0, 3)), [1.0, 2.0], [0.0]).shape == (0, 2, 1)


# ----------------------------------------------------------------------
# the engine's scratch pool
# ----------------------------------------------------------------------
def engine_calls(seed, count):
    """Arguments of `count` engine calls of random sizes, kernels and
    bandwidths, some points NaN at the end."""
    rng = np.random.default_rng(seed)
    calls = []
    for k in range(count):
        B, n, T, G = (int(v) for v in rng.integers(1, (9, 300, 400, 4)))
        samples = rng.normal(size=(B, n)) * rng.uniform(0.2, 4.0)
        points = np.sort(rng.uniform(-8.0, 8.0, T))
        points[T - k % 3:] = np.nan
        calls.append((samples, rng.uniform(0.01, 2.0, G), points, KERNELS[k % 3]))
    return calls


@pytest.mark.parametrize("cap", [7, 500, 50_000])
def test_kde_many_same_bytes_at_every_block_size(cap, monkeypatch):
    # caps 7 and 500 split samples over blocks, each adding into the sums
    # the sample's earlier blocks left in the output; the calls come in
    # random sizes, so a kept set is reused by smaller calls and replaced
    # for larger ones
    calls = engine_calls(3, 40)
    monkeypatch.setattr(kde_module, "_BLOCK_ELEMENTS", 10**9)  # one block each
    whole = [_kde_many(*call).tobytes() for call in calls]
    monkeypatch.setattr(kde_module, "_BLOCK_ELEMENTS", cap)
    assert [_kde_many(*call).tobytes() for call in calls] == whole


def test_kde_many_threads_hold_their_own_scratch(monkeypatch):
    # four threads on two cores, switching every microsecond, each repeat
    # their own calls; a shared scratch set would mix their values
    monkeypatch.setattr(kde_module, "_BLOCK_ELEMENTS", 500)
    calls = [engine_calls(seed, 5) for seed in (1, 2, 1, 2)]
    want = [[_kde_many(*call).tobytes() for call in own] for own in calls]
    done = []

    def repeat(own, expected):
        for _ in range(10):
            if [_kde_many(*call).tobytes() for call in own] != expected:
                return
        done.append(True)

    threads = [threading.Thread(target=repeat, args=pair) for pair in zip(calls, want)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(done) == len(threads)


class FailingKernel(Kernel):
    """The triweight kernel, raising on its k-th call."""

    def __init__(self, k):
        super().__init__("failing-triweight", TRIWEIGHT.poly_coeffs)
        self.calls, self.k = 0, k

    def __call__(self, u):
        self.calls += 1
        if self.calls == self.k:
            raise RuntimeError("kernel failed")
        return super().__call__(u)


def test_kde_many_correct_after_a_call_that_raises(monkeypatch):
    # a call that stops mid-way returns its scratch set, partly written,
    # and the next call still gives the same bytes
    monkeypatch.setattr(kde_module, "_SCRATCH", [])
    monkeypatch.setattr(kde_module, "_BLOCK_ELEMENTS", 500)
    samples, hs, points, _ = engine_calls(4, 1)[0]
    want = _kde_many(samples, hs, points).tobytes()
    for k in (1, 2, 5):
        with pytest.raises(RuntimeError, match="kernel failed"):
            _kde_many(samples[:, ::-1], hs[::-1], points, FailingKernel(k))
        assert len(kde_module._SCRATCH) == 1
        assert _kde_many(samples, hs, points).tobytes() == want


def test_kde_many_keeps_no_scratch_above_the_bound(monkeypatch):
    # every datum reaches all T points, so one call's set holds a block of
    # T elements; it is dropped, and a small call after it still works
    monkeypatch.setattr(kde_module, "_SCRATCH", [])
    keep = kde_module._BLOCK_ELEMENTS
    small = (np.array([[0.0, 0.5]]), [0.3], np.linspace(-1.0, 1.0, 50))
    _kde_many(*small)
    points = np.linspace(-1.0, 1.0, 3 * keep)
    got = _kde_many(np.array([[-0.5, 0.0, 0.25]]), [2.0], points)
    assert_matches_dense(got[0, 0], np.array([-0.5, 0.0, 0.25]), 2.0, TRIWEIGHT, points)
    assert all(index.size <= keep for index, _ in kde_module._SCRATCH)
    assert_matches_dense(_kde_many(*small)[0, 0], small[0][0], 0.3, TRIWEIGHT, small[2])
    assert len(kde_module._SCRATCH) == 1


def same_bits(a, b) -> bool:
    """a and b are the same double, sign bit included."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400),
       kernel=st.sampled_from(KERNELS), h=st.floats(0.01, 3.0),
       decimals=st.sampled_from([None, 0, 1]))
def test_scalar_call_equals_array_call_bit_for_bit(seed, n, kernel, h, decimals):
    """est(x) is est(np.array([x]))[0] to the bit at every support edge
    X_i +- h*s, the floats either side of it and random points; rounded
    data put many edges on top of one another."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=n) * rng.uniform(0.1, 50.0)
    if decimals is not None:
        data = np.round(data, decimals)
    est = KdeEstimate(data, h, kernel)
    points = edge_points(est.data, h, float(kernel.support_halfwidth), rng, 40)
    # the engine's value at a point does not depend on the other points
    array = est(points)
    for x, want in zip(points, array):
        assert same_bits(est(float(x)), want)
    for x in rng.choice(points, 5):
        assert same_bits(est(float(x)), est(np.array([x]))[0])


def test_scalar_call_at_non_finite_point_evaluates_no_kernel_value():
    kernel = CountingKernel()
    est = KdeEstimate(np.random.default_rng(3).normal(size=1000), 0.4, kernel)
    for x in (-np.inf, np.inf, np.nan):
        kernel.evaluated = 0
        assert same_bits(est(x), 0.0)
        assert kernel.evaluated == 0
    assert np.array_equal(est(np.array([-np.inf, np.inf, np.nan])), np.zeros(3))
    est(0.0)
    assert kernel.evaluated > 0  # a finite point does reach the kernel


def test_matches_naive_sum_fixed_cases():
    rng = np.random.default_rng(0)
    for n in (1, 2, 7, 50, 500):
        data = rng.normal(size=n)
        for h in (0.05, 0.4, 2.5):
            est = KdeEstimate(data, h)
            xs = rng.uniform(-4, 4, size=37)
            assert est(xs) == pytest.approx(naive_kde(data, h, TRIWEIGHT, xs),
                                            abs=1e-12)
            # scalar path shares the answer with the array path
            assert est(xs[0]) == pytest.approx(float(est(xs)[0]), abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(st.floats(-50, 50), min_size=1, max_size=40),
    h=st.floats(0.01, 30.0),
    x=st.floats(-60, 60),
)
def test_matches_naive_sum_property(data, h, x):
    est = KdeEstimate(data, h, BIWEIGHT)
    assert est(x) == pytest.approx(
        float(naive_kde(data, h, BIWEIGHT, x)[0]), abs=1e-12)


def test_integrates_to_one():
    rng = np.random.default_rng(3)
    data = rng.normal(size=30)
    est = KdeEstimate(data, 0.7)
    lo, hi = est.support
    mass, _ = quad(est, lo, hi, epsabs=1e-10, limit=400)
    assert mass == pytest.approx(1.0, abs=1e-7)


def test_support_and_vanishing_outside():
    data = [0.0, 2.0, 5.0]
    est = KdeEstimate(data, 0.5)
    assert est.support == (-0.5, 5.5)
    assert est(-0.51) == 0.0
    assert est(5.51) == 0.0
    assert est(1.2) == 0.0          # interior gap between kernel islands
    assert est(0.2) > 0.0
    assert est.count == 3
    assert np.array_equal(est.data, np.sort(np.asarray(data, dtype=float)))


def test_chunked_array_path():
    rng = np.random.default_rng(9)
    data = rng.normal(size=4000)
    est = KdeEstimate(data, 0.3)
    xs = rng.uniform(-3, 3, size=5000)   # forces many engine blocks
    direct = np.array([est(float(t)) for t in xs[:25]])
    assert est(xs)[:25] == pytest.approx(direct, abs=1e-13)
    assert est(xs.reshape(50, 100)).shape == (50, 100)


def test_loo_identities():
    rng = np.random.default_rng(1)
    data = rng.normal(size=25)
    h = 0.6
    est = KdeEstimate(data, h)
    allv = est.loo_all()
    for i in range(est.count):
        reduced = KdeEstimate(np.delete(est.data, i), h)
        want = reduced(float(est.data[i]))
        assert est.loo(i) == pytest.approx(want, abs=1e-13)
        assert allv[i] == pytest.approx(want, abs=1e-13)
        assert est.loo(i) == allv[i]  # scalar and array sums agree bit for bit
    with pytest.raises(ParameterError):
        est.loo(25)
    with pytest.raises(ParameterError):
        KdeEstimate([1.0], 1.0).loo(0)


def test_loo_keeps_the_rounding_of_its_identity():
    """loo_all is (count*h*fhat(X_i) - K(0)) / ((count - 1) * h) in that
    operation order, which the leave-one-out surface shares; so far apart
    data leave the round-trip residue -3.7e-15 where the exact value is 0."""
    rng = np.random.default_rng(3)
    cases = [(np.arange(7) * 10.0, 0.01)] + [(rng.normal(size=40), h) for h in (0.05, 0.3, 1.7)]
    for data, h in cases:
        for kernel in KERNELS:
            est = KdeEstimate(data, h, kernel)
            want = (est(est.data) * est.count * est.h - kernel.at_zero) / ((est.count - 1) * est.h)
            assert est.loo_all().tobytes() == want.tobytes()
    assert np.all(KdeEstimate(np.arange(7) * 10.0, 0.01).loo_all() < 0.0)


def test_validation():
    with pytest.raises(ParameterError):
        KdeEstimate([], 1.0)
    with pytest.raises(ParameterError):
        KdeEstimate([np.nan], 1.0)
    with pytest.raises(ParameterError):
        KdeEstimate([0.0], 0.0)
    with pytest.raises(ParameterError):
        KdeEstimate([0.0], np.inf)


def test_kde_mean_var_monte_carlo():
    density = Normal(0.0, 1.0)
    h, count, y = 0.5, 40, 0.3
    mean, var = kde_mean_var(density, TRIWEIGHT, h, count, y)
    rng = np.random.default_rng(12)
    reps = 4000
    vals = np.empty(reps)
    for k in range(reps):
        est = KdeEstimate(density.sample(count, rng), h)
        vals[k] = est(y)
    se_mean = vals.std(ddof=1) / np.sqrt(reps)
    assert mean == pytest.approx(vals.mean(), abs=5 * se_mean)
    # variance of a variance estimate: compare loosely but meaningfully
    assert var == pytest.approx(vals.var(ddof=1), rel=0.15)


def test_kde_mean_var_validation():
    with pytest.raises(ParameterError):
        kde_mean_var(Normal(0, 1), TRIWEIGHT, -1.0, 10, 0.0)
    with pytest.raises(ParameterError):
        kde_mean_var(Normal(0, 1), TRIWEIGHT, 1.0, 0, 0.0)


def test_smoothed_bootstrap_distribution():
    data = np.array([-1.0, 0.0, 2.0])
    h = 0.8
    est = KdeEstimate(data, h)
    draws = smoothed_bootstrap(est, 60_000, np.random.default_rng(4))
    assert draws.size == 60_000
    lo, hi = est.support
    assert np.all(draws >= lo) and np.all(draws <= hi)
    # empirical cdf must match the estimate's own cdf (mixture of shifted
    # kernel cdfs) at several points within binomial error
    for x in (-1.2, -0.3, 0.4, 1.5, 2.4):
        want = float(np.mean(TRIWEIGHT.cdf((x - data) / h)))
        got = float(np.mean(draws <= x))
        se = np.sqrt(want * (1 - want) / draws.size) + 1e-9
        assert abs(got - want) < 5 * se


def test_smoothed_bootstrap_determinism_and_edges():
    est = KdeEstimate([0.0, 1.0], 0.5)
    a = smoothed_bootstrap(est, 100, np.random.default_rng(11))
    b = smoothed_bootstrap(est, 100, np.random.default_rng(11))
    assert np.array_equal(a, b)
    assert smoothed_bootstrap(est, 0, np.random.default_rng(0)).size == 0
    with pytest.raises(ParameterError):
        smoothed_bootstrap(est, -1, np.random.default_rng(0))
