"""Kernel density estimates: the scatter engine _kde_many and array
evaluation vs the dense sum over all pairs, leave-one-out identities, exact
pointwise moments vs Monte Carlo, and smoothed-bootstrap distributional
correctness.

The engine adds the dense sum's kernel values in the dense sum's order
(numpy's pairwise sum over the sorted sample), so it is held to the dense
oracle bit for bit: same exact zeros, same values.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from helpers import naive_kde
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


def assert_matches_dense(got, want):
    """Same shape and the same values, exact zeros included, bit for bit."""
    assert got.shape == want.shape
    assert np.array_equal(got, want)


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
            assert_matches_dense(got[b, g], naive_kde(samples[b], h, kernel, points))
    # the points just outside the outermost edges see nothing
    assert np.all(got[:, 0, 0] == 0.0) and np.all(got[:, 0, -1] == 0.0)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 128, 129, 200, 300])
@pytest.mark.parametrize("cap", [None, 1])
def test_kde_many_follows_numpy_pairwise_blocks(n, cap, monkeypatch):
    # sizes below, at and past one 8-lane block and one 128-value block,
    # with and without a block tail; cap 1 evaluates one sample per step
    if cap is not None:
        monkeypatch.setattr(kde_module, "_BLOCK_ELEMENTS", cap)
    rng = np.random.default_rng(n)
    samples = rng.normal(size=(3, n))
    hs = [0.1, 0.9]
    points = np.sort(rng.uniform(-4.0, 4.0, 120))
    got = _kde_many(samples, hs, points)
    for b in range(3):
        for g, h in enumerate(hs):
            assert_matches_dense(got[b, g], naive_kde(samples[b], h, TRIWEIGHT, points))


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
    assert_matches_dense(est(pts), naive_kde(data, h, kernel, pts))
    got = est(grid)
    assert got.shape == (20, 30)
    assert_matches_dense(got, naive_kde(data, h, kernel, grid))


def test_engine_large_sample_matches_dense_sum():
    rng = np.random.default_rng(11)
    data = rng.normal(size=2000)
    for h in (0.05, 0.4):
        est = KdeEstimate(data, h)
        xs = np.sort(rng.uniform(-4.5, 4.5, size=1500))
        assert_matches_dense(est(xs), naive_kde(data, h, TRIWEIGHT, xs))
        # the data themselves, as loo_all evaluates them
        assert_matches_dense(est(est.data), naive_kde(data, h, TRIWEIGHT, est.data))


def test_engine_nonfinite_and_empty_points():
    data = np.array([-1.0, 0.0, 0.5, 3.0])
    est = KdeEstimate(data, 0.8)
    pts = np.array([np.nan, 0.2, -np.inf, np.inf, 0.2, np.nan, 2.9])
    got = est(pts)
    want = naive_kde(data, 0.8, TRIWEIGHT, pts)
    assert np.array_equal(got[[0, 2, 3, 5]], np.zeros(4))
    assert_matches_dense(got, want)
    sorted_pts = np.array([-np.inf, -0.5, 0.1, np.inf, np.nan])
    many = _kde_many(np.stack([data, data[::-1] + 0.25]), [0.3, 1.0], sorted_pts)
    assert np.all(many[:, :, [0, 3, 4]] == 0.0)
    assert_matches_dense(many[1, 1], naive_kde(data[::-1] + 0.25, 1.0, TRIWEIGHT,
                                               sorted_pts))
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
    with pytest.raises(ParameterError):
        est.loo(25)
    with pytest.raises(ParameterError):
        KdeEstimate([1.0], 1.0).loo(0)


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
