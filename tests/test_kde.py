"""Kernel density estimates: the scatter engine _kde_many and array
evaluation vs the dense sum over all pairs, leave-one-out identities, exact
pointwise moments vs Monte Carlo, and smoothed-bootstrap distributional
correctness.

The engine adds each point's kernel values in sorted-data order with
np.add.at and evaluates the kernel in 1 - u**2, so it is held to the
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
from numpy.polynomial import polynomial as P
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from helpers import kde_rounding_bound, kernel_cdf, naive_kde, ordered_kde
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

# the uniform and stepped kernels jump at their support edges, where the
# built-ins vanish, so a pair left out at |u| = 1 shows up in the sum; the
# stepped kernel 5/8 - 3/8 u**2 also rounds in Horner's rule where it jumps
UNIFORM = Kernel("uniform", [Fraction(1, 2)])
STEPPED = Kernel("stepped", [Fraction(5, 8), Fraction(-3, 8)])
KERNELS = (TRIWEIGHT, BIWEIGHT, EPANECHNIKOV, UNIFORM, STEPPED)


def assert_matches_dense(got, data, h, kernel, points):
    """The dense oracle's shape, and its values within the rounding bound:
    exact zeros where no datum reaches a point."""
    want = naive_kde(data, h, kernel, points)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= kde_rounding_bound(data, h, kernel, points))


def edge_points(data, h, rng, extra):
    """Sorted points holding every kernel support edge X +- h, the floats
    either side of each, and `extra` uniform points over the span."""
    edges = np.concatenate([data - h, data + h])
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
    points = edge_points(samples.ravel(), hs[0], rng, 300)
    got = _kde_many(samples, hs, points, kernel)
    assert got.shape == (B, G, points.size)
    for b in range(B):
        for g, h in enumerate(hs):
            assert_matches_dense(got[b, g], samples[b], h, kernel, points)
    # the points just outside the outermost edges see nothing
    assert np.all(got[:, 0, 0] == 0.0) and np.all(got[:, 0, -1] == 0.0)


@pytest.mark.parametrize("s, wide, kernel", [
    (3.0, [Fraction(1, 6)], UNIFORM),
    (2.0, [Fraction(3, 8), Fraction(-3, 32)], EPANECHNIKOV),
    (0.5, [Fraction(5, 4), Fraction(-3)], STEPPED)], ids=["uniform", "epanechnikov", "stepped"])
def test_wider_kernel_is_its_rescaling_at_a_wider_bandwidth(s, wide, kernel):
    # the kernel sum_k a_k u**(2k) on [-s, s] at h, summed by hand over every
    # pair, is Kernel(name, [a_k s**(2k+1)]) on [-1, 1] at s*h; the two form
    # u differently, so they agree within the rounding bound rather than bit
    # for bit
    assert kernel.poly_coeffs == tuple(a * Fraction(s) ** (2 * k + 1) for k, a in enumerate(wide))
    rng = np.random.default_rng(6)
    data = rng.normal(size=200)
    points = np.sort(rng.uniform(-4.0, 4.0, 500))
    h = 0.2
    u = (points[:, None] - data) / h
    values = np.where(np.abs(u) <= s, np.polyval([float(a) for a in wide[::-1]], u**2), 0.0)
    want = values.sum(axis=1) / (data.size * h)
    got = KdeEstimate(data, s * h, kernel)(points)
    assert np.all(np.abs(got - want) <= kde_rounding_bound(data, s * h, kernel, points))
    assert np.any(got > 0.0) and np.any(got == 0.0)


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
    # points at every support edge X +- h of every sample and bandwidth,
    # and the floats either side of each: there the kernel vanishes (the
    # built-ins) or jumps (the uniform and stepped kernels)
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=(B, n)) * rng.uniform(0.1, 10.0)
    hs = rng.uniform(0.01, 2.0, G)
    edges = np.concatenate([samples.ravel() + sign * h for h in hs for sign in (-1, 1)])
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
    """The triweight kernel, counting its calls and the values it evaluates."""

    def __init__(self):
        super().__init__("counting-triweight", TRIWEIGHT.poly_coeffs)
        self.calls = self.evaluated = 0

    def __call__(self, u):
        self.calls += 1
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
    h = 1e-4
    points = np.sort(data[k] + h * rng.uniform(-1.0, 1.0, 64))
    got = _kde_many(data[None, :], [h, 10 * h], points, kernel)
    for g, hg in enumerate([h, 10 * h]):
        assert_matches_dense(got[0, g], data, hg, kernel, points)
    assert np.all(got[0, 0] > 0.0)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_kde_many_points_outside_the_data(kernel):
    rng = np.random.default_rng(2)
    samples = rng.normal(size=(2, 300))
    lo, hi = samples.min() - 0.25, samples.max() + 0.25   # reach <= 0.2
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
    h = 3.4
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
    h = 3.4
    samples = spaced_samples(200, [0.0, -40.0, -80.0], rng)
    points = points_reached_by(samples[0], 10, 30, 3.4, rng, 100)
    got = _kde_many(samples, [h], points, kernel)
    for b in range(3):
        assert_matches_dense(got[b, 0], samples[b], h, kernel, points)
        assert np.any(got[b, 0] > 0.0)


def test_kde_many_evaluates_only_the_live_span():
    # a narrow run of points at n = 2000: the engine evaluates at most the
    # live columns times the widest run, not all n columns
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
    # data, every datum reaching more than half the widest run; each
    # bandwidth is one run of rows on its widest run, in blocks of
    # _BLOCK_ELEMENTS // width rows: B * n * width values, every column once
    rng = np.random.default_rng(6)
    samples = rng.normal(size=(20, 60))
    hs = np.geomspace(0.2, 1.0, 5)
    points = np.linspace(samples.min() - 1.0, samples.max() + 1.0, 201)
    runs = [np.searchsorted(points, samples + h, side="right")
            - np.searchsorted(points, samples - h, side="left") for h in hs]
    assert all(2 * run.min() > run.max() for run in runs)
    widths = [int(run.max()) for run in runs]
    kernel = CountingKernel()
    got = _kde_many(samples, hs, points, kernel)
    assert kernel.evaluated == samples.size * sum(widths)
    assert kernel.calls == sum(-(-samples.size // (kde_module._BLOCK_ELEMENTS // w))
                               for w in widths)
    assert_matches_dense(got[7, 3], samples[7], hs[3], TRIWEIGHT, points)


def clustered_case(rng, B=1, n=2000):
    """class2b-shaped: n data of a main body under a coarse grid (about 6
    points per datum), and six outliers, each with 64 points across its
    support (the widest run)."""
    outliers = np.array([-300.0, -120.0, -60.0, 70.0, 150.0, 400.0])
    samples = np.concatenate([rng.normal(0.0, 2.0, (B, n)),
                              outliers + rng.uniform(-1.0, 1.0, (B, 6))], axis=1)
    h = 1.2
    fine = [np.linspace(x - h, x + h, 64) for x in samples[0, -6:]]
    return samples, [h], np.sort(np.concatenate([np.arange(-8.0, 8.0, 0.4), *fine]))


def half_width_case(above, right_end=False):
    """64 data at h = 1 each reaching 64 points of a grid of pitch 1/32,
    then 200 data on a grid of pitch 2/33 or 1/16, reaching 33 or 32 of its
    points: just above or at half the widest run.  right_end runs the data
    past the last point, so the last rows' windows, 32 wide, are shifted
    left to end there."""
    dense = np.arange(0, 129) / 32.0
    coarse = 10.0 + np.arange(0, 400) * (2.0 / 33 if above else 1.0 / 16)
    data = np.r_[(np.arange(32, 96) + 0.5) / 32.0, coarse[20:220] + (0 if above else 1.0 / 32)]
    if right_end:
        coarse = coarse[:200]
    return data[None, :], [1.0], np.r_[dense, coarse]


def nonfinite_tails(samples, hs, points):
    """The same call with -inf before the points and inf, NaN, NaN after."""
    return samples, hs, np.r_[-np.inf, points, np.inf, np.nan, np.nan]


RAGGED = {
    "coarse-grid-and-clusters": lambda rng: clustered_case(rng, n=600),
    # 100 points by each of two data 1,000 rows apart: the rows between reach nothing
    "idle-rows-between": lambda rng: (np.sort(rng.normal(size=(1, 1500))), [0.01, 0.002],
                                      np.r_[np.linspace(-1.2, -1.18, 100),
                                            np.linspace(0.9, 0.92, 100)]),
    "several-samples": lambda rng: clustered_case(rng, B=3, n=200),
    "half-width-below": lambda rng: half_width_case(False),
    "half-width-above": lambda rng: half_width_case(True),
    "right-end-shift": lambda rng: half_width_case(False, right_end=True),
    "nonfinite-tails": lambda rng: nonfinite_tails(*clustered_case(rng, n=300)),
}


@pytest.mark.parametrize("phi", [TRIWEIGHT, BIWEIGHT, EPANECHNIKOV, TRIWEIGHT._slope,
                                 EPANECHNIKOV._slope],
                         ids=["triweight", "biweight", "epanechnikov", "triweight-slope",
                              "epanechnikov-slope"])
@pytest.mark.parametrize("case", RAGGED)
@pytest.mark.parametrize("cap", [None, 500])
def test_kde_many_ragged_runs_equal_the_ordered_dense_sum(phi, case, cap, monkeypatch):
    # runs of tiles evaluated each at its own widest run leave out only
    # pairs whose values are exact zeros, so the engine equals the dense sum
    # in its own arithmetic bit for bit, in any blocks
    if cap is not None:
        monkeypatch.setattr(kde_module, "_BLOCK_ELEMENTS", cap)
    samples, hs, points = RAGGED[case](np.random.default_rng(len(case)))
    got = _kde_many(samples, hs, points, phi)
    assert np.array_equal(got, ordered_kde(samples, hs, phi, points))
    assert np.all(got[..., ~np.isfinite(points)] == 0.0)
    if isinstance(phi, Kernel):
        assert_matches_dense(got[-1, -1], samples[-1], hs[-1], phi, points)


@pytest.mark.parametrize("above", [False, True])
def test_half_width_cases_straddle_half_the_widest_run(above):
    # the cases above: the coarse rows reach 32 of the widest run's 64
    # points (a run of tiles of its own) or 33 (evaluated with the others)
    samples, (h,), points = half_width_case(above)
    runs = (np.searchsorted(points, samples[0] + h, side="right")
            - np.searchsorted(points, samples[0] - h, side="left"))
    assert runs[:64].max() == 64 and np.all(runs[64:] == (33 if above else 32))
    kernel = CountingKernel()
    _kde_many(samples, [h], points, kernel)
    assert kernel.evaluated == 64 * 64 + 200 * (64 if above else 32)


@pytest.mark.parametrize("case", ["class2b-shaped", "idle-rows-between"])
def test_kde_many_evaluates_a_small_multiple_of_the_pairs_in_reach(case):
    # one run of rows on the widest run would evaluate over 10 times the
    # pairs in reach; runs of 64-row tiles, each on its own widest run, with
    # the tiles that reach nothing skipped, evaluate under 1.5 times as many
    # on the class2b-shaped scan at n = 2,006, and two tiles on the widest
    # run for the two clusters 1,000 rows apart
    rng = np.random.default_rng(1)
    samples, (h, *_), points = (clustered_case(rng) if case == "class2b-shaped"
                                else RAGGED[case](rng))
    in_reach = np.count_nonzero(np.abs((points[:, None] - samples[0]) / h) <= 1.0)
    runs = (np.searchsorted(points, samples[0] + h, side="right")
            - np.searchsorted(points, samples[0] - h, side="left"))
    live = np.flatnonzero(runs)
    assert (live[-1] + 1 - live[0]) * runs.max() > 10 * in_reach
    kernel = CountingKernel()
    _kde_many(samples, [h], points, kernel)
    assert in_reach <= kernel.evaluated
    if case == "class2b-shaped":
        assert kernel.evaluated < 1.5 * in_reach
    else:
        assert kernel.evaluated <= 2 * kde_module._TILE * runs.max()


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_array_call_matches_dense_sum(kernel):
    rng = np.random.default_rng(5)
    data = np.repeat(rng.normal(size=40), 3)    # every datum three times
    h = 0.3
    est = KdeEstimate(data, h, kernel)
    pts = edge_points(est.data, h, rng, 200)
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
    # for larger ones; a fresh free list keeps the one-block calls' pairs,
    # above the real bound, out of the list later tests share
    calls = engine_calls(3, 40)
    monkeypatch.setattr(kde_module, "_SCRATCH", [])
    monkeypatch.setattr(kde_module, "_BLOCK_ELEMENTS", 10**9)  # one block each
    whole = [_kde_many(*call).tobytes() for call in calls]
    monkeypatch.setattr(kde_module, "_BLOCK_ELEMENTS", cap)
    assert [_kde_many(*call).tobytes() for call in calls] == whole


def test_kde_many_concurrent_calls_take_their_own_scratch(monkeypatch):
    # four threads on two cores, switching every microsecond, each repeat
    # their own calls; a shared scratch pair would mix their values, and the
    # free list keeps at most one pair per call that ran at once
    monkeypatch.setattr(kde_module, "_SCRATCH", [])
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
    assert len(kde_module._SCRATCH) <= len(threads)


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
    # a call that stops mid-way has written part of the pair it took, and
    # the next call still gives the same bytes; one call at a time keeps at
    # most one pair
    monkeypatch.setattr(kde_module, "_SCRATCH", [])
    monkeypatch.setattr(kde_module, "_BLOCK_ELEMENTS", 500)
    samples, hs, points, _ = engine_calls(4, 1)[0]
    want = _kde_many(samples, hs, points).tobytes()
    for k in (1, 2, 5):
        with pytest.raises(RuntimeError, match="kernel failed"):
            _kde_many(samples[:, ::-1], hs[::-1], points, FailingKernel(k))
        assert _kde_many(samples, hs, points).tobytes() == want
        assert len(kde_module._SCRATCH) <= 1


def test_kde_many_keeps_no_scratch_above_the_bound(monkeypatch):
    # every datum reaches all T points, so the call's one block holds T
    # elements; that pair is not kept, the call gives back the pair it took,
    # and a small call after it still works
    monkeypatch.setattr(kde_module, "_SCRATCH", [])
    keep = kde_module._BLOCK_ELEMENTS
    small = (np.array([[0.0, 0.5]]), [0.3], np.linspace(-1.0, 1.0, 50))
    _kde_many(*small)
    taken = kde_module._SCRATCH[-1]
    points = np.linspace(-1.0, 1.0, 3 * keep)
    got = _kde_many(np.array([[-0.5, 0.0, 0.25]]), [2.0], points)
    assert_matches_dense(got[0, 0], np.array([-0.5, 0.0, 0.25]), 2.0, TRIWEIGHT, points)
    assert len(kde_module._SCRATCH) == 1 and kde_module._SCRATCH[0] is taken
    for index, u in kde_module._SCRATCH:
        assert index.size <= keep and u.size == index.size
    assert_matches_dense(_kde_many(*small)[0, 0], small[0][0], 0.3, TRIWEIGHT, small[2])


def same_bits(a, b) -> bool:
    """a and b are the same double, sign bit included."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400),
       kernel=st.sampled_from(KERNELS), h=st.floats(0.01, 3.0),
       decimals=st.sampled_from([None, 0, 1]))
def test_scalar_call_equals_array_call_bit_for_bit(seed, n, kernel, h, decimals):
    """est(x) is est(np.array([x]))[0] to the bit at every support edge
    X_i +- h, the floats either side of it and random points; rounded
    data put many edges on top of one another."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=n) * rng.uniform(0.1, 50.0)
    if decimals is not None:
        data = np.round(data, decimals)
    est = KdeEstimate(data, h, kernel)
    points = edge_points(est.data, h, rng, 40)
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
    mass, _ = quad(est, data.min() - 0.7, data.max() + 0.7, epsabs=1e-10, limit=400)
    assert mass == pytest.approx(1.0, abs=1e-7)


def test_support_and_vanishing_outside():
    data = [0.0, 2.0, 5.0]
    est = KdeEstimate(data, 0.5)
    assert est(-0.51) == 0.0 and est(-0.49) > 0.0
    assert est(5.51) == 0.0 and est(5.49) > 0.0
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
        assert allv[i] == pytest.approx(want, abs=1e-13)
    with pytest.raises(ParameterError):
        KdeEstimate([1.0], 1.0).loo_all()


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
    assert np.all(draws >= -1.0 - h) and np.all(draws <= 2.0 + h)
    # empirical cdf must match the estimate's own cdf (mixture of shifted
    # kernel cdfs) at several points within binomial error
    for x in (-1.2, -0.3, 0.4, 1.5, 2.4):
        want = float(np.mean(kernel_cdf(TRIWEIGHT, (x - data) / h)))
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


# ----------------------------------------------------------------------
# what decision_segments' certified scan relies on
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", [TRIWEIGHT, BIWEIGHT, UNIFORM], ids=lambda k: k.name)
def test_kde_many_value_at_a_point_does_not_depend_on_the_others(kernel):
    # each point adds its own values in sorted-data order, whatever points
    # share the call, so any subset of the points gives the same bytes
    rng = np.random.default_rng(11)
    data = rng.normal(0.0, 1.0, (1, 300))
    points = edge_points(data[0], 0.3, rng, 500)
    for phi in (kernel, kernel._slope):
        whole = _kde_many(data, [0.3], points, phi)[0, 0]
        for keep in (rng.random(points.size) < 0.05, rng.random(points.size) < 0.5,
                     np.arange(points.size) % 7 == 3, np.arange(points.size) == 400):
            got = _kde_many(data, [0.3], points[keep], phi)[0, 0]
            assert got.tobytes() == whole[keep].tobytes()


def test_kde_many_slope_at_a_nan_point_is_zero_whatever_the_other_rows():
    # the datum 1.05 reaches the last three numbers; with 0.5 in the sample
    # the widest run is 7, and 1.05's row, shifted left to fit, must end by
    # the last number: K' is NaN at a NaN u, and the engine promises 0 there
    points = np.r_[np.linspace(0.0, 1.0, 11), np.nan]
    alone = _kde_many([[1.05]], [0.3], points, TRIWEIGHT._slope)[0, 0]
    got = _kde_many([[0.5, 1.05]], [0.3], points, TRIWEIGHT._slope)[0, 0]
    assert got[-1] == alone[-1] == 0.0 and np.all(np.isfinite(got))
    assert np.isnan(TRIWEIGHT._slope(np.array([np.nan])))[0]


def _exact_sum(coeffs, data, h, x):
    """(1 / (n * h)) * sum_i phi((x - X_i) / h) in exact rationals, phi the
    polynomial `coeffs` (ascending Fractions) on [-1, 1] and 0 outside,
    and the number of data with |u| <= 1."""
    us = [(Fraction(x) - Fraction(v)) / Fraction(h) for v in data]
    inside = [u for u in us if abs(u) <= 1]
    return sum(P.polyval(u, coeffs) for u in inside) / (len(data) * Fraction(h)), len(inside)


@pytest.mark.parametrize("kernel", [TRIWEIGHT, BIWEIGHT], ids=lambda k: k.name)
@pytest.mark.parametrize("slope", [False, True], ids=["value", "slope"])
def test_kde_many_within_its_exact_slack(kernel, slope):
    # the engine against the exact sum (exact u, exact K or K'), within
    # _exact_slack with the per-term errors the kde docstring states
    eps = np.finfo(float).eps
    if slope:
        phi, coeffs, top = kernel._slope, P.polyder(kernel._full), kernel._slope.top
        err = kernel._slope.err + 2.001 * eps * float(kernel._max_abs_deriv(2))
    else:
        phi, coeffs = kernel, kernel._full
        top = float(sum(abs(a) for a in kernel.poly_coeffs))
        err = 2 * len(kernel.poly_coeffs) * top * eps + 2.001 * eps * kernel._slope.top
    rng = np.random.default_rng(12)
    data = np.sort(rng.normal(0.0, 1.0, 40) * 1e3 + 5e3)
    h = 700.0
    points = edge_points(data, h, rng, 60)
    got = _kde_many(data[None, :], [h], points, phi)[0, 0]
    for x, value in zip(points, got):
        exact, m = _exact_sum(coeffs, data, h, x)
        assert abs(Fraction(value) - exact) <= Fraction(kde_module._exact_slack(m, top, err)
                                                        / (data.size * h))


@pytest.mark.parametrize("kernel, curvature, edge_slope", [
    (TRIWEIGHT, Fraction(105, 16), 0),  # |K''| peaks at u = 0: 6 * 35/32
    (BIWEIGHT, Fraction(15, 2), 0),  # at u = +-1: 8 * 15/16
    (EPANECHNIKOV, Fraction(3, 2), Fraction(-3, 2)),  # K'' = -3/2 throughout
], ids=lambda v: getattr(v, "name", None))
def test_kernel_curvature_and_edge_slope(kernel, curvature, edge_slope):
    u = np.linspace(-1.0, 1.0, 200_001)
    sampled = np.abs(np.polyval(P.polyder(kernel._full, 2)[::-1].astype(float), u)).max()
    assert kernel._max_abs_deriv(2) == curvature
    assert sampled <= float(curvature) <= sampled * (1 + 1e-12)
    # K'(+-1) from the slope callable, and from K's own values just inside
    assert kernel._slope.smooth == (edge_slope == 0)
    assert np.array_equal(kernel._slope(np.array([1.0, -1.0])), [edge_slope, -edge_slope])
    step = 1e-6
    inside = (kernel(1.0) - kernel(1.0 - step)) / step
    assert inside == pytest.approx(float(edge_slope), abs=1e-4)
    # every slope value within its stated error of the exact K'
    u = np.r_[np.random.default_rng(13).uniform(-1.2, 1.2, 2000), 0.0, 1.0, -1.0,
              np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0), 1.5, -7.0]
    exact = [P.polyval(Fraction(v), P.polyder(kernel._full)) if abs(v) <= 1 else 0 for v in u]
    got = kernel._slope(u)
    assert all(abs(Fraction(g) - e) <= Fraction(kernel._slope.err) for g, e in zip(got, exact))
