"""Bandwidth selector: pilot rule, bootstrap error surface, and the
leave-one-out negative control.

Oracles: quadrature of squared Hermite-polynomial normal derivatives for the
normal roughness constants, literal arithmetic for the scale rules and
frozen full-precision pilot values.  The bootstrap error surface is held
to a dense reference, one broadcast KDE fit per (replicate, bandwidth) and
one mean over the whole comparison, within 1e-12 and with the same argmin: the engine's values differ from the dense fits only by
rounding (helpers.kde_rounding_bound), which flips no comparison here.
"""

import threading
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import hermite_e
from scipy import stats
from scipy.integrate import quad

from helpers import dense_cv_surface, naive_kde
from kdeclass import (
    BIWEIGHT,
    EPANECHNIKOV,
    TRIWEIGHT,
    CustomDensity,
    DegenerateSampleError,
    KdeEstimate,
    Kernel,
    ParameterError,
    SelectorConfig,
    cv_err,
    error_surface,
    kde_mean_var,
    make_pair,
    normal_deriv_roughness,
    pilot_bandwidth,
    sample_scale,
    select_bandwidths,
    smoothed_bootstrap,
)
from kdeclass import kde as kde_module
from kdeclass import selector
from kdeclass.kde import _kde_many
from kdeclass.selector import _cv_surface, _first_argmin, _unit_pilot

UNIT_PILOT_100 = 1.9330594687104183
C6 = 45.81836500764786


# ----------------------------------------------------------------------
# normal_deriv_roughness
# ----------------------------------------------------------------------
def test_normal_roughness_base_case():
    assert normal_deriv_roughness(0) == pytest.approx(
        1.0 / (2.0 * np.sqrt(np.pi)), rel=1e-15)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_normal_roughness_matches_hermite_quadrature(k):
    # the k-th derivative of the standard normal pdf is
    # (-1)^k He_k(x) phi(x) with the probabilists' Hermite polynomial
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0

    def integrand(x):
        return (hermite_e.hermeval(x, coeffs) * stats.norm.pdf(x)) ** 2

    want, _ = quad(integrand, -12.0, 12.0, epsabs=1e-13, limit=300)
    assert normal_deriv_roughness(k) == pytest.approx(want, rel=1e-10)


def test_normal_roughness_frozen_and_validation():
    assert normal_deriv_roughness(6) == pytest.approx(C6, rel=1e-14)
    with pytest.raises(ParameterError):
        normal_deriv_roughness(-1)


# ----------------------------------------------------------------------
# sample_scale
# ----------------------------------------------------------------------
def test_sample_scale_explicit_values():
    data = [0.0, 1.0, 2.0, 3.0]
    sd = np.sqrt(5.0 / 3.0)          # ddof-1 standard deviation
    iqr = 1.5 / 1.349                # (2.25 - 0.75) / normal IQR
    assert sample_scale(data, "iqr") == pytest.approx(iqr, rel=1e-14)
    assert sample_scale(data, "robust-min") == pytest.approx(min(sd, iqr), rel=1e-14)


def test_sample_scale_robust_min_falls_back_to_sd():
    # three quarters of the data identical: the IQR is zero but the sd is not
    data = [0.0, 0.0, 0.0, 0.0, 0.0, 10.0]
    assert sample_scale(data, "robust-min") == pytest.approx(
        float(np.std(data, ddof=1)), rel=1e-14)
    with pytest.raises(DegenerateSampleError):
        sample_scale(data, "iqr")


def test_sample_scale_validation():
    with pytest.raises(DegenerateSampleError):
        sample_scale([1.0])                       # too small
    with pytest.raises(DegenerateSampleError):
        sample_scale([2.0, 2.0, 2.0])             # constant
    with pytest.raises(ParameterError):
        sample_scale([1.0, 2.0], "mad")


@pytest.mark.parametrize("fn", [sample_scale, pilot_bandwidth])
def test_scale_and_pilot_input_errors(fn):
    # a non-finite datum or an empty sample is bad input, not a (nearly)
    # constant sample; one point and constant data stay degenerate
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ParameterError, match="data must be finite"):
            fn(np.r_[np.linspace(-1.0, 1.0, 9), bad])
    with pytest.raises(ParameterError, match="data must be nonempty"):
        fn([])
    with pytest.raises(DegenerateSampleError):
        fn([1.0])
    with pytest.raises(DegenerateSampleError):
        fn([2.0, 2.0, 2.0])


# ----------------------------------------------------------------------
# pilot bandwidth
# ----------------------------------------------------------------------
def test_unit_pilot_frozen_value():
    config = SelectorConfig()
    assert _unit_pilot(100, config) == pytest.approx(UNIT_PILOT_100, rel=1e-12)
    # recompute from the closed form with independently checked ingredients
    want = ((9.0 * 33075.0) / ((1.0 / 81.0) * C6 * 100.0)) ** (1.0 / 13.0)
    assert _unit_pilot(100, config) == pytest.approx(want, rel=1e-12)


def test_unit_pilot_rate():
    config = SelectorConfig()
    ratio = _unit_pilot(400, config) / _unit_pilot(100, config)
    assert ratio == pytest.approx(4.0 ** (-1.0 / 13.0), rel=1e-12)


def test_pilot_bandwidth_is_scale_times_unit():
    rng = np.random.default_rng(8)
    data = rng.normal(0.0, 1.0, 64)
    config = SelectorConfig()
    want = sample_scale(data, "robust-min") * _unit_pilot(64, config)
    assert pilot_bandwidth(data, config) == pytest.approx(want, rel=1e-14)


def test_pilot_bandwidth_scale_homogeneity():
    rng = np.random.default_rng(9)
    data = rng.normal(0.0, 1.0, 50)
    base = pilot_bandwidth(data)
    assert pilot_bandwidth(3.7 * data) == pytest.approx(3.7 * base, rel=1e-12)


# ----------------------------------------------------------------------
# SelectorConfig validation
# ----------------------------------------------------------------------
def test_selector_config_validation():
    bad = [
        dict(boot_iters=0),
        dict(grid_per_dim=1),
        dict(c1=0.0),
        dict(c1=0.2),                 # not below 1/9
        dict(c2=0.15),                # not above 1/5
        dict(c2=1.0),
        dict(pilot_deriv=3),          # odd
        dict(pilot_deriv=0),
        dict(quad_points=1),
        dict(fine_grid_factor=0.0),
        dict(fine_grid_factor=-2.0),
        dict(fine_grid_factor=np.inf),
    ]
    for kwargs in bad:
        with pytest.raises(ParameterError):
            SelectorConfig(**kwargs)
    # counts must be whole numbers; 2.5 used to reach np.geomspace and fail
    # there with a bare TypeError
    for name in ("boot_iters", "grid_per_dim", "quad_points", "pilot_deriv"):
        for value in (4.5, np.nan, np.inf):
            with pytest.raises(ParameterError, match=f"{name} must be an integer"):
                SelectorConfig(**{name: value})
    # the defaults themselves are valid, and so are whole floats
    SelectorConfig()
    SelectorConfig(boot_iters=30.0, grid_per_dim=4.0, quad_points=101.0, pilot_deriv=4.0)


# ----------------------------------------------------------------------
# error_surface
# ----------------------------------------------------------------------
def _tight_config(**kwargs):
    defaults = dict(boot_iters=30, grid_per_dim=4, quad_points=101)
    defaults.update(kwargs)
    return SelectorConfig(**defaults)


def _cell(x, y, h1, h2, config, seed):
    """The surface at the single cell (h1, h2), resampled from `seed`."""
    return error_surface(x, y, [h1], [h2], 0.5, config, np.random.default_rng(seed))[0, 0]


def test_error_surface_deterministic():
    rng = np.random.default_rng(31)
    x = rng.normal(0.0, 1.0, 35)
    y = rng.normal(1.0, 1.0, 35)
    cfg = _tight_config()
    a = _cell(x, y, 0.5, 0.5, cfg, 4)
    b = _cell(x, y, 0.5, 0.5, cfg, 4)
    assert a == b
    c = _cell(x, y, 0.5, 0.5, cfg, 5)
    assert c != a


def test_error_surface_separated_samples_near_zero():
    rng = np.random.default_rng(33)
    x = rng.normal(0.0, 0.5, 40)
    y = rng.normal(50.0, 0.5, 40)
    err = _cell(x, y, 0.3, 0.3, _tight_config(boot_iters=20), 0)
    assert 0.0 <= err <= 0.01


def test_error_surface_identical_samples_near_half():
    rng = np.random.default_rng(35)
    x = rng.normal(0.0, 1.0, 40)
    err = _cell(x, x.copy(), 0.5, 0.5, _tight_config(boot_iters=60), 1)
    assert err == pytest.approx(0.5, abs=0.05)


def assert_matches_dense_surface(got, want):
    """Within 1e-12 of the dense surface, with the same first argmin."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12
    assert _first_argmin(got) == _first_argmin(want)


def engine_fit(sample, h, kernel, grid):
    """One sample at one bandwidth through the engine on its own."""
    return _kde_many(sample[None, :], [h], grid, kernel)[0, 0]


def dense_error_surface(x, y, grid_h1, grid_h2, p, config, rng, fit=naive_kde):
    """The bootstrap surface as one dense KDE fit per (replicate, bandwidth)
    and one mean over the (B, G1, G2, T) comparison, in error_surface's RNG
    order: x resample then y resample per replicate.  `fit` makes every KDE
    fit, the pilot-smoothed ones included."""
    kernel = config.kernel
    h3 = pilot_bandwidth(x, config)
    h4 = pilot_bandwidth(y, config)
    pad = max(h3, h4)
    grid = np.linspace(min(x.min(), y.min()) - pad, max(x.max(), y.max()) + pad,
                       config.quad_points)
    ftilde = KdeEstimate(x, h3, kernel)
    gtilde = KdeEstimate(y, h4, kernel)
    B = config.boot_iters
    fstar = np.empty((B, len(grid_h1), grid.size))
    gstar = np.empty((B, len(grid_h2), grid.size))
    for b in range(B):
        xs = smoothed_bootstrap(ftilde, x.size, rng)
        ys = smoothed_bootstrap(gtilde, y.size, rng)
        for k, h in enumerate(grid_h1):
            fstar[b, k] = fit(xs, h, kernel, grid)
        for k, h in enumerate(grid_h2):
            gstar[b, k] = fit(ys, h, kernel, grid)
    frac_lt = np.mean(p * fstar[:, :, None, :] < (1.0 - p) * gstar[:, None, :, :], axis=0)
    integrand = (p * fit(x, h3, kernel, grid) * frac_lt
                 + (1.0 - p) * fit(y, h4, kernel, grid) * (1.0 - frac_lt))
    return np.trapezoid(integrand, grid, axis=-1)


@pytest.mark.parametrize("pair_id", ["class1a", "class2a"])
@pytest.mark.parametrize("n", [20, 63])
@pytest.mark.parametrize("seed", [0, 1])
def test_error_surface_matches_dense_reference(pair_id, n, seed):
    pair = make_pair(pair_id)
    rng = np.random.default_rng(seed)
    x = pair.sample("f", n, rng)
    y = pair.sample("g", n, rng)
    cfg = SelectorConfig()
    grid = np.geomspace(n ** (-cfg.c2), _unit_pilot(n, cfg), cfg.grid_per_dim)
    got = error_surface(x, y, grid, grid, pair.p, cfg, np.random.default_rng(seed + 10))
    want = dense_error_surface(x, y, grid, grid, pair.p, cfg,
                               np.random.default_rng(seed + 10))
    assert_matches_dense_surface(got, want)


@pytest.mark.parametrize("pair_id", ["class1a", "class2a"])
@pytest.mark.parametrize("n", [20, 63])
def test_error_surface_matches_dense_reference_in_small_blocks(pair_id, n, monkeypatch):
    # engine chunks of one to a dozen samples give the very same surface
    pair = make_pair(pair_id)
    cfg = SelectorConfig()
    grid = np.geomspace(n ** (-cfg.c2), _unit_pilot(n, cfg), cfg.grid_per_dim)
    rng = np.random.default_rng(0)
    x = pair.sample("f", n, rng)
    y = pair.sample("g", n, rng)
    whole = error_surface(x, y, grid, grid, pair.p, cfg, np.random.default_rng(10))
    monkeypatch.setattr(kde_module, "_BLOCK_ELEMENTS", 2000)
    assert np.array_equal(error_surface(x, y, grid, grid, pair.p, cfg,
                                        np.random.default_rng(10)), whole)
    test_error_surface_matches_dense_reference(pair_id, n, 0)


class _EngineFailure(Exception):
    pass


def test_error_surface_joins_its_worker(monkeypatch):
    rng = np.random.default_rng(8)
    x = rng.normal(0.0, 1.0, 30)
    y = rng.normal(1.0, 1.0, 25)
    cfg = _tight_config(boot_iters=5, grid_per_dim=3)
    grid = np.array([0.3, 0.6, 1.0])
    before = threading.active_count()
    error_surface(x, y, grid, grid, 0.5, cfg)
    assert threading.active_count() == before

    engine = selector._kde_many

    def failing_for_y(samples, *args):
        if samples.shape[1] == y.size:
            raise _EngineFailure("y call")
        return engine(samples, *args)

    monkeypatch.setattr(selector, "_kde_many", failing_for_y)
    with pytest.raises(_EngineFailure):
        error_surface(x, y, grid, grid, 0.5, cfg)
    assert threading.active_count() == before


def test_error_surface_keeps_its_workers_scratch(monkeypatch):
    # each call's worker thread is new; like the calling thread it takes a
    # pair off the engine's free list and gives it back.  The list starts
    # with two pairs that fit either population's call, whichever thread
    # takes which, so each call leaves the same pair objects in the list
    # (it allocated nothing new), and the second gives the same bytes
    size = kde_module._BLOCK_ELEMENTS
    pairs = [(np.empty(size, np.intp), np.empty(size)) for _ in range(2)]
    monkeypatch.setattr(kde_module, "_SCRATCH", list(pairs))
    rng = np.random.default_rng(8)
    x = rng.normal(0.0, 1.0, 30)
    y = rng.normal(1.0, 1.0, 25)
    cfg = _tight_config(boot_iters=5, grid_per_dim=3)
    grid = np.array([0.3, 0.6, 1.0])
    want = error_surface(x, y, grid, grid, 0.5, cfg).tobytes()
    assert sorted(map(id, kde_module._SCRATCH)) == sorted(map(id, pairs))
    assert error_surface(x, y, grid, grid, 0.5, cfg).tobytes() == want
    assert sorted(map(id, kde_module._SCRATCH)) == sorted(map(id, pairs))


def test_error_surface_counts_in_chunks(monkeypatch):
    rng = np.random.default_rng(8)
    x = rng.normal(0.0, 1.0, 30)
    y = rng.normal(1.0, 1.0, 25)
    cfg = _tight_config(boot_iters=10, grid_per_dim=4)
    gh1 = np.array([0.3, 0.5, 0.8, 1.2])
    gh2 = np.array([0.4, 0.7, 1.1])
    whole = error_surface(x, y, gh1, gh2, 0.4, cfg, np.random.default_rng(3))
    # three replicates per chunk: 10 replicates leave a last chunk of one
    monkeypatch.setattr(selector, "_COUNT_ELEMENTS", 3 * gh1.size * gh2.size * cfg.quad_points)
    chunked = error_surface(x, y, gh1, gh2, 0.4, cfg, np.random.default_rng(3))
    assert np.array_equal(chunked, whole)
    want = dense_error_surface(x, y, gh1, gh2, 0.4, cfg, np.random.default_rng(3))
    assert_matches_dense_surface(chunked, want)
    # 300 replicates, counted in uint8 chunks of 255 and 45, against one
    # mean over the whole comparison of the same engine values; with y moved
    # 6 to the right, p f* = 0 < q g* in every replicate near y, so some
    # counts reach 300
    monkeypatch.undo()
    cfg = _tight_config(boot_iters=300, grid_per_dim=4)
    got = error_surface(x, y + 6.0, gh1, gh2, 0.4, cfg, np.random.default_rng(3))
    want = dense_error_surface(x, y + 6.0, gh1, gh2, 0.4, cfg, np.random.default_rng(3),
                               fit=engine_fit)
    assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# select_bandwidths
# ----------------------------------------------------------------------
def test_select_bandwidths_window_fine_grid():
    rng = np.random.default_rng(41)
    x = rng.normal(0.0, 1.0, 80)
    y = rng.normal(1.0, 1.0, 40)
    cfg = _tight_config(boot_iters=10, grid_per_dim=6)
    res = select_bandwidths(x, y, 0.5, cfg, seed=0)
    # the window is set by the second sample's size
    n = 40
    assert res.grid_h1[0] == pytest.approx(n ** (-cfg.c2), rel=1e-12)
    assert res.grid_h1[-1] == pytest.approx(
        cfg.fine_grid_factor * _unit_pilot(n, cfg), rel=1e-12)
    assert np.array_equal(res.grid_h1, res.grid_h2)
    want = np.geomspace(res.grid_h1[0], res.grid_h1[-1], 6)
    assert res.grid_h1 == pytest.approx(want, rel=1e-12)
    assert res.h1 in res.grid_h1 and res.h2 in res.grid_h2
    assert res.h3 == pytest.approx(pilot_bandwidth(x, cfg), rel=1e-14)
    assert res.h4 == pytest.approx(pilot_bandwidth(y, cfg), rel=1e-14)


def test_select_bandwidths_window_theorem_rates():
    rng = np.random.default_rng(43)
    x = rng.normal(0.0, 1.0, 50)
    y = rng.normal(1.0, 1.0, 50)
    cfg = _tight_config(boot_iters=10, grid_per_dim=5, fine_grid=False)
    res = select_bandwidths(x, y, 0.5, cfg, seed=0)
    assert res.grid_h1[0] == pytest.approx(50 ** (-cfg.c2), rel=1e-12)
    assert res.grid_h1[-1] == pytest.approx(50 ** (-cfg.c1), rel=1e-12)


def test_select_bandwidths_argmin_is_row_major():
    rng = np.random.default_rng(47)
    x = rng.normal(0.0, 1.0, 40)
    y = rng.normal(1.0, 1.0, 40)
    res = select_bandwidths(x, y, 0.5, _tight_config(), seed=3)
    flat = int(np.argmin(res.err_surface))
    i, j = divmod(flat, res.grid_h2.size)
    assert res.h1 == res.grid_h1[i]
    assert res.h2 == res.grid_h2[j]
    assert res.err_min == res.err_surface[i, j]
    assert res.err_min == res.err_surface.min()


def test_select_bandwidths_tie_takes_first_candidate():
    rng = np.random.default_rng(53)
    x = rng.normal(0.0, 1.0, 30)
    y = rng.normal(1.0, 1.0, 30)
    cfg = _tight_config(boot_iters=15)
    # duplicated candidate values force exact surface ties; the first
    # (smallest-index) cell must win
    gh1, gh2 = np.array([0.5, 0.5]), np.array([0.4, 0.4])
    surface = error_surface(x, y, gh1, gh2, 0.5, cfg, np.random.default_rng(2))
    assert np.all(surface == surface[0, 0])
    i, j = _first_argmin(surface)
    assert (i, j) == (0, 0)
    assert gh1[i] == 0.5 and gh2[j] == 0.4
    assert surface[i, j] == surface[0, 0]


def test_select_bandwidths_nested_grid_monotone():
    """With common random numbers, enlarging the candidate grid can only
    lower the achieved bootstrap minimum."""
    rng = np.random.default_rng(59)
    x = rng.normal(0.0, 1.0, 40)
    y = rng.normal(1.0, 1.0, 40)
    cfg = _tight_config(boot_iters=20)
    small = np.array([0.3, 0.9])
    large = np.array([0.3, 0.6, 0.9, 1.4])
    s_small = error_surface(x, y, small, small, 0.5, cfg, np.random.default_rng(11))
    s_large = error_surface(x, y, large, large, 0.5, cfg, np.random.default_rng(11))
    assert s_large[_first_argmin(s_large)] <= s_small[_first_argmin(s_small)]


def test_select_bandwidths_rng_equivalent_to_seed():
    rng = np.random.default_rng(61)
    x = rng.normal(0.0, 1.0, 30)
    y = rng.normal(1.0, 1.0, 30)
    cfg = _tight_config(boot_iters=10)
    res_seed = select_bandwidths(x, y, 0.5, cfg, seed=9)
    res_rng = select_bandwidths(x, y, 0.5, cfg, rng=np.random.default_rng(9))
    assert res_seed.h1 == res_rng.h1 and res_seed.h2 == res_rng.h2
    assert np.array_equal(res_seed.err_surface, res_rng.err_surface)


def test_select_bandwidths_validation():
    rng = np.random.default_rng(67)
    x = rng.normal(0.0, 1.0, 30)
    y = rng.normal(1.0, 1.0, 30)
    with pytest.raises(ParameterError):
        select_bandwidths(x, y, 0.0)
    with pytest.raises(ParameterError):
        error_surface(x, y, np.array([-0.5]), np.array([0.5]), 0.5, _tight_config())
    with pytest.raises(ParameterError):
        error_surface(x, y, [0.5], [0.5], 1.0, _tight_config())
    # a tiny factor collapses the window below its lower edge
    with pytest.raises(ParameterError):
        select_bandwidths(x, y, 0.5, _tight_config(fine_grid_factor=1e-6))
    # an empty sample or an empty candidate grid
    with pytest.raises(ParameterError, match="nonempty"):
        select_bandwidths(x, [])
    with pytest.raises(ParameterError, match="nonempty"):
        select_bandwidths([], y)
    with pytest.raises(ParameterError, match="nonempty"):
        error_surface(x, y, [0.3], [])
    with pytest.raises(ParameterError, match="nonempty"):
        error_surface(x, y, [], [0.3])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["x", "y"])
def test_non_finite_data_is_a_parameter_error(bad, which):
    rng = np.random.default_rng(68)
    x = rng.normal(0.0, 1.0, 30)
    y = rng.normal(1.0, 1.0, 30)
    (x if which == "x" else y)[7] = bad
    with pytest.raises(ParameterError, match="data must be finite"):
        select_bandwidths(x, y, 0.5, _tight_config())
    with pytest.raises(ParameterError, match="data must be finite"):
        error_surface(x, y, [0.3], [0.4], 0.5, _tight_config())


def test_smoothed_bootstrap_mean_is_the_exact_kde_mean():
    """Statistical oracle for the bootstrap world: a smoothed-bootstrap
    resample has density ftilde exactly, so the replicate mean of fhat* at a
    point estimates E* fhat*(t) = integral K_h(t - y) ftilde(y) dy, which
    kde_mean_var gives by quadrature.  At 41 points across the support the
    mean of 4,000 replicates lies within 4 Monte-Carlo standard errors of
    it; resampling the data without the kernel noise misses by hundreds."""
    rng = np.random.default_rng(0)
    ftilde = KdeEstimate(make_pair("class1a").sample("f", 60, rng), 0.9)
    h, B = 0.4, 4000
    points = np.linspace(ftilde.data[0] - ftilde.h, ftilde.data[-1] + ftilde.h, 41)
    resamples = smoothed_bootstrap(ftilde, 60 * B, rng).reshape(B, 60)
    fstar = _kde_many(resamples, [h], points)[:, 0]
    exact = [kde_mean_var(CustomDensity(ftilde), TRIWEIGHT, h, 60, t)[0] for t in points]
    se = fstar.std(axis=0, ddof=1) / np.sqrt(B)
    assert np.all(np.abs(fstar.mean(axis=0) - exact) <= 4.0 * se)


# ----------------------------------------------------------------------
# cv_err
# ----------------------------------------------------------------------
def test_cv_err_separated_samples_zero():
    rng = np.random.default_rng(71)
    x = rng.normal(0.0, 0.2, 20)
    y = rng.normal(50.0, 0.2, 20)
    assert cv_err(x, y, 0.3, 0.3) == 0.0


def test_cv_err_identical_data_is_total_overfit():
    # scoring each point against its own class's leave-one-out estimate
    # makes identical samples look perfectly separable: the error hits 1
    rng = np.random.default_rng(73)
    x = rng.normal(0.0, 1.0, 25)
    assert cv_err(x, x.copy(), 0.5, 0.5) == 1.0


def test_cv_err_same_distribution_near_half():
    rng = np.random.default_rng(79)
    x = rng.normal(0.0, 1.0, 300)
    y = rng.normal(0.0, 1.0, 300)
    err = cv_err(x, y, 0.35, 0.35)
    assert err == pytest.approx(0.5, abs=0.1)
    assert 0.0 <= err <= 1.0


def test_cv_err_validation():
    with pytest.raises(ParameterError):
        cv_err([1.0], [0.0, 1.0], 0.5, 0.5)
    for p in (0.0, 1.0, 1.5, np.nan):
        with pytest.raises(ParameterError):
            cv_err([0.0, 1.0], [2.0, 3.0], 0.5, 0.5, p=p)


def test_cv_err_one_point_sample_has_no_leave_one_out():
    for x, y in (([1.0], [0.0, 1.0]), ([0.0, 1.0], [1.0])):
        with pytest.raises(ParameterError, match="^leave-one-out needs at least two points$"):
            cv_err(x, y, 0.5, 0.5)
        with pytest.raises(ParameterError, match="^leave-one-out needs at least two points$"):
            _cv_surface(x, y, [0.3, 0.5], [0.5], 0.5)


# the uniform and stepped kernels jump at their support edges, where the
# built-ins vanish
CV_KERNELS = (TRIWEIGHT, BIWEIGHT, EPANECHNIKOV, Kernel("uniform", [Fraction(1, 2)]),
              Kernel("stepped", [Fraction(5, 8), Fraction(-3, 8)]))


@pytest.mark.parametrize("seed", range(4))
def test_cv_surface_equals_dense_loop_on_random_cases(seed):
    """The engine-built surface has the former per-candidate loop's bytes,
    over 60 random cases per seed: every kernel, m != n, tied data (rounded,
    and shared between the samples), 1-30 candidates per axis drawn with
    repeats, and p in (0.05, 0.95)."""
    rng = np.random.default_rng(seed)
    pool = np.geomspace(0.01, 3.0, 40)
    for case in range(60):
        kernel = CV_KERNELS[case % len(CV_KERNELS)]
        m, n = rng.integers(2, 50, size=2)
        x = rng.normal(0.0, 1.0, m)
        y = rng.normal(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0), n)
        if case % 3 == 0:
            x, y = np.round(x, 1), np.concatenate([np.round(y[1:], 1), x[:1]])
        grid_h1, grid_h2 = (rng.choice(pool, rng.integers(1, 31)) for _ in range(2))
        p = rng.uniform(0.05, 0.95)
        got = _cv_surface(x, y, grid_h1, grid_h2, p, kernel)
        want = dense_cv_surface(x, y, p, grid_h1, grid_h2, kernel)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), case


# ----------------------------------------------------------------------
# selector-level distributional properties (slower)
# ----------------------------------------------------------------------
def test_pilot_exceeds_selected_bandwidth_in_theorem_window():
    """Under the fixed-exponent window the candidates top out at n^(-c1),
    which sits well below the pilot's unit scale at benchmark sizes, so the
    fourth-derivative pilot h3 should exceed the selected h1 in at least 90%
    of replicates."""
    pair = make_pair("class1a")
    cfg = SelectorConfig(boot_iters=40, grid_per_dim=10, fine_grid=False)
    n = 100
    wins = 0
    reps = 20
    for rep in range(reps):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((97, rep))))
        x = pair.sample("f", n, rng)
        y = pair.sample("g", n, rng)
        res = select_bandwidths(x, y, pair.p, cfg, rng=rng)
        wins += res.h3 > res.h1
    assert wins >= 0.9 * reps


def test_selected_bandwidth_tracks_optimal_constant():
    """At n = 200 the selected h1 should sit within a factor 2 of the
    asymptotically optimal bandwidth for the opposite-curvature benchmark
    pair (median over replicates, default configuration)."""
    from kdeclass import crossings, optimal_bandwidths

    pair = make_pair("class1a")
    plan = optimal_bandwidths(pair, crossings(pair), n=200)
    cfg = SelectorConfig()
    ratios = []
    for rep in range(21):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((101, rep))))
        x = pair.sample("f", 200, rng)
        y = pair.sample("g", 200, rng)
        res = select_bandwidths(x, y, pair.p, cfg, rng=rng)
        ratios.append(res.h1 / plan.h1)
    med = float(np.median(ratios))
    assert 0.5 <= med <= 2.0
