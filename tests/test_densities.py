"""Densities, benchmark pairs, and crossing analysis.

Oracles: scipy.stats for the classical distributions, scipy.special.ndtr
for the normal cdf into its tail, central finite differences for the
analytic derivatives, and independent Brent root refinement at full
precision for the crossing locations and the pooled quantiles.  Crossing
locations and local curvatures of the benchmark pairs are also frozen at
full precision so any drift in the density definitions is caught
immediately.
"""

import dataclasses

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtr

from kdeclass import (
    Cauchy,
    CrossingPoint,
    CustomDensity,
    DegenerateCrossingError,
    DensityPair,
    Normal,
    NormalMixture,
    NumericError,
    PAIR_IDS,
    ParameterError,
    Pareto,
    ResolutionError,
    bayes_risk,
    crossings,
    make_pair,
    regime_detect,
)
from kdeclass import densities as densities_module

# frozen benchmark geometry: crossing locations of p f - (1-p) g and the
# local curvatures there, at roots found to the last float
CLASS1A_ROOTS = (-3.231577984023307, -0.5184220159766931)
CLASS1B_ROOT = 0.7066568524159268
CLASS2B_ROOT = 1.8512291248772523
CLASS1A_CURV = (-0.25504005223407494, 0.28135994962958993)   # f'', g'' at upper root
CLASS1B_CURV = (-0.15559539077062506, 0.32705381496825225)
CLASS2A_CURV = -0.2640489950732016                           # shared by f and g
CLASS2B_CURV = (0.1745076077045573, 0.0680986881176025)
CLASS2B_RATIO = 2.562569302409949
#: a few units in the last place, relative
ULPS = 4 * np.finfo(float).eps


def _fd(fn, x, order, step):
    """Central finite difference of `fn` of the given order at x."""
    if order == 0:
        return fn(x)
    return (_fd(fn, x + step, order - 1, step)
            - _fd(fn, x - step, order - 1, step)) / (2 * step)


def _fd_richardson(fn, x, order, step):
    """Richardson-extrapolated central difference: cancels the O(step^2)
    truncation term, which matters for high orders of heavy-tailed pdfs."""
    return (4.0 * _fd(fn, x, order, step) - _fd(fn, x, order, 2.0 * step)) / 3.0


# ----------------------------------------------------------------------
# individual densities
# ----------------------------------------------------------------------
def test_normal_matches_scipy():
    d = Normal(0.7, 1.3)
    xs = np.linspace(-4, 5, 23)
    assert d.pdf(xs) == pytest.approx(stats.norm.pdf(xs, 0.7, 1.3), abs=1e-14)
    assert d.cdf(xs) == pytest.approx(stats.norm.cdf(xs, 0.7, 1.3), abs=1e-14)
    assert d.ppf(0.31) == pytest.approx(stats.norm.ppf(0.31, 0.7, 1.3), abs=1e-12)


def test_normal_cdf_matches_ndtr_into_the_tail():
    # the rounding of z / sqrt(2) is amplified by about z^2 in the relative
    # error of the tail, so the bound grows with z^2
    z = np.linspace(-37.0, 9.0, 46001)
    got = Normal(0.0, 1.0).cdf(z)
    want = ndtr(z)
    assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * (1.0 + z * z) * want)
    assert Normal(0.0, 1.0).cdf(np.inf) == 1.0 and Normal(0.0, 1.0).cdf(-np.inf) == 0.0
    assert np.isnan(Normal(0.0, 1.0).cdf(np.nan))
    assert type(Normal(0.0, 1.0).cdf(0.3)) is float
    grid = z[:46000].reshape(46, 1000)
    assert np.array_equal(Normal(0.0, 1.0).cdf(grid), got[:46000].reshape(46, 1000))


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_normal_derivatives_finite_difference(order):
    d = Normal(-0.4, 0.9)
    for x in (-1.7, 0.0, 0.8, 2.3):
        ref = _fd_richardson(d.pdf, x, order, 3e-3)
        assert d.deriv(order, x) == pytest.approx(ref, rel=2e-5, abs=2e-6)


def test_normal_validation_and_sampling():
    with pytest.raises(ParameterError):
        Normal(0.0, 0.0)
    for order in (5, -1, 2.5, "2", float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ParameterError):
            Normal(0.0, 1.0).deriv(order, 0.0)
    with pytest.raises(ParameterError):
        Normal(0.0, 1.0).ppf(1.0)
    draws = Normal(2.0, 0.5).sample(20_000, np.random.default_rng(0))
    assert abs(draws.mean() - 2.0) < 5 * 0.5 / np.sqrt(draws.size)


def test_mixture_is_weighted_sum():
    mix = NormalMixture((0.3, 0.7), (0.0, 1.5), (1.0, 0.5))
    xs = np.linspace(-3, 4, 17)
    want = 0.3 * stats.norm.pdf(xs) + 0.7 * stats.norm.pdf(xs, 1.5, 0.5)
    assert mix.pdf(xs) == pytest.approx(want, abs=1e-14)
    for order in (1, 2, 4):
        want_d = (0.3 * Normal(0.0, 1.0).deriv(order, xs)
                  + 0.7 * Normal(1.5, 0.5).deriv(order, xs))
        assert mix.deriv(order, xs) == pytest.approx(want_d, abs=1e-13)
    assert mix.cdf(0.9) == pytest.approx(
        0.3 * stats.norm.cdf(0.9) + 0.7 * stats.norm.cdf(0.9, 1.5, 0.5), abs=1e-14)


def test_mixture_validation_and_sampling():
    with pytest.raises(ParameterError):
        NormalMixture((0.5, 0.6), (0, 1), (1, 1))       # weights sum > 1
    with pytest.raises(ParameterError):
        NormalMixture((1.0,), (0, 1), (1, 1))           # length mismatch
    mix = NormalMixture((0.5, 0.5), (-2.0, 2.0), (0.3, 0.3))
    draws = mix.sample(10_000, np.random.default_rng(5))
    assert draws.size == 10_000
    # roughly half the mass on each side of zero
    frac = np.mean(draws > 0)
    assert abs(frac - 0.5) < 5 * 0.5 / np.sqrt(draws.size)


def test_cauchy_matches_scipy():
    d = Cauchy(0.5, 2.0)
    xs = np.linspace(-6, 7, 19)
    assert d.pdf(xs) == pytest.approx(stats.cauchy.pdf(xs, 0.5, 2.0), abs=1e-14)
    assert d.cdf(xs) == pytest.approx(stats.cauchy.cdf(xs, 0.5, 2.0), abs=1e-14)
    assert d.ppf(0.8) == pytest.approx(stats.cauchy.ppf(0.8, 0.5, 2.0), rel=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_cauchy_derivatives_finite_difference(order):
    d = Cauchy()
    for x in (-2.1, -0.3, 0.0, 1.4):
        ref = _fd_richardson(d.pdf, x, order, 2e-3)
        assert d.deriv(order, x) == pytest.approx(ref, rel=2e-5, abs=2e-6)


def test_pareto_analytics():
    d = Pareto(2.5)
    mass, _ = quad(d.pdf, 1.0, np.inf, epsabs=1e-12)
    assert mass == pytest.approx(1.0, abs=1e-9)
    assert d.cdf(2.0) == pytest.approx(1.0 - 2.0 ** (-1.5), abs=1e-14)
    assert d.pdf(0.5) == 0.0 and d.cdf(0.5) == 0.0
    assert d.ppf(d.cdf(3.0)) == pytest.approx(3.0, rel=1e-12)
    for order in (1, 2, 3, 4):
        ref = _fd_richardson(d.pdf, 2.5, order, 1e-3)
        assert d.deriv(order, 2.5) == pytest.approx(ref, rel=2e-5)
    # survival form: alpha = 2 puts exactly half the mass beyond 2
    assert Pareto(2.0).cdf(2.0) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ParameterError):
        Pareto(1.0)
    draws = Pareto(2.0).sample(5000, np.random.default_rng(2))
    assert np.all(draws >= 1.0)
    assert abs(np.mean(draws > 2.0) - 0.5) < 5 * 0.5 / np.sqrt(5000)


def test_ppf_past_the_float_range_raises_numeric_error():
    # Pareto's closed form is 0.01 ** -1000 in Python floats, which overflows
    with pytest.raises(NumericError, match="quantile is not a finite float"):
        Pareto(1.001).ppf(0.99)
    assert Pareto(1.5).ppf(0.99) == pytest.approx(1e4, rel=1e-12)
    for value in (np.inf, np.nan):
        with pytest.raises(NumericError):
            CustomDensity(lambda x: np.zeros_like(x), ppf=lambda q, v=value: v).ppf(0.5)


def test_custom_density_adapter():
    d = CustomDensity(lambda x: np.exp(-np.abs(x)) / 2.0,
                      cdf=lambda x: np.where(x < 0, 0.5 * np.exp(x),
                                             1.0 - 0.5 * np.exp(-x)))
    assert d.pdf(0.0) == pytest.approx(0.5)
    assert d.cdf(0.0) == pytest.approx(0.5)
    assert d.ppf(0.5) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ParameterError):
        d.deriv(1, 0.0)
    with pytest.raises(ParameterError):
        d.sample(3, np.random.default_rng(0))
    bare = CustomDensity(lambda x: np.exp(-np.abs(x)) / 2.0)
    with pytest.raises(ParameterError):
        bare.cdf(0.0)


def test_custom_density_support_edges_may_be_infinite():
    pdf = Normal(0.0, 1.0).pdf
    assert CustomDensity(pdf).support == (-np.inf, np.inf)
    assert CustomDensity(pdf, support=(0, np.inf)).support == (0.0, np.inf)
    assert CustomDensity(pdf, support=(-np.inf, np.float64(2.5))).support == (-np.inf, 2.5)


def _laplace():
    return CustomDensity(lambda x: np.exp(-np.abs(x)) / 2.0,
                         derivs=(lambda x: -np.sign(x) * np.exp(-np.abs(x)) / 2.0,),
                         cdf=lambda x: np.where(x < 0, 0.5 * np.exp(x),
                                                1.0 - 0.5 * np.exp(-x)),
                         ppf=lambda q: -np.sign(q - 0.5) * np.log1p(-abs(2.0 * q - 1.0)))


@pytest.mark.parametrize("density", [
    Normal(0.3, 1.2), NormalMixture((0.4, 0.6), (0.0, 1.0), (1.0, 0.5)),
    Cauchy(0.5, 2.0), Pareto(2.5), _laplace()],
    ids=["Normal", "NormalMixture", "Cauchy", "Pareto", "CustomDensity"])
def test_argument_contract(density):
    # the base class turns x into a float array and returns a float for
    # scalar input, whatever the subclass formula returns
    orders = (0, 1) if isinstance(density, CustomDensity) else range(5)
    xs = np.linspace(0.5, 3.0, 6).reshape(2, 3)
    for fn in [density.cdf] + [lambda x, k=k: density.deriv(k, x) for k in orders]:
        for x in (1.5, 2, np.float64(1.5)):
            assert type(fn(x)) is float
        out = fn(xs)
        assert isinstance(out, np.ndarray) and out.shape == xs.shape
        assert out[1, 0] == pytest.approx(fn(float(xs[1, 0])), rel=1e-14)
    assert type(density.ppf(0.3)) is float
    for q in (0.0, 1.0, -0.2, 1.5, float("nan")):
        with pytest.raises(ParameterError):
            density.ppf(q)


def test_cdf_inversion_that_cannot_bracket_raises_numeric_error():
    # a cdf stuck at 0.25 never rises above 0.5 (nor the pooled one above 0.9)
    stuck = CustomDensity(lambda x: np.zeros_like(x),
                          cdf=lambda x: np.full_like(x, 0.25, dtype=float))
    with pytest.raises(NumericError):
        stuck.ppf(0.5)
    with pytest.raises(NumericError):
        DensityPair(Normal(0.0, 1.0), stuck, 0.5).pooled_ppf(0.9)


# ----------------------------------------------------------------------
# pairs
# ----------------------------------------------------------------------
def test_make_pair_ids_and_validation():
    assert set(PAIR_IDS) == {"class1a", "class1b", "class2a", "class2b",
                             "pareto", "contrast"}
    for pid in ("class1a", "class1b", "class2a", "class2b", "contrast"):
        pair = make_pair(pid)
        assert pair.p == 0.5 and pair.name == pid
    with pytest.raises(ParameterError):
        make_pair("nope")
    with pytest.raises(ParameterError):
        make_pair("pareto")                        # missing shapes
    with pytest.raises(ParameterError):
        make_pair("pareto", alpha=2.0, beta=3.5)   # beta >= alpha + 1
    with pytest.raises(ParameterError):
        make_pair("pareto", alpha=2.5, beta=2.0)   # beta <= alpha
    pp = make_pair("pareto", alpha=2.0, beta=2.5)
    assert (pp.f.alpha, pp.g.alpha) == (2.0, 2.5)
    assert pp.p == 0.5
    assert make_pair("pareto", alpha=2.0, beta=2.5, p=0.3).p == 0.3


@pytest.mark.parametrize("pid", ["class1a", "class1b", "class2a", "class2b", "contrast"])
@pytest.mark.parametrize("keyword", [{"p": 0.3}, {"alpha": 5.0}, {"beta": 2.5}])
def test_make_pair_rejects_keywords_the_pair_does_not_take(pid, keyword):
    with pytest.raises(ParameterError, match="takes no alpha, beta or p"):
        make_pair(pid, **keyword)


def test_pair_delta_and_pooled():
    pair = make_pair("class1a")
    xs = np.linspace(-4, 3, 11)
    want = 0.5 * pair.f.pdf(xs) - 0.5 * pair.g.pdf(xs)
    assert pair.delta(xs) == pytest.approx(want, abs=1e-15)
    assert pair.delta_deriv(2, 0.3) == pytest.approx(
        0.5 * pair.f.deriv(2, 0.3) - 0.5 * pair.g.deriv(2, 0.3), abs=1e-15)
    q = pair.pooled_ppf(0.25)
    assert pair.pooled_cdf(q) == pytest.approx(0.25, abs=1e-10)
    with pytest.raises(ParameterError):
        pair.density("h")
    with pytest.raises(ParameterError):
        DensityPair(pair.f, pair.g, 1.0)


@pytest.mark.parametrize("pair_id", PAIR_IDS)
def test_pooled_ppf_matches_brent(pair_id):
    pair = (make_pair(pair_id, alpha=2.0, beta=2.5) if pair_id == "pareto"
            else make_pair(pair_id))
    lo = 1.0 if pair_id == "pareto" else -1e4
    for q in (1e-4, 0.25, 0.5, 1.0 - 1e-4):
        x = pair.pooled_ppf(q)
        ref = brentq(lambda v: pair.pooled_cdf(v) - q, lo, 1e12, xtol=1e-14, rtol=ULPS,
                     maxiter=500)
        # near q = 1 the float cdf is flat over about ulp(q) / pdf: every x
        # there solves cdf(x) = q equally well
        flat = 4 * np.spacing(q) / (pair.p * pair.f.pdf(x) + (1 - pair.p) * pair.g.pdf(x))
        assert abs(x - ref) <= 1e-12 + 1e-14 * abs(x) + flat, (q, x, ref)


def test_pair_density_dispatch():
    pair = make_pair("class2a")
    assert pair.density("f") is pair.f and pair.density("g") is pair.g
    assert pair.density("f").deriv(2, 0.5) == pytest.approx(CLASS2A_CURV, abs=1e-12)


# ----------------------------------------------------------------------
# crossings
# ----------------------------------------------------------------------
def _brent_roots(pair, brackets):
    """Brent's method at full precision: the smallest xtol and rtol it takes."""
    return [brentq(pair.delta, a, b, xtol=1e-300, rtol=ULPS, maxiter=500)
            for a, b in brackets]


def _curvatures(pair, y):
    return (pair.f.deriv(2, y), pair.g.deriv(2, y))


def test_class1a_crossings_frozen_and_brent():
    pair = make_pair("class1a")
    cs = crossings(pair)
    ys = [pt.y for pt in cs.points]
    assert ys == pytest.approx(CLASS1A_ROOTS, rel=ULPS, abs=0.0)
    # closed-form upper root of 0.64 y^2 + 2.4 y + 1.44 - 0.72 ln(5/3) = 0
    closed = (-15.0 + np.sqrt(81.0 + 72.0 * np.log(5.0 / 3.0))) / 8.0
    assert CLASS1A_ROOTS[1] == pytest.approx(closed, rel=ULPS, abs=0.0)
    assert CLASS1A_CURV == pytest.approx(_curvatures(pair, closed), abs=1e-14)
    # independent refinement of the same zeros
    ref = _brent_roots(pair, [(-3.5, -3.0), (-1.0, 0.0)])
    assert ys == pytest.approx(ref, rel=ULPS, abs=0.0)
    assert cs.regime == "class1"
    assert cs.ratio is None and cs.t_factor is None
    upper = cs.points[1]
    assert upper.f2 == pytest.approx(CLASS1A_CURV[0], abs=1e-12)
    assert upper.g2 == pytest.approx(CLASS1A_CURV[1], abs=1e-12)
    # stored local values match direct evaluation
    assert upper.delta_prime == pytest.approx(pair.delta_deriv(1, upper.y), abs=1e-12)
    assert upper.f_value == pytest.approx(pair.f.pdf(upper.y), abs=1e-15)


def test_crossings_at_the_defaults_are_kept_on_the_pair(monkeypatch):
    pair = make_pair("class1a")
    cs = crossings(pair)
    assert crossings(pair) is cs
    assert crossings(pair, grid_points=4096.0) is cs  # the default's value
    # an explicit interval or grid is searched afresh, every time
    for kwargs in ({"interval": cs.interval}, {"grid_points": 2048}):
        again = crossings(pair, **kwargs)
        assert again is not cs and again is not crossings(pair, **kwargs)
        assert again.points == cs.points
    assert crossings(pair) is cs
    # another pair of the same id keeps its own set; bayes_risk uses the
    # kept one and searches for no root
    fresh = make_pair("class1a")
    assert crossings(fresh) is not cs
    calls = []
    bisect = densities_module._bisect
    monkeypatch.setattr(densities_module, "_bisect",
                        lambda *args: calls.append(args) or bisect(*args))
    assert bayes_risk(pair) == bayes_risk(fresh, cs=cs)
    assert calls == []
    other = make_pair("class1b")
    crossings(other)
    assert len(calls) == 3  # the two pooled quantiles and one crossing
    bayes_risk(other)
    assert len(calls) == 3


def test_class1b_crossing_unique_on_wide_interval():
    pair = make_pair("class1b")
    cs = crossings(pair, interval=(-4.0, 5.0))
    assert cs.nu == 1
    assert cs.points[0].y == pytest.approx(CLASS1B_ROOT, rel=ULPS, abs=0.0)
    (ref,) = _brent_roots(pair, [(0.5, 1.0)])
    assert CLASS1B_ROOT == pytest.approx(ref, rel=ULPS, abs=0.0)
    assert CLASS1B_CURV == pytest.approx(_curvatures(pair, ref), abs=1e-14)
    assert cs.points[0].f2 == pytest.approx(CLASS1B_CURV[0], abs=1e-12)
    assert cs.points[0].g2 == pytest.approx(CLASS1B_CURV[1], abs=1e-12)
    assert cs.regime == "class1"


def test_class2a_crossing_exact_midpoint():
    pair = make_pair("class2a")
    cs = crossings(pair)
    assert cs.nu == 1
    assert cs.points[0].y == pytest.approx(0.5, abs=1e-10)
    assert cs.regime == "class2"
    assert cs.ratio == pytest.approx(1.0, abs=1e-9)
    assert abs(cs.t_factor) < 1e-12      # degenerate: fourth-order factor gone
    assert cs.points[0].f2 == pytest.approx(CLASS2A_CURV, abs=1e-12)


def test_class2b_symmetric_crossings():
    pair = make_pair("class2b")
    cs = crossings(pair)
    ys = [pt.y for pt in cs.points]
    assert ys == pytest.approx([-CLASS2B_ROOT, CLASS2B_ROOT], rel=ULPS, abs=0.0)
    ref = _brent_roots(pair, [(-2.0, -1.5), (1.5, 2.0)])
    assert [-CLASS2B_ROOT, CLASS2B_ROOT] == pytest.approx(ref, rel=ULPS, abs=0.0)
    assert CLASS2B_CURV == pytest.approx(_curvatures(pair, ref[1]), abs=1e-14)
    assert cs.regime == "class2"
    assert cs.ratio == pytest.approx(CLASS2B_RATIO, rel=1e-9)
    assert cs.t_factor == pytest.approx(-0.5845927398627577, rel=1e-9)
    assert cs.points[1].f2 == pytest.approx(CLASS2B_CURV[0], abs=1e-12)
    assert cs.points[1].g2 == pytest.approx(CLASS2B_CURV[1], abs=1e-12)


def test_crossing_interval_and_validation():
    pair = make_pair("class1a")
    cs = crossings(pair, interval=(-1.0, 0.0))
    assert cs.nu == 1 and cs.interval == (-1.0, 0.0)
    with pytest.raises(ParameterError):
        crossings(pair, interval=(1.0, -1.0))
    with pytest.raises(ParameterError):
        crossings(pair, grid_points=4)


@pytest.mark.parametrize("interval, grid_points", [
    ((0.5, 2.0), 8),     # the zero is the first node
    ((0.0, 1.0), 9),     # an interior node
    ((-1.0, 0.5), 8),    # the last node
], ids=["first", "interior", "last"])
def test_crossing_on_a_scan_node(interval, grid_points):
    pair = make_pair("class2a")
    assert pair.delta(0.5) == 0.0
    assert np.linspace(*interval, grid_points).tolist().count(0.5) == 1
    cs = crossings(pair, interval=interval, grid_points=grid_points)
    assert [pt.y for pt in cs.points] == [0.5]
    assert cs.points[0].delta_prime == pair.delta_deriv(1, 0.5)


def test_tangent_node_zero_raises_resolution_error():
    # g = f + 0.1 (x - 1/2)^2 exp(-x^2): delta <= 0 touches zero at the node 0.5
    f = Normal(0.0, 1.0)
    g = CustomDensity(lambda x: f.pdf(x) + 0.1 * (x - 0.5) ** 2 * np.exp(-x * x))
    with pytest.raises(ResolutionError, match="tangent zero"):
        crossings(DensityPair(f, g, 0.5), interval=(0.0, 1.0), grid_points=9)


def test_identical_densities_degenerate():
    pair = DensityPair(Normal(0.0, 1.0), Normal(0.0, 1.0), 0.5)
    # delta vanishes identically: no transversal crossing exists anywhere
    with pytest.raises(DegenerateCrossingError):
        crossings(pair, interval=(-1.0, 1.0))


def test_regime_detect_rules():
    pair = make_pair("class2b")
    pts = crossings(pair).points
    assert regime_detect(pair, pts)[0] == "class2"
    # one opposite-curvature point forces class1
    flipped = pts + (CrossingPoint(y=9.0, delta_prime=1.0, f_value=0.1,
                                   g_value=0.1, f2=-1.0, g2=1.0, f4=0.0, g4=0.0),)
    assert regime_detect(pair, flipped)[0] == "class1"
    # same-sign curvatures with unequal ratios also force class1
    unequal = pts + (CrossingPoint(y=9.0, delta_prime=1.0, f_value=0.1,
                                   g_value=0.1, f2=1.0, g2=1.0, f4=0.0, g4=0.0),)
    assert regime_detect(pair, unequal)[0] == "class1"
    # a third crossing whose ratio is just inside or just outside
    # _RATIO_RTOL = 1e-6 of the first's (p = 1/2, so the ratio is f2 / g2)
    r0 = regime_detect(pair, pts)[1]
    for rel, regime in ((0.5e-6, "class2"), (-0.5e-6, "class2"),
                        (2e-6, "class1"), (-2e-6, "class1")):
        third = CrossingPoint(y=9.0, delta_prime=1.0, f_value=0.1, g_value=0.1,
                              f2=r0 * (1.0 + rel), g2=1.0, f4=0.0, g4=0.0)
        assert regime_detect(pair, pts + (third,))[0] == regime
    # the second crossing's curvature of the first population flipped
    second = dataclasses.replace(pts[1], f2=-pts[1].f2)
    assert regime_detect(pair, (pts[0], second))[0] == "class1"
    with pytest.raises(ParameterError):
        regime_detect(pair, ())
    flat = (CrossingPoint(y=0.0, delta_prime=1.0, f_value=0.1, g_value=0.1,
                          f2=0.0, g2=0.0, f4=1.0, g4=1.0),)
    with pytest.raises(DegenerateCrossingError):
        regime_detect(pair, flat)
