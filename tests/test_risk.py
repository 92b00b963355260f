"""Risk computations and the excess-risk expansions.

Oracles: scipy quadrature of min(p f, q g) for the optimal risk (the
implementation uses cdf differences split at the crossings), the standard
normal cdf for the symmetric shifted pair, golden-section search next to the
closed-form second-order constant, and frozen full-precision constants for
every benchmark plan.
"""

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from kdeclass import (
    BandwidthPlan,
    CrossingPoint,
    CrossingSet,
    CustomDensity,
    DensityPair,
    Normal,
    NumericError,
    OptimizationError,
    ParameterError,
    RegimeError,
    bayes_risk,
    class1_objective,
    crossings,
    empirical_risk,
    expansion_b1_b2,
    expansion_b3_b4,
    expansion_excess,
    kde_mean_var,
    make_pair,
    multi_optimal_constants,
    multi_t,
    optimal_bandwidths,
    predicted_excess,
)
from kdeclass import risk as risk_module
from kdeclass.kernels import TRIWEIGHT
from kdeclass.risk import PILOT_RATE

# frozen benchmark constants (full precision)
CLASS1A_H = (3.6843591715357515, 2.5446223040013325)
CLASS2B_C1 = 0.653019189032952
CLASS2B_C2 = 1.4932285467536605e-05
CLASS2B_R = 2.5625693023544214
CLASS2B_H = (2.6019627490486554, 4.165229008627262)
CLASS2A_BAYES = 0.3085375387259869  # Phi(-1/2)


@pytest.fixture(scope="module")
def class1a():
    pair = make_pair("class1a")
    return pair, crossings(pair)


@pytest.fixture(scope="module")
def class2a():
    pair = make_pair("class2a")
    return pair, crossings(pair)


@pytest.fixture(scope="module")
def class2b():
    pair = make_pair("class2b")
    return pair, crossings(pair, interval=(-8.0, 8.0))


# ----------------------------------------------------------------------
# bayes_risk
# ----------------------------------------------------------------------
def test_bayes_risk_symmetric_shifted_pair(class2a):
    pair, cs = class2a
    # two equal-width normals a unit apart with equal priors: the optimal
    # risk is the normal tail mass beyond half the separation
    val = bayes_risk(pair)
    assert val == pytest.approx(CLASS2A_BAYES, abs=1e-12)
    assert val == pytest.approx(float(stats.norm.cdf(-0.5)), abs=1e-13)
    # supplying the crossing set changes nothing
    assert bayes_risk(pair, cs=cs) == pytest.approx(val, abs=1e-14)


def test_bayes_risk_matches_quadrature_of_min(class1a):
    pair, cs = class1a
    roots = [pt.y for pt in cs.points]

    def integrand(x):
        return min(pair.p * pair.f.pdf(x), (1 - pair.p) * pair.g.pdf(x))

    want = 0.0
    edges = [-40.0, *roots, 40.0]
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = quad(integrand, a, b, epsabs=1e-12, limit=300)
        want += val
    assert bayes_risk(pair) == pytest.approx(want, abs=1e-9)


def test_bayes_risk_interval(class1a):
    pair, _ = class1a
    val, _ = quad(lambda x: min(pair.p * pair.f.pdf(x),
                                (1 - pair.p) * pair.g.pdf(x)),
                  -2.0, 1.0, epsabs=1e-12, limit=200)
    assert bayes_risk(pair, (-2.0, 1.0)) == pytest.approx(val, abs=1e-9)
    with pytest.raises(ParameterError):
        bayes_risk(pair, (1.0, -1.0))


def _custom_class2a_like():
    """The symmetric shifted pair, but with a cdf-less first density."""
    core = Normal(0.0, 1.0)
    f = CustomDensity(pdf=core.pdf)
    pair = DensityPair(f=f, g=Normal(1.0, 1.0), p=0.5, name="cdfless")
    pt = CrossingPoint(
        y=0.5,
        delta_prime=float(0.5 * core.deriv(1, 0.5) - 0.5 * Normal(1.0, 1.0).deriv(1, 0.5)),
        f_value=float(core.pdf(0.5)),
        g_value=float(core.pdf(0.5)),
        f2=float(core.deriv(2, 0.5)),
        g2=float(core.deriv(2, 0.5)),
        f4=float(core.deriv(4, 0.5)),
        g4=float(core.deriv(4, 0.5)),
    )
    cs = CrossingSet(points=(pt,), interval=(-8.0, 8.0), regime="class2",
                     ratio=1.0, t_factor=0.0)
    return pair, cs


def test_bayes_risk_cdfless_density():
    pair, cs = _custom_class2a_like()
    # finite interval: quadrature route agrees with the cdf route on the
    # identical all-normal pair
    ref_pair = make_pair("class2a")
    got = bayes_risk(pair, (-6.0, 7.0), cs)
    want = bayes_risk(ref_pair, (-6.0, 7.0))
    assert got == pytest.approx(want, abs=1e-7)
    # whole line: the cdf-less side cannot be integrated to infinity
    with pytest.raises(NumericError):
        bayes_risk(pair, None, cs)


# ----------------------------------------------------------------------
# empirical_risk
# ----------------------------------------------------------------------
def test_empirical_risk_deterministic_and_sane(class1a):
    pair, _ = class1a
    rep1 = empirical_risk(pair, 40, 40, 0.5, 0.5, reps=3, seed=11)
    rep2 = empirical_risk(pair, 40, 40, 0.5, 0.5, reps=3, seed=11)
    assert rep1.per_rep == rep2.per_rep
    assert rep1.reps == 3
    assert 0.0 < rep1.err_rule < 1.0
    assert rep1.se > 0.0
    assert rep1.err_bayes == pytest.approx(bayes_risk(pair), abs=1e-12)
    assert rep1.excess == pytest.approx(rep1.err_rule - rep1.err_bayes, abs=0.0)
    assert rep1.err_rule == pytest.approx(np.mean(rep1.per_rep), abs=1e-15)
    # different seed, different draws
    rep3 = empirical_risk(pair, 40, 40, 0.5, 0.5, reps=3, seed=12)
    assert rep3.per_rep != rep1.per_rep


def test_empirical_risk_body_rule_interval(class1a):
    pair, _ = class1a
    rep = empirical_risk(pair, 30, 30, 0.6, 0.6, reps=2, seed=3,
                         rule="body", interval=(-4.0, 3.0))
    assert rep.region == (-4.0, 3.0)
    assert 0.0 < rep.err_rule < 1.0
    assert rep.err_bayes == pytest.approx(bayes_risk(pair, (-4.0, 3.0)), abs=1e-12)


def test_empirical_risk_finds_the_crossings_once_per_pair(monkeypatch):
    # err_bayes needs crossings(pair) at its defaults: found on the first
    # call and kept on the pair, found again once f, g or p is reassigned
    calls = []

    def counted(pair, *args, **kwargs):
        calls.append(pair.p)
        return crossings(pair, *args, **kwargs)

    monkeypatch.setattr(risk_module, "crossings", counted)
    pair = make_pair("class1a")
    first = empirical_risk(pair, 30, 30, 0.5, 0.5, reps=1, seed=0)
    second = empirical_risk(pair, 30, 30, 0.5, 0.5, reps=2, seed=1)
    body = empirical_risk(pair, 30, 30, 0.5, 0.5, reps=1, seed=1, rule="body")
    assert calls == [pair.p]
    fresh = make_pair("class1a")
    assert first.err_bayes == second.err_bayes == bayes_risk(fresh, cs=crossings(fresh))
    assert body.err_bayes == bayes_risk(fresh, body.region, cs=crossings(fresh))
    pair.p = 0.4
    shifted = DensityPair(pair.f, pair.g, 0.4)
    assert bayes_risk(pair) == bayes_risk(shifted, cs=crossings(shifted))
    assert calls == [0.5, 0.4]


def test_empirical_risk_validation(class1a):
    pair, _ = class1a
    with pytest.raises(ParameterError):
        empirical_risk(pair, 30, 30, 0.5, 0.5, reps=2, seed=0,
                       rule="ahat", interval=(-3.0, 3.0))
    with pytest.raises(ParameterError):
        empirical_risk(pair, 30, 30, 0.5, 0.5, reps=0, seed=0)
    with pytest.raises(ParameterError):
        empirical_risk(pair, 0, 30, 0.5, 0.5, reps=2, seed=0)
    with pytest.raises(ParameterError):
        empirical_risk(pair, 30, 30, 0.5, 0.5, reps=2, seed=0, rule="fancy")
    # counts must be whole numbers: reps=1.5 used to run one replicate and
    # return se=nan, and m=2.5 was truncated
    for m, n, reps, name in ((30, 30, 1.5, "reps"), (2.5, 30, 2, "m"),
                             (30, 30.5, 2, "n"), (30, 30, np.nan, "reps")):
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            empirical_risk(pair, m, n, 0.5, 0.5, reps=reps, seed=0)


# ----------------------------------------------------------------------
# expansions
# ----------------------------------------------------------------------
def test_expansion_excess_is_crossing_sum(class1a):
    pair, cs = class1a
    m, n, h1, h2 = 800, 500, 0.3, 0.25
    want = 0.0
    for pt in cs.points:
        mf, vf = kde_mean_var(pair.f, TRIWEIGHT, h1, m, pt.y)
        mg, vg = kde_mean_var(pair.g, TRIWEIGHT, h2, n, pt.y)
        mean = pair.p * mf - (1 - pair.p) * mg
        var = pair.p**2 * vf + (1 - pair.p) ** 2 * vg
        want += 0.5 / abs(pt.delta_prime) * (mean**2 + var)
    got = expansion_excess(pair, cs, m, n, h1, h2)
    assert got == pytest.approx(want, rel=1e-12)
    assert got > 0.0


def test_expansion_excess_approaches_leading_order(class1a):
    # the exact-moment crossing sum and the leading-order formula agree to
    # a few percent once n is moderately large
    pair, cs = class1a
    n = 3000
    h = n ** (-0.2)
    h1, h2 = CLASS1A_H[0] * h, CLASS1A_H[1] * h
    exact = expansion_excess(pair, cs, n, n, h1, h2)
    leading = predicted_excess(pair, cs, n, n, h1, h2)
    assert exact == pytest.approx(leading, rel=0.10)


def test_predicted_excess_matches_b1_b2_scaling(class1a):
    pair, cs = class1a
    H1, H2, r, n = 1.3, 0.8, 2.0, 500
    b1, b2 = expansion_b1_b2(pair, cs, H1, H2, r=r)
    h = n ** (-0.2)
    want = b1 / (n * h) + b2 * h**4
    got = predicted_excess(pair, cs, int(r * n), n, H1 * h, H2 * h)
    assert got == pytest.approx(want, rel=1e-12)


def test_class1_objective_is_twice_b1_plus_b2(class1a):
    pair, cs = class1a
    obj = class1_objective(pair, cs, r=1.5)
    b1, b2 = expansion_b1_b2(pair, cs, 2.0, 3.0, r=1.5)
    assert obj(2.0, 3.0) == pytest.approx(2.0 * (b1 + b2), rel=1e-14)


def test_expansion_validation(class1a):
    pair, cs = class1a
    empty = CrossingSet(points=(), interval=(0.0, 1.0), regime=None)
    with pytest.raises(ParameterError):
        expansion_b1_b2(pair, empty, 1.0, 1.0)
    with pytest.raises(ParameterError):
        expansion_b1_b2(pair, cs, -1.0, 1.0)
    with pytest.raises(ParameterError):
        expansion_b1_b2(pair, cs, 1.0, 1.0, r=0.0)
    with pytest.raises(ParameterError):
        predicted_excess(pair, cs, 100, 100, 0.0, 0.5)


def test_expansion_b3_b4_frozen_constants(class2b):
    pair, cs = class2b
    c1, c2, R = expansion_b3_b4(pair, cs)
    assert c1 == pytest.approx(CLASS2B_C1, rel=1e-9)
    assert c2 == pytest.approx(CLASS2B_C2, rel=1e-9)
    assert R == pytest.approx(CLASS2B_R, rel=1e-9)


def test_expansion_b3_b4_needs_class2(class1a):
    pair, cs = class1a
    with pytest.raises(RegimeError):
        expansion_b3_b4(pair, cs)


# ----------------------------------------------------------------------
# optimal_bandwidths
# ----------------------------------------------------------------------
def test_optimal_bandwidths_class1a(class1a):
    pair, cs = class1a
    plan = optimal_bandwidths(pair, cs, n=200)
    assert plan.regime == "class1"
    assert not plan.degenerate
    assert plan.rho == 0.2
    assert plan.H1 == pytest.approx(CLASS1A_H[0], rel=1e-6)
    assert plan.H2 == pytest.approx(CLASS1A_H[1], rel=1e-6)
    assert plan.h1 == pytest.approx(plan.H1 * 200 ** (-0.2), rel=1e-14)
    assert plan.h2 == pytest.approx(plan.H2 * 200 ** (-0.2), rel=1e-14)
    # a genuine local minimum of the objective
    obj = class1_objective(pair, cs)
    base = obj(plan.H1, plan.H2)
    for d1, d2 in ((1.01, 1.0), (0.99, 1.0), (1.0, 1.01), (1.0, 0.99)):
        assert obj(plan.H1 * d1, plan.H2 * d2) >= base - 1e-12


def test_optimal_bandwidths_class2b_closed_form(class2b):
    pair, cs = class2b
    plan = optimal_bandwidths(pair, cs, n=300)
    assert plan.regime == "class2"
    assert not plan.degenerate
    assert plan.rho == pytest.approx(1.0 / 9.0, abs=0.0)
    assert plan.H1 == pytest.approx(CLASS2B_H[0], rel=1e-9)
    assert plan.H2 == pytest.approx(CLASS2B_H[1], rel=1e-9)
    assert plan.H2 == pytest.approx(np.sqrt(cs.ratio) * plan.H1, rel=1e-12)
    assert plan.h1 == pytest.approx(plan.H1 * 300 ** (-1.0 / 9.0), rel=1e-14)


def test_class2b_closed_form_against_golden_section(class2b):
    pair, cs = class2b
    c1, c2, _R = expansion_b3_b4(pair, cs)
    res = minimize_scalar(lambda H: c1 / H + c2 * H**8,
                          bracket=(0.5, 2.0, 8.0), method="golden",
                          options={"xtol": 1e-12})
    closed = (c1 / (8.0 * c2)) ** (1.0 / 9.0)
    assert closed == pytest.approx(res.x, rel=1e-6)
    plan = optimal_bandwidths(pair, cs, n=300)
    assert plan.H1 == pytest.approx(res.x, rel=1e-6)


def test_optimal_bandwidths_class2a_degenerate(class2a):
    pair, cs = class2a
    plan = optimal_bandwidths(pair, cs, n=150)
    assert plan.regime == "class2"
    assert plan.degenerate
    assert plan.rho == pytest.approx(1.0 / 13.0, abs=0.0)
    assert plan.H1 == 1.0
    assert plan.H2 == pytest.approx(1.0, abs=1e-8)
    assert plan.h1 == pytest.approx(150 ** (-1.0 / 13.0), rel=1e-12)
    assert plan.sigma == PILOT_RATE == pytest.approx(1.0 / 13.0, abs=0.0)


def test_optimal_bandwidths_validation(class1a):
    pair, cs = class1a
    with pytest.raises(ParameterError):
        optimal_bandwidths(pair, cs, n=0)
    with pytest.raises(ParameterError):
        optimal_bandwidths(pair, cs, n=100, r=-1.0)


# ----------------------------------------------------------------------
# several populations
# ----------------------------------------------------------------------
def test_multi_t_two_populations_collapses_to_b1_b2(class1a):
    pair, cs = class1a
    roots = [pt.y for pt in cs.points]
    models = [(pair.f, pair.p), (pair.g, 1.0 - pair.p)]
    H1, H2, r = 1.7, 0.9, 2.5
    b1, b2 = expansion_b1_b2(pair, cs, H1, H2, r=r)
    got = multi_t(models, {(0, 1): roots}, H=(H1, H2), r=(r, 1.0))
    assert got == pytest.approx(b1 + b2, rel=1e-10)


def test_multi_optimal_constants_match_pairwise_plan(class1a):
    pair, cs = class1a
    roots = [pt.y for pt in cs.points]
    models = [(pair.f, pair.p), (pair.g, 1.0 - pair.p)]
    plan = optimal_bandwidths(pair, cs, n=100)
    H = multi_optimal_constants(models, {(0, 1): roots}, r=(1.0, 1.0))
    assert H[0] == pytest.approx(plan.H1, rel=1e-5)
    assert H[1] == pytest.approx(plan.H2, rel=1e-5)


def test_multi_t_validation(class1a):
    pair, cs = class1a
    roots = [pt.y for pt in cs.points]
    models = [(pair.f, pair.p), (pair.g, 1.0 - pair.p)]
    ones = (1.0, 1.0)
    with pytest.raises(ParameterError):
        multi_t([(pair.f, 1.0)], {(0, 1): roots}, (1.0,), (1.0,))  # one population
    with pytest.raises(ParameterError):
        multi_t(models, {(1, 0): roots}, ones, ones)      # key order
    with pytest.raises(ParameterError):
        multi_t(models, {(0, 2): roots}, ones, ones)      # index out of range
    with pytest.raises(ParameterError):
        multi_t(models, {}, ones, ones)                   # empty table
    with pytest.raises(ParameterError):
        multi_t(models, {(0, 1): [roots[0], roots[0]]}, ones, ones)  # duplicates
    with pytest.raises(ParameterError):
        multi_t(models, {(0, 1): [0.9]}, ones, ones)      # not a crossing
    with pytest.raises(ParameterError):
        multi_t(models, {(0, 1): roots}, (1.0, -1.0), ones)  # bad H
    with pytest.raises(ParameterError):
        multi_t(models, {(0, 1): roots}, ones, (1.0,))    # bad r shape
    bad_priors = [(pair.f, 0.7), (pair.g, 0.7)]
    with pytest.raises(ParameterError):
        multi_t(bad_priors, {(0, 1): roots}, ones, ones)
    # a NaN prior fails every comparison and an infinite one makes the sum
    # infinite; both are rejected before any optimisation starts
    for bad in (np.nan, np.inf):
        priors = [(pair.f, bad), (pair.g, 0.5)]
        with pytest.raises(ParameterError):
            multi_t(priors, {(0, 1): roots}, ones, ones)
        with pytest.raises(ParameterError):
            multi_optimal_constants(priors, {(0, 1): roots}, r=ones)


def test_multi_t_zero_slope_crossing():
    same = Normal(0.0, 1.0)
    models = [(same, 0.5), (same, 0.5)]
    # y = 0 is a crossing of the identical densities but the slope vanishes
    with pytest.raises(ParameterError):
        multi_t(models, {(0, 1): [0.0]}, (1.0, 1.0), (1.0, 1.0))


def test_multi_t_three_population_symmetry():
    # three unit normals at -d, 0, d with equal priors: the objective is
    # invariant under the reflection that swaps the outer populations
    d = 1.6
    models = [(Normal(-d, 1.0), 1 / 3), (Normal(0.0, 1.0), 1 / 3),
              (Normal(d, 1.0), 1 / 3)]
    table = {(0, 1): [-d / 2], (1, 2): [d / 2], (0, 2): [0.0]}
    va = multi_t(models, table, (1.2, 0.9, 1.5), (1.0, 1.0, 1.0))
    vb = multi_t(models, table, (1.5, 0.9, 1.2), (1.0, 1.0, 1.0))
    assert va == pytest.approx(vb, rel=1e-12)
    assert va > 0.0
