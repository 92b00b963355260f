"""The argument validators of `kdeclass.errors`, and one table of bad
arguments at every site that uses them.

Each row of the table passes one bad value to one argument of one public
function (or of a private one the selector and risk code rely on) and
expects ParameterError with a message that begins with the argument's name.
Every numeric kind of argument is tried with NaN, +inf and -inf; positive
values also with 0 and a negative value, priors with 0, a negative value
and 1, and counts with the value just below their minimum, -1 and a
non-whole value above the minimum.  Names from a fixed set are tried with
one that is not in it.  The other arguments are small, so that a call
which wrongly accepts its bad value still returns quickly.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from kdeclass import (
    TRIWEIGHT,
    Cauchy,
    CustomDensity,
    DensityPair,
    ExperimentConfig,
    KdeEstimate,
    Kernel,
    Normal,
    NormalMixture,
    ParameterError,
    Pareto,
    SelectorConfig,
    bayes_risk,
    class1_objective,
    classify_multi,
    classify_multivariate,
    classify_tail,
    crossings,
    cv_err,
    decision_segments,
    empirical_risk,
    error_surface,
    expansion_b1_b2,
    expansion_b3_b4,
    fit_classifier,
    kde_mean_var,
    make_pair,
    multi_t,
    multivariate_norm_constant,
    normal_deriv_roughness,
    optimal_bandwidths,
    pilot_bandwidth,
    predicted_excess,
    run_cv_comparison,
    run_tail_study,
    sample_scale,
    select_bandwidths,
    smoothed_bootstrap,
)
from kdeclass.errors import (_require_finite, _require_integers, _require_open_unit,
                             _require_positive)
from kdeclass.kde import _kde_many

NAN, INF = math.nan, math.inf


# ----------------------------------------------------------------------
# the validators
# ----------------------------------------------------------------------
def test_require_integers_accepts_whole_numbers_only():
    _require_integers(a=30, b=30.0, c=np.int64(30), d=np.float64(30.0), e=2**80)
    for bad in (30.5, NAN, INF, -INF):
        with pytest.raises(ParameterError, match="^x must be an integer$"):
            _require_integers(x=bad)


def test_require_integers_minimum():
    _require_integers(n=2, m=2.0, big=10**300, minimum=2)
    for below in (1, 1.0, 0, -3):
        with pytest.raises(ParameterError, match="^n must be at least 2"):
            _require_integers(n=below, minimum=2)
    _require_integers(seed=0, minimum=0)
    with pytest.raises(ParameterError, match="^seed must be at least 0"):
        _require_integers(seed=-1, minimum=0)
    # without a minimum any whole number passes
    _require_integers(k=-5)


def test_require_positive_scalars_and_arrays():
    _require_positive(h=5e-324, r=1.0, big=1e308, arr=[0.1, 2.0], empty=[])
    for bad in (0.0, -0.0, -1e-300, NAN, INF, -INF):
        with pytest.raises(ParameterError, match="^h must be positive and finite"):
            _require_positive(h=bad)
    for bad in ([0.3, NAN, 0.4], [0.3, 0.0, 0.4], [[1.0, 2.0], [3.0, INF]]):
        with pytest.raises(ParameterError, match="^grid must be positive and finite"):
            _require_positive(grid=np.array(bad))


def test_require_open_unit():
    _require_open_unit(p=0.5, q=np.nextafter(0.0, 1.0), s=np.nextafter(1.0, 0.0))
    for bad in (0.0, 1.0, -0.5, 1.5, NAN, INF, -INF):
        with pytest.raises(ParameterError, match=r"^p must lie strictly inside \(0, 1\)"):
            _require_open_unit(p=bad)


def test_validators_reject_what_is_not_a_number():
    _require_finite(mu=-3.5, loc=0, big=np.float64(1e308))
    messages = {_require_integers: "x must be an integer$",
                _require_positive: "x must be positive and finite",
                _require_open_unit: r"x must lie strictly inside \(0, 1\)",
                _require_finite: "x must be finite"}
    for check, message in messages.items():
        for bad in ("a", None, {}, (0.5, "a")):
            with pytest.raises(ParameterError, match="^" + message):
                check(x=bad)
    for bad in (NAN, INF, -INF, 1j):
        with pytest.raises(ParameterError, match="^x must be finite"):
            _require_finite(x=bad)


def test_validators_name_the_first_failing_argument():
    with pytest.raises(ParameterError, match="^second "):
        _require_integers(first=1, second=1.5, third=NAN)
    with pytest.raises(ParameterError, match="^second "):
        _require_positive(first=1.0, second=0.0, third=NAN)
    with pytest.raises(ParameterError, match="^second "):
        _require_open_unit(first=0.5, second=1.0, third=NAN)


def test_messages_other_tests_match_are_kept():
    with pytest.raises(ParameterError, match="reps must be an integer"):
        empirical_risk(make_pair("class1a"), 10, 10, 0.5, 0.5, reps=1.5, seed=0)
    with pytest.raises(ParameterError, match="data must be finite"):
        KdeEstimate([0.0, NAN], 0.5)
    with pytest.raises(ParameterError, match="data must be nonempty"):
        KdeEstimate([], 0.5)


def test_non_numeric_data_raises_parameter_error():
    calls = [lambda d: KdeEstimate(d, 0.5),
             lambda d: fit_classifier(d, [1.0], 0.5, 0.5),
             lambda d: fit_classifier([1.0], d, 0.5, 0.5),
             lambda d: error_surface(d, [1.0, 2.0], [0.5], [0.5], config=TINY),
             lambda d: sample_scale(d),
             lambda d: classify_multivariate(d, [1.0], 0.5, 0.5, [0.0])]
    for call in calls:
        for data in (["a", 1.0], [0.0, "b"], [None, object()]):
            with pytest.raises(ParameterError, match="^data must be numeric$"):
                call(data)


def test_numeric_text_is_not_a_number():
    for text in ("0.5", b"0.5", np.str_("0.5"), ["0.5"], [0.5, "0.5"], np.array([b"0.5"])):
        with pytest.raises(ParameterError, match="^h must be positive and finite"):
            _require_positive(h=text)
    for data in (["1.5", 2.0], [b"1.5", b"2"], np.array(["1.5", "2.0"]), "1.5"):
        with pytest.raises(ParameterError, match="^data must be numeric$"):
            KdeEstimate(data, 0.5)
    with pytest.raises(ParameterError, match="^h must be positive and finite"):
        KdeEstimate([1.0, 2.0], "0.5")
    with pytest.raises(ParameterError, match="^grid_h1 must be positive and finite"):
        error_surface(X, Y, ["0.5"], [0.5], config=TINY)
    # exact rationals are numbers, not text
    _require_positive(h=Fraction(1, 2), arr=[Fraction(1, 3), 2.0])
    assert Kernel("u", [Fraction(1, 2)]).poly_coeffs == (Fraction(1, 2),)
    assert KdeEstimate([Fraction(1, 2), 2.0], Fraction(1, 2))(1.0) == KdeEstimate([0.5, 2.0], 0.5)(1.0)


# ----------------------------------------------------------------------
# the table of bad arguments
# ----------------------------------------------------------------------
CLASS1A = make_pair("class1a")
CS1A = crossings(CLASS1A)
CLASS2B = make_pair("class2b")
CS2B = crossings(CLASS2B)
_rng = np.random.default_rng(5)
X, Y = _rng.normal(0.0, 1.0, 20), _rng.normal(1.0, 1.0, 20)
X2, Y2 = X.reshape(10, 2), Y.reshape(10, 2)
TINY = SelectorConfig(boot_iters=4, grid_per_dim=3, quad_points=51)
MODELS = [(CLASS1A.f, 0.5), (CLASS1A.g, 0.5)]
TABLE = {(0, 1): [pt.y for pt in CS1A.points]}
EST = KdeEstimate([0.0, 1.0, 2.0], 0.5)
CLF = fit_classifier(X, Y, 0.5, 0.5)
CUSTOM = CustomDensity(Normal(0, 1).pdf, sampler=lambda n, rng: rng.normal(size=n))
TAIL = dict(n_list=(30,), reps=1, contrast_n=40, contrast_grid=(3.0, 6.0, 11), seed=0)
#: what is not a SelectorConfig: a kernel, its fields as a dict
BAD_CONFIGS = (TRIWEIGHT, {"boot_iters": 4})


def _tail(**kw):
    return run_tail_study(**{**TAIL, **kw})


def _cv(**kw):
    return run_cv_comparison(**{"n": 20, "reps": 1, "seed": 0, "config": TINY, **kw})


def _grid(v):
    """run_tail_study with the contrast grid's edges v: a pair gives lo and
    hi, any other value is passed as both."""
    return _tail(contrast_grid=(*(v if isinstance(v, tuple) else (v, v)), 11))


def _segments(v):
    """decision_segments over the interval v: a pair gives lo and hi, any
    other value is passed as both."""
    return decision_segments(CLF, *(v if isinstance(v, tuple) else (v, v)))


POSITIVE, OPEN_UNIT, FINITE, SEED = "positive", "open unit", "finite", 0
#: a name from a fixed set: its rows are "a" and its extra values
CHOICE = "choice"
#: a sequence with one value per weight: its rows are "a" and its extra values
SEQUENCE = "sequence"
#: an object of one type (a kernel, a generator): its rows are "a" and its
#: extra values
TYPED = "typed"
#: an interval (lo, hi): its rows are empty, reversed and NaN-edged
#: intervals, one with a text edge, "a" and its extra values
INTERVAL = "interval"
#: the count and order of a list whose entries have rows of their own
#: (sample sizes, kernel coefficients), or a value that is no list: its rows
#: are its extra values alone
ORDER = "order"

# (site, argument name, kind, call with the bad value, extra bad values);
# a kind that is a number is the minimum of a whole-number argument
SITES = [
    # kde
    ("KdeEstimate", "h", POSITIVE, lambda v: KdeEstimate(X, v), ()),
    ("KdeEstimate", "kernel", TYPED, lambda v: KdeEstimate(X, 0.5, v), (None, "triweight")),
    ("_kde_many", "bandwidths", POSITIVE, lambda v: _kde_many(X[None, :], [0.3, v], [0.0]), ()),
    ("kde_mean_var", "h", POSITIVE, lambda v: kde_mean_var(Normal(0, 1), TRIWEIGHT, v, 10, 0.0), ()),
    ("kde_mean_var", "count", 1, lambda v: kde_mean_var(Normal(0, 1), TRIWEIGHT, 0.5, v, 0.0), ()),
    ("kde_mean_var", "y", FINITE, lambda v: kde_mean_var(Normal(0, 1), TRIWEIGHT, 0.5, 10, v), ()),
    ("kde_mean_var", "kernel", TYPED, lambda v: kde_mean_var(Normal(0, 1), v, 0.5, 10, 0.0),
     (None,)),
    ("smoothed_bootstrap", "size", 0,
     lambda v: smoothed_bootstrap(EST, v, np.random.default_rng(0)), ()),
    ("smoothed_bootstrap", "rng", TYPED, lambda v: smoothed_bootstrap(EST, 3, v),
     (None, 0, np.random.RandomState(0))),
    # kernels
    ("Kernel", "poly_coeffs[0]", FINITE, lambda v: Kernel("k", [v]), (None, 1j)),
    ("Kernel", "poly_coeffs[1]", FINITE, lambda v: Kernel("k", [Fraction(3, 4), v]), (None,)),
    ("Kernel", "poly_coeffs", ORDER, lambda v: Kernel("k", v), ([], (), None, 5)),
    ("moment_exact", "j", 0, lambda v: TRIWEIGHT.moment_exact(v), ()),
    ("roughness", "r", 0, lambda v: TRIWEIGHT.roughness(v), ()),
    ("sample", "size", 0, lambda v: TRIWEIGHT.sample(np.random.default_rng(0), v), (None,)),
    ("Kernel.sample", "rng", TYPED, lambda v: TRIWEIGHT.sample(v, 3), (None, 0)),
    ("multivariate_norm_constant", "d", 1, lambda v: multivariate_norm_constant(TRIWEIGHT, v), ()),
    ("multivariate_norm_constant", "kernel", TYPED, lambda v: multivariate_norm_constant(v, 2),
     (None,)),
    # densities
    ("Normal", "mu", FINITE, lambda v: Normal(v, 1.0), ()),
    ("Normal", "sigma", POSITIVE, lambda v: Normal(0.0, v), ()),
    ("Cauchy", "loc", FINITE, lambda v: Cauchy(v), ()),
    ("Cauchy", "gamma", POSITIVE, lambda v: Cauchy(0.0, v), ()),
    ("NormalMixture", "weights", POSITIVE,
     lambda v: NormalMixture((0.5, v), (0.0, 1.0), (1.0, 1.0)), ()),
    ("NormalMixture", "means[1]", FINITE,
     lambda v: NormalMixture((0.5, 0.5), (0.0, v), (1.0, 1.0)), ()),
    ("NormalMixture", "sigmas[1]", POSITIVE,
     lambda v: NormalMixture((0.5, 0.5), (0.0, 1.0), (1.0, v)), ()),
    ("NormalMixture", "means", SEQUENCE,
     lambda v: NormalMixture((0.5, 0.5), v, (1.0, 1.0)), (3, None, (0.0, 1.0, 2.0))),
    ("NormalMixture", "sigmas", SEQUENCE,
     lambda v: NormalMixture((0.5, 0.5), (0.0, 1.0), v), (None, 1.0, (1.0,))),
    ("CustomDensity", "support", INTERVAL,
     lambda v: CustomDensity(Normal(0, 1).pdf, support=v), (None, (0.0, 1.0, 2.0))),
    ("Pareto", "alpha", POSITIVE, lambda v: Pareto(v), (0.5, 1.0)),
    ("DensityPair", "p", OPEN_UNIT, lambda v: DensityPair(Normal(0, 1), Normal(1, 1), v), ()),
    ("DensityPair.sample", "n", 0, lambda v: CLASS1A.sample("f", v, np.random.default_rng(0)),
     ("3",)),
    ("DensityPair.sample", "rng", TYPED, lambda v: CLASS1A.sample("f", 5, v), (None,)),
    ("Normal.sample", "n", 0, lambda v: Normal(0, 1).sample(v, np.random.default_rng(0)), ("3",)),
    ("Normal.sample", "rng", TYPED, lambda v: Normal(0, 1).sample(5, v), (None, 0)),
    ("CustomDensity.sample", "n", 0,
     lambda v: CUSTOM.sample(v, np.random.default_rng(0)), ("3",)),
    ("Density.ppf", "q", OPEN_UNIT, lambda v: Normal(0, 1).ppf(v), ()),
    ("DensityPair.pooled_ppf", "q", OPEN_UNIT, lambda v: CLASS1A.pooled_ppf(v), ()),
    ("DensityPair.density", "which", CHOICE, CLASS1A.density, (None, "F")),
    ("make_pair-pareto", "alpha", FINITE, lambda v: make_pair("pareto", alpha=v, beta=2.5), ()),
    ("make_pair-pareto", "beta", FINITE, lambda v: make_pair("pareto", alpha=2.0, beta=v), ()),
    ("crossings", "grid_points", 8, lambda v: crossings(CLASS1A, grid_points=v), ()),
    ("crossings", "interval", INTERVAL, lambda v: crossings(CLASS1A, v),
     (("a", 1.0), (None, 1.0), (-INF, 1.0), (0.0, INF))),
    # classifier
    ("fit_classifier", "p", OPEN_UNIT, lambda v: fit_classifier(X, Y, 0.3, 0.3, p=v), ()),
    ("fit_classifier", "h1", POSITIVE, lambda v: fit_classifier(X, Y, v, 0.3), ()),
    ("fit_classifier", "h2", POSITIVE, lambda v: fit_classifier(X, Y, 0.3, v), ()),
    ("fit_classifier", "kernel", TYPED, lambda v: fit_classifier(X, Y, 0.3, 0.3, kernel=v),
     (None,)),
    ("classify_multi", "priors[0]", POSITIVE,
     lambda v: classify_multi([(EST, v), (EST, 0.5)], 0.0), (None, "0.5")),
    ("classify_multivariate", "p", OPEN_UNIT,
     lambda v: classify_multivariate(X2, Y2, 0.5, 0.5, [0.0, 0.0], p=v), ()),
    ("classify_multivariate", "h1", POSITIVE,
     lambda v: classify_multivariate(X2, Y2, v, 0.5, [0.0, 0.0]), ()),
    ("classify_multivariate", "h2", POSITIVE,
     lambda v: classify_multivariate(X2, Y2, 0.5, v, [0.0, 0.0]), ()),
    ("classify_multivariate", "x", FINITE,
     lambda v: classify_multivariate(X2, Y2, 0.5, 0.5, [v, 0.0]), (None, "0.5")),
    ("classify_multivariate", "kernel", TYPED,
     lambda v: classify_multivariate(X2, Y2, 0.5, 0.5, [0.0, 0.0], kernel=v), (None,)),
    ("decision_segments", "(lo, hi)", INTERVAL, _segments, (("a", 1.0), (None, 1.0))),
    ("decision_segments", "rule", CHOICE, lambda v: decision_segments(CLF, -1.0, 1.0, rule=v),
     (None,)),
    ("classify_tail", "side", CHOICE, lambda v: classify_tail(CLF, 100.0, v), (None, "Right")),
    # selector
    ("SelectorConfig", "boot_iters", 1, lambda v: SelectorConfig(boot_iters=v), ()),
    ("SelectorConfig", "grid_per_dim", 2, lambda v: SelectorConfig(grid_per_dim=v), ()),
    ("SelectorConfig", "quad_points", 2, lambda v: SelectorConfig(quad_points=v), ()),
    ("SelectorConfig", "pilot_deriv", 2, lambda v: SelectorConfig(pilot_deriv=v), ()),
    ("SelectorConfig", "fine_grid_factor", POSITIVE,
     lambda v: SelectorConfig(fine_grid_factor=v), ()),
    ("SelectorConfig", "kernel", TYPED, lambda v: SelectorConfig(kernel=v), (None, "triweight")),
    ("sample_scale", "rule", CHOICE, lambda v: sample_scale(X, v), (None, "normal-sd")),
    ("normal_deriv_roughness", "k", 0, lambda v: normal_deriv_roughness(v), ()),
    ("pilot_bandwidth", "config", TYPED, lambda v: pilot_bandwidth(X, v), BAD_CONFIGS),
    ("error_surface", "config", TYPED,
     lambda v: error_surface(X, Y, [0.5], [0.5], config=v), BAD_CONFIGS),
    ("select_bandwidths", "config", TYPED, lambda v: select_bandwidths(X, Y, config=v),
     BAD_CONFIGS),
    ("error_surface", "p", OPEN_UNIT,
     lambda v: error_surface(X, Y, [0.5], [0.5], p=v, config=TINY), ()),
    ("error_surface", "grid_h1", POSITIVE,
     lambda v: error_surface(X, Y, [0.5, v], [0.5], config=TINY), ()),
    ("error_surface", "grid_h2", POSITIVE,
     lambda v: error_surface(X, Y, [0.5], [v, 0.5], config=TINY), ()),
    ("error_surface", "rng", TYPED,
     lambda v: error_surface(X, Y, [0.5], [0.5], config=TINY, rng=v),
     (0, np.random.RandomState(0))),
    ("select_bandwidths", "rng", TYPED,
     lambda v: select_bandwidths(X, Y, config=TINY, rng=v), ()),
    ("cv_err", "p", OPEN_UNIT, lambda v: cv_err(X, Y, 0.5, 0.5, p=v), ()),
    ("cv_err", "h1", POSITIVE, lambda v: cv_err(X, Y, v, 0.5), ()),
    ("cv_err", "h2", POSITIVE, lambda v: cv_err(X, Y, 0.5, v), ()),
    ("cv_err", "kernel", TYPED, lambda v: cv_err(X, Y, 0.5, 0.5, kernel=v), (None,)),
    ("select_bandwidths", "seed", SEED, lambda v: select_bandwidths(X, Y, config=TINY, seed=v),
     (0.5,)),
    # risk
    ("empirical_risk", "reps", 1,
     lambda v: empirical_risk(CLASS1A, 20, 20, 0.5, 0.5, reps=v, seed=0), ()),
    ("empirical_risk", "m", 1,
     lambda v: empirical_risk(CLASS1A, v, 20, 0.5, 0.5, reps=1, seed=0), ()),
    ("empirical_risk", "n", 1,
     lambda v: empirical_risk(CLASS1A, 20, v, 0.5, 0.5, reps=1, seed=0), ()),
    ("empirical_risk", "seed", SEED,
     lambda v: empirical_risk(CLASS1A, 20, 20, 0.5, 0.5, reps=1, seed=v), (0.5,)),
    ("empirical_risk", "h1", POSITIVE,
     lambda v: empirical_risk(CLASS1A, 20, 20, v, 0.5, reps=1, seed=0), ()),
    ("empirical_risk", "h2", POSITIVE,
     lambda v: empirical_risk(CLASS1A, 20, 20, 0.5, v, reps=1, seed=0), ()),
    ("empirical_risk", "interval", INTERVAL,
     lambda v: empirical_risk(CLASS1A, 20, 20, 0.5, 0.5, reps=1, seed=0, rule="body", interval=v),
     (("a", 1.0), (None, 1.0))),
    ("empirical_risk", "rule", CHOICE,
     lambda v: empirical_risk(CLASS1A, 20, 20, 0.5, 0.5, reps=1, seed=0, rule=v), (None,)),
    ("empirical_risk-ahat", "interval", INTERVAL,
     lambda v: empirical_risk(CLASS1A, 20, 20, 0.5, 0.5, reps=1, seed=0, interval=v),
     ((0.0, 1.0),)),
    ("bayes_risk", "interval", INTERVAL, lambda v: bayes_risk(CLASS1A, v, cs=CS1A), (("a", 0.0),)),
    ("expansion_b1_b2", "H1", POSITIVE, lambda v: expansion_b1_b2(CLASS1A, CS1A, v, 1.0), ()),
    ("expansion_b1_b2", "H2", POSITIVE, lambda v: expansion_b1_b2(CLASS1A, CS1A, 1.0, v), ()),
    ("expansion_b1_b2", "r", POSITIVE,
     lambda v: expansion_b1_b2(CLASS1A, CS1A, 1.0, 1.0, r=v), ()),
    ("expansion_b1_b2", "kernel", TYPED,
     lambda v: expansion_b1_b2(CLASS1A, CS1A, 1.0, 1.0, kernel=v), (None,)),
    ("class1_objective", "r", POSITIVE,
     lambda v: class1_objective(CLASS1A, CS1A, r=v)(1.0, 1.0), ()),
    ("expansion_b3_b4", "r", POSITIVE, lambda v: expansion_b3_b4(CLASS2B, CS2B, r=v), ()),
    ("expansion_b3_b4", "kernel", TYPED, lambda v: expansion_b3_b4(CLASS2B, CS2B, kernel=v),
     (None,)),
    ("predicted_excess", "m", 1, lambda v: predicted_excess(CLASS1A, CS1A, v, 100, 0.3, 0.3), ()),
    ("predicted_excess", "n", 1, lambda v: predicted_excess(CLASS1A, CS1A, 100, v, 0.3, 0.3), ()),
    ("predicted_excess", "h1", POSITIVE,
     lambda v: predicted_excess(CLASS1A, CS1A, 100, 100, v, 0.3), ()),
    ("predicted_excess", "h2", POSITIVE,
     lambda v: predicted_excess(CLASS1A, CS1A, 100, 100, 0.3, v), ()),
    ("optimal_bandwidths", "n", 1, lambda v: optimal_bandwidths(CLASS1A, CS1A, n=v), ()),
    ("optimal_bandwidths-class1a", "r", POSITIVE,
     lambda v: optimal_bandwidths(CLASS1A, CS1A, n=100, r=v), ()),
    ("optimal_bandwidths-class2b", "r", POSITIVE,
     lambda v: optimal_bandwidths(CLASS2B, CS2B, n=100, r=v), ()),
    ("multi_t", "r", POSITIVE, lambda v: multi_t(MODELS, TABLE, [1.0, 1.0], [1.0, v]), ()),
    ("multi_t", "H", POSITIVE, lambda v: multi_t(MODELS, TABLE, [v, 1.0], [1.0, 1.0]), ()),
    ("multi_t", "kernel", TYPED,
     lambda v: multi_t(MODELS, TABLE, [1.0, 1.0], [1.0, 1.0], kernel=v), (None,)),
    ("multi_t", "priors[1]", POSITIVE,
     lambda v: multi_t([(CLASS1A.f, 0.5), (CLASS1A.g, v)], TABLE, [1.0, 1.0], [1.0, 1.0]),
     (None, "0.5")),
    # simulate
    ("ExperimentConfig", "reps", 1, lambda v: ExperimentConfig("class1a", reps=v), ()),
    ("ExperimentConfig", "threads", 1, lambda v: ExperimentConfig("class1a", threads=v), ()),
    ("ExperimentConfig", "n_list[1]", 2,
     lambda v: ExperimentConfig("class1a", n_list=(20, v)), ()),
    ("ExperimentConfig", "n_list", ORDER, lambda v: ExperimentConfig("class1a", n_list=v),
     ((20, 20), (26, 20), (20,), ())),
    ("ExperimentConfig", "seed", SEED, lambda v: ExperimentConfig("class1a", seed=v), ()),
    ("ExperimentConfig", "selector", TYPED,
     lambda v: ExperimentConfig("class1a", selector=v), BAD_CONFIGS),
    ("run_tail_study", "reps", 1, lambda v: _tail(reps=v), ()),
    ("run_tail_study", "contrast_grid[2]", 1, lambda v: _tail(contrast_grid=(3.0, 6.0, v)), ()),
    ("run_tail_study", "contrast_n", 2, lambda v: _tail(contrast_n=v), ()),
    ("run_tail_study", "n_list[0]", 2, lambda v: _tail(n_list=(v,)), (-3,)),
    ("run_tail_study", "n_list", ORDER, lambda v: _tail(n_list=v),
     ((100, 100), (400, 100), ())),
    ("run_tail_study", "seed", SEED, lambda v: _tail(seed=v), ()),
    ("run_tail_study", "x0", FINITE, lambda v: _tail(x0=v), ()),
    ("run_tail_study", "contrast_grid", INTERVAL, _grid,
     ((-INF, 6.0), (3.0, INF), (None, 6.0))),
    ("run_cv_comparison", "n", 2, lambda v: _cv(n=v), (-5,)),
    ("run_cv_comparison", "reps", 1, lambda v: _cv(reps=v), ()),
    ("run_cv_comparison", "seed", SEED, lambda v: _cv(seed=v), (1.5,)),
    ("run_cv_comparison", "config", TYPED, lambda v: _cv(config=v), BAD_CONFIGS),
]


def _bad_values(kind) -> tuple:
    if kind == ORDER:
        return ()
    if kind in (CHOICE, SEQUENCE, TYPED):
        values = ()
    elif kind == INTERVAL:
        values = ((1.0, 1.0), (1.0, 0.0), (INF, INF), (NAN, 1.0), (0.0, NAN), ("0", 1.0))
    elif kind == POSITIVE:
        values = (NAN, INF, -INF, 0.0, -1.0)
    elif kind == OPEN_UNIT:
        values = (NAN, INF, -INF, 0.0, -0.5, 1.0)
    elif kind == FINITE:
        values = (NAN, INF, -INF)
    else:
        values = (NAN, INF, -INF, kind - 1, -1, max(kind, 2) + 0.5)
    return tuple(dict.fromkeys(values)) + ("a",)


def _value_id(value) -> str:
    """The value's repr, or its type's name where the repr holds a memory
    address (a RandomState), so every test id is the same from run to run."""
    text = repr(value)
    return type(value).__name__ if " at 0x" in text else text


ROWS = [pytest.param(name, value, call, id=f"{site}-{name}-{_value_id(value)}")
        for site, name, kind, call, extra in SITES
        for value in _bad_values(kind) + extra]


@pytest.mark.parametrize("name, value, call", ROWS)
def test_bad_argument_raises_parameter_error_naming_it(name, value, call):
    with pytest.raises(ParameterError) as info:
        call(value)
    assert str(info.value).startswith(name + " "), str(info.value)


def test_a_config_of_none_is_the_default():
    assert ExperimentConfig("class1a", selector=None).selector == SelectorConfig()
    assert pilot_bandwidth(X, None) == pilot_bandwidth(X, SelectorConfig())


def test_whole_floats_act_as_integers():
    assert optimal_bandwidths(CLASS1A, CS1A, n=100.0) == optimal_bandwidths(CLASS1A, CS1A, n=100)
    cfg = ExperimentConfig("class1a", reps=2.0, seed=3.0, threads=1.0)
    assert (cfg.reps, cfg.seed, cfg.threads) == (2, 3, 1)
    assert all(type(v) is int for v in (cfg.reps, cfg.seed, cfg.threads))
    draws = [smoothed_bootstrap(EST, size, np.random.default_rng(1)) for size in (5, 5.0)]
    assert np.array_equal(*draws)
    assert TRIWEIGHT.moment_exact(2.0) == TRIWEIGHT.moment_exact(2)
    assert normal_deriv_roughness(2.0) == normal_deriv_roughness(2)
