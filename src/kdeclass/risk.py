"""Classification risk: exact Bayes risk, Monte-Carlo risk of trained rules,
and the asymptotic excess-risk expansions that drive bandwidth choice.

Notation used throughout (p is the prior of the first population, q = 1-p):

* The excess risk of the plug-in rule over the optimal rule expands as
      sum_j (1/2) |delta'(y_j)|^(-1) E[ deltahat(y_j)^2 ] + smaller terms,
  the sum running over the crossings y_j of delta.
* Writing h1 = H1 * n^(-1/5), h2 = H2 * n^(-1/5) (the first-order regime),
  the leading excess is B1 / (n h) + B2 * h^4 with
      B1 = (kappa/2)  sum_j |delta'|^{-1} { (r H1)^{-1} p^2 f + H2^{-1} q^2 g },
      B2 = (mu2^2/8) sum_j |delta'|^{-1} { H1^2 p f'' - H2^2 q g'' }^2,
  where kappa = int K^2, mu2 = int u^2 K, r = m/n, h = n^(-1/5).
* When one curvature ratio R = p f''(y)/(q g''(y)) is shared by every
  crossing, taking H2 = sqrt(R) H1 cancels B2 entirely and the right scale
  becomes h1 = H1 * n^(-1/9) with leading excess per crossing
      B3 = (kappa / (2 H1)) |delta'|^{-1} { r^{-1} p^2 f + R^{-1/2} q^2 g },
      B4 = (mu4^2 H1^8 / 1152) |delta'|^{-1} { p f'''' - R^2 q g'''' }^2,
  minimized in closed form at H1 = (c1 / (8 c2))^(1/9) for c1/H + c2 H^8.
  If the fourth-order factor also vanishes the h^8 bias term disappears and
  the optimal rate degrades to n^(-1/13); constants at that order are out of
  scope, so the plan only records the rate.

The class1 and multi-population optima restart a numpy port of scipy's
Nelder-Mead (_nelder_mead), and the crossings bisect to the last float (see
`densities`), so the risks, the crossings and the plans use numpy alone.
scipy is imported where it is used, on the first call: the quadrature for a
density without a cdf (scipy.integrate.quad, in _segment_mass) and the
exact KDE moments of `expansion_excess` (see `kde.kde_mean_var`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import FROM_F, FROM_G, _interior_point, decision_segments, fit_classifier
from .densities import CrossingSet, DensityPair, crossings
from .errors import (
    NumericError,
    OptimizationError,
    ParameterError,
    RegimeError,
    _checked_interval,
    _require_integers,
    _require_positive,
    _require_priors,
)
from .kde import kde_mean_var
from .kernels import TRIWEIGHT, Kernel, _require_kernel

__all__ = [
    "BandwidthPlan",
    "RiskReport",
    "bayes_risk",
    "empirical_risk",
    "expansion_excess",
    "expansion_b1_b2",
    "expansion_b3_b4",
    "class1_objective",
    "predicted_excess",
    "optimal_bandwidths",
    "multi_t",
    "multi_optimal_constants",
]

PILOT_RATE = 1.0 / 13.0  # rate exponent of the derivative-estimation pilots


@dataclass(frozen=True)
class BandwidthPlan:
    """Theoretically optimal bandwidths for a pair at sample size n.

    h1, h2 are the concrete bandwidths H1 * n^(-rho), H2 * n^(-rho).  sigma
    is the pilot rate exponent (1/13 for fourth-derivative pilots).  For the
    degenerate second-order case the constants are unidentifiable at this
    order, so H1 = 1 by convention and only rho = 1/13 is meaningful.
    """

    h1: float
    h2: float
    H1: float
    H2: float
    rho: float
    n: int
    r: float
    regime: str
    degenerate: bool = False
    sigma: float = PILOT_RATE


@dataclass(frozen=True)
class RiskReport:
    """Monte-Carlo risk of a trained rule next to the optimal risk."""

    err_rule: float
    err_bayes: float
    se: float
    reps: int
    rule: str
    region: tuple[float, float]
    per_rep: tuple[float, ...]

    @property
    def excess(self) -> float:
        return self.err_rule - self.err_bayes


# ----------------------------------------------------------------------
# exact risks
# ----------------------------------------------------------------------
def _segment_mass(density, a: float, b: float) -> float:
    """Probability mass of `density` on [a, b]; cdf difference when the
    density has a cdf, quadrature otherwise."""
    try:
        return float(density.cdf(b) - density.cdf(a)) if b > a else 0.0
    except ParameterError:
        pass
    if not (np.isfinite(a) and np.isfinite(b)):
        raise NumericError("cannot integrate a cdf-less density to infinity")
    from scipy.integrate import quad
    val, err = quad(density.pdf, a, b, epsabs=1e-10, limit=200)
    if err > 1e-7:
        raise NumericError(f"segment quadrature error {err:.2g} too large")
    return val


def _labelled_risk(pair: DensityPair, segs) -> float:
    """p * F-mass of the (a, b, population) segments labelled "g" plus
    q * G-mass of those labelled "f", added in segment order."""
    total = 0.0
    for a, b, lab in segs:
        if lab == FROM_G:
            total += pair.p * _segment_mass(pair.f, a, b)
        else:
            total += (1.0 - pair.p) * _segment_mass(pair.g, a, b)
    return total


def _default_crossings(pair: DensityPair) -> CrossingSet:
    """crossings(pair) at its defaults, found on the first call and kept on
    the (frozen) pair."""
    if "_crossings" not in vars(pair):
        vars(pair)["_crossings"] = crossings(pair)
    return vars(pair)["_crossings"]


def bayes_risk(pair: DensityPair, interval: tuple[float, float] | None = None,
               cs: CrossingSet | None = None) -> float:
    """Risk of the optimal rule: integral of min(p f, q g) over the region.

    interval None means the whole line.  The domain is split at the crossing
    points of delta so that on each piece the minimum is a single density,
    whose mass is then a cdf difference (exact; quadrature only for custom
    densities without a cdf).  cs None means crossings(pair) at its
    defaults, found once per pair (see _default_crossings).
    """
    lo, hi = (-np.inf, np.inf) if interval is None else _checked_interval("interval", interval)
    if cs is None:
        cs = _default_crossings(pair)
    cuts = [y.y for y in cs.points if lo < y.y < hi]
    edges = [lo, *cuts, hi]
    return _labelled_risk(pair, [
        (a, b, FROM_F if pair.delta(_interior_point(a, b)) > 0.0 else FROM_G)
        for a, b in zip(edges[:-1], edges[1:])])


def empirical_risk(pair: DensityPair, m: int, n: int, h1: float, h2: float,
                   reps: int, seed: int, rule: str = "ahat",
                   interval: tuple[float, float] | None = None,
                   kernel: Kernel = TRIWEIGHT) -> RiskReport:
    """Monte-Carlo risk of the trained rule over `reps` training draws.

    Each replicate draws m points from f and n from g with a generator
    derived from (seed, replicate index), fits the classifier, extracts its
    decision regions, and accumulates the exact conditional risk

        p * F-mass of the regions labeled "g"  +  q * G-mass labeled "f"

    from cdf differences, so the only randomness is the training draw.
    rule "ahat" scores the composite rule over the whole line (interval must
    be None); rule "body" scores the plug-in rule on `interval` (default:
    the pooled 1e-4 .. 1-1e-4 quantile range).  Deterministic for fixed
    arguments, and each replicate is independent of evaluation order.
    """
    if rule not in ("ahat", "body"):
        raise ParameterError("rule must be 'ahat' or 'body'")
    _require_integers(reps=reps, m=m, n=n, minimum=1)
    _require_integers(seed=seed, minimum=0)
    if rule == "ahat":
        if interval is not None:
            raise ParameterError(
                "interval must be None: the composite rule is scored on the whole line")
        lo, hi = -np.inf, np.inf
    else:
        if interval is None:
            interval = (pair.pooled_ppf(1e-4), pair.pooled_ppf(1.0 - 1e-4))
        lo, hi = _checked_interval("interval", interval)

    vals = np.empty(int(reps))
    for rep in range(int(reps)):
        rng = np.random.default_rng((int(seed), rep))
        x = pair.sample("f", m, rng)
        y = pair.sample("g", n, rng)
        clf = fit_classifier(x, y, h1, h2, pair.p, kernel)
        vals[rep] = _labelled_risk(pair, decision_segments(clf, lo, hi, rule))

    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
    return RiskReport(
        err_rule=mean,
        err_bayes=bayes_risk(pair, None if rule == "ahat" else (lo, hi)),
        se=se,
        reps=int(reps),
        rule=rule,
        region=(lo, hi),
        per_rep=tuple(float(v) for v in vals),
    )


# ----------------------------------------------------------------------
# expansions
# ----------------------------------------------------------------------
def _check_cs(cs: CrossingSet):
    if cs.nu < 1:
        raise ParameterError("crossing set is empty")


def expansion_excess(pair: DensityPair, cs: CrossingSet, m: int, n: int,
                     h1: float, h2: float, kernel: Kernel = TRIWEIGHT) -> float:
    """Crossing-sum excess risk with the exact finite-sample KDE moments:

        sum_j (1/2) |delta'(y_j)|^{-1} [ (E deltahat(y_j))^2 + Var deltahat(y_j) ].
    """
    _check_cs(cs)
    p, q = pair.p, 1.0 - pair.p
    total = 0.0
    for pt in cs.points:
        mf, vf = kde_mean_var(pair.f, kernel, h1, m, pt.y)
        mg, vg = kde_mean_var(pair.g, kernel, h2, n, pt.y)
        mean = p * mf - q * mg
        var = p * p * vf + q * q * vg
        total += 0.5 / abs(pt.delta_prime) * (mean * mean + var)
    return total


def expansion_b1_b2(pair: DensityPair, cs: CrossingSet, H1: float, H2: float,
                    r: float = 1.0, kernel: Kernel = TRIWEIGHT) -> tuple[float, float]:
    """First-order regime constants (B1, B2); excess ~ B1/(n h) + B2 h^4
    at h = n^(-1/5), h_j = H_j h."""
    _check_cs(cs)
    _require_positive(H1=H1, H2=H2, r=r)
    _require_kernel(kernel)
    kappa = kernel.roughness(0)
    mu2 = kernel.moment(2)
    p, q = pair.p, 1.0 - pair.p
    b1 = 0.0
    b2 = 0.0
    for pt in cs.points:
        w = 1.0 / abs(pt.delta_prime)
        b1 += w * (p * p * pt.f_value / (r * H1) + q * q * pt.g_value / H2)
        bias = H1 * H1 * p * pt.f2 - H2 * H2 * q * pt.g2
        b2 += w * bias * bias
    return 0.5 * kappa * b1, 0.125 * mu2 * mu2 * b2


def class1_objective(pair: DensityPair, cs: CrossingSet, r: float = 1.0,
                     kernel: Kernel = TRIWEIGHT):
    """The first-order objective as a function of (H1, H2): twice B1 + B2.

    Minimizing it matches minimizing the leading excess at the n^(-1/5)
    scale; the factor 2 keeps the classical normalization.
    """
    def objective(H1: float, H2: float) -> float:
        b1, b2 = expansion_b1_b2(pair, cs, H1, H2, r, kernel)
        return 2.0 * (b1 + b2)

    return objective


def expansion_b3_b4(pair: DensityPair, cs: CrossingSet, r: float = 1.0,
                    kernel: Kernel = TRIWEIGHT) -> tuple[float, float, float]:
    """Second-order regime coefficients (c1, c2, R) with excess per unit of
    the n^(-8/9) scale equal to c1 / H1 + c2 * H1^8 at H2 = sqrt(R) H1.

    Only valid for class2 crossing sets (shared curvature ratio R); raises
    RegimeError otherwise.
    """
    _check_cs(cs)
    if cs.regime != "class2":
        raise RegimeError("second-order constants need a class2 crossing set")
    _require_positive(r=r)
    _require_kernel(kernel)
    R = float(cs.ratio)
    kappa = kernel.roughness(0)
    mu4 = kernel.moment(4)
    p, q = pair.p, 1.0 - pair.p
    c1 = 0.0
    c2 = 0.0
    for pt in cs.points:
        w = 1.0 / abs(pt.delta_prime)
        c1 += 0.5 * kappa * w * (p * p * pt.f_value / r + q * q * pt.g_value / np.sqrt(R))
        t = p * pt.f4 - R * R * q * pt.g4
        c2 += (mu4 * mu4 / 1152.0) * w * t * t
    return c1, c2, R


def predicted_excess(pair: DensityPair, cs: CrossingSet, m: int, n: int,
                     h1: float, h2: float, kernel: Kernel = TRIWEIGHT) -> float:
    """Leading-order predicted excess risk for concrete bandwidths:

        sum_j |delta'|^{-1} [ (kappa/2)(p^2 f/(m h1) + q^2 g/(n h2))
                              + (mu2^2/8)(h1^2 p f'' - h2^2 q g'')^2 ],

    that is B1/(n h) + B2 h^4 at h = n^(-1/5), H_j = h_j/h and r = m/n.
    """
    _require_integers(m=m, n=n, minimum=1)
    _require_positive(h1=h1, h2=h2)
    h = float(n) ** -0.2
    b1, b2 = expansion_b1_b2(pair, cs, h1 / h, h2 / h, m / n, kernel)
    return b1 / (n * h) + b2 * h ** 4


_DEGENERATE_RTOL = 1e-9


def _nelder_mead(fun, x0, maxiter: int, maxfev: int) -> tuple[float, np.ndarray]:
    """(minimum, minimizer) of fun by Nelder-Mead from x0, step for step as
    scipy.optimize.minimize(method="Nelder-Mead", options={"xatol": 1e-10,
    "fatol": 1e-14, ...}) takes them: reflection, expansion, contraction and
    shrink coefficients 1, 2, 1/2, 1/2, an initial simplex that scales each
    coordinate by 1.05 (0 becomes 0.00025), and a stop once the simplex is
    within 1e-10 of its best vertex and its values within 1e-14, or after
    maxiter iterations or maxfev calls (checked between iterations)."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.array(x0, dtype=float).ravel()
    N = len(x0)
    sim = np.tile(x0, (N + 1, 1))
    for k in range(N):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([fun(v) for v in sim])
    nfev = N + 1
    order = np.argsort(fsim)
    sim, fsim = sim[order], fsim[order]
    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        if (np.max(np.abs(sim[1:] - sim[0])) <= 1e-10
                and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-14):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = fun(xr)
        nfev += 1
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = fun(xe)
            nfev += 1
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = fun(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = fun(xc)
                accept = fxc < fsim[-1]
            nfev += 1
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, N + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = fun(sim[j])
                nfev += N
        iterations += 1
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return np.min(fsim), sim[0]


def _multistart_nelder_mead(fun, starts, maxiter: int, maxfev: int,
                            context: str) -> np.ndarray:
    """Best Nelder-Mead minimizer over the starts; OptimizationError (message
    ending in `context`) when their minima differ by over 1e-8 relative."""
    results = [_nelder_mead(fun, x0, maxiter, maxfev) for x0 in starts]
    best_val = min(v for v, _ in results)
    spread = max(v for v, _ in results) - best_val
    if spread > 1e-8 * max(1.0, abs(best_val)):
        raise OptimizationError(f"restart spread {spread:.3g} exceeds tolerance{context}")
    return min(results, key=lambda t: t[0])[1]


def optimal_bandwidths(pair: DensityPair, cs: CrossingSet, n: int, r: float = 1.0,
                       kernel: Kernel = TRIWEIGHT) -> BandwidthPlan:
    """Asymptotically optimal bandwidth plan for the crossing set's regime.

    class1: minimize the first-order objective over (H1, H2) by Nelder-Mead
    restarted from 16 log-spaced points of [0.1, 10]^2; rate n^(-1/5).
    class2: closed form H1 = (c1/(8 c2))^(1/9), H2 = sqrt(R) H1, rate
    n^(-1/9); when the fourth-order factor vanishes (degenerate subcase,
    e.g. two shifted copies of one symmetric density) the plan records
    rate n^(-1/13) with conventional constants H1 = 1, H2 = sqrt(R).
    """
    _check_cs(cs)
    _require_integers(n=n, minimum=1)
    _require_positive(r=r)

    if cs.regime == "class2":
        c1, c2, R = expansion_b3_b4(pair, cs, r, kernel)
        p, q = pair.p, 1.0 - pair.p
        tscale = max(
            abs(p * pt.f4) + R * R * abs(q * pt.g4) for pt in cs.points
        )
        degenerate = all(
            abs(p * pt.f4 - R * R * q * pt.g4) <= _DEGENERATE_RTOL * max(tscale, 1e-300)
            for pt in cs.points
        )
        if degenerate:
            rho = 1.0 / 13.0
            H1 = 1.0
            H2 = float(np.sqrt(R))
        else:
            rho = 1.0 / 9.0
            H1 = float((c1 / (8.0 * c2)) ** (1.0 / 9.0))
            H2 = float(np.sqrt(R) * H1)
        scale = float(n) ** (-rho)
        return BandwidthPlan(h1=H1 * scale, h2=H2 * scale, H1=H1, H2=H2,
                             rho=rho, n=int(n), r=float(r), regime="class2",
                             degenerate=degenerate)

    # class1: two-dimensional minimization in log coordinates
    objective = class1_objective(pair, cs, r, kernel)

    def fun(logh):
        return objective(float(np.exp(logh[0])), float(np.exp(logh[1])))

    starts = np.log(np.array([[a, b]
                              for a in np.geomspace(0.1, 10.0, 4)
                              for b in np.geomspace(0.1, 10.0, 4)]))
    best_x = _multistart_nelder_mead(
        fun, starts, 4000, 8000,
        "; objective may be multimodal or the crossing set ill-conditioned")
    H1, H2 = float(np.exp(best_x[0])), float(np.exp(best_x[1]))
    rho = 0.2
    scale = float(n) ** (-rho)
    return BandwidthPlan(h1=H1 * scale, h2=H2 * scale, H1=H1, H2=H2, rho=rho,
                         n=int(n), r=float(r), regime="class1", degenerate=False)


# ----------------------------------------------------------------------
# several populations
# ----------------------------------------------------------------------
def _validate_multi(models, crossing_table, r):
    models = list(models)
    if len(models) < 2:
        raise ParameterError("need at least two populations")
    _require_priors([w for _, w in models])
    models = [(d, float(w)) for d, w in models]
    _require_positive(r=r)
    r = np.asarray(r, dtype=float)
    if r.shape != (len(models),):
        raise ParameterError("r must give one sampling ratio per population")
    table = {}
    all_y = []
    for key, ys in dict(crossing_table).items():
        i, j = int(key[0]), int(key[1])
        if not 0 <= i < j < len(models):
            raise ParameterError(f"crossing table key {key!r} must satisfy 0 <= i < j < N")
        ys = [float(v) for v in np.atleast_1d(ys)]
        table[(i, j)] = ys
        all_y.extend(ys)
    if not all_y:
        raise ParameterError("crossing table is empty")
    ys = np.sort(np.asarray(all_y))
    if np.any(np.diff(ys) <= 1e-9):
        raise ParameterError("crossing points must be pairwise distinct")
    return models, table, r


def multi_t(models, crossing_table, H, r, kernel: Kernel = TRIWEIGHT) -> float:
    """Leading excess-risk objective for N >= 2 populations.

    models: sequence of (density, prior); crossing_table: {(i, j): [y, ...]}
    with i < j listing the crossings of p_i f_i - p_j f_j (all crossings
    pairwise distinct across the table); H: per-population constants;
    r: per-population sampling ratios.  Each unordered pair contributes both
    ordered terms, which halves the classical per-pair coefficients to
    kappa/4 and mu2^2/16; with N = 2 the sum collapses to B1 + B2 exactly.
    """
    models, table, r = _validate_multi(models, crossing_table, r)
    _require_positive(H=H)
    H = np.asarray(H, dtype=float)
    if H.shape != (len(models),):
        raise ParameterError("H must give one constant per population")
    _require_kernel(kernel)
    kappa = kernel.roughness(0)
    mu2 = kernel.moment(2)
    total = 0.0
    for (i, j), ys in table.items():
        di, wi = models[i]
        dj, wj = models[j]
        for y in ys:
            fi, fj = float(di.pdf(y)), float(dj.pdf(y))
            if abs(wi * fi - wj * fj) > 1e-6 * (wi * fi + wj * fj):
                raise ParameterError(
                    f"y = {y:.6g} is not a crossing of populations ({i}, {j})"
                )
            slope = wi * float(di.deriv(1, y)) - wj * float(dj.deriv(1, y))
            if abs(slope) < 1e-12:
                raise ParameterError(f"zero slope at crossing y = {y:.6g}")
            w = 1.0 / abs(slope)
            var = (kappa / 4.0) * (wi * wi * fi / (r[i] * H[i]) + wj * wj * fj / (r[j] * H[j]))
            bias = H[i] ** 2 * wi * float(di.deriv(2, y)) - H[j] ** 2 * wj * float(dj.deriv(2, y))
            total += 2.0 * w * (var + (mu2 * mu2 / 16.0) * bias * bias)
    return total


def multi_optimal_constants(models, crossing_table, r,
                            kernel: Kernel = TRIWEIGHT) -> np.ndarray:
    """Minimize multi_t over the vector H by restarted Nelder-Mead."""
    models, table, r = _validate_multi(models, crossing_table, r)
    N = len(models)

    def fun(logh):
        return multi_t(models, table, np.exp(logh), r, kernel)

    rng = np.random.default_rng(0)
    starts = [np.zeros(N)]
    starts += list(np.log(rng.uniform(0.1, 10.0, size=(15, N))))
    best_x = _multistart_nelder_mead(fun, starts, 8000, 16000,
                                     " in the multi-population minimization")
    return np.exp(best_x)
