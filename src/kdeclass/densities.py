"""Population densities, benchmark pairs, and crossing analysis.

A DensityPair bundles the two class densities (f for the first population,
g for the second) with the prior probability p of the first class.  The
weighted difference

    delta(x) = p f(x) - (1 - p) g(x)

drives everything downstream: the optimal rule classifies to the first
population where delta > 0, and the bandwidth theory is controlled by the
zeros of delta (the crossing points), the slope of delta there, and the
curvatures of f and g there.

Benchmark pairs
---------------
class1a   N(0,1) vs N(-1.2, 0.6^2)          opposite-sign curvatures
class1b   N(0,1) vs a skewed normal mixture  opposite-sign curvatures
class2a   N(0,1) vs N(1,1)                   equal curvatures, degenerate
class2b   N(0,1) vs standard Cauchy          same-sign curvatures
pareto    two Pareto tails on [1, inf)       for the tail-classification study
contrast  N(0,1) vs N(0, (1/3)^2)            light-tailed contrast case

All benchmark priors are 1/2.  The class1b mixture is
(1/5) N(1/2, 1) + (1/5) N(1, (2/3)^2) + (3/5) N(19/12, (5/9)^2); its
crossing with the standard normal sits at 0.70666 with curvatures
-0.1556 / +0.3271, and it crosses exactly once on [-4, 5].

Roots are found to the last float: the crossings of delta and the numeric
cdf inversion behind the default `ppf` and `pooled_ppf` bisect a
sign-change bracket until its ends are adjacent floats, and keep the end
with the smaller |value| (or a midpoint where the value is exactly 0).  A
pair keeps its crossings at the defaults once found, so the plans, the
Bayes risk and the Monte-Carlo risk of one pair share one search (which
assumes its densities' parameters are not changed afterwards).

Only the normal quantile imports scipy (scipy.special.ndtri, on the first
call).  The normal cdf is cephes' erf/erfc split on the standard library's
math.erf and math.erfc, so densities, cdfs, samples, derivatives,
`pooled_ppf` and `crossings` use numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateCrossingError, NumericError, ParameterError, ResolutionError,
                     _checked_interval, _require_finite, _require_generator, _require_integers,
                     _require_open_unit, _require_positive)

__all__ = [
    "Density",
    "Normal",
    "NormalMixture",
    "Cauchy",
    "Pareto",
    "CustomDensity",
    "DensityPair",
    "make_pair",
    "PAIR_IDS",
    "CrossingPoint",
    "CrossingSet",
    "crossings",
    "regime_detect",
]

_SQRT_2PI = np.sqrt(2.0 * np.pi)
MAX_DERIV_ORDER = 4

# probabilist Hermite polynomials He_k, k = 0..4; phi^(k)(z) = (-1)^k He_k(z) phi(z)
_HERMITE = (
    lambda z: np.ones_like(z),
    lambda z: z,
    lambda z: z * z - 1.0,
    lambda z: z * (z * z - 3.0),
    lambda z: (z * z) * (z * z - 6.0) + 3.0,
)


def _scalar_like(value):
    return float(value) if np.ndim(value) == 0 else value


class Density:
    """Interface shared by all population densities.

    The public `deriv`, `cdf`, `ppf` and `sample` handle the arguments: they
    check the derivative order (an integer in [0, 4]), the quantile level
    (strictly inside (0, 1)) and the sample size (a whole number >= 0), pass
    x on as a float array, and return a float for scalar input and an array
    of x's shape otherwise; `ppf` raises NumericError for a quantile that
    is not a finite float.  A subclass supplies only the formulas:
    `_deriv(order, x)` and `_cdf(x)` on a float array x, `_ppf(q)` where a
    closed form exists (the default inverts the cdf numerically), and
    `_sample(n, rng)` with n an int.
    """

    support: tuple[float, float] = (-np.inf, np.inf)

    def pdf(self, x):
        return self.deriv(0, x)

    def deriv(self, order, x):
        try:
            k = int(order)
        except (TypeError, ValueError, OverflowError):
            k = -1
        if k != order or not 0 <= k <= MAX_DERIV_ORDER:
            raise ParameterError(f"derivative order must be an integer in "
                                 f"[0, {MAX_DERIV_ORDER}], got {order!r}")
        return _scalar_like(self._deriv(k, np.asarray(x, dtype=float)))

    def cdf(self, x):
        return _scalar_like(self._cdf(np.asarray(x, dtype=float)))

    def ppf(self, q):
        _require_open_unit(q=q)
        try:
            x = float(self._ppf(float(q)))
        except OverflowError:  # a closed form in Python floats past the float range
            x = np.inf
        if not np.isfinite(x):
            raise NumericError(f"the {q!r} quantile is not a finite float, got {x!r}")
        return x

    def _deriv(self, order, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def _cdf(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def _ppf(self, q):
        """Numeric inversion of cdf from the support's lower edge (or -1)
        and min(1, its upper edge)."""
        lo, hi = self.support
        return _invert_cdf(self.cdf, q, _finite_or(lo, -1.0),
                           min(_finite_or(hi, 1.0), 1.0))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        _require_integers(n=n, minimum=0)
        _require_generator(rng)
        return self._sample(int(n), rng)

    def _sample(self, n, rng):  # pragma: no cover - abstract
        raise NotImplementedError


def _invert_cdf(cdf, q: float, lo: float, hi: float) -> float:
    """Solve cdf(x) = q: step lo down and hi up until they bracket q, then
    bisect the bracket to the last float.  Raises NumericError when 300
    steps on either side do not bracket q."""
    for _ in range(300):
        f_lo = cdf(lo) - q
        if f_lo < 0.0:
            break
        lo = lo * 2 if lo < 0 else lo - max(1.0, abs(lo))
    else:
        raise NumericError(f"no x with cdf(x) < {q:g} found down to {lo:.6g}")
    for _ in range(300):
        f_hi = cdf(hi) - q
        if f_hi > 0.0:
            break
        hi = hi * 2 if hi > 0 else hi + max(1.0, abs(hi))
    else:
        raise NumericError(f"no x with cdf(x) > {q:g} found up to {hi:.6g}")
    return _bisect(lambda x: cdf(x) - q, lo, hi, f_lo, f_hi)


def _bisect(fn, a: float, b: float, fa: float, fb: float) -> float:
    """Root of fn in [a, b], where fa = fn(a) and fb = fn(b) have opposite
    signs: bisect until a and b are adjacent floats and return the one with
    the smaller |fn|, or return a midpoint where fn is exactly 0."""
    while True:
        mid = 0.5 * a + 0.5 * b  # a + b may overflow
        if not a < mid < b:
            return a if abs(fa) <= abs(fb) else b
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm


_SQRT1_2 = math.sqrt(0.5)


def _ndtr(z: float) -> float:
    """Standard normal cdf by cephes' ndtr split: 0.5 + 0.5 erf(x) for
    |x| < sqrt(1/2), x = z / sqrt(2), else 0.5 erfc(|x|) reflected for x > 0."""
    x = z * _SQRT1_2
    if abs(x) < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(abs(x))
    return 1.0 - y if x > 0.0 else y


class Normal(Density):
    """Normal density with mean mu and standard deviation sigma."""

    def __init__(self, mu: float, sigma: float):
        _require_finite(mu=mu)
        _require_positive(sigma=sigma)
        self.mu = float(mu)
        self.sigma = float(sigma)

    def _deriv(self, order, x):
        z = (x - self.mu) / self.sigma
        phi = np.exp(-0.5 * z * z) / _SQRT_2PI
        sign = -1.0 if order % 2 else 1.0
        return sign * _HERMITE[order](z) * phi / self.sigma ** (order + 1)

    def _cdf(self, x):
        z = (x - self.mu) / self.sigma
        if z.ndim == 0:
            return _ndtr(float(z))
        return np.array([_ndtr(v) for v in z.ravel().tolist()]).reshape(z.shape)

    def _ppf(self, q):
        from scipy.special import ndtri
        return self.mu + self.sigma * ndtri(q)

    def _sample(self, n, rng):
        return rng.normal(self.mu, self.sigma, size=n)

    def __repr__(self):
        return f"Normal({self.mu:g}, {self.sigma:g})"


class NormalMixture(Density):
    """Finite mixture of normals given by weights, means, and sds."""

    def __init__(self, weights, means, sigmas):
        _require_positive(weights=weights)
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1:
            raise ParameterError(f"weights must be a sequence, got {weights!r}")
        for name, values in (("means", means), ("sigmas", sigmas)):
            try:
                matched = len(values) == len(w)
            except TypeError:  # no length: a number, None
                matched = False
            if not matched:
                raise ParameterError(f"{name} must give one value per weight, got {values!r}")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ParameterError("weights must sum to 1")
        _require_finite(**{f"means[{i}]": m for i, m in enumerate(means)})
        _require_positive(**{f"sigmas[{i}]": s for i, s in enumerate(sigmas)})
        self.weights = w
        self.components = tuple(Normal(m, s) for m, s in zip(means, sigmas))

    def _deriv(self, order, x):
        return sum(w * c.deriv(order, x) for w, c in zip(self.weights, self.components))

    def _cdf(self, x):
        return sum(w * c.cdf(x) for w, c in zip(self.weights, self.components))

    def _sample(self, n, rng):
        counts = rng.multinomial(n, self.weights)
        parts = [c.sample(k, rng) for c, k in zip(self.components, counts) if k > 0]
        out = np.concatenate(parts) if parts else np.empty(0)
        rng.shuffle(out)
        return out

    def __repr__(self):
        inner = " + ".join(
            f"{w:g}*{c!r}" for w, c in zip(self.weights, self.components)
        )
        return f"NormalMixture({inner})"


class Cauchy(Density):
    """Cauchy density with location loc and scale gamma (standard by default)."""

    def __init__(self, loc: float = 0.0, gamma: float = 1.0):
        _require_finite(loc=loc)
        _require_positive(gamma=gamma)
        self.loc = float(loc)
        self.gamma = float(gamma)

    def _deriv(self, order, x):
        z = (x - self.loc) / self.gamma
        w = 1.0 + z * z
        if order == 0:
            core = 1.0 / w
        elif order == 1:
            core = -2.0 * z / w**2
        elif order == 2:
            core = (6.0 * z * z - 2.0) / w**3
        elif order == 3:
            core = 24.0 * z * (1.0 - z * z) / w**4
        else:
            core = 24.0 * (5.0 * z**4 - 10.0 * z * z + 1.0) / w**5
        return core / (np.pi * self.gamma ** (order + 1))

    def _cdf(self, x):
        return 0.5 + np.arctan((x - self.loc) / self.gamma) / np.pi

    def _ppf(self, q):
        return self.loc + self.gamma * np.tan(np.pi * (q - 0.5))

    def _sample(self, n, rng):  # quantile transform of uniforms
        return self._ppf(rng.uniform(0.0, 1.0, size=n))

    def __repr__(self):
        return f"Cauchy({self.loc:g}, {self.gamma:g})"


class Pareto(Density):
    """Pareto density (alpha - 1) x**(-alpha) on [1, inf), alpha > 1.

    The exponent alpha is the density's decay rate, so the survival function
    is x**(1 - alpha); e.g. alpha = 2 gives P(X > 2) = 1/2.
    """

    def __init__(self, alpha: float):
        _require_finite(alpha=alpha)
        if not alpha > 1.0:
            raise ParameterError(f"alpha must be finite and exceed 1, got {alpha!r}")
        self.alpha = float(alpha)
        self.support = (1.0, np.inf)

    def _deriv(self, order, x):
        a = self.alpha
        coef = a - 1.0
        for i in range(order):
            coef *= -(a + i)
        inside = x >= 1.0
        xs = np.where(inside, x, 1.0)
        return np.where(inside, coef * xs ** (-(a + order)), 0.0)

    def _cdf(self, x):
        inside = x >= 1.0
        xs = np.where(inside, x, 1.0)
        return np.where(inside, 1.0 - xs ** (1.0 - self.alpha), 0.0)

    def _ppf(self, q):
        return (1.0 - q) ** (-1.0 / (self.alpha - 1.0))

    def _sample(self, n, rng):  # quantile transform of uniforms
        return self._ppf(rng.uniform(0.0, 1.0, size=n))

    def __repr__(self):
        return f"Pareto({self.alpha:g})"


class CustomDensity(Density):
    """Adapter for user-supplied callables.

    Parameters
    ----------
    pdf : callable
        Vectorized density function; like derivs and cdf, it is called with
        a float array.
    derivs : sequence of callables, optional
        derivs[k-1] evaluates the k-th derivative (k = 1..4).  Orders without
        a callable raise ParameterError when requested.
    cdf, ppf, sampler : callables, optional
        ppf is called only with a level inside (0, 1); sampler(n, rng) must
        return an ndarray of n draws.
    """

    def __init__(self, pdf, derivs=(), cdf=None, ppf=None, sampler=None,
                 support=(-np.inf, np.inf)):
        self._fns = (pdf, *derivs)
        self._cdf_fn = cdf
        self._ppf_fn = ppf
        self._sampler = sampler
        self.support = _checked_interval("support", support)

    def _deriv(self, order, x):
        if order >= len(self._fns) or self._fns[order] is None:
            raise ParameterError(f"custom density has no derivative of order {order}")
        return self._fns[order](x)

    def _cdf(self, x):
        if self._cdf_fn is None:
            raise ParameterError("custom density has no cdf")
        return self._cdf_fn(x)

    def _ppf(self, q):
        if self._ppf_fn is not None:
            return self._ppf_fn(q)
        if self._cdf_fn is None:
            raise ParameterError("custom density has no cdf to invert")
        return super()._ppf(q)

    def _sample(self, n, rng):
        if self._sampler is None:
            raise ParameterError("custom density has no sampler")
        return self._sampler(n, rng)


# ----------------------------------------------------------------------
# density pairs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DensityPair:
    """Two population densities plus the prior p of the first population."""

    f: Density
    g: Density
    p: float
    name: str = "custom"

    def __post_init__(self):
        _require_open_unit(p=self.p)

    def delta(self, x):
        """p f(x) - (1 - p) g(x); positive where the first population wins."""
        return self.p * self.f.pdf(x) - (1.0 - self.p) * self.g.pdf(x)

    def delta_deriv(self, order, x):
        return self.p * self.f.deriv(order, x) - (1.0 - self.p) * self.g.deriv(order, x)

    def density(self, which: str) -> Density:
        if which == "f":
            return self.f
        if which == "g":
            return self.g
        raise ParameterError("which must be 'f' or 'g'")

    def pooled_cdf(self, x):
        return self.p * self.f.cdf(x) + (1.0 - self.p) * self.g.cdf(x)

    def pooled_ppf(self, q: float) -> float:
        _require_open_unit(q=q)
        lo = min(_finite_or(self.f.support[0], -1.0), _finite_or(self.g.support[0], -1.0))
        hi = max(_finite_or(self.f.support[1], 1.0), _finite_or(self.g.support[1], 1.0))
        return _invert_cdf(self.pooled_cdf, float(q), lo, hi)

    def sample(self, which: str, n: int, rng: np.random.Generator):
        return self.density(which).sample(n, rng)


def _finite_or(v: float, fallback: float) -> float:
    return float(v) if np.isfinite(v) else fallback


_MIX_WEIGHTS = (0.2, 0.2, 0.6)
_MIX_MEANS = (0.5, 1.0, 19.0 / 12.0)
_MIX_SIGMAS = (1.0, 2.0 / 3.0, 5.0 / 9.0)

PAIR_IDS = ("class1a", "class1b", "class2a", "class2b", "pareto", "contrast")


def make_pair(pair_id: str, *, alpha: float | None = None, beta: float | None = None,
              p: float | None = None) -> DensityPair:
    """Construct a benchmark density pair by id.

    `pareto` requires alpha and beta with 1 < alpha < beta < alpha + 1 (the
    regime in which the heavier-tailed population should win far out, yet a
    fixed-bandwidth rule keeps misclassifying there) and takes the prior p,
    1/2 by default.  The other ids take none of alpha, beta and p: their
    prior is 1/2, and passing any of them raises ParameterError.
    """
    pid = str(pair_id).lower()
    if pid != "pareto" and (alpha, beta, p) != (None, None, None):
        raise ParameterError(f"pair {pair_id!r} takes no alpha, beta or p; only 'pareto' does")
    if pid == "class1a":
        return DensityPair(Normal(0.0, 1.0), Normal(-1.2, 0.6), 0.5, pid)
    if pid == "class1b":
        g = NormalMixture(_MIX_WEIGHTS, _MIX_MEANS, _MIX_SIGMAS)
        return DensityPair(Normal(0.0, 1.0), g, 0.5, pid)
    if pid == "class2a":
        return DensityPair(Normal(0.0, 1.0), Normal(1.0, 1.0), 0.5, pid)
    if pid == "class2b":
        return DensityPair(Normal(0.0, 1.0), Cauchy(), 0.5, pid)
    if pid == "pareto":
        if alpha is None or beta is None:
            raise ParameterError("pareto pair requires alpha and beta")
        _require_finite(alpha=alpha, beta=beta)
        if not (1.0 < alpha < beta < alpha + 1.0):
            raise ParameterError(
                "pareto pair requires 1 < alpha < beta < alpha + 1, got "
                f"alpha={alpha!r}, beta={beta!r}"
            )
        return DensityPair(Pareto(alpha), Pareto(beta), 0.5 if p is None else p, pid)
    if pid == "contrast":
        return DensityPair(Normal(0.0, 1.0), Normal(0.0, 1.0 / 3.0), 0.5, pid)
    raise ParameterError(f"unknown pair id {pair_id!r}; choose from {PAIR_IDS}")


# ----------------------------------------------------------------------
# crossings
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CrossingPoint:
    """A zero of delta with the local quantities the expansions need."""

    y: float
    delta_prime: float
    f_value: float
    g_value: float
    f2: float
    g2: float
    f4: float
    g4: float


@dataclass(frozen=True)
class CrossingSet:
    """All crossings of delta on an interval plus the detected regime.

    regime is "class1" when no single curvature ratio can cancel the leading
    bias at every crossing, "class2" when the common ratio exists (same-sign
    curvatures, identical ratio across crossings).  For class2 sets, `ratio`
    holds R = p f''(y) / ((1-p) g''(y)) and `t_factor` holds
    p f''''(y) - R^2 (1-p) g''''(y); t_factor == 0 marks the degenerate
    subcase in which the second-order bias also cancels.
    """

    points: tuple[CrossingPoint, ...]
    interval: tuple[float, float]
    regime: str | None
    ratio: float | None = None
    t_factor: float | None = None

    @property
    def nu(self) -> int:
        return len(self.points)


_SLOPE_TOL = 1e-6
_RATIO_RTOL = 1e-6
_CURV_TOL = 1e-12


def regime_detect(pair: DensityPair, points) -> tuple[str, float | None, float | None]:
    """Classify a crossing collection into the class1/class2 dichotomy.

    Returns (regime, ratio, t_factor); ratio and t_factor are None for
    class1.  Raises DegenerateCrossingError when both curvatures vanish at
    some crossing (neither regime's expansion applies there).
    """
    pts = tuple(points)
    if not pts:
        raise ParameterError("regime detection needs at least one crossing")
    p, q = pair.p, 1.0 - pair.p
    for pt in pts:
        if abs(pt.f2) <= _CURV_TOL and abs(pt.g2) <= _CURV_TOL:
            raise DegenerateCrossingError(
                f"both curvatures vanish at crossing {pt.y:.6g}; "
                "the bandwidth expansions do not cover this pair"
            )
    r0 = _shared_ratio((p, pt.f2, q, pt.g2) for pt in pts)
    if r0 is None:
        return "class1", None, None
    t = p * pts[0].f4 - r0 * r0 * q * pts[0].g4
    return "class2", r0, t


def _shared_ratio(curvatures) -> float | None:
    """The class2 test: given (w1, c1, w2, c2) per crossing, priors w and
    curvatures c, the ratio R = w1 c1 / (w2 c2) shared by every crossing,
    that is the first crossing's, when the curvatures have one sign at each
    and every ratio is within _RATIO_RTOL of the first; None otherwise."""
    ratios = [None if c1 * c2 <= 0.0 else (w1 * c1) / (w2 * c2) for w1, c1, w2, c2 in curvatures]
    r0 = ratios[0]
    if None in ratios or any(abs(r - r0) > _RATIO_RTOL * abs(r0) for r in ratios):
        return None
    return r0


def crossings(pair: DensityPair, interval: tuple[float, float] | None = None,
              grid_points: int = 4096) -> CrossingSet:
    """Locate all zeros of delta on an interval and classify the regime.

    The default interval runs between the 1e-4 and 1 - 1e-4 quantiles of the
    pooled mixture p F + (1-p) G.  A uniform scan with `grid_points` nodes
    brackets sign changes; each bracket is bisected until its ends are
    adjacent floats, and the root is the end with the smaller |delta| (or a
    midpoint where delta is exactly 0).  A refined root
    whose analytic slope disagrees with the bracket's endpoint signs means
    the cell hid additional roots and raises ResolutionError; a slope below
    1e-6 in absolute value raises DegenerateCrossingError.

    At the defaults (interval None, 4096 grid points) the set is found on
    the first call and kept on the pair: later calls, `bayes_risk`'s among
    them, return that same object.  The pair's fields are frozen but its
    densities' parameters are plain attributes; the kept set assumes they
    are not changed afterwards.
    """
    _require_integers(grid_points=grid_points, minimum=8)
    memo = interval is None and grid_points == 4096
    if memo and "_crossings" in vars(pair):
        return vars(pair)["_crossings"]
    if interval is None:
        interval = (pair.pooled_ppf(1e-4), pair.pooled_ppf(1.0 - 1e-4))
    lo, hi = _checked_interval("interval", interval, finite=True)

    xs = np.linspace(lo, hi, int(grid_points))
    ds = pair.delta(xs)
    if not np.all(np.isfinite(ds)):
        raise ParameterError("delta is not finite on the scan interval")
    signs = np.sign(ds)

    # a node zero is bracketed by its neighbours, a sign change by its cell
    zero = signs == 0.0
    nodes = np.flatnonzero(zero | np.append(signs[:-1] * signs[1:] < 0.0, False))
    starts = np.where(zero[nodes], np.maximum(nodes - 1, 0), nodes)
    ends = np.minimum(nodes + 1, len(xs) - 1)

    roots: list[tuple[float, float]] = []
    for a, b in zip(xs[starts], xs[ends]):
        fa, fb = pair.delta(a), pair.delta(b)
        if fa == 0.0:
            root = a
        elif fb == 0.0:
            root = b
        elif fa * fb > 0.0:
            # node zero with same-signed neighbours: a tangency the scan
            # cannot orient
            raise ResolutionError(
                f"tangent zero of delta near [{a:.6g}, {b:.6g}]; "
                "increase grid_points or shrink the interval"
            )
        else:
            root = _bisect(pair.delta, a, b, fa, fb)
        slope = pair.delta_deriv(1, root)
        if abs(slope) < _SLOPE_TOL:
            raise DegenerateCrossingError(
                f"|delta'| = {abs(slope):.3g} at crossing {root:.6g} is below "
                f"{_SLOPE_TOL:g}; expansions need a transversal crossing"
            )
        if np.sign(slope) != np.sign(fb - fa):
            raise ResolutionError(
                f"slope direction at {root:.6g} contradicts the bracketing "
                "cell; the cell likely hides multiple roots — increase grid_points"
            )
        if roots and abs(root - roots[-1][0]) < 1e-10 * max(1.0, abs(root)):
            continue
        roots.append((root, slope))

    pts = tuple(
        CrossingPoint(y=r, delta_prime=slope,
                      f_value=pair.f.pdf(r), g_value=pair.g.pdf(r),
                      f2=pair.f.deriv(2, r), g2=pair.g.deriv(2, r),
                      f4=pair.f.deriv(4, r), g4=pair.g.deriv(4, r))
        for r, slope in roots
    )
    regime, ratio, t_factor = regime_detect(pair, pts) if pts else (None, None, None)
    cs = CrossingSet(points=pts, interval=(lo, hi), regime=regime,
                     ratio=ratio, t_factor=t_factor)
    if memo:
        vars(pair)["_crossings"] = cs
    return cs

