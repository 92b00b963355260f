"""Classification rules built from kernel density estimates.

The body rule assigns x to the first population when

    deltahat(x) = p fhat(x) - (1 - p) ghat(x)

is positive, to the second when negative, and breaks exact ties toward the
first population.  Where both estimates vanish (beyond the data, or in an
interior gap) the body rule is silent — classify_a1 returns None — and the
tail rule takes over: walk from x toward the data, find the nearest kernel
support endpoint, and classify by which sample produced it.  classify_ahat
composes the two, choosing the right or left tail rule by comparing x with
the pooled lower median.

Labels carry the winning population ("f" or "g") and the route that decided
("body", "tail-right", "tail-left").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

from .errors import (EmptyTailError, ParameterError, _checked_interval, _require_open_unit,
                     _require_positive, _require_priors)
from .kde import KdeEstimate, _checked_sample, _exact_slack, _kde_many, _reach
from .kernels import TRIWEIGHT, Kernel, multivariate_norm_constant

__all__ = [
    "FROM_F",
    "FROM_G",
    "Label",
    "TrainedClassifier",
    "fit_classifier",
    "classify_a1",
    "classify_tail",
    "classify_ahat",
    "classify_multi",
    "classify_multivariate",
    "decision_segments",
]

FROM_F = "f"
FROM_G = "g"


@dataclass(frozen=True)
class Label:
    """Outcome of a classification: winning population and deciding route."""

    population: str  # "f" or "g"
    route: str  # "body", "tail-right", "tail-left"
    tie_break: bool = False


@dataclass(frozen=True)
class TrainedClassifier:
    """Density estimates for both populations plus the prior and pooled median."""

    fhat: KdeEstimate
    ghat: KdeEstimate
    p: float
    pooled_median: float

    def deltahat(self, x):
        return self.p * self.fhat(x) - (1.0 - self.p) * self.ghat(x)


def fit_classifier(x_data, y_data, h1: float, h2: float, p: float = 0.5,
                   kernel: Kernel = TRIWEIGHT) -> TrainedClassifier:
    """Fit the two density estimates and cache the pooled lower median."""
    _require_positive(h1=h1, h2=h2)
    _require_open_unit(p=p)
    fhat = KdeEstimate(x_data, h1, kernel)
    ghat = KdeEstimate(y_data, h2, kernel)
    pooled = np.sort(np.concatenate([fhat.data, ghat.data]))
    median = float(pooled[(pooled.size - 1) // 2])  # lower median for even counts
    return TrainedClassifier(fhat=fhat, ghat=ghat, p=p, pooled_median=median)


# ----------------------------------------------------------------------
# rules
# ----------------------------------------------------------------------
def _body_label(d: float) -> Label:
    """Body-rule label of a deltahat value; ties go to the first population."""
    if d > 0.0:
        return Label(FROM_F, "body")
    if d < 0.0:
        return Label(FROM_G, "body")
    return Label(FROM_F, "body", tie_break=True)


def classify_a1(clf: TrainedClassifier, x: float) -> Label | None:
    """Plug-in body rule.  Returns None when both estimates vanish at x."""
    fv, gv = clf.fhat(x), clf.ghat(x)
    if fv == 0.0 and gv == 0.0:
        return None
    return _body_label(clf.p * fv - (1.0 - clf.p) * gv)


def _tail_search(clf: TrainedClassifier, x, side: str):
    """The tail rule (see classify_tail) at a float or float array x: whether
    the first population wins, and whether by a tie."""
    sign = 1 if side == "right" else -1
    z = np.fmax(sign * np.asarray(x, dtype=float), -np.inf)  # NaN: no endpoint
    ends = [np.r_[-np.inf, (sign * e.data + e.h)[::sign]] for e in (clf.fhat, clf.ghat)]
    best_f, best_g = (e[np.searchsorted(e, z, side="right") - 1] for e in ends)
    if np.any(np.maximum(best_f, best_g) == -np.inf):
        raise EmptyTailError(f"no kernel support endpoint at or {('above', 'below')[sign > 0]} x")
    return best_f >= best_g, best_f == best_g


def classify_tail(clf: TrainedClassifier, x: float, side: str) -> Label:
    """Tail rule on one side: attribute x to the sample whose kernel support
    ends nearest to it, ties to the first population.  On side "right" that
    is the largest X_i + h1 or Y_j + h2 at or below x; side "left" is
    side "right" on the negated line (exact).  Each sample's nearest endpoint
    is one np.searchsorted in its sorted endpoints.  Requires both estimates
    to vanish at x; raises EmptyTailError when neither sample has one.
    """
    if side not in ("right", "left"):
        raise ParameterError("side must be 'right' or 'left'")
    if clf.fhat(x) != 0.0 or clf.ghat(x) != 0.0:
        raise ParameterError("tail rule requires both estimates to vanish at x")
    from_f, tie = _tail_search(clf, x, side)
    return Label(FROM_F if from_f else FROM_G, "tail-" + side, tie_break=bool(tie))


def classify_ahat(clf: TrainedClassifier, x: float) -> Label:
    """Composite rule: body rule where defined, else the tail rule on the
    side of the pooled lower median that x falls on."""
    body = classify_a1(clf, x)
    if body is not None:
        return body
    return classify_tail(clf, x, "right" if x > clf.pooled_median else "left")


def _ahat_from_f(clf: TrainedClassifier, x: np.ndarray) -> np.ndarray:
    """Whether classify_ahat gives the first population at each t of the
    float array x (EmptyTailError where it raises), from one call per estimate."""
    fv, gv = clf.fhat(x), clf.ghat(x)
    from_f = clf.p * fv - (1.0 - clf.p) * gv >= 0.0
    tail, right = (fv == 0.0) & (gv == 0.0), x > clf.pooled_median
    for side, at in (("right", tail & right), ("left", tail & ~right)):
        from_f[at] = _tail_search(clf, x[at], side)[0]
    return from_f


def classify_multi(models, x: float) -> int | None:
    """Multi-population body rule: index of the largest prior-weighted
    estimate, ties toward the smallest index; None when every estimate
    vanishes at x.

    `models` is a sequence of (KdeEstimate, prior) pairs; priors must be
    positive and sum to 1.
    """
    models = list(models)
    if len(models) < 2:
        raise ParameterError("need at least two populations")
    _require_priors([w for _, w in models])
    scores = np.array([w * est(x) for est, w in models])
    if np.all(scores == 0.0):
        return None
    return int(np.argmax(scores))  # argmax takes the first maximum


def classify_multivariate(x_data, y_data, h1: float, h2: float, x,
                          p: float = 0.5, kernel: Kernel = TRIWEIGHT) -> Label | None:
    """Body rule in R^d with the spherically symmetric kernel c_d K(||u||).

    Returns None when both estimates vanish at x (the multivariate analogue
    of the univariate both-vanish signal).
    """
    xd = np.atleast_2d(_checked_sample(x_data))
    yd = np.atleast_2d(_checked_sample(y_data))
    q = _checked_sample(x, "x").ravel()
    d = q.size
    if xd.shape[1] != d or yd.shape[1] != d:
        raise ParameterError("data and query dimensions disagree")
    _require_open_unit(p=p)
    _require_positive(h1=h1, h2=h2)
    cd = multivariate_norm_constant(kernel, d)
    rf = np.sqrt(((q[None, :] - xd) ** 2).sum(axis=1)) / h1
    rg = np.sqrt(((q[None, :] - yd) ** 2).sum(axis=1)) / h2
    fv = cd * float(np.sum(kernel(rf))) / (xd.shape[0] * h1**d)
    gv = cd * float(np.sum(kernel(rg))) / (yd.shape[0] * h2**d)
    if fv == 0.0 and gv == 0.0:
        return None
    return _body_label(p * fv - (1.0 - p) * gv)


# ----------------------------------------------------------------------
# decision regions
# ----------------------------------------------------------------------
def _interior_point(a: float, b: float) -> float:
    """A point inside (a, b): the midpoint when both ends are finite, one unit
    in from the finite end when only one is (one float spacing where that
    is wider, above 2**53, so the step cannot round back onto the end), and
    0 on the whole line."""
    if not math.isfinite(a):
        return b - max(1.0, math.ulp(b)) if math.isfinite(b) else 0.0
    return 0.5 * (a + b) if math.isfinite(b) else a + max(1.0, math.ulp(a))


def _support_islands(clf: TrainedClassifier) -> tuple[np.ndarray, np.ndarray]:
    """Merged union of both samples' kernel supports (touching ones merge),
    as the increasing arrays of its islands' starts and ends."""
    starts = np.concatenate([clf.fhat.data - clf.fhat.h, clf.ghat.data - clf.ghat.h])
    ends = np.concatenate([clf.fhat.data + clf.fhat.h, clf.ghat.data + clf.ghat.h])
    order = np.argsort(starts)
    starts, furthest = starts[order], np.maximum.accumulate(ends[order])
    # an island closes where the next support starts beyond every end so far
    close = np.flatnonzero(starts[1:] > furthest[:-1])
    return starts[np.r_[0, close + 1]], furthest[np.r_[close, -1]]


_BASE_GRID = 2048
_REFINE_WIDTH = 1e-10
#: Newton steps after each flip's midpoint anchor (see _refine_flips)
_NEWTON_STEPS = 3


def _bisect(a: float, b: float, lab_a: int, label) -> float:
    """Bisect the label flip inside (a, b): while b - a > 1e-10 and the
    midpoint lies strictly between them (not so once they are adjacent
    floats, beyond |x| of about 5e5), the bracket end whose label the
    midpoint has, label(a, b, mid), moves there.  Returns the last
    midpoint 0.5 * (a + b)."""
    while b - a > _REFINE_WIDTH and a < (mid := 0.5 * (a + b)) < b:
        a, b = (mid, b) if label(a, b, mid) == lab_a else (a, mid)
    return 0.5 * (a + b)


def _refine_flip(clf: TrainedClassifier, a: float, b: float, lab_a: int) -> float:
    """The plain bisection of the label flip inside (a, b), from one scalar
    deltahat at every midpoint, which _refine_flips reproduces bit for bit
    and falls back on."""
    return _bisect(a, b, lab_a, lambda a, b, mid: 0 if float(clf.deltahat(mid)) >= 0.0 else 1)


def _certifiable(clf: TrainedClassifier) -> bool:
    """Whether decision_segments may take signs from Taylor steps (see
    _certify): K and K' vanish at +-1 for both kernels, so that K' is
    Lipschitz with constant max|K''|, and each estimate's scales
    weight / (n h) and weight / (n h**2) lie in [2**-900, 2**900], where
    its values and slopes are normal floats or lose at most 2**-1075 to an
    underflow.  That fails for a bandwidth beyond about 1e135 / sqrt(n) or
    below 1e-135, or a tiny weight; then no slope is formed at all."""
    return all(est.kernel._slope.smooth
               and 2.0 ** -900 <= weight / (est.count * est.h) <= 2.0 ** 900
               and 2.0 ** -900 <= weight / (est.count * est.h) / est.h <= 2.0 ** 900
               for est, weight in ((clf.fhat, clf.p), (clf.ghat, 1.0 - clf.p)))


def _refine_flips(clf: TrainedClassifier, flips) -> list:
    """[_refine_flip(clf, a, b, lab_a) for a, b, lab_a in flips], bit for bit;
    see decision_segments for how the midpoint signs are certified."""
    if not _certifiable(clf):
        return [_refine_flip(clf, *flip) for flip in flips]
    paths, rows = [], []
    for a, b, lab_a in flips:
        # anchors: the first midpoint, then Newton steps clipped to (a, b)
        x, anchors = 0.5 * (a + b), []
        for _ in range(_NEWTON_STEPS + 1):
            d, s = _anchor(clf, float(x))
            anchors.append((x, d, s))
            # a step shorter than the final bracket is as near as it gets
            if s == 0.0 or abs(d) < _REFINE_WIDTH * abs(s):
                break
            x = min(max(x - d / s, a), b)
        path = []

        def taylor(a, b, mid):
            # the bisection path, each midpoint labelled by the step
            # _certify takes from its nearest anchor
            xk, dk, sk = min(anchors, key=lambda k: abs(mid - k[0]))
            path.append((a, b))
            rows.append((mid, xk, dk, sk))
            return 0 if dk + sk * (mid - xk) >= 0.0 else 1

        paths.append((path, _bisect(a, b, lab_a, taylor), lab_a))
    doubt = np.zeros(len(rows), bool)
    if rows:  # _certify has a fixed cost, and many calls have no flips
        doubt[_certify(clf, *np.array(rows).T)[1]] = True
    cuts, first = [], 0
    for path, cut, lab_a in paths:
        bad = np.flatnonzero(doubt[first:first + len(path)])
        first += len(path)
        # from the last certain bracket on, plain bisection: exact by construction
        cuts.append(_refine_flip(clf, *path[bad[0]], lab_a) if bad.size else cut)
    return cuts


def _anchor(clf: TrainedClassifier, x: float) -> tuple[float, float]:
    """deltahat(x), bit for bit as its scalar call, and its slope within
    _slope_at's rounding bound, from one binary-search window per estimate."""
    vals = []
    for est in (clf.fhat, clf.ghat):
        u = est._window(x)
        if not u.size:
            vals += [0.0, 0.0]
            continue
        scale = 1.0 / (est.count * est.h)
        vals += [float(est.kernel(u).cumsum()[-1] * scale),
                 float(est.kernel._slope(u).cumsum()[-1] * scale) / est.h]
    fv, fs, gv, gs = vals
    return clf.p * fv - (1.0 - clf.p) * gv, clf.p * fs - (1.0 - clf.p) * gs


def _scan_labels(clf: TrainedClassifier, scans, spacing: float) -> np.ndarray:
    """np.where(clf.deltahat(mids) >= 0, 0, 1) at the midpoints of all
    scans, exactly; see decision_segments for how signs are certified."""
    mids = np.concatenate([np.empty(0), *scans])
    # the pitch is 0 only when every island has zero width, and so no midpoints
    c = min(int(min(clf.fhat.h, clf.ghat.h) / (8.0 * spacing)), 32) if mids.size else 0
    if c < 4 or not _certifiable(clf):
        return np.where(clf.deltahat(mids) >= 0.0, 0, 1)
    # each midpoint's nearest coarse point: every c-th of its island, or the last
    first = np.cumsum([0] + [m.size for m in scans[:-1]])
    near = [f + np.minimum(np.rint(np.arange(m.size) / c).astype(int) * c, m.size - 1)
            for f, m in zip(first, scans)]
    near = np.concatenate([np.empty(0, np.intp), *near])
    coarse = np.unique(near)
    xk = mids[coarse]
    dk = clf.deltahat(xk)
    sk = clf.p * _slope_at(clf.fhat, xk) - (1.0 - clf.p) * _slope_at(clf.ghat, xk)
    at = np.searchsorted(coarse, near)
    labs, unsure = _certify(clf, mids, xk[at], dk[at], sk[at])
    labs[unsure] = np.where(clf.deltahat(mids[unsure]) >= 0.0, 0, 1)
    return labs


def _slope_at(est: KdeEstimate, x: np.ndarray) -> np.ndarray:
    """est' at the sorted points x: the engine's sum of K'((x - X_i) / h)."""
    return _kde_many(est.data[None, :], [est.h], x, est.kernel._slope)[0, 0] / est.h


def _certify(clf: TrainedClassifier, x, xk, dk, sk):
    """Labels of the points x by the Taylor step dk + sk * (x - xk) from
    the computed deltahat dk and slope sk at xk (exact where x == xk), and
    the indices where the step does not certify the sign of the computed
    deltahat(x).  Their difference is at most twice the rounding of a
    value, plus that of the slope times |x - xk|, plus (1/2) max|deltahat''|
    (x - xk)**2 on [x, xk], plus 4 eps (|dk| + |sk (x - xk)|) for the
    step's own roundings; the bound is widened by 1e-12 for its own.

    These roundings are relative, which holds within _certifiable's scales:
    an underflow there loses at most 2**-1075 each, far inside the widening."""
    gap = x - xk
    step = dk + sk * gap
    bound = 4.0 * np.finfo(float).eps * (np.abs(dk) + np.abs(sk * gap))
    lo, hi = np.minimum(x, xk), np.maximum(x, xk)
    for est, weight in ((clf.fhat, clf.p), (clf.ghat, 1.0 - clf.p)):
        value, slope, curve = _allowances(est, weight, lo, hi)
        r = np.abs(gap) / est.h
        bound += 2.0 * value + (slope + 0.5 * curve * r) * r
    unsure = np.flatnonzero((np.abs(step) <= bound * (1.0 + 1e-12)) & (gap != 0.0))
    return np.where(step >= 0.0, 0, 1), unsure


def _allowances(est: KdeEstimate, weight: float, lo, hi):
    """Per interval [lo, hi], times weight: bounds on the rounding of est's
    computed value and slope anywhere in it (`kde._exact_slack` from the
    kernel's per-term errors, three more roundings each for deltahat's
    products and difference, one more for the slope's division by h), and
    on |est''| there, from the m data whose support meets it: est' is
    Lipschitz with constant m max|K''| / (n h**3).  The slope's bound is per
    unit of r = |x - xk| / h and the curvature's per unit of r**2, so that
    neither takes a power of a huge h."""
    k = est.kernel
    curve = float(k._max_abs_deriv(2))
    slope_err = k._slope.err + 2.001 * np.finfo(float).eps * curve
    reach = _reach(est.h, np.maximum(np.abs(lo), np.abs(hi)) + est.h)
    m = est.data.searchsorted(hi + reach, "right") - est.data.searchsorted(lo - reach)
    w = weight / (est.count * est.h)
    return (w * _exact_slack(m, k._spread, k._value_err, 7),
            w * _exact_slack(m, k._slope.top, slope_err, 8),
            w * curve * m)


def decision_segments(clf: TrainedClassifier, lo: float, hi: float,
                      rule: str = "ahat") -> list[tuple[float, float, str]]:
    """Partition [lo, hi] into maximal intervals of constant classification.

    rule "ahat" uses the composite rule (tail rule in the gaps and beyond
    the data); rule "body" uses the plug-in rule alone with its tie-break,
    so both-vanish regions are labeled toward the first population.  lo may
    be -inf and hi +inf.  Returns a list of (a, b, population) triples in
    increasing order whose union is exactly [lo, hi].  An island of zero
    width, where every kernel support rounds onto one point (data at 1e17
    with h = 1), has no midpoints and is dropped: that point takes the label
    of the gaps around it, which the rule need not give there.

    Inside the support islands the sign of deltahat is sampled at the cell
    midpoints of a uniform scan (pitch min(total span/2048, smaller
    bandwidth/4), at least 64 and at most 999,999 cells per island), and
    each sign flip is bisected to width 1e-10, or, for a cut beyond |x| of
    about 5e5, until its bracket's ends are adjacent floats.  The labels are
    exactly those of evaluating deltahat at every midpoint.  Where the gate
    `_certifiable` holds (K and K' both vanish at +-1, as for the triweight
    and biweight, and each estimate's scales weight / (n h) and
    weight / (n h**2) are in [2**-900, 2**900]) and the pitch is at most
    1/32 of the smaller bandwidth, most are certified instead: deltahat and
    its slope are evaluated at every c-th midpoint of each island and at
    its last, c = min(smaller bandwidth / (8 * pitch), 32), and a Taylor
    step from the nearest of these gives each other midpoint's sign
    wherever the step clears its error bound (max|K''| times the data
    nearby, plus the engine's rounding of values and slopes).  The
    midpoints left in doubt, or all of them, are evaluated in one call per
    estimate; an engine value at a point does not depend on the other
    points, so these are the full scan's values bit for bit.  Each flip is
    bisected as by one scalar deltahat per midpoint, and the cuts are
    exactly that bisection's, value and type.  Under the same gate (any
    pitch) most of its signs are certified the same way: deltahat and its
    slope are evaluated at the flip's first midpoint and at up to three
    Newton steps from it (clipped to the cell; they stop once a step would
    be shorter than 1e-10), each midpoint on the path takes the Taylor step
    from its nearest anchor, and one bound checks all flips' midpoints; a
    flip with a midpoint in doubt is bisected plainly from the last bracket
    before it.  Midpoints, not grid points, since both estimates are
    exactly zero at island edges and where supports touch: a vacuous tie.
    In the gaps the rule is piecewise constant, so one interior point labels
    the whole gap, all gaps by one call per estimate.  A region narrower
    than the scan pitch can fall between two midpoints and is then missed,
    with no warning; an island wider than about 250,000 times the smaller
    bandwidth hits the cell cap and is scanned at the coarser pitch
    width/999,999, also with no warning.
    """
    if rule not in ("ahat", "body"):
        raise ParameterError("rule must be 'ahat' or 'body'")
    _checked_interval("(lo, hi)", (lo, hi))  # the segments keep lo's and hi's types
    starts, ends = _support_islands(clf)
    spacing = min((ends[-1] - starts[0]) / _BASE_GRID, min(clf.fhat.h, clf.ghat.h) / 4.0)
    # the islands meeting (lo, hi), clipped to it: edges run lo, a1, b1, a2,
    # b2, ..., hi, so even pieces are gaps and odd pieces islands
    edges = [lo]
    for ia, ib in zip(starts.tolist(), ends.tolist()):
        if ib > lo and ia < hi:
            edges += [max(lo, ia), min(hi, ib)]
    edges.append(hi)
    pieces = list(zip(edges, edges[1:]))
    scans = []  # each island's scan-cell midpoints
    for a, b in pieces[1::2]:
        if not a < b:  # an island of zero width has no midpoints
            scans.append(np.empty(0))
            continue
        npts = min(max(int(np.ceil((b - a) / spacing)) + 1, 65), 1_000_000)
        xs = np.linspace(a, b, npts)
        scans.append(0.5 * (xs[:-1] + xs[1:]))
    # labels 0 = f, 1 = g, split back into islands
    labs = np.split(_scan_labels(clf, scans, spacing), np.cumsum([m.size for m in scans[:-1]]))

    # one interior point labels each gap; deltahat == 0 there, a tie that
    # "body" gives to the first population
    at = np.array([_interior_point(a, b) for a, b in pieces[::2] if a < b], float)
    gap_f = _ahat_from_f(clf, at) if rule == "ahat" else np.ones(at.size, bool)
    gap_labels = iter(np.where(gap_f, FROM_F, FROM_G).tolist())

    # every flip of every island, bisected at once
    flips = [np.flatnonzero(lab[1:] != lab[:-1]) for lab in labs]
    cuts = iter(_refine_flips(clf, [(x[i], x[i + 1], lab[i])
                                    for x, lab, at in zip(scans, labs, flips) for i in at]))

    segs: list[tuple[float, float, str]] = []
    for k, (a, b) in enumerate(pieces):
        if not a < b:
            continue
        if k % 2 == 0:
            segs.append((a, b, next(gap_labels)))
            continue
        lab, at = labs[k // 2], flips[k // 2]
        cut = [next(cuts) for _ in at]
        segs += zip([a, *cut], [*cut, b], [(FROM_F, FROM_G)[lab[i]] for i in [0, *(at + 1)]])
    # merge adjacent segments with equal labels
    runs = (list(run) for _, run in groupby(segs, key=itemgetter(2)))
    return [(run[0][0], run[-1][1], run[0][2]) for run in runs]
