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

from .densities import DensityPair
from .errors import EmptyTailError, ParameterError, _require_open_unit, _require_positive
from .kde import KdeEstimate, _checked_sample
from .kernels import TRIWEIGHT, Kernel, multivariate_norm_constant

__all__ = [
    "FROM_F",
    "FROM_G",
    "Label",
    "TrainedClassifier",
    "fit_classifier",
    "classify_a0",
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


def classify_a0(pair: DensityPair, x: float) -> Label:
    """Optimal rule from the true densities; ties go to the first population."""
    return _body_label(float(pair.delta(x)))


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
    ends = [np.r_[-np.inf, (sign * e.data + e.reach)[::sign]] for e in (clf.fhat, clf.ghat)]
    best_f, best_g = (e[np.searchsorted(e, z, side="right") - 1] for e in ends)
    if np.any(np.maximum(best_f, best_g) == -np.inf):
        raise EmptyTailError(f"no kernel support endpoint at or {('above', 'below')[sign > 0]} x")
    return best_f >= best_g, best_f == best_g


def classify_tail(clf: TrainedClassifier, x: float, side: str) -> Label:
    """Tail rule on one side: attribute x to the sample whose kernel support
    ends nearest to it, ties to the first population.  On side "right" that
    is the largest X_i + h1*s or Y_j + h2*s at or below x; side "left" is
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
    priors = np.array([float(w) for _, w in models])
    if not (np.all(priors > 0) and abs(priors.sum() - 1.0) <= 1e-9):  # NaN fails too
        raise ParameterError("priors must be positive and sum to 1")
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
    q = np.asarray(x, dtype=float).ravel()
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
    in from the finite end when only one is, and 0 on the whole line."""
    if not math.isfinite(a):
        return b - 1.0 if math.isfinite(b) else 0.0
    return 0.5 * (a + b) if math.isfinite(b) else a + 1.0


def _support_islands(clf: TrainedClassifier) -> tuple[np.ndarray, np.ndarray]:
    """Merged union of both samples' kernel supports (touching ones merge),
    as the increasing arrays of its islands' starts and ends."""
    starts = np.concatenate([clf.fhat.data - clf.fhat.reach, clf.ghat.data - clf.ghat.reach])
    ends = np.concatenate([clf.fhat.data + clf.fhat.reach, clf.ghat.data + clf.ghat.reach])
    order = np.argsort(starts)
    starts, furthest = starts[order], np.maximum.accumulate(ends[order])
    # an island closes where the next support starts beyond every end so far
    close = np.flatnonzero(starts[1:] > furthest[:-1])
    return starts[np.r_[0, close + 1]], furthest[np.r_[close, -1]]


_BASE_GRID = 2048
_REFINE_WIDTH = 1e-10


def _refine_flip(clf: TrainedClassifier, a: float, b: float, lab_a: int) -> float:
    """Bisect the label flip inside (a, b) down to width 1e-10."""
    while b - a > _REFINE_WIDTH:
        mid = 0.5 * (a + b)
        lab_mid = 0 if float(clf.deltahat(mid)) >= 0.0 else 1
        if lab_mid == lab_a:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def decision_segments(clf: TrainedClassifier, lo: float, hi: float,
                      rule: str = "ahat") -> list[tuple[float, float, str]]:
    """Partition [lo, hi] into maximal intervals of constant classification.

    rule "ahat" uses the composite rule (tail rule in the gaps and beyond
    the data); rule "body" uses the plug-in rule alone with its tie-break,
    so both-vanish regions are labeled toward the first population.  lo may
    be -inf and hi +inf.  Returns a list of (a, b, population) triples in
    increasing order whose union is exactly [lo, hi].

    Inside the support islands the sign of deltahat is sampled at the cell
    midpoints of a uniform scan (pitch min(total span/2048, min bandwidth
    support/4), at least 64 cells per island); the midpoints of all islands
    are evaluated once, in one call per estimate, and each sign flip is
    bisected to width 1e-10.  Midpoints, not grid points, since both
    estimates are exactly zero at island edges and where supports touch: a
    vacuous tie.  In the gaps the rule is piecewise constant, so one interior
    point labels the whole gap, all gaps by one call per estimate.  A region
    narrower than the scan pitch can fall between two midpoints and is then
    missed, with no warning.
    """
    if rule not in ("ahat", "body"):
        raise ParameterError("rule must be 'ahat' or 'body'")
    if not lo < hi:
        raise ParameterError("need lo < hi")
    starts, ends = _support_islands(clf)
    spacing = min((ends[-1] - starts[0]) / _BASE_GRID, min(clf.fhat.reach, clf.ghat.reach) / 4.0)
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
        npts = min(max(int(np.ceil((b - a) / spacing)) + 1, 65), 1_000_000)
        xs = np.linspace(a, b, npts)
        scans.append(0.5 * (xs[:-1] + xs[1:]) if a < b else xs[:0])
    mids = np.concatenate([np.empty(0), *scans])
    dv = clf.deltahat(mids)
    # labels 0 = f, 1 = g, split back into islands
    labs = np.split(np.where(dv >= 0.0, 0, 1), np.cumsum([m.size for m in scans[:-1]]))

    # one interior point labels each gap; deltahat == 0 there, a tie that
    # "body" gives to the first population
    at = np.array([_interior_point(a, b) for a, b in pieces[::2] if a < b], float)
    gap_f = _ahat_from_f(clf, at) if rule == "ahat" else np.ones(at.size, bool)
    gap_labels = iter(np.where(gap_f, FROM_F, FROM_G).tolist())

    segs: list[tuple[float, float, str]] = []
    for k, (a, b) in enumerate(pieces):
        if not a < b:
            continue
        if k % 2 == 0:
            segs.append((a, b, next(gap_labels)))
            continue
        x, lab = scans[k // 2], labs[k // 2]
        flips = np.flatnonzero(lab[1:] != lab[:-1])
        cuts = [_refine_flip(clf, x[i], x[i + 1], lab[i]) for i in flips]
        segs += zip([a, *cuts], [*cuts, b], [(FROM_F, FROM_G)[lab[i]] for i in [0, *(flips + 1)]])
    # merge adjacent segments with equal labels
    runs = (list(run) for _, run in groupby(segs, key=itemgetter(2)))
    return [(run[0][0], run[-1][1], run[0][2]) for run in runs]
