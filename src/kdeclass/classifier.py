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

import numpy as np

from .densities import DensityPair
from .errors import EmptyTailError, ParameterError
from .kde import KdeEstimate
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
    if not 0.0 < p < 1.0:
        raise ParameterError("prior p must lie strictly inside (0, 1)")
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
    fv = clf.fhat(x)
    gv = clf.ghat(x)
    if fv == 0.0 and gv == 0.0:
        return None
    return _body_label(clf.p * fv - (1.0 - clf.p) * gv)


def classify_tail(clf: TrainedClassifier, x: float, side: str) -> Label:
    """Tail rule on one side: attribute x to the sample whose kernel support
    ends nearest to it.

    For side "right" the candidate endpoints are X_i + h1*s and Y_j + h2*s
    that do not exceed x; the largest wins, ties go to the first population.
    Side "left" mirrors with left endpoints >= x and the smallest winning.
    Requires both estimates to vanish at x; raises EmptyTailError when no
    endpoint exists on the requested side.
    """
    if side not in ("right", "left"):
        raise ParameterError("side must be 'right' or 'left'")
    if clf.fhat(x) != 0.0 or clf.ghat(x) != 0.0:
        raise ParameterError("tail rule requires both estimates to vanish at x")
    half_f = clf.fhat.h * float(clf.fhat.kernel.support_halfwidth)
    half_g = clf.ghat.h * float(clf.ghat.kernel.support_halfwidth)
    if side == "right":
        ends_f = clf.fhat.data + half_f
        ends_g = clf.ghat.data + half_g
        cand_f = ends_f[ends_f <= x]
        cand_g = ends_g[ends_g <= x]
        if cand_f.size == 0 and cand_g.size == 0:
            raise EmptyTailError("no kernel support endpoint at or below x")
        best_f = cand_f.max() if cand_f.size else -math.inf
        best_g = cand_g.max() if cand_g.size else -math.inf
        if best_f >= best_g:
            return Label(FROM_F, "tail-right", tie_break=best_f == best_g)
        return Label(FROM_G, "tail-right")
    ends_f = clf.fhat.data - half_f
    ends_g = clf.ghat.data - half_g
    cand_f = ends_f[ends_f >= x]
    cand_g = ends_g[ends_g >= x]
    if cand_f.size == 0 and cand_g.size == 0:
        raise EmptyTailError("no kernel support endpoint at or above x")
    best_f = cand_f.min() if cand_f.size else math.inf
    best_g = cand_g.min() if cand_g.size else math.inf
    if best_f <= best_g:
        return Label(FROM_F, "tail-left", tie_break=best_f == best_g)
    return Label(FROM_G, "tail-left")


def classify_ahat(clf: TrainedClassifier, x: float) -> Label:
    """Composite rule: body rule where defined, else the tail rule on the
    side of the pooled lower median that x falls on."""
    body = classify_a1(clf, x)
    if body is not None:
        return body
    side = "right" if x > clf.pooled_median else "left"
    return classify_tail(clf, x, side)


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
    if np.any(priors <= 0) or abs(priors.sum() - 1.0) > 1e-9:
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
    xd = np.atleast_2d(np.asarray(x_data, dtype=float))
    yd = np.atleast_2d(np.asarray(y_data, dtype=float))
    q = np.asarray(x, dtype=float).ravel()
    d = q.size
    if xd.shape[1] != d or yd.shape[1] != d:
        raise ParameterError("data and query dimensions disagree")
    if not 0.0 < p < 1.0:
        raise ParameterError("prior p must lie strictly inside (0, 1)")
    if h1 <= 0 or h2 <= 0:
        raise ParameterError("bandwidths must be positive")
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
def _support_islands(clf: TrainedClassifier) -> list[tuple[float, float]]:
    """Merged union of the kernel support intervals of both samples."""
    half_f = clf.fhat.h * float(clf.fhat.kernel.support_halfwidth)
    half_g = clf.ghat.h * float(clf.ghat.kernel.support_halfwidth)
    starts = np.concatenate([clf.fhat.data - half_f, clf.ghat.data - half_g])
    ends = np.concatenate([clf.fhat.data + half_f, clf.ghat.data + half_g])
    order = np.argsort(starts)
    starts, ends = starts[order], ends[order]
    islands: list[tuple[float, float]] = []
    cur_a, cur_b = starts[0], ends[0]
    for a, b in zip(starts[1:], ends[1:]):
        if a <= cur_b:
            cur_b = max(cur_b, b)
        else:
            islands.append((float(cur_a), float(cur_b)))
            cur_a, cur_b = a, b
    islands.append((float(cur_a), float(cur_b)))
    return islands


_BASE_GRID = 2048
_REFINE_WIDTH = 1e-10


def _scan_island(clf: TrainedClassifier, a: float, b: float,
                 spacing: float) -> list[tuple[float, float, str]]:
    """Sign-scan deltahat on [a, b] and return labeled subsegments.

    Signs are sampled at the midpoints of the scan cells rather than at the
    grid points themselves: the island edges (and interior contact points of
    touching kernel supports) have both estimates exactly zero, which is a
    vacuous tie outside the body rule's domain, not a vote for the first
    population.
    """
    npts = int(np.ceil((b - a) / spacing)) + 1
    npts = min(max(npts, 65), 1_000_000)
    xs = np.linspace(a, b, npts)
    mids = 0.5 * (xs[:-1] + xs[1:])
    dv = clf.p * clf.fhat(mids) - (1.0 - clf.p) * clf.ghat(mids)
    labs = np.where(dv >= 0.0, 0, 1)  # 0 = f, 1 = g
    segs: list[tuple[float, float, str]] = []
    seg_start = a
    for i in range(mids.size - 1):
        if labs[i + 1] != labs[i]:
            cut = _refine_flip(clf, mids[i], mids[i + 1], labs[i])
            segs.append((seg_start, cut, FROM_F if labs[i] == 0 else FROM_G))
            seg_start = cut
    segs.append((seg_start, b, FROM_F if labs[-1] == 0 else FROM_G))
    return segs


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
    support/4)) and each sign flip is bisected to width 1e-10; in the gaps
    the rule is piecewise constant, so a single interior evaluation labels
    the whole gap.  A region narrower than the scan pitch can fall between
    two midpoints and is then missed, with no warning.
    """
    if rule not in ("ahat", "body"):
        raise ParameterError("rule must be 'ahat' or 'body'")
    if not lo < hi:
        raise ParameterError("need lo < hi")
    islands = _support_islands(clf)
    span = islands[-1][1] - islands[0][0]
    half_f = clf.fhat.h * float(clf.fhat.kernel.support_halfwidth)
    half_g = clf.ghat.h * float(clf.ghat.kernel.support_halfwidth)
    spacing = min(span / _BASE_GRID, min(half_f, half_g) / 4.0)

    segs: list[tuple[float, float, str]] = []
    cursor = lo

    def gap_label(gl: float, gr: float) -> str:
        if rule == "body":
            return FROM_F  # deltahat == 0 there; tie-break
        mid = 0.5 * (gl + gr)
        if not np.isfinite(mid):
            mid = gr - 1.0 if np.isfinite(gr) else gl + 1.0
        return classify_ahat(clf, float(mid)).population

    for ia, ib in islands:
        if ib <= cursor or ia >= hi:
            continue
        if ia > cursor:
            gl, gr = cursor, min(ia, hi)
            segs.append((gl, gr, gap_label(gl, gr)))
            cursor = gl = gr
        a = max(cursor, ia)
        b = min(hi, ib)
        if a < b:
            segs.extend(_scan_island(clf, a, b, spacing))
            cursor = b
        if cursor >= hi:
            break
    if cursor < hi:
        segs.append((cursor, hi, gap_label(cursor, hi)))

    # merge adjacent segments with equal labels
    merged: list[tuple[float, float, str]] = []
    for a, b, lab in segs:
        if merged and merged[-1][2] == lab:
            merged[-1] = (merged[-1][0], b, lab)
        else:
            merged.append((a, b, lab))
    return merged
