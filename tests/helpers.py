"""Shared independent oracles for the test suite.

These deliberately avoid the library's own shortcut formulas: the tail
oracle, for instance, locates the nearest point of positive density by a
grid scan plus bisection on the fitted estimates, never by endpoint
arithmetic on the raw data.
"""

from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as P

from kdeclass import KdeEstimate, classify_ahat


def polyval_kernel(kernel, u):
    """Reference kernel values: np.polyval of the full-degree coefficients
    (a_k at power 2k of u, zeros between) at u, with points failing
    |u| <= 1 (NaN included) evaluated at 0 and then set to 0."""
    full = np.zeros(2 * len(kernel.poly_coeffs) - 1)
    full[::2] = [float(a) for a in kernel.poly_coeffs]
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) <= 1.0
    return np.where(inside, np.polyval(full[::-1], np.where(inside, u, 0.0)), 0.0)


def kernel_cdf(kernel, x):
    """Reference kernel cdf, the integral of K from -1 to x: numpy.polynomial's
    antiderivative of the exact full-degree coefficients, zero at -1,
    evaluated exactly at x clipped to [-1, 1] and rounded once, so every
    value lies in [0, 1].  A float for scalar x, else an array of x's shape."""
    full = np.full(2 * len(kernel.poly_coeffs) - 1, Fraction(0), dtype=object)
    full[::2] = kernel.poly_coeffs
    anti = P.polyint(full, lbnd=-1)
    values = [float(P.polyval(Fraction(min(max(float(t), -1.0), 1.0)), anti)) for t in np.ravel(x)]
    return values[0] if np.ndim(x) == 0 else np.reshape(values, np.shape(x))


def naive_kde(data, h, kernel, x):
    """Dense reference estimate at every point of x (any shape): the
    reference kernel at all (point, datum) pairs of the sorted sample, no
    support windows, summed per point with numpy's pairwise sum and scaled
    by 1 / (n * h)."""
    data = np.sort(np.asarray(data, dtype=float).ravel())
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return polyval_kernel(kernel, (x[..., None] - data) / h).sum(axis=-1) * (1.0 / (data.size * h))


def ordered_kde(samples, hs, kernel, points):
    """Dense estimates of shape (B, G, T) in the engine's own arithmetic:
    the library callable `kernel` (K or K') at every (point, datum) pair,
    u = (x - X_i) / h formed as naive_kde forms it, a running sum over each
    sorted sample in data order and the scaling by 1 / (n * h); 0.0 at NaN
    points, as the engine promises for any callable.  The pairs the engine
    leaves out add exact zeros here, so the engine must give these values
    bit for bit."""
    samples = np.sort(np.atleast_2d(np.asarray(samples, dtype=float)), axis=1)
    points = np.asarray(points, dtype=float)
    known = ~np.isnan(points)
    out = np.zeros((samples.shape[0], len(hs), points.size))
    for b, data in enumerate(samples):
        for g, h in enumerate(hs):
            running = np.cumsum(kernel((points[known, None] - data) / h), axis=1)
            out[b, g, known] = running[:, -1] * (1.0 / (data.size * h))
    return out


def kde_rounding_bound(data, h, kernel, points):
    """Per-point bound on |library estimate - naive_kde| at every point of
    `points` (any shape):

        eps * (n * sum_i |K(u_i)| + 4 * d * S * m) / (n * h)

    with u_i = (x - X_i) / h as naive_kde forms it, K the reference kernel,
    d = len(kernel.poly_coeffs), S = sum_k |a_k| and m the number of data
    with |u_i| <= 1.  The first term covers adding n values in any order
    (the library's sequential sum and numpy's pairwise sum); the second, per
    datum in the support, the library's Horner rule in 1 - u**2 against
    np.polyval in u, each within 2 * d * S * eps of the exact K.  Where no
    datum has |u_i| <= 1 the bound is 0: both are exactly 0.0 there.  With
    data [0.0] and h = 1 it bounds a single kernel value at u = points."""
    data = np.sort(np.asarray(data, dtype=float).ravel())
    x = np.atleast_1d(np.asarray(points, dtype=float))
    u = (x[..., None] - data) / h
    spread = float(sum(abs(a) for a in kernel.poly_coeffs))
    reached = np.count_nonzero(np.abs(u) <= 1.0, axis=-1)
    values = np.abs(polyval_kernel(kernel, u)).sum(axis=-1)
    n = data.size
    return (np.finfo(float).eps
            * (n * values + 4 * len(kernel.poly_coeffs) * spread * reached) / (n * h))


def nearest_positive_point(est, x, side, lo, hi, grid_points=4001):
    """sup{t <= x : est(t) > 0} for side 'right', inf{t >= x : est(t) > 0}
    for side 'left', found by scanning [lo, hi] and bisecting the boundary.
    Returns -inf / +inf when no such point exists in [lo, hi].
    """
    if side == "right":
        ts = np.linspace(x, lo, grid_points)   # walk downward from x
    else:
        ts = np.linspace(x, hi, grid_points)   # walk upward from x
    vals = est(ts)
    pos = np.nonzero(vals > 0.0)[0]
    if pos.size == 0:
        return -np.inf if side == "right" else np.inf
    k = pos[0]
    if k == 0:
        return float(ts[0])
    # boundary between ts[k-1] (zero) and ts[k] (positive)
    a, b = ts[k - 1], ts[k]
    for _ in range(100):
        mid = 0.5 * (a + b)
        if est(float(mid)) > 0.0:
            b = mid
        else:
            a = mid
        if abs(b - a) < 1e-12:
            break
    return float(b)


def tail_oracle(clf, x, side):
    """Grid-scan reference for the tail rule: attribute x to the sample
    whose region of positive estimated density comes nearest on the given
    side.  Returns 'f', 'g', or None when neither sample has any positive
    density on that side.
    """
    span_lo = min(clf.fhat.data[0] - clf.fhat.h, clf.ghat.data[0] - clf.ghat.h) - 1.0
    span_hi = max(clf.fhat.data[-1] + clf.fhat.h, clf.ghat.data[-1] + clf.ghat.h) + 1.0
    ef = nearest_positive_point(clf.fhat, x, side, span_lo, span_hi)
    eg = nearest_positive_point(clf.ghat, x, side, span_lo, span_hi)
    if not np.isfinite(ef) and not np.isfinite(eg):
        return None
    if side == "right":
        return "f" if ef >= eg else "g"
    return "f" if ef <= eg else "g"


def scan_segments_oracle(clf, lo, hi, rule="ahat"):
    """Reference decision segments: the island-by-island scan the library
    used before it evaluated all islands at once.  A Python merge of the
    support intervals, then per island one evaluation of each estimate at
    the scan-cell midpoints, a bisection of each sign flip (to width 1e-10
    or adjacent floats), and a cursor walk that labels the gaps; adjacent
    equal labels merge at the end."""
    half_f, half_g = clf.fhat.h, clf.ghat.h
    starts = np.concatenate([clf.fhat.data - half_f, clf.ghat.data - half_g])
    ends = np.concatenate([clf.fhat.data + half_f, clf.ghat.data + half_g])
    order = np.argsort(starts)
    starts, ends = starts[order], ends[order]
    islands = []
    cur_a, cur_b = starts[0], ends[0]
    for a, b in zip(starts[1:], ends[1:]):
        if a <= cur_b:
            cur_b = max(cur_b, b)
        else:
            islands.append((float(cur_a), float(cur_b)))
            cur_a, cur_b = a, b
    islands.append((float(cur_a), float(cur_b)))
    span = islands[-1][1] - islands[0][0]
    spacing = min(span / 2048, min(half_f, half_g) / 4.0)

    def refine(a, b, lab_a):
        # down to width 1e-10, or to adjacent floats, where no midpoint is
        # strictly inside
        while b - a > 1e-10:
            mid = 0.5 * (a + b)
            if not a < mid < b:
                break
            if (0 if float(clf.deltahat(mid)) >= 0.0 else 1) == lab_a:
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    def scan(a, b):
        npts = min(max(int(np.ceil((b - a) / spacing)) + 1, 65), 1_000_000)
        xs = np.linspace(a, b, npts)
        mids = 0.5 * (xs[:-1] + xs[1:])
        dv = clf.p * clf.fhat(mids) - (1.0 - clf.p) * clf.ghat(mids)
        labs = np.where(dv >= 0.0, 0, 1)
        out, seg_start = [], a
        for i in range(mids.size - 1):
            if labs[i + 1] != labs[i]:
                cut = refine(mids[i], mids[i + 1], labs[i])
                out.append((seg_start, cut, "f" if labs[i] == 0 else "g"))
                seg_start = cut
        out.append((seg_start, b, "f" if labs[-1] == 0 else "g"))
        return out

    def gap_label(gl, gr):
        if rule == "body":
            return "f"
        mid = 0.5 * (gl + gr)
        if not np.isfinite(mid):
            # one unit in, or one float spacing where that is wider
            mid = (gr - max(1.0, np.spacing(abs(gr))) if np.isfinite(gr)
                   else gl + max(1.0, np.spacing(abs(gl))))
        return classify_ahat(clf, float(mid)).population

    segs, cursor = [], lo
    for ia, ib in islands:
        if ib <= cursor or ia >= hi:
            continue
        if ia > cursor:
            gl, gr = cursor, min(ia, hi)
            segs.append((gl, gr, gap_label(gl, gr)))
            cursor = gr
        a, b = max(cursor, ia), min(hi, ib)
        if a < b:
            segs.extend(scan(a, b))
            cursor = b
        if cursor >= hi:
            break
    if cursor < hi:
        segs.append((cursor, hi, gap_label(cursor, hi)))
    merged = []
    for a, b, lab in segs:
        if merged and merged[-1][2] == lab:
            merged[-1] = (merged[-1][0], b, lab)
        else:
            merged.append((a, b, lab))
    return merged


def dense_cv_surface(x, y, p, grid_h1, grid_h2, kernel):
    """Reference leave-one-out surface: the library's former per-candidate
    loop, one KdeEstimate fit per bandwidth.  Cell (i, j) is cv_err at
    (grid_h1[i], grid_h2[j]) from the same vectors, but each vector depends
    on one bandwidth, so each estimate is fitted once per candidate."""
    q = 1.0 - p
    fhats = [KdeEstimate(x, float(h), kernel) for h in grid_h1]
    ghats = [KdeEstimate(y, float(h), kernel) for h in grid_h2]
    f_vecs = [(p * f.loo_all(), p * f(ghats[0].data)) for f in fhats]
    g_vecs = [(q * g.loo_all(), q * g(fhats[0].data)) for g in ghats]
    return np.array([[p * np.mean(f_loo - g_at_x < 0.0)
                      + q * np.mean(f_at_y - g_loo > 0.0)
                      for g_loo, g_at_x in g_vecs] for f_loo, f_at_y in f_vecs])
