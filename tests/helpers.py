"""Shared independent oracles for the test suite.

These deliberately avoid the library's own shortcut formulas: the tail
oracle, for instance, locates the nearest point of positive density by a
grid scan plus bisection on the fitted estimates, never by endpoint
arithmetic on the raw data.
"""

import numpy as np


def naive_kde(data, h, kernel, x):
    """Dense reference estimate at every point of x (any shape): the kernel
    at all (point, datum) pairs of the sorted sample, no support windows,
    summed per point with numpy's pairwise sum and scaled by 1 / (n * h)."""
    data = np.sort(np.asarray(data, dtype=float).ravel())
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return kernel((x[..., None] - data) / h).sum(axis=-1) * (1.0 / (data.size * h))


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
    span_lo = min(clf.fhat.support[0], clf.ghat.support[0]) - 1.0
    span_hi = max(clf.fhat.support[1], clf.ghat.support[1]) + 1.0
    ef = nearest_positive_point(clf.fhat, x, side, span_lo, span_hi)
    eg = nearest_positive_point(clf.ghat, x, side, span_lo, span_hi)
    if not np.isfinite(ef) and not np.isfinite(eg):
        return None
    if side == "right":
        return "f" if ef >= eg else "g"
    return "f" if ef <= eg else "g"
