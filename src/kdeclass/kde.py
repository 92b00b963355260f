"""Kernel density estimation on sorted data.

The estimator is the standard

    fhat(x) = (1 / (count * h)) * sum_i K((x - X_i) / h)

with a compactly supported kernel, so only data inside [x - h*s, x + h*s]
contribute.  Scalar evaluation sums the kernel over the binary-search window
of the sorted sample.  Array evaluation goes through one scatter engine,
`_kde_many`, shared by the classifier, cross-validation, risk and the
bootstrap selector: each datum adds its kernel values to the contiguous run
of sorted points it reaches, so work grows with the pairs inside the support
rather than with points x data.  The engine adds those values in the order
numpy's pairwise sum adds a row of the dense (point x datum) kernel matrix,
so its results equal the dense sum bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

from .errors import NumericError, ParameterError
from .kernels import TRIWEIGHT, Kernel

__all__ = [
    "KdeEstimate",
    "kde_mean_var",
    "smoothed_bootstrap",
]

#: cap on the (data x window) block one engine step evaluates, in doubles,
#: above one sample's block of at most 128 data; larger blocks raised peak
#: memory without running faster
_BLOCK_ELEMENTS = 50_000

#: numpy sums a contiguous row pairwise: it halves the row (at a multiple of
#: 8) down to blocks of at most 128 values and adds each block in 8
#: interleaved lanes, then the block's last (size mod 8) values one by one
_PAIRWISE_BLOCK = 128
_LANES = 8


def _checked_sample(data) -> np.ndarray:
    """data as a float array, which must be nonempty and finite."""
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise ParameterError("data must be nonempty")
    if not np.all(np.isfinite(data)):
        raise ParameterError("data must be finite")
    return data


def _kde_many(samples, hs, points, kernel: Kernel = TRIWEIGHT) -> np.ndarray:
    """Estimates of B samples at G bandwidths on T sorted points at once:

        out[b, g, t] = (1 / (n * hs[g])) * sum_i K((points[t] - samples[b, i]) / hs[g])

    with samples of shape (B, n), finite, and points sorted ascending as
    np.sort orders them (NaN last).  Each datum's kernel reaches a
    contiguous run of points; one searchsorted per bandwidth finds it and
    the kernel is evaluated on the padded (data x widest run) blocks with
    the same u and the same |u| <= s test as the dense sum over all pairs.
    The values are then added over each sample sorted, in numpy's pairwise
    order, and scaled by 1 / (n * h), so the result equals
    `kernel((points[:, None] - np.sort(sample)) / h).sum(axis=-1) * (1 / (n * h))`
    exactly.  NaN and infinite points give 0.
    """
    samples = np.asarray(samples, dtype=float)
    hs = np.asarray(hs, dtype=float).ravel()
    points = np.asarray(points, dtype=float).ravel()
    if samples.ndim != 2 or samples.shape[1] == 0:
        raise ParameterError("samples must be a 2-D array with at least one column")
    if not np.all(np.isfinite(samples)):
        raise ParameterError("samples must be finite")
    if not np.all(np.isfinite(hs) & (hs > 0)):
        raise ParameterError("bandwidths must be positive and finite")
    numbered = points.size - np.count_nonzero(np.isnan(points))
    if (np.any(np.isnan(points[:numbered]))
            or np.any(points[1:numbered] < points[:numbered - 1])):
        raise ParameterError("points must be sorted ascending, NaN last")
    B, n = samples.shape
    T = points.size
    out = np.zeros((B, hs.size, T))
    if B == 0 or T == 0:
        return out
    data = np.sort(samples, axis=1)
    # the run is widened past X -/+ h*s by more than the rounding of u and of
    # the edges, so no pair with |u| <= s is left out; extra pairs give 0
    slack = 1e-15 * np.abs(data)
    s = float(kernel.support_halfwidth)
    for g, h in enumerate(hs):
        reach = h * s * (1.0 + 1e-14) + slack
        lo = np.searchsorted(points, data - reach, side="left")
        width = int(np.max(np.searchsorted(points, data + reach, side="right") - lo))
        if width == 0:
            continue
        # shifting a run left to fit the array only adds points below
        # X - h*s, whose kernel values are exact zeros
        start = np.minimum(lo, T - width)
        windows = np.lib.stride_tricks.sliding_window_view(points, width)
        total = _pairwise_sum(data, start, windows, h, kernel, 0, n)
        out[:, g] = total * (1.0 / (n * h))
    return out


def _pairwise_sum(data, start, windows, h, kernel, a, m) -> np.ndarray:
    """Kernel sums (B, T) over data columns a..a+m-1, each datum adding its
    values into the run of points `windows[start]`, in numpy's pairwise
    order."""
    if m > _PAIRWISE_BLOCK:
        half = m // 2 - (m // 2) % _LANES
        return (_pairwise_sum(data, start, windows, h, kernel, a, half)
                + _pairwise_sum(data, start, windows, h, kernel, a + half, m - half))
    B, width = data.shape[0], windows.shape[1]
    T = windows.shape[0] + width - 1
    window = np.arange(width)
    body = m - m % _LANES
    total = np.zeros((B, T))
    if body:
        # lane k of sample b collects columns a+k, a+k+8, ... in order, which
        # is the order np.bincount adds them in; one chunk of samples holds
        # whole lanes, so no lane is split between two bincount calls
        lanes = np.zeros(B * _LANES * T)
        base = (np.arange(B)[:, None] * _LANES + np.arange(body) % _LANES) * T
        step = max(1, _BLOCK_ELEMENTS // (body * width))
        for b0 in range(0, B, step):
            rows, cols = slice(b0, b0 + step), slice(a, a + body)
            # (t - X) / h in place: the dense sum's two roundings
            u = windows[start[rows, cols]]
            u -= data[rows, cols, None]
            u /= h
            first = base[b0, 0]
            offset = start[rows, cols] + base[rows] - first
            part = np.bincount((offset[..., None] + window).ravel(), kernel(u).ravel())
            lanes[first:first + part.size] += part
        r = lanes.reshape(B, _LANES, T).transpose(1, 0, 2)
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    if m > body:
        # the block's last values go on one by one: np.add.at adds in index
        # order, which runs through the columns in order for each sample
        tail = slice(a + body, a + m)
        u = windows[start[:, tail]]
        u -= data[:, tail, None]
        u /= h
        np.add.at(total, (np.arange(B)[:, None, None], start[:, tail, None] + window), kernel(u))
    return total


class KdeEstimate:
    """A fitted kernel density estimate.

    Parameters
    ----------
    data : array_like
        Observations; stored sorted.  Must be nonempty and finite.
    h : float
        Bandwidth, strictly positive.
    kernel : Kernel
        Smoothing kernel (triweight by default).
    """

    def __init__(self, data, h: float, kernel: Kernel = TRIWEIGHT):
        arr = _checked_sample(data).ravel()
        if not (np.isfinite(h) and h > 0):
            raise ParameterError("h must be positive")
        self.data = np.sort(arr)
        self.h = float(h)
        self.kernel = kernel
        self.count = int(arr.size)
        half = self.h * float(kernel.support_halfwidth)
        #: closed interval outside which the estimate is identically zero
        self.support = (float(self.data[0] - half), float(self.data[-1] + half))

    # ------------------------------------------------------------------
    def __call__(self, x):
        """Evaluate the estimate at scalar or array x (arrays of any shape,
        in any order, through _kde_many)."""
        if np.ndim(x) == 0:
            return self._eval_scalar(float(x))
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        order = np.argsort(flat)
        out = np.empty(flat.size)
        out[order] = _kde_many(self.data[None, :], [self.h], flat[order], self.kernel)[0, 0]
        return out.reshape(x.shape)

    def _eval_scalar(self, x: float) -> float:
        half = self.h * float(self.kernel.support_halfwidth)
        lo = np.searchsorted(self.data, x - half, side="left")
        hi = np.searchsorted(self.data, x + half, side="right")
        if hi <= lo:
            return 0.0
        u = (x - self.data[lo:hi]) / self.h
        return float(np.sum(self.kernel(u))) / (self.count * self.h)

    # ------------------------------------------------------------------
    def loo(self, i: int) -> float:
        """Leave-one-out value fhat_{-i}(X_i).

        Uses the identity count*h*fhat(X_i) = sum_j K((X_i-X_j)/h), so the
        left-out value is (that sum - K(0)) / ((count - 1) * h).
        """
        if not 0 <= i < self.count:
            raise ParameterError("index out of range")
        if self.count < 2:
            raise ParameterError("leave-one-out needs at least two points")
        xi = float(self.data[i])
        total = self._eval_scalar(xi) * self.count * self.h
        return (total - self.kernel.at_zero) / ((self.count - 1) * self.h)

    def loo_all(self) -> np.ndarray:
        """Leave-one-out values at every data point, in sorted-data order."""
        if self.count < 2:
            raise ParameterError("leave-one-out needs at least two points")
        totals = self(self.data) * self.count * self.h
        return (totals - self.kernel.at_zero) / ((self.count - 1) * self.h)

    def __repr__(self) -> str:
        return (
            f"KdeEstimate(count={self.count}, h={self.h:g}, "
            f"kernel={self.kernel.name!r})"
        )


def kde_mean_var(density, kernel: Kernel, h: float, count: int, y: float):
    """Exact mean and variance of a KDE at one point under a known density.

    E fhat(y)   = int K(t) f(y - h t) dt
    Var fhat(y) = (1/count) * [ (1/h) int K(t)^2 f(y - h t) dt - (E fhat(y))^2 ]

    both integrals over the kernel support [-s, s] by adaptive quadrature
    with absolute tolerance 1e-10.
    """
    if not (np.isfinite(h) and h > 0):
        raise ParameterError("h must be positive")
    if count < 1:
        raise ParameterError("count must be at least 1")
    s = float(kernel.support_halfwidth)

    def _quad(fn):
        val, err = quad(fn, -s, s, epsabs=1e-10, epsrel=1e-10, limit=200)
        if err > 1e-7:
            raise NumericError(f"quadrature error estimate {err:.2g} too large")
        return val

    mean = _quad(lambda t: kernel(t) * density.pdf(y - h * t))
    second = _quad(lambda t: kernel(t) ** 2 * density.pdf(y - h * t)) / h
    var = (second - mean * mean) / count
    return mean, var


def smoothed_bootstrap(est: KdeEstimate, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `size` points whose exact density is the fitted estimate.

    Each draw is data[J] + h * eps with J uniform on the data indices and
    eps a kernel draw (rejection sampled).
    """
    size = int(size)
    if size < 0:
        raise ParameterError("size must be nonnegative")
    idx = rng.integers(0, est.count, size=size)
    eps = est.kernel.sample(rng, size=size)
    return est.data[idx] + est.h * eps
