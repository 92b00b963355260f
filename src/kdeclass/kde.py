"""Kernel density estimation on sorted data.

The estimator is the standard

    fhat(x) = (1 / (count * h)) * sum_i K((x - X_i) / h)

with a compactly supported kernel, so only data inside [x - h*s, x + h*s]
contribute.  Array evaluation goes through one scatter engine,
`_kde_many`, shared by the classifier, cross-validation, risk and the
bootstrap selector: each datum adds its kernel values to the contiguous run
of sorted points it reaches.  Only the live columns, the sorted data from
the first to the last datum that reaches some point, are evaluated, each on
the widest run, so work grows with live columns x widest run rather than
with points x data.  Each block of at most _BLOCK_ELEMENTS values adds them
straight into the output with one np.add.at, which adds in array order, so
each point adds its values in sorted-data order and the results do not
depend on the block size or on how the samples are split.  They
differ from the dense (point x datum) sum by rounding only: per point at
most eps * (n * sum_i |K(u_i)| + 4 * d * S * m) / (n * h), with d, S as in
`kernels` and m the number of data with |u_i| <= s; where no datum reaches
a point the estimate is exactly 0.0.  A scalar call adds the same values in
the same order, with a running sum rather than np.sum's pairwise one, over a
binary-search window, so it equals the array value bit for bit.

The blocks allocate nothing larger than the kernel's output: each writes
its indices and its u into one pair of flat scratch arrays, which hold at
most one block and are reused from block to block and from call to call.
A call takes a set from a free list and gives it back when it ends, even by
an exception, so concurrent calls (the bootstrap surface's two threads)
never share one.  A set above _BLOCK_ELEMENTS elements (one block wider
than the cap) is dropped rather than kept, so the scratch that stays
allocated is at most that size times the number of calls ever run at once.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from .errors import (NumericError, ParameterError, _require_finite, _require_integers,
                     _require_positive)
from .kernels import TRIWEIGHT, Kernel

__all__ = [
    "KdeEstimate",
    "kde_mean_var",
    "smoothed_bootstrap",
]

#: cap on the (data x window) block one engine step evaluates, in doubles.
#: perfbench ops/s, medians of 3 runs at 25k / 50k / 100k on a 2-vCPU VM,
#: measured on the engine before it added with np.add.at (one np.bincount
#: per block): study 9.1 / 10.5 / 11.5 (peak RSS 96.2 / 98.4 / 101.3 MiB),
#: risk 72 / 72 / 63.  50k kept risk at its best; 100k would have bought
#: study 10% with 3 MiB and 12% of risk's speed
_BLOCK_ELEMENTS = 50_000
#: free scratch sets (index, u) of `_kde_many`, two flat arrays of one
#: size; a set above _BLOCK_ELEMENTS elements is not kept
_SCRATCH: list[tuple[np.ndarray, np.ndarray]] = []


def _checked_sample(data) -> np.ndarray:
    """data as a float array, which must be numbers (not text), nonempty and finite."""
    try:
        if np.asarray(data).dtype.kind in "US":  # text, which numpy would parse
            raise ValueError
        data = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        raise ParameterError("data must be numeric") from None
    if data.size == 0:
        raise ParameterError("data must be nonempty")
    if not np.all(np.isfinite(data)):
        raise ParameterError("data must be finite")
    return data


def _reach(hs: float, at):
    """hs = h*s widened past the rounding of u and of window edges near `at`,
    so no pair with |u| <= s is left out; extra pairs add exact zeros."""
    return hs * (1.0 + 1e-14) + 1e-15 * abs(at)


def _kde_many(samples, hs, points, kernel: Kernel = TRIWEIGHT) -> np.ndarray:
    """Estimates of B samples at G bandwidths on T sorted points at once:

        out[b, g, t] = (1 / (n * hs[g])) * sum_i K((points[t] - samples[b, i]) / hs[g])

    with samples of shape (B, n), finite, and points sorted ascending as
    np.sort orders them (NaN last).  Each datum's kernel reaches a
    contiguous run of points; one searchsorted per bandwidth finds it and
    the kernel is evaluated on the padded (live columns x widest run)
    blocks with the same u as the dense sum over all pairs; the live
    columns run from the first to the last sorted datum whose run is
    nonempty in some sample, and the others would add exact zeros.  Each
    block's values are added straight into their samples' rows of `out` by
    one np.add.at, in array order, so every point adds its values in
    sorted-data order whatever the blocks; each bandwidth's rows are then
    scaled once by 1 / (n * h).
    The result is within the rounding bound of the module docstring of
    `kernel((points[:, None] - np.sort(sample)) / h).sum(axis=-1) * (1 / (n * h))`,
    and exactly 0.0 where no datum reaches; NaN and infinite points give 0.
    """
    samples = np.asarray(samples, dtype=float)
    _require_positive(bandwidths=hs)
    hs = np.asarray(hs, dtype=float).ravel()
    points = np.asarray(points, dtype=float).ravel()
    if samples.ndim != 2 or samples.shape[1] == 0:
        raise ParameterError("samples must be a 2-D array with at least one column")
    if not np.all(np.isfinite(samples)):
        raise ParameterError("samples must be finite")
    numbered = points.size - np.count_nonzero(np.isnan(points))
    if (np.any(np.isnan(points[:numbered]))
            or np.any(points[1:numbered] < points[:numbered - 1])):
        raise ParameterError("points must be sorted ascending, NaN last")
    B, n = samples.shape
    G, T = hs.size, points.size
    out = np.zeros((B, G, T))
    if B == 0 or T == 0:
        return out
    data = np.sort(samples, axis=1)
    s = float(kernel.support_halfwidth)
    try:  # list.pop and list.append are atomic, so each thread holds its own set
        index, u = _SCRATCH.pop()
    except IndexError:
        index = u = np.empty(0)
    try:
        for g, h in enumerate(hs):
            reach = _reach(h * s, data)
            lo = np.searchsorted(points, data - reach, side="left")
            runs = np.searchsorted(points, data + reach, side="right") - lo
            # the live columns: those whose run is nonempty in some sample
            live = np.flatnonzero(runs.max(axis=0))
            if live.size == 0:
                continue
            width = int(runs.max())
            # shifting a run left to fit the array only adds points below
            # X - h*s, whose kernel values are exact zeros
            start = np.minimum(lo, T - width)
            window = np.arange(width)
            # blocks of at most _BLOCK_ELEMENTS values: whole samples over all
            # live columns, or one sample over a run of its live columns
            span = range(live[0], live[-1] + 1)
            step = max(1, _BLOCK_ELEMENTS // width)
            per_block = max(1, step // len(span))
            need = min(per_block, B) * min(step, len(span)) * width
            if index.size < need:
                index, u = np.empty(need, np.intp), np.empty(need)
            for b0 in range(0, B, per_block):
                rows = slice(b0, b0 + per_block)
                # sample b0 + k adds into out[b0 + k, g], k*G*T entries past out[b0, g]
                into = out.reshape(-1)[(b0 * G + g) * T:]
                for c0 in span[::step]:
                    cols = slice(c0, min(c0 + step, span.stop))
                    first = start[rows, cols]
                    shape = (*first.shape, width)
                    m = math.prod(shape)
                    pos = index[:m].reshape(shape)
                    np.add(first[..., None], window, out=pos)
                    # (t - X) / h in place: the dense sum's two roundings
                    blk = np.take(points, pos, out=u[:m].reshape(shape), mode="clip")
                    blk -= data[rows, cols, None]
                    blk /= h
                    if shape[0] > 1:
                        pos += (np.arange(shape[0]) * (G * T))[:, None, None]
                    # np.add.at adds in array order, so each point adds its
                    # values in sorted-data order however the blocks fall
                    np.add.at(into, index[:m], kernel(blk).ravel())
            out[:, g] *= 1.0 / (n * h)
    finally:
        if index.size <= _BLOCK_ELEMENTS:
            _SCRATCH.append((index, u))
    return out


def _loo(v, count: int, h, kernel: Kernel):
    """Leave-one-out values (count*h*v - K(0)) / ((count - 1) * h) from the
    estimates v at the data; h may be a column, one bandwidth per row of v."""
    if count < 2:
        raise ParameterError("leave-one-out needs at least two points")
    return (v * count * h - kernel.at_zero) / ((count - 1) * h)


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
        _require_positive(h=h)
        self.data = np.sort(arr)
        self.h = float(h)
        self.kernel = kernel
        self.count = int(arr.size)
        #: half-width h*s of each datum's kernel support
        self.reach = self.h * float(kernel.support_halfwidth)
        #: closed interval outside which the estimate is identically zero
        self.support = (float(self.data[0] - self.reach), float(self.data[-1] + self.reach))

    # ------------------------------------------------------------------
    def __call__(self, x):
        """Evaluate the estimate at scalar or array x (arrays of any shape,
        in any order, through _kde_many; scalars equal it bit for bit)."""
        if np.ndim(x) == 0:
            return self._eval_scalar(float(x))
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        order = np.argsort(flat)
        out = np.empty(flat.size)
        out[order] = _kde_many(self.data[None, :], [self.h], flat[order], self.kernel)[0, 0]
        return out.reshape(x.shape)

    def _eval_scalar(self, x: float) -> float:
        if not math.isfinite(x):  # no datum reaches +-inf or NaN
            return 0.0
        reach = _reach(self.reach, x)
        lo, hi = self.data.searchsorted([x - reach, x + reach])
        if hi <= lo:
            return 0.0
        u = (x - self.data[lo:hi]) / self.h
        return float(self.kernel(u).cumsum()[-1] * (1.0 / (self.count * self.h)))

    # ------------------------------------------------------------------
    def loo(self, i: int) -> float:
        """Leave-one-out value fhat_{-i}(X_i), equal to loo_all()[i] bit for bit."""
        _require_integers(i=i, minimum=0)
        if i >= self.count:
            raise ParameterError(f"i must be below the count {self.count}, got {i!r}")
        return _loo(self(float(self.data[int(i)])), self.count, self.h, self.kernel)

    def loo_all(self) -> np.ndarray:
        """Leave-one-out values at every data point, in sorted-data order."""
        return _loo(self(self.data), self.count, self.h, self.kernel)

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
    _require_positive(h=h)
    _require_integers(count=count, minimum=1)
    _require_finite(y=y)
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
    _require_integers(size=size, minimum=0)
    size = int(size)
    idx = rng.integers(0, est.count, size=size)
    eps = est.kernel.sample(rng, size=size)
    return est.data[idx] + est.h * eps
