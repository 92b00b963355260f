"""Kernel density estimation on sorted data.

The estimator is the standard

    fhat(x) = (1 / (count * h)) * sum_i K((x - X_i) / h)

with a kernel supported on [-1, 1], so only data inside [x - h, x + h]
contribute.  Array evaluation goes through one scatter engine,
`_kde_many`, shared by the classifier, cross-validation, risk and the
bootstrap selector: each datum adds its kernel values to the contiguous run
of sorted points it reaches.  Only the live columns, the sorted data from
the first to the last datum that reaches some point, are evaluated, each
run of their rows on its own widest run (see `_kde_many`), so work grows
with live rows x their runs' widths rather than with points x data; the
pairs left out would add exact zeros.  Each block of at most
_BLOCK_ELEMENTS values adds them straight into the output with one
np.add.at, which adds in array order, so each point adds its values in
sorted-data order and the results do not depend on the runs, the block
size or how the samples are split.  They differ from the dense (point x
datum) sum by rounding only: per point at most
eps * (n * sum_i |K(u_i)| + 4 * d * S * m) / (n * h), with d, S as in
`kernels` and m the number of data with |u_i| <= 1; where no datum reaches
a point the estimate is exactly 0.0.  From the exact estimate (exact u,
exact K) a value differs by at most `_exact_slack(m, S, e)` / (n * h),
with S and e = 2 * d * S * eps + 2.001 * eps * max|K'| the kernel's
`_spread` and `_value_err`: e is the error of one term, the kernel's
rounding plus that of u, whose two roundings move it by at most
2.0001 * eps * |u|.  A scalar call adds the same values in
the same order, with a running sum rather than np.sum's pairwise one, over a
binary-search window, so it equals the array value bit for bit.

The blocks allocate nothing larger than the kernel's output: each writes
its indices and its u into one pair of flat scratch arrays, which hold at
most one block and are reused from block to block and from call to call.
A call takes its pair off the free list `_SCRATCH` and puts it back, so
concurrent calls never share one, and the list keeps at most one pair per
call that ran at once, none above _BLOCK_ELEMENTS elements.

Only `kde_mean_var` needs scipy (scipy.integrate.quad), and imports it on
its first call; the estimator, the engine and the bootstrap use numpy alone.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (NumericError, ParameterError, _require_finite, _require_generator,
                     _require_integers, _require_positive)
from .kernels import TRIWEIGHT, Kernel, _require_kernel

__all__ = [
    "KdeEstimate",
    "kde_mean_var",
    "smoothed_bootstrap",
]

#: cap on the (rows x window) block one engine step evaluates, in doubles.
#: perfbench ops/s at 25k / 50k / 100k, alternating runs on a 2-vCPU VM:
#: study 9.7 / 11.5 / 11.3 (medians of 3; peak RSS 50.9 / 52.3 / 55.9 MiB),
#: risk, with decision_segments' certified scan, 173 / 171 / 151 (medians
#: of 4, runs spread 130-180; peak RSS 83.0 / 84.3 / 86.1 MiB).  Small
#: blocks slow the two-thread error_surface engine pairs (19-34% at 25k,
#: 1.8x at 12.5k) and no longer speed the single-thread risk ops; 100k
#: buys nothing for 3.6 MiB
_BLOCK_ELEMENTS = 50_000
#: rows per tile of `_kde_many`, each maximal run of tiles evaluated on its
#: own widest run.  perfbench risk ops/s at 32 / 64 / 128, 6 alternating
#: rounds on a 2-vCPU VM: medians 239 / 235 / 241, runs spread 222-246, all
#: within the machine's drift.  Kernel values in one traced risk run (16
#: ops): 641k / 654k / 663k, against 1,162k untiled
_TILE = 64
#: free scratch pairs (index, u) of `_kde_many`, two flat arrays of one size
#: each, none above _BLOCK_ELEMENTS elements; list.pop and append are atomic
_SCRATCH: list[tuple[np.ndarray, np.ndarray]] = []


def _checked_sample(data, name: str = "data") -> np.ndarray:
    """data as a float array, which must be numbers (not text), nonempty and
    finite; the ParameterError otherwise names it as `name`."""
    try:
        if np.asarray(data).dtype.kind in "US":  # text, which numpy would parse
            raise ValueError
        data = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be numeric") from None
    if data.size == 0:
        raise ParameterError(f"{name} must be nonempty")
    if not np.all(np.isfinite(data)):
        raise ParameterError(f"{name} must be finite")
    return data


def _reach(h: float, at):
    """h widened past the rounding of u and of window edges near `at`, so no
    pair with |u| <= 1 is left out; extra pairs add exact zeros."""
    return h * (1.0 + 1e-14) + 1e-15 * abs(at)


def _require_bandwidths(kernel: Kernel, count: int, **bandwidths) -> None:
    """Raise ParameterError unless `kernel` is a Kernel and each bandwidth,
    a number or an array, is positive and finite and so large that
    1 / (count * h) and max|K| / h are finite: the engine scales its sums
    by the one, and a value of the estimate can reach the other.  max|K| is
    `Kernel._max_abs_deriv(0)`, computed once per kernel."""
    _require_positive(**bandwidths)
    _require_kernel(kernel)
    top = float(kernel._max_abs_deriv(0))
    for name, hs in bandwidths.items():
        h = float(np.min(hs, initial=math.inf))
        if not (math.isfinite(1.0 / (count * h)) and math.isfinite(top / h)):
            raise ParameterError(f"{name} = {h!r} is too small for {count} data: "
                                 "1 / (n h) or max|K| / h is not a finite float")


def _exact_slack(m, top: float, err: float, roundings: int = 4):
    """m * (err + (top + err) * (m + roundings) * 1.001 * eps): times
    1 / (n * h), a bound on |engine value - exact value| at a point that m
    data reach, for a summed callable of size at most `top` whose computed
    terms are each within `err` of the exact ones.  m - 1 additions in
    sorted-data order and the scaling's three roundings make the default 4
    (m below 10**12); pass more for roundings after the engine."""
    return m * (err + (top + err) * (m + roundings) * (1.001 * np.finfo(float).eps))


def _kde_many(samples, hs, points, kernel: Kernel = TRIWEIGHT) -> np.ndarray:
    """Estimates of B samples at G bandwidths on T sorted points at once:

        out[b, g, t] = (1 / (n * hs[g])) * sum_i K((points[t] - samples[b, i]) / hs[g])

    with samples of shape (B, n), finite, and points sorted ascending as
    np.sort orders them (NaN last).  Each datum's kernel reaches a
    contiguous run of points; one searchsorted per bandwidth finds it.  The
    live columns run from the first to the last sorted datum whose run is
    nonempty in some sample (the others would add exact zeros); their
    (sample, datum) rows, raveled sample-major, are one run on the widest
    if every row's run is more than half the widest (one min pass), as on a
    uniform grid, or if they fill at most two tiles of _TILE rows.
    Otherwise they are cut into such tiles: tiles whose runs are all empty
    are skipped, and each maximal run of the others, all at most half the
    widest or all wider, is evaluated on its own widest run w.  Each row's
    window is shifted to start at min(run start, N - w), N the points that
    are not NaN, and evaluated in blocks of whole rows with the same u as
    the dense sum over all pairs.  The positions a window holds beyond its
    run add exact zeros, and no window reaches a NaN point.  `points` is
    tiled once per call, B copies end to end, so one index, window start +
    b*T + k (k < w), both gathers row b's points and addresses sample b's
    row of out[g]; one np.add.at per block adds the values there in array
    order, and the runs go in row order, so every point adds its values in
    sorted-data order whatever the tiles and blocks.  Each bandwidth is then
    scaled once by 1 / (n * h).  out is laid out (G, B, T) and returned as
    its (B, G, T) transpose view.  The scratch pair comes off `_SCRATCH` and
    goes back unless it is above _BLOCK_ELEMENTS elements.
    The result is within the rounding bound of the module docstring of
    `kernel((points[:, None] - np.sort(sample)) / h).sum(axis=-1) * (1 / (n * h))`,
    and exactly 0.0 where no datum reaches; NaN and infinite points give 0,
    for K' (`Kernel._slope`) too.
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
    out = np.zeros((G, B, T))
    if B == 0 or T == 0:
        return out.transpose(1, 0, 2)
    data = np.sort(samples, axis=1)
    tiled = np.tile(points, B)
    # b*T for sample b's rows: where its copy of the points starts in
    # tiled, and its row in out[g]
    rows = np.repeat(np.arange(0, B * T, T), n).reshape(B, n)
    try:
        index, u = pair = _SCRATCH.pop()
    except IndexError:  # every kept pair is in use, or none is kept yet
        index, u = pair = np.empty(0, np.intp), np.empty(0)
    for g, h in enumerate(hs):
        reach = _reach(h, data)
        lo = np.searchsorted(points, data - reach, side="left")
        runs = np.searchsorted(points, data + reach, side="right") - lo
        # the live columns: those whose run is nonempty in some sample
        live = np.flatnonzero(runs.max(axis=0))
        if live.size == 0:
            continue
        cols = slice(live[0], live[-1] + 1)
        # the (sample, datum) rows, raveled sample-major
        lo, run, x, row0 = (a[:, cols].ravel() for a in (lo, runs, data, rows))
        width = int(run.max())
        spans = [(0, x.size, width)]
        # more than two tiles of _TILE rows, some row reaching at most
        # width/2: skip the tiles that reach nothing, and give each maximal
        # run of tiles at most width/2 wide, and each of wider ones, its own
        # widest run (with fewer tiles a second kernel call costs more than
        # skipping part of a tile saves)
        if x.size > 2 * _TILE and 2 * int(run.min()) <= width:
            tops = np.maximum.reduceat(run, np.arange(0, x.size, _TILE))
            kind = np.sign(tops) + (2 * tops > width)  # 0 empty, 1 narrow, 2 wide
            cut = np.r_[0, np.flatnonzero(np.diff(kind)) + 1, kind.size]
            spans = [(a * _TILE, min(b * _TILE, x.size), int(tops[a:b].max()))
                     for a, b in zip(cut[:-1], cut[1:]) if kind[a]]
        into = out[g].reshape(-1)
        for a, b, w in spans:
            # shifting a run left to end by the last number only adds
            # points below X - h, whose kernel values are exact zeros; no
            # window reaches a NaN point, which so gets 0 from any callable
            start = np.minimum(lo[a:b], numbered - w) + row0[a:b]
            window = np.arange(w)
            step = max(1, _BLOCK_ELEMENTS // w)
            need = min(step, b - a) * w
            if index.size < need:
                index, u = np.empty(need, np.intp), np.empty(need)
                if need <= _BLOCK_ELEMENTS:
                    pair = index, u
            for r0 in range(a, b, step):
                first = start[r0 - a:r0 - a + step, None]
                m = first.size * w
                pos = np.add(first, window, out=index[:m].reshape(-1, w))
                # (t - X) / h in place: the dense sum's two roundings
                blk = np.take(tiled, pos, out=u[:m].reshape(pos.shape), mode="clip")
                blk -= x[r0:r0 + first.size, None]
                blk /= h
                np.add.at(into, index[:m], kernel(blk).ravel())
        out[g] *= 1.0 / (n * h)
    _SCRATCH.append(pair)
    return out.transpose(1, 0, 2)


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
        Bandwidth, strictly positive, and large enough that 1 / (n h) and
        max|K| / h are finite floats.
    kernel : Kernel
        Smoothing kernel (triweight by default).
    """

    def __init__(self, data, h: float, kernel: Kernel = TRIWEIGHT):
        arr = _checked_sample(data).ravel()
        _require_bandwidths(kernel, arr.size, h=h)
        self.data = np.sort(arr)
        self.h = float(h)
        self.kernel = kernel
        self.count = int(arr.size)

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

    def _window(self, x: float) -> np.ndarray:
        """u = (x - X_i) / h over the binary-search window of the sorted data
        that can reach the finite x, as the engine forms it; empty where none
        can."""
        reach = _reach(self.h, x)
        lo, hi = self.data.searchsorted([x - reach, x + reach])
        return (x - self.data[lo:hi]) / self.h

    def _eval_scalar(self, x: float) -> float:
        if not math.isfinite(x):  # no datum reaches +-inf or NaN
            return 0.0
        u = self._window(x)
        if not u.size:
            return 0.0
        return float(self.kernel(u).cumsum()[-1] * (1.0 / (self.count * self.h)))

    # ------------------------------------------------------------------
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

    both integrals over the kernel support [-1, 1] by adaptive quadrature
    with absolute tolerance 1e-10.
    """
    _require_kernel(kernel)
    _require_positive(h=h)
    _require_integers(count=count, minimum=1)
    _require_finite(y=y)
    from scipy.integrate import quad

    def _quad(fn):
        val, err = quad(fn, -1.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=200)
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
    _require_generator(rng)
    size = int(size)
    idx = rng.integers(0, est.count, size=size)
    eps = est.kernel.sample(rng, size=size)
    return est.data[idx] + est.h * eps
