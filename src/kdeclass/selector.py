"""Data-driven bandwidth selection for the plug-in classifier.

The selector scores every candidate pair (h1, h2) on a log-spaced grid by a
smoothed-bootstrap estimate of the classification error and picks the
minimizer.  The bootstrap world treats the pilot-smoothed density estimates
as the truth: resamples are drawn from them, a classifier is trained on each
resample at the candidate bandwidths, and the misclassification probability
of that trained rule is integrated against the pilot-smoothed densities.

Resamples are drawn once and shared by every grid cell (common random
numbers), which removes between-cell Monte-Carlo noise from the surface and
lets the two kernel estimates be precomputed per (replicate, bandwidth)
instead of per cell, all of them in one `_kde_many` call per population.
The two populations' calls run concurrently, one on a worker thread; each
writes only its own array, so the surface does not depend on that.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import factorial, sqrt, pi

import numpy as np

from .errors import (DegenerateSampleError, ParameterError, _require_generator,
                     _require_integers, _require_open_unit, _require_positive)
from .kde import KdeEstimate, _checked_sample, _kde_many, _loo, smoothed_bootstrap
from .kernels import TRIWEIGHT, Kernel, _require_kernel

__all__ = [
    "SelectorConfig",
    "SelectionResult",
    "normal_deriv_roughness",
    "sample_scale",
    "pilot_bandwidth",
    "error_surface",
    "select_bandwidths",
    "cv_err",
]

#: Gaussian interquartile range; divides the sample IQR to make it
#: consistent for the normal standard deviation.
_NORMAL_IQR = 1.349

_SCALE_RULES = ("iqr", "robust-min")

#: cap on the (replicates, G1, G2, T) comparison that error_surface counts
#: per chunk of replicates, in booleans, so memory does not grow with B
_COUNT_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class SelectorConfig:
    """Tuning constants of the bootstrap bandwidth selector.

    The candidate grid's lower edge is n^(-c2) with n the size of the
    second training sample, and the exponents must bracket both optimal
    rates, so c1 < 1/9 and c2 > 1/5 are enforced.  The upper edge depends
    on `fine_grid`:

    * fine_grid=True (default): fine_grid_factor times the unit-scale
      pilot bandwidth, about 2.75 * fine_grid_factor * n^(-1/13) for the
      default kernel.  The pilot rate is of strictly larger order than
      both optimal-bandwidth rates, so the window still shrinks with n
      while admitting candidates above 1 even at small n, where the
      optimal constants (2.5-4 for the benchmark pairs) put the error
      minimizer well above 1.  The default factor 1.0 caps candidates at
      the pilot scale itself: populations whose leading bias cancels
      identically (so no finite bandwidth is asymptotically optimal at
      the standard rates) then clamp to a top edge that still decays,
      rather than chasing sample asymmetries upward.
    * fine_grid=False: n^(-c1), the window of the consistency theory.
      At benchmark sample sizes this caps the candidates at n^(-c1) < 1
      and the selection clamps to the edge whenever the minimizer sits
      higher; it is kept for studying exactly that regime.

    Both windows, like their fixed-exponent lower edge, assume data on a
    roughly unit scale; rescale unusually scaled data first.
    """

    boot_iters: int = 100
    grid_per_dim: int = 15
    c1: float = 0.08
    c2: float = 0.45
    pilot_deriv: int = 4
    quad_points: int = 201
    kernel: Kernel = field(default=TRIWEIGHT)
    fine_grid: bool = True
    fine_grid_factor: float = 1.0

    def __post_init__(self):
        _require_integers(boot_iters=self.boot_iters, minimum=1)
        _require_integers(grid_per_dim=self.grid_per_dim, pilot_deriv=self.pilot_deriv,
                          quad_points=self.quad_points, minimum=2)
        if not 0.0 < self.c1 < 1.0 / 9.0:
            raise ParameterError("c1 must lie in (0, 1/9) so the grid covers n^(-1/9)")
        if not 0.2 < self.c2 < 1.0:
            raise ParameterError("c2 must lie in (1/5, 1) so the grid covers n^(-1/5)")
        if self.pilot_deriv % 2:
            raise ParameterError("pilot_deriv must be an even integer >= 2")
        _require_positive(fine_grid_factor=self.fine_grid_factor)
        _require_kernel(self.kernel)


def _selector_config(config, name: str = "config") -> SelectorConfig:
    """config, SelectorConfig() if None; ParameterError naming `name` if not a SelectorConfig."""
    if config is not None and not isinstance(config, SelectorConfig):
        raise ParameterError(f"{name} must be a SelectorConfig, got {config!r}")
    return SelectorConfig() if config is None else config


@dataclass(frozen=True)
class SelectionResult:
    """Chosen bandwidths plus the full diagnostic surface."""

    h1: float
    h2: float
    h3: float
    h4: float
    grid_h1: np.ndarray
    grid_h2: np.ndarray
    err_surface: np.ndarray
    err_min: float


def normal_deriv_roughness(k: int) -> float:
    """Exact integral of the squared k-th derivative of the standard normal
    density: (2k)! / (2^(2k+1) k! sqrt(pi))."""
    _require_integers(k=k, minimum=0)
    k = int(k)
    return factorial(2 * k) / (2 ** (2 * k + 1) * factorial(k) * sqrt(pi))


def sample_scale(data: np.ndarray, rule: str = "robust-min") -> float:
    """Scale estimate of a sample.

    * "iqr" (the tail study's): interquartile range / normal IQR 1.349;
    * "robust-min" (the pilot's): the smaller of that and the sample
      standard deviation (ddof 1), the latter alone where the IQR is 0.

    Empty or non-finite data raise ParameterError, not DegenerateSampleError.
    """
    data = _checked_sample(data)
    if data.size < 2:
        raise DegenerateSampleError("need at least two observations for a scale")
    if rule not in _SCALE_RULES:
        raise ParameterError(f"rule must be one of {_SCALE_RULES}, got {rule!r}")
    sd = float(np.std(data, ddof=1))
    q75, q25 = np.percentile(data, [75.0, 25.0])
    iqr = float(q75 - q25) / _NORMAL_IQR
    if rule == "iqr":
        scale = iqr
    else:
        scale = min(sd, iqr) if iqr > 0.0 else sd
    if scale <= 0.0 or not np.isfinite(scale):
        raise DegenerateSampleError("sample scale is zero; data are (nearly) constant")
    return scale


def _unit_pilot(n: int, config: SelectorConfig) -> float:
    """Pilot bandwidth for a unit-scale sample of size n."""
    r = config.pilot_deriv
    kernel = config.kernel
    num = (2 * r + 1) * kernel.roughness(r)
    mu2 = kernel.moment(2)
    den = mu2 * mu2 * normal_deriv_roughness(r + 2) * n
    return float((num / den) ** (1.0 / (2 * r + 5)))


def pilot_bandwidth(data: np.ndarray, config: SelectorConfig | None = None) -> float:
    """Normal-reference pilot bandwidth for estimating the r-th density
    derivative (r = config.pilot_deriv) with the configured kernel:

        h = scale * [ (2r+1) R(K^(r)) / (mu2(K)^2 C_{r+2} n) ]^(1/(2r+5))

    where R(K^(r)) is the roughness of the r-th kernel derivative and
    C_{r+2} the normal roughness of the (r+2)-th density derivative.  For
    r = 4 the exponent is 1/13.  The scale is sample_scale's "robust-min".
    """
    config = _selector_config(config)
    data = np.asarray(data, dtype=float)
    scale = sample_scale(data, "robust-min")
    return scale * _unit_pilot(data.size, config)


def _first_argmin(surface: np.ndarray) -> tuple[int, int]:
    """Row-major first minimum (i, j): ties go to the smaller i, then j."""
    return divmod(int(np.argmin(surface)), surface.shape[1])


def _surface_args(x_data, y_data, grid_h1, grid_h2, p):
    """Samples and grids of a surface as flat arrays, checked in that order after p."""
    _require_open_unit(p=p)
    x_data = _checked_sample(x_data).ravel()
    y_data = _checked_sample(y_data).ravel()
    _require_positive(grid_h1=grid_h1, grid_h2=grid_h2)
    grid_h1 = np.asarray(grid_h1, dtype=float).ravel()
    grid_h2 = np.asarray(grid_h2, dtype=float).ravel()
    if grid_h1.size == 0 or grid_h2.size == 0:
        raise ParameterError("candidate grids must be nonempty")
    return x_data, y_data, grid_h1, grid_h2


def error_surface(x_data: np.ndarray, y_data: np.ndarray, grid_h1, grid_h2,
                  p: float = 0.5, config: SelectorConfig | None = None,
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Smoothed-bootstrap error of the rule trained at each candidate pair:
    cell (i, j) of the returned array is for (grid_h1[i], grid_h2[j]).

    For every replicate b the same resample pair feeds every grid cell, and
    the candidate-density evaluations factorize over the two axes, so the
    grid costs len(grid_h1) + len(grid_h2) kernel-estimate evaluations per
    replicate rather than one per cell.  The bootstrap error of cell (i, j) is

        integral of p ftilde(t) P*{deltahat*(t) < 0}
                 + (1-p) gtilde(t) P*{deltahat*(t) >= 0}  dt

    (trapezoid over quad_points abscissae; the >= on the second-population
    side mirrors the first-population tie-break of the trained rule), with
    ftilde/gtilde the pilot-smoothed estimates and P* the fraction over
    replicates.  rng defaults to a generator seeded with 0; its draws do
    not depend on the candidates, so neither does any cell's value.  The
    two populations' estimates are evaluated concurrently, the second on a
    worker thread that has ended when this returns or raises; the values do
    not depend on that.
    """
    config = _selector_config(config)
    x_data, y_data, grid_h1, grid_h2 = _surface_args(x_data, y_data, grid_h1, grid_h2, p)
    if rng is None:
        rng = np.random.default_rng(0)
    _require_generator(rng)

    h3 = pilot_bandwidth(x_data, config)
    h4 = pilot_bandwidth(y_data, config)
    pad = max(h3, h4)
    lo_t = min(x_data.min(), y_data.min()) - pad
    hi_t = max(x_data.max(), y_data.max()) + pad
    grid = np.linspace(lo_t, hi_t, config.quad_points)

    ftilde = KdeEstimate(x_data, h3, config.kernel)
    gtilde = KdeEstimate(y_data, h4, config.kernel)
    fg = ftilde(grid)
    gg = gtilde(grid)

    B = config.boot_iters
    # one RNG stream, replicate-major order: x resample then y resample
    xs = np.empty((B, x_data.size))
    ys = np.empty((B, y_data.size))
    for b in range(B):
        xs[b] = smoothed_bootstrap(ftilde, x_data.size, rng)
        ys[b] = smoothed_bootstrap(gtilde, y_data.size, rng)
    # the two calls spend most of their time in numpy code that releases
    # the GIL, so the y call on a worker overlaps the x call here
    with ThreadPoolExecutor(max_workers=1) as pool:
        g_future = pool.submit(_kde_many, ys, grid_h2, grid, config.kernel)
        pf = _kde_many(xs, grid_h1, grid, config.kernel)
        qg = g_future.result()
    # scaled in place, so a call allocates no output-sized array beyond the
    # two estimates
    pf *= p
    qg *= 1.0 - p

    # fraction over replicates of deltahat* < 0, all cells at once: chunks
    # of (c, n1, 1, T) against (c, 1, n2, T) counted into (n1, n2, T); a
    # chunk of at most 255 replicates is counted exactly in uint8
    count = np.zeros((grid_h1.size, grid_h2.size, grid.size), dtype=np.intp)
    step = min(255, max(1, _COUNT_ELEMENTS // count.size))
    for b0 in range(0, B, step):
        count += (pf[b0:b0 + step, :, None, :]
                  < qg[b0:b0 + step, None, :, :]).sum(axis=0, dtype=np.uint8)
    frac_lt = count / B
    integrand = p * fg * frac_lt + (1.0 - p) * gg * (1.0 - frac_lt)
    return np.trapezoid(integrand, grid, axis=-1)


def select_bandwidths(x_data: np.ndarray, y_data: np.ndarray, p: float = 0.5,
                      config: SelectorConfig | None = None,
                      rng: np.random.Generator | None = None,
                      seed: int | None = 0) -> SelectionResult:
    """Pick (h1, h2) minimizing error_surface on a log-spaced grid.

    Both axes take the same candidates in [n^(-c2), fine_grid_factor *
    unit-scale pilot], or in [n^(-c2), n^(-c1)] when config.fine_grid is
    False (see SelectorConfig), with n the second sample's size.  Ties go
    to the smaller h1, then the smaller h2.
    """
    config = _selector_config(config)
    if seed is not None:
        _require_integers(seed=seed, minimum=0)
    if rng is None:
        rng = np.random.default_rng(seed)

    n = _checked_sample(y_data).size
    lo = n ** (-config.c2)
    if config.fine_grid:
        hi = config.fine_grid_factor * _unit_pilot(n, config)
    else:
        hi = n ** (-config.c1)
    if hi <= lo:
        raise ParameterError(
            "candidate window collapsed: its upper edge does not exceed "
            f"the lower edge n^(-c2) = {lo:.3g}")
    grid_h1 = np.geomspace(lo, hi, config.grid_per_dim)
    grid_h2 = grid_h1.copy()

    surface = error_surface(x_data, y_data, grid_h1, grid_h2, p, config, rng)
    i, j = _first_argmin(surface)
    return SelectionResult(
        h1=float(grid_h1[i]),
        h2=float(grid_h2[j]),
        h3=pilot_bandwidth(x_data, config),
        h4=pilot_bandwidth(y_data, config),
        grid_h1=grid_h1,
        grid_h2=grid_h2,
        err_surface=surface,
        err_min=float(surface[i, j]),
    )


def _cv_surface(x_data: np.ndarray, y_data: np.ndarray, grid_h1, grid_h2,
                p: float = 0.5, kernel: Kernel = TRIWEIGHT) -> np.ndarray:
    """Leave-one-out error at each candidate pair: cell (i, j) is cv_err at
    (grid_h1[i], grid_h2[j]).  Each sorted sample is evaluated at all its
    candidates at its own data and at the other sample, and the comparisons
    run one grid_h1 row at a time."""
    x_data, y_data, grid_h1, grid_h2 = _surface_args(x_data, y_data, grid_h1, grid_h2, p)
    _require_kernel(kernel)
    x, y = np.sort(x_data), np.sort(y_data)
    q = 1.0 - p
    f_loo = p * _loo(_kde_many(x[None], grid_h1, x, kernel)[0], x.size, grid_h1[:, None], kernel)
    g_loo = q * _loo(_kde_many(y[None], grid_h2, y, kernel)[0], y.size, grid_h2[:, None], kernel)
    f_at_y = p * _kde_many(x[None], grid_h1, y, kernel)[0]
    g_at_x = q * _kde_many(y[None], grid_h2, x, kernel)[0]
    return np.array([p * (np.count_nonzero(f_x - g_at_x < 0.0, axis=1) / x.size)
                     + q * (np.count_nonzero(f_y - g_loo > 0.0, axis=1) / y.size)
                     for f_x, f_y in zip(f_loo, f_at_y)])


def cv_err(x_data: np.ndarray, y_data: np.ndarray, h1: float, h2: float,
           p: float = 0.5, kernel: Kernel = TRIWEIGHT) -> float:
    """Leave-one-out cross-validation error of the rule trained at (h1, h2):

        (p/m)   #{ i : p fhat_{-i}(X_i) - (1-p) ghat(X_i) < 0 }
      + ((1-p)/n) #{ j : p fhat(Y_j)   - (1-p) ghat_{-j}(Y_j) > 0 }

    with strict inequalities on both sides; single cell of _cv_surface.
    Included as the negative control for the bootstrap selector: the
    criterion each point helps minimize depends on that point's own class,
    which rewards bandwidths that overfit the training labels.
    """
    _require_positive(h1=h1, h2=h2)
    return float(_cv_surface(x_data, y_data, [h1], [h2], p, kernel)[0, 0])
