"""Compactly supported polynomial smoothing kernels.

Conventions
-----------
* A kernel K is even, nonnegative, integrates to one, and vanishes outside
  [-s, s] where s is the support halfwidth (s = 1 for all built-ins).
* Inside the support K(u) is a polynomial in u**2; coefficients are kept as
  exact rationals so moments and roughness values are computed in closed
  form.  Quadrature never enters the library path (tests use it as an
  independent oracle).  K(u) itself is np.polyval's Horner sequence run in
  place at |u|, which equals np.polyval at u bit for bit (Kernel.__call__).
* Derivatives are classical derivatives of the interior polynomial on the
  open support; roughness(r) integrates their square over [-s, s].
"""

from __future__ import annotations

from fractions import Fraction
from math import gamma, pi

import numpy as np

from .errors import ParameterError

__all__ = [
    "Kernel",
    "TRIWEIGHT",
    "BIWEIGHT",
    "EPANECHNIKOV",
    "KERNELS",
    "get_kernel",
    "multivariate_norm_constant",
]


def _poly_derivative(coeffs: list[Fraction], times: int) -> list[Fraction]:
    """Differentiate a full-degree coefficient list (index = power) `times` times."""
    out = list(coeffs)
    for _ in range(times):
        out = [Fraction(k) * c for k, c in enumerate(out)][1:] or [Fraction(0)]
    return out


def _poly_multiply(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_integral_symmetric(coeffs: list[Fraction], s: Fraction) -> Fraction:
    """Integrate a full-degree polynomial over [-s, s] exactly."""
    total = Fraction(0)
    for d, c in enumerate(coeffs):
        if d % 2 == 0:
            total += 2 * c * s ** (d + 1) / (d + 1)
    return total


class Kernel:
    """A compactly supported even polynomial kernel.

    Parameters
    ----------
    name : str
        Identifier used in registries and reprs.
    poly_coeffs : sequence of Fraction
        Coefficients of the interior polynomial in powers of u**2, i.e.
        K(u) = sum_k poly_coeffs[k] * u**(2k) on [-s, s].
    support_halfwidth : Fraction or int
        Half-length s of the support interval.
    """

    def __init__(self, name, poly_coeffs, support_halfwidth=1):
        self.name = str(name)
        self.poly_coeffs = tuple(Fraction(c) for c in poly_coeffs)
        self.support_halfwidth = Fraction(support_halfwidth)
        if self.support_halfwidth <= 0:
            raise ParameterError("support halfwidth must be positive")
        # full-degree coefficient list (index = power of u)
        full = [Fraction(0)] * (2 * len(self.poly_coeffs) - 1)
        for k, c in enumerate(self.poly_coeffs):
            full[2 * k] = c
        self._full = full
        self._float_coeffs = np.array([float(c) for c in full[::-1]])  # np.polyval order
        anti = [Fraction(0)] + [c / (d + 1) for d, c in enumerate(full)]
        self._anti = anti
        self._float_anti = np.array([float(c) for c in anti[::-1]])
        self.at_zero = float(self.poly_coeffs[0])
        if self.moment(0) != 1:
            raise ParameterError(
                f"kernel {self.name!r} does not integrate to 1 over its support"
            )

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def __call__(self, u):
        """Evaluate K(u); zero outside the support.  Accepts scalars or arrays.

        np.polyval's Horner steps y = y * a + c run in place at a = |u|
        clipped to s, and points failing |u| <= s (NaN too) are then zeroed.
        That is np.polyval at u bit for bit: the odd coefficients are 0, so
        the sign an odd step takes from -a the next step gives back; a
        skipped `+ 0.0` only signs an exact zero, which the next addition
        clears (the last one is always made); and the clip moves only
        zeroed points, so nothing overflows.
        """
        u = np.asarray(u, dtype=float)
        s = float(self.support_halfwidth)
        a = np.abs(u, out=np.empty(u.shape))
        outside = ~(a <= s)
        np.minimum(a, s, out=a)
        out = np.full(u.shape, self._float_coeffs[0])
        for k, c in enumerate(self._float_coeffs[1:], 2):
            out *= a
            if c or k == self._float_coeffs.size:
                out += c
        np.copyto(out, 0.0, where=outside)
        if out.ndim == 0:
            return float(out)
        return out

    def cdf(self, x):
        """Integral of K from -s to x, clipped to [0, 1]."""
        x = np.asarray(x, dtype=float)
        s = float(self.support_halfwidth)
        xc = np.clip(x, -s, s)
        val = np.polyval(self._float_anti, xc) - np.polyval(self._float_anti, -s)
        if val.ndim == 0:
            return float(val)
        return val

    # ------------------------------------------------------------------
    # exact functionals
    # ------------------------------------------------------------------
    def moment(self, j: int) -> float:
        """j-th moment  int u**j K(u) du, exact (odd moments are exactly 0)."""
        return float(self.moment_exact(j))

    def moment_exact(self, j: int) -> Fraction:
        """Same as moment() but returning the exact rational value."""
        if j < 0 or j != int(j):
            raise ParameterError("moment order must be a nonnegative integer")
        j = int(j)
        if j % 2 == 1:
            return Fraction(0)
        s = self.support_halfwidth
        return sum(
            (2 * c * s ** (j + 2 * k + 1) / (j + 2 * k + 1) for k, c in enumerate(self.poly_coeffs)),
            Fraction(0),
        )

    def roughness(self, r: int = 0) -> float:
        """int (K^(r)(u))**2 du over [-s, s], exact.

        r = 0 gives the usual roughness int K**2; higher r uses the classical
        r-th derivative of the interior polynomial.
        """
        if r < 0 or r != int(r):
            raise ParameterError("derivative order must be a nonnegative integer")
        dr = _poly_derivative(self._full, int(r))
        sq = _poly_multiply(dr, dr)
        return float(_poly_integral_symmetric(sq, self.support_halfwidth))

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw from the density K by rejection against a uniform envelope.

        The envelope is the constant K(0) on [-s, s]; acceptance probability
        is 1 / (2 s K(0)).  Returns a scalar when size is None.
        """
        scalar = size is None
        n = 1 if scalar else int(size)
        if n < 0:
            raise ParameterError("size must be nonnegative")
        s = float(self.support_halfwidth)
        out = np.empty(n)
        filled = 0
        while filled < n:
            todo = n - filled
            # expected acceptance rate 1/(2 s K0); oversample modestly
            block = max(32, int(todo * 2 * s * self.at_zero * 1.2) + 16)
            u = rng.uniform(-s, s, size=block)
            v = rng.uniform(0.0, self.at_zero, size=block)
            acc = u[v <= self(u)]
            take = min(todo, acc.size)
            out[filled : filled + take] = acc[:take]
            filled += take
        return float(out[0]) if scalar else out

    def __repr__(self) -> str:
        return f"Kernel({self.name!r})"


# ----------------------------------------------------------------------
# built-ins: triweight (the default throughout), biweight, Epanechnikov
# ----------------------------------------------------------------------
_F = Fraction
TRIWEIGHT = Kernel("triweight", [_F(35, 32), _F(-105, 32), _F(105, 32), _F(-35, 32)])
BIWEIGHT = Kernel("biweight", [_F(15, 16), _F(-15, 8), _F(15, 16)])
EPANECHNIKOV = Kernel("epanechnikov", [_F(3, 4), _F(-3, 4)])

KERNELS = {k.name: k for k in (TRIWEIGHT, BIWEIGHT, EPANECHNIKOV)}


def get_kernel(name: str) -> Kernel:
    """Look up a built-in kernel by name (case-insensitive)."""
    try:
        return KERNELS[name.lower()]
    except KeyError:
        raise ParameterError(
            f"unknown kernel {name!r}; choose from {sorted(KERNELS)}"
        ) from None


def multivariate_norm_constant(kernel: Kernel, d: int) -> float:
    """Normalizing constant c_d making c_d * K(||u||) a density on R^d.

    c_d = 1 / (S_{d-1} * int_0^s K(rho) rho^(d-1) drho) with S_{d-1} the
    surface area of the unit (d-1)-sphere.  d = 1 recovers 1 exactly.
    """
    if d < 1 or d != int(d):
        raise ParameterError("dimension must be a positive integer")
    d = int(d)
    s = kernel.support_halfwidth
    radial = Fraction(0)
    for k, c in enumerate(kernel.poly_coeffs):
        deg = 2 * k + d - 1
        radial += c * s ** (deg + 1) / (deg + 1)
    surface = 2 * pi ** (d / 2) / gamma(d / 2)
    return 1.0 / (surface * float(radial))
