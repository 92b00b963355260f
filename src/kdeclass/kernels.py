"""Compactly supported polynomial smoothing kernels.

Conventions
-----------
* A kernel K is even, nonnegative, integrates to one, and vanishes outside
  [-s, s] where s is the support halfwidth (s = 1 for all built-ins).
* Inside the support K(u) is a polynomial in u**2; coefficients are kept as
  exact rationals so moments, roughness values and c_d are computed in
  closed form, by one exact integral (_poly_integral); a kernel keeps the
  moments and roughness values it has computed.  Quadrature never enters
  the library path (tests use it as an independent oracle).  K(u) itself
  is evaluated by Horner's rule in
  t = s**2 - u**2, with coefficients expanded exactly from those in u**2
  (Kernel.__call__).  For the built-ins that is c * t**p, p = 1, 2, 3, so
  every value is >= 0, K(+-s) is exactly +0.0 and K(0) exactly K's
  constant coefficient.  Each value lies within 2 * d * S * eps of the
  exact K at the same u, d = len(poly_coeffs), S = sum_k |a_k| s**(2k)
  (0.36 * S * eps at most, measured for the built-ins), so within
  4 * d * S * eps of np.polyval's value, which the tests check.
* Derivatives are classical derivatives of the interior polynomial on the
  open support; roughness(r) integrates their square over [-s, s].
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gamma, pi

import numpy as np

from .errors import ParameterError, _require_integers, _require_positive

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


def _poly_integral(coeffs: list[Fraction], a: Fraction, b: Fraction) -> Fraction:
    """Integrate a full-degree polynomial (index = power) over [a, b] exactly."""
    return sum((c * (b ** (d + 1) - a ** (d + 1)) / (d + 1)
                for d, c in enumerate(coeffs) if c), Fraction(0))


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
        _require_positive(support_halfwidth=support_halfwidth)
        self.support_halfwidth = Fraction(support_halfwidth)
        # full-degree coefficient list (index = power of u)
        full = [Fraction(0)] * (2 * len(self.poly_coeffs) - 1)
        for k, c in enumerate(self.poly_coeffs):
            full[2 * k] = c
        self._full = full
        #: exact functionals already computed, by (name, order): the
        #: bandwidth formulas ask for the same few on every evaluation
        self._exact = {}
        self._float_coeffs = np.array([float(c) for c in full[::-1]])  # np.polyval order
        # K(u) = sum_k a_k (s2 - t)**k = sum_j b_j t**j with t = s2 - u**2,
        # expanded exactly about the float s2 that __call__ subtracts from
        self._s2 = float(self.support_halfwidth) ** 2
        b = [Fraction(0)] * len(self.poly_coeffs)
        for k, c in enumerate(self.poly_coeffs):
            for j in range(k + 1):
                b[j] += c * comb(k, j) * Fraction(self._s2) ** (k - j) * (-1) ** j
        self._t_coeffs = np.array([float(c) for c in b[::-1]])  # Horner order
        anti = [Fraction(0)] + [c / (d + 1) for d, c in enumerate(full)]
        self._float_anti = np.array([float(c) for c in anti[::-1]])
        self.at_zero = float(self.poly_coeffs[0])
        # K at s itself is never zeroed, so this is the Horner sequence at t = 0
        self._zero_at_edge = False
        edge = Kernel.__call__(self, self.support_halfwidth)
        self._zero_at_edge = edge == 0.0 and not np.signbit(edge)
        if self.moment(0) != 1:
            raise ParameterError(
                f"kernel {self.name!r} does not integrate to 1 over its support"
            )

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def __call__(self, u):
        """Evaluate K(u); zero outside the support.  Accepts scalars or arrays.

        Horner's rule in t = s**2 - a**2 with a = |u| clipped to s by np.fmin
        (which sends NaN to s), skipping additions of zero coefficients;
        points failing |u| <= s are then zeroed.  The clip comes before the
        square, so infinite and huge u overflow nothing, and a**2 <= s**2
        gives t >= 0: the built-ins' c * t**p is never negative.  When the
        value at t = 0 is exactly +0.0 (all built-ins) the clipped points
        already hold that zero and the zeroing is skipped.  Inside the
        support the value is within 2 * d * S * eps of the exact K at u
        (see the module Conventions).
        """
        u = np.asarray(u, dtype=float)
        s = float(self.support_halfwidth)
        t = np.abs(u, out=np.empty(u.shape))
        outside = None if self._zero_at_edge else ~(t <= s)
        np.fmin(t, s, out=t)
        t *= t
        np.subtract(self._s2, t, out=t)
        coeffs = self._t_coeffs
        if coeffs.size == 1:
            out = np.full(u.shape, coeffs[0])
        else:
            out = np.multiply(t, coeffs[0], out=np.empty(u.shape))
        for k, c in enumerate(coeffs[1:], 2):
            if k > 2:
                out *= t
            if c:
                out += c
        if outside is not None:
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
        val = np.clip(val, 0.0, 1.0)
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
        _require_integers(j=j, minimum=0)
        key = ("moment", int(j))
        if key not in self._exact:
            s = self.support_halfwidth
            self._exact[key] = _poly_integral([Fraction(0)] * key[1] + self._full, -s, s)
        return self._exact[key]

    def roughness(self, r: int = 0) -> float:
        """int (K^(r)(u))**2 du over [-s, s], exact.

        r = 0 gives the usual roughness int K**2; higher r uses the classical
        r-th derivative of the interior polynomial.
        """
        _require_integers(r=r, minimum=0)
        key = ("roughness", int(r))
        if key not in self._exact:
            dr = _poly_derivative(self._full, key[1])
            s = self.support_halfwidth
            self._exact[key] = float(_poly_integral(_poly_multiply(dr, dr), -s, s))
        return self._exact[key]

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw from the density K by rejection against a uniform envelope.

        The envelope is the constant K(0) on [-s, s]; acceptance probability
        is 1 / (2 s K(0)).  Returns a scalar when size is None.
        """
        scalar = size is None
        if not scalar:
            _require_integers(size=size, minimum=0)
        n = 1 if scalar else int(size)
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
    except (KeyError, AttributeError):  # not a kernel's name, or not text
        raise ParameterError(f"name must be one of {sorted(KERNELS)}, got {name!r}") from None


def multivariate_norm_constant(kernel: Kernel, d: int) -> float:
    """Normalizing constant c_d making c_d * K(||u||) a density on R^d.

    c_d = 1 / (S_{d-1} * int_0^s K(rho) rho^(d-1) drho) with S_{d-1} the
    surface area of the unit (d-1)-sphere.  d = 1 recovers 1 exactly.
    """
    _require_integers(d=d, minimum=1)
    d = int(d)
    radial = _poly_integral([Fraction(0)] * (d - 1) + kernel._full, Fraction(0),
                            kernel.support_halfwidth)
    surface = 2 * pi ** (d / 2) / gamma(d / 2)
    return 1.0 / (surface * float(radial))
