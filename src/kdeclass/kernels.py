"""Compactly supported polynomial smoothing kernels.

Conventions
-----------
* A kernel K is even, nonnegative, integrates to one, and vanishes outside
  [-1, 1]: the bandwidth is the only scale (see Kernel for rescaling one
  with a wider support).
* Inside the support K(u) is a polynomial in u**2; coefficients are kept as
  exact rationals (Fractions in an object array) so moments, roughness
  values and c_d are computed in closed form by numpy.polynomial's
  polyder, polymul, polyint and polyval, which stay exact on Fractions; a
  kernel keeps the moments and roughness values it has computed.
  Quadrature never enters the library path (tests use it as an independent
  oracle).  K(u) itself is evaluated by Horner's rule in t = 1 - u**2,
  with coefficients expanded exactly from those in u**2 (Kernel.__call__).
  For the built-ins that is c * t**p, p = 1, 2, 3, so every value is >= 0,
  K(+-1) is exactly +0.0 and K(0) exactly K's constant coefficient.  Each
  value lies within 2 * d * S * eps of the exact K at the same u,
  d = len(poly_coeffs), S = sum_k |a_k| (0.36 * S * eps at most,
  measured for the built-ins), so within 4 * d * S * eps of np.polyval's
  value, which the tests check.  Each kernel keeps S as `_spread`.
* Derivatives are classical derivatives of the interior polynomial on the
  open support; roughness(r) integrates their square over [-1, 1].
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gamma, pi

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import ParameterError, _require_finite, _require_generator, _require_integers

__all__ = [
    "Kernel",
    "TRIWEIGHT",
    "BIWEIGHT",
    "EPANECHNIKOV",
    "KERNELS",
    "multivariate_norm_constant",
]


def _horner_in_t(u, coeffs, zero_at_edge: bool) -> np.ndarray:
    """The polynomial with float coefficients `coeffs` (highest power first)
    at t = 1 - a**2, a = |u| clipped to 1, by Horner's rule skipping
    additions of zero coefficients; points failing |u| <= 1 are zeroed
    unless zero_at_edge says the value at t = 0 is already +-0."""
    u = np.asarray(u, dtype=float)
    t = np.abs(u, out=np.empty(u.shape))
    outside = None if zero_at_edge else ~(t <= 1.0)
    np.fmin(t, 1.0, out=t)
    t *= t
    np.subtract(1.0, t, out=t)
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
    return out


class Kernel:
    """A compactly supported even polynomial kernel on [-1, 1].

    Parameters
    ----------
    name : str
        Identifier used in registries and reprs.
    poly_coeffs : nonempty sequence of finite numbers, kept as Fractions
        Coefficients of the interior polynomial in powers of u**2, i.e.
        K(u) = sum_k poly_coeffs[k] * u**(2k) on [-1, 1].

    A kernel sum_k a_k * u**(2k) on [-s, s] at bandwidth h gives exactly the
    estimate of Kernel(name, [a_k * s**(2k+1)]) at bandwidth s*h, its
    rescaling s * K(s * v) onto [-1, 1].
    """

    #: half-length of the support interval, the same for every kernel
    support_halfwidth = 1

    def __init__(self, name, poly_coeffs):
        self.name = str(name)
        try:
            coeffs = list(poly_coeffs)
        except TypeError:  # not iterable
            raise ParameterError(
                f"poly_coeffs must be a sequence of numbers, got {poly_coeffs!r}") from None
        _require_finite(**{f"poly_coeffs[{i}]": c for i, c in enumerate(coeffs)})
        self.poly_coeffs = tuple(Fraction(c) for c in coeffs)
        if not self.poly_coeffs:
            raise ParameterError("poly_coeffs must hold at least one coefficient")
        # full-degree coefficient array (index = power of u); every zero is a
        # Fraction, since polyint would divide an int 0 into a float 0.0
        full = np.full(2 * len(self.poly_coeffs) - 1, Fraction(0), dtype=object)
        full[::2] = self.poly_coeffs
        self._full = full
        #: exact functionals already computed, by (name, order): the
        #: bandwidth formulas ask for the same few on every evaluation
        self._exact = {}
        # K(u) = sum_k a_k (1 - t)**k = sum_j b_j t**j with t = 1 - u**2,
        # expanded exactly (Horner in t)
        b = self.poly_coeffs[-1:]
        for c in self.poly_coeffs[-2::-1]:
            b = P.polyadd(P.polymul(b, [Fraction(1), -1]), [c])
        self._t_coeffs = np.asarray(b)[::-1].astype(float)  # Horner order
        self._slope = _Slope(np.asarray(b))
        #: S = sum_k |a_k|, and e = 2 d S eps + 2.001 eps max|K'|: how far a
        #: term K(u) of an estimate lies from the exact K at the exact u,
        #: the kernel's own rounding plus that of u (see `kde`)
        self._spread = float(sum(abs(a) for a in self.poly_coeffs))
        self._value_err = (2 * len(self.poly_coeffs) * self._spread * np.finfo(float).eps
                           + 2.001 * np.finfo(float).eps * self._slope.top)
        self.at_zero = float(self.poly_coeffs[0])
        # K at 1 itself is never zeroed, so this is the Horner sequence at t = 0
        edge = _horner_in_t(1.0, self._t_coeffs, True)
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

        Horner's rule in t = 1 - a**2 with a = |u| clipped to 1 by np.fmin
        (which sends NaN to 1), skipping additions of zero coefficients;
        points failing |u| <= 1 are then zeroed.  The clip comes before the
        square, so infinite and huge u overflow nothing, and a**2 <= 1
        gives t >= 0: the built-ins' c * t**p is never negative.  When the
        value at t = 0 is exactly +0.0 (all built-ins) the clipped points
        already hold that zero and the zeroing is skipped.  Inside the
        support the value is within 2 * d * S * eps of the exact K at u
        (see the module Conventions).
        """
        out = _horner_in_t(u, self._t_coeffs, self._zero_at_edge)
        if out.ndim == 0:
            return float(out)
        return out

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
            moment = np.concatenate(([Fraction(0)] * key[1], self._full))
            self._exact[key] = P.polyval(1, P.polyint(moment, lbnd=-1))
        return self._exact[key]

    def roughness(self, r: int = 0) -> float:
        """int (K^(r)(u))**2 du over [-1, 1], exact.

        r = 0 gives the usual roughness int K**2; higher r uses the classical
        r-th derivative of the interior polynomial.
        """
        _require_integers(r=r, minimum=0)
        key = ("roughness", int(r))
        if key not in self._exact:
            dr = P.polyder(self._full, key[1])
            self._exact[key] = float(P.polyval(1, P.polyint(P.polymul(dr, dr), lbnd=-1)))
        return self._exact[key]

    def _max_abs_deriv(self, r: int) -> Fraction:
        """max |K^(r)| over [-1, 1] for even r, exact where the maximum is at
        u = 0 or +-1 (every built-in): the largest |coefficient| of K^(r) in
        the degree-64 Bernstein basis of v = u**2 on [0, 1].  The basis is
        nonnegative and sums to 1, so that bounds |K^(r)|, and its end
        coefficients are the values at u = 0 and +-1."""
        key = ("max_abs_deriv", int(r))
        if key not in self._exact:
            q = P.polyder(self._full, r)[::2]  # K^(r) in powers of v
            deg = max(64, q.size - 1)
            self._exact[key] = max(
                abs(sum(comb(j, k) * q[k] / comb(deg, k) for k in range(min(j + 1, q.size))))
                for j in range(deg + 1))
        return self._exact[key]

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw from the density K by rejection against a uniform envelope.

        The envelope is the constant K(0) on [-1, 1]; acceptance probability
        is 1 / (2 K(0)).
        """
        _require_generator(rng)
        _require_integers(size=size, minimum=0)
        n = int(size)
        out = np.empty(n)
        filled = 0
        while filled < n:
            todo = n - filled
            # expected acceptance rate 1/(2 K0); oversample modestly
            block = max(32, int(todo * 2 * self.at_zero * 1.2) + 16)
            u = rng.uniform(-1.0, 1.0, size=block)
            v = rng.uniform(0.0, self.at_zero, size=block)
            acc = u[v <= self(u)]
            take = min(todo, acc.size)
            out[filled : filled + take] = acc[:take]
            filled += take
        return out

    def __repr__(self) -> str:
        return f"Kernel({self.name!r})"


class _Slope:
    """K' on the whole line, a callable the KDE engine sums in place of K:
    -2u * H(t) with H = dK/dt, t = 1 - u**2, by the Horner rule of
    Kernel.__call__ at u clipped to [-1, 1].  `smooth` says, exactly from
    the Fractions, whether K and K' both vanish at +-1; then K' is
    continuous on the line, Lipschitz with constant max|K''|, and the
    clipped points outside the support give exact zeros.  |K'| <= top =
    2B and each value lies within err = (6r + 3) * B * eps of the exact
    K'(u), r = deg H, B = sum_j |H_j|: t's two roundings move H by at most
    r * B * 1.0001 eps, Horner's 2r roundings by 2r * B * 1.0001 eps, and
    the product with -2u adds one more."""

    def __init__(self, t_coeffs):
        h = P.polyder(t_coeffs)  # ascending, as t_coeffs (K's, in t)
        self.smooth = t_coeffs[0] == 0 and h[0] == 0
        self._coeffs = h[::-1].astype(float)
        spread = float(sum(abs(c) for c in h))
        self.top = 2.0 * spread
        self.err = (6 * (h.size - 1) + 3) * spread * np.finfo(float).eps

    def __call__(self, u):
        out = _horner_in_t(u, self._coeffs, self.smooth)
        out *= np.clip(u, -1.0, 1.0) * -2.0
        return out


# ----------------------------------------------------------------------
# built-ins: triweight (the default throughout), biweight, Epanechnikov
# ----------------------------------------------------------------------
_F = Fraction
TRIWEIGHT = Kernel("triweight", [_F(35, 32), _F(-105, 32), _F(105, 32), _F(-35, 32)])
BIWEIGHT = Kernel("biweight", [_F(15, 16), _F(-15, 8), _F(15, 16)])
EPANECHNIKOV = Kernel("epanechnikov", [_F(3, 4), _F(-3, 4)])

KERNELS = {k.name: k for k in (TRIWEIGHT, BIWEIGHT, EPANECHNIKOV)}


def _require_kernel(kernel) -> None:
    """Raise ParameterError unless `kernel` is a Kernel.  Each function that
    takes a kernel checks it where it first enters the library."""
    if not isinstance(kernel, Kernel):
        raise ParameterError(f"kernel must be a Kernel, got {kernel!r}")


def multivariate_norm_constant(kernel: Kernel, d: int) -> float:
    """Normalizing constant c_d making c_d * K(||u||) a density on R^d.

    c_d = 1 / (S_{d-1} * int_0^1 K(rho) rho^(d-1) drho) with S_{d-1} the
    surface area of the unit (d-1)-sphere.  d = 1 recovers 1 exactly.
    """
    _require_kernel(kernel)
    _require_integers(d=d, minimum=1)
    d = int(d)
    radial = P.polyval(1, P.polyint(np.concatenate(([Fraction(0)] * (d - 1), kernel._full))))
    surface = 2 * pi ** (d / 2) / gamma(d / 2)
    return 1.0 / (surface * float(radial))
