"""Kernel functionals against an independent quadrature oracle.

The library computes moments and roughness values exactly from the interior
polynomial; the oracle here is adaptive numeric integration of the same
functionals, so agreement is a genuine dual-route check.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from kdeclass import (
    BIWEIGHT,
    EPANECHNIKOV,
    KERNELS,
    TRIWEIGHT,
    Kernel,
    ParameterError,
    multivariate_norm_constant,
)

from helpers import kde_rounding_bound, kernel_cdf, polyval_kernel

ALL_KERNELS = (TRIWEIGHT, BIWEIGHT, EPANECHNIKOV)

# closed-form references computed by hand from the interior polynomials
KNOWN_MOMENT2 = {"triweight": Fraction(1, 9), "biweight": Fraction(1, 7),
                 "epanechnikov": Fraction(1, 5)}
KNOWN_ROUGHNESS0 = {"triweight": Fraction(350, 429), "biweight": Fraction(5, 7),
                    "epanechnikov": Fraction(3, 5)}


def _quad_moment(kernel, j):
    val, _ = quad(lambda u: u**j * kernel(u), -1.0, 1.0, epsabs=1e-13, limit=200)
    return val


def _fd_derivative(kernel, u, r, step=1e-2):
    """Symmetric finite-difference derivative of the interior polynomial."""
    if r == 0:
        return kernel(u)
    lower = _fd_derivative(kernel, u - step, r - 1, step)
    upper = _fd_derivative(kernel, u + step, r - 1, step)
    return (upper - lower) / (2 * step)


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
@pytest.mark.parametrize("j", [0, 2, 4, 6])
def test_moments_match_quadrature(kernel, j):
    assert kernel.moment(j) == pytest.approx(_quad_moment(kernel, j), abs=1e-10)


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
@pytest.mark.parametrize("j", [1, 3, 5])
def test_odd_moments_vanish(kernel, j):
    assert kernel.moment(j) == 0.0
    assert kernel.moment_exact(j) == 0


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
def test_unit_mass_and_known_constants(kernel):
    assert kernel.moment(0) == 1.0
    assert kernel.moment_exact(2) == KNOWN_MOMENT2[kernel.name]
    assert kernel.roughness(0) == pytest.approx(
        float(KNOWN_ROUGHNESS0[kernel.name]), abs=1e-15)


def test_triweight_frozen_values():
    assert TRIWEIGHT.at_zero == 35.0 / 32.0
    assert TRIWEIGHT.moment_exact(4) == Fraction(1, 33)
    assert TRIWEIGHT.roughness(4) == pytest.approx(33075.0, abs=1e-9)


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_roughness_matches_reconstructed_polynomial(kernel, r):
    """Independent oracle: reconstruct the interior polynomial from plain
    kernel evaluations (Chebyshev-node least squares), then differentiate,
    square, and integrate it exactly.  This avoids finite-difference bias at
    the support edge, where lower-degree kernels have derivative kinks.
    """
    nodes = np.cos(np.pi * (np.arange(41) + 0.5) / 41)
    poly = np.polynomial.Polynomial.fit(nodes, kernel(nodes), deg=8,
                                        domain=[-1, 1], window=[-1, 1])
    deriv = poly.deriv(r) if r else poly
    squared = deriv * deriv
    want = squared.integ()(1.0) - squared.integ()(-1.0)
    assert kernel.roughness(r) == pytest.approx(want, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
def test_evaluation_even_nonnegative_compact(kernel):
    rng = np.random.default_rng(1)
    u = rng.uniform(-2.0, 2.0, size=200)
    vals = kernel(u)
    assert np.all(vals >= 0.0)
    assert vals == pytest.approx(kernel(-u), abs=1e-15)
    assert np.all(vals[np.abs(u) > 1.0] == 0.0)
    # scalar evaluation agrees with the vector path
    assert kernel(0.25) == pytest.approx(kernel(np.array([0.25]))[0], abs=1e-15)


@pytest.mark.parametrize("kernel", ALL_KERNELS + (
    Kernel("uniform", [Fraction(1, 2)]),
    # jumps to 1/4 at the edges, where Horner's rule rounds
    Kernel("stepped", [Fraction(5, 8), Fraction(-3, 8)]),
    # K(0) = 0 with K < 0 near 0: the Horner value at u = 0 is -0 until the
    # last coefficient, 0.0, is added
    Kernel("signed-quartic", [0, Fraction(-3, 2), 5])), ids=lambda k: k.name)
def test_evaluation_matches_polyval_bit_for_bit(kernel):
    # Horner in 1 - u**2 is held to np.polyval in u within the rounding
    # bound at one datum, which is 0 outside the support: exact +0.0 there
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, np.inf),
               np.nextafter(-1.0, 0.0), np.nextafter(-1.0, -np.inf), np.inf, -np.inf,
               np.nan, 1e300, -1e300, 5e-324, -5e-324]
    u = np.concatenate([rng.uniform(-1.5, 1.5, 1000), special])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for arg in (u, u.reshape(-1, 5), np.empty(0), np.empty((3, 0))):
            got, want = kernel(arg), polyval_kernel(kernel, arg)
            assert got.shape == arg.shape
            assert np.all(np.abs(got - want) <= kde_rounding_bound(0.0, 1.0, kernel, arg))
            assert not np.any(np.signbit(got[~(np.abs(arg) <= 1.0)]))
        for value in [0.3, -0.7] + special:
            got = kernel(value)
            assert type(got) is float
            assert (abs(got - float(polyval_kernel(kernel, value)))
                    <= kde_rounding_bound(0.0, 1.0, kernel, value)[0])
            assert kernel(np.array(value)) == got


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
def test_builtins_nonnegative_and_exact_at_edges_and_zero(kernel):
    # a million u packed just inside -1 and 1, where np.polyval's triweight
    # rounds below zero; the edges and the centre are exact
    inside = 1.0 - np.random.default_rng(4).uniform(0.0, 1e-6, 500_000)
    assert np.all(kernel(np.concatenate([inside, -inside])) >= 0.0)
    edges = kernel(np.array([1.0, -1.0]))
    assert np.array_equal(edges, [0.0, 0.0]) and not np.any(np.signbit(edges))
    assert kernel(0.0) == kernel.at_zero == float(kernel.poly_coeffs[0])


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: k.name)
def test_reference_cdf_against_quadrature(kernel):
    # helpers.kernel_cdf, the oracle of the smoothed-bootstrap tests
    assert kernel_cdf(kernel, -6.0) == kernel_cdf(kernel, -1.0) == 0.0
    assert kernel_cdf(kernel, 6.0) == kernel_cdf(kernel, 1.0) == 1.0
    for x in (-0.7, -0.2, 0.0, 0.4, 0.9):
        ref, _ = quad(kernel, -1.0, x, epsabs=1e-13)
        assert kernel_cdf(kernel, x) == pytest.approx(ref, abs=1e-10)


def test_sampling_matches_moments():
    rng = np.random.default_rng(42)
    draws = TRIWEIGHT.sample(rng, size=40_000)
    assert draws.shape == (40_000,)
    assert np.all(np.abs(draws) <= 1.0)
    mu2 = TRIWEIGHT.moment(2)
    se = np.sqrt((TRIWEIGHT.moment(4) - mu2**2) / draws.size)
    assert abs(np.mean(draws**2) - mu2) < 5 * se
    assert abs(np.mean(draws)) < 5 * np.sqrt(mu2 / draws.size)


def test_sampling_determinism():
    a = BIWEIGHT.sample(np.random.default_rng(3), size=50)
    b = BIWEIGHT.sample(np.random.default_rng(3), size=50)
    assert np.array_equal(a, b)
    assert TRIWEIGHT.sample(np.random.default_rng(0), size=0).size == 0


def test_kernels_registry():
    assert KERNELS == {"triweight": TRIWEIGHT, "biweight": BIWEIGHT,
                       "epanechnikov": EPANECHNIKOV}


def test_kernel_validation():
    with pytest.raises(ParameterError):
        Kernel("half", [Fraction(1, 4)])  # integrates to 1/2, not 1
    with pytest.raises(ParameterError):
        TRIWEIGHT.moment(-2)
    with pytest.raises(ParameterError):
        TRIWEIGHT.moment_exact(-2)
    with pytest.raises(ParameterError):
        TRIWEIGHT.moment_exact(1.5)
    with pytest.raises(ParameterError):
        TRIWEIGHT.roughness(-1)


def test_multivariate_norm_constant_oracle():
    import math

    # d = 1 must recover the univariate normalization exactly
    assert multivariate_norm_constant(TRIWEIGHT, 1) == pytest.approx(1.0, abs=1e-14)
    for kernel in ALL_KERNELS:
        for d in (2, 3):
            radial, _ = quad(lambda r: kernel(r) * r ** (d - 1), 0.0, 1.0, epsabs=1e-13)
            surface = 2 * math.pi ** (d / 2) / math.gamma(d / 2)
            cd = multivariate_norm_constant(kernel, d)
            assert cd * surface * radial == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ParameterError):
        multivariate_norm_constant(TRIWEIGHT, 0)
