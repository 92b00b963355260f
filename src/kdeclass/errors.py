"""Exception types raised by kdeclass, and the argument checks that raise
ParameterError.

Every failure mode that callers are expected to handle gets its own class;
all inherit from KdeClassError so library users can catch broadly.
ParameterError doubles as a ValueError for argument validation.

Numeric arguments are checked by four validators, one per kind, each
taking the arguments by name and naming the first that fails:

* `_require_integers`: whole numbers (2 and 2.0 pass, 2.5 does not), at
  least `minimum` when one is given: counts, sizes, orders and seeds;
* `_require_positive`: finite and > 0, scalars or every entry of an array:
  bandwidths, scales, weights, ratios and constants;
* `_require_open_unit`: strictly inside (0, 1): priors;
* `_require_finite`: any finite real: locations.

NaN, +-inf and values that are not numbers (a string, None) pass none of
them.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "KdeClassError",
    "ParameterError",
    "ResolutionError",
    "DegenerateCrossingError",
    "RegimeError",
    "NumericError",
    "EmptyTailError",
    "DegenerateSampleError",
    "OptimizationError",
    "DegenerateRegressionError",
]


class KdeClassError(Exception):
    """Base class for all kdeclass errors."""


class ParameterError(KdeClassError, ValueError):
    """An argument is outside its documented domain."""


class ResolutionError(KdeClassError):
    """A root scan could not isolate crossings (grid too coarse or
    multiple roots inside one cell)."""


class DegenerateCrossingError(KdeClassError):
    """A crossing violates the smoothness/curvature assumptions the
    expansions need: |delta'| below tolerance at a crossing, or both
    second derivatives vanishing there."""


class RegimeError(KdeClassError):
    """An operation was asked to treat a crossing set under the wrong
    bandwidth regime (e.g. second-order constants for a first-order pair)."""


class NumericError(KdeClassError):
    """A quadrature or other numeric routine failed to converge to the
    requested tolerance."""


class EmptyTailError(KdeClassError):
    """The tail classifier was invoked on the side of the data where no
    kernel support endpoint exists (query point beyond every endpoint)."""


class DegenerateSampleError(KdeClassError):
    """A sample has zero scale (all points equal, or zero IQR under an
    IQR-based rule), so no bandwidth can be formed from it."""


class OptimizationError(KdeClassError):
    """Multi-start minimization failed to converge to a single optimum
    (spread across restarts above tolerance)."""


class DegenerateRegressionError(KdeClassError):
    """A slope fit was requested on degenerate abscissae (fewer than two
    distinct x values)."""


def _require_integers(*, minimum: int | None = None, **values) -> None:
    """Raise ParameterError naming the first value that is not a whole
    number (2 and 2.0 are whole; 2.5, NaN and inf are not) or, when
    `minimum` is given, is below it."""
    for name, value in values.items():
        try:
            whole = math.isfinite(value) and value == int(value)
        except (TypeError, ValueError):  # not a number: a string, None
            whole = False
        if not whole:
            raise ParameterError(f"{name} must be an integer")
        if minimum is not None and value < minimum:
            raise ParameterError(f"{name} must be at least {minimum}, got {value!r}")


def _require_positive(**values) -> None:
    """Raise ParameterError naming the first value, scalar or array, that
    is not finite and > 0 throughout."""
    for name, value in values.items():
        if isinstance(value, (int, float, np.number)):  # fast path for scalars
            positive = 0.0 < value < math.inf  # False for NaN
        else:
            try:
                arr = np.asarray(value, dtype=float)
            except (TypeError, ValueError):  # not numbers: a string, a dict
                arr = np.nan
            positive = np.all((arr > 0.0) & (arr < math.inf))
        if not positive:
            raise ParameterError(f"{name} must be positive and finite, got {value!r}")


def _require_open_unit(**values) -> None:
    """Raise ParameterError naming the first value that is not strictly
    inside (0, 1)."""
    for name, value in values.items():
        try:
            inside = 0.0 < value < 1.0  # False for NaN
        except (TypeError, ValueError):  # not a number: a string, None, an array
            inside = False
        if not inside:
            raise ParameterError(f"{name} must lie strictly inside (0, 1), got {value!r}")


def _require_finite(**values) -> None:
    """Raise ParameterError naming the first value that is not a finite
    real number."""
    for name, value in values.items():
        try:
            finite = math.isfinite(value)
        except TypeError:  # not a real number: a string, None, a complex
            finite = False
        if not finite:
            raise ParameterError(f"{name} must be finite, got {value!r}")
