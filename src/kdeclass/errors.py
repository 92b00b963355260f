"""Exception types raised by kdeclass.

Every failure mode that callers are expected to handle gets its own class;
all inherit from KdeClassError so library users can catch broadly.
ParameterError doubles as a ValueError for argument validation.
"""

from __future__ import annotations

import math

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


def _require_integers(**values) -> None:
    """Raise ParameterError naming the first value that is not a whole
    number (2 and 2.0 are whole; 2.5, NaN and inf are not)."""
    for name, value in values.items():
        if not math.isfinite(value) or value != int(value):
            raise ParameterError(f"{name} must be an integer")
