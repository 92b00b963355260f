"""Kernel-density plug-in classification: estimators, crossing-point risk
analysis, optimal and data-driven bandwidth choice, and simulation studies.

Each module's `__all__` is the one list of its public names; the package
re-exports every one of them.
"""

from . import classifier, densities, errors, kde, kernels, risk, selector, simulate
from .classifier import *
from .densities import *
from .errors import *
from .kde import *
from .kernels import *
from .risk import *
from .selector import *
from .simulate import *

__version__ = "0.1.0"

__all__ = ["__version__", *kernels.__all__, *densities.__all__, *kde.__all__,
           *classifier.__all__, *risk.__all__, *selector.__all__,
           *simulate.__all__, *errors.__all__]
