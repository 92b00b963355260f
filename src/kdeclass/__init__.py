"""Kernel-density plug-in classification: estimators, crossing-point risk
analysis, optimal and data-driven bandwidth choice, and simulation studies.
"""

from .classifier import (
    FROM_F,
    FROM_G,
    Label,
    TrainedClassifier,
    classify_a0,
    classify_a1,
    classify_ahat,
    classify_multi,
    classify_multivariate,
    classify_tail,
    decision_segments,
    fit_classifier,
)
from .densities import (
    PAIR_IDS,
    Cauchy,
    CrossingPoint,
    CrossingSet,
    CustomDensity,
    Density,
    DensityPair,
    Normal,
    NormalMixture,
    Pareto,
    crossings,
    density_deriv,
    make_pair,
    regime_detect,
)
from .errors import (
    DegenerateCrossingError,
    DegenerateRegressionError,
    DegenerateSampleError,
    EmptyTailError,
    KdeClassError,
    NumericError,
    OptimizationError,
    ParameterError,
    RegimeError,
    ResolutionError,
)
from .kde import KdeEstimate, kde_mean_var, smoothed_bootstrap
from .kernels import (
    BIWEIGHT,
    EPANECHNIKOV,
    KERNELS,
    TRIWEIGHT,
    Kernel,
    get_kernel,
    multivariate_norm_constant,
)
from .risk import (
    BandwidthPlan,
    RiskReport,
    bayes_risk,
    class1_objective,
    empirical_risk,
    expansion_b1_b2,
    expansion_b3_b4,
    expansion_excess,
    multi_optimal_constants,
    multi_t,
    optimal_bandwidths,
    predicted_excess,
)
from .selector import (
    SelectionResult,
    SelectorConfig,
    bootstrap_err,
    cv_err,
    error_surface,
    normal_deriv_roughness,
    pilot_bandwidth,
    sample_scale,
    select_bandwidths,
)
from .simulate import (
    DEFAULT_N_LIST,
    CvComparisonResult,
    ExperimentConfig,
    SlopeFit,
    StudyResult,
    StudyRow,
    TailStudyResult,
    fit_slope,
    run_cv_comparison,
    run_study,
    run_tail_study,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # kernels
    "Kernel", "TRIWEIGHT", "BIWEIGHT", "EPANECHNIKOV", "KERNELS",
    "get_kernel", "multivariate_norm_constant",
    # densities
    "Density", "Normal", "NormalMixture", "Cauchy", "Pareto", "CustomDensity",
    "DensityPair", "make_pair", "PAIR_IDS", "crossings", "regime_detect",
    "density_deriv", "CrossingPoint", "CrossingSet",
    # kde
    "KdeEstimate", "kde_mean_var", "smoothed_bootstrap",
    # classifier
    "FROM_F", "FROM_G", "Label", "TrainedClassifier", "fit_classifier",
    "classify_a0", "classify_a1", "classify_tail", "classify_ahat",
    "classify_multi", "classify_multivariate", "decision_segments",
    # risk
    "bayes_risk", "empirical_risk", "expansion_excess", "expansion_b1_b2",
    "expansion_b3_b4", "class1_objective", "predicted_excess",
    "optimal_bandwidths", "BandwidthPlan", "RiskReport", "multi_t",
    "multi_optimal_constants",
    # selector
    "SelectorConfig", "SelectionResult", "select_bandwidths", "error_surface",
    "bootstrap_err", "cv_err", "pilot_bandwidth", "sample_scale",
    "normal_deriv_roughness",
    # simulate
    "DEFAULT_N_LIST", "ExperimentConfig", "SlopeFit", "StudyRow",
    "StudyResult", "TailStudyResult", "CvComparisonResult", "fit_slope",
    "run_study", "run_tail_study", "run_cv_comparison",
    # errors
    "KdeClassError", "ParameterError", "ResolutionError",
    "DegenerateCrossingError", "RegimeError", "NumericError",
    "EmptyTailError", "DegenerateSampleError", "OptimizationError",
    "DegenerateRegressionError",
]
