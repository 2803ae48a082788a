"""Split-half parallel test construction, reliability, and battery scoring.

The pipeline: load or simulate a binary score matrix, dichotomise it
into two near-parallel halves, estimate the test's error variance and
reliability from the halves' disagreement, regress per-examinee true
scores, and aggregate several tests into a battery with chosen weights.
"""

from ._version import __version__
from .battery import (
    BatteryInput,
    BatteryReport,
    ComponentTest,
    CovMatrix,
    WeightVector,
    covariance_matrix,
    eigen_weights,
    equal_weights,
    jacobi_eigh,
    nonnegative_weights,
    optimal_weights,
    summative_reliability,
    weighted_reliability,
)
from .data_model import (
    ExamineeScores,
    ItemScores,
    ScoreMatrix,
    TestStats,
    descriptive_stats,
    examinee_totals,
    item_totals,
    load_score_matrix,
    mean_from_norms,
    variance_from_norms,
    write_score_matrix,
)
from .errors import (
    CrossCheckFailed,
    DegeneracyError,
    Degenerate,
    DomainViolation,
    RangeError,
    ShapeError,
    SingularMatrix,
    TooSmall,
    ToolkitError,
    Unsupported,
    ZeroVariance,
)
from .reliability import (
    ReliabilityReport,
    SubTestScores,
    TrueScoreGeometry,
    classical_reliability,
    error_variance,
    f_test_equal_variance,
    split_half_correlation,
    sub_test_scores,
    true_score_geometry,
)
from .simulate import GENERATOR_ID, SimModel, generate
from .splitter import (
    Assignment,
    SplitResult,
    brute_force_split,
    product_refine,
    seed_allocation,
    split,
    swap_refine,
)
from .truescore import (
    EstimatorComparison,
    EstimatorComparisonRow,
    TrueScoreRow,
    TrueScoreTable,
    compare_estimators,
    estimate_true_scores,
    percentile_rank,
)

__all__ = [
    "__version__",
    # errors
    "ToolkitError",
    "DomainViolation",
    "ShapeError",
    "TooSmall",
    "Unsupported",
    "RangeError",
    "DegeneracyError",
    "ZeroVariance",
    "SingularMatrix",
    "Degenerate",
    "CrossCheckFailed",
    # data model
    "ScoreMatrix",
    "ItemScores",
    "ExamineeScores",
    "TestStats",
    "load_score_matrix",
    "write_score_matrix",
    "item_totals",
    "examinee_totals",
    "descriptive_stats",
    "mean_from_norms",
    "variance_from_norms",
    # splitter
    "Assignment",
    "SplitResult",
    "seed_allocation",
    "swap_refine",
    "product_refine",
    "brute_force_split",
    "split",
    # reliability
    "SubTestScores",
    "ReliabilityReport",
    "TrueScoreGeometry",
    "sub_test_scores",
    "error_variance",
    "split_half_correlation",
    "f_test_equal_variance",
    "classical_reliability",
    "true_score_geometry",
    # true scores
    "TrueScoreRow",
    "TrueScoreTable",
    "EstimatorComparisonRow",
    "EstimatorComparison",
    "estimate_true_scores",
    "compare_estimators",
    "percentile_rank",
    # battery
    "ComponentTest",
    "BatteryInput",
    "CovMatrix",
    "WeightVector",
    "BatteryReport",
    "covariance_matrix",
    "summative_reliability",
    "weighted_reliability",
    "optimal_weights",
    "nonnegative_weights",
    "eigen_weights",
    "equal_weights",
    "jacobi_eigh",
    # simulation
    "SimModel",
    "GENERATOR_ID",
    "generate",
]
