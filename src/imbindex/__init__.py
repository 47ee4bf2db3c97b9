"""Confusion-matrix performance indices for imbalanced classification.

The package evaluates fifteen two-class and multi-class indices, audits
thirteen of them against three robustness conditions (test-mix invariance,
class-count-stable bounds, single-class collapse), and runs synthetic
distortion experiments that show how the non-invariant indices drift when the
test set changes while the classifier does not.
"""

from .confusion import (
    ConfusionMatrix,
    DimensionMismatchError,
    EmptyRowError,
    IntegralityError,
    MatrixError,
    NegativeEntryError,
    NonIntegerScalingError,
    NonSquareError,
    TooFewClassesError,
    UnknownLabelError,
    apply_scaling,
    ingest_labels,
    to_fraction,
)
from .multiclass import lambda_c
from .registry import (
    ALL_INDEX_IDS,
    BINARY_INDEX_IDS,
    DEFAULT_SEED,
    MULTI_INDEX_IDS,
    ProfileRequiredError,
    UnknownIndexError,
    applicable_index_ids,
    bounds_exact,
    evaluate,
    exact,
    get_index,
)
from .values import IndexValue

__version__ = "0.1.0"

__all__ = [
    "ConfusionMatrix",
    "DimensionMismatchError",
    "EmptyRowError",
    "IndexValue",
    "IntegralityError",
    "MatrixError",
    "NegativeEntryError",
    "NonIntegerScalingError",
    "NonSquareError",
    "ProfileRequiredError",
    "TooFewClassesError",
    "UnknownIndexError",
    "UnknownLabelError",
    "ALL_INDEX_IDS",
    "BINARY_INDEX_IDS",
    "MULTI_INDEX_IDS",
    "DEFAULT_SEED",
    "apply_scaling",
    "applicable_index_ids",
    "bounds_exact",
    "evaluate",
    "exact",
    "get_index",
    "ingest_labels",
    "lambda_c",
    "to_fraction",
    "__version__",
]
