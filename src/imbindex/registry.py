"""The per-index table, evaluator dispatch, closed-form bounds, and package-wide defaults.

Every fact about an index lives in its :class:`IndexSpec` row: whether it is
two-class only, its float formula and its exact oracle, its closed-form lower
bound (the upper bound is 1 for every index), and its single-class-collapse
behaviour.  :func:`evaluate` is the one place that checks a two-class index's
class count and wraps a formula's bare number, or the reason it is
undefined, in an :class:`~imbindex.values.IndexValue`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import binary, multiclass
from . import exact as oracle
from .confusion import (
    ConfusionMatrix,
    DimensionMismatchError,
    MatrixError,
    ZeroClassCountError,
)
from .exact import ExactEval
from .values import IndexValue, Undefined

DEFAULT_SEED = 1729
SEED_ENV_VAR = "IMBINDEX_SEED"


class UnknownIndexError(ValueError):
    """The index id is not one of the stable ids listed in the registry."""


class ProfileRequiredError(MatrixError):
    """The requested bound depends on the per-class test counts."""


def _zero_floor(class_count: int, profile: Sequence[int] | None) -> Fraction:
    return Fraction(0)


def _ovo_floor(class_count: int, profile: Sequence[int] | None) -> Fraction:
    return Fraction(class_count - 2, 2 * (class_count - 1))


def _ova_floor(class_count: int, profile: Sequence[int] | None) -> Fraction:
    """``auroc_ova``'s floor; the profile is sorted first, so any order is accepted."""
    if profile is None:
        raise ProfileRequiredError(
            "auroc_ova bounds depend on per-class test counts; pass a profile"
        )
    counts = sorted(int(v) for v in profile)
    if len(counts) != class_count:
        raise MatrixError(
            f"profile has {len(counts)} counts but class_count is {class_count}"
        )
    if counts[0] <= 0:
        raise ZeroClassCountError("profile counts must be positive")
    n = sum(counts)
    return Fraction(1, 2 * class_count) * (
        class_count - 1 - Fraction(counts[-1], n - counts[-2])
    )


@dataclass(frozen=True)
class IndexSpec:
    """One index.

    ``formula(cells)`` is the index's float formula over a matrix's cells
    (see :mod:`imbindex.multiclass`); call it through :func:`evaluate`.
    ``lower_bound(C, profile)`` is the closed-form lower bound at ``C``
    classes. ``collapse_limit(C)`` is the closed-form limit along a
    single-class collapse. ``collapse_floor(C)`` is a strict floor that the
    limit provably exceeds. An index with neither has no collapse verdict.
    """

    index_id: str
    label: str
    binary_only: bool
    formula: Callable[..., float]
    exact: Callable[[ConfusionMatrix], ExactEval | None]
    lower_bound: Callable[[int, Sequence[int] | None], Fraction] = _zero_floor
    collapse_limit: Callable[[int], Fraction] | None = None
    collapse_floor: Callable[[int], Fraction] | None = None


_SPECS = (
    IndexSpec("gmean2", "GMean (two-class)", True, binary.gmean2, oracle._gmean),
    IndexSpec("auroc", "AUROC (two-class, discrete)", True, binary.auroc, oracle._auroc2),
    IndexSpec("precision", "Precision", True, binary.precision, oracle._precision),
    IndexSpec("recall", "Recall", True, binary.recall, oracle._recall),
    IndexSpec("specificity", "Specificity", True, binary.specificity, oracle._specificity),
    IndexSpec("aurpc", "AURPC (two-class, discrete)", True, binary.aurpc, oracle._aurpc),
    IndexSpec(
        "m_precision", "mPrecision (rate-corrected)", True,
        binary.m_precision, oracle._m_precision,
    ),
    IndexSpec("m_aurpc", "mAURPC (rate-corrected)", True, binary.m_aurpc, oracle._m_aurpc),
    IndexSpec(
        "gmean_c", "GMean (multi-class)", False, multiclass.gmean_c, oracle._gmean,
        collapse_limit=lambda c: Fraction(0),
    ),
    IndexSpec(
        "acsa", "ACSA (mean class accuracy)", False, multiclass.acsa, oracle._acsa,
        collapse_limit=lambda c: Fraction(c - 1, c),
    ),
    IndexSpec(
        "auroc_ovo", "AUROC-OVO", False, multiclass.auroc_ovo, oracle._auroc_ovo,
        lower_bound=_ovo_floor,
    ),
    IndexSpec(
        "auroc_ova", "AUROC-OVA", False, multiclass.auroc_ova, oracle._auroc_ova,
        lower_bound=_ova_floor,
    ),
    IndexSpec(
        "n_auroc_ova", "nAUROC-OVA (floor-normalized)", False,
        multiclass.n_auroc_ova, oracle._n_auroc_ova,
    ),
    IndexSpec("aurpc_ova", "AURPC-OVA", False, multiclass.aurpc_ova, oracle._aurpc_ova),
    IndexSpec(
        "m_aurpc_ova", "mAURPC-OVA (rate-corrected)", False,
        multiclass.m_aurpc_ova, oracle._m_aurpc_ova,
        collapse_floor=lambda c: Fraction(3 * (c - 1), 4 * c),
    ),
)

INDEX_SPECS: dict[str, IndexSpec] = {spec.index_id: spec for spec in _SPECS}
ALL_INDEX_IDS: tuple[str, ...] = tuple(spec.index_id for spec in _SPECS)
BINARY_INDEX_IDS: tuple[str, ...] = tuple(s.index_id for s in _SPECS if s.binary_only)
MULTI_INDEX_IDS: tuple[str, ...] = tuple(s.index_id for s in _SPECS if not s.binary_only)


def get_index(index_id: str) -> IndexSpec:
    try:
        return INDEX_SPECS[index_id]
    except KeyError:
        known = ", ".join(ALL_INDEX_IDS)
        raise UnknownIndexError(f"unknown index {index_id!r}; known ids: {known}") from None


def _spec_for(index_id: str, m: ConfusionMatrix) -> IndexSpec:
    spec = get_index(index_id)
    if spec.binary_only and m.class_count != 2:
        raise DimensionMismatchError(
            f"two-class index requires a 2-class matrix, got {m.class_count} classes"
        )
    return spec


def evaluate(index_id: str, m: ConfusionMatrix) -> IndexValue:
    """Evaluate one index (float path) on a validated matrix."""
    spec = _spec_for(index_id, m)
    try:
        return IndexValue(index_id, float(spec.formula(m)))
    except Undefined as err:
        return IndexValue(index_id, None, str(err))


def exact(index_id: str, m: ConfusionMatrix) -> ExactEval | None:
    """Evaluate one index on the exact rational path; ``None`` when undefined."""
    return _spec_for(index_id, m).exact(m)


def bounds_exact(
    index_id: str,
    class_count: int,
    profile: Sequence[int] | None = None,
) -> tuple[Fraction, Fraction]:
    """Closed-form (lower, upper) value bounds as exact rationals.

    ``auroc_ova`` is the only index whose lower bound depends on the per-class
    test counts; it raises :class:`ProfileRequiredError` without a profile.
    """
    if class_count < 2:
        raise MatrixError(f"need at least 2 classes, got {class_count}")
    spec = INDEX_SPECS.get(index_id)
    if spec is None:
        raise MatrixError(f"unknown index id {index_id!r}")
    if spec.binary_only and class_count != 2:
        raise MatrixError(f"{index_id} is a two-class index; got C={class_count}")
    return spec.lower_bound(class_count, profile), Fraction(1)


def theoretical_bounds(
    index_id: str,
    class_count: int,
    profile: Sequence[int] | None = None,
) -> tuple[float, float]:
    """Float view of :func:`bounds_exact`."""
    lo, hi = bounds_exact(index_id, class_count, profile)
    return float(lo), float(hi)


def applicable_index_ids(class_count: int) -> tuple[str, ...]:
    """Ids meaningful for a given class count (two-class ids only at C = 2)."""
    if class_count == 2:
        return ALL_INDEX_IDS
    return MULTI_INDEX_IDS


def default_seed() -> int:
    """Fixed default seed, overridable through the environment."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
