"""The per-index table, evaluator dispatch, closed-form bounds, and the default seed.

Every fact about an index lives in its :class:`IndexSpec` row: whether it is
two-class only, its float formula and its exact oracle, its closed-form lower
bound (the upper bound is 1 for every index), and its single-class-collapse
behaviour.  :func:`evaluate` checks a two-class index's class count and
wraps a formula's bare number, or the reason it is undefined, in an
:class:`~imbindex.values.IndexValue`; :func:`exact` is the one place that
reduces an oracle's ``(num, den)`` pair to a ``Fraction`` key and wraps it in
an :class:`ExactEval`.  The condition-1 trial loop in :mod:`imbindex.audit`
reads a spec's ``exact`` and ``formula`` directly: it runs each index only at
a class count it accepts, and it compares pairs by cross-multiplying, so it
needs neither wrapper.  The row builder of :mod:`imbindex.lab` calls
``formula`` directly too, checking the class count once per matrix.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import binary, multiclass
from . import exact as oracle
from .confusion import ConfusionMatrix, DimensionMismatchError, MatrixError
from .values import IndexValue, Undefined

DEFAULT_SEED = 1729


class UnknownIndexError(ValueError):
    """The index id is not one of the stable ids listed in the registry."""


class ProfileRequiredError(MatrixError):
    """The requested bound depends on the per-class test counts."""


@dataclass(frozen=True)
class ExactEval:
    """Exact value of an index on one matrix.

    ``key`` is an order-preserving rational: the index value itself for every
    index except the geometric means, where it is the product of accuracies.
    ``value`` is the float index value derived from the key.
    """

    key: Fraction
    value: float


def _key_value(key: Fraction, class_count: int) -> float:
    """``float(key)``: the same correctly rounded integer division, without the
    detour through ``numbers.Rational.__float__`` that Python 3.11 takes."""
    return key.numerator / key.denominator


def _root_value(key: Fraction, class_count: int) -> float:
    """A geometric mean's value from its key, the product of the class accuracies;
    rooted through the key's integer logarithms where the product underflows."""
    product = _key_value(key, class_count)
    if product < sys.float_info.min and key.numerator > 0:
        return math.exp((math.log(key.numerator) - math.log(key.denominator)) / class_count)
    return product ** (1.0 / class_count)


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
    counts = sorted(profile)
    n = sum(counts)
    return Fraction(1, 2 * class_count) * (
        class_count - 1 - Fraction(counts[-1], n - counts[-2])
    )


@dataclass(frozen=True)
class IndexSpec:
    """One index.

    ``formula(cells)`` is the index's float formula over a matrix's cells
    (see :mod:`imbindex.multiclass`); call it through :func:`evaluate`.
    ``exact(m)`` is its oracle in :mod:`imbindex.exact`, which returns the
    exact key as an unreduced ``(num, den)`` pair with ``den > 0``, or
    ``None``; ``key_value(key, C)`` turns a reduced key into the float
    value.  Call both through :func:`exact`, except in the condition-1 trial
    loop, which calls both directly, and the lab's row builder, which calls
    ``formula`` directly (see above).
    ``lower_bound(C, profile)`` is the closed-form lower bound at ``C``
    classes. ``collapse_limit(C)`` is the closed-form limit along a
    single-class collapse. ``collapse_floor(C)`` is a strict floor that the
    limit provably exceeds; it is checked against exact keys, so it suits only
    an index whose key is its value. An index with neither has no collapse
    verdict.  ``affine``: the key is affine in the cells at fixed row sums.
    ``undefined_iff_empty_column``: undefined exactly when a column is empty
    (else defined whenever every row is non-empty).  Condition 2 reads both.
    """

    index_id: str
    binary_only: bool
    formula: Callable[..., float]
    exact: Callable[[ConfusionMatrix], tuple[int, int] | None]
    lower_bound: Callable[[int, Sequence[int] | None], Fraction] = _zero_floor
    collapse_limit: Callable[[int], Fraction] | None = None
    collapse_floor: Callable[[int], Fraction] | None = None
    key_value: Callable[[Fraction, int], float] = _key_value
    affine: bool = False
    undefined_iff_empty_column: bool = False


_SPECS = (
    IndexSpec("gmean2", True, binary.gmean2, oracle._gmean, key_value=_root_value),
    IndexSpec("auroc", True, multiclass.acsa, oracle._acsa),  # the two-class acsa
    IndexSpec("precision", True, binary.precision, oracle._precision),
    IndexSpec("recall", True, binary.recall, oracle._recall),
    IndexSpec("specificity", True, binary.specificity, oracle._specificity),
    IndexSpec("aurpc", True, binary.aurpc, oracle._aurpc),
    IndexSpec("m_precision", True, binary.m_precision, oracle._m_precision),
    IndexSpec("m_aurpc", True, binary.m_aurpc, oracle._m_aurpc),
    IndexSpec(
        "gmean_c", False, multiclass.gmean_c, oracle._gmean,
        collapse_limit=lambda c: Fraction(0), key_value=_root_value,
    ),
    IndexSpec(
        "acsa", False, multiclass.acsa, oracle._acsa,
        collapse_limit=lambda c: Fraction(c - 1, c), affine=True,
    ),
    IndexSpec("auroc_ovo", False, multiclass.auroc_ovo, oracle._auroc_ovo, _ovo_floor, affine=True),
    IndexSpec("auroc_ova", False, multiclass.auroc_ova, oracle._auroc_ova, _ova_floor, affine=True),
    IndexSpec("n_auroc_ova", False, multiclass.n_auroc_ova, oracle._n_auroc_ova, affine=True),
    IndexSpec(
        "aurpc_ova", False, multiclass.aurpc_ova, oracle._aurpc_ova, undefined_iff_empty_column=True
    ),
    IndexSpec(
        "m_aurpc_ova", False, multiclass.m_aurpc_ova, oracle._m_aurpc_ova,
        collapse_floor=lambda c: Fraction(3 * (c - 1), 4 * c), undefined_iff_empty_column=True,
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
    spec = _spec_for(index_id, m)
    pair = spec.exact(m)
    if pair is None:
        return None
    key = Fraction(*pair)
    return ExactEval(key, spec.key_value(key, len(m.counts)))


def bounds_exact(
    index_id: str,
    class_count: int,
    profile: Sequence[int] | None = None,
) -> tuple[Fraction, Fraction]:
    """Closed-form (lower, upper) value bounds as exact rationals.

    ``auroc_ova`` is the only index whose lower bound depends on the per-class
    test counts; it raises :class:`ProfileRequiredError` without a profile.
    A profile given for any index must hold ``class_count`` positive counts.
    """
    spec = get_index(index_id)
    if class_count < 2:
        raise MatrixError(f"need at least 2 classes, got {class_count}")
    if spec.binary_only and class_count != 2:
        raise MatrixError(f"{index_id} is a two-class index; got C={class_count}")
    if profile is not None:
        profile = tuple(int(v) for v in profile)
        if len(profile) != class_count:
            raise MatrixError(
                f"profile has {len(profile)} counts but class_count is {class_count}"
            )
        if min(profile) <= 0:
            raise MatrixError("profile counts must be positive")
    return spec.lower_bound(class_count, profile), Fraction(1)


def applicable_index_ids(class_count: int) -> tuple[str, ...]:
    """Ids meaningful for a given class count (two-class ids only at C = 2)."""
    if class_count == 2:
        return ALL_INDEX_IDS
    return MULTI_INDEX_IDS

