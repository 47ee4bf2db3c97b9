"""Confusion matrices, exact ratios, and the row scaling.

Layout convention used throughout the package: ``counts[i][j]`` is the number
of test points whose true class is ``i`` and predicted class is ``j``.  For
two classes, row 0 is the positive (minority) class and row 1 the negative
(majority) class, so the cells read::

    [[TP, FN],
     [FP, TN]]

Two matrices are *equivalent* when their row-normalized profiles agree, i.e.
``counts[i][j] / row_sum(i)`` is identical for every cell.  Equivalence is the
formal statement that the same classifier produced both matrices on test sets
with different class mixes; :func:`apply_scaling` builds an equivalent matrix
by scaling each row by a positive rational factor.  Scalings are checked in
integer arithmetic so that invariance audits can distinguish a true value
change from floating-point noise.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Hashable, Iterable, Mapping, Sequence


class MatrixError(ValueError):
    """Base class for confusion-matrix validation failures."""


class NonSquareError(MatrixError):
    """The count grid is not square."""


class TooFewClassesError(MatrixError):
    """Fewer than two classes."""


class NegativeEntryError(MatrixError):
    """A cell is negative or not an integer."""


class EmptyRowError(MatrixError):
    """Some true class has no test points (row sum zero)."""


class DimensionMismatchError(MatrixError):
    """Operands have incompatible class counts."""


class NonIntegerScalingError(MatrixError):
    """A row scaling would produce non-integer cell counts."""


class UnknownLabelError(MatrixError):
    """A label in the records is missing from the declared class list."""


class IntegralityError(MatrixError):
    """Requested exact construction cannot be realized with integer counts."""


def to_fraction(value) -> Fraction:
    """Coerce a number to an exact ``Fraction``.

    Floats are converted through their shortest decimal representation, so
    configuration values like ``0.6`` mean exactly ``3/5`` rather than the
    nearest binary double.  Strings accept both ``"0.6"`` and ``"3/5"``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not valid numeric values")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _check_cell(value, i: int, j: int) -> int:
    """``value`` as an ``int``: Python and numpy integers pass; bools, floats,
    ``Fraction`` and ``Decimal`` are rejected even when they are whole."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise NegativeEntryError(
            f"row {i + 1}, column {j + 1}: entry {value!r} is not an integer"
        ) from None
    if value < 0:
        raise NegativeEntryError(
            f"row {i + 1}, column {j + 1}: entry {value} is negative"
        )
    return value


@dataclass(frozen=True)
class ConfusionMatrix:
    """Validated square grid of non-negative integer counts with positive row sums."""

    counts: tuple[tuple[int, ...], ...]
    row_sums: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(map(tuple, self.counts))
        class_count = len(rows)
        if class_count < 2:
            raise TooFewClassesError(f"need at least 2 classes, got {class_count}")
        for i, row in enumerate(rows):
            if len(row) != class_count:
                raise NonSquareError(
                    f"row {i + 1} has {len(row)} entries, expected {class_count}"
                )
        # one pass keeps a grid of plain non-negative ints; any other is checked cell by cell
        if not all(type(v) is int and v >= 0 for row in rows for v in row):
            rows = tuple(
                tuple(_check_cell(v, i, j) for j, v in enumerate(row)) for i, row in enumerate(rows)
            )
        row_sums = tuple(map(sum, rows))
        if 0 in row_sums:
            i = row_sums.index(0)
            raise EmptyRowError(f"row {i + 1} sums to zero (class has no test points)")
        object.__setattr__(self, "counts", rows)
        object.__setattr__(self, "row_sums", row_sums)

    @property
    def class_count(self) -> int:
        return len(self.counts)

    @cached_property
    def col_sums(self) -> tuple[int, ...]:
        return tuple(map(sum, zip(*self.counts)))

    @cached_property
    def total(self) -> int:
        return sum(self.row_sums)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.counts]


def even_error_matrix(
    diagonal_rates: Sequence[Fraction], row_sums: Sequence[int]
) -> ConfusionMatrix:
    """Matrix with ``diagonal_rates[i] * row_sums[i]`` correct points in row ``i``.

    Each row's errors are split evenly over the other classes, with the
    integer remainder going to the lowest-indexed other class.  Raises
    :class:`IntegralityError` when a diagonal count is not an integer.
    """
    class_count = len(row_sums)
    rows = []
    for i, (rate, n_i) in enumerate(zip(diagonal_rates, row_sums)):
        diag = rate * n_i
        if diag.denominator != 1:
            raise IntegralityError(
                f"rate {rate} with row sum {n_i} gives non-integer diagonal {diag}"
            )
        base, rem = divmod(n_i - int(diag), class_count - 1)
        row = [base] * class_count
        row[i] = int(diag)
        row[1 if i == 0 else 0] += rem
        rows.append(tuple(row))
    return ConfusionMatrix(tuple(rows))


def apply_scaling(matrix: ConfusionMatrix, factors: Sequence) -> ConfusionMatrix:
    """Multiply row ``i`` by ``factors[i]``: the same classifier on another test mix.

    Factors are anything :func:`to_fraction` accepts.  Raises
    :class:`DimensionMismatchError` on a wrong factor count, then
    :class:`MatrixError` on a factor that is not positive, then
    :class:`NonIntegerScalingError` on the first cell that would stop being an
    integer.  The cell check runs in integers, ``v * p % q`` for a factor ``p/q``,
    and is skipped for an integer factor, which keeps every cell an integer.
    """
    factors = tuple(map(to_fraction, factors))
    if len(factors) != matrix.class_count:
        raise DimensionMismatchError(
            f"{len(factors)} factors for a {matrix.class_count}-class matrix"
        )
    for f in factors:
        if f.numerator <= 0:  # a Fraction's denominator is positive
            raise MatrixError(f"scaling factor {f} is not positive")
    rows = []
    for i, (f, row) in enumerate(zip(factors, matrix.counts)):
        p, q = f.numerator, f.denominator
        if q != 1:
            for j, v in enumerate(row):
                if v * p % q:
                    raise NonIntegerScalingError(
                        f"row {i + 1}, column {j + 1}: {f} * {v} is not an integer"
                    )
        rows.append(tuple(v * p // q for v in row))
    return ConfusionMatrix(tuple(rows))


def ingest_labels(
    records: Iterable[tuple[Hashable, Hashable]] | Mapping[tuple[Hashable, Hashable], int],
    class_list: Sequence[Hashable] | None = None,
) -> ConfusionMatrix:
    """Tally (true, predicted) label pairs into a confusion matrix.

    ``records`` is an iterable of pairs or a mapping from each pair to its
    count, such as the Counter :func:`imbindex.io.read_label_pairs` returns.
    Row/column order follows ``class_list``; when omitted, classes are taken
    in first-appearance order over the records (true label first, then the
    predicted label of the same pair).
    """
    tally = Counter(records)
    if class_list is None:
        seen: dict[Hashable, None] = {}
        for t, p in tally:
            seen.setdefault(t, None)
            seen.setdefault(p, None)
        class_list = list(seen)
    index = {label: i for i, label in enumerate(class_list)}
    if len(index) != len(class_list):
        raise MatrixError("class list contains duplicate labels")
    if len(index) < 2:
        raise TooFewClassesError("need at least 2 classes to tally a confusion matrix")
    c = len(index)
    grid = [[0] * c for _ in range(c)]
    for (t, p), n in tally.items():
        if t not in index:
            raise UnknownLabelError(f"true label {t!r} is not in the class list")
        if p not in index:
            raise UnknownLabelError(f"predicted label {p!r} is not in the class list")
        grid[index[t]][index[p]] += n
    for label, row in zip(index, grid):
        if not any(row):
            raise EmptyRowError(
                f"class {label!r} has no test points (no row has true label {label!r})"
            )
    return ConfusionMatrix(tuple(tuple(row) for row in grid))
