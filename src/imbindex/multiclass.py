"""Multi-class performance indices.

All indices apply to ``C >= 2`` classes.  ``auroc_ovo`` decomposes the
problem one-vs-one and is an affine function of ``acsa``; ``auroc_ova`` and
``aurpc_ova`` decompose one-vs-all and mix row rates with raw column counts,
which is what exposes them to test-mix distortion.  ``n_auroc_ova``
renormalizes ``auroc_ova`` by the class-count-dependent floor
``(C - 2) / (2C)``; ``m_aurpc_ova`` replaces raw column counts by column sums
of row rates.

Each index is written once, as a formula over a matrix's cells: ``counts[i][j]``,
``row_sums``, ``col_sums``, ``total`` and ``class_count``.  It returns a bare
number, and every denominator that can vanish passes through
:func:`~imbindex.values.nonzero`.  The same body runs over two kinds of cells:

* one :class:`~imbindex.confusion.ConfusionMatrix`, whose cells are Python
  ints (:func:`imbindex.registry.evaluate`);
* a block of matrices whose cells are numpy vectors, one entry per matrix
  (the exhaustive enumeration in :mod:`imbindex.audit`).

The formulas use only ``+ - * /`` and ``**``, in a fixed order, so the two
paths round alike: the block values equal the one-matrix values bit for bit,
except that numpy's ``**`` may differ from Python's by one ulp.  Sums run
left to right (:func:`_add`), not through ``sum``, which compensates float
rounding on Python 3.12 and later while numpy does not.
"""

from __future__ import annotations

import math

from .values import nonzero


def _add(terms):
    """Left-to-right sum of ``terms``: numbers or vectors."""
    total = 0
    for term in terms:
        total += term
    return total


def _accuracies(cells) -> list:
    return [cells.counts[i][i] / cells.row_sums[i] for i in range(cells.class_count)]


def gmean_c(cells) -> float:
    """Geometric mean of the class-specific accuracies; 0 if any class scores 0."""
    return math.prod(_accuracies(cells)) ** (1.0 / cells.class_count)


def acsa(cells) -> float:
    """Arithmetic mean of the class-specific accuracies."""
    return _add(_accuracies(cells)) / cells.class_count


def auroc_ovo(cells) -> float:
    """One-vs-one decomposition of the discrete AUROC."""
    c = cells.class_count
    counts, row_sums = cells.counts, cells.row_sums
    total = 0.0
    for i in range(c):
        term = 1.0 + counts[i][i] / row_sums[i]
        for j in range(c):
            if j != i:
                term -= counts[j][i] / ((c - 1) * row_sums[j])
        total += term
    return total / (2 * c)


def auroc_ova(cells) -> float:
    """One-vs-all decomposition of the discrete AUROC."""
    c = cells.class_count
    n = cells.total
    counts, row_sums = cells.counts, cells.row_sums
    total = 0.0
    for i in range(c):
        false_pos = cells.col_sums[i] - counts[i][i]
        total += 1.0 + counts[i][i] / row_sums[i] - false_pos / (n - row_sums[i])
    return total / (2 * c)


def lambda_c(class_count: int) -> float:
    """Normalization floor ``(C - 2) / (2C)`` used by ``n_auroc_ova`` (0 when C = 2)."""
    return (class_count - 2) / (2 * class_count)


def n_auroc_ova(cells) -> float:
    """``auroc_ova`` affinely renormalized so its floor no longer grows with C.

    ``lambda_c`` is a floor for ``auroc_ova``: with ``n_max`` and ``n_2nd`` the
    two largest class counts, ``n_max + n_2nd <= n`` puts its closed-form
    lower bound at or above ``lambda_c``, so the value lies in [0, 1].
    """
    lam = lambda_c(cells.class_count)
    return (auroc_ova(cells) - lam) / (1.0 - lam)


def aurpc_ova(cells) -> float:
    """One-vs-all recall/precision mean; undefined when a class is never predicted."""
    c = cells.class_count
    counts, row_sums = cells.counts, cells.row_sums
    total = 0.0
    for i in range(c):
        predicted = nonzero(cells, cells.col_sums[i], f"class {i + 1} never predicted")
        total += counts[i][i] / predicted + counts[i][i] / row_sums[i]
    return total / (2 * c)


def m_aurpc_ova(cells) -> float:
    """Rate-corrected ``aurpc_ova``: column counts replaced by column sums of row rates."""
    c = cells.class_count
    rates = [[cells.counts[i][j] / cells.row_sums[i] for j in range(c)] for i in range(c)]
    total = 0.0
    for i in range(c):
        column = _add(rates[j][i] for j in range(c))
        predicted = nonzero(cells, column, f"rate column {i + 1} sums to zero")
        total += rates[i][i] / predicted + rates[i][i]
    return total / (2 * c)
