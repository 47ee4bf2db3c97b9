"""Multi-class performance indices.

All indices consume a validated :class:`~imbindex.confusion.ConfusionMatrix`
with ``C >= 2`` classes.  ``auroc_ovo`` decomposes the problem one-vs-one and
is an affine function of ``acsa``; ``auroc_ova`` and ``aurpc_ova`` decompose
one-vs-all and mix row rates with raw column counts, which is what exposes
them to test-mix distortion.  ``n_auroc_ova`` renormalizes ``auroc_ova`` by
the class-count-dependent floor ``(C - 2) / (2C)``; ``m_aurpc_ova`` replaces
raw column counts by column sums of row rates.
"""

from __future__ import annotations

import math

from .confusion import ConfusionMatrix
from .values import IndexValue, defined, undefined


def _accuracies(m: ConfusionMatrix) -> list[float]:
    return [m.counts[i][i] / m.row_sums[i] for i in range(m.class_count)]


def gmean_c(m: ConfusionMatrix) -> IndexValue:
    """Geometric mean of the class-specific accuracies; 0 if any class scores 0."""
    c = m.class_count
    product = math.prod(_accuracies(m))
    return defined("gmean_c", product ** (1.0 / c))


def acsa(m: ConfusionMatrix) -> IndexValue:
    """Arithmetic mean of the class-specific accuracies."""
    return defined("acsa", sum(_accuracies(m)) / m.class_count)


def auroc_ovo(m: ConfusionMatrix) -> IndexValue:
    """One-vs-one decomposition of the discrete AUROC."""
    c = m.class_count
    total = 0.0
    for i in range(c):
        term = 1.0 + m.counts[i][i] / m.row_sums[i]
        for j in range(c):
            if j != i:
                term -= m.counts[j][i] / ((c - 1) * m.row_sums[j])
        total += term
    return defined("auroc_ovo", total / (2 * c))


def auroc_ova(m: ConfusionMatrix) -> IndexValue:
    """One-vs-all decomposition of the discrete AUROC."""
    c = m.class_count
    n = m.total
    total = 0.0
    for i in range(c):
        false_pos = m.col_sums[i] - m.counts[i][i]
        total += 1.0 + m.counts[i][i] / m.row_sums[i] - false_pos / (n - m.row_sums[i])
    return defined("auroc_ova", total / (2 * c))


def lambda_c(class_count: int) -> float:
    """Normalization floor ``(C - 2) / (2C)`` used by ``n_auroc_ova`` (0 when C = 2)."""
    return (class_count - 2) / (2 * class_count)


def n_auroc_ova(m: ConfusionMatrix) -> IndexValue:
    """``auroc_ova`` affinely renormalized so its floor no longer grows with C.

    ``lambda_c`` is a floor for ``auroc_ova``: with ``n_max`` and ``n_2nd`` the
    two largest class counts, ``n_max + n_2nd <= n`` puts its closed-form
    lower bound at or above ``lambda_c``, so the value lies in [0, 1].
    """
    lam = lambda_c(m.class_count)
    base = auroc_ova(m).require()
    return defined("n_auroc_ova", (base - lam) / (1.0 - lam))


def aurpc_ova(m: ConfusionMatrix) -> IndexValue:
    """One-vs-all recall/precision mean; undefined when a class is never predicted."""
    c = m.class_count
    for i in range(c):
        if m.col_sums[i] == 0:
            return undefined("aurpc_ova", f"class {i + 1} never predicted")
    total = 0.0
    for i in range(c):
        total += m.counts[i][i] / m.col_sums[i] + m.counts[i][i] / m.row_sums[i]
    return defined("aurpc_ova", total / (2 * c))


def m_aurpc_ova(m: ConfusionMatrix) -> IndexValue:
    """Rate-corrected ``aurpc_ova``: column counts replaced by column sums of row rates."""
    c = m.class_count
    rates = [
        [m.counts[i][j] / m.row_sums[i] for j in range(c)] for i in range(c)
    ]
    col_rate_sums = [sum(rates[i][j] for i in range(c)) for j in range(c)]
    for j in range(c):
        if col_rate_sums[j] == 0:
            return undefined("m_aurpc_ova", f"rate column {j + 1} sums to zero")
    total = 0.0
    for i in range(c):
        total += rates[i][i] / col_rate_sums[i] + rates[i][i]
    return defined("m_aurpc_ova", total / (2 * c))
