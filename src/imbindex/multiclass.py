"""Multi-class performance indices.

All indices consume a validated :class:`~imbindex.confusion.ConfusionMatrix`
with ``C >= 2`` classes.  ``auroc_ovo`` decomposes the problem one-vs-one and
is an affine function of ``acsa``; ``auroc_ova`` and ``aurpc_ova`` decompose
one-vs-all and mix row rates with raw column counts, which is what exposes
them to test-mix distortion.  ``n_auroc_ova`` renormalizes ``auroc_ova`` by
the class-count-dependent floor ``(C - 2) / (2C)``; ``m_aurpc_ova`` replaces
raw column counts by column sums of row rates.

Each index also has a batched twin, ``<id>_batch``, used by the exhaustive
enumeration.  It maps an int64 ``(n, C, C)`` block of valid matrices to
float64 values plus a defined mask; entries outside the mask are finite but
meaningless, so NaN never leaves a twin.  The scalar forms stay because one
matrix at a time is faster without numpy's per-call overhead.
"""

from __future__ import annotations

import math

import numpy as np

from .confusion import ConfusionMatrix
from .values import IndexValue, defined, undefined


def _accuracies(m: ConfusionMatrix) -> list[float]:
    return [m.counts[i][i] / m.row_sums[i] for i in range(m.class_count)]


def _sum_last(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis; a product with ones beats ``sum`` on axes this short."""
    return x @ np.ones(x.shape[-1], dtype=x.dtype)


def _sum_columns(block: np.ndarray) -> np.ndarray:
    """Column sums of every matrix in an ``(n, C, C)`` block, as ``(n, C)``."""
    return np.ones(block.shape[1], dtype=block.dtype) @ block


def _batch_parts(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row sums, column sums and diagonal of every matrix in the block, each ``(n, C)``."""
    return _sum_last(block), _sum_columns(block), np.diagonal(block, axis1=1, axis2=2)


def _batch_rates(block: np.ndarray) -> np.ndarray:
    return block / _sum_last(block)[:, :, None]


def _all_defined(block: np.ndarray) -> np.ndarray:
    return np.ones(len(block), dtype=bool)


def gmean_c(m: ConfusionMatrix) -> IndexValue:
    """Geometric mean of the class-specific accuracies; 0 if any class scores 0."""
    c = m.class_count
    product = math.prod(_accuracies(m))
    return defined("gmean_c", product ** (1.0 / c))


def gmean_c_batch(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows, _cols, diag = _batch_parts(block)
    return np.prod(diag / rows, axis=1) ** (1.0 / block.shape[1]), _all_defined(block)


def acsa(m: ConfusionMatrix) -> IndexValue:
    """Arithmetic mean of the class-specific accuracies."""
    return defined("acsa", sum(_accuracies(m)) / m.class_count)


def acsa_batch(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows, _cols, diag = _batch_parts(block)
    return _sum_last(diag / rows) / block.shape[1], _all_defined(block)


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


def auroc_ovo_batch(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = block.shape[1]
    rates = _batch_rates(block)
    accuracies = np.diagonal(rates, axis1=1, axis2=2)
    # column i's rates from every other row
    off_rates = _sum_columns(rates) - accuracies
    total = _sum_last(1.0 + accuracies - off_rates / (c - 1))
    return total / (2 * c), _all_defined(block)


def auroc_ova(m: ConfusionMatrix) -> IndexValue:
    """One-vs-all decomposition of the discrete AUROC."""
    c = m.class_count
    n = m.total
    total = 0.0
    for i in range(c):
        false_pos = m.col_sums[i] - m.counts[i][i]
        total += 1.0 + m.counts[i][i] / m.row_sums[i] - false_pos / (n - m.row_sums[i])
    return defined("auroc_ova", total / (2 * c))


def auroc_ova_batch(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows, cols, diag = _batch_parts(block)
    n = _sum_last(rows)[:, None]
    total = _sum_last(1.0 + diag / rows - (cols - diag) / (n - rows))
    return total / (2 * block.shape[1]), _all_defined(block)


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


def n_auroc_ova_batch(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lam = lambda_c(block.shape[1])
    base, defined_mask = auroc_ova_batch(block)
    return (base - lam) / (1.0 - lam), defined_mask


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


def aurpc_ova_batch(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows, cols, diag = _batch_parts(block)
    predicted = cols > 0
    total = _sum_last(diag / np.where(predicted, cols, 1) + diag / rows)
    return total / (2 * block.shape[1]), predicted.all(axis=1)


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


def m_aurpc_ova_batch(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rates = _batch_rates(block)
    accuracies = np.diagonal(rates, axis1=1, axis2=2)
    col_rate_sums = _sum_columns(rates)
    positive = col_rate_sums > 0
    total = _sum_last(accuracies / np.where(positive, col_rate_sums, 1.0) + accuracies)
    return total / (2 * block.shape[1]), positive.all(axis=1)
