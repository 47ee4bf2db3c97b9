"""Exact rational re-evaluation of every index.

This is the independent oracle behind the invariance audits: two float values
that differ by rounding noise must not be mistaken for a genuine violation,
and a genuine violation must never be dismissed as noise.  Every index is
re-derived here over :class:`fractions.Fraction` cells, separately from the
float implementations in :mod:`imbindex.binary` and :mod:`imbindex.multiclass`.
Each registry row names its oracle function here.

The geometric-mean indices are irrational in general, so their exact record
carries the *product* of class accuracies as the comparison key; the map
``x -> x**(1/C)`` is strictly increasing, so equality and ordering of keys
match equality and ordering of the index values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .confusion import ConfusionMatrix


@dataclass(frozen=True)
class ExactEval:
    """Exact value of an index on one matrix.

    ``key`` is an order-preserving rational: the index value itself for every
    index except the geometric means, where it is the product of accuracies.
    ``value`` is the float index value derived from the exact computation.
    """

    key: Fraction
    value: float


def _rates(m: ConfusionMatrix) -> list[list[Fraction]]:
    return [
        [Fraction(v, n) for v in row] for row, n in zip(m.counts, m.row_sums)
    ]


def _gmean(m: ConfusionMatrix) -> ExactEval:
    product = Fraction(1)
    for i in range(m.class_count):
        product *= Fraction(m.counts[i][i], m.row_sums[i])
    return ExactEval(product, float(product) ** (1.0 / m.class_count))


def _acsa(m: ConfusionMatrix) -> ExactEval:
    total = sum(Fraction(m.counts[i][i], m.row_sums[i]) for i in range(m.class_count))
    key = total / m.class_count
    return ExactEval(key, float(key))


def _auroc2(m: ConfusionMatrix) -> ExactEval:
    return _acsa(m)


def _precision(m: ConfusionMatrix) -> ExactEval | None:
    tp = m.counts[0][0]
    fp = m.counts[1][0]
    if tp + fp == 0:
        return None
    key = Fraction(tp, tp + fp)
    return ExactEval(key, float(key))


def _recall(m: ConfusionMatrix) -> ExactEval:
    key = Fraction(m.counts[0][0], m.row_sums[0])
    return ExactEval(key, float(key))


def _specificity(m: ConfusionMatrix) -> ExactEval:
    key = Fraction(m.counts[1][1], m.row_sums[1])
    return ExactEval(key, float(key))


def _aurpc(m: ConfusionMatrix) -> ExactEval | None:
    prec = _precision(m)
    if prec is None:
        return None
    key = (_recall(m).key + prec.key) / 2
    return ExactEval(key, float(key))


def _m_precision(m: ConfusionMatrix) -> ExactEval | None:
    tpr = Fraction(m.counts[0][0], m.row_sums[0])
    fpr = Fraction(m.counts[1][0], m.row_sums[1])
    if tpr + fpr == 0:
        return None
    key = tpr / (tpr + fpr)
    return ExactEval(key, float(key))


def _m_aurpc(m: ConfusionMatrix) -> ExactEval | None:
    mp = _m_precision(m)
    if mp is None:
        return None
    key = (_recall(m).key + mp.key) / 2
    return ExactEval(key, float(key))


def _auroc_ovo(m: ConfusionMatrix) -> ExactEval:
    c = m.class_count
    total = Fraction(0)
    for i in range(c):
        term = 1 + Fraction(m.counts[i][i], m.row_sums[i])
        for j in range(c):
            if j != i:
                term -= Fraction(m.counts[j][i], (c - 1) * m.row_sums[j])
        total += term
    key = total / (2 * c)
    return ExactEval(key, float(key))


def _auroc_ova(m: ConfusionMatrix) -> ExactEval:
    c = m.class_count
    n = m.total
    total = Fraction(0)
    for i in range(c):
        total += (
            1
            + Fraction(m.counts[i][i], m.row_sums[i])
            - Fraction(m.col_sums[i] - m.counts[i][i], n - m.row_sums[i])
        )
    key = total / (2 * c)
    return ExactEval(key, float(key))


def _n_auroc_ova(m: ConfusionMatrix) -> ExactEval:
    c = m.class_count
    lam = Fraction(c - 2, 2 * c)
    key = (_auroc_ova(m).key - lam) / (1 - lam)
    return ExactEval(key, float(key))


def _aurpc_ova(m: ConfusionMatrix) -> ExactEval | None:
    c = m.class_count
    if any(k == 0 for k in m.col_sums):
        return None
    total = Fraction(0)
    for i in range(c):
        total += Fraction(m.counts[i][i], m.col_sums[i]) + Fraction(
            m.counts[i][i], m.row_sums[i]
        )
    key = total / (2 * c)
    return ExactEval(key, float(key))


def _m_aurpc_ova(m: ConfusionMatrix) -> ExactEval | None:
    c = m.class_count
    rates = _rates(m)
    col_rate_sums = [sum(rates[i][j] for i in range(c)) for j in range(c)]
    if any(s == 0 for s in col_rate_sums):
        return None
    total = Fraction(0)
    for i in range(c):
        total += rates[i][i] / col_rate_sums[i] + rates[i][i]
    key = total / (2 * c)
    return ExactEval(key, float(key))
