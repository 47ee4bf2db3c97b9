"""Exact rational re-evaluation of every index.

This is the independent oracle behind the invariance audits: two float values
that differ by rounding noise must not be mistaken for a genuine violation,
and a genuine violation must never be dismissed as noise.  Every index is
re-derived here in integer numerator/denominator arithmetic, separately from
the float implementations in :mod:`imbindex.binary` and
:mod:`imbindex.multiclass`.  Each registry row names its oracle function here;
it returns the index's key as an unreduced integer pair ``(num, den)`` with
``den > 0``, or ``None`` when the index is undefined on the matrix.  Two pairs
compare by cross-multiplying; :func:`imbindex.registry.exact` reduces them.

Each index family has one rule; every other oracle is one call into it or an
affine map of its base pair.  :func:`_gmean` gives ``gmean2`` and ``gmean_c``;
:func:`_acsa` gives ``auroc``, ``acsa`` and ``auroc_ovo``, which is
``((C-2) + C acsa) / (2(C-1))``; :func:`_auroc_ova` gives ``auroc_ova`` and
``n_auroc_ova = (2C ova - (C-2)) / (C+2)``; :func:`_weighted_precision` gives
``precision``, ``m_precision`` and, with :func:`_with_recall`, ``aurpc`` and
``m_aurpc``; :func:`_weighted_aurpc_ova` gives ``aurpc_ova`` and ``m_aurpc_ova``.
The paper's remedies for condition 1 are row weights: each ``m_`` index is its
base index over row rates, row ``i`` weighted by ``1 / R_i``.

Each oracle cross-multiplies over the cells and the margins with ``+``, ``-``
and ``*``, and tests a denominator for an exact zero before it divides; a sum
of ratios (:func:`_sum_ratios`) keeps its denominator at the least common
multiple of its terms'.  The geometric-mean indices are irrational in
general, so their key is the *product* of class accuracies; ``x -> x**(1/C)``
is strictly increasing, so keys order as the index values do.
"""

from __future__ import annotations

from math import gcd, lcm, prod
from operator import mul
from typing import Sequence

from .confusion import ConfusionMatrix


def _sum_ratios(nums: Sequence[int], dens: Sequence[int]) -> tuple[int, int]:
    """``sum(nums[k] / dens[k])`` as ``(num, den)``, with ``den`` the lcm of ``dens``.

    Dividing out ``gcd(den, d)`` at each step keeps ``den`` from growing as the product of ``dens``.
    """
    num, den = 0, 1
    for n, d in zip(nums, dens):
        g = gcd(den, d)
        num, den = num * (d // g) + n * (den // g), den // g * d
    return num, den


def _diagonal(m: ConfusionMatrix) -> list[int]:
    return [row[i] for i, row in enumerate(m.counts)]


def _gmean(m: ConfusionMatrix) -> tuple[int, int]:
    return prod(_diagonal(m)), prod(m.row_sums)


def _acsa(m: ConfusionMatrix) -> tuple[int, int]:
    num, den = _sum_ratios(_diagonal(m), m.row_sums)
    return num, len(m.counts) * den


def _auroc_ovo(m: ConfusionMatrix) -> tuple[int, int]:
    """One-vs-one AUROC (Hand & Till 2001): row ``j`` off the diagonal sums to ``R_j - a_jj``."""
    c = len(m.counts)
    num, den = _acsa(m)
    return (c - 2) * den + c * num, 2 * (c - 1) * den


def _recall(m: ConfusionMatrix) -> tuple[int, int]:
    return m.counts[0][0], m.row_sums[0]


def _specificity(m: ConfusionMatrix) -> tuple[int, int]:
    return m.counts[1][1], m.row_sums[1]


def _weighted_precision(m: ConfusionMatrix, w0: int, w1: int) -> tuple[int, int] | None:
    """``w0 tp / (w0 tp + w1 fp)``, rows weighted by ``w0`` and ``w1``; undefined at a zero
    denominator.  ``(R1, R0)`` is the row-rate weighting multiplied through by ``R0 R1``."""
    tp, fp = w0 * m.counts[0][0], w1 * m.counts[1][0]
    if tp + fp == 0:
        return None
    return tp, tp + fp


def _with_recall(m: ConfusionMatrix, precision: tuple[int, int] | None) -> tuple[int, int] | None:
    """Mean of recall ``tp / R0`` and a ``precision`` pair; undefined with the precision."""
    if precision is None:
        return None
    num, den = precision
    tp, r0 = m.counts[0][0], m.row_sums[0]
    return tp * den + num * r0, 2 * r0 * den


def _precision(m: ConfusionMatrix) -> tuple[int, int] | None:
    return _weighted_precision(m, 1, 1)


def _m_precision(m: ConfusionMatrix) -> tuple[int, int] | None:
    return _weighted_precision(m, m.row_sums[1], m.row_sums[0])


def _aurpc(m: ConfusionMatrix) -> tuple[int, int] | None:
    return _with_recall(m, _precision(m))


def _m_aurpc(m: ConfusionMatrix) -> tuple[int, int] | None:
    return _with_recall(m, _m_precision(m))


def _auroc_ova(m: ConfusionMatrix) -> tuple[int, int]:
    """``(1/2C) sum_i [1 + a_ii/R_i - (K_i - a_ii)/(n - R_i)]``."""
    c, n = len(m.counts), m.total
    nums, dens = [], []
    for d, r, k in zip(_diagonal(m), m.row_sums, m.col_sums):
        nums.append(d * (n - r) - (k - d) * r)
        dens.append(r * (n - r))
    num, den = _sum_ratios(nums, dens)
    return c * den + num, 2 * c * den


def _n_auroc_ova(m: ConfusionMatrix) -> tuple[int, int]:
    """``(ova - lam) / (1 - lam)`` with ``lam = (C-2)/(2C)``, multiplied through by ``2C``."""
    c = len(m.counts)
    num, den = _auroc_ova(m)
    return 2 * c * num - (c - 2) * den, (c + 2) * den


def _weighted_aurpc_ova(
    m: ConfusionMatrix, w: Sequence[int], s: Sequence[int]
) -> tuple[int, int] | None:
    """``(1/2C) sum_i [a_ii w_i / s_i + a_ii / R_i]``: ``aurpc_ova`` with row ``i`` weighted by
    ``w_i``, given the weighted column sums ``s_j = sum_i a_ij w_i``; undefined when one is 0."""
    if 0 in s:
        return None
    rows = m.row_sums
    nums = [d * (wi * r + si) for d, wi, r, si in zip(_diagonal(m), w, rows, s)]
    num, den = _sum_ratios(nums, [si * r for si, r in zip(s, rows)])
    return num, 2 * len(rows) * den


def _aurpc_ova(m: ConfusionMatrix) -> tuple[int, int] | None:
    return _weighted_aurpc_ova(m, [1] * len(m.counts), m.col_sums)


def _m_aurpc_ova(m: ConfusionMatrix) -> tuple[int, int] | None:
    """Row weights ``w_i = P / R_i`` for ``P`` the lcm of the row sums, which keeps them small."""
    p = lcm(*m.row_sums)
    w = [p // r for r in m.row_sums]
    return _weighted_aurpc_ova(m, w, [sum(map(mul, column, w)) for column in zip(*m.counts)])
