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

Each oracle cross-multiplies over the cells and the margins with ``+``, ``-``
and ``*``, and tests a denominator for an exact zero before it divides; a sum
of ratios (:func:`_sum_ratios`) keeps its denominator at the least common
multiple of its terms'.

The geometric-mean indices are irrational in general, so their key is the
*product* of class accuracies; the map ``x -> x**(1/C)`` is strictly
increasing, so equality and ordering of keys match equality and ordering of
the index values.
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


def _precision(m: ConfusionMatrix) -> tuple[int, int] | None:
    tp, fp = m.counts[0][0], m.counts[1][0]
    if tp + fp == 0:
        return None
    return tp, tp + fp


def _recall(m: ConfusionMatrix) -> tuple[int, int]:
    return m.counts[0][0], m.row_sums[0]


def _specificity(m: ConfusionMatrix) -> tuple[int, int]:
    return m.counts[1][1], m.row_sums[1]


def _aurpc(m: ConfusionMatrix) -> tuple[int, int] | None:
    """Mean of recall ``tp / R0`` and precision ``tp / (tp + fp)``."""
    tp, fp, r0 = m.counts[0][0], m.counts[1][0], m.row_sums[0]
    if tp + fp == 0:
        return None
    return tp * (tp + fp) + tp * r0, 2 * r0 * (tp + fp)


def _m_precision(m: ConfusionMatrix) -> tuple[int, int] | None:
    """``tpr / (tpr + fpr)``, multiplied through by ``R0 * R1``."""
    tp, fp = m.counts[0][0], m.counts[1][0]
    r0, r1 = m.row_sums
    den = tp * r1 + fp * r0
    if den == 0:
        return None
    return tp * r1, den


def _m_aurpc(m: ConfusionMatrix) -> tuple[int, int] | None:
    """Mean of recall ``tp / R0`` and the rate-corrected precision."""
    terms = _m_precision(m)
    if terms is None:
        return None
    mp_num, mp_den = terms
    tp, r0 = m.counts[0][0], m.row_sums[0]
    return tp * mp_den + mp_num * r0, 2 * r0 * mp_den


def _auroc_ovo(m: ConfusionMatrix) -> tuple[int, int]:
    """``(1/2C) sum_i [1 + a_ii/R_i - sum_{j != i} a_ji / ((C-1) R_j)]``.

    The terms are grouped by denominator: row ``j`` contributes its diagonal
    ``C - 1`` times and its off-diagonal cells, which sum to ``R_j - a_jj``,
    once, negated.
    """
    c = len(m.counts)
    nums = [c * d - r for d, r in zip(_diagonal(m), m.row_sums)]
    num, den = _sum_ratios(nums, m.row_sums)
    return c * (c - 1) * den + num, 2 * c * (c - 1) * den


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


def _aurpc_ova(m: ConfusionMatrix) -> tuple[int, int] | None:
    """``(1/2C) sum_i [a_ii/K_i + a_ii/R_i]``; undefined when a column is empty."""
    if 0 in m.col_sums:
        return None
    nums = [d * (k + r) for d, k, r in zip(_diagonal(m), m.col_sums, m.row_sums)]
    num, den = _sum_ratios(nums, [k * r for k, r in zip(m.col_sums, m.row_sums)])
    return num, 2 * len(m.counts) * den


def _m_aurpc_ova(m: ConfusionMatrix) -> tuple[int, int] | None:
    """``(1/2C) sum_i [r_ii/s_i + r_ii]`` over rates ``r_ij = a_ij/R_i``, ``s_j = sum_i r_ij``.

    With ``P`` the least common multiple of the row sums and ``w_i = P / R_i``
    (exact, as ``R_i`` divides ``P``), ``s_j = S_j / P`` for ``S_j = sum_i a_ij w_i``, so
    ``r_ii / s_i + r_ii = a_ii w_i (P + S_i) / (S_i P)``.
    Undefined when some ``S_j`` is zero.
    """
    rows = m.row_sums
    p = lcm(*rows)
    w = [p // r for r in rows]
    col_rate_sums = [sum(map(mul, column, w)) for column in zip(*m.counts)]
    if 0 in col_rate_sums:
        return None
    nums = [d * wi * (p + s) for d, wi, s in zip(_diagonal(m), w, col_rate_sums)]
    num, den = _sum_ratios(nums, col_rate_sums)
    return num, 2 * len(rows) * p * den
