"""Two-class performance indices over the [[TP, FN], [FP, TN]] layout.

``gmean2``, ``auroc``, ``recall``, and ``specificity`` depend only on the
row-normalized rates and are therefore immune to changes in the test-set
class mix.  ``precision`` and ``aurpc`` use the raw false-positive count and
are not; ``m_precision`` and ``m_aurpc`` are their rate-corrected variants
that restore the immunity.

Each index is a formula over a two-class matrix's cells that returns a bare
number; :func:`imbindex.registry.evaluate` checks the class count and turns
a zero denominator, raised by :func:`~imbindex.values.nonzero`, into an
undefined value.  ``auroc``, the mean of the two class accuracies, has no
formula here: its registry row names :func:`imbindex.multiclass.acsa`, which
gives the same float on every two-class matrix.
"""

from __future__ import annotations

import math

from .values import nonzero


def gmean2(cells) -> float:
    """Geometric mean of the positive- and negative-class accuracies."""
    (tp, fn), (fp, tn) = cells.counts
    return math.sqrt((tp / (tp + fn)) * (tn / (fp + tn)))


def precision(cells) -> float:
    """TP / (TP + FP); undefined when nothing is predicted positive."""
    (tp, _fn), (fp, _tn) = cells.counts
    return tp / nonzero(tp + fp, "no positive predictions")


def recall(cells) -> float:
    """Positive-class accuracy TP / (TP + FN)."""
    (tp, fn), _negatives = cells.counts
    return tp / (tp + fn)


def specificity(cells) -> float:
    """Negative-class accuracy TN / (FP + TN)."""
    _positives, (fp, tn) = cells.counts
    return tn / (fp + tn)


def aurpc(cells) -> float:
    """Mean of recall and precision; inherits precision's undefined case."""
    return 0.5 * (recall(cells) + precision(cells))


def m_precision(cells) -> float:
    """Rate-corrected precision: (TP/n1) / ((TP/n1) + (FP/n2))."""
    (tp, fn), (fp, tn) = cells.counts
    tpr = tp / (tp + fn)
    return tpr / nonzero(tpr + fp / (fp + tn), "no positive predictions in rate terms")


def m_aurpc(cells) -> float:
    """Mean of recall and rate-corrected precision."""
    return 0.5 * (recall(cells) + m_precision(cells))
