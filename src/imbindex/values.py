"""Result type shared by all index evaluators, and the guard on their denominators."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IndexValue:
    """An evaluated index: either a number in its range or an explicit undefined.

    Undefined results never degrade silently to 0, 1, or NaN; the reason names
    the vanishing denominator so downstream audits and reports can surface it.
    """

    index: str
    value: float | None
    reason: str | None = None

    @property
    def defined(self) -> bool:
        return self.value is not None

    def require(self) -> float:
        if self.value is None:
            raise ValueError(f"{self.index} is undefined: {self.reason}")
        return self.value


class Undefined(Exception):
    """An index formula met a zero denominator on one matrix; the message is the reason."""


def nonzero(cells, d, reason: str):
    """``d``, a denominator of an index formula over ``cells``, made safe to divide by.

    On one matrix ``d`` is a number, and zero raises :class:`Undefined` with
    ``reason``.  On a block of matrices ``d`` is a vector; ``cells.guard``
    marks its zero entries undefined and returns a copy with those set to 1.
    """
    if isinstance(d, (int, float)):
        if d == 0:
            raise Undefined(reason)
        return d
    return cells.guard(d, reason)
