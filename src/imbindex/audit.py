"""Mechanical audits of index behavior under the three robustness conditions.

Condition 1 (test-mix invariance): the index value must not change across
equivalent matrices, i.e. under positive row scalings.  Audited by sampling
random valid matrices and random integrality-preserving scalings; a violation
is declared only after the exact rational oracle confirms the two values
differ, so rounding noise can never produce a false violation.

Condition 2 (class-count-stable bounds): the index's closed-form value bounds
must not depend on the number of classes.  Audited by comparing closed-form
bounds across a class-count range, with an exhaustive enumeration of all
matrices over fixed small row sums as the independent check that the bounds
are attained and never crossed.  The enumeration runs each index's float
formula, the one :func:`~imbindex.registry.evaluate` runs on one matrix, over
blocks of matrices held as numpy cell vectors; it screens for extrema in
float and confirms them with the exact oracle.

Condition 3 (single-class collapse): when one class's accuracy is driven to
zero along a collapse family, the index limit must stay strictly above the
index's global lower bound, otherwise the index forgets every other class.

Determinism contract: every audit derives the randomness of trial ``t`` from
``(seed, t)`` alone, so trials are order-independent and a report is exactly
reproducible from its recorded seed.  When a violation exists the stored
witness is the one with the lowest trial number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .confusion import (
    ConfusionMatrix,
    EmptyRowError,
    MatrixError,
    TooFewClassesError,
    apply_scaling,
    even_error_matrix,
    to_fraction,
)
from .exact import ExactEval
from .io import to_json
from .registry import (
    DEFAULT_SEED,
    bounds_exact,
    evaluate,
    exact,
    get_index,
)

COLLAPSE_TOL = 1e-9
SCREEN_TOL = 1e-9
DEFAULT_TRIALS = 500
DEFAULT_BUDGET = 2_000_000
DEFAULT_C_RANGE = (2, 3, 4)

VERDICT_INVARIANT = "Invariant"
VERDICT_VIOLATED = "Violated"
VERDICT_STABLE = "StableBounds"
VERDICT_C_DEPENDENT = "CDependentBounds"
VERDICT_INFORMATIVE = "Informative"
VERDICT_COLLAPSES = "Collapses"
VERDICT_NOT_APPLICABLE = "NotApplicable"

# Expected verdict rows (condition 1, condition 2, condition 3) for the
# thirteen audited indices, in audit order; its keys are the ids that
# ``audit_all`` and ``audit --all`` audit, and ``--check-paper`` compares
# against its rows.
EXPECTED_VERDICTS: dict[str, tuple[str, str, str]] = {
    "gmean2": (VERDICT_INVARIANT, VERDICT_NOT_APPLICABLE, VERDICT_NOT_APPLICABLE),
    "auroc": (VERDICT_INVARIANT, VERDICT_NOT_APPLICABLE, VERDICT_NOT_APPLICABLE),
    "precision": (VERDICT_VIOLATED, VERDICT_NOT_APPLICABLE, VERDICT_NOT_APPLICABLE),
    "aurpc": (VERDICT_VIOLATED, VERDICT_NOT_APPLICABLE, VERDICT_NOT_APPLICABLE),
    "m_precision": (VERDICT_INVARIANT, VERDICT_NOT_APPLICABLE, VERDICT_NOT_APPLICABLE),
    "m_aurpc": (VERDICT_INVARIANT, VERDICT_NOT_APPLICABLE, VERDICT_NOT_APPLICABLE),
    "gmean_c": (VERDICT_INVARIANT, VERDICT_STABLE, VERDICT_COLLAPSES),
    "acsa": (VERDICT_INVARIANT, VERDICT_STABLE, VERDICT_INFORMATIVE),
    "auroc_ovo": (VERDICT_INVARIANT, VERDICT_C_DEPENDENT, VERDICT_NOT_APPLICABLE),
    "auroc_ova": (VERDICT_VIOLATED, VERDICT_C_DEPENDENT, VERDICT_NOT_APPLICABLE),
    "n_auroc_ova": (VERDICT_VIOLATED, VERDICT_STABLE, VERDICT_NOT_APPLICABLE),
    "aurpc_ova": (VERDICT_VIOLATED, VERDICT_STABLE, VERDICT_NOT_APPLICABLE),
    "m_aurpc_ova": (VERDICT_INVARIANT, VERDICT_STABLE, VERDICT_INFORMATIVE),
}


class BudgetExceededError(RuntimeError):
    """Exhaustive enumeration would exceed the configured matrix budget."""


class BoundCrossedError(MatrixError):
    """An enumerated extremum lies outside the index's closed-form bounds."""


# ---------------------------------------------------------------------------
# randomized matrix and scaling generation


def uniform_composition(rng: np.random.Generator, total: int, bins: int) -> tuple[int, ...]:
    """Uniformly random composition of ``total`` into ``bins`` non-negative parts."""
    if bins == 1:
        return (total,)
    slots = total + bins - 1
    bars = np.sort(rng.choice(slots, size=bins - 1, replace=False))
    parts = [int(bars[0])]
    for k in range(1, bins - 1):
        parts.append(int(bars[k] - bars[k - 1] - 1))
    parts.append(int(slots - bars[-1] - 1))
    return tuple(parts)


def sample_matrix(rng: np.random.Generator, class_count: int) -> ConfusionMatrix:
    """Random valid matrix: row sums uniform on [5, 50], cells by uniform composition."""
    rows = []
    for _ in range(class_count):
        total = int(rng.integers(5, 51))
        rows.append(uniform_composition(rng, total, class_count))
    return ConfusionMatrix(tuple(rows))


_SCALING_CANDIDATES = tuple(Fraction(1, d) for d in (5, 4, 3, 2)) + tuple(
    Fraction(k) for k in (1, 2, 3, 4, 5)
)
_INTEGER_CANDIDATES = tuple(Fraction(k) for k in (1, 2, 3, 4, 5))


def sample_scaling(rng: np.random.Generator, m: ConfusionMatrix) -> tuple[Fraction, ...]:
    """Random integrality-preserving row scaling with at least two distinct factors."""
    factors = []
    for row in m.counts:
        valid = [
            b for b in _SCALING_CANDIDATES
            if all(v % b.denominator == 0 for v in row)
        ]
        factors.append(valid[int(rng.integers(len(valid)))])
    if len(set(factors)) == 1:
        row_idx = int(rng.integers(m.class_count))
        alternatives = [b for b in _INTEGER_CANDIDATES if b != factors[row_idx]]
        factors[row_idx] = alternatives[int(rng.integers(len(alternatives)))]
    return tuple(factors)


# ---------------------------------------------------------------------------
# condition 1


@dataclass(frozen=True)
class Condition1Witness:
    trial: int
    matrix: ConfusionMatrix
    factors: tuple[Fraction, ...]
    value_before: float
    value_after: float
    exact_before: Fraction
    exact_after: Fraction


@dataclass(frozen=True)
class Condition1Result:
    verdict: str
    trials: int
    class_count: int
    seed: int
    resampled_undefined: int
    max_float_drift: float
    witness: Condition1Witness | None


def _sample_defined(
    rng: np.random.Generator, index_id: str, class_count: int
) -> tuple[ConfusionMatrix, ExactEval, int]:
    """Sample until the index is defined on the matrix (bounded retries)."""
    resampled = 0
    for _ in range(200):
        m = sample_matrix(rng, class_count)
        ev = exact(index_id, m)
        if ev is not None:
            return m, ev, resampled
        resampled += 1
    raise RuntimeError(f"{index_id} undefined on 200 consecutive sampled matrices")


def audit_condition1(
    index_id: str,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    class_count: int | None = None,
) -> Condition1Result:
    """Randomized row-scaling invariance audit with exact-rational confirmation.

    Trial ``t`` draws its matrix and scaling from a stream seeded by
    ``(seed, t)``.  The exact oracle is the only arbiter: Violated on the
    first exact disagreement (lowest trial index), Invariant when every trial
    agrees exactly.  The largest float drift is reported, never judged.
    """
    spec = get_index(index_id)
    if spec.binary_only:
        if class_count not in (None, 2):
            raise MatrixError(f"{index_id} is a two-class index; class_count must be 2")
        class_count = 2
    else:
        class_count = 3 if class_count is None else class_count
        if class_count < 2:
            raise MatrixError("class_count must be at least 2")
    if trials < 1:
        raise ValueError("trials must be at least 1")

    resampled_total = 0
    max_drift = 0.0
    witness = None
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        m, exact_before, resampled = _sample_defined(rng, index_id, class_count)
        resampled_total += resampled
        factors = sample_scaling(rng, m)
        scaled = apply_scaling(m, factors)
        exact_after = exact(index_id, scaled)
        value_before = evaluate(index_id, m).require()
        value_after = evaluate(index_id, scaled).require()
        max_drift = max(max_drift, abs(value_after - value_before))
        if exact_before.key != exact_after.key:
            witness = Condition1Witness(
                trial=trial,
                matrix=m,
                factors=factors,
                value_before=value_before,
                value_after=value_after,
                exact_before=exact_before.key,
                exact_after=exact_after.key,
            )
            break
    verdict = VERDICT_VIOLATED if witness else VERDICT_INVARIANT
    return Condition1Result(
        verdict=verdict,
        trials=trials,
        class_count=class_count,
        seed=seed,
        resampled_undefined=resampled_total,
        max_float_drift=max_drift,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# exhaustive enumeration over fixed row sums


@lru_cache(maxsize=None)
def _compositions(total: int, bins: int) -> tuple[tuple[int, ...], ...]:
    if bins == 1:
        return ((total,),)
    return tuple(
        (first,) + rest
        for first in range(total + 1)
        for rest in _compositions(total - first, bins - 1)
    )


def enumeration_size(row_sums: Sequence[int]) -> int:
    """Number of matrices with the given row sums."""
    bins = len(row_sums)
    return math.prod(math.comb(s + bins - 1, bins - 1) for s in row_sums)


# int64 cells per enumeration block: memory stays flat in C and in enumeration size
_BLOCK_CELLS = 12_288


def _iter_blocks(row_sums: Sequence[int]) -> Iterator[np.ndarray]:
    """All matrices with the given row sums as ``(n, C, C)`` int64 blocks.

    The order is lexicographic in the rows, the order of ``itertools.product``
    over each row's compositions; a matrix's position in it identifies it.
    """
    bins = len(row_sums)
    rows = [np.array(_compositions(int(s), bins), dtype=np.int64) for s in row_sums]
    shape = tuple(len(r) for r in rows)
    size = math.prod(shape)
    step = max(1, _BLOCK_CELLS // (bins * bins))
    for first in range(0, size, step):
        picks = np.unravel_index(np.arange(first, min(first + step, size)), shape)
        yield np.stack([r[pick] for r, pick in zip(rows, picks)], axis=1)


def _matrix_at(row_sums: Sequence[int], position: int) -> ConfusionMatrix:
    """The matrix at one position of the enumeration order."""
    bins = len(row_sums)
    rows = [_compositions(int(s), bins) for s in row_sums]
    picks = np.unravel_index(position, tuple(len(r) for r in rows))
    return ConfusionMatrix(tuple(r[int(pick)] for r, pick in zip(rows, picks)))


def iter_matrices(row_sums: Sequence[int]) -> Iterator[ConfusionMatrix]:
    """All valid matrices with the given row sums, in lexicographic row order."""
    for block in _iter_blocks(row_sums):
        for counts in block.tolist():
            yield ConfusionMatrix(counts)


def default_row_sums(class_count: int) -> tuple[int, ...]:
    """Row sums keeping exhaustive enumeration small as the class count grows."""
    if class_count <= 3:
        per_row = 3
    elif class_count == 4:
        per_row = 2
    else:
        per_row = 1
    return (per_row,) * class_count


class _BlockCells:
    """A block of matrices as the cells an index formula reads, one entry per matrix.

    The block is copied once into contiguous ``(C, C, n)`` int64 cells, so
    ``counts[i][j]``, ``row_sums[i]``, ``col_sums[j]`` and ``total`` are
    ``(n,)`` vectors; the margins are summed once and every formula reads them.
    """

    def __init__(self, block: np.ndarray) -> None:
        cells = np.ascontiguousarray(block.transpose(1, 2, 0))
        row_sums = cells.sum(axis=1)
        # lists of views: a formula indexes them many times per block
        self.counts = [list(row) for row in cells]
        self.row_sums = list(row_sums)
        self.col_sums = list(cells.sum(axis=0))
        self.total = row_sums.sum(axis=0)
        self.class_count = block.shape[1]
        self._undefined: np.ndarray | None = None

    def run(self, formula: Callable) -> tuple[np.ndarray, np.ndarray | None]:
        """Values of ``formula`` (finite everywhere) and the mask of matrices
        where it is undefined, ``None`` when it is defined on all."""
        self._undefined = None
        return formula(self), self._undefined

    def guard(self, d: np.ndarray, reason: str) -> np.ndarray:
        """:func:`~imbindex.values.nonzero` on a vector: mask the zeros, divide by 1 there."""
        zero = d == 0
        if not zero.any():
            return d
        self._undefined = zero if self._undefined is None else self._undefined | zero
        return np.where(zero, 1, d)


@dataclass(frozen=True)
class ExtremalResult:
    index: str
    row_sums: tuple[int, ...]
    min_matrix: ConfusionMatrix
    max_matrix: ConfusionMatrix
    min_value: float
    max_value: float
    exact_min: Fraction
    exact_max: Fraction
    matrix_count: int
    undefined_count: int


class _Screen:
    """Float screen for one minimum: the candidates for exact confirmation.

    Keeps, for each distinct float value within ``SCREEN_TOL`` of the running
    minimum, the position of the first matrix in enumeration order that has it.
    """

    def __init__(self) -> None:
        self.best = math.inf
        self.first: dict[float, int] = {}

    def add(self, values: np.ndarray, positions: np.ndarray) -> None:
        if not len(values):
            return
        low = float(values.min())
        if low > self.best + SCREEN_TOL:
            return
        self.best = min(self.best, low)
        cutoff = self.best + SCREEN_TOL
        near = values <= cutoff
        # built back to front, so each value keeps its first position in the block
        in_block = dict(zip(values[near][::-1].tolist(), positions[near][::-1].tolist()))
        for value, position in in_block.items():
            self.first.setdefault(value, position)
        self.first = {v: p for v, p in self.first.items() if v <= cutoff}


def _confirm(
    index_id: str,
    row_sums: Sequence[int],
    screen: _Screen,
    pick: Callable[[Iterable[Fraction]], Fraction],
) -> tuple[ConfusionMatrix, ExactEval]:
    """Exact extremum (``pick`` is ``min`` or ``max``) over the screen's candidates."""
    candidates = []
    for position in sorted(screen.first.values()):
        m = _matrix_at(row_sums, position)
        candidates.append((m, exact(index_id, m)))
    best = pick(ev.key for _m, ev in candidates)
    return next((m, ev) for m, ev in candidates if ev.key == best)


def _scan_extremal(
    index_ids: Sequence[str], row_sums: Sequence[int], budget: int
) -> dict[str, ExtremalResult]:
    """Scan every matrix once for all indices, then confirm the extrema exactly.

    The scan walks the enumeration in fixed-size int64 blocks and runs each
    index's float formula, the one :func:`evaluate` runs, on a whole block.
    Every matrix whose float value lies within ``SCREEN_TOL`` of the running
    float minimum (or maximum) is a candidate; candidates are deduplicated by
    float value across all blocks, keeping the first in enumeration order, so
    a value shared by many matrices (``gmean_c = 0``) keeps one.  Each
    surviving candidate is re-evaluated on the exact rational path, and the
    exact extremum is the smallest (largest) exact key among them.  The
    tolerance dwarfs float rounding, so the true extremum is always a
    candidate.  The reported witness is the first matrix in enumeration order
    whose exact key equals the exact extremum; exact ties are not broken by
    float rounding.
    """
    size = enumeration_size(row_sums)
    if size > budget:
        raise BudgetExceededError(
            f"row sums {tuple(row_sums)} require {size} matrices, budget is {budget}"
        )
    if len(row_sums) < 2:
        raise TooFewClassesError(f"need at least 2 classes, got {len(row_sums)}")
    if min(row_sums) < 1:
        raise EmptyRowError(f"row sums {tuple(row_sums)} include an empty class")
    specs = [get_index(i) for i in index_ids]
    for spec in specs:
        if spec.binary_only:
            raise MatrixError(
                f"{spec.index_id} is a two-class index; enumeration covers multi-class indices"
            )
    lows = {i: _Screen() for i in index_ids}
    highs = {i: _Screen() for i in index_ids}  # screens the negated values
    undefined = dict.fromkeys(index_ids, 0)
    first = 0
    for block in _iter_blocks(row_sums):
        cells = _BlockCells(block)
        positions = np.arange(first, first + len(block))
        first += len(block)
        for spec in specs:
            values, undefined_at = cells.run(spec.formula)
            defined_at = positions
            if undefined_at is not None:
                values, defined_at = values[~undefined_at], positions[~undefined_at]
                undefined[spec.index_id] += len(block) - len(values)
            lows[spec.index_id].add(values, defined_at)
            highs[spec.index_id].add(-values, defined_at)

    out = {}
    for index_id in index_ids:
        if not lows[index_id].first:
            raise MatrixError(f"{index_id} is undefined on every matrix with rows {row_sums}")
        argmin, exact_min = _confirm(index_id, row_sums, lows[index_id], min)
        argmax, exact_max = _confirm(index_id, row_sums, highs[index_id], max)
        out[index_id] = ExtremalResult(
            index=index_id,
            row_sums=tuple(int(s) for s in row_sums),
            min_matrix=argmin,
            max_matrix=argmax,
            min_value=exact_min.value,
            max_value=exact_max.value,
            exact_min=exact_min.key,
            exact_max=exact_max.key,
            matrix_count=size,
            undefined_count=undefined[index_id],
        )
    return out


def enumerate_extremal(
    index_id: str,
    row_sums: Sequence[int],
    budget: int = DEFAULT_BUDGET,
) -> ExtremalResult:
    """Exact extrema of an index over all matrices with the given row sums."""
    return _scan_extremal([index_id], row_sums, budget)[index_id]


# ---------------------------------------------------------------------------
# condition 2


@dataclass(frozen=True)
class BoundRow:
    class_count: int
    row_sums: tuple[int, ...]
    enumerated_min: float
    enumerated_max: float
    theoretical_min: float
    theoretical_max: float
    matrix_count: int
    undefined_count: int


@dataclass(frozen=True)
class Condition2Result:
    verdict: str
    table: tuple[BoundRow, ...]

    @classmethod
    def not_applicable(cls) -> "Condition2Result":
        return cls(VERDICT_NOT_APPLICABLE, ())


def audit_condition2_many(
    index_ids: Sequence[str],
    c_range: Sequence[int] = DEFAULT_C_RANGE,
    rows_by_c: dict[int, Sequence[int]] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> dict[str, Condition2Result]:
    """Bound audit for several indices sharing one enumeration pass per class count.

    Raises :class:`BoundCrossedError` when an exact enumerated extremum lies
    outside the closed-form bounds: the evidence then refutes the closed form.
    """
    c_values = sorted(set(int(c) for c in c_range))
    if not c_values or c_values[0] < 2:
        raise MatrixError("class-count range must contain values >= 2")
    for index_id in index_ids:
        if get_index(index_id).binary_only:
            raise MatrixError(
                f"{index_id} is a two-class index; condition 2 needs a class-count range"
            )
    rows_for = {
        c: tuple(rows_by_c[c]) if rows_by_c and c in rows_by_c else default_row_sums(c)
        for c in c_values
    }

    tables: dict[str, list[BoundRow]] = {i: [] for i in index_ids}
    theory: dict[str, list[tuple[Fraction, Fraction]]] = {i: [] for i in index_ids}
    for c in c_values:
        row_sums = rows_for[c]
        if len(row_sums) != c:
            raise MatrixError(f"row sums {row_sums} do not match class count {c}")
        extrema = _scan_extremal(index_ids, row_sums, budget)
        for index_id in index_ids:
            found = extrema[index_id]
            lo, hi = bounds_exact(index_id, c, profile=row_sums)
            # keys order like values; gmean_c's product key equals its value at its bounds 0 and 1
            if found.exact_min < lo or found.exact_max > hi:
                raise BoundCrossedError(
                    f"{index_id} at C={c}, row sums {row_sums}: enumerated "
                    f"[{found.exact_min}, {found.exact_max}] crosses the closed form [{lo}, {hi}]"
                )
            theory[index_id].append((lo, hi))
            tables[index_id].append(
                BoundRow(
                    class_count=c,
                    row_sums=row_sums,
                    enumerated_min=found.min_value,
                    enumerated_max=found.max_value,
                    theoretical_min=float(lo),
                    theoretical_max=float(hi),
                    matrix_count=found.matrix_count,
                    undefined_count=found.undefined_count,
                )
            )

    out = {}
    for index_id in index_ids:
        pairs = theory[index_id]
        stable = all(p == pairs[0] for p in pairs)
        verdict = VERDICT_STABLE if stable else VERDICT_C_DEPENDENT
        out[index_id] = Condition2Result(verdict, tuple(tables[index_id]))
    return out


# ---------------------------------------------------------------------------
# condition 3


@dataclass(frozen=True)
class CollapseFamily:
    """Matrices where one class's accuracy is ``eps`` and all others ``1 - eps``.

    Off-diagonal mass in each row is split evenly over the other classes, with
    the integer remainder assigned to the lowest-indexed other class.
    """

    class_count: int
    collapsed_class: int
    epsilons: tuple[Fraction, ...]
    matrices: tuple[ConfusionMatrix, ...]


def build_collapse_family(
    class_count: int,
    collapsed_class: int,
    epsilons: Sequence,
    row_sums: Sequence[int],
) -> CollapseFamily:
    """Construct the collapse family for a decreasing epsilon schedule.

    Every ``eps * row_sum`` and ``(1 - eps) * row_sum`` must be an integer;
    choose row sums as multiples of the epsilon denominators.  The schedule
    must strictly decrease and start at or below ``1 / class_count``.
    """
    if class_count < 2:
        raise MatrixError("class_count must be at least 2")
    if not 0 <= collapsed_class < class_count:
        raise MatrixError(f"collapsed_class {collapsed_class} out of range")
    eps = tuple(to_fraction(e) for e in epsilons)
    if not eps:
        raise MatrixError("epsilon schedule is empty")
    if any(e <= 0 for e in eps):
        raise MatrixError("epsilons must be positive")
    if eps[0] > Fraction(1, class_count):
        raise MatrixError(
            f"first epsilon {eps[0]} exceeds 1/{class_count}, the collapse entry point"
        )
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise MatrixError("epsilon schedule must strictly decrease")
    sums = tuple(int(s) for s in row_sums)
    if len(sums) != class_count or any(s <= 0 for s in sums):
        raise MatrixError(f"row sums {sums} invalid for {class_count} classes")

    matrices = tuple(
        even_error_matrix(
            [e if r == collapsed_class else 1 - e for r in range(class_count)], sums
        )
        for e in eps
    )
    return CollapseFamily(class_count, collapsed_class, eps, matrices)


@dataclass(frozen=True)
class Condition3Result:
    verdict: str
    class_count: int
    collapsed_class: int
    epsilons: tuple[Fraction, ...]
    values: tuple[float, ...]
    empirical_limit: float | None
    theoretical_limit: float | None
    lower_bound: float | None
    strict_floor: float | None

    @classmethod
    def not_applicable(cls) -> "Condition3Result":
        return cls(VERDICT_NOT_APPLICABLE, 0, 0, (), (), None, None, None, None)


def default_collapse_family(class_count: int, collapsed_class: int = 0) -> CollapseFamily:
    """Family with epsilons 1/C, 1/100, 1/10000; row sums C*10^4 keep all integral."""
    eps = (Fraction(1, class_count), Fraction(1, 100), Fraction(1, 10000))
    return build_collapse_family(
        class_count, collapsed_class, eps, (class_count * 10_000,) * class_count
    )


def audit_condition3(index_id: str, family: CollapseFamily) -> Condition3Result:
    """Evaluate an index along a collapse family and compare its limit to the floor.

    For the indices with a known closed-form limit the verdict follows the
    closed form (a finite epsilon cannot certify a limit of zero on its own);
    the evaluated series is recorded as the empirical evidence.  For any other
    index the verdict falls back to comparing the value at the smallest
    epsilon against the index's lower bound.
    """
    spec = get_index(index_id)
    if spec.binary_only and family.class_count != 2:
        raise MatrixError(f"{index_id} is a two-class index")
    values = tuple(evaluate(index_id, m).require() for m in family.matrices)
    empirical = values[-1]
    c = family.class_count
    profile = family.matrices[0].row_sums
    lo, _hi = bounds_exact(index_id, c, profile=profile)

    limit_fn, floor_fn = spec.collapse_limit, spec.collapse_floor
    theoretical = float(limit_fn(c)) if limit_fn else None
    floor = float(floor_fn(c)) if floor_fn else None

    if theoretical is not None:
        collapses = abs(theoretical - float(lo)) <= COLLAPSE_TOL
    elif floor is not None:
        exceeds = all(v > floor for v in values) and floor > float(lo)
        collapses = not exceeds and abs(empirical - float(lo)) <= COLLAPSE_TOL
    else:
        collapses = abs(empirical - float(lo)) <= COLLAPSE_TOL
    verdict = VERDICT_COLLAPSES if collapses else VERDICT_INFORMATIVE
    return Condition3Result(
        verdict=verdict,
        class_count=c,
        collapsed_class=family.collapsed_class,
        epsilons=family.epsilons,
        values=values,
        empirical_limit=empirical,
        theoretical_limit=theoretical,
        lower_bound=float(lo),
        strict_floor=floor,
    )


# ---------------------------------------------------------------------------
# full reports


@dataclass(frozen=True)
class AuditReport:
    index: str
    seed: int
    condition1: Condition1Result | None
    condition2: Condition2Result | None
    condition3: Condition3Result | None

    def to_dict(self) -> dict:
        """``index``, ``seed``, then each audited condition; an unaudited one is omitted."""
        out: dict = {"index": self.index, "seed": self.seed}
        for key in ("condition1", "condition2", "condition3"):
            if (result := getattr(self, key)) is not None:
                out[key] = result
        return out


def audit_all(
    index_ids: Sequence[str] | None = None,
    conditions: Iterable[int] = (1, 2, 3),
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    class_count: int | None = None,
    c_range: Sequence[int] = DEFAULT_C_RANGE,
    budget: int = DEFAULT_BUDGET,
) -> list[AuditReport]:
    """Run the requested condition audits for each index (default: every audited index).

    ``class_count`` sets the class count of condition 1 for the multi-class
    indices; two-class indices always run it at C = 2.  Condition 2 runs one
    shared enumeration pass for all multi-class indices; two-class indices get
    a NotApplicable row.  Condition 3 runs the default collapse family for the
    indices whose spec gives a collapse limit or floor.
    """
    conditions = set(conditions)
    if not conditions <= {1, 2, 3}:
        raise ValueError(f"conditions must be among 1, 2, 3; got {sorted(conditions)}")
    collapse_c = 3 if class_count is None else class_count
    if collapse_c < 2:
        raise MatrixError("class_count must be at least 2")
    ids = tuple(index_ids) if index_ids is not None else tuple(EXPECTED_VERDICTS)
    specs = [get_index(i) for i in ids]

    shared = {}
    multi = [s.index_id for s in specs if not s.binary_only]
    if 2 in conditions and multi:
        shared = audit_condition2_many(multi, c_range=c_range, budget=budget)

    reports = []
    for spec in specs:
        index_id = spec.index_id
        cond1 = cond2 = cond3 = None
        if 1 in conditions:
            cond1 = audit_condition1(
                index_id, trials=trials, seed=seed,
                class_count=None if spec.binary_only else class_count,
            )
        if 2 in conditions:
            if spec.binary_only:
                cond2 = Condition2Result.not_applicable()
            else:
                cond2 = shared[index_id]
        if 3 in conditions:
            if spec.collapse_limit is None and spec.collapse_floor is None:
                cond3 = Condition3Result.not_applicable()
            else:
                cond3 = audit_condition3(index_id, default_collapse_family(collapse_c))
        reports.append(AuditReport(index_id, seed, cond1, cond2, cond3))
    return reports


def conformance_mismatches(reports: Sequence[AuditReport]) -> list[str]:
    """Compare audited verdicts with the expected table; empty list means conformance.

    Only conditions that were actually audited are compared, and only for
    indices that have an expected row.
    """
    problems = []
    for report in reports:
        expected = EXPECTED_VERDICTS.get(report.index)
        if expected is None:
            continue
        actual = (report.condition1, report.condition2, report.condition3)
        for cond_num, (exp, act) in enumerate(zip(expected, actual), start=1):
            if act is None:
                continue
            if act.verdict != exp:
                problems.append(
                    f"{report.index}: condition {cond_num} expected {exp}, got {act.verdict}"
                )
    return problems


def reports_to_json(reports: Sequence[AuditReport]) -> str:
    return to_json([r.to_dict() for r in reports])
