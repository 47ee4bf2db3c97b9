"""Mechanical audits of index behavior under the three robustness conditions.

Condition 1 (test-mix invariance): the index value must not change across
equivalent matrices, i.e. under positive row scalings.  Audited by sampling
random valid matrices and random integrality-preserving scalings; a violation
is declared only after the exact rational oracle confirms the two values
differ, so rounding noise can never produce a false violation.  The trial
loop calls each index's oracle and float formula directly and compares keys.

Condition 2 (class-count-stable bounds): the index's closed-form value bounds
must not depend on the number of classes.  Audited by comparing closed-form
bounds across a class-count range; a two-class index is NotApplicable.  At
each class count the exact extrema over all matrices with fixed small row
sums are certified without enumerating: the exact oracle evaluates a few
vertex matrices, whose rows each put all their mass in one column, and the
certificate raises when the extrema cross the closed form or, for an index
that is not affine at fixed row sums, do not attain it.  An exhaustive
enumeration through the exact oracle remains as the reference the
certificates are tested against.

Condition 3 (single-class collapse): when one class's accuracy is driven to
zero along a collapse family, the index limit must stay strictly above the
index's global lower bound, otherwise the index forgets every other class.

The condition-1 and condition-2 audits take a list of index ids and return
one result per distinct id, in first-appearance order; condition 3 audits one
id along a given family.  :func:`audit_all` composes the three.

Determinism contract: every audit derives the randomness of trial ``t`` from
``(seed, t)`` alone, so trials are order-independent and a report is exactly
reproducible from its recorded seed.  In condition 1, trial ``t``'s draws
depend only on ``(seed, t, C)`` and are shared by every index audited at
class count ``C``.  When a violation exists the stored witness is the one
with the lowest trial number.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .confusion import (
    ConfusionMatrix,
    MatrixError,
    apply_scaling,
    even_error_matrix,
    to_fraction,
)
from .io import to_json
from .registry import (
    DEFAULT_SEED,
    IndexSpec,
    bounds_exact,
    evaluate,
    exact,
    get_index,
)

DEFAULT_TRIALS = 500
DEFAULT_CLASS_COUNT = 3
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
    """Exact evidence refutes a closed form: an enumerated extremum lies outside
    the bounds, or a collapse-family value is not above the collapse floor."""


# ---------------------------------------------------------------------------
# randomized matrix and scaling generation


def uniform_composition(rng: np.random.Generator, total: int, bins: int) -> tuple[int, ...]:
    """Uniformly random composition of ``total`` into ``bins`` non-negative parts."""
    if bins == 1:
        return (total,)
    slots = total + bins - 1
    edges = [-1, *sorted(rng.choice(slots, size=bins - 1, replace=False).tolist()), slots]
    return tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


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
# ``1/d`` keeps a row integral iff ``d`` divides the row's gcd, or, as ``d`` divides 60,
# the gcd of 60 and the row: one candidate tuple per divisor of 60
_CANDIDATES_BY_GCD = {
    g: tuple(b for b in _SCALING_CANDIDATES if g % b.denominator == 0)
    for g in range(1, 61) if 60 % g == 0
}


def _scaling_candidates(row: Sequence[int]) -> tuple[Fraction, ...]:
    """The candidates that keep every cell of ``row`` an integer, in candidate order."""
    return _CANDIDATES_BY_GCD[math.gcd(60, *row)]


def sample_scaling(rng: np.random.Generator, m: ConfusionMatrix) -> tuple[Fraction, ...]:
    """Random integrality-preserving row scaling with at least two distinct factors."""
    factors = []
    for row in m.counts:
        valid = _scaling_candidates(row)
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


_MAX_DRAWS = 200  # draws per trial before an index counts as never defined


def _draw_defined(
    rng: np.random.Generator,
    drawn: list[ConfusionMatrix],
    spec: IndexSpec,
    class_count: int,
) -> tuple[int, Fraction]:
    """First position ``j`` of the trial's draws ``m_0, m_1, ...`` where the index
    is defined, and the index's exact key there.

    ``drawn`` holds the matrices already drawn from ``rng`` in this trial; it
    grows only when every drawn matrix is undefined for the index.
    """
    for j in range(_MAX_DRAWS):
        if j == len(drawn):
            drawn.append(sample_matrix(rng, class_count))
        key = spec.exact(drawn[j])
        if key is not None:
            return j, key
    raise RuntimeError(f"{spec.index_id} undefined on {_MAX_DRAWS} consecutive sampled matrices")


def audit_condition1(
    index_ids: Sequence[str],
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    class_count: int = DEFAULT_CLASS_COUNT,
) -> dict[str, Condition1Result]:
    """Randomized row-scaling invariance audit with exact-rational confirmation.

    Each distinct index gets one result, in first-appearance order.  Two-class
    indices run at C = 2, the others at ``class_count``.  Trial ``t`` at
    class count C draws from a stream seeded by ``(seed, t)``, and every
    index audited at C shares those draws: each still-active index
    takes the first draw ``m_j`` on which it is defined, and each distinct
    ``j`` gets one scaling, drawn from the stream state right after ``m_j``.
    So every index sees exactly the matrix and scaling a trial run for it
    alone would draw.  The exact oracle is the only arbiter: Violated on the
    first exact disagreement (lowest trial index), after which the index
    draws no more trials; Invariant when every trial agrees exactly.  The
    largest float drift is reported, never judged.
    """
    if class_count < 2:
        raise MatrixError("class_count must be at least 2")
    specs = {i: get_index(i) for i in index_ids}
    class_of = {i: 2 if spec.binary_only else class_count for i, spec in specs.items()}
    if trials < 1:
        raise ValueError("trials must be at least 1")

    resampled = dict.fromkeys(class_of, 0)
    drift = dict.fromkeys(class_of, 0.0)
    witnesses: dict[str, Condition1Witness] = {}
    for c in set(class_of.values()):
        group = [i for i in class_of if class_of[i] == c]
        for trial in range(trials):
            active = [i for i in group if i not in witnesses]
            if not active:
                break
            rng = np.random.default_rng([seed, trial])
            drawn: list[ConfusionMatrix] = []
            picks = {i: _draw_defined(rng, drawn, specs[i], c) for i in active}
            scalings = {}
            for j in {j for j, _key in picks.values()}:
                stream = rng
                if j < len(drawn) - 1:  # rare: replay the trial's stream through m_j
                    stream = np.random.default_rng([seed, trial])
                    for _ in range(j + 1):
                        sample_matrix(stream, c)
                factors = sample_scaling(stream, drawn[j])
                scalings[j] = factors, apply_scaling(drawn[j], factors)
            for index_id, (j, exact_before) in picks.items():
                spec = specs[index_id]
                m, (factors, scaled) = drawn[j], scalings[j]
                resampled[index_id] += j
                exact_after = spec.exact(scaled)
                value_before = float(spec.formula(m))
                value_after = float(spec.formula(scaled))
                drift[index_id] = max(drift[index_id], abs(value_after - value_before))
                if exact_before != exact_after:
                    witnesses[index_id] = Condition1Witness(
                        trial=trial,
                        matrix=m,
                        factors=factors,
                        value_before=value_before,
                        value_after=value_after,
                        exact_before=exact_before,
                        exact_after=exact_after,
                    )
    return {
        index_id: Condition1Result(
            verdict=VERDICT_VIOLATED if index_id in witnesses else VERDICT_INVARIANT,
            trials=trials,
            class_count=class_of[index_id],
            seed=seed,
            resampled_undefined=resampled[index_id],
            max_float_drift=drift[index_id],
            witness=witnesses.get(index_id),
        )
        for index_id in class_of
    }


# ---------------------------------------------------------------------------
# extrema over fixed row sums


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


def iter_matrices(row_sums: Sequence[int]) -> Iterator[ConfusionMatrix]:
    """All valid matrices with the given row sums, in lexicographic row order."""
    bins = len(row_sums)
    for counts in itertools.product(*(_compositions(int(s), bins) for s in row_sums)):
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


def _result(index_id, row_sums, low, high, undefined_count: int) -> ExtremalResult:
    """The result whose witnesses ``low`` and ``high`` are ``(matrix, ExactEval)`` pairs."""
    (argmin, lo), (argmax, hi) = low, high
    return ExtremalResult(
        index_id, tuple(int(s) for s in row_sums), argmin, argmax, lo.value, hi.value,
        lo.key, hi.key, enumeration_size(row_sums), undefined_count,
    )


def enumerate_extremal(
    index_id: str,
    row_sums: Sequence[int],
    budget: int = DEFAULT_BUDGET,
) -> ExtremalResult:
    """Exact extrema of an index over all matrices with the given row sums, by enumeration.

    Every matrix of :func:`iter_matrices` goes through the exact oracle; each
    witness is the first matrix in that order whose key is the extremum.
    A two-class index is accepted only at C = 2.  Raises
    :class:`BudgetExceededError` when there are more than ``budget`` matrices.
    This is the reference :func:`certify_extremal` is tested against.
    """
    size = enumeration_size(row_sums)
    if size > budget:
        raise BudgetExceededError(
            f"row sums {tuple(row_sums)} require {size} matrices, budget is {budget}"
        )
    bounds_exact(index_id, len(row_sums), profile=row_sums)  # validates the id and the rows
    low = high = None
    undefined = 0
    for m in iter_matrices(row_sums):
        ev = exact(index_id, m)
        if ev is None:
            undefined += 1
            continue
        if low is None or ev.key < low[1].key:
            low = m, ev
        if high is None or ev.key > high[1].key:
            high = m, ev
    if low is None:
        raise MatrixError(f"{index_id} is undefined on every matrix with rows {row_sums}")
    return _result(index_id, row_sums, low, high, undefined)


def _vertex(row_sums: Sequence[int], columns: Sequence[int]) -> ConfusionMatrix:
    """The matrix whose row i puts all of ``row_sums[i]`` in column ``columns[i]``."""
    c = len(row_sums)
    return ConfusionMatrix(
        tuple(tuple(r if j == col else 0 for j in range(c)) for r, col in zip(row_sums, columns))
    )


def _empty_column_count(row_sums: Sequence[int]) -> int:
    """Matrices with the given row sums that have an empty column.

    Inclusion-exclusion over the set S of empty columns: the matrices whose
    columns in S are empty number ``prod_i binom(R_i + C - |S| - 1, C - |S| - 1)``.
    """
    c = len(row_sums)
    return sum(
        (-1) ** (s + 1) * math.comb(c, s)
        * math.prod(math.comb(r + c - s - 1, c - s - 1) for r in row_sums)
        for s in range(1, c)
    )


def certify_extremal(index_ids: Sequence[str], row_sums: Sequence[int]) -> dict[str, ExtremalResult]:
    """Exact extrema of each index over all matrices with the given row sums, without enumerating.

    Both witnesses are vertices, whose row i puts all of ``R_i`` in one
    column, valued by the exact oracle; each vertex is built once per call
    and shared by every index.  An affine index's key is a sum of one linear
    term per row, so each row takes the column that makes its term least
    (most), ranked by the keys of the identity with that row moved.  Any
    other index must attain its closed-form bounds exactly, at a cyclic
    derangement and at the identity; that rests on the closed form being a
    bound, which the tests check against :func:`enumerate_extremal` at small
    class counts.  ``undefined_count`` counts the matrices with an empty
    column for an index undefined exactly there, and is 0 for any other.
    Each distinct id is certified once, in first-appearance order.

    Raises :class:`BoundCrossedError` when an extremum lies outside the
    closed-form bounds, or a non-affine index does not attain them, and
    :class:`MatrixError` for a two-class index.
    """
    c = len(row_sums)
    identity = tuple(range(c))
    vertices: dict[tuple[int, ...], ConfusionMatrix] = {}

    def vertex(columns: tuple[int, ...]) -> ConfusionMatrix:
        if columns not in vertices:
            vertices[columns] = _vertex(row_sums, columns)
        return vertices[columns]

    out = {}
    for index_id in dict.fromkeys(index_ids):
        spec = get_index(index_id)
        if spec.binary_only:  # its undefined matrices are not the empty-column ones
            raise MatrixError(f"{index_id} is a two-class index; certificates cover the others")
        lo, hi = bounds_exact(index_id, c, profile=row_sums)
        where = f"{index_id} at C={c}, row sums {tuple(row_sums)}"
        if spec.affine:
            base = exact(index_id, vertex(identity)).key
            lows, highs = [], []
            for i in range(c):
                keys = [
                    base if j == i
                    else exact(index_id, vertex(identity[:i] + (j,) + identity[i + 1 :])).key
                    for j in range(c)
                ]
                lows.append(keys.index(min(keys)))
                highs.append(keys.index(max(keys)))
            ends = [vertex(tuple(lows)), vertex(tuple(highs))]
        else:
            ends = [vertex(identity[1:] + identity[:1]), vertex(identity)]
        low, high = ((m, exact(index_id, m)) for m in ends)
        keys = [None if ev is None else ev.key for _m, ev in (low, high)]
        if not spec.affine and keys != [lo, hi]:
            raise BoundCrossedError(
                f"{where}: a cyclic derangement and the identity give {keys}, not the "
                f"closed form [{lo}, {hi}]; the extrema are uncertified"
            )
        # keys order like values; gmean_c's product key equals its value at its bounds 0 and 1
        if keys[0] < lo or keys[1] > hi:
            raise BoundCrossedError(
                f"{where}: certified [{keys[0]}, {keys[1]}] crosses the closed form [{lo}, {hi}]"
            )
        undefined = _empty_column_count(row_sums) if spec.undefined_iff_empty_column else 0
        out[index_id] = _result(index_id, row_sums, low, high, undefined)
    return out


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


def audit_condition2_many(
    index_ids: Sequence[str],
    c_range: Sequence[int] = DEFAULT_C_RANGE,
) -> dict[str, Condition2Result]:
    """Bound audit for each distinct index over the :func:`default_row_sums` of
    each class count, in first-appearance order; a two-class index is NotApplicable.

    Each class count's rows come from one :func:`certify_extremal` call, which
    raises :class:`BoundCrossedError` when the evidence refutes a closed form
    or cannot certify an extremum.  The row fields keep their names:
    ``enumerated_min`` and ``enumerated_max`` hold the certified extrema,
    which equal the ones an enumeration would find.
    """
    c_values = sorted(set(int(c) for c in c_range))
    if not c_values or c_values[0] < 2:
        raise MatrixError("class-count range must contain values >= 2")

    ids = tuple(dict.fromkeys(index_ids))
    multi = [i for i in ids if not get_index(i).binary_only]
    tables: dict[str, list[BoundRow]] = {i: [] for i in multi}
    theory: dict[str, set[tuple[Fraction, Fraction]]] = {i: set() for i in multi}
    for c in c_values:
        row_sums = default_row_sums(c)
        for index_id, found in certify_extremal(multi, row_sums).items():
            lo, hi = bounds_exact(index_id, c, profile=row_sums)
            theory[index_id].add((lo, hi))
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

    return {
        i: Condition2Result(VERDICT_NOT_APPLICABLE, ()) if i not in theory
        else Condition2Result(
            VERDICT_STABLE if len(theory[i]) == 1 else VERDICT_C_DEPENDENT, tuple(tables[i])
        )
        for i in ids
    }


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
    """Decide whether an index's limit along a collapse family stays above its floor.

    The verdict is exact.  An index with a closed-form collapse limit
    collapses when that limit equals its lower bound.  An index with a strict
    collapse floor is informative once the exact oracle puts every family
    member above that floor; a member at or below it, or a floor below the
    lower bound, raises :class:`BoundCrossedError`.  An index with neither
    fact, every two-class index among them, is NotApplicable.  The float
    series along the family is recorded as the empirical evidence.
    """
    spec = get_index(index_id)
    if spec.collapse_limit is None and spec.collapse_floor is None:
        return Condition3Result.not_applicable()
    c = family.class_count
    lo, _hi = bounds_exact(index_id, c, profile=family.matrices[0].row_sums)
    values = tuple(evaluate(index_id, m).require() for m in family.matrices)
    limit = spec.collapse_limit(c) if spec.collapse_limit else None
    floor = spec.collapse_floor(c) if spec.collapse_floor else None
    if floor is not None:
        if floor < lo:
            raise BoundCrossedError(
                f"{index_id} at C={c}: collapse floor {floor} lies below the lower bound {lo}"
            )
        for eps, m in zip(family.epsilons, family.matrices):
            found = exact(index_id, m)
            if found is None or found.key <= floor:
                value = "undefined" if found is None else found.key
                raise BoundCrossedError(
                    f"{index_id} at C={c}, epsilon {eps}: exact value {value} "
                    f"is not above the collapse floor {floor}"
                )
    return Condition3Result(
        verdict=VERDICT_COLLAPSES if limit == lo else VERDICT_INFORMATIVE,
        class_count=c,
        collapsed_class=family.collapsed_class,
        epsilons=family.epsilons,
        values=values,
        empirical_limit=values[-1],
        theoretical_limit=None if limit is None else float(limit),
        lower_bound=float(lo),
        strict_floor=None if floor is None else float(floor),
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
    class_count: int = DEFAULT_CLASS_COUNT,
    c_range: Sequence[int] = DEFAULT_C_RANGE,
) -> list[AuditReport]:
    """Run the requested condition audits for each distinct index (default: every audited index).

    ``class_count`` is the class count of condition 1 for the multi-class
    indices and of the one default collapse family condition 3 runs along.
    """
    conditions = set(conditions)
    if not conditions:
        raise ValueError("no condition to audit; choose among 1, 2, 3")
    if not conditions <= {1, 2, 3}:
        raise ValueError(f"conditions must be among 1, 2, 3; got {sorted(conditions)}")
    if class_count < 2:
        raise MatrixError("class_count must be at least 2")
    ids = tuple(dict.fromkeys(EXPECTED_VERDICTS if index_ids is None else index_ids))
    family = default_collapse_family(class_count) if 3 in conditions else None
    cond2 = audit_condition2_many(ids, c_range) if 2 in conditions else {}
    cond1 = audit_condition1(ids, trials, seed, class_count) if 1 in conditions else {}
    return [
        AuditReport(
            i, seed, cond1.get(i), cond2.get(i), audit_condition3(i, family) if family else None
        )
        for i in ids
    ]


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
