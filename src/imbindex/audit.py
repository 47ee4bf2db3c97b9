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
Audited along one built-in family per class count: class 0's accuracy is
epsilon = 1/C, then 1/100 and 1/10^4 where they lie below 1/C.

Each condition's audit takes a list of index ids and returns one result per
distinct id, in first-appearance order.  :func:`audit_all` composes the three.

Determinism contract: every audit derives the randomness of trial ``t`` from
``(seed, t)`` alone, so trials are order-independent and a report is exactly
reproducible from its recorded seed.  In condition 1, trial ``t``'s draws are
the words of a PCG64 generator seeded from ``[seed, t]`` as numpy seeds it,
computed from PCG64's published algorithm without numpy, and taken as Lemire
bounded integers and Floyd samples (:class:`TrialStream`); up to C = 9,951
they are the draws numpy's ``Generator`` would make from the same seed.  They
depend only on ``(seed, t, C)`` and are shared by every index audited at
class count ``C``.  Each trial is seeded once: every class count reads its
words from the start through its own cursor, and each scaling reads them
through a cursor copied right after its matrix (:meth:`TrialStream.copy`).
When a violation exists the stored witness is the one with the lowest trial
number.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from typing import Iterable, Iterator, Sequence

from .confusion import (
    ConfusionMatrix,
    MatrixError,
    apply_scaling,
    even_error_matrix,
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
_ENUMERATION_LIMIT = 2_000_000  # the most matrices enumerate_extremal will visit
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
    """Exhaustive enumeration would visit more matrices than :func:`enumerate_extremal` allows."""


class BoundCrossedError(MatrixError):
    """Exact evidence refutes a closed form: an enumerated extremum lies outside
    the bounds, or a collapse-family value is not above the collapse floor."""


# ---------------------------------------------------------------------------
# randomized matrix and scaling generation


class TrialStream:
    """One trial's random draws, computed straight from its PCG64 words.

    ``TrialStream(seed)`` computes, without numpy, the words of the generator
    ``np.random.default_rng(seed)`` builds, ``PCG64(seed)``, from the
    published algorithms (:func:`_pcg64_seeded`, :func:`_pcg64_halves`), and
    hands out each 64-bit word as two 32-bit halves, low half first, as
    numpy's ``next_uint32`` does.  :meth:`integers` turns those halves into
    bounded integers by Lemire's method with 32-bit rejection (Lemire 2019),
    so it returns what ``Generator.integers`` returns for the same bounds and
    consumes the same halves.  The stream then rests only on PCG64's words,
    which numpy's compatibility policy (NEP 19) keeps stable; ``Generator``
    methods are not covered by that policy.  :meth:`copy` gives a second
    cursor on the same halves, so a trial is seeded once however many
    cursors read it.
    """

    __slots__ = ("_next",)

    def __init__(self, seed: int | Sequence[int]) -> None:
        self._next = _pcg64_halves(*_pcg64_seeded(seed)).__next__

    def copy(self) -> TrialStream:
        """A cursor at this stream's position; from here each advances without moving the other.

        Both read one buffer, an ``itertools.tee`` of the iterator behind ``_next``,
        so each word is computed once.
        """
        other = TrialStream.__new__(TrialStream)
        self._next, other._next = (it.__next__ for it in itertools.tee(self._next.__self__))
        return other

    def integers(self, low: int, high: int | None = None) -> int:
        """Uniform integer in ``[low, high)``, or in ``[0, low)`` when ``high`` is None.

        The range may hold 1 to 2^32 values; a range of one value makes no draw.
        """
        if high is None:
            low, high = 0, low
        n = high - low
        if not 0 < n <= 1 << 32:
            raise ValueError(f"range [{low}, {high}) must hold 1 to 2**32 values")
        if n == 1:
            return low
        m = self._next() * n
        if (m & 0xFFFFFFFF) < n:  # n bounds the threshold; compute it only here
            threshold = ((1 << 32) - n) % n
            while (m & 0xFFFFFFFF) < threshold:
                m = self._next() * n
        return low + (m >> 32)


_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


# SeedSequence mixes each pool word into every other pool word, in this order
_POOL_MIX = tuple((src, dst) for src in range(4) for dst in range(4) if src != dst)


def _pcg64_seeded(seed: int | Sequence[int]) -> tuple[int, int]:
    """The 128-bit state and increment of numpy's ``PCG64(seed)`` once seeded.

    Seeding follows numpy's ``SeedSequence`` loop by loop: each integer of
    ``seed`` becomes its 32-bit words, least significant first and at least
    one (a negative one raises ``ValueError``, as in numpy).  ``mix_entropy``
    hashes the first four words (zeros past the entropy) into a 4-word pool,
    mixes each pool word into every other, then mixes each entropy word past
    the fourth into every pool word; each hash (``hashmix``) xors its word
    with a running constant, advances the constant by ``MULT_A`` and
    multiplies by the new one.  ``generate_state(4, uint64)`` hashes the
    pool, cycled twice, the same way from ``INIT_B`` by ``MULT_B``, into
    PCG64's initial state and stream, which ``srandom`` enters (O'Neill 2014).
    """
    entropy = []
    for n in [seed] if isinstance(seed, int) else seed:
        if n < 0:
            raise ValueError(f"seed integers must be non-negative, got {n}")
        entropy.append(n & _MASK32)
        while n := n >> 32:
            entropy.append(n & _MASK32)
    # hashmix: the xor reads the constant before ``:=`` advances it
    const, mult_a, pool = 0x43B0D7E5, 0x931E8875, []  # INIT_A, MULT_A
    for value in entropy[:4] + [0] * (4 - len(entropy)):
        value = (value ^ const) * (const := const * mult_a & _MASK32) & _MASK32
        pool.append(value ^ value >> 16)
    for src, dst in _POOL_MIX:
        value = (pool[src] ^ const) * (const := const * mult_a & _MASK32) & _MASK32
        # mix, by MIX_MULT_L and MIX_MULT_R
        mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * (value ^ value >> 16)) & _MASK32
        pool[dst] = mixed ^ mixed >> 16
    for word in entropy[4:]:
        for dst in range(4):
            value = (word ^ const) * (const := const * mult_a & _MASK32) & _MASK32
            mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * (value ^ value >> 16)) & _MASK32
            pool[dst] = mixed ^ mixed >> 16
    const, h = 0x8B51F9DD, []  # INIT_B
    for value in pool * 2:
        value = (value ^ const) * (const := const * 0x58F38DED & _MASK32) & _MASK32  # MULT_B
        h.append(value ^ value >> 16)
    start = (h[0] | h[1] << 32) << 64 | h[2] | h[3] << 32
    inc = ((h[4] | h[5] << 32) << 65 | (h[6] | h[7] << 32) << 1 | 1) & _MASK128
    return ((inc + start) * _PCG64_MULTIPLIER + inc) & _MASK128, inc


def _pcg64_halves(state: int, inc: int) -> Iterator[int]:
    """The 32-bit halves of the PCG64 words that follow ``state``, low half first.

    Each word is PCG64's XSL-RR output: after a step of the 128-bit LCG, the
    xor of the state's two 64-bit halves, rotated right by the state's top
    six bits.
    """
    multiplier, mask128, mask32 = _PCG64_MULTIPLIER, _MASK128, _MASK32  # locals: read per word
    while True:
        state = (state * multiplier + inc) & mask128
        # the halves' xor fills bits 0-63 and again 64-127, so the bits from the
        # rotation on are the word rotated; the halves never read past bit 63
        word = (state ^ state >> 64 ^ state << 64) >> (state >> 122)
        yield word & mask32
        yield word >> 32 & mask32


def uniform_composition(rng: TrialStream, total: int, bins: int) -> tuple[int, ...]:
    """Uniformly random composition of ``total`` into ``bins`` non-negative parts.

    The ``bins - 1`` bars take distinct slots among ``total + bins - 1``, drawn
    by Floyd's sampling (Bentley & Floyd 1987); the ``bins - 2`` draws of the
    shuffle that closes numpy's sample are then spent.  So the bars, sorted,
    are ``sorted(Generator.choice(slots, bins - 1, replace=False))`` and the
    stream ends where numpy's does.  numpy samples this way for at most 10,000
    slots, and an audit row has at most ``49 + bins``, so the two match for
    up to 9,951 classes.
    """
    if bins == 1:
        return (total,)
    slots = total + bins - 1
    bars: set[int] = set()
    for j in range(total, slots):
        v = rng.integers(j + 1)
        bars.add(j if v in bars else v)
    for i in range(bins - 2, 0, -1):
        rng.integers(i + 1)
    edges = [-1, *sorted(bars), slots]
    return tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def sample_matrix(rng: TrialStream, class_count: int) -> ConfusionMatrix:
    """Random valid matrix: row sums uniform on [5, 50], cells by uniform composition."""
    rows = []
    for _ in range(class_count):
        total = rng.integers(5, 51)
        rows.append(uniform_composition(rng, total, class_count))
    return ConfusionMatrix(tuple(rows))


_SCALING_CANDIDATES = tuple(Fraction(1, d) for d in (5, 4, 3, 2)) + tuple(
    Fraction(k) for k in (1, 2, 3, 4, 5)
)
_INTEGER_CANDIDATES = _SCALING_CANDIDATES[4:]  # the same objects, so factors compare by identity
# ``1/d`` keeps a row integral iff ``d`` divides the row's gcd, or, as ``d`` divides 60,
# the gcd of 60 and the row: one candidate tuple per divisor of 60
_CANDIDATES_BY_GCD = {
    g: tuple(b for b in _SCALING_CANDIDATES if g % b.denominator == 0)
    for g in range(1, 61) if 60 % g == 0
}


def _scaling_candidates(row: Sequence[int]) -> tuple[Fraction, ...]:
    """The candidates that keep every cell of ``row`` an integer, in candidate order."""
    return _CANDIDATES_BY_GCD[math.gcd(60, *row)]


def sample_scaling(rng: TrialStream, m: ConfusionMatrix) -> tuple[Fraction, ...]:
    """Random integrality-preserving row scaling with at least two distinct factors."""
    factors = []
    for row in m.counts:
        valid = _scaling_candidates(row)
        factors.append(valid[rng.integers(len(valid))])
    if all(f is factors[0] for f in factors):  # each factor is one of the candidate objects
        row_idx = rng.integers(m.class_count)
        alternatives = [b for b in _INTEGER_CANDIDATES if b is not factors[row_idx]]
        factors[row_idx] = alternatives[rng.integers(len(alternatives))]
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
    rng: TrialStream,
    drawn: list[tuple[ConfusionMatrix, TrialStream]],
    spec: IndexSpec,
    class_count: int,
) -> tuple[int, tuple[int, int]]:
    """First position ``j`` of the trial's draws ``m_0, m_1, ...`` where the index
    is defined, and the index's exact key there, as the oracle's ``(num, den)`` pair.

    ``drawn`` holds the matrices already drawn from ``rng`` in this trial, each
    with a cursor copied right after it, from which its scaling is drawn; it
    grows only when every drawn matrix is undefined for the index.
    """
    for j in range(_MAX_DRAWS):
        if j == len(drawn):
            drawn.append((sample_matrix(rng, class_count), rng.copy()))
        key = spec.exact(drawn[j][0])
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
    indices run at C = 2, the others at ``class_count``.  Trial ``t`` is
    seeded once, by ``(seed, t)``, and each class count C reads it through its
    own cursor from the start, so every index audited at C shares those
    draws: each still-active index takes the first draw ``m_j`` on which it is
    defined, and each distinct ``j`` gets one scaling, read from the cursor
    copied right after ``m_j``.  So every index sees exactly the matrix and
    scaling a trial run for it alone would draw.  The exact oracle is the
    only arbiter: Violated on the first exact disagreement (lowest trial
    index), after which the index draws no more trials; Invariant when every
    trial agrees exactly.  The oracle's ``(num, den)`` pairs are compared by
    cross-multiplying; only a witness's keys are reduced, by :func:`exact`.
    The largest float drift is reported, never judged.
    """
    if class_count < 2:
        raise MatrixError("class_count must be at least 2")
    specs = {i: get_index(i) for i in index_ids}
    class_of = {i: 2 if spec.binary_only else class_count for i, spec in specs.items()}
    if trials < 1:
        raise ValueError("trials must be at least 1")

    groups = {c: [i for i in class_of if class_of[i] == c] for c in class_of.values()}
    resampled = dict.fromkeys(class_of, 0)
    drift = dict.fromkeys(class_of, 0.0)
    witnesses: dict[str, Condition1Witness] = {}
    for trial in range(trials):
        if len(witnesses) == len(class_of):
            break
        stream = TrialStream([seed, trial])
        for c, group in groups.items():
            rng = stream.copy()
            drawn: list[tuple[ConfusionMatrix, TrialStream]] = []
            picks = {i: _draw_defined(rng, drawn, specs[i], c) for i in group if i not in witnesses}
            scalings = {}
            for j in {j for j, _key in picks.values()}:
                factors = sample_scaling(drawn[j][1], drawn[j][0])
                scalings[j] = factors, apply_scaling(drawn[j][0], factors)
            for index_id, (j, (num, den)) in picks.items():
                spec = specs[index_id]
                m, (factors, scaled) = drawn[j][0], scalings[j]
                resampled[index_id] += j
                num_after, den_after = spec.exact(scaled)  # a scaling keeps every zero cell
                value_before = float(spec.formula(m))
                value_after = float(spec.formula(scaled))
                drift[index_id] = max(drift[index_id], abs(value_after - value_before))
                if num * den_after != num_after * den:
                    witnesses[index_id] = Condition1Witness(
                        trial=trial,
                        matrix=m,
                        factors=factors,
                        value_before=value_before,
                        value_after=value_after,
                        exact_before=exact(index_id, m).key,
                        exact_after=exact(index_id, scaled).key,
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


@cache
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


def enumerate_extremal(index_id: str, row_sums: Sequence[int]) -> ExtremalResult:
    """Exact extrema of an index over all matrices with the given row sums, by enumeration.

    Every matrix of :func:`iter_matrices` goes through the exact oracle; each
    witness is the first matrix in that order whose key is the extremum.
    A two-class index is accepted only at C = 2.  Raises
    :class:`BudgetExceededError` when there are more than 2,000,000 matrices.
    This is the reference :func:`certify_extremal` is tested against.
    """
    size = enumeration_size(row_sums)
    if size > _ENUMERATION_LIMIT:
        raise BudgetExceededError(
            f"row sums {tuple(row_sums)} require {size} matrices, the limit is {_ENUMERATION_LIMIT}"
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
    vertex = cache(partial(_vertex, row_sums))
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


def _collapse_family(class_count: int) -> tuple[tuple[Fraction, ...], tuple[ConfusionMatrix, ...]]:
    """The epsilons and matrices of the collapse family at ``class_count``.

    Class 0's accuracy is epsilon and every other class's is ``1 - epsilon``,
    for epsilon 1/C and then whichever of 1/100 and 1/10^4 lie below 1/C, so
    the schedule strictly decreases at every C.  Every row sums to C * 10^4,
    which keeps every count integral; each row's errors are split evenly over
    the other classes, the remainder going to the lowest-indexed one.
    """
    first = Fraction(1, class_count)
    epsilons = (first, *(e for e in (Fraction(1, 100), Fraction(1, 10_000)) if e < first))
    row_sums = (class_count * 10_000,) * class_count
    return epsilons, tuple(
        even_error_matrix([e] + [1 - e] * (class_count - 1), row_sums) for e in epsilons
    )


@dataclass(frozen=True)
class Condition3Result:
    """The verdict along the collapse family and the float values it rests on.

    ``empirical_limit`` is the float value at the family's last member, the
    one with the smallest epsilon, not the limit itself: the family is not
    split evenly at epsilon 1/10^4, so ``m_aurpc_ova`` reads 0.62696 there at
    C = 3 against the even-split limit 23/36.  ``collapsed_class`` is always 0.
    """

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


def audit_condition3(
    index_ids: Sequence[str], class_count: int = DEFAULT_CLASS_COUNT
) -> dict[str, Condition3Result]:
    """Decide, for each distinct index in first-appearance order, whether its
    limit along the collapse family at ``class_count`` stays above its floor.

    The family is built once per call.  The verdict is exact.  An index with
    a closed-form collapse limit collapses when that limit equals its lower
    bound.  An index with a strict collapse floor is informative once the
    exact oracle puts every family member above that floor; a member at or
    below it, or a floor below the lower bound, raises
    :class:`BoundCrossedError`.  An index with neither fact, every two-class
    index among them, is NotApplicable.  The float series along the family
    is recorded as the empirical evidence.
    """
    if class_count < 2:
        raise MatrixError("class_count must be at least 2")
    specs = {i: get_index(i) for i in index_ids}
    c = class_count
    epsilons, family = _collapse_family(c)
    results = {}
    for index_id, spec in specs.items():
        if spec.collapse_limit is None and spec.collapse_floor is None:
            results[index_id] = Condition3Result.not_applicable()
            continue
        lo, _hi = bounds_exact(index_id, c, profile=family[0].row_sums)
        values = tuple(evaluate(index_id, m).require() for m in family)
        limit = spec.collapse_limit(c) if spec.collapse_limit else None
        floor = spec.collapse_floor(c) if spec.collapse_floor else None
        if floor is not None:
            if floor < lo:
                raise BoundCrossedError(
                    f"{index_id} at C={c}: collapse floor {floor} lies below the lower bound {lo}"
                )
            for eps, m in zip(epsilons, family):
                found = exact(index_id, m)
                if found is None or found.key <= floor:
                    value = "undefined" if found is None else found.key
                    raise BoundCrossedError(
                        f"{index_id} at C={c}, epsilon {eps}: exact value {value} "
                        f"is not above the collapse floor {floor}"
                    )
        results[index_id] = Condition3Result(
            verdict=VERDICT_COLLAPSES if limit == lo else VERDICT_INFORMATIVE,
            class_count=c,
            collapsed_class=0,
            epsilons=epsilons,
            values=values,
            empirical_limit=values[-1],
            theoretical_limit=None if limit is None else float(limit),
            lower_bound=float(lo),
            strict_floor=None if floor is None else float(floor),
        )
    return results


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
    indices and of the collapse family condition 3 runs along.
    """
    conditions = set(conditions)
    if not conditions:
        raise ValueError("no condition to audit; choose among 1, 2, 3")
    if not conditions <= {1, 2, 3}:
        raise ValueError(f"conditions must be among 1, 2, 3; got {sorted(conditions)}")
    if class_count < 2:
        raise MatrixError("class_count must be at least 2")
    ids = tuple(dict.fromkeys(EXPECTED_VERDICTS if index_ids is None else index_ids))
    cond3 = audit_condition3(ids, class_count) if 3 in conditions else {}
    cond2 = audit_condition2_many(ids, c_range) if 2 in conditions else {}
    cond1 = audit_condition1(ids, trials, seed, class_count) if 1 in conditions else {}
    return [AuditReport(i, seed, cond1.get(i), cond2.get(i), cond3.get(i)) for i in ids]


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
