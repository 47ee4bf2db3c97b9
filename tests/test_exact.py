"""The exact oracle against a pure-Fraction reference of every index's defining formula.

The oracles in :mod:`imbindex.exact` work in integer numerator/denominator
arithmetic and return an unreduced ``(num, den)`` pair.  The reference below
builds a ``Fraction`` for every rate and every partial sum instead, straight
from the defining formulas, and serves the oracle as
:func:`~imbindex.audit.enumerate_extremal` serves the condition-2
certificates.
"""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from imbindex import ALL_INDEX_IDS, applicable_index_ids, exact, get_index
from imbindex.audit import EXPECTED_VERDICTS, VERDICT_INVARIANT
from imbindex.confusion import ConfusionMatrix, apply_scaling
from imbindex.exact import _sum_ratios

EXACT_SOURCE = Path(__file__).resolve().parent.parent / "src" / "imbindex" / "exact.py"


def _rates(m):
    return [[Fraction(v, n) for v in row] for row, n in zip(m.counts, m.row_sums)]


def _accuracy(m, i):
    return Fraction(m.counts[i][i], m.row_sums[i])


def ref_gmean(m):
    product = Fraction(1)
    for i in range(m.class_count):
        product *= _accuracy(m, i)
    return product


def ref_acsa(m):
    return sum(_accuracy(m, i) for i in range(m.class_count)) / m.class_count


def ref_precision(m):
    tp, fp = m.counts[0][0], m.counts[1][0]
    return None if tp + fp == 0 else Fraction(tp, tp + fp)


def ref_recall(m):
    return _accuracy(m, 0)


def ref_specificity(m):
    return _accuracy(m, 1)


def ref_aurpc(m):
    prec = ref_precision(m)
    return None if prec is None else (ref_recall(m) + prec) / 2


def ref_m_precision(m):
    tpr = _accuracy(m, 0)
    fpr = Fraction(m.counts[1][0], m.row_sums[1])
    return None if tpr + fpr == 0 else tpr / (tpr + fpr)


def ref_m_aurpc(m):
    mp = ref_m_precision(m)
    return None if mp is None else (ref_recall(m) + mp) / 2


def ref_auroc_ovo(m):
    c = m.class_count
    total = Fraction(0)
    for i in range(c):
        term = 1 + _accuracy(m, i)
        for j in range(c):
            if j != i:
                term -= Fraction(m.counts[j][i], (c - 1) * m.row_sums[j])
        total += term
    return total / (2 * c)


def ref_auroc_ova(m):
    c, n = m.class_count, m.total
    total = Fraction(0)
    for i in range(c):
        total += (
            1
            + _accuracy(m, i)
            - Fraction(m.col_sums[i] - m.counts[i][i], n - m.row_sums[i])
        )
    return total / (2 * c)


def ref_n_auroc_ova(m):
    c = m.class_count
    lam = Fraction(c - 2, 2 * c)
    return (ref_auroc_ova(m) - lam) / (1 - lam)


def ref_aurpc_ova(m):
    c = m.class_count
    if any(k == 0 for k in m.col_sums):
        return None
    total = Fraction(0)
    for i in range(c):
        total += Fraction(m.counts[i][i], m.col_sums[i]) + _accuracy(m, i)
    return total / (2 * c)


def ref_m_aurpc_ova(m):
    c = m.class_count
    rates = _rates(m)
    col_rate_sums = [sum(rates[i][j] for i in range(c)) for j in range(c)]
    if any(s == 0 for s in col_rate_sums):
        return None
    total = Fraction(0)
    for i in range(c):
        total += rates[i][i] / col_rate_sums[i] + rates[i][i]
    return total / (2 * c)


REFERENCE = {
    "gmean2": ref_gmean,
    "auroc": ref_acsa,
    "precision": ref_precision,
    "recall": ref_recall,
    "specificity": ref_specificity,
    "aurpc": ref_aurpc,
    "m_precision": ref_m_precision,
    "m_aurpc": ref_m_aurpc,
    "gmean_c": ref_gmean,
    "acsa": ref_acsa,
    "auroc_ovo": ref_auroc_ovo,
    "auroc_ova": ref_auroc_ova,
    "n_auroc_ova": ref_n_auroc_ova,
    "aurpc_ova": ref_aurpc_ova,
    "m_aurpc_ova": ref_m_aurpc_ova,
}
GEOMETRIC_MEANS = {"gmean2", "gmean_c"}


def _key(pair):
    """An oracle's pair, checked to be two ``int``s with ``den > 0``, reduced to a ``Fraction``."""
    if pair is None:
        return None
    num, den = pair
    assert type(num) is int and type(den) is int and den > 0, pair
    return Fraction(num, den)


def ref_value(index_id, key, class_count):
    if index_id in GEOMETRIC_MEANS:
        return float(key) ** (1.0 / class_count)
    return float(key)


def _random_matrix(rng: random.Random, c: int) -> ConfusionMatrix:
    """Cells of 0 to 60 random bits, some rows sparse, sometimes an empty column."""
    rows = []
    sparse = rng.random() < 0.5
    empty_column = rng.randrange(c) if rng.random() < 0.3 else None
    for i in range(c):
        row = [
            0 if j == empty_column or (sparse and rng.random() < 0.6)
            else rng.getrandbits(rng.randint(0, 60))
            for j in range(c)
        ]
        if sum(row) == 0:
            allowed = [j for j in range(c) if j != empty_column]
            row[rng.choice(allowed)] = rng.getrandbits(rng.randint(0, 60)) or 1
        rows.append(row)
    return ConfusionMatrix(rows)


def _cases():
    rng = random.Random(20201)
    for c in range(2, 11):
        for _ in range(400 if c == 2 else 100):
            yield _random_matrix(rng, c)


def test_reference_covers_every_index():
    assert set(REFERENCE) == set(ALL_INDEX_IDS)


def test_oracle_matches_fraction_reference():
    undefined = dict.fromkeys(ALL_INDEX_IDS, 0)
    huge = 0
    for m in _cases():
        huge += max(max(row) for row in m.counts) > 2**53
        for index_id in applicable_index_ids(m.class_count):
            want = REFERENCE[index_id](m)
            got = _key(get_index(index_id).exact(m))
            ev = exact(index_id, m)
            assert got == want, (index_id, m.counts)
            if want is None:
                undefined[index_id] += 1
                assert ev is None
            else:
                assert type(ev.key) is Fraction
                assert ev.key == want
                assert ev.value == ref_value(index_id, want, m.class_count), (index_id, m.counts)
    assert huge > 100
    for index_id in ("precision", "aurpc", "m_precision", "m_aurpc", "aurpc_ova", "m_aurpc_ova"):
        assert undefined[index_id] > 0, index_id


def _row_with_sum(rng: random.Random, total: int, c: int, empty_column) -> list[int]:
    """``total`` split at random into ``c`` cells, none of it in ``empty_column``."""
    parts = c - (empty_column is not None)
    cuts = sorted(rng.randrange(total + 1) for _ in range(parts - 1))
    row = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    if empty_column is not None:
        row.insert(empty_column, 0)
    return row


def _shared_row_sum_cases():
    """Matrices whose row sums are one sum, or multiples of one another, with an
    lcm far below their product; cells up to 2^73 and sometimes an empty column."""
    rng = random.Random(20282)
    for c in range(2, 9):
        for _ in range(40):
            base = rng.getrandbits(rng.choice((4, 30, 70))) + 2
            multiples = (1,) if rng.random() < 0.5 else (1, 2, 3, 6)
            empty_column = rng.randrange(c) if rng.random() < 0.3 else None
            yield ConfusionMatrix([
                _row_with_sum(rng, base * rng.choice(multiples), c, empty_column)
                for _ in range(c)
            ])
    yield ConfusionMatrix([[2**60, 0, 2**60], [2**61, 0, 0], [0, 0, 2**61]])
    yield ConfusionMatrix([[2**60 + 1, 2**60 - 1, 0], [2**59, 2**59, 2**60], [0, 2**61 - 5, 5]])


def test_m_aurpc_ova_matches_reference_when_row_sums_share_factors():
    huge = undefined = 0
    for m in _shared_row_sum_cases():
        assert math.lcm(*m.row_sums) < math.prod(m.row_sums)
        want = ref_m_aurpc_ova(m)
        assert _key(get_index("m_aurpc_ova").exact(m)) == want, m.counts
        huge += max(max(row) for row in m.counts) > 2**53
        undefined += want is None
    assert huge > 50 and undefined > 20


def test_oracle_is_independent_of_the_float_formulas():
    tree = ast.parse(EXACT_SOURCE.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    for name in imported:
        assert "binary" not in name and "multiclass" not in name, name


@given(st.lists(st.tuples(st.integers(-(2**70), 2**70), st.integers(1, 2**70)), max_size=12))
def test_sum_ratios_is_the_fraction_sum_over_the_lcm(terms):
    nums, dens = [n for n, _d in terms], [d for _n, d in terms]
    num, den = _sum_ratios(nums, dens)
    assert Fraction(num, den) == sum(map(Fraction, nums, dens))
    assert den == math.lcm(1, *dens)


_cells = st.one_of(st.just(0), st.integers(0, 9), st.integers(0, 2**70))


@st.composite
def _scaled_matrices(draw):
    """A matrix with 2 to 10 classes and cells up to 2^70, and integer row factors."""
    c = draw(st.integers(2, 10))
    row = st.lists(_cells, min_size=c, max_size=c).filter(any)
    m = ConfusionMatrix([draw(row) for _ in range(c)])
    return m, draw(st.lists(st.integers(1, 5), min_size=c, max_size=c))


@given(_scaled_matrices())
def test_oracle_pairs_compare_as_their_fractions(case):
    m, factors = case
    scaled = apply_scaling(m, factors)
    for index_id in applicable_index_ids(m.class_count):
        oracle = get_index(index_id).exact
        before, after = oracle(m), oracle(scaled)
        assert _key(before) == REFERENCE[index_id](m), (index_id, m.counts)
        assert (before is None) == (after is None)  # a row scaling keeps every zero cell
        if before is not None:
            crossed = before[0] * after[1] == after[0] * before[1]
            assert crossed == (_key(before) == _key(after)), (index_id, m.counts, factors)


# Each remedy is its base index on the row-equalised matrix E(m), whose row i is
# scaled by lcm(R) / R_i; the oracles encode this as row weights, never building E.
BASE_OF_REMEDY = {
    "m_precision": "precision",
    "m_aurpc": "aurpc",
    "m_aurpc_ova": "aurpc_ova",
    "auroc_ovo": "auroc_ova",
}
UNCHANGED_BY_EQUALISING = {
    index_id for index_id, verdicts in EXPECTED_VERDICTS.items() if verdicts[0] == VERDICT_INVARIANT
} | {"recall", "specificity"}


@st.composite
def _matrices_with_empty_columns(draw):
    """A matrix with 2 to 8 classes, cells up to 2^70, and sometimes an empty column."""
    c = draw(st.integers(2, 8))
    empty = draw(st.none() | st.integers(0, c - 1))
    row = st.lists(_cells, min_size=c, max_size=c).map(
        lambda cells: [0 if j == empty else v for j, v in enumerate(cells)]
    )
    return ConfusionMatrix([draw(row.filter(any)) for _ in range(c)])


@given(_matrices_with_empty_columns())
def test_remedies_are_their_base_index_on_equalised_rows(m):
    p = math.lcm(*m.row_sums)
    equalised = apply_scaling(m, [p // r for r in m.row_sums])
    assert set(equalised.row_sums) == {p}
    assert UNCHANGED_BY_EQUALISING >= set(BASE_OF_REMEDY)
    for index_id in applicable_index_ids(m.class_count):
        want = _key(get_index(index_id).exact(m))
        if index_id in BASE_OF_REMEDY:
            base = get_index(BASE_OF_REMEDY[index_id]).exact(equalised)
            assert _key(base) == want, (index_id, m.counts)
        if index_id in UNCHANGED_BY_EQUALISING:
            assert _key(get_index(index_id).exact(equalised)) == want, (index_id, m.counts)
