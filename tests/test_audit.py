"""Condition audits: sampling, verdicts, enumeration oracle, collapse families."""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given

from imbindex import MatrixError, apply_scaling, evaluate, exact, validate
from imbindex import audit
from imbindex.audit import (
    BoundCrossedError,
    BudgetExceededError,
    EXPECTED_VERDICTS,
    VERDICT_C_DEPENDENT,
    VERDICT_COLLAPSES,
    VERDICT_INFORMATIVE,
    VERDICT_INVARIANT,
    VERDICT_NOT_APPLICABLE,
    VERDICT_STABLE,
    VERDICT_VIOLATED,
    audit_all,
    audit_condition1,
    audit_condition2_many,
    audit_condition3,
    build_collapse_family,
    conformance_mismatches,
    default_collapse_family,
    enumerate_extremal,
    enumeration_size,
    iter_matrices,
    reports_to_json,
    sample_matrix,
    sample_scaling,
    uniform_composition,
)
from imbindex.confusion import IntegralityError
from imbindex.io import to_json
from imbindex.registry import INDEX_SPECS, MULTI_INDEX_IDS, applicable_index_ids
from conftest import matrices_with_scaling

FAST_TRIALS = 100


class TestSampling:
    def test_uniform_composition_sums(self):
        rng = np.random.default_rng(0)
        for total in (1, 5, 50):
            for bins in (1, 2, 5):
                parts = uniform_composition(rng, total, bins)
                assert len(parts) == bins and sum(parts) == total
                assert all(p >= 0 for p in parts)

    def test_sample_matrix_valid(self):
        rng = np.random.default_rng(3)
        for c in (2, 3, 6):
            m = sample_matrix(rng, c)
            assert m.class_count == c
            assert all(5 <= s <= 50 for s in m.row_sums)

    def test_sample_scaling_integral_and_nonconstant(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            m = sample_matrix(rng, 3)
            factors = sample_scaling(rng, m)
            assert len(set(factors)) > 1
            apply_scaling(m, factors)  # must not raise


class TestCondition1:
    @pytest.mark.parametrize("index_id", sorted(EXPECTED_VERDICTS))
    def test_verdicts_match_expected_table(self, index_id):
        result = audit_condition1(index_id, trials=FAST_TRIALS)
        assert result.verdict == EXPECTED_VERDICTS[index_id][0]

    def test_witness_reevaluates_to_unequal_values(self):
        result = audit_condition1("precision", trials=FAST_TRIALS)
        w = result.witness
        assert w is not None
        scaled = apply_scaling(w.matrix, w.factors)
        assert exact("precision", w.matrix).key != exact("precision", scaled).key
        assert w.exact_before != w.exact_after

    def test_witness_factors_are_fractions_written_as_strings(self):
        w = audit_condition1("precision", trials=FAST_TRIALS).witness
        assert all(type(f) is Fraction for f in w.factors)
        assert json.loads(to_json(w))["factors"] == [str(f) for f in w.factors]

    def test_invariant_indices_have_zero_drift(self):
        result = audit_condition1("gmean_c", trials=FAST_TRIALS, class_count=4)
        assert result.verdict == VERDICT_INVARIANT
        assert result.max_float_drift <= 1e-12

    def test_deterministic_under_seed(self):
        a = audit_condition1("aurpc_ova", trials=40, seed=99)
        b = audit_condition1("aurpc_ova", trials=40, seed=99)
        assert a == b

    def test_m_aurpc_ova_invariant_at_five_classes(self):
        result = audit_condition1("m_aurpc_ova", trials=FAST_TRIALS, class_count=5)
        assert result.verdict == VERDICT_INVARIANT

    def test_binary_index_rejects_other_class_counts(self):
        with pytest.raises(MatrixError):
            audit_condition1("gmean2", trials=5, class_count=3)

    @given(matrices_with_scaling())
    def test_scaling_keeps_definedness(self, pair):
        # a positive row scaling keeps every guarded denominator zero or
        # nonzero, so a trial's scaled matrix is defined whenever its sample is
        m, factors = pair
        scaled = apply_scaling(m, factors)
        for index_id in applicable_index_ids(m.class_count):
            assert (exact(index_id, m) is None) == (exact(index_id, scaled) is None)
            assert evaluate(index_id, m).defined == evaluate(index_id, scaled).defined

    def test_undefined_samples_counted(self):
        # precision is sometimes undefined on random matrices with empty
        # first columns; the audit resamples and reports how often
        result = audit_condition1("precision", trials=FAST_TRIALS)
        assert result.resampled_undefined >= 0


class TestCondition2:
    def test_acsa_stable_with_uniform_row_sums(self):
        result = audit_condition2_many(
            ["acsa"], c_range=(2, 3, 4), rows_by_c={2: (3, 3), 3: (3, 3, 3), 4: (3, 3, 3, 3)}
        )["acsa"]
        assert result.verdict == VERDICT_STABLE
        for row in result.table:
            assert (row.enumerated_min, row.enumerated_max) == (0.0, 1.0)
            assert (row.theoretical_min, row.theoretical_max) == (0.0, 1.0)

    def test_auroc_ovo_floor_grows_with_class_count(self):
        result = audit_condition2_many(["auroc_ovo"], c_range=(2, 3, 4))["auroc_ovo"]
        assert result.verdict == VERDICT_C_DEPENDENT
        floors = [row.theoretical_min for row in result.table]
        assert floors == pytest.approx([0.0, 0.25, 1 / 3], abs=1e-12)
        assert floors == sorted(floors)

    def test_auroc_ova_depends_on_count_profile(self):
        result = audit_condition2_many(["auroc_ova"], c_range=(3, 4))["auroc_ova"]
        assert result.verdict == VERDICT_C_DEPENDENT

    def test_enumerated_bounds_inside_theoretical(self):
        results = audit_condition2_many(
            ["gmean_c", "acsa", "auroc_ovo", "auroc_ova", "n_auroc_ova",
             "aurpc_ova", "m_aurpc_ova"],
            c_range=(2, 3, 4),
        )
        for result in results.values():
            for row in result.table:
                assert row.theoretical_min - 1e-12 <= row.enumerated_min
                assert row.enumerated_max <= row.theoretical_max + 1e-12

    def test_enumeration_crossing_a_closed_form_raises(self, monkeypatch):
        # acsa reaches 0 at every class count; a claimed floor of 1/10 is refuted
        spec = dataclasses.replace(INDEX_SPECS["acsa"], lower_bound=lambda c, p: Fraction(1, 10))
        monkeypatch.setitem(INDEX_SPECS, "acsa", spec)
        with pytest.raises(BoundCrossedError, match=r"acsa at C=2, row sums \(3, 3\)"):
            audit_condition2_many(["acsa"], c_range=(2, 3))

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            audit_condition2_many(
                ["acsa"], c_range=(6,), rows_by_c={6: (6,) * 6}, budget=1000
            )["acsa"]

    def test_binary_index_rejected(self):
        with pytest.raises(MatrixError):
            audit_condition2_many(["precision"], c_range=(2, 3))["precision"]


class TestEnumeration:
    def test_enumeration_size_matches_iteration(self):
        rows = (2, 3)
        assert enumeration_size(rows) == sum(1 for _ in iter_matrices(rows))

    def test_acsa_extrema_at_tiny_rows(self):
        result = enumerate_extremal("acsa", (2, 2))
        assert result.min_value == 0.0
        assert result.min_matrix.to_lists() == [[0, 2], [2, 0]]
        assert result.max_value == 1.0
        assert result.max_matrix.to_lists() == [[2, 0], [0, 2]]

    def test_auroc_ova_min_matches_closed_form_and_construction(self):
        result = enumerate_extremal("auroc_ova", (2, 3, 4))
        assert result.matrix_count == 900
        assert result.exact_min == Fraction(2, 9)
        # every point from the two smaller classes mispredicted as the largest
        # class; the largest class mispredicted as the second largest
        assert result.min_matrix.to_lists() == [[0, 0, 2], [0, 0, 3], [0, 4, 0]]
        assert result.exact_max == 1

    def test_auroc_ovo_min_at_balanced_rows(self):
        result = enumerate_extremal("auroc_ovo", (5, 5, 5))
        assert result.min_value == pytest.approx(0.25, abs=1e-12)

    def test_undefined_matrices_counted(self):
        result = enumerate_extremal("aurpc_ova", (2, 2))
        assert result.undefined_count > 0
        assert result.min_value == 0.0 and result.max_value == 1.0

    def test_three_class_extrema_equal_closed_forms_exactly(self):
        from imbindex.registry import bounds_exact

        rows = (3, 3, 3)
        for index_id in ("acsa", "auroc_ovo", "auroc_ova"):
            result = enumerate_extremal(index_id, rows)
            lo, hi = bounds_exact(index_id, 3, profile=rows)
            assert result.exact_min == lo, index_id
            assert result.exact_max == hi, index_id


def _brute_force_extremal(index_id, rows):
    """Reference scan: every matrix built one at a time and evaluated exactly."""
    found, undefined = [], 0
    for m in iter_matrices(rows):
        ev = exact(index_id, m)
        if ev is None:
            undefined += 1
        else:
            found.append((ev.key, m))
    lo = min(key for key, _m in found)
    hi = max(key for key, _m in found)
    first = {key: m for key, m in reversed(found)}  # first matrix in order per key
    return lo, hi, undefined, first[lo], first[hi]


class TestBatchedScanParity:
    @pytest.mark.parametrize("rows", [(2, 2), (2, 3, 4), (3, 3, 3), (1, 1, 1, 1)])
    @pytest.mark.parametrize("index_id", MULTI_INDEX_IDS)
    def test_matches_fraction_loop(self, index_id, rows, monkeypatch):
        lo, hi, undefined, argmin, argmax = _brute_force_extremal(index_id, rows)
        # the default block size, then blocks of a few matrices so that ties span blocks
        for cells in (audit._BLOCK_CELLS, 4 * len(rows) ** 2):
            monkeypatch.setattr(audit, "_BLOCK_CELLS", cells)
            result = enumerate_extremal(index_id, rows)
            assert (result.exact_min, result.exact_max) == (lo, hi)
            assert result.undefined_count == undefined
            assert result.min_matrix == argmin
            assert result.max_matrix == argmax


class TestCollapseFamily:
    def test_reference_construction(self):
        fam = build_collapse_family(
            3, 0, (Fraction(1, 3), Fraction(1, 10), Fraction(1, 100)), (300, 300, 300)
        )
        diagonals = [m.counts[0][0] for m in fam.matrices]
        assert diagonals == [100, 30, 3]
        for m, eps in zip(fam.matrices, fam.epsilons):
            assert m.row_sums == (300, 300, 300)
            assert Fraction(m.counts[1][1], 300) == 1 - eps

    def test_two_class_family_valid(self):
        fam = build_collapse_family(2, 1, (Fraction(1, 2), Fraction(1, 10)), (10, 10))
        assert fam.matrices[0].counts[1][1] == 5

    def test_integrality_failure(self):
        with pytest.raises(IntegralityError):
            build_collapse_family(3, 0, (Fraction(1, 7),), (10, 10, 10))

    def test_schedule_must_decrease(self):
        with pytest.raises(MatrixError):
            build_collapse_family(3, 0, (Fraction(1, 10), Fraction(1, 10)), (100,) * 3)

    def test_entry_point_capped_at_one_over_c(self):
        with pytest.raises(MatrixError):
            build_collapse_family(4, 0, (Fraction(1, 2),), (4, 4, 4, 4))

    def test_remainder_goes_to_lowest_other_class(self):
        fam = build_collapse_family(3, 0, (Fraction(1, 10000),), (30000,) * 3)
        row = fam.matrices[0].counts[0]
        # 29997 off-diagonal points split as 14999 + 14998
        assert row == (3, 14999, 14998)


class TestCondition3:
    def test_gmean_collapses_to_floor(self):
        for c in (3, 10):
            result = audit_condition3("gmean_c", default_collapse_family(c))
            assert result.verdict == VERDICT_COLLAPSES
            assert result.theoretical_limit == 0.0
            values = list(result.values)
            assert values == sorted(values, reverse=True)
            assert values[-1] <= float(result.epsilons[-1]) ** (1 / c)

    def test_acsa_informative_with_exact_series(self):
        for c in (3, 10):
            result = audit_condition3("acsa", default_collapse_family(c))
            assert result.verdict == VERDICT_INFORMATIVE
            assert result.theoretical_limit == pytest.approx((c - 1) / c, abs=1e-12)
            for eps, value in zip(result.epsilons, result.values):
                expected = (c - 1) / c + float(eps) * (2 - c) / c
                assert value == pytest.approx(expected, abs=1e-9)

    def test_m_aurpc_ova_stays_above_strict_floor(self):
        for c in (3, 10):
            result = audit_condition3("m_aurpc_ova", default_collapse_family(c))
            assert result.verdict == VERDICT_INFORMATIVE
            floor = 3 * (c - 1) / (4 * c)
            assert result.strict_floor == pytest.approx(floor, abs=1e-12)
            assert all(v > floor for v in result.values)

    def test_generic_index_uses_empirical_limit(self):
        result = audit_condition3("auroc_ova", default_collapse_family(3))
        assert result.verdict == VERDICT_INFORMATIVE
        assert result.theoretical_limit is None


class TestReports:
    def test_full_audit_conforms_and_serializes(self):
        reports = audit_all(trials=FAST_TRIALS)
        assert conformance_mismatches(reports) == []
        payload = json.loads(reports_to_json(reports))
        assert len(payload) == 13
        by_index = {entry["index"]: entry for entry in payload}
        assert by_index["precision"]["condition1"]["verdict"] == VERDICT_VIOLATED
        assert by_index["precision"]["condition1"]["witness"]["matrix"]
        assert by_index["precision"]["condition2"]["verdict"] == VERDICT_NOT_APPLICABLE
        assert by_index["auroc_ovo"]["condition3"]["verdict"] == VERDICT_NOT_APPLICABLE
        assert by_index["acsa"]["condition2"]["verdict"] == VERDICT_STABLE

    def test_conformance_detects_wrong_verdict(self):
        reports = audit_all(["gmean2"], conditions=(1,), trials=20)
        broken = dataclasses.replace(
            reports[0],
            condition1=dataclasses.replace(reports[0].condition1, verdict=VERDICT_VIOLATED),
        )
        problems = conformance_mismatches([broken])
        assert len(problems) == 1 and "gmean2" in problems[0]

    def test_unaudited_conditions_not_compared(self):
        reports = audit_all(["precision"], conditions=(1,), trials=FAST_TRIALS)
        assert conformance_mismatches(reports) == []
        assert reports[0].condition2 is None and reports[0].condition3 is None

    def test_audit_all_deterministic(self):
        a = audit_all(["aurpc_ova"], trials=30, seed=5)
        b = audit_all(["aurpc_ova"], trials=30, seed=5)
        assert reports_to_json(a) == reports_to_json(b)
