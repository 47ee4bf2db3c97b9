"""Condition audits: sampling, verdicts, enumeration oracle, collapse families."""

import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given

from imbindex import MatrixError, apply_scaling, evaluate, exact, validate
from imbindex import audit
from imbindex.audit import (
    BoundCrossedError,
    BudgetExceededError,
    Condition2Result,
    Condition3Result,
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
    certify_extremal,
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
from imbindex.registry import (
    INDEX_SPECS,
    MULTI_INDEX_IDS,
    applicable_index_ids,
    theoretical_bounds,
)
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

    def test_scaling_candidates_by_row_gcd(self):
        # 1/d keeps a row integral iff d divides the row's gcd; rows with
        # zeros (gcd of the rest, or 0 for an all-zero row) included
        rng = np.random.default_rng(5)
        for _ in range(2000):
            k = int(rng.integers(2, 7))
            row = [int(v) for v in rng.integers(0, 13, size=k) * rng.integers(1, 61)]
            row[int(rng.integers(k))] = 0
            per_cell = [
                b for b in audit._SCALING_CANDIDATES
                if all(v % b.denominator == 0 for v in row)
            ]
            assert audit._scaling_candidates(row) == tuple(per_cell)
        assert audit._scaling_candidates([0, 0, 0]) == audit._SCALING_CANDIDATES


class TestCondition1:
    @pytest.mark.parametrize("index_id", sorted(EXPECTED_VERDICTS))
    def test_verdicts_match_expected_table(self, index_id):
        result = audit_condition1([index_id], trials=FAST_TRIALS)[index_id]
        assert result.verdict == EXPECTED_VERDICTS[index_id][0]

    def test_witness_reevaluates_to_unequal_values(self):
        result = audit_condition1(["precision"], trials=FAST_TRIALS)["precision"]
        w = result.witness
        assert w is not None
        scaled = apply_scaling(w.matrix, w.factors)
        assert exact("precision", w.matrix).key != exact("precision", scaled).key
        assert w.exact_before != w.exact_after

    def test_witness_factors_are_fractions_written_as_strings(self):
        w = audit_condition1(["precision"], trials=FAST_TRIALS)["precision"].witness
        assert all(type(f) is Fraction for f in w.factors)
        assert json.loads(to_json(w))["factors"] == [str(f) for f in w.factors]

    def test_invariant_indices_have_zero_drift(self):
        result = audit_condition1(["gmean_c"], trials=FAST_TRIALS, class_count=4)["gmean_c"]
        assert result.verdict == VERDICT_INVARIANT
        assert result.max_float_drift <= 1e-12

    def test_deterministic_under_seed(self):
        a = audit_condition1(["aurpc_ova"], trials=40, seed=99)
        b = audit_condition1(["aurpc_ova"], trials=40, seed=99)
        assert a == b

    def test_m_aurpc_ova_invariant_at_five_classes(self):
        result = audit_condition1(["m_aurpc_ova"], trials=FAST_TRIALS, class_count=5)
        assert result["m_aurpc_ova"].verdict == VERDICT_INVARIANT

    def test_binary_index_runs_at_two_classes(self):
        results = audit_condition1(["gmean2", "acsa"], trials=5, class_count=4)
        assert [r.class_count for r in results.values()] == [2, 4]
        assert audit_condition1(["gmean2"], trials=5, class_count=3)["gmean2"].class_count == 2

    def test_class_count_below_two_rejected(self):
        with pytest.raises(MatrixError, match="class_count must be at least 2"):
            audit_condition1(["gmean2"], trials=5, class_count=1)

    def test_duplicate_ids_audited_once(self):
        results = audit_condition1(["precision", "acsa", "precision"], trials=5)
        assert list(results) == ["precision", "acsa"]
        assert results == audit_condition1(["precision", "acsa"], trials=5)

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
        # m_precision is undefined on a random matrix with an empty first
        # column; the audit resamples and reports how often (trials 112, 143)
        result = audit_condition1(["m_precision"], trials=500, seed=7)["m_precision"]
        assert result.resampled_undefined == 2

    @pytest.mark.parametrize("seed", [1729, 7, 99])
    @pytest.mark.parametrize("class_count", [None, 4])
    def test_shared_trials_match_separate_audits(self, seed, class_count, monkeypatch):
        # every index audited at one class count shares each trial's draws;
        # its result, and every matrix it is evaluated on (each trial's sample
        # and its scaled image, in order), must equal an audit of it alone
        seen = []
        for index_id in EXPECTED_VERDICTS:
            spec = INDEX_SPECS[index_id]
            def recording(m, index_id=index_id, formula=spec.formula):
                seen.append((index_id, m.counts))
                return formula(m)
            monkeypatch.setitem(INDEX_SPECS, index_id, dataclasses.replace(spec, formula=recording))
        # None audits at the default class count
        kwargs = {} if class_count is None else {"class_count": class_count}
        reports = audit_all(conditions=(1,), trials=150, seed=seed, **kwargs)
        results = {r.index: r.condition1 for r in reports}
        shared = list(seen)
        assert {s[0] for s in shared} == set(EXPECTED_VERDICTS)
        for index_id, result in results.items():
            seen.clear()
            assert {index_id: result} == audit_condition1(
                [index_id], trials=150, seed=seed, **kwargs
            )
            assert seen and seen == [s for s in shared if s[0] == index_id]
        # precision stops at trial 0 while the rest of its group runs on
        assert results["precision"].witness.trial == 0
        assert results["m_precision"].verdict == VERDICT_INVARIANT
        if seed == 7:
            # a resampled trial: the other indices' scaling replays the stream
            assert results["m_precision"].resampled_undefined == 2
            assert results["gmean2"].resampled_undefined == 0

    # sha256 of the condition-1 audit JSON of every audited index, recorded at 0ce76ba
    @pytest.mark.parametrize(
        "kwargs, digest",
        [
            ({"seed": 7}, "b66952687aa0ebae7ab9847c0e24231b4063cde9619ecdc503dd4c2dfd28c0f9"),
            ({"seed": 99}, "0e25450f99c0d48580dc8f1c8576ef300226b535b9cda5a38bd675135c7ef0bf"),
            (
                {"seed": 1729, "class_count": 4},
                "8711e9696c128b8f04644e53cad86b13b85cae5f4182e250623bd7b327afeafe",
            ),
        ],
        ids=repr,
    )
    def test_json_matches_recorded_digest(self, kwargs, digest):
        text = reports_to_json(audit_all(conditions=(1,), **kwargs))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestCondition2:
    def test_acsa_stable_with_uniform_row_sums(self):
        result = audit_condition2_many(["acsa"], c_range=(2, 3, 4))["acsa"]
        assert result.verdict == VERDICT_STABLE
        assert [row.row_sums for row in result.table] == [(3, 3), (3, 3, 3), (2, 2, 2, 2)]
        for row in result.table:
            assert (row.enumerated_min, row.enumerated_max) == (0.0, 1.0)
            assert (row.theoretical_min, row.theoretical_max) == (0.0, 1.0)
        found = enumerate_extremal("acsa", (3, 3, 3, 3))
        assert (found.min_value, found.max_value) == (0.0, 1.0)
        assert theoretical_bounds("acsa", 4, (3, 3, 3, 3)) == (0.0, 1.0)

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

    def test_certificate_not_attaining_a_closed_form_raises(self, monkeypatch):
        # aurpc_ova's cyclic derangement has key 0; a claimed floor of -1/10 is
        # never crossed, but neither is it attained, so the minimum is uncertified
        spec = dataclasses.replace(
            INDEX_SPECS["aurpc_ova"], lower_bound=lambda c, p: Fraction(-1, 10)
        )
        monkeypatch.setitem(INDEX_SPECS, "aurpc_ova", spec)
        message = r"aurpc_ova at C=2, row sums \(3, 3\): .* the extrema are uncertified$"
        with pytest.raises(BoundCrossedError, match=message):
            audit_condition2_many(["aurpc_ova"], c_range=(2, 3))

    def test_eight_classes_without_enumerating(self):
        results = audit_condition2_many(MULTI_INDEX_IDS, c_range=(8,))
        for index_id, result in results.items():
            (row,) = result.table
            assert row.row_sums == (1,) * 8
            assert row.matrix_count == 8**8 == 16_777_216
            empty_column = index_id in ("aurpc_ova", "m_aurpc_ova")
            assert row.undefined_count == (16_736_896 if empty_column else 0)
        assert 8**8 - math.factorial(8) == 16_736_896

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            enumerate_extremal("acsa", (6,) * 6, budget=1000)

    def test_binary_index_not_applicable(self):
        results = audit_condition2_many(["precision", "acsa"], c_range=(2, 3))
        assert results["precision"] == Condition2Result(VERDICT_NOT_APPLICABLE, ())
        assert results["acsa"].verdict == VERDICT_STABLE
        assert [row.class_count for row in results["acsa"].table] == [2, 3]

    def test_duplicate_ids_audited_once(self):
        results = audit_condition2_many(["acsa", "auroc_ovo", "acsa"], c_range=(2, 3))
        assert list(results) == ["acsa", "auroc_ovo"]
        assert [row.class_count for row in results["acsa"].table] == [2, 3]
        reports = audit_all(["acsa", "acsa"], conditions=(1, 2), trials=5)
        assert [r.index for r in reports] == ["acsa"]
        assert len(reports[0].condition2.table) == 3


class TestEnumeration:
    @pytest.mark.parametrize("index_id, rows", [
        ("acsa", (3,)), ("acsa", (3, 0, 3)), ("precision", (3, 3, 3)),
    ])
    def test_rows_and_id_checked_before_enumerating(self, monkeypatch, index_id, rows):
        def unreachable(row_sums):
            raise AssertionError("enumerated before validating")
        monkeypatch.setattr(audit, "iter_matrices", unreachable)
        with pytest.raises(MatrixError):
            enumerate_extremal(index_id, rows)
        with pytest.raises(MatrixError):
            certify_extremal([index_id], rows)

    def test_two_class_index_enumerated_but_not_certified(self):
        # at C = 2 a two-class index has exact extrema, but its undefined
        # matrices are not the empty-column ones a certificate counts
        result = enumerate_extremal("precision", (3, 3))
        assert (result.exact_min, result.exact_max, result.undefined_count) == (0, 1, 1)
        with pytest.raises(MatrixError, match="precision is a two-class index"):
            certify_extremal(["acsa", "precision"], (3, 3))

    def test_enumeration_size_matches_iteration(self):
        rows = (2, 3)
        assert enumeration_size(rows) == sum(1 for _ in iter_matrices(rows))

    def test_acsa_extrema_at_tiny_rows(self):
        result = enumerate_extremal("acsa", (2, 2))
        assert result.min_value == 0.0
        assert result.min_matrix.to_lists() == [[0, 2], [2, 0]]
        assert result.max_value == 1.0
        assert result.max_matrix.to_lists() == [[2, 0], [0, 2]]

    def test_witness_is_first_in_order_among_ties(self):
        # gmean_c is 0 on every matrix with a zero diagonal cell; the first in order is kept
        result = enumerate_extremal("gmean_c", (2, 2))
        assert result.min_matrix.to_lists() == [[0, 2], [0, 2]]
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


class TestBatchedScanParity:
    """The condition-2 audit takes each row from :func:`certify_extremal`; its
    certificates must equal the exact loop of :func:`enumerate_extremal`, and
    certifying all the indices at once must give each one's own result."""

    @pytest.mark.parametrize("rows", [
        (2, 2), (2, 3, 4), (3, 3, 3), (1, 1, 1, 1),
        # the default rows at C = 2, 4 and 5, then uneven profiles
        (3, 3), (2, 2, 2, 2), (1,) * 5,
        (1, 2), (3, 1, 4), (4, 1, 1), (1, 2, 3, 4), (1, 1, 1, 1, 4),
    ])
    @pytest.mark.parametrize("index_id", MULTI_INDEX_IDS)
    def test_matches_fraction_loop(self, index_id, rows):
        found = enumerate_extremal(index_id, rows)
        certified = certify_extremal([index_id], rows)[index_id]
        assert certify_extremal(MULTI_INDEX_IDS, rows)[index_id] == certified
        for field in ("exact_min", "exact_max", "min_value", "max_value",
                      "matrix_count", "undefined_count"):
            assert getattr(certified, field) == getattr(found, field), field
        # the certificate's witnesses are vertices with those exact values
        for m, key in ((certified.min_matrix, found.exact_min),
                       (certified.max_matrix, found.exact_max)):
            assert m.row_sums == rows
            assert all(row.count(0) == len(rows) - 1 for row in m.counts)
            assert exact(index_id, m).key == key

    @pytest.mark.parametrize("rows", [(3, 3), (2, 3, 4), (1,) * 6])
    def test_each_vertex_built_once_per_call(self, monkeypatch, rows):
        built = []
        real = audit._vertex

        def recording(row_sums, columns):
            built.append(tuple(columns))
            return real(row_sums, columns)

        monkeypatch.setattr(audit, "_vertex", recording)
        certify_extremal(MULTI_INDEX_IDS, rows)
        assert built and len(built) == len(set(built))

    def test_each_distinct_id_certified_once_in_order(self):
        assert tuple(certify_extremal(MULTI_INDEX_IDS, (2, 2))) == MULTI_INDEX_IDS
        results = certify_extremal(["acsa", "gmean_c", "acsa"], (2, 2))
        assert list(results) == ["acsa", "gmean_c"]


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

    def test_index_without_limit_or_floor_not_applicable(self):
        for index_id, c in (("auroc_ova", 3), ("precision", 2)):
            result = audit_condition3(index_id, default_collapse_family(c))
            assert result == Condition3Result.not_applicable()

    def test_limit_is_compared_exactly(self, monkeypatch):
        # a limit a hair above the lower bound 0 is informative, however small
        spec = dataclasses.replace(
            INDEX_SPECS["acsa"], collapse_limit=lambda c: Fraction(1, 10**12)
        )
        monkeypatch.setitem(INDEX_SPECS, "acsa", spec)
        result = audit_condition3("acsa", default_collapse_family(3))
        assert result.verdict == VERDICT_INFORMATIVE

    def test_family_value_at_or_below_the_floor_raises(self, monkeypatch):
        spec = dataclasses.replace(INDEX_SPECS["m_aurpc_ova"], collapse_floor=lambda c: Fraction(1))
        monkeypatch.setitem(INDEX_SPECS, "m_aurpc_ova", spec)
        with pytest.raises(
            BoundCrossedError,
            match=r"m_aurpc_ova at C=3, epsilon 1/3: exact value \d+/\d+ "
            r"is not above the collapse floor 1",
        ):
            audit_condition3("m_aurpc_ova", default_collapse_family(3))

    def test_floor_below_the_lower_bound_raises(self, monkeypatch):
        spec = dataclasses.replace(
            INDEX_SPECS["m_aurpc_ova"], collapse_floor=lambda c: Fraction(-1, 10)
        )
        monkeypatch.setitem(INDEX_SPECS, "m_aurpc_ova", spec)
        with pytest.raises(
            BoundCrossedError,
            match=r"m_aurpc_ova at C=3: collapse floor -1/10 lies below the lower bound 0",
        ):
            audit_condition3("m_aurpc_ova", default_collapse_family(3))


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
