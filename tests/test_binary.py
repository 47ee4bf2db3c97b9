"""Two-class indices: frozen oracle values, undefined handling, invariances.

Expected decimals were frozen from exact rational evaluation of the defining
formulas (see imbindex.exact), independent of the float implementations.
"""

import math

import pytest
from hypothesis import given

from imbindex import DimensionMismatchError, evaluate, exact, validate

from conftest import matrices_with_scaling, two_class_matrices

BASE = validate([[8, 2], [10, 90]])
TOL = 1e-12

INVARIANT_BINARY = ("gmean2", "auroc", "recall", "specificity", "m_precision", "m_aurpc")


class TestFrozenValues:
    def test_gmean2(self):
        assert evaluate("gmean2", BASE).value == pytest.approx(0.8485281374238571, abs=TOL)

    def test_auroc(self):
        assert evaluate("auroc", BASE).value == pytest.approx(0.85, abs=TOL)

    def test_precision(self):
        assert evaluate("precision", BASE).value == pytest.approx(0.4444444444444444, abs=TOL)

    def test_recall_and_specificity(self):
        assert evaluate("recall", BASE).value == pytest.approx(0.8, abs=TOL)
        assert evaluate("specificity", BASE).value == pytest.approx(0.9, abs=TOL)

    def test_aurpc(self):
        assert evaluate("aurpc", BASE).value == pytest.approx(0.6222222222222222, abs=TOL)

    def test_m_precision(self):
        assert evaluate("m_precision", BASE).value == pytest.approx(0.8888888888888888, abs=TOL)

    def test_m_aurpc(self):
        assert evaluate("m_aurpc", BASE).value == pytest.approx(0.8444444444444444, abs=TOL)


class TestEdgeCases:
    def test_perfect_classifier(self):
        m = validate([[50, 0], [0, 100]])
        for index_id in ("gmean2", "auroc", "precision", "recall", "specificity",
                         "aurpc", "m_precision", "m_aurpc"):
            assert evaluate(index_id, m).value == pytest.approx(1.0, abs=TOL)

    def test_zero_true_positives_kills_gmean(self):
        assert evaluate("gmean2", validate([[0, 10], [0, 90]])).value == 0.0

    def test_everything_misclassified(self):
        assert evaluate("auroc", validate([[0, 10], [90, 0]])).value == 0.0

    def test_coin_flip_symmetry(self):
        assert evaluate("auroc", validate([[5, 5], [50, 50]])).value == pytest.approx(0.5, abs=TOL)

    def test_precision_undefined_without_positive_predictions(self):
        iv = evaluate("precision", validate([[0, 10], [0, 100]]))
        assert not iv.defined and "no positive predictions" in iv.reason

    def test_precision_one_without_false_positives(self):
        assert evaluate("precision", validate([[10, 0], [0, 100]])).value == 1.0

    def test_aurpc_propagates_undefined(self):
        assert not evaluate("aurpc", validate([[0, 10], [0, 100]])).defined

    def test_m_precision_undefined(self):
        iv = evaluate("m_precision", validate([[0, 10], [0, 100]]))
        assert not iv.defined

    def test_m_precision_equals_precision_on_balanced_rows(self):
        m = validate([[7, 3], [4, 6]])
        assert evaluate("m_precision", m).value == pytest.approx(
            evaluate("precision", m).value, abs=TOL
        )

    def test_requires_two_classes(self):
        m3 = validate([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(DimensionMismatchError):
            evaluate("gmean2", m3)


class TestMixInvariance:
    def test_m_aurpc_invariant_under_row_scaling(self):
        scaled = validate([[16, 4], [10, 90]])
        assert evaluate("m_aurpc", scaled).value == pytest.approx(
            evaluate("m_aurpc", BASE).value, abs=TOL
        )

    def test_precision_and_aurpc_change_under_majority_growth(self):
        # doubling the majority row moves precision from 8/18 to 8/28
        scaled = validate([[8, 2], [20, 180]])
        assert evaluate("precision", scaled).value != evaluate("precision", BASE).value
        assert evaluate("aurpc", scaled).value != evaluate("aurpc", BASE).value
        assert exact("precision", scaled).key != exact("precision", BASE).key

    @given(matrices_with_scaling(min_classes=2, max_classes=2))
    def test_rate_based_indices_invariant(self, pair):
        m, scaling = pair
        from imbindex import apply_scaling

        scaled = apply_scaling(m, scaling)
        for index_id in INVARIANT_BINARY:
            before = evaluate(index_id, m)
            after = evaluate(index_id, scaled)
            assert before.defined == after.defined
            if before.defined:
                assert abs(before.value - after.value) <= TOL
                assert exact(index_id, m).key == exact(index_id, scaled).key


class TestProperties:
    @given(two_class_matrices())
    def test_defined_values_in_unit_interval(self, m):
        for index_id in ("gmean2", "auroc", "precision", "recall", "specificity",
                         "aurpc", "m_precision", "m_aurpc"):
            iv = evaluate(index_id, m)
            if iv.defined:
                assert -TOL <= iv.value <= 1 + TOL

    @given(two_class_matrices())
    def test_aurpc_decomposition(self, m):
        p = evaluate("precision", m)
        if p.defined:
            assert evaluate("aurpc", m).value == pytest.approx(
                (evaluate("recall", m).value + p.value) / 2, abs=TOL
            )

    @given(two_class_matrices())
    def test_m_aurpc_decomposition(self, m):
        p = evaluate("m_precision", m)
        if p.defined:
            assert evaluate("m_aurpc", m).value == pytest.approx(
                (evaluate("recall", m).value + p.value) / 2, abs=TOL
            )

    @given(two_class_matrices())
    def test_gmean_never_exceeds_auroc(self, m):
        g, a = evaluate("gmean2", m).value, evaluate("auroc", m).value
        assert g <= a + TOL
        recall, specificity = evaluate("recall", m).value, evaluate("specificity", m).value
        if math.isclose(recall, specificity, abs_tol=1e-15):
            assert g == pytest.approx(a, abs=TOL)

    @given(two_class_matrices())
    def test_float_agrees_with_exact(self, m):
        for index_id in ("gmean2", "auroc", "precision", "recall", "specificity",
                         "aurpc", "m_precision", "m_aurpc"):
            iv = evaluate(index_id, m)
            ev = exact(index_id, m)
            assert iv.defined == (ev is not None)
            if iv.defined:
                assert iv.value == pytest.approx(ev.value, abs=TOL)
