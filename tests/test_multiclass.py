"""Multi-class indices: frozen oracle values, bounds, and structural identities.

Expected decimals were frozen from exact rational evaluation of the defining
formulas; the 3-class reference matrix is [[8,1,1],[1,8,1],[2,2,6]] with
column sums (11, 11, 8).
"""

import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given

from imbindex import IndexValue, evaluate, exact, validate
from imbindex.audit import _BlockCells, _iter_blocks
from imbindex.multiclass import lambda_c
from imbindex.registry import ProfileRequiredError, get_index, theoretical_bounds

from conftest import REPO_ROOT, confusion_matrices, matrices_with_scaling, two_class_matrices

TRI = validate([[8, 1, 1], [1, 8, 1], [2, 2, 6]])
TOL = 1e-12

MULTI_IDS = ("gmean_c", "acsa", "auroc_ovo", "auroc_ova", "n_auroc_ova",
             "aurpc_ova", "m_aurpc_ova")
INVARIANT_MULTI = ("gmean_c", "acsa", "auroc_ovo", "m_aurpc_ova")


class TestFrozenValues:
    def test_gmean_c(self):
        # (0.8 * 0.8 * 0.6) ** (1/3), cube root of 48/125
        assert evaluate("gmean_c", TRI).value == pytest.approx(0.7268482371328558, abs=TOL)

    def test_acsa(self):
        assert evaluate("acsa", TRI).value == pytest.approx(0.7333333333333333, abs=TOL)

    def test_auroc_ovo(self):
        assert evaluate("auroc_ovo", TRI).value == pytest.approx(0.8, abs=TOL)

    def test_auroc_ova(self):
        assert evaluate("auroc_ova", TRI).value == pytest.approx(0.8, abs=TOL)

    def test_aurpc_ova(self):
        # exact value 323/440
        assert evaluate("aurpc_ova", TRI).value == pytest.approx(0.7340909090909091, abs=TOL)
        assert exact("aurpc_ova", TRI).key == Fraction(323, 440)

    def test_m_aurpc_ova_equals_aurpc_ova_on_equal_rows(self):
        # all row sums equal, so the rate correction cancels
        assert evaluate("m_aurpc_ova", TRI).value == pytest.approx(
            evaluate("aurpc_ova", TRI).value, abs=TOL
        )


class TestGmeanAndAcsa:
    def test_perfect_diagonal(self):
        m = validate([[4, 0, 0], [0, 4, 0], [0, 0, 4]])
        for index_id in MULTI_IDS:
            assert evaluate(index_id, m).value == pytest.approx(1.0, abs=TOL)

    def test_zero_diagonal_entry_kills_gmean(self):
        assert evaluate("gmean_c", validate([[0, 5, 5], [1, 8, 1], [2, 2, 6]])).value == 0.0

    def test_all_off_diagonal_acsa_zero(self):
        assert evaluate("acsa", validate([[0, 5, 5], [5, 0, 5], [5, 5, 0]])).value == 0.0

    def test_acsa_reduces_to_auroc_for_two_classes(self):
        m = validate([[8, 2], [10, 90]])
        assert evaluate("acsa", m).value == pytest.approx(evaluate("auroc", m).value, abs=TOL)


class TestAurocOvo:
    def test_zero_diagonal_floor_three_classes(self):
        m = validate([[0, 5, 5], [5, 0, 5], [5, 5, 0]])
        assert evaluate("auroc_ovo", m).value == pytest.approx(0.25, abs=TOL)

    def test_perfect_is_one(self):
        m = validate([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
        assert evaluate("auroc_ovo", m).value == pytest.approx(1.0, abs=TOL)

    @given(confusion_matrices(max_classes=6))
    def test_affine_identity_with_acsa(self, m):
        c = m.class_count
        expected = (c * evaluate("acsa", m).value + c - 2) / (2 * (c - 1))
        assert abs(evaluate("auroc_ovo", m).value - expected) <= TOL


class TestAurocOva:
    def test_worst_case_profile_2_3_4(self):
        m = validate([[0, 0, 2], [0, 0, 3], [0, 4, 0]])
        assert evaluate("auroc_ova", m).value == pytest.approx(2 / 9, abs=TOL)

    def test_balanced_sixty_percent(self):
        m = validate([[6, 2, 2], [2, 6, 2], [2, 2, 6]])
        assert evaluate("auroc_ova", m).value == pytest.approx(0.70, abs=TOL)


class TestNAurocOva:
    def test_lambda_constant(self):
        assert lambda_c(2) == 0.0
        assert lambda_c(10) == pytest.approx(0.4, abs=TOL)

    def test_two_class_normalization_is_identity(self):
        m = validate([[8, 2], [10, 90]])
        assert evaluate("n_auroc_ova", m).value == pytest.approx(
            evaluate("auroc_ova", m).value, abs=TOL
        )

    def test_ten_class_at_base_value_point_six(self):
        # accuracy 0.28 over ten balanced classes of 900 gives base value 0.6
        from imbindex.lab import synthetic_multiclass_confusion

        m = synthetic_multiclass_confusion(10, "7/25", (900,) * 10)
        assert evaluate("auroc_ova", m).value == pytest.approx(0.6, abs=TOL)
        assert evaluate("n_auroc_ova", m).value == pytest.approx(1 / 3, abs=TOL)


class TestUndefinedReasons:
    """The full reason of every index that can be undefined, naming the first
    zero column where there are several."""

    @pytest.mark.parametrize(
        "index_id, counts, reason",
        [
            ("precision", [[0, 10], [0, 100]], "no positive predictions"),
            ("aurpc", [[0, 10], [0, 100]], "no positive predictions"),
            ("m_precision", [[0, 10], [0, 100]], "no positive predictions in rate terms"),
            ("m_aurpc", [[0, 10], [0, 100]], "no positive predictions in rate terms"),
            ("aurpc_ova", [[0, 5, 5], [0, 5, 5], [0, 5, 5]], "class 1 never predicted"),
            ("aurpc_ova", [[1, 0, 0], [2, 0, 0], [3, 0, 0]], "class 2 never predicted"),
            ("aurpc_ova", [[1, 1, 0], [0, 2, 0], [3, 0, 0]], "class 3 never predicted"),
            ("m_aurpc_ova", [[0, 5, 5], [0, 5, 5], [0, 5, 5]], "rate column 1 sums to zero"),
            ("m_aurpc_ova", [[1, 0, 0], [2, 0, 0], [3, 0, 0]], "rate column 2 sums to zero"),
            ("m_aurpc_ova", [[1, 1, 0], [0, 2, 0], [3, 0, 0]], "rate column 3 sums to zero"),
        ],
    )
    def test_reason(self, index_id, counts, reason):
        assert evaluate(index_id, validate(counts)) == IndexValue(index_id, None, reason)


class TestAurpcOva:
    def test_undefined_when_class_never_predicted(self):
        iv = evaluate("aurpc_ova", validate([[0, 5, 5], [0, 5, 5], [0, 5, 5]]))
        assert not iv.defined and "never predicted" in iv.reason

    def test_m_variant_undefined_reason(self):
        iv = evaluate("m_aurpc_ova", validate([[0, 5, 5], [0, 5, 5], [0, 5, 5]]))
        assert not iv.defined and "rate column" in iv.reason

    def test_m_variant_invariant_under_row_doubling(self):
        doubled_row3 = validate([[8, 1, 1], [1, 8, 1], [4, 4, 12]])
        assert evaluate("m_aurpc_ova", doubled_row3).value == pytest.approx(
            evaluate("m_aurpc_ova", TRI).value, abs=TOL
        )
        assert evaluate("aurpc_ova", doubled_row3).value != pytest.approx(
            evaluate("aurpc_ova", TRI).value, abs=1e-6
        )


class TestTheoreticalBounds:
    def test_ovo_three_classes(self):
        assert theoretical_bounds("auroc_ovo", 3) == (0.25, 1.0)

    def test_ovo_eleven_classes(self):
        lo, hi = theoretical_bounds("auroc_ovo", 11)
        assert lo == pytest.approx(0.45, abs=TOL) and hi == 1.0

    def test_ova_with_profile(self):
        lo, hi = theoretical_bounds("auroc_ova", 3, profile=(2, 3, 4))
        assert lo == pytest.approx(2 / 9, abs=TOL) and hi == 1.0

    def test_ova_profile_sorted_internally(self):
        assert theoretical_bounds("auroc_ova", 3, (4, 2, 3)) == theoretical_bounds(
            "auroc_ova", 3, (2, 3, 4)
        )

    def test_ova_requires_profile(self):
        with pytest.raises(ProfileRequiredError):
            theoretical_bounds("auroc_ova", 3)

    def test_unit_range_ids_stay_unit(self):
        for index_id in ("gmean_c", "acsa", "aurpc_ova", "m_aurpc_ova", "n_auroc_ova"):
            for c in (2, 5, 9):
                assert theoretical_bounds(index_id, c) == (0.0, 1.0)

    def test_binary_ids_only_at_two_classes(self):
        assert theoretical_bounds("precision", 2) == (0.0, 1.0)
        with pytest.raises(Exception):
            theoretical_bounds("precision", 3)


class TestProperties:
    @given(matrices_with_scaling(min_classes=3, max_classes=5))
    def test_invariant_indices_under_row_scaling(self, pair):
        from imbindex import apply_scaling

        m, scaling = pair
        scaled = apply_scaling(m, scaling)
        for index_id in INVARIANT_MULTI:
            before, after = evaluate(index_id, m), evaluate(index_id, scaled)
            assert before.defined == after.defined
            if before.defined:
                assert abs(before.value - after.value) <= TOL
                assert exact(index_id, m).key == exact(index_id, scaled).key

    @given(confusion_matrices())
    def test_unit_ranges(self, m):
        for index_id in ("gmean_c", "acsa", "aurpc_ova", "m_aurpc_ova"):
            iv = evaluate(index_id, m)
            if iv.defined:
                assert -TOL <= iv.value <= 1 + TOL

    @given(confusion_matrices())
    def test_values_within_theoretical_bounds(self, m):
        profile = m.row_sums
        for index_id in MULTI_IDS:
            iv = evaluate(index_id, m)
            if iv.defined:
                lo, hi = theoretical_bounds(index_id, m.class_count, profile)
                assert lo - TOL <= iv.value <= hi + TOL

    @given(two_class_matrices())
    def test_two_class_reductions(self, m):
        assert evaluate("acsa", m).value == pytest.approx(evaluate("auroc", m).value, abs=TOL)
        assert evaluate("gmean_c", m).value == pytest.approx(evaluate("gmean2", m).value, abs=TOL)
        # one-vs-all recall/precision mean equals the average of the direct
        # two-class value and its class-swapped mirror
        (tp, fn), (fp, tn) = m.counts
        mirror = validate([[tn, fp], [fn, tp]])
        direct, mirrored = evaluate("aurpc", m), evaluate("aurpc", mirror)
        ova = evaluate("aurpc_ova", m)
        if direct.defined and mirrored.defined:
            assert ova.value == pytest.approx(
                (direct.value + mirrored.value) / 2, abs=TOL
            )
        else:
            assert not ova.defined

    @given(confusion_matrices())
    def test_float_agrees_with_exact(self, m):
        for index_id in MULTI_IDS:
            iv = evaluate(index_id, m)
            ev = exact(index_id, m)
            assert iv.defined == (ev is not None)
            if iv.defined:
                assert iv.value == pytest.approx(ev.value, abs=TOL)


class TestBlockParity:
    """The enumeration runs each formula over a block of matrices at once; the
    values must be the ones :func:`evaluate` gives matrix by matrix."""

    @pytest.mark.parametrize(
        "row_sums", [(3, 3, 3), (2, 2, 2, 2), (1, 2, 3, 4), (1,) * 5], ids=str
    )
    def test_block_values_equal_evaluate(self, row_sums):
        checked = 0
        for block in _iter_blocks(row_sums):
            cells = _BlockCells(block)
            matrices = [validate(counts) for counts in block.tolist()]
            # guarded indices first: a mask leaking into the next index would show
            for index_id in reversed(MULTI_IDS):
                values, undefined_at = cells.run(get_index(index_id).formula)
                assert values.shape == (len(block),) and np.isfinite(values).all()
                for k, m in enumerate(matrices):
                    iv = evaluate(index_id, m)
                    assert iv.defined == (undefined_at is None or not undefined_at[k])
                    if not iv.defined:
                        continue
                    if index_id == "gmean_c":
                        # numpy's ** may round the C-th root one ulp away from Python's
                        assert abs(values[k] - iv.value) <= np.spacing(iv.value)
                    else:
                        assert values[k] == iv.value
                    checked += 1
        assert checked > 0


def test_import_loads_no_numpy():
    # evaluating one matrix needs no numpy; only the enumeration and the lab load it
    code = (
        "import sys, imbindex; "
        "imbindex.evaluate('acsa', imbindex.validate([[1, 0], [0, 1]])); "
        "print('numpy' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"

