"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py``; a one-line PASS/FAIL summary per
criterion is printed at the end of the session (see conftest).
"""

import json
import time
from fractions import Fraction

import pytest

from imbindex import bounds_exact, evaluate, exact
from imbindex.audit import (
    TrialStream,
    audit_condition3,
    enumerate_extremal,
    sample_matrix,
)
from imbindex.cli import EXIT_OK, main
from imbindex.lab import load_spec, run_experiment

from conftest import SPEC_DIR

pytestmark = pytest.mark.acceptance


@pytest.mark.acceptance(label="1. full audit matches the expected verdict table "
                              "(500 trials per index, under one minute)")
def test_verdict_conformance_under_check_paper(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    start = time.perf_counter()
    code = main(["audit", "--all", "--check-paper", "--trials", "500",
                 "--output", str(report_path)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == EXIT_OK
    assert elapsed < 60.0, f"audit took {elapsed:.1f}s"
    payload = json.loads(report_path.read_text())
    rows = {entry["index"]: entry for entry in payload}
    assert len(rows) == 13
    expect_c1 = {
        "gmean2": "Invariant", "auroc": "Invariant", "precision": "Violated",
        "aurpc": "Violated", "m_precision": "Invariant", "m_aurpc": "Invariant",
        "gmean_c": "Invariant", "acsa": "Invariant", "auroc_ovo": "Invariant",
        "auroc_ova": "Violated", "n_auroc_ova": "Violated",
        "aurpc_ova": "Violated", "m_aurpc_ova": "Invariant",
    }
    for index_id, verdict in expect_c1.items():
        assert rows[index_id]["condition1"]["verdict"] == verdict, index_id
        assert rows[index_id]["condition1"]["trials"] == 500


@pytest.mark.acceptance(label="2. one-vs-one affine identity holds to 1e-12 on "
                              "10,000 random matrices with 2..10 classes")
def test_ovo_affine_identity_randomized():
    worst = 0.0
    for i in range(10_000):
        rng = TrialStream([977, i])
        c = int(rng.integers(2, 11))
        m = sample_matrix(rng, c)
        lhs = evaluate("auroc_ovo", m).value
        rhs = (c * evaluate("acsa", m).value + c - 2) / (2 * (c - 1))
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12, f"worst deviation {worst:.3e}"


@pytest.mark.acceptance(label="3. exhaustive 900-matrix enumeration attains the "
                              "closed-form one-vs-all floor at the reference matrix")
def test_enumeration_oracle_matches_closed_form():
    start = time.perf_counter()
    result = enumerate_extremal("auroc_ova", (2, 3, 4))
    elapsed = time.perf_counter() - start
    assert result.matrix_count == 900
    assert elapsed < 1.0, f"enumeration took {elapsed:.3f}s"
    lo, _ = bounds_exact("auroc_ova", 3, profile=(2, 3, 4))
    assert abs(result.min_value - lo) <= 1e-12
    assert result.exact_min == Fraction(2, 9)
    assert result.min_matrix.to_lists() == [[0, 0, 2], [0, 0, 3], [0, 4, 0]]


@pytest.mark.acceptance(label="4. collapse-family limits: geometric mean falls to "
                              "its floor, mean accuracy and the rate-corrected "
                              "one-vs-all index stay informative (C in {3, 10})")
def test_collapse_limits():
    for c in (3, 10):
        eps = (Fraction(1, c), Fraction(1, 100), Fraction(1, 10_000))
        results = audit_condition3(["gmean_c", "acsa", "m_aurpc_ova"], c)

        gmean = results["gmean_c"]
        assert gmean.verdict == "Collapses"
        slack = 10 ** (-4 / c)
        assert 0.0 <= gmean.values[-1] <= slack

        mean_acc = results["acsa"]
        assert mean_acc.epsilons == eps
        assert mean_acc.verdict == "Informative"
        for e, value in zip(eps, mean_acc.values):
            closed = (c - 1) / c + float(e) * (2 - c) / c
            assert abs(value - closed) <= 1e-9

        corrected = results["m_aurpc_ova"]
        assert corrected.verdict == "Informative"
        floor = 3 * (c - 1) / (4 * c)
        assert all(v > floor for v in corrected.values)


@pytest.mark.acceptance(label="5. two-class reproduction: precision 0.93+-0.03 at "
                              "ratio 1 and 0.59+-0.04 at ratio 10 (20 trials)")
def test_two_class_precision_reproduction():
    start = time.perf_counter()
    spec = load_spec(SPEC_DIR / "example1_type1.json")
    assert spec.sweeps[0].trials == 20
    result = run_experiment(spec)
    elapsed = time.perf_counter() - start
    means = result.means()
    at_balanced = means[("t=4", "precision", "1")]
    at_skewed = means[("t=4", "precision", "10")]
    assert abs(at_balanced - 0.93) <= 0.03, at_balanced
    assert abs(at_skewed - 0.59) <= 0.04, at_skewed
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"


@pytest.mark.acceptance(label="6. growth reproduction: one-vs-all AUROC 0.70+-0.01 "
                              "at C=3 and 0.77+-0.01 at C=6 with mean accuracy "
                              "exactly 0.60")
def test_growth_reproduction_exact():
    from imbindex.confusion import even_error_matrix

    spec = load_spec(SPEC_DIR / "example1_type2.json")
    result = run_experiment(spec)
    mins = result.mins()
    # the deterministic construction makes the values exact rationals, so the
    # +-0.01 band is checked in exact arithmetic (C=6 sits on its boundary)
    profile = (5000, 1500, 4000, 500, 3500, 4500)
    targets = {3: Fraction(70, 100), 6: Fraction(77, 100)}
    for c, target in targets.items():
        m = even_error_matrix([Fraction(3, 5)] * c, profile[:c])
        assert abs(exact("auroc_ova", m).key - target) <= Fraction(1, 100)
        assert abs(mins[(str(c), "auroc_ova")] - float(target)) <= 0.01 + 1e-12
        assert exact("acsa", m).key == Fraction(3, 5)
        assert abs(mins[(str(c), "acsa")] - 0.6) <= 1e-12


@pytest.mark.acceptance(label="7. stability: exact-rescale runs give exactly zero "
                              "spread for mix-invariant indices and positive spread "
                              "for the others; point runs spread precision more "
                              "than its rate-corrected variant")
def test_stability_phenomenon():
    matrix_result = run_experiment(load_spec(SPEC_DIR / "rrt_stability_matrix.json"))
    stds = matrix_result.stds()
    exactly_zero = [
        ("binary_base", "gmean2"), ("binary_base", "auroc"),
        ("binary_base", "m_precision"), ("binary_base", "m_aurpc"),
        ("triclass_skew", "gmean_c"), ("triclass_skew", "acsa"),
        ("triclass_skew", "auroc_ovo"), ("triclass_skew", "m_aurpc_ova"),
    ]
    for key in exactly_zero:
        assert stds[key] == 0.0, key
    strictly_positive = [
        ("binary_base", "precision"), ("binary_base", "aurpc"),
        ("triclass_skew", "auroc_ova"), ("triclass_skew", "aurpc_ova"),
    ]
    for key in strictly_positive:
        assert stds[key] > 0.0, key

    point_result = run_experiment(load_spec(SPEC_DIR / "rrt_stability_point.json"))
    point_stds = point_result.stds()
    assert point_stds[("example1_points", "precision")] > point_stds[
        ("example1_points", "m_precision")
    ]


@pytest.mark.acceptance(label="8. class-count effect: the one-vs-one floor rises "
                              "over C in {3, 5, 10} while normalized bounds and "
                              "mean accuracy stay put")
def test_class_count_effect():
    result = run_experiment(load_spec(SPEC_DIR / "class_count_effect.json"))
    mins = result.mins()
    ovo = [mins[(str(c), "auroc_ovo")] for c in (3, 5, 10)]
    assert all(a < b for a, b in zip(ovo, ovo[1:])), ovo
    for c in (3, 5, 10):
        assert bounds_exact("n_auroc_ova", c)[0] == 0.0
        assert mins[(str(c), "acsa")] == pytest.approx(0.6, abs=1e-12)
