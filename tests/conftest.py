"""Shared strategies and the acceptance-criteria summary printer."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import strategies as st

from imbindex import ConfusionMatrix

REPO_ROOT = Path(__file__).resolve().parent.parent
SPEC_DIR = REPO_ROOT / "specs"


@st.composite
def confusion_matrices(draw, min_classes=2, max_classes=5, max_cell=9):
    """Random valid matrices: every row has at least one positive cell."""
    c = draw(st.integers(min_classes, max_classes))
    rows = []
    for _ in range(c):
        row = draw(
            st.lists(st.integers(0, max_cell), min_size=c, max_size=c).filter(
                lambda r: sum(r) > 0
            )
        )
        rows.append(tuple(row))
    return ConfusionMatrix(tuple(rows))


@st.composite
def two_class_matrices(draw, max_cell=30):
    rows = []
    for _ in range(2):
        row = draw(
            st.lists(st.integers(0, max_cell), min_size=2, max_size=2).filter(
                lambda r: sum(r) > 0
            )
        )
        rows.append(tuple(row))
    return ConfusionMatrix(tuple(rows))


@st.composite
def matrices_with_scaling(draw, min_classes=2, max_classes=5):
    """A matrix together with integer row-scaling factors (always integrality-safe)."""
    m = draw(confusion_matrices(min_classes, max_classes))
    factors = draw(
        st.lists(st.integers(1, 4), min_size=m.class_count, max_size=m.class_count)
    )
    return m, tuple(factors)


# --- acceptance summary -----------------------------------------------------

_acceptance_outcomes: list[tuple[str, str]] = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker is not None:
        label = marker.kwargs.get("label", item.name)
        _acceptance_outcomes.append((label, report.outcome.upper()))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for label, outcome in _acceptance_outcomes:
        word = "PASS" if outcome == "PASSED" else "FAIL"
        terminalreporter.write_line(f"[{word}] {label}")
