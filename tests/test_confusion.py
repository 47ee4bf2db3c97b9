"""Confusion-matrix validation, row scaling, label tallies, and CSV I/O."""

import csv
import io
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbindex import (
    ConfusionMatrix,
    DimensionMismatchError,
    EmptyRowError,
    MatrixError,
    NegativeEntryError,
    NonIntegerScalingError,
    NonSquareError,
    TooFewClassesError,
    UnknownLabelError,
    apply_scaling,
    ingest_labels,
    to_fraction,
)
from imbindex import io as label_io
from imbindex.cli import main
from imbindex.io import read_label_pairs, read_matrix_csv, write_matrix_csv

from conftest import confusion_matrices, matrices_with_scaling


class TestValidate:
    def test_identity_layout(self):
        m = ConfusionMatrix([[5, 0], [0, 5]])
        assert m.row_sums == (5, 5)
        assert m.col_sums == (5, 5)
        assert m.total == 10

    def test_skewed_sums(self):
        m = ConfusionMatrix([[8, 2], [10, 90]])
        assert m.row_sums == (10, 100)
        assert m.col_sums == (18, 92)
        assert m.total == 110

    def test_empty_row_rejected(self):
        with pytest.raises(EmptyRowError, match="row 1"):
            ConfusionMatrix([[0, 0], [3, 4]])

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareError):
            ConfusionMatrix([[1, 2, 3], [4, 5, 6]])

    def test_single_class_rejected(self):
        with pytest.raises(TooFewClassesError):
            ConfusionMatrix([[7]])

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntryError, match="row 2, column 1"):
            ConfusionMatrix([[1, 2], [-3, 4]])

    def test_float_entry_rejected(self):
        with pytest.raises(NegativeEntryError):
            ConfusionMatrix([[1.5, 2], [3, 4]])

    @pytest.mark.parametrize(
        "cell",
        [4.0, True, np.float64(4.0), np.float32(4.0), np.float16(4.0),
         np.bool_(True), Fraction(4), Decimal(4)],
        ids=repr,
    )
    def test_non_integer_entry_rejected(self, cell):
        with pytest.raises(NegativeEntryError, match="row 1, column 1: .* is not an integer"):
            ConfusionMatrix([[cell, 2], [3, 4]])

    def test_numpy_ints_accepted(self):
        m = ConfusionMatrix(np.array([[3, 1], [2, 4]]))
        assert m.counts == ((3, 1), (2, 4))
        assert type(m.counts[0][0]) is int
        m = ConfusionMatrix([[np.int64(4), np.uint8(2)], [np.int32(1), 5]])
        assert m.counts == ((4, 2), (1, 5))
        assert all(type(v) is int for row in m.counts for v in row)

    @pytest.mark.parametrize(
        "cell, message",
        [
            (True, "entry True is not an integer"),
            (np.bool_(True), "entry np.True_ is not an integer"),
            (2.0, "entry 2.0 is not an integer"),
            (Fraction(2), "entry Fraction(2, 1) is not an integer"),
            (Decimal(2), "entry Decimal('2') is not an integer"),
            (-1, "entry -1 is negative"),
            (np.int64(-1), "entry -1 is negative"),
        ],
        ids=repr,
    )
    def test_bad_cell_after_plain_int_rows_names_the_first(self, cell, message):
        # rows of plain non-negative ints are accepted in one pass; the first
        # other cell in row-major order is still checked and named alone
        grid = [[1, 2, 3], [4, 5, cell], [-7, 8.5, 9]]
        with pytest.raises(NegativeEntryError, match=f"^row 2, column 3: {re.escape(message)}$"):
            ConfusionMatrix(grid)
        with pytest.raises(NegativeEntryError, match=f"^row 1, column 2: {re.escape(message)}$"):
            ConfusionMatrix([[np.int64(1), cell], [0, 1]])

    def test_every_stored_cell_is_a_plain_int(self):
        class Count(int):
            pass

        m = ConfusionMatrix([[Count(3), np.int16(1), 0], [2, 2, 2], [np.uint64(7), 0, Count(0)]])
        assert m.counts == ((3, 1, 0), (2, 2, 2), (7, 0, 0))
        assert m.row_sums == (4, 6, 7)
        assert {type(v) for row in m.counts for v in row} == {int}


class TestRowScaling:
    def test_integer_scaling(self):
        m = ConfusionMatrix([[8, 2], [10, 90]])
        scaled = apply_scaling(m, (2, 1))
        assert scaled.counts == ((16, 4), (10, 90))

    def test_rational_scaling(self):
        m = ConfusionMatrix([[8, 2], [10, 90]])
        scaled = apply_scaling(m, ("1/2", "1/5"))
        assert scaled.counts == ((4, 1), (2, 18))

    def test_non_integer_result_rejected(self):
        m = ConfusionMatrix([[8, 2], [10, 90]])
        with pytest.raises(
            NonIntegerScalingError, match=r"^row 1, column 1: 1/3 \* 8 is not an integer$"
        ):
            apply_scaling(m, (Fraction(1, 3), 1))

    def test_factor_count_mismatch(self):
        m = ConfusionMatrix([[8, 2], [10, 90]])
        with pytest.raises(DimensionMismatchError, match="^3 factors for a 2-class matrix$"):
            apply_scaling(m, (1, 2, 3))

    def test_non_positive_factor_rejected(self):
        m = ConfusionMatrix([[8, 2], [10, 90]])
        with pytest.raises(MatrixError, match="^scaling factor 0 is not positive$") as err:
            apply_scaling(m, (Fraction(0), Fraction(1)))
        assert type(err.value) is MatrixError

    def test_checks_run_in_order(self):
        m = ConfusionMatrix([[8, 2], [10, 90]])
        # the count is checked before positivity, positivity before integrality
        with pytest.raises(DimensionMismatchError):
            apply_scaling(m, (0, Fraction(1, 3), 1))
        with pytest.raises(MatrixError, match="^scaling factor 0 is not positive$"):
            apply_scaling(m, (Fraction(1, 3), 0))
        with pytest.raises(MatrixError, match="^scaling factor -1 is not positive$"):
            apply_scaling(m, (Fraction(1, 3), -1))

    def test_large_counts_stay_exact(self):
        m = ConfusionMatrix([[2**60 + 2, 4], [3, 2**61]])
        scaled = apply_scaling(m, ("1/2", 3))
        assert scaled.counts == ((2**59 + 1, 2), (9, 3 * 2**61))

    @given(matrices_with_scaling())
    def test_scaling_preserves_equivalence(self, pair):
        m, factors = pair
        scaled = apply_scaling(m, factors)
        for row, scaled_row, n, scaled_n in zip(
            m.counts, scaled.counts, m.row_sums, scaled.row_sums
        ):
            for v, scaled_v in zip(row, scaled_row):
                assert Fraction(v, n) == Fraction(scaled_v, scaled_n)


class TestIngestLabels:
    def test_direct_tally(self):
        m = ingest_labels([("A", "A"), ("A", "B"), ("B", "B")], ["A", "B"])
        assert m.counts == ((1, 1), (0, 1))

    def test_missing_true_class_rejected(self):
        with pytest.raises(EmptyRowError, match="class 'B' has no test points"):
            ingest_labels([("A", "A")], ["A", "B"])

    def test_unknown_label_rejected(self):
        with pytest.raises(UnknownLabelError):
            ingest_labels([("A", "C")], ["A", "B"])

    def test_first_appearance_order(self):
        m = ingest_labels([("B", "A"), ("A", "A")])
        # B appears first, so row 0 is class B
        assert m.counts == ((0, 1), (0, 1))

    def test_counts_from_mapping(self):
        m = ingest_labels(Counter({("B", "A"): 3, ("A", "A"): 2}))
        assert m.counts == ((0, 3), (0, 2))

    def test_duplicate_class_list_rejected(self):
        with pytest.raises(MatrixError):
            ingest_labels([("A", "A"), ("B", "B")], ["A", "A"])

    def test_pairs_realizing_target_matrix(self):
        target = ConfusionMatrix([[8, 2], [10, 90]])
        pairs = []
        labels = ["pos", "neg"]
        for i, row in enumerate(target.counts):
            for j, count in enumerate(row):
                pairs.extend([(labels[i], labels[j])] * count)
        assert len(pairs) == 110
        assert ingest_labels(pairs, labels).counts == target.counts

    @given(confusion_matrices(max_classes=4, max_cell=5))
    def test_roundtrip_from_matrix(self, m):
        labels = [f"c{i}" for i in range(m.class_count)]
        pairs = [
            (labels[i], labels[j])
            for i, row in enumerate(m.counts)
            for j, count in enumerate(row)
            for _ in range(count)
        ]
        assert ingest_labels(pairs, labels).counts == m.counts


class TestToFraction:
    def test_decimal_string(self):
        assert to_fraction("0.6") == Fraction(3, 5)

    def test_ratio_string(self):
        assert to_fraction("3/5") == Fraction(3, 5)

    def test_float_uses_decimal_repr(self):
        assert to_fraction(0.6) == Fraction(3, 5)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            to_fraction(True)


class TestMatrixCsv:
    def test_roundtrip_no_header(self, tmp_path):
        path = tmp_path / "m.csv"
        m = ConfusionMatrix([[8, 2], [10, 90]])
        write_matrix_csv(path, m)
        loaded, labels = read_matrix_csv(path)
        assert loaded == m and labels is None

    def test_roundtrip_with_header(self, tmp_path):
        path = tmp_path / "m.csv"
        m = ConfusionMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        write_matrix_csv(path, m, labels=("a", "b", "c"))
        loaded, labels = read_matrix_csv(path)
        assert loaded == m and labels == ("a", "b", "c")

    def test_label_count_checked_before_the_file_is_opened(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(MatrixError, match="1 labels for 2 classes"):
            write_matrix_csv(path, ConfusionMatrix([[5, 6], [7, 8]]), labels=("a",))
        assert path.read_text() == "1,2\n3,4\n"

    def test_bad_cell_named_in_error(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,x\n")
        with pytest.raises(MatrixError, match="row 2, column 2"):
            read_matrix_csv(path)

    def test_invalid_grid_keeps_its_error_class_and_names_the_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(NonSquareError, match=rf"^{re.escape(str(path))}: row 2 has 3 entries"):
            read_matrix_csv(path)

    def test_superscript_digit_named_in_error(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,\u00b2\n", encoding="utf-8")
        with pytest.raises(MatrixError, match="row 2, column 2"):
            read_matrix_csv(path)

    def test_label_pairs_with_header(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("true,predicted\nA,A\nA,B\nB,B\n")
        pairs = read_label_pairs(path)
        assert pairs == Counter({("A", "A"): 1, ("A", "B"): 1, ("B", "B"): 1})
        assert list(pairs) == [("A", "A"), ("A", "B"), ("B", "B")]

    def test_label_pairs_without_header(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("A,A\nB,B\n")
        pairs = read_label_pairs(path)
        assert pairs == Counter({("A", "A"): 1, ("B", "B"): 1})
        assert list(pairs) == [("A", "A"), ("B", "B")]

    def test_label_pairs_header_only(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("true,predicted\n\n")
        with pytest.raises(MatrixError, match="pairs.csv: header row but no label rows"):
            read_label_pairs(path)

    def test_matrix_after_byte_order_mark(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n")
        loaded, labels = read_matrix_csv(path)
        assert loaded == ConfusionMatrix([[1, 2], [3, 4]]) and labels is None


# References for the parity test: a reader that lists every row, and a tally
# that adds one per row.


def _reference_pairs(path, encoding="utf-8"):
    with open(path, newline="", encoding=encoding) as fh:
        raw = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    if not raw:
        raise MatrixError(f"{path}: file contains no rows")
    if [cell.strip().lower() for cell in raw[0][:2]] == ["true", "predicted"]:
        raw = raw[1:]
        if not raw:
            raise MatrixError(f"{path}: header row but no label rows")
    pairs = []
    for i, row in enumerate(raw):
        if len(row) < 2:
            raise MatrixError(f"{path}: row {i + 1} has fewer than 2 columns")
        pairs.append((row[0].strip(), row[1].strip()))
    return pairs


def _reference_ingest(pairs, class_list=None):
    if class_list is None:
        class_list = list(dict.fromkeys(label for pair in pairs for label in pair))
    index = {label: i for i, label in enumerate(class_list)}
    if len(index) != len(class_list):
        raise MatrixError("class list contains duplicate labels")
    if len(index) < 2:
        raise TooFewClassesError("need at least 2 classes to tally a confusion matrix")
    grid = [[0] * len(index) for _ in index]
    for t, p in pairs:
        if t not in index:
            raise UnknownLabelError(f"true label {t!r} is not in the class list")
        if p not in index:
            raise UnknownLabelError(f"predicted label {p!r} is not in the class list")
        grid[index[t]][index[p]] += 1
    for label in class_list:
        if not any(grid[index[label]]):
            raise EmptyRowError(
                f"class {label!r} has no test points (no row has true label {label!r})"
            )
    return ConfusionMatrix(tuple(tuple(row) for row in grid))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MatrixError as exc:
        return type(exc), str(exc)


# Raw-line edge cases of read_label_pairs: each file's pairs with their counts,
# in first-appearance order.
_LINE_CASES = {
    "header repeated later as data": (
        b"true,predicted\nA,B\ntrue,predicted\nB,B\n",
        [(("A", "B"), 1), (("true", "predicted"), 1), (("B", "B"), 1)],
    ),
    "last line without a line end": (
        b"A,B\nB,A\nA,B",
        [(("A", "B"), 2), (("B", "A"), 1)],
    ),
    "lone carriage returns": (
        b"true,predicted\rA,B\rB,A\r\rA,B\r",
        [(("A", "B"), 2), (("B", "A"), 1)],
    ),
    "LF and CRLF copies of one pair": (
        b"A,B\nA,B\r\nB,B\r\nA, B\n",
        [(("A", "B"), 3), (("B", "B"), 1)],
    ),
    "byte-order mark before a header": (
        b"\xef\xbb\xbftrue,predicted\nA,B\nB,A\n",
        [(("A", "B"), 1), (("B", "A"), 1)],
    ),
    "byte-order mark before a data row": (
        b"\xef\xbb\xbfA,B\nB,A\n",
        [(("A", "B"), 1), (("B", "A"), 1)],
    ),
    "quoted field spanning two lines": (
        b'true,predicted\nA,B\n"A\nB",B\nA,B\n',
        [(("A", "B"), 2), (("A\nB", "B"), 1)],
    ),
}


@pytest.mark.parametrize("name", list(_LINE_CASES))
def test_label_pairs_raw_lines(tmp_path, name):
    data, want = _LINE_CASES[name]
    path = tmp_path / "pairs.csv"
    path.write_bytes(data)
    assert list(read_label_pairs(path).items()) == want
    assert list(Counter(_reference_pairs(path, "utf-8-sig")).items()) == want


_LABELS = ["A", "B", "x,y", "p\nq", "true", "predicted"]
_BLANKS = ["", "   ", "\t", " , ", ","]
_HEADERS = ["true,predicted", " True , PREDICTED ", "true,predicted,extra", '"true","predicted"']


def _render(label, left, right, quote):
    text = left + label + right
    return f'"{text}"' if quote or "," in label or "\n" in label else text


@st.composite
def label_files(draw):
    """CSV text over 2-3 labels: blank rows, cells padded or quoted, extra
    columns, an optional header, a header-like data row later on, the exact
    header line again later as data, line ends \\n, \\r\\n or \\r, sometimes
    none on the last line, a byte-order mark, and sometimes one short row.
    Half the files hold no quote, so the reader counts their raw lines.  The
    draws that set the header-order trap (no quote, a header, the header
    again as data) are the False ones, which hypothesis leans to, so that the
    default 100 examples reach it."""
    quotes = draw(st.booleans())
    labels = [label for label in _LABELS if quotes or _render(label, "", "", False) == label]
    headers = st.sampled_from([header for header in _HEADERS if quotes or '"' not in header])
    classes = draw(st.lists(st.sampled_from(labels), min_size=2, max_size=3, unique=True))
    cell = st.builds(_render, st.sampled_from(classes), st.sampled_from(["", " ", "\t"]),
                     st.sampled_from(["", " "]), st.booleans() if quotes else st.just(False))
    row = st.lists(cell, min_size=2, max_size=4).map(",".join)

    def ended(text):
        return st.tuples(text, st.sampled_from(["\n", "\r\n", "\r"])).map("".join)

    lines = draw(st.lists(ended(st.sampled_from(_BLANKS)), max_size=2))
    header = [] if draw(st.booleans()) else [draw(ended(headers))]
    lines += header
    lines += draw(st.lists(ended(st.one_of(row, row, st.sampled_from(_BLANKS))), max_size=30))
    for extra in (headers, cell):
        if draw(st.booleans()):
            lines.insert(draw(st.integers(0, len(lines))), draw(ended(extra)))
    if header and not draw(st.booleans()):  # after a data row, whose pair then comes first
        lines.insert(lines.index(header[0]) + 1, draw(ended(row)) + header[0])
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return ("\ufeff" if draw(st.booleans()) else "") + "".join(lines)


def _assert_parity(text):
    """read_label_pairs and ingest_labels on ``text`` agree with the references."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.csv"
        path.write_bytes(text.encode())
        encoding = "utf-8-sig" if text.startswith("\ufeff") else "utf-8"
        want = _outcome(_reference_pairs, path, encoding)
        got = _outcome(read_label_pairs, path)
    if not isinstance(want, list):
        assert got == want
        return
    assert got == Counter(want)
    assert list(got) == list(dict.fromkeys(want))
    classes = list(dict.fromkeys(label for pair in want for label in pair))
    for class_list in (None, classes[::-1], classes[1:], classes[:1] * 2):
        expected = _outcome(_reference_ingest, want, class_list)
        assert _outcome(ingest_labels, got, class_list) == expected
        assert _outcome(ingest_labels, want, class_list) == expected


class TestLabelCountParity:
    @given(label_files())
    def test_counter_matches_list_reader(self, text):
        _assert_parity(text)

    @pytest.mark.parametrize("block", [2, 3])
    @given(text=label_files())
    def test_counter_matches_list_reader_over_ranges(self, block, text):
        # blocks of 2 or 3 bytes, so even these short files cross many of them
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(label_io, "_BLOCK", block)
            _assert_parity(text)


# 21 pairs, then one that first appears in the last block
_ROWS = b"".join(b"c%d,c%d\r\n" % (i % 7, i * i % 5) for i in range(400)) + b"c9,c9\r\n"


def _counted(monkeypatch, data):
    """The lines that label_io._count_lines counts in ``data``, and whether
    numpy counted each block read: False where it went to Counter."""
    outcomes, count_block = [], label_io._count_block

    def recording(counts, block):
        carry = count_block(counts, block)
        outcomes.append(carry is not None)
        return carry

    monkeypatch.setattr(label_io, "_count_block", recording)
    return label_io._count_lines(io.BytesIO(data)), outcomes


class TestLabelRanges:
    """Label lines counted over fixed-size blocks, in numpy or by Counter."""

    @settings(max_examples=200)
    @given(
        lines=st.lists(
            # with a \n, lines of 1 and 2 whole words, and one past the bound
            st.tuples(st.sampled_from([b"", b"A,B", b"B,A", b" , ", b"A,BBBBB", b"A," + b"B" * 13,
                                       b"A," + b"B" * 15]),
                      st.sampled_from([b"\n", b"\r\n", b"\r"])).map(b"".join),
            max_size=12,
        ),
        last=st.sampled_from([b"", b"A,B", b"A,B\r"]),
        block=st.integers(1, 9),
    )
    def test_lines_split_as_text_with_universal_newlines(self, lines, last, block):
        # every block boundary, against the lines newline="" reads
        data = b"".join(lines) + last
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
            path = Path(tmp) / "labels.csv"
            path.write_bytes(data)
            with path.open(newline="", encoding="utf-8") as fh:
                want = [line.encode() for line in fh]
            monkeypatch.setattr(label_io, "_BLOCK", block)
            with path.open("rb") as fh:
                counted = label_io._count_lines(fh)
        assert list(counted.items()) == list(Counter(want).items())

    def test_block_boundary_between_cr_and_lf(self, tmp_path):
        head = b"true,predicted\r\n"
        data = head + b"A,B" + b" " * (label_io._BLOCK - len(head) - 4) + b"\r\n" + _ROWS
        assert data[label_io._BLOCK - 1:label_io._BLOCK + 1] == b"\r\n"
        path = tmp_path / "labels.csv"
        path.write_bytes(data)
        with path.open("rb") as fh:
            counted = label_io._count_lines(fh)
        assert list(counted.items()) == list(Counter(data.splitlines(True)).items())
        assert list(read_label_pairs(path).items()) == list(Counter(_reference_pairs(path)).items())

    @pytest.mark.parametrize(
        "rest, cuts",
        [(b"A,B\r\n" * 4, [10]),  # the first block ends right after a \r\n
         (b"A,B\r\nB,A", [5])],  # the first block ends at the \n of a \r\n
    )
    def test_cut_right_after_crlf(self, tmp_path, monkeypatch, rest, cuts):
        head = b"true,predicted\r\n"
        path = tmp_path / "labels.csv"
        path.write_bytes(head + rest)
        monkeypatch.setattr(label_io, "_BLOCK", len(head) + cuts[0])
        assert all(rest[cut - 2:cut] == b"\r\n" for cut in cuts)
        assert list(read_label_pairs(path).items()) == list(Counter(_reference_pairs(path)).items())

    def test_lone_carriage_return_falls_back(self, monkeypatch):
        data = b"true,predicted\r" + _ROWS.replace(b"\r\n", b"\r")
        monkeypatch.setattr(label_io, "_BLOCK", 64)
        counted, outcomes = _counted(monkeypatch, data)
        assert len(outcomes) > 1 and not any(outcomes)
        assert list(counted.items()) == list(Counter(data.splitlines(True)).items())

    def test_line_past_the_word_bound_falls_back(self, monkeypatch):
        long_line = b"A," + b"B" * (8 * label_io._WORDS - 2) + b"\n"
        data = b"A,B\n" * 3 + long_line + b"B,A\n" * 3
        monkeypatch.setattr(label_io, "_BLOCK", len(data))
        counted, outcomes = _counted(monkeypatch, data)
        assert outcomes == [False]
        assert list(counted.items()) == list(Counter(data.splitlines(True)).items())

    def test_hash_collision_falls_back(self, monkeypatch):
        # the lines share their first word, so they collide when the fold keeps only that word
        data = b"class_00,x\nclass_00,y\nclass_00,x\n" * 3
        monkeypatch.setattr(label_io, "_BLOCK", len(data))
        assert _counted(monkeypatch, data)[1] == [True]
        monkeypatch.setattr(label_io, "_fold", lambda words: words[0])
        counted, outcomes = _counted(monkeypatch, data)
        assert outcomes == [False]
        assert list(counted.items()) == list(Counter(data.splitlines(True)).items())

    def test_pair_first_seen_in_the_last_block_comes_last(self, tmp_path, monkeypatch):
        path = tmp_path / "labels.csv"
        path.write_bytes(b"true,predicted\r\n" + _ROWS)
        monkeypatch.setattr(label_io, "_BLOCK", 64)
        pairs = read_label_pairs(path)
        assert list(pairs)[-1] == ("c9", "c9")
        assert list(pairs.items()) == list(Counter(_reference_pairs(path)).items())

    @pytest.mark.parametrize("data, message", [
        (b"\xef\xbb\xbftrue,predicted\r\n" + _ROWS, None),
        (b'true,predicted\nA,B\n"A\nB",B\n', "a quoted field spans lines"),
        (b"true,predicted\nA,B\nB,\xff\n", r"invalid UTF-8 \(invalid start byte\)$"),
    ], ids=["quote-free", "spanning field", "invalid UTF-8"])
    def test_pipe_reads_as_the_file(self, tmp_path, monkeypatch, data, message):
        path = tmp_path / "labels.csv"
        path.write_bytes(data)
        monkeypatch.setattr(label_io, "_BLOCK", 64)  # many blocks in one pipe buffer
        read, write = os.pipe()
        try:
            with open(write, "wb") as fh:
                fh.write(data)
            pipe = f"/dev/fd/{read}"
            if not os.path.exists(pipe):
                pytest.skip("a pipe is named through /dev/fd")
            if message is None:
                assert list(read_label_pairs(pipe).items()) == list(read_label_pairs(path).items())
            else:  # the whole file cannot be parsed again, nor a bad line found
                with pytest.raises(MatrixError, match=rf"^{pipe}: {message}"):
                    read_label_pairs(pipe)
        finally:
            os.close(read)

    def test_numpy_not_loaded_by_importing_io(self):
        code = "import sys, imbindex.io; print('numpy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(label_io.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out == "False\n"


def test_every_public_name_resolves():
    import imbindex

    assert [name for name in imbindex.__all__ if not hasattr(imbindex, name)] == []
