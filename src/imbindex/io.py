"""CSV interfaces: confusion-matrix files and (true, predicted) label files."""

from __future__ import annotations

import csv
from collections import Counter
from pathlib import Path
from typing import Sequence

from .confusion import ConfusionMatrix, MatrixError


def _is_int(token: str) -> bool:
    token = token.strip()
    if not token:
        return False
    if token[0] in "+-":
        token = token[1:]
    return token.isdecimal()


def read_matrix_csv(path) -> tuple[ConfusionMatrix, tuple[str, ...] | None]:
    """Read a confusion matrix: one row per true class, integers only.

    An optional first row of class labels is detected by the presence of any
    non-integer token.  Returns the validated matrix and the labels (or None).
    """
    path = Path(path)
    with path.open(newline="") as fh:
        raw = [row for row in csv.reader(fh) if not _is_blank(row)]
    if not raw:
        raise MatrixError(f"{path}: file contains no rows")
    labels: tuple[str, ...] | None = None
    if not all(_is_int(cell) for cell in raw[0]):
        labels = tuple(cell.strip() for cell in raw[0])
        raw = raw[1:]
        if not raw:
            raise MatrixError(f"{path}: header row but no count rows")
    grid = []
    for i, row in enumerate(raw):
        parsed = []
        for j, cell in enumerate(row):
            if not _is_int(cell):
                raise MatrixError(
                    f"{path}: row {i + 1}, column {j + 1}: {cell.strip()!r} is not an integer"
                )
            parsed.append(int(cell))
        grid.append(tuple(parsed))
    matrix = ConfusionMatrix(tuple(grid))
    if labels is not None and len(labels) != matrix.class_count:
        raise MatrixError(
            f"{path}: header has {len(labels)} labels for {matrix.class_count} classes"
        )
    return matrix, labels


def write_matrix_csv(path, matrix: ConfusionMatrix, labels: Sequence[str] | None = None) -> None:
    """Write a matrix in the same format :func:`read_matrix_csv` accepts."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        if labels is not None:
            if len(labels) != matrix.class_count:
                raise MatrixError(
                    f"{len(labels)} labels for {matrix.class_count} classes"
                )
            writer.writerow(labels)
        for row in matrix.counts:
            writer.writerow(row)


def _is_blank(row: Sequence[str]) -> bool:
    return not any(cell.strip() for cell in row)


def read_label_pairs(path) -> Counter[tuple[str, str]]:
    """Count (true, predicted) string pairs in a CSV of two or more columns.

    Returns a Counter from each stripped pair to its number of rows, keyed in
    order of first appearance.  Blank rows are skipped, columns past the
    second are ignored, and a ``true,predicted`` first row is a header.
    Memory grows with the number of distinct rows, not with file length.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        first = next((row for row in reader if not _is_blank(row)), None)
        if first is None:
            raise MatrixError(f"{path}: file contains no rows")
        header = [cell.strip().lower() for cell in first[:2]] == ["true", "predicted"]
        rows = Counter() if header else Counter([tuple(first)])
        rows.update(map(tuple, reader))
    pairs: Counter[tuple[str, str]] = Counter()
    for row, n in rows.items():
        if _is_blank(row):
            continue
        if len(row) < 2:
            raise MatrixError(
                f"{path}: row {_first_short_row(path, header)} has fewer than 2 columns"
            )
        pairs[row[0].strip(), row[1].strip()] += n
    if not pairs:
        raise MatrixError(f"{path}: header row but no label rows")
    return pairs


def _first_short_row(path: Path, header: bool) -> int:
    """Number of the first label row with fewer than 2 columns, counting the
    non-blank rows after the header from 1."""
    with path.open(newline="") as fh:
        rows = (row for row in csv.reader(fh) if not _is_blank(row))
        return next(i for i, row in enumerate(rows, 0 if header else 1) if len(row) < 2)
