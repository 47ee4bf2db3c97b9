"""File formats: confusion-matrix and (true, predicted) label-pair CSVs, read
as UTF-8 with or without a byte-order mark, and the JSON form of results.

A label file's lines after its first row are counted as bytes over byte
ranges, one per available CPU, in forked processes (:mod:`imbindex.forks`),
and merged in file order, so the counts do not depend on how many processes
ran them.
"""

from __future__ import annotations

import codecs
import csv
import json
from collections import Counter
from dataclasses import fields, is_dataclass
from fractions import Fraction
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Sequence

from . import forks
from .confusion import ConfusionMatrix, MatrixError

_MIN_RANGE_BYTES = 1 << 20  # the fewest bytes a label-counting process is given
_BLOCK = 8 << 10  # bytes read at a time while counting label lines


def _is_int(token: str) -> bool:
    token = token.strip()
    if not token:
        return False
    if token[0] in "+-":
        token = token[1:]
    return token.isdecimal()


def read_matrix_csv(path) -> tuple[ConfusionMatrix, tuple[str, ...] | None]:
    """Read a confusion matrix: one row per true class, integers only.

    An optional first row of distinct class labels is detected by the presence
    of any non-integer token.  Returns the validated matrix and the labels (or None).
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        raw = [row for row in csv.reader(fh) if not _is_blank(row)]
    if not raw:
        raise MatrixError(f"{path}: file contains no rows")
    labels: tuple[str, ...] | None = None
    if not all(_is_int(cell) for cell in raw[0]):
        labels = tuple(cell.strip() for cell in raw[0])
        repeated = [label for i, label in enumerate(labels) if label in labels[:i]]
        if repeated:
            raise MatrixError(f"{path}: header repeats the label {repeated[0]!r}")
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
    try:
        matrix = ConfusionMatrix(tuple(grid))
    except MatrixError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    if labels is not None and len(labels) != matrix.class_count:
        raise MatrixError(
            f"{path}: header has {len(labels)} labels for {matrix.class_count} classes"
        )
    return matrix, labels


def write_matrix_csv(path, matrix: ConfusionMatrix, labels: Sequence[str] | None = None) -> None:
    """Write a matrix in the same format :func:`read_matrix_csv` accepts."""
    if labels is not None and len(labels) != matrix.class_count:
        raise MatrixError(f"{len(labels)} labels for {matrix.class_count} classes")
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        if labels is not None:
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
    After the first row, raw lines are counted as bytes, over byte ranges in
    up to one process per available CPU (:func:`_count_rest`), and only the
    distinct ones are decoded and parsed, so parsing and memory grow with the
    number of distinct lines; a ``"`` in them sends the rest of the file
    through ``csv.reader``, as a quoted field may span lines.  The file must
    be seekable, so a pipe is refused.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        if not fh.seekable():  # a pipe cannot be read by byte offsets
            raise MatrixError(f"{path}: not a regular file")
        first, header, offset = _split_first_row(path, fh)
        lines = _count_rest(path, offset)
        if any(b'"' in line for line in lines):  # a quoted field may span lines
            lines = None  # free the line counts before counting rows
            counted = Counter(map(tuple, csv.reader(fh))).items()  # fh resumes after the row
        else:
            rest = {line.decode("utf-8"): n for line, n in lines.items()}
            counted = zip(csv.reader(rest), rest.values())  # one row per quote-free line
    pairs: Counter[tuple[str, str]] = Counter()
    for row, n in chain([] if header else [(first, 1)], counted):
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


def _split_first_row(path: Path, fh) -> tuple[list[str], bool, int]:
    """The first non-blank CSV row of ``fh``, ``path`` opened as UTF-8 text
    with ``newline=""``, whether it is a ``true,predicted`` header, and the
    byte offset in ``path`` where the rest of the file starts.

    The row is read through ``fh.readline``, one line at a time, so ``fh``
    resumes after the row and the offset is the byte-order mark's 3 bytes, if
    any, plus the UTF-8 length of each line read: ``newline=""`` leaves each
    line's characters as they are in the file.
    """
    offset = 3 if fh.buffer.peek(3).startswith(codecs.BOM_UTF8) else 0

    def lines():
        nonlocal offset
        for line in iter(fh.readline, ""):
            offset += len(line.encode("utf-8"))
            yield line

    first = next((row for row in csv.reader(lines()) if not _is_blank(row)), None)
    if first is None:
        raise MatrixError(f"{path}: file contains no rows")
    header = [cell.strip().lower() for cell in first[:2]] == ["true", "predicted"]
    return first, header, offset


def _count_rest(path: Path, offset: int) -> Counter[bytes]:
    """Each raw line of ``path`` from byte ``offset`` on, with its count, in
    order of first appearance.

    The bytes are cut just after a ``\\n``, which ends a line under every line
    end, into one range per available CPU, each of at least
    ``_MIN_RANGE_BYTES`` (:func:`forks.worker_count`).  The first range is
    counted here and each other in a forked child (:func:`forks.run_forked`);
    a range with no child result is counted here too.  The ranges' counts are
    merged in file order, so the keys keep the file's order of first
    appearance.  A line longer than a range moves a cut onto the next one,
    or to the end, and that range is dropped.  Below twice
    ``_MIN_RANGE_BYTES`` the bytes are one range, counted here without a
    fork.
    """
    size = path.stat().st_size
    n = forks.worker_count(size - offset, _MIN_RANGE_BYTES)
    with path.open("rb") as fh:
        cuts = {_line_start(fh, offset + (size - offset) * k // n) for k in range(1, n)}
    bounds = [offset, *sorted(cuts - {offset, size}), size]  # no range left empty
    ranges = list(zip(bounds, bounds[1:]))
    counts: Counter[bytes] = Counter()
    for (start, stop), part in zip(ranges, forks.run_forked(partial(_count_lines, path), ranges)):
        counts.update(_count_lines(path, start, stop) if part is None else part)
    return counts


def _line_start(fh, at: int) -> int:
    """The first position of the binary file ``fh`` from ``at`` on that
    follows a ``\\n``, or the end of the file."""
    fh.seek(at - 1)
    while block := fh.read(_BLOCK):
        end = block.find(b"\n")
        if end >= 0:
            return fh.tell() - len(block) + end + 1
    return fh.tell()


def _count_lines(path: Path, start: int, stop: int) -> Counter[bytes]:
    """Each raw line in bytes ``start`` to ``stop`` of ``path``, with its
    count, in order of first appearance.

    The bytes are read ``_BLOCK`` at a time and split on ``\\n``, ``\\r\\n``
    and ``\\r``, as ``newline=""`` splits text.  A block's last line is carried
    into the next block unless it ends in ``\\n``, since the rest of the line,
    or the ``\\n`` of a ``\\r\\n``, may follow.
    """
    counts: Counter[bytes] = Counter()
    carry = b""
    with path.open("rb") as fh:
        fh.seek(start)
        for at in range(start, stop, _BLOCK):
            lines = (carry + fh.read(min(_BLOCK, stop - at))).splitlines(keepends=True)
            carry = lines.pop() if lines and not lines[-1].endswith(b"\n") else b""
            counts.update(lines)
    if carry:
        counts[carry] += 1
    return counts


def _first_short_row(path: Path, header: bool) -> int:
    """Number of the first label row with fewer than 2 columns, counting the
    non-blank rows after the header from 1."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        rows = (row for row in csv.reader(fh) if not _is_blank(row))
        return next(i for i, row in enumerate(rows, 0 if header else 1) if len(row) < 2)


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    # before the dataclass rule, which would write {"counts": rows}
    if isinstance(obj, ConfusionMatrix):
        return obj.to_lists()
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def to_json(obj) -> str:
    """``obj`` as indented JSON.  A dataclass is an object of its fields in
    declaration order, a ``Fraction`` its ``"p/q"`` string, and a
    :class:`ConfusionMatrix` its list of rows."""
    return json.dumps(obj, indent=2, default=_json_default)
