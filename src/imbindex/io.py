"""File formats: confusion-matrix and (true, predicted) label-pair CSVs, read
as UTF-8 with or without a byte-order mark, and the JSON form of results.

A label file is read once, from one binary handle that never seeks, so a
pipe reads as its file does.  Its raw lines are counted as bytes a block at
a time, in numpy where a block allows, and only the distinct lines are
decoded and parsed.
"""

from __future__ import annotations

import codecs
import csv
import json
from collections import Counter
from dataclasses import fields, is_dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Sequence

from .confusion import ConfusionMatrix, MatrixError

_BLOCK = 14 << 10  # bytes read at a time from a label file, sized for peak memory
_WORDS = 2  # the most 8-byte words a label line is keyed by in numpy
_MIX = 0x5851F42D4C957F2D  # odd, below 2**63: a multiplier for label-line hashes


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
    The file is read once, through one binary handle that never seeks, so a
    pipe such as ``/dev/stdin`` reads as its file does.  Its raw lines are
    counted as bytes (:func:`_count_lines`) and each distinct line is parsed
    alone, in order of first appearance, so parsing and memory grow with the
    number of distinct lines.  The file is parsed again whole with
    ``csv.reader``, which a pipe cannot be, when a lone parse runs past its
    line, as a quoted field then spans lines, or when the header's line is
    repeated as data, whose place in the order the counts do not keep.
    Invalid UTF-8 is reported with the path and, unless it is a pipe, the
    1-based line (:func:`_undecodable`).
    """
    path = Path(path)
    try:
        with path.open("rb") as fh:
            seekable = fh.seekable()
            lines = _count_lines(fh)
        # one row per line, and a blank row for the last "\n", unless a row runs past its line
        counts = chain(lines.values(), [0])
        tally = _tally(zip(csv.reader(chain(map(bytes.decode, lines), ["\n"])), counts))
        if tally is None or next(counts, None) is not None:
            if not seekable:
                raise MatrixError(f"{path}: a quoted field spans lines, or the header is repeated "
                                  "as data, which needs a regular file, not a pipe")
            with path.open(newline="", encoding="utf-8-sig") as fh:
                rows = (row for row in csv.reader(fh) if not _is_blank(row))
                first = [(row, 1) for row in islice(rows, 1)]  # apart, as it may be the header
                tally = _tally(chain(first, Counter(map(tuple, rows)).items()))
    except UnicodeDecodeError as exc:
        where = _undecodable(path) if seekable else ""
        raise MatrixError(f"{path}: {where}invalid UTF-8 ({exc.reason})") from None
    pairs, header, short = tally
    if header is None:
        raise MatrixError(f"{path}: file contains no rows")
    if short:
        row = f"row {_first_short_row(path, header)}" if seekable else "a row"
        raise MatrixError(f"{path}: {row} has fewer than 2 columns")
    if not pairs:
        raise MatrixError(f"{path}: header row but no label rows")
    return pairs


def _tally(rows) -> tuple[Counter[tuple[str, str]], bool | None, bool] | None:
    """The stripped first two fields of ``(row, count)`` items in order of
    first appearance, counted; whether the first non-blank row is a
    ``true,predicted`` header (None if there is none); and whether a later
    non-blank row has fewer than 2 columns.  Blank rows are skipped.  None
    when the header's row is counted more than once."""
    pairs: Counter[tuple[str, str]] = Counter()
    header = None
    short = False
    for row, n in rows:
        if _is_blank(row):
            continue
        if header is None:
            header = [cell.strip().lower() for cell in row[:2]] == ["true", "predicted"]
            if header:
                if n > 1:
                    return None
                continue
        if len(row) < 2:
            short = True
        else:
            pairs[row[0].strip(), row[1].strip()] += n
    return pairs, header, short


def _count_lines(fh) -> Counter[bytes]:
    """Each raw line of the binary handle ``fh``, read from the file's
    start, with its count, in order of first appearance.

    Lines are split as ``newline=""`` splits text, at ``\\n``, ``\\r\\n`` and a
    lone ``\\r``, after a UTF-8 byte-order mark is dropped.  ``fh`` is read
    ``_BLOCK`` bytes at a time, and each block, after what was carried, is
    counted in numpy (:func:`_count_block`) where it can be.  Otherwise it is
    counted with ``Counter.update`` over ``splitlines``, and only its last
    line is carried, unless it ends in ``\\n``.
    """
    counts: Counter[bytes] = Counter()
    carry = b""
    first = fh.read(max(_BLOCK, 3)).removeprefix(codecs.BOM_UTF8)  # the whole mark
    for block in chain([first], iter(partial(fh.read, _BLOCK), b"")):
        data = carry + block
        carry = _count_block(counts, data)
        if carry is None:
            lines = data.splitlines(keepends=True)
            carry = lines.pop() if lines and not lines[-1].endswith(b"\n") else b""
            counts.update(lines)
    counts.update(carry.splitlines(keepends=True))  # the last line
    return counts


def _count_block(counts: Counter[bytes], data: bytes) -> bytes | None:
    """Add the lines of ``data`` up to its last ``\\n`` to ``counts``, in
    order of first appearance, and return the rest; or return None, with
    ``counts`` untouched, when a lone ``\\r`` ends a line (a ``\\r`` that no
    ``\\n`` follows, other than one ending ``data``), a line is longer than
    ``_WORDS`` words, or two lines share a hash.

    Each line is read as 8-byte words, unaligned, with the bytes past its
    end zeroed, so its words are the line, as a line ends at its only
    ``\\n``.  The top 48 bits of a hash of the words (:func:`_fold`) are
    packed above the line's index, so one sort of the packed values is an
    ``argsort`` by hash that keeps each hash's lines in file order.  The hash
    is checked against every word.  Each group of lines gives one ``bytes``
    and its size, and a second sort puts the groups in the order of their
    first lines.
    """
    cut = data.rfind(b"\n") + 1
    if b"\r" in data and data.count(b"\r") - data.count(b"\r\n") > data.endswith(b"\r"):
        return None
    if data.find(b"\n", 0, 8 * _WORDS) < 0:  # no line, or a first line too long for numpy
        return None if cut else data
    import numpy as np  # loaded only here, as the CLI loads it anyway

    body = data[:cut]
    ends = np.flatnonzero(np.frombuffer(body, np.uint8) == ord("\n")) + 1
    n = len(ends)
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1]
    width = (int((ends - starts).max()) + 7) // 8
    if width > _WORDS or n > 1 << 16:  # the index is packed in 16 bits
        return None
    padded = body + bytes(8 * width)
    offsets = np.arange(0, 8 * width, 8)[:, None]
    # word k of line i at [k, i]; numpy shifts by 64 to 0, so ~(-1 << 64) keeps a whole word
    words = np.ndarray(len(padded) - 7, "<i8", padded, strides=(1,)).take(starts + offsets)
    words &= ~(-1 << (np.maximum(np.minimum(ends - starts - offsets, 8), 0) << 3))
    packed = _fold(words) & -1 << 16 | np.arange(n)
    packed.sort()
    order = packed & 0xFFFF
    new = np.ones(n + 1, bool)  # where a group starts, and the end
    packed >>= 16
    np.not_equal(packed[1:], packed[:-1], out=new[1:n])
    words = words.take(order, axis=1)
    if np.any((words[:, 1:] != words[:, :-1]) & ~new[1:n]):
        return None
    bounds = np.flatnonzero(new)
    firsts = np.sort(order.take(bounds[:-1]) << 16 | np.arange(len(bounds) - 1))
    sizes = (bounds[1:] - bounds[:-1]).take(firsts & 0xFFFF)
    firsts >>= 16
    lines = list(map(body.__getitem__, map(slice, starts.take(firsts).tolist(),
                                               ends.take(firsts).tolist())))
    totals = sizes + np.fromiter(map(counts.get, lines, repeat(0)), np.int64, len(lines))
    dict.update(counts, zip(lines, totals.tolist()))  # Counter.update would count the pairs
    return data[cut:]


def _fold(words):
    """A 64-bit hash of each line from its ``int64`` words, ``words[k]``
    holding word k of every line."""
    key = words[0] * _MIX
    for word in words[1:]:
        key = (key ^ word) * _MIX
    return key ^ key >> 29


def _first_short_row(path: Path, header: bool) -> int:
    """Number of the first label row with fewer than 2 columns, counting the
    non-blank rows after the header from 1."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        rows = (row for row in csv.reader(fh) if not _is_blank(row))
        return next(i for i, row in enumerate(rows, 0 if header else 1) if len(row) < 2)


def _undecodable(path: Path) -> str:
    """Where the first invalid UTF-8 in ``path`` is, as ``"line L, byte B: "``,
    both counted from 1, found by reading ``path`` again line by line."""
    with path.open(newline="", encoding="latin-1") as fh:  # one character per byte
        for number, line in enumerate(fh, 1):
            try:
                line.encode("latin-1").decode("utf-8")
            except UnicodeDecodeError as exc:
                return f"line {number}, byte {exc.start + 1}: "
    return ""


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
