"""CSV dataset files.

Two files describe an instance:

* ``journals.csv`` — header ``id,name,articles_t1,articles_t2``, one row
  per journal, UTF-8; row order defines the index order used everywhere.
* ``matrix.csv`` — first header cell is the literal ``citing\\cited``
  (one backslash), remaining header cells repeat the journal ids in
  journals.csv order; each following row is a citing journal id followed
  by its integer citation counts.

Counts are read with Python ``int()`` syntax: a sign, surrounding
whitespace, ``_`` digit separators and any Unicode decimal digits are
accepted, and ``1.5``, ``1e3``, ``nan`` or an empty cell is rejected with
``NonIntegerCount`` (the message quotes at most 40 characters of the
cell); a count beyond the float range (about 309 digits, or more digits
than ``int()`` converts) is rejected with ``CountTooLarge``. Ids are
written in full and matched exactly on read, so files for reduced
instances (dropped journals) stay unambiguous. For a dataset with integral
counts, writing then re-reading and re-writing reproduces the files byte
for byte; a matrix with a non-integral count is written (``1.5``) but
cannot be read back.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .core import CitationMatrix, Journal, JournalSet
from .errors import Issue, ValidationError
from .properties import FieldPartition

JOURNALS_HEADER = ["id", "name", "articles_t1", "articles_t2"]
MATRIX_CORNER = "citing\\cited"
PARTITION_HEADER = ["id", "field"]
# Characters of a bad count cell that its error message quotes.
_QUOTE_LIMIT = 40


def _fail(code: str, message: str, **kw) -> ValidationError:
    return ValidationError([Issue(code, message, **kw)])


def _read_rows(path: str | Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def _quote(text: str) -> str:
    """repr of a cell, or of its first _QUOTE_LIMIT characters and its length."""
    if len(text) <= _QUOTE_LIMIT:
        return repr(text)
    return f"{text[:_QUOTE_LIMIT]!r}… ({len(text)} characters)"


def _parse_count(text: str, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        body = text.strip()
        digits = body[1:] if body[:1] in ("+", "-") else body
        if not digits.isdecimal():
            raise _fail("NonIntegerCount", f"{what} is not an integer: {_quote(text)}") from None
        # int() refuses a run of digits only beyond its length cap (4300 by
        # default); leading zeros aside, that is far beyond the float range.
        size = len(digits)
    else:
        try:
            float(value)
            return value
        except OverflowError:
            size = len(str(abs(value)))
    raise _fail("CountTooLarge", f"{what} has {size} digits, too large for a float")


def read_journals(path: str | Path) -> JournalSet:
    rows = _read_rows(path)
    if not rows or rows[0] != JOURNALS_HEADER:
        raise _fail(
            "BadHeader",
            f"journals file must start with {','.join(JOURNALS_HEADER)!r}",
        )
    journals = []
    for row in rows[1:]:
        if len(row) != 4:
            raise _fail("BadRow", f"journals row has {len(row)} fields, expected 4")
        ident, name, a1, a2 = row
        journals.append(
            Journal(
                ident,
                name or None,
                _parse_count(a1, f"articles_t1 of {ident!r}"),
                _parse_count(a2, f"articles_t2 of {ident!r}"),
            )
        )
    if not journals:
        raise _fail("EmptyFile", "journals file lists no journals")
    return JournalSet(tuple(journals))


def write_journals(path: str | Path, journals: JournalSet) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(JOURNALS_HEADER)
        for journal in journals.journals:
            writer.writerow(
                [journal.id, journal.name or "", journal.articles_t1, journal.articles_t2]
            )


def read_matrix(path: str | Path, journals: JournalSet) -> CitationMatrix:
    rows = _read_rows(path)
    ids = list(journals.ids)
    if not rows:
        raise _fail("EmptyFile", "matrix file is empty")
    header = rows[0]
    if not header or header[0] != MATRIX_CORNER:
        raise _fail("BadHeader", f"matrix header must start with {MATRIX_CORNER!r}")
    if header[1:] != ids:
        raise _fail(
            "HeaderMismatch",
            "matrix header ids do not match the journals file (same ids, same order, required)",
        )
    if len(rows) - 1 != len(ids):
        raise _fail(
            "DimensionMismatch",
            f"matrix has {len(rows) - 1} rows for {len(ids)} journals",
        )
    counts = np.zeros((len(ids), len(ids)))
    for i, row in enumerate(rows[1:]):
        if len(row) != len(ids) + 1:
            raise _fail("BadRow", f"matrix row {i} has {len(row)} fields, expected {len(ids) + 1}")
        if row[0] != ids[i]:
            raise _fail(
                "HeaderMismatch",
                f"matrix row {i} is labelled {row[0]!r}, expected {ids[i]!r}",
            )
        try:
            # numpy's str -> int64 conversion goes through int(), so it accepts
            # and rejects the same cells; only counts beyond int64 need the
            # per-cell path, which also names the first bad cell of the row.
            counts[i] = np.array(row[1:], dtype=np.int64)
        except (ValueError, OverflowError):
            for j, cell in enumerate(row[1:]):
                counts[i, j] = _parse_count(cell, f"citation count ({row[0]!r} -> {ids[j]!r})")
    return CitationMatrix(counts)


def write_matrix(path: str | Path, journals: JournalSet, matrix: CitationMatrix) -> None:
    ids = list(journals.ids)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([MATRIX_CORNER] + ids)
        counts = matrix.counts
        # One cast when every count is integral and fits int64; _format_count
        # writes such counts as str(int) too, so the bytes are the same.
        if np.all((np.abs(counts) < 2.0**63) & (counts == np.floor(counts))):
            rows = (row.tolist() for row in counts.astype(np.int64))
        else:
            rows = ([_format_count(v) for v in row] for row in counts)
        for ident, row in zip(ids, rows):
            writer.writerow([ident] + row)


def _format_count(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def read_partition(path: str | Path, journals: JournalSet) -> FieldPartition:
    rows = _read_rows(path)
    if not rows or rows[0] != PARTITION_HEADER:
        raise _fail("BadHeader", f"partition file must start with {','.join(PARTITION_HEADER)!r}")
    assignment: dict[str, int] = {}
    for row in rows[1:]:
        if len(row) != 2:
            raise _fail("BadRow", f"partition row has {len(row)} fields, expected 2")
        ident, field_label = row
        if field_label not in ("1", "2"):
            raise _fail("BadField", f"field of {ident!r} must be 1 or 2, got {field_label!r}")
        if ident in assignment:
            raise _fail("DuplicateId", f"journal {ident!r} assigned twice", journal=ident)
        assignment[ident] = int(field_label)
    missing = [i for i in journals.ids if i not in assignment]
    extra = [i for i in assignment if i not in set(journals.ids)]
    if missing or extra:
        raise _fail(
            "PartitionMismatch",
            f"partition must cover the journal set exactly (missing {missing}, extra {extra})",
        )
    return FieldPartition(tuple(assignment[i] for i in journals.ids))


def write_partition(path: str | Path, journals: JournalSet, partition: FieldPartition) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(PARTITION_HEADER)
        for ident, field_label in zip(journals.ids, partition.field_of):
            writer.writerow([ident, field_label])
