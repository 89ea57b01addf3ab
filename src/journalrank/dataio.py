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
``NonIntegerCount``; a count beyond the float range (about 309 digits,
or more digits than ``int()`` converts) is rejected with
``CountTooLarge``. Error messages quote at most 40 characters of a cell
or an id (``errors.quote``); an issue's ``journal`` keeps the exact id.
Ids are written in full and matched exactly on read, so files for
reduced instances (dropped journals) stay unambiguous. For a dataset with
integral counts, writing then re-reading and re-writing reproduces the
files byte for byte, whatever the ids and names hold (commas, quotes, line
breaks; a file with a carriage return in one quotes every field), for ids
and names up to 131,072 characters, the csv module's field limit; a longer
field, like any file the csv reader rejects or that is not UTF-8, fails
with ``MalformedCsv`` naming the file and line. A matrix with a
non-integral count is written (``1.5``) but cannot be read back.

The format and these rules are the same for every file; only the speed of
reading a matrix differs. A plain ``matrix.csv``, as ``write_matrix``
writes it for non-negative integral counts below 10**15 and ids free of
commas, quotes, line breaks and NUL, is read in bulk: no quote, carriage
return or NUL byte, line-feed line ends, the header and one row per
journal in order, each count 1 to 15 ASCII digits. Every other file goes
through the csv reader, which alone raises every error, so both give the
same counts and the same error records.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from .core import CitationMatrix, FieldPartition, Journal, JournalSet
from .errors import Issue, ValidationError, quote

JOURNALS_HEADER = ["id", "name", "articles_t1", "articles_t2"]
MATRIX_CORNER = "citing\\cited"
PARTITION_HEADER = ["id", "field"]
# Missing or extra ids that a PartitionMismatch message lists.
_LISTED_IDS = 5


def _fail(code: str, message: str, **kw) -> ValidationError:
    return ValidationError([Issue(code, message, **kw)])


def csv_writer(handle, texts):
    """The one CSV dialect, of the dataset files and the CLI's stdout: a writer
    with line-feed row ends for ``handle``, whose text fields are ``texts``.

    Minimal quoting quotes a field only for the characters of the line
    terminator, so a bare carriage return would be written unquoted and end
    the row when read back; output with one quotes every field instead.
    """
    carriage = any("\r" in text for text in texts)
    return csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_ALL if carriage else csv.QUOTE_MINIMAL)


def _read_bytes(path: str | Path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _read_rows(path: str | Path) -> list[list[str]]:
    return _parse_rows(path, _read_bytes(path))


def _parse_rows(path: str | Path, data: bytes) -> list[list[str]]:
    """The csv rows of ``data``, the bytes of the file at ``path``."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The whole file is decoded at once, so exc.start is a file offset;
        # its line counts \n, \r and \r\n breaks, as the csv reader does.
        line = len((data[: exc.start] + b".").splitlines())
        raise _fail(
            "MalformedCsv", f"{path}, line {line}: byte {data[exc.start]:#04x} is not UTF-8 ({exc.reason})"
        ) from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        return list(reader)
    except csv.Error as exc:
        raise _fail("MalformedCsv", f"{path}, line {reader.line_num}: {exc}") from None


def _parse_count(text: str, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        body = text.strip()
        digits = body[1:] if body[:1] in ("+", "-") else body
        if not digits.isdecimal():
            raise _fail("NonIntegerCount", f"{what} is not an integer: {quote(text)}") from None
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
                _parse_count(a1, f"articles_t1 of {quote(ident)}"),
                _parse_count(a2, f"articles_t2 of {quote(ident)}"),
            )
        )
    if not journals:
        raise _fail("EmptyFile", "journals file lists no journals")
    return JournalSet(tuple(journals))


def write_journals(path: str | Path, journals: JournalSet) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv_writer(handle, [text for j in journals.journals for text in (j.id, j.name or "")])
        writer.writerow(JOURNALS_HEADER)
        for journal in journals.journals:
            writer.writerow(
                [journal.id, journal.name or "", journal.articles_t1, journal.articles_t2]
            )


def read_matrix(path: str | Path, journals: JournalSet) -> CitationMatrix:
    data = _read_bytes(path)
    counts = _read_plain_counts(data, journals.ids)
    if counts is None:
        return _read_matrix_csv(path, data, journals)
    return CitationMatrix._adopt(counts, no_negative_cell=True)


# Cells of the bulk path: runs of at most this many ASCII digits, so every
# value is below 10**15 < 2**53 and exact in float64.
_PLAIN_DIGITS = 15


def _read_plain_counts(data: bytes, ids: tuple[str, ...]) -> np.ndarray | None:
    """The counts of a plain matrix file, or None for the csv path to read.

    Plain means: no quote, carriage return or NUL byte; the header and then
    one row per id, each on its own line-feed-ended line (the last line
    feed optional); the header is exactly the corner cell and the ids, and
    each row is its id, a comma and n comma-separated runs of 1 to 15 ASCII
    digits; no id is longer than the csv field limit. The csv reader gives
    such a file the same counts, so it is read here in bulk, one row at a
    time, without a string per cell. Every other file, among them every
    file that fails to read, is left to the csv path.
    """
    n = len(ids)
    if b'"' in data or b"\r" in data or b"\0" in data:
        return None
    lines = data.split(b"\n")
    if not lines[-1]:
        lines.pop()
    if len(lines) != n + 1 or max(map(len, ids), default=0) > csv.field_size_limit():
        return None
    try:
        header = lines[0].decode("utf-8")
    except UnicodeDecodeError:
        return None
    if header.split(",") != [MATRIX_CORNER, *ids]:
        return None
    counts = np.empty((n, n))
    # Cell k of a row spans bytes bounds[k] + 1 to bounds[k + 1] - 1.
    bounds = np.empty(n + 1, dtype=np.intp)
    bounds[0] = -1
    for row, ident, line in zip(counts, ids, lines[1:]):
        prefix = ident.encode("utf-8") + b","
        body = line[len(prefix) :]
        if not line.startswith(prefix) or body.translate(None, b"0123456789,"):
            return None
        chars = np.frombuffer(body, dtype=np.uint8)
        commas = np.flatnonzero(chars == ord(","))
        if commas.size != n - 1:
            return None
        bounds[1:n] = commas
        bounds[n] = chars.size
        starts = bounds[:-1] + 1
        widths = bounds[1:] - starts
        if widths.min() < 1 or widths.max() > _PLAIN_DIGITS:
            return None
        # Horner's rule, one pass per digit position: pass k takes the k-th
        # digit of every cell that has one.
        row[:] = chars[starts] - ord("0")
        for k in range(1, widths.max()):
            live = widths > k
            row[live] = row[live] * 10 + (chars[starts[live] + k] - ord("0"))
    return counts


def _read_matrix_csv(path: str | Path, data: bytes, journals: JournalSet) -> CitationMatrix:
    """``read_matrix`` through the csv reader: any file, and every error."""
    rows = _parse_rows(path, data)
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
                f"matrix row {i} is labelled {quote(row[0])}, expected {quote(ids[i])}",
            )
        try:
            # numpy's str -> int64 conversion goes through int(), so it accepts
            # and rejects the same cells; only counts beyond int64 need the
            # per-cell path, which also names the first bad cell of the row.
            counts[i] = np.array(row[1:], dtype=np.int64)
        except (ValueError, OverflowError):
            for j, cell in enumerate(row[1:]):
                counts[i, j] = _parse_count(cell, f"citation count ({quote(row[0])} -> {quote(ids[j])})")
    return CitationMatrix._adopt(counts)


def write_matrix(path: str | Path, journals: JournalSet, matrix: CitationMatrix) -> None:
    ids = list(journals.ids)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv_writer(handle, ids)
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
            raise _fail("BadField", f"field of {quote(ident)} must be 1 or 2, got {quote(field_label)}")
        if ident in assignment:
            raise _fail("DuplicateId", f"journal {quote(ident)} assigned twice", journal=ident)
        assignment[ident] = int(field_label)
    known = set(journals.ids)
    missing = [i for i in journals.ids if i not in assignment]
    extra = [i for i in assignment if i not in known]
    if missing or extra:
        raise _fail(
            "PartitionMismatch",
            "partition must cover the journal set exactly "
            f"(missing {_quote_ids(missing)}, extra {_quote_ids(extra)})",
        )
    return FieldPartition(tuple(assignment[i] for i in journals.ids))


def _quote_ids(ids: list[str]) -> str:
    """The ids as a list literal: the first _LISTED_IDS quoted, then how many in all."""
    shown = [quote(i) for i in ids[:_LISTED_IDS]]
    if len(ids) > _LISTED_IDS:
        shown.append(f"… {len(ids)} in all")
    return f"[{', '.join(shown)}]"


def write_partition(path: str | Path, journals: JournalSet, partition: FieldPartition) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv_writer(handle, journals.ids)
        writer.writerow(PARTITION_HEADER)
        for ident, field_label in zip(journals.ids, partition.field_of):
            writer.writerow([ident, field_label])
