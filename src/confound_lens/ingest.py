"""CSV ingestion: UTF-8, header row, "." decimal point, empty cell = missing.

A column is numeric when every non-missing cell parses as a float; any other
column is categorical and gets expanded into 0/1 indicators named
"column:level", one per non-reference level in sorted order.  The reference
level is the most frequent one (ties broken by sort order).  Rows with a
missing value in any column are dropped, with a counted warning.  Cells that
parse to non-finite floats (nan, inf) also count as missing.

Cells may be padded with whitespace and blank lines are skipped.  Row
numbers in a ParseError are the file's record numbers, blank lines included.

`_read_table` decides once what the input is: a path (str or Path), opened
as plain UTF-8, or an open text stream.  Either is read in one piece, so a
byte that is not UTF-8 is reported at its offset in the input, a byte-order
mark's included; a stream whose read() gives bytes is a ParseError.  One
leading U+FEFF (the mark) is dropped from the text, from a file or a stream.

A text with no quote, CR or NUL, no blank line and the header's field count
on every line is cut into cells by one `str.split` on "," after each "\n"
became ",": the cells csv.reader would give, without a list per row.  Any
other text goes to csv.reader, whose records give every ragged-row error and
row number as before.  A file's lines end at CR, LF or CRLF (it is opened
with newline=""), a stream's at LF only: stdin's universal newlines have
already made every line end one, and a CR left in a stream's text is a
ParseError.

The table is parsed column by column: each column is first read by one C-level
`float` pass, and only a column where that pass fails (a blank cell or a
categorical level) is parsed cell by cell, once per distinct string.  That
pass decides number or text once: a row is text exactly where it is not
missing and its value is nan.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dataset import Dataset
from .errors import EmptyAfterFilteringError, ParseError

_WRITE_BLOCK_ROWS = 4096


def _read_table(source) -> tuple[str, list[str], list[list[str]]]:
    """The source's name in messages, its header names and the raw
    (unstripped) cells of each data column."""
    is_path = isinstance(source, (str, Path))
    name = str(source) if is_path else "<stream>"
    try:
        if is_path:
            with open(source, "r", encoding="utf-8", newline="") as fh:
                text = fh.read()
        else:
            text = source.read()  # decoded in one piece: an error names the input offset
    except UnicodeDecodeError as exc:
        raise ParseError(f"malformed CSV: {exc}") from exc
    if not isinstance(text, str):
        raise ParseError(f"{name}: read {type(text).__name__}, not text; "
                         "open the stream in text mode")
    text = text.removeprefix("\ufeff")  # one byte-order mark, from a file or a stream
    table = _split_plain(text)
    if table is None:
        # a file's lines end at "\r", "\n" and "\r\n", a stream's at "\n"
        table = _split_csv(io.StringIO(text, newline="" if is_path else "\n"))
    return (name, *table)


def _split_plain(text: str) -> tuple[list[str], list[list[str]]] | None:
    """The table of a text that csv.reader would cut only at "," and "\n", or
    None.  The text must hold no quote, CR or NUL (csv.reader treats them
    apart, and before Python 3.11 rejects NUL), the header's field count on
    every line, no blank line and no field over the csv module's size limit."""
    if '"' in text or "\r" in text or "\0" in text:
        return None
    body = text.removesuffix("\n")
    # "," and "\n" never occur inside a multi-byte UTF-8 sequence
    codes = np.frombuffer(body.encode("utf-8", "surrogatepass"), np.uint8)
    seps = np.flatnonzero((codes == ord(",")) | (codes == ord("\n")))
    ends = np.flatnonzero(codes[seps] == ord("\n"))  # which separators end a line
    ncol = int(ends[0]) + 1 if len(ends) else len(seps) + 1
    sizes = np.diff(seps, prepend=-1, append=len(codes)) - 1  # field lengths in bytes
    # a blank line is one empty field: ragged beside a wider header, else size 0
    if ((len(seps) + 1) % ncol
            or not np.array_equal(ends, np.arange(ncol - 1, len(seps), ncol))
            or (ncol == 1 and not sizes.all())
            or sizes.max() > csv.field_size_limit()):
        return None
    fields = body.replace("\n", ",").split(",")
    header = _header(fields[:ncol], row=1)
    return header, [fields[j::ncol] for j in range(ncol, 2 * ncol)]


def _split_csv(stream: io.StringIO) -> tuple[list[str], list[list[str]]]:
    try:
        records = list(csv.reader(stream))  # a blank line reads as an empty record
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}") from exc
    header_row = next((i for i, row in enumerate(records, start=1) if row), None)
    if header_row is None:
        raise ParseError("file has no header row")
    header = _header(records[header_row - 1], row=header_row)
    ncol = len(header)
    if not set(map(len, records)) <= {0, ncol}:
        for i, row in enumerate(records, start=1):
            if row and len(row) != ncol:
                raise ParseError(f"expected {ncol} fields, got {len(row)}", row=i)
    cells = list(chain.from_iterable(records[header_row:]))  # row-major, blanks gone
    return header, [cells[j::ncol] for j in range(ncol)]


def _header(fields: list[str], row: int) -> list[str]:
    header = [h.strip() for h in fields]
    if any(not h for h in header):
        raise ParseError("header contains an empty column name", row=row)
    dupes = [h for h, c in Counter(header).items() if c > 1]
    if dupes:
        raise ParseError(f"duplicate column names: {dupes}", row=row)
    return header


class _Column(NamedTuple):
    """One parsed column.  `codes` is None when every cell is a float.  Else
    each row's code indexes `levels`, where code 0 (level None) marks a
    missing cell.  A row holds text (a categorical level) exactly where it
    is not missing and its value is nan."""

    values: np.ndarray  # float64 per row, nan where missing or text
    missing: np.ndarray  # bool per row
    codes: np.ndarray | None = None
    levels: list | None = None

    def take(self, rows: np.ndarray) -> "_Column":
        return self._replace(values=self.values[rows], missing=self.missing[rows],
                             codes=None if self.codes is None else self.codes[rows])


def _parse_column(cells: list[str]) -> _Column:
    n = len(cells)
    try:
        values = np.fromiter(map(float, cells), np.float64, n)  # float() strips too
    except ValueError:
        pass
    else:
        return _Column(values, ~np.isfinite(values))
    code_of: dict[str | None, int] = {None: 0}
    numbers = [math.nan]
    code_of_cell = {}
    for cell in dict.fromkeys(cells):
        level = cell.strip()
        try:
            value = float(level)
        except ValueError:  # "" is missing, any other text a categorical level
            value, level = math.nan, level or None
        else:  # a number's level is its str(); nan and inf are missing
            level = str(value) if math.isfinite(value) else None
        code = code_of_cell[cell] = code_of.setdefault(level, len(code_of))
        if code == len(numbers):
            numbers.append(value)
    codes = np.fromiter(map(code_of_cell.__getitem__, cells), np.intp, n)
    return _Column(np.array(numbers)[codes], codes == 0, codes, list(code_of))


def _build_dataset(header: list[str], columns: list[_Column], n: int,
                   source_name: str) -> Dataset:
    missing = np.zeros(n, dtype=bool)
    for col in columns:
        missing |= col.missing
    dropped = int(np.count_nonzero(missing))
    if dropped:
        warnings.warn(
            f"{source_name}: dropped {dropped} row(s) with missing values",
            stacklevel=2)
    if dropped == n:
        raise EmptyAfterFilteringError(
            f"{source_name}: no complete rows remain after dropping missing values")
    keep = ~missing

    names: list[str] = []
    arrays: list[np.ndarray] = []
    for col_name, col in zip(header, columns):
        # a column is categorical when any of its cells, kept or not, is text
        if not (np.isnan(col.values) & ~col.missing).any():
            names.append(col_name)
            arrays.append(col.values[keep])
            continue
        codes = col.codes[keep]
        counts = np.bincount(codes, minlength=len(col.levels))
        present = {col.levels[c]: c for c in np.flatnonzero(counts)}
        # reference = most frequent level, ties broken lexicographically
        reference = min(present, key=lambda lv: (-counts[present[lv]], lv))
        for level in sorted(present):
            if level == reference:
                continue
            names.append(f"{col_name}:{level}")
            arrays.append((codes == present[level]).astype(np.float64))

    if not names:
        raise ParseError(f"{source_name}: no usable columns")
    try:
        return Dataset(tuple(names), np.column_stack(arrays))
    except ValueError as exc:
        raise ParseError(f"{source_name}: {exc}") from exc


def ingest_csv(source) -> Dataset:
    """Read a CSV file (path or open text stream) into a Dataset."""
    name, header, cells = _read_table(source)
    return _build_dataset(header, [_parse_column(c) for c in cells], len(cells[0]), name)


def ingest_csv_stratified(source, stratify: str) -> list[tuple[str, Dataset]]:
    """Split rows by the raw value of one column, then ingest each stratum.

    The stratify column itself is removed from the per-stratum datasets;
    rows with a missing stratum value are dropped up front.  Indicator
    expansion happens independently within each stratum.
    """
    name, header, cells = _read_table(source)
    if stratify not in header:
        raise KeyError(f"no column {stratify!r}; available: {', '.join(header)}")
    j = header.index(stratify)
    labels = cells.pop(j)
    sub_header = header[:j] + header[j + 1:]

    group_of: dict[str, int] = {}
    group_of_cell = {cell: group_of.setdefault(cell.strip(), len(group_of))
                     for cell in dict.fromkeys(labels)}
    groups = np.fromiter(map(group_of_cell.__getitem__, labels), np.intp, len(labels))
    blank = group_of.pop("", None)
    if blank is not None:
        warnings.warn(f"{name}: dropped {np.count_nonzero(groups == blank)} row(s) "
                      f"with a missing {stratify!r} value", stacklevel=2)
    if not group_of:
        raise EmptyAfterFilteringError(f"{name}: every row is missing {stratify!r}")
    columns = [_parse_column(c) for c in cells]
    strata = []
    for label in sorted(group_of):
        rows = np.flatnonzero(groups == group_of[label])
        strata.append((label, _build_dataset(sub_header, [c.take(rows) for c in columns],
                                             len(rows), f"{name}[{stratify}={label}]")))
    return strata


def dataset_to_csv(data: Dataset, stream: io.TextIOBase) -> None:
    """Write a Dataset back out as CSV with full-precision floats."""
    csv.writer(stream, lineterminator="\n").writerow(data.names)
    for start in range(0, data.n, _WRITE_BLOCK_ROWS):
        columns = data.values[start:start + _WRITE_BLOCK_ROWS].T.tolist()
        rows = zip(*[map(repr, col) for col in columns])
        stream.write("\n".join(map(",".join, rows)) + "\n")
