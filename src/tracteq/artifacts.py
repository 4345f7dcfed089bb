"""Artifact files: atomic writes, the one CSV format, reading input files,
and dataclass fields as JSON values.

Every artifact is written to a temporary file in its own directory and then
moved into place with os.replace, so a stage that fails part-way leaves the
previous file, or none, but never a torn one. A CSV file is optional "# "
lines, the column row, then the rows; only a cell holding a comma, a quote
or a newline is quoted.

Every input file, CSV or JSON, is opened by one rule: UTF-8, with a leading
byte order mark dropped. A file that cannot be opened, decoded or parsed is a
ParseError whose message names the path once.

An input CSV file is read once, into columns: read_csv yields blocks of at
most BLOCK_ROWS rows, each holding its rows' line numbers and one list of
stripped cells per column. A loader checks a block a column at a time and
builds typed values from whole columns (Faults.numbers reads a column with
float or int). Faults keeps the error that a loop checking one row at a
time would raise first, so every message names the line it always named.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import os
from dataclasses import dataclass, fields
from typing import IO, Callable, Container, Hashable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ParseError, ValidationError


def write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write the concatenated chunks to path, all or nothing."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def fmt(value: float) -> str:
    """A float cell that reads back to the same float."""
    return repr(float(value))


class _Echo:
    """A file whose write returns its line: writerow then returns the row."""

    def write(self, line: str) -> str:
        return line


def write_csv(path: str, columns: Sequence[str], rows: Iterable[Sequence[str]],
              header_lines: Iterable[str] = ()) -> None:
    """Write "# " header lines, the column row, then the rows, all or nothing."""
    writer = csv.writer(_Echo(), lineterminator="\n")

    def lines():
        for line in header_lines:
            yield f"# {line}\n"
        yield writer.writerow(columns)
        for row in rows:
            yield writer.writerow(row)

    write_atomic(path, lines())


def _open_input(path: str) -> IO[str]:
    """path opened for reading as UTF-8, a leading byte order mark dropped;
    a ParseError naming the path when it cannot be opened."""
    try:
        return open(path, encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from None


def read_json(path: str):
    """The JSON document in path; a ParseError naming the path when it
    cannot be opened, decoded or parsed."""
    with _open_input(path) as fh:
        try:
            return json.load(fh)
        # ValueError covers decode and syntax errors and over-long integers;
        # deep nesting exhausts the parser's recursion limit.
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"{path}: {exc}") from None


# Rows per block that read_csv yields: enough that a block's checks run as
# a few calls over whole columns, few enough that a block's cells stay small
# beside the typed arrays a loader builds from them.
BLOCK_ROWS = 512


@dataclass(frozen=True)
class CsvBlock:
    """Consecutive rows of a CSV file, column by column: row i sits on
    physical line lines[i] of path, and cells[column][i] is its stripped
    cell in that column, "" where the row is short."""

    path: str
    lines: list[int]
    cells: dict[str, list[str]]

    def where(self, i: int) -> str:
        """Row i's file and line, as every message about a row begins."""
        return f"{self.path} line {self.lines[i]}"

    def faults(self) -> "Faults":
        return Faults(len(self.lines), self.where)


def read_csv(path: str, required: Sequence[str]) -> Iterator[CsvBlock]:
    """The rows of a CSV file in blocks of at most BLOCK_ROWS rows.

    Leading lines that start with # are skipped; the next line names the
    columns, none twice (blank names may repeat, and the last such column's
    cells are kept), and must include every required one. Cells are
    stripped, a short row's missing cells read as "", a long row's extra
    cells are dropped, and blank lines are skipped. A file that cannot be
    opened or decoded raises ParseError naming the path, after the block of
    the rows before the fault, so that a reader checking row by row meets a
    bad row before it first.
    """
    with _open_input(path) as fh:
        try:
            skipped = 0
            first = fh.readline()
            while first.startswith("#"):
                skipped, first = skipped + 1, fh.readline()
            reader = csv.reader(itertools.chain([first], fh))
            columns = [c.strip() for c in next((row for row in reader if row), [])]
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}: {exc}") from None
        if not set(required) <= set(columns):
            raise ValidationError(f"{path}: header must include {','.join(required)}")
        repeated = [c for i, c in enumerate(columns) if c and c in columns[:i]]
        if repeated:
            raise ValidationError(f"{path}: header names column {repeated[0]!r} twice")
        width = len(columns)
        pad = [""] * width
        rows: list[list[str]] = []
        lines: list[int] = []
        fault = None
        try:
            for cells in reader:
                if not cells:
                    continue
                if len(cells) != width:
                    cells = (cells + pad)[:width]
                rows.append(cells)
                lines.append(skipped + reader.line_num)
                if len(rows) == BLOCK_ROWS:
                    yield _block(path, columns, lines, rows)
                    rows, lines = [], []
        except (csv.Error, UnicodeDecodeError) as exc:
            fault = exc
        if rows:
            yield _block(path, columns, lines, rows)
        if fault is not None:
            raise ParseError(f"{path}: {fault}") from None


def _block(path: str, columns: list[str], lines: list[int], rows: list[list[str]]) -> CsvBlock:
    strip = str.strip
    return CsvBlock(path, lines, dict(zip(columns, (list(map(strip, col)) for col in zip(*rows)))))


class Faults:
    """The fault that checking rows one at a time would raise first.

    A loader checks a block's rows column by column: each check, in the
    order a row's checks are made, looks at the rows before end, and notes
    the first row i that breaks its rule, which sets end = i. So the fault
    kept is on the smallest row and, on that row, is the one checked first;
    raise_first raises it. where(i) names row i, as messages begin.
    """

    def __init__(self, n: int, where: Callable[[int], str]):
        self.end = n
        self.where = where
        self._message: str | None = None

    def note(self, i: int, message: str) -> None:
        """Row i breaks a rule, in the whole message given."""
        if i < self.end:
            self.end, self._message = i, message

    def numbers(self, cells: Sequence[str], column: str,
                kind: Callable[[str], float] = float) -> list:
        """cells[:end] read by kind (float or int), stopping before the first
        cell kind refuses, which is noted with its file, line, cell and
        column."""
        if len(cells) > self.end:
            cells = cells[:self.end]
        try:
            return list(map(kind, cells))
        except ValueError:
            pass
        values = []
        for cell in cells:
            try:
                values.append(kind(cell))
            except ValueError:
                noun = "an integer" if kind is int else "a number"
                i = len(values)
                self.note(i, f"{self.where(i)}: {cell!r} in column {column!r} is not {noun}")
                return values
        return values

    def raise_first(self) -> None:
        """Raise the fault noted, as a ValidationError, if there is one."""
        if self._message is not None:
            raise ValidationError(self._message)


def first_repeat(values: Sequence[Hashable], seen: Container = ()) -> int | None:
    """The index of the first value that is in seen or repeats an earlier
    one, or None."""
    earlier: set = set()
    for i, value in enumerate(values):
        if value in seen or value in earlier:
            return i
        earlier.add(value)
    return None


def to_dict(obj, exclude: Iterable[str] = ()) -> dict:
    """A dataclass's fields as JSON-ready values: arrays and tuples become lists."""
    out = {}
    for f in fields(obj):
        if f.name in exclude:
            continue
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out

