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
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import os
from dataclasses import fields
from typing import IO, Callable, Iterable, Iterator, Sequence

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


def read_csv(path: str, required: Sequence[str]) -> Iterator[tuple[int, dict[str, str]]]:
    """(physical line number, {column: cell}) for each row of a CSV file.

    Leading lines that start with # are skipped; the next line names the
    columns, none twice (blank names may repeat), and must include every
    required one. Cells are stripped, a short row's missing cells read as
    "", and blank lines are skipped. A file that cannot be opened or decoded
    raises ParseError naming the path.
    """
    with _open_input(path) as fh:
        try:
            skipped = 0
            first = fh.readline()
            while first.startswith("#"):
                skipped, first = skipped + 1, fh.readline()
            reader = csv.reader(itertools.chain([first], fh))
            columns = [c.strip() for c in next((row for row in reader if row), [])]
            if not set(required) <= set(columns):
                raise ValidationError(f"{path}: header must include {','.join(required)}")
            repeated = [c for i, c in enumerate(columns) if c and c in columns[:i]]
            if repeated:
                raise ValidationError(f"{path}: header names column {repeated[0]!r} twice")
            pad = [""] * len(columns)
            for cells in reader:
                if cells:
                    row = dict(zip(columns, [c.strip() for c in cells] + pad))
                    yield skipped + reader.line_num, row
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}: {exc}") from None


def read_number(path: str, lineno: int, row: dict[str, str], column: str,
                kind: Callable[[str], float] = float) -> float:
    """row[column] read by kind (float or int), or a ValidationError naming
    the file, line, cell and column."""
    cell = row[column]
    try:
        return kind(cell)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValidationError(
            f"{path} line {lineno}: {cell!r} in column {column!r} is not {noun}"
        ) from None


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

