"""Matrix CSV ingestion/persistence and atomic file writes.

The CSV dialect is a plain numeric RFC-4180 subset: comma separator, '.'
decimal point, one row per line, optional single header row. Rows are the
shared samples, columns the per-view features. Files are read and written a
line at a time, so neither holds a whole file's text in memory.
"""

from __future__ import annotations

import contextlib
import csv
import os
import tempfile
import warnings

import numpy as np

from .exceptions import InvalidInput, ParseError


def _loadtxt(path, has_header: bool) -> np.ndarray:
    """The matrix as ``np.loadtxt`` parses it, streamed line by line.

    ``loadtxt`` skips empty lines, which ``read_matrix_csv`` rejects, and
    reads some non-ASCII cells (``1\u00a0``) that the dialect excludes, so
    input with either raises ValueError here (UnicodeDecodeError for a
    non-ASCII byte). Lines end in LF, CR LF or CR. ``loadtxt`` only warns
    about an input without data rows, so the warning is raised.
    """
    def nonempty(lines):
        for line in lines:
            if line == "\n":
                raise ValueError("empty line")
            yield line

    with open(path, encoding="ascii") as fh, warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(nonempty(fh), delimiter=",", comments=None,
                          skiprows=int(has_header), ndmin=2)


def _cell(text: str, path, lineno: int, col: int) -> float:
    """``float(text)`` for a cell of the documented dialect, else ParseError.

    ``float`` also reads digit-group underscores (``1_000``) and non-ASCII
    digits and spaces (``\u0661``, ``\uff11``); the dialect has neither.
    A UTF-8 byte-order mark, which spreadsheet exports put at the start of a
    file, is named as such.
    """
    if text.startswith("\ufeff") and (lineno, col) == (1, 1):
        raise ParseError(f"{path}: UTF-8 byte-order mark at line 1, column 1; "
                         "save the file without it", line=1, col=1)
    try:
        if "_" in text or not text.isascii():
            raise ValueError
        return float(text)
    except ValueError:
        raise ParseError(f"{path}: non-numeric cell {text!r} at line {lineno}, column {col}",
                         line=lineno, col=col) from None


def read_matrix_csv(path, has_header: bool = False) -> np.ndarray:
    """Read a rectangular numeric CSV into a float matrix.

    Valid input is parsed by ``np.loadtxt``. Input that it rejects, and any
    input with an empty line, is read again cell by cell with Python's
    ``float``, which decides what is accepted and reports the first bad line
    and column; cells with an underscore or a non-ASCII character are
    rejected there.
    """
    try:
        return _loadtxt(path, has_header)
    except (OSError, ValueError, Warning):
        pass
    rows = []
    width = None
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            for lineno, fields in enumerate(reader, start=1):
                if has_header and lineno == 1:
                    continue
                if width is None:
                    width = len(fields)
                if len(fields) != width:
                    raise ParseError(
                        f"{path}: line {lineno} has {len(fields)} fields, expected {width}",
                        line=lineno)
                rows.append([_cell(cell, path, lineno, col)
                             for col, cell in enumerate(fields, start=1)])
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not rows or width == 0:
        raise InvalidInput(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


@contextlib.contextmanager
def _atomic_open(path):
    """A temp file in ``path``'s directory, renamed over ``path`` if the
    block completes and removed on any exception."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory plus rename."""
    with _atomic_open(path) as fh:
        fh.write(text)


def write_matrix_csv(path, matrix, header=None) -> None:
    """Write a matrix as CSV; floats use their shortest exact representation."""
    matrix = np.asarray(matrix, dtype=float)
    with _atomic_open(path) as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        elif not len(matrix):
            fh.write("\n")   # no rows and no header: one empty line
        for row in matrix:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
