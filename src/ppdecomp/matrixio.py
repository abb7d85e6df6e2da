"""Matrix CSV ingestion/persistence and atomic file writes.

The CSV dialect is a plain numeric RFC-4180 subset: comma separator, '.'
decimal point, one row per line, optional single header row. Rows are the
shared samples, columns the per-view features.
"""

from __future__ import annotations

import csv
import os
import tempfile
import warnings

import numpy as np

from .exceptions import InvalidInput, ParseError


def _loadtxt(path, has_header: bool) -> np.ndarray:
    """The matrix as ``np.loadtxt`` parses it, from one read of the file.

    ``loadtxt`` skips empty lines, which ``read_matrix_csv`` rejects, and
    reads some non-ASCII cells (``1\u00a0``) that the dialect excludes, so
    input with either raises ValueError here. ``loadtxt`` only warns about an
    input without data rows, so the warning is raised.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        raise ValueError("non-ASCII input")
    lines = data.splitlines()   # lines end in LF, CR LF or CR
    del data
    if b"" in lines:
        raise ValueError("empty line")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt((line.decode("ascii") for line in lines), delimiter=",",
                          comments=None, skiprows=int(has_header), ndmin=2)


def _cell(text: str, path, lineno: int, col: int) -> float:
    """``float(text)`` for a cell of the documented dialect, else ParseError.

    ``float`` also reads digit-group underscores (``1_000``) and non-ASCII
    digits and spaces (``\u0661``, ``\uff11``); the dialect has neither.
    """
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


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory plus rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_matrix_csv(path, matrix, header=None) -> None:
    """Write a matrix as CSV; floats use their shortest exact representation."""
    matrix = np.asarray(matrix, dtype=float)
    lines = []
    if header is not None:
        lines.append(",".join(header))
    for row in matrix:
        lines.append(",".join(repr(float(v)) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")
