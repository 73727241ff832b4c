"""CSV/JSON emission and re-reading for every artifact the CLI produces.

All writers go through an atomic write-temp-then-rename so partially
written files never appear under the final name; the file mode follows the
umask.  Numbers are printed with 17 significant digits, enough to
round-trip float64 exactly.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from collections.abc import Iterable
from itertools import islice
from pathlib import Path

import numpy as np

from .factors import SparseFactor

FLOAT_FMT = "%.17g"
MATRIX_HEADER = ("row", "col", "re", "im")
_READ_LINES = 16_384
_MEMO_SIZE = 16_384


def _atomic_write_text(path: Path, text: str | Iterable[str]) -> None:
    """Write a string, or an iterable of string pieces, to path atomically."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)   # the mode open() gives, not mkstemp's 0600
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _table_text(header: tuple[str, ...], rows) -> str:
    """A header line, then one line per row: ints by %d, floats by FLOAT_FMT.

    Each column keeps the type of its first value, so the first row fixes
    one format for every row.
    """
    lines = [",".join(header)]
    fmt = None
    for values in rows:
        if fmt is None:
            fmt = ",".join("%d" if isinstance(v, (int, np.integer)) else FLOAT_FMT
                           for v in values)
        lines.append(fmt % tuple(values))
    return "\n".join(lines) + "\n"


def write_sparse_factor_csv(path: Path, factor: SparseFactor) -> None:
    """One line per nonzero: row,col,re,im."""
    _atomic_write_text(path, _table_text(
        MATRIX_HEADER, ((r, c, v.real, v.imag) for r, c, v in factor.entries)))


def write_dense_matrix_csv(path: Path, matrix: np.ndarray) -> None:
    """One line per entry: row,col,re,im (row-major order), streamed by row.

    A transform matrix holds a few thousand distinct floats among its
    millions, so each distinct float is formatted once: a memo keyed on
    the value's bits (which keeps -0.0 apart from 0.0) is emptied whenever
    it would pass _MEMO_SIZE texts.  Every row goes through the memo, so a
    row of new values costs one memo entry per distinct float.
    """
    matrix = np.ascontiguousarray(matrix, dtype=complex)
    nrows, ncols = matrix.shape
    # Joining with str(r) puts the row number before every cell, so the row
    # and column numbers are literals of the format and only the floats, re
    # and im interleaved as in the complex row, go through %.
    cells = ["", *(f",{c},%s,%s\n" for c in range(ncols))]
    memo: dict[int, str] = {}

    def lines():
        yield ",".join(MATRIX_HEADER) + "\n"
        for r in range(nrows):
            values = matrix[r].view(float)
            keys, inverse = np.unique(values.view(np.uint64), return_inverse=True)
            keys = keys.tolist()
            missing = [k for k in keys if k not in memo]
            if len(memo) + len(missing) > _MEMO_SIZE:
                memo.clear()
                missing = keys
            floats = np.array(missing, dtype=np.uint64).view(float).tolist()
            memo.update(zip(missing, [FLOAT_FMT % v for v in floats]))
            texts = np.array([memo[k] for k in keys], dtype=object)[inverse]
            yield str(r).join(cells) % tuple(texts.tolist())

    _atomic_write_text(path, lines())


def read_matrix_csv(path: Path, size: int | None = None) -> np.ndarray:
    """Rebuild a dense complex matrix from row,col,re,im lines.

    Works for both the sparse and the dense layout; unlisted cells are zero.
    Lines are parsed by numpy, _READ_LINES at a time.
    """
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")
        if tuple(header) != MATRIX_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        chunks = []
        while lines := list(islice(handle, _READ_LINES)):
            chunks.append(np.loadtxt(lines, delimiter=",", ndmin=2))
    if size is None:
        size = int(max(rec[:, :2].max() for rec in chunks)) + 1
    out = np.zeros((size, size), dtype=complex)
    while chunks:
        rec = chunks.pop(0)   # freed once placed, as the pages of out fill
        rows, cols = rec[:, 0].astype(np.intp), rec[:, 1].astype(np.intp)
        # Set the parts separately: re + 1j*im loses the sign of a -0.0.
        out.real[rows, cols] = rec[:, 2]
        out.imag[rows, cols] = rec[:, 3]
    return out


def write_table_csv(path: Path, header: tuple[str, ...], columns) -> None:
    """Write parallel columns under a header row."""
    columns = [np.asarray(c) for c in columns]
    if len(columns) != len(header):
        raise ValueError("one column per header field required")
    _atomic_write_text(path, _table_text(header, zip(*(c.tolist() for c in columns))))


def read_table_csv(path: Path) -> dict[str, np.ndarray]:
    """Read a column-oriented CSV back into arrays keyed by header name."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, no header line")
        rows = [rec for rec in reader]
    out = {}
    for i, name in enumerate(header):
        col = [row[i] for row in rows]
        try:
            # str() of an int never gives "-0"; FLOAT_FMT of -0.0 does.
            if "-0" in col:
                raise ValueError("negative zero")
            out[name] = np.array([int(v) for v in col])
        except ValueError:
            out[name] = np.array([float(v) for v in col])
    return out


def write_json(path: Path, payload) -> None:
    _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
