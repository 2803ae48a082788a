"""Score matrices, aggregate scores, and person-space descriptive statistics.

A test administration is an N x n binary matrix: N examinees (rows) by
n items (columns), every cell 0 or 1.  Score vectors live in the
N-dimensional person space.  There the test mean and variance have
exact expressions through the norm of the score vector and its angle
against the all-correct reference vector I = (n, ..., n):

    mean     = ||X|| cos(theta_X) / sqrt(N)
    variance = ||X||^2 sin(theta_X)^2 / N        (population convention)
    ||I||    = sqrt(N n^2)

``descriptive_stats`` reports the norm and the angle, and takes the mean
and variance from exact integer sums, each rounded once.

Totals are exact integers; statistics are binary64 floats.  Missing
responses are not supported: every cell must be exactly 0 or 1.

Score files are comma-separated, one examinee per row; examinees are
known by their 0-based row positions.  ``load_score_matrix`` maps a
file given by path instead of copying it, and parses canonical rows
in place as (cell, separator) byte pairs, a block of rows at a time.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import mmap
import os
import stat
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, ShapeError, TooSmall

__all__ = [
    "ScoreMatrix",
    "ItemScores",
    "ExamineeScores",
    "TestStats",
    "load_score_matrix",
    "write_score_matrix",
    "item_totals",
    "descriptive_stats",
]

# cells per row block of the canonical parse: its uint16 buffer stays small
_BLOCK_CELLS = 1 << 16


def _totals(values, noun: str) -> np.ndarray:
    """``values`` as one frozen int64 copy, if it is a nonempty
    1-dimensional vector of nonnegative integers."""
    totals = np.asarray(values)
    if totals.ndim != 1 or totals.size < 1:
        raise ShapeError(f"{noun} must be a nonempty 1-dimensional vector")
    if not np.issubdtype(totals.dtype, np.integer) or (totals < 0).any():
        raise DomainViolation(f"{noun} must be nonnegative integers")
    totals = totals.astype(np.int64)
    totals.setflags(write=False)
    return totals


def _is_binary(entries: np.ndarray) -> bool:
    """Whether every cell is 0 or 1.

    Integer input needs only its minimum and maximum, so no N x n
    boolean temporary is made; other dtypes compare cell by cell.
    """
    if entries.dtype == np.bool_:
        return True
    if entries.dtype.kind in "iu":
        return bool(entries.min() >= 0 and entries.max() <= 1)
    return bool(np.isin(entries, (0, 1)).all())


@dataclass(frozen=True)
class ScoreMatrix:
    """Immutable N x n matrix of binary item responses.

    ``entries[i, j]`` is examinee i's score on item j, either 0 or 1.
    Examinees are known by their row positions, items by their columns.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries)
        if entries.ndim != 2:
            raise ShapeError(f"score matrix must be 2-dimensional, got shape {entries.shape}")
        n_examinees, n_items = entries.shape
        if n_examinees < 2 or n_items < 2:
            raise TooSmall(
                f"need at least 2 examinees and 2 items, got {n_examinees} x {n_items}"
            )
        if not _is_binary(entries):
            i, j = np.argwhere(~np.isin(entries, (0, 1)))[0]
            raise DomainViolation(
                f"non-binary value {entries[i, j]!r} at row {i + 1}, column {j + 1}"
            )
        frozen = entries.astype(np.int8, copy=True)
        frozen.setflags(write=False)
        object.__setattr__(self, "entries", frozen)

    @property
    def n_examinees(self) -> int:
        return self.entries.shape[0]

    @property
    def n_items(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class ItemScores:
    """Per-item totals: number of correct responses to each item."""

    totals: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "totals", _totals(self.totals, "item totals"))

    def as_ints(self) -> list[int]:
        """Totals as plain Python integers, for exact arithmetic."""
        return [int(t) for t in self.totals]


@dataclass(frozen=True)
class ExamineeScores:
    """Per-examinee totals: number of items each examinee got right."""

    totals: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "totals", _totals(self.totals, "examinee totals"))

    @property
    def n_examinees(self) -> int:
        return self.totals.size


@dataclass(frozen=True)
class TestStats:
    """Descriptive statistics of one test, with person-space geometry.

    ``notes`` carries degeneracy flags (e.g. an all-zero score vector
    leaves ``cos_theta_X`` undefined, reported as NaN).
    """

    __test__ = False  # not a pytest test class, despite its name

    mean: float
    variance: float
    norm_X: float
    norm_I: float
    cos_theta_X: float
    N: int
    n: int
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {**vars(self), "notes": list(self.notes)}


@dataclass(frozen=True)
class RowBlock:
    """The ``rows`` entry of a per-examinee table's ``to_dict()``, kept as columns.

    ``columns[k]`` is a 1-dimensional float64, int or bool numpy array
    holding the values of ``fields[k]``, one per row.  ``tolist()`` gives
    the list of row dicts the block stands for; the CLI's JSON writer
    renders it straight from the columns.  ``codes``, if given, is one
    nonnegative int per row; rows of one code are expected to share most
    columns, and ``coding()`` finds which.
    """

    fields: tuple[str, ...]
    columns: tuple[np.ndarray, ...]
    codes: np.ndarray | None = None

    def tolist(self) -> list[dict]:
        rows = zip(*(column.tolist() for column in self.columns))
        return [dict(zip(self.fields, values)) for values in rows]

    def coding(self) -> tuple[np.ndarray, np.ndarray, tuple[bool, ...]]:
        """Each row's code, one row per code, and which columns are coded.

        Column k is coded (``True``) when it holds the same bits in every
        row of a code, so -0.0 is not 0.0.  Without ``codes``, or with one
        reaching twice the row count, each row is its own code.  A code
        that no row has keeps row 0.
        """
        n_rows = len(self.columns[0]) if self.columns else 0
        codes = self.codes
        if codes is None or codes.max(initial=0) >= 2 * n_rows:
            codes = np.arange(n_rows)
        reps = np.zeros(codes.max(initial=-1) + 1, dtype=np.intp)
        reps[codes] = np.arange(n_rows)
        same = reps[codes]
        keys = (c.view(f"u{c.itemsize}") if c.dtype.kind == "f" else c for c in self.columns)
        return codes, reps, tuple(bool(np.array_equal(k[same], k)) for k in keys)


def _read(source) -> bytes | mmap.mmap:
    """The bytes of ``source``: bytes as given, or the file at a path.

    A non-empty regular file comes back as a read-only memory map, which
    the caller closes; any other (empty, a FIFO, a ``/proc`` file of size
    0) as bytes.  ``os.fspath`` refuses any other source with a TypeError,
    so a handle is never read, nor an int taken for a file descriptor.
    """
    if isinstance(source, bytes):
        return source
    with open(os.fspath(source), "rb") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size > 0:
            return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        return fh.read()


def _parse_pairs(
    data: bytes | mmap.mmap, offset: int, n_rows: int, n_items: int
) -> np.ndarray | None:
    """The int8 cells of ``n_rows`` rows ``c,c,...,c\\n`` at ``data[offset:]``.

    The body is read as little-endian uint16 (cell, separator) pairs.
    Less the expected pair ``','<<8 | '0'`` (``'\\n'<<8 | '0'`` in the
    last column), a pair is 0 or 1 mod 2**16 exactly when its separator
    is right and its cell is ``0`` or ``1``; every other byte pair wraps
    round past 1.  Returns None at the first row block that holds such
    a pair.  Both arrays are allocated before the view of ``data`` is
    taken, so a failed allocation leaves no view to keep a map open.
    """
    rows_per_block = max(1, _BLOCK_CELLS // n_items)
    cells = np.empty((n_rows, n_items), dtype=np.int8)
    block = np.empty((min(rows_per_block, n_rows), n_items), dtype=np.uint16)
    expected = np.full(n_items, ord(",") << 8 | ord("0"), dtype=np.uint16)
    expected[-1] = ord("\n") << 8 | ord("0")
    pairs = np.frombuffer(data, dtype="<u2", count=n_rows * n_items, offset=offset)
    pairs = pairs.reshape(n_rows, n_items)
    for start in range(0, n_rows, rows_per_block):
        rows = pairs[start : start + rows_per_block]
        diff = block[: len(rows)]
        np.subtract(rows, expected, out=diff)
        if diff.max() > 1:
            return None
        cells[start : start + len(rows)] = diff
    return cells


def _load_canonical(data: bytes | mmap.mmap, has_header: bool) -> ScoreMatrix | None:
    """Parse rows written exactly as ``c,c,...,c\\n`` without the csv module.

    ``data`` is bytes or a memory map; the body is read in place, not
    copied, unless the final newline is missing.  Returns None for
    anything else (CRLF, padding, quotes, blank or ragged rows, bad
    cells, a blank or quoted header, too few rows or columns), which the
    csv reader then parses or rejects.
    """
    n_labels = offset = 0
    if has_header:
        end = data.find(b"\n")
        line = data[:end]
        # quotes and CR need the csv reader, and so does NUL, which the
        # reader of Python 3.10 rejects
        if end < 0 or any(b in line for b in (b'"', b"\r", b"\0")):
            return None
        try:
            labels = line.decode("utf-8").split(",")
        except UnicodeDecodeError:
            return None
        if all(cell.strip() == "" for cell in labels):
            return None
        n_labels = len(labels)
        offset = end + 1
    if data[-1:] != b"\n":
        data = bytes(data[offset:]) + b"\n"
        offset = 0
    body_bytes = len(data) - offset
    row_bytes = data.find(b"\n", offset) + 1 - offset
    n_items = row_bytes // 2
    if n_items < 2 or row_bytes % 2 or body_bytes % row_bytes or body_bytes < 2 * row_bytes:
        return None
    if has_header and n_labels != n_items:
        return None
    cells = _parse_pairs(data, offset, body_bytes // row_bytes, n_items)
    return None if cells is None else ScoreMatrix(entries=cells)


def _records(reader):
    """The reader's records, with a csv.Error (a lone CR, or on Python
    3.10 a NUL, in a cell) raised as a DomainViolation."""
    try:
        yield from reader
    except csv.Error as exc:
        # csv's own hint about universal-newline mode is no use to a caller
        reason = str(exc).partition(" - ")[0]
        raise DomainViolation(f"unreadable CSV at line {reader.line_num}: {reason}") from None


def _load_with_csv(data: bytes, has_header: bool) -> ScoreMatrix:
    """The csv-module parser: every input it accepts, every error message."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DomainViolation(
            f"input is not valid UTF-8: byte 0x{data[exc.start]:02x} at offset {exc.start}"
        ) from None
    reader = csv.reader(io.StringIO(text))
    n_labels = None
    rows: list[list[int]] = []
    width = None
    data_row = 0
    for record in _records(reader):
        if not record or all(cell.strip() == "" for cell in record):
            continue
        if has_header and n_labels is None:
            n_labels = len(record)
            continue
        data_row += 1
        if width is None:
            width = len(record)
        elif len(record) != width:
            raise ShapeError(f"row {data_row} has {len(record)} values, expected {width}")
        parsed = []
        for col, cell in enumerate(record, start=1):
            value = cell.strip()
            if value == "0":
                parsed.append(0)
            elif value == "1":
                parsed.append(1)
            else:
                raise DomainViolation(
                    f"non-binary value {cell.strip()!r} at row {data_row}, column {col}"
                )
        rows.append(parsed)
    if not rows or width is None or len(rows) < 2 or width < 2:
        raise TooSmall(
            f"need at least 2 examinees and 2 items, got {len(rows)} x {width or 0}"
        )
    if n_labels is not None and n_labels != width:
        raise ShapeError(f"header has {n_labels} labels for {width} columns")
    return ScoreMatrix(entries=np.array(rows, dtype=np.int8))


def load_score_matrix(source, *, has_header: bool = False) -> ScoreMatrix:
    """Parse a comma-separated UTF-8 table of 0/1 cells into a ScoreMatrix.

    ``source`` is a path (``str`` or ``os.PathLike``) or the file's bytes.
    Each row is one examinee, each column one item; with ``has_header``
    a first row of item labels is checked (one per column) and skipped.
    Cells must be exactly "0" or "1" after whitespace trimming; anything
    else (including blanks) is a DomainViolation naming the 1-based row
    and column, and so is input that is not valid UTF-8 or that the csv
    module cannot read (a lone carriage return in a cell).  Ragged rows
    are a ShapeError.  Fewer than 2 rows or columns is TooSmall.

    A non-empty regular file is memory-mapped read-only and the map is
    closed before return; a file truncated while it is read can end the
    process with SIGBUS.  Rows written exactly as ``c,c,...,c\\n`` are
    checked and converted in place, as 16-bit (cell, separator) pairs in
    blocks of rows; any other input goes through the csv module, with
    the same result.
    """
    data = _read(source)
    try:
        m = _load_canonical(data, has_header)
        if m is not None:
            return m
        return _load_with_csv(bytes(data), has_header)
    finally:
        if isinstance(data, mmap.mmap):
            data.close()


def write_score_matrix(m: ScoreMatrix, dest) -> str:
    """Serialize a ScoreMatrix as ``c,c,...,c\\n`` rows (no header) to the
    path ``dest``; ``load_score_matrix`` reads it back.  Returns the
    sha256 hex digest of the bytes written."""
    n_examinees, n_items = m.entries.shape
    body = np.empty((n_examinees, 2 * n_items), dtype=np.uint8)
    body[:, 0::2] = m.entries + ord("0")
    body[:, 1::2] = ord(",")
    body[:, -1] = ord("\n")
    with open(os.fspath(dest), "wb") as fh:
        fh.write(body)
    return hashlib.sha256(body).hexdigest()


def item_totals(m: ScoreMatrix) -> ItemScores:
    """Column sums: totals[j] = number of examinees who got item j right."""
    return ItemScores(m.entries.sum(axis=0, dtype=np.int64))


def descriptive_stats(x: ExamineeScores, n: int) -> TestStats:
    """Mean, variance, and person-space geometry of a score vector.

    Parameters
    ----------
    x : ExamineeScores
        Observed total scores of the N examinees.
    n : int
        Number of items in the test the scores came from (defines the
        reference vector I = (n, ..., n)).

    Returns
    -------
    TestStats
        ``mean`` = sum X / N and ``variance`` = (N sum X^2 - (sum X)^2) / N^2,
        each the exact rational rounded once.  An all-zero score vector
        yields cos_theta_X = NaN and a note, since the angle is undefined
        at the origin.

    Raises
    ------
    TooSmall
        If fewer than 2 examinees, or n < 1.
    """
    if n < 1:
        raise TooSmall(f"need n >= 1, got {n}")
    n_examinees = x.n_examinees
    if n_examinees < 2:
        raise TooSmall(f"need at least 2 examinees, got {n_examinees}")
    total = int(x.totals.sum())
    sum_sq = int(np.dot(x.totals, x.totals))
    norm_x = math.sqrt(sum_sq)

    notes: tuple[str, ...] = ()
    if norm_x == 0.0:
        cos_theta = math.nan
        notes = ("cos_theta_X undefined: all scores are zero",)
    else:
        # cos(theta_X) = sum(X_i * n) / (||X|| * ||I||); the n cancels.
        cos_theta = total / (norm_x * math.sqrt(n_examinees))

    return TestStats(
        mean=total / n_examinees,
        variance=(n_examinees * sum_sq - total * total) / (n_examinees * n_examinees),
        norm_X=norm_x,
        norm_I=n * math.sqrt(n_examinees),
        cos_theta_X=cos_theta,
        N=n_examinees,
        n=n,
        notes=notes,
    )
