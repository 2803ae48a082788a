"""The CLI's one JSON writer, against ``json.dumps`` on the plain value,
and its CSV writer, against ``csv.writer``.

``cli._dump`` renders a whole report in one indented pass: dicts with
``str(k)`` keys, lists and arrays, ``RowBlock``s in chunks of rows built
from each column's value texts, numpy scalars, and NaN or inf as
``null``.  On random nested values, and at any chunk size, it must
write exactly what ``json.dumps(json_safe(v), indent=2,
sort_keys=True)`` writes for the same value with every ``RowBlock``
replaced by its row dicts.  ``cli._csv`` renders a ``RowBlock``'s rows
with the same renderer, and must write what a ``csv.writer`` loop over
its fields and row values writes, with ``\n`` line ends.
"""

import csv
import io
import json
import math
from contextlib import redirect_stdout
from itertools import accumulate
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splitrel import cli
from splitrel.cli import _dump
from splitrel.truescore import RowBlock

from conftest import json_safe

# quotes, backslashes, control characters, non-ASCII text, NUL, "%" and
# braces
TEXT = st.text(alphabet=st.sampled_from('ab"\\/%{}\x00\x01\x1f\t\n é€😀 '), max_size=6)
INT64 = st.integers(-(2**63), 2**63 - 1)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | TEXT
    | INT64.map(np.int64)
    | st.floats().map(np.float64)
)


def arrays(min_size=0, max_size=4, ints=INT64, floats=st.floats()):
    def of(values, dtype):
        lists = st.lists(values, min_size=min_size, max_size=max_size)
        return lists.map(lambda v: np.array(v, dtype=dtype))

    return of(ints, np.int64) | of(floats, np.float64) | of(st.booleans(), bool)


# few values, so that a column repeats them: a float column mixes 0.0
# with -0.0, and an int column the int64 extremes with wide draws
POOLED_FLOATS = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 0.1, -2.5, 1e300])
POOLED_INTS = st.sampled_from([0, -1, 2**63 - 1, -(2**63 - 1), -(2**63)]) | INT64


@st.composite
def increasing(draw, n_rows):
    """An increasing int64 column, as numbered ids are: a start and steps
    of at least 1, up to the int64 extremes."""
    start = draw(st.integers(-(2**63) - 1, 2**62 - 1))
    steps = st.lists(st.integers(1, 2) | st.integers(1, 2**58), min_size=n_rows, max_size=n_rows)
    return np.array([start + s for s in accumulate(draw(steps))], dtype=np.int64)


@st.composite
def row_blocks(draw):
    """Columns of one length, each a float64, int64 or bool numpy array.

    Pooled columns repeat values, so that consecutive ones form many
    joint combinations.  A coded block takes its codes from a small pool
    (up to twice the row count, past which each row is its own code).
    Most of its columns are gathered from one value per code; the others,
    such as 0.0 and -0.0 within one code, are no function of the codes
    and take the writer's one-text-per-row path."""
    fields = draw(st.lists(TEXT, unique=True, max_size=4))
    n_rows = draw(st.integers(0, 1) | st.integers(0, 16))
    pooled = arrays(n_rows, n_rows, POOLED_INTS, POOLED_FLOATS)
    column = increasing(n_rows) | arrays(n_rows, n_rows) | pooled
    codes = draw(st.none() | st.lists(st.integers(0, 3), min_size=n_rows, max_size=n_rows))
    if codes is None:
        return RowBlock(tuple(fields), tuple(draw(column) for _ in fields))
    codes = np.array(codes, dtype=np.int64)
    per_code = arrays(4, 4, POOLED_INTS, POOLED_FLOATS).map(lambda values: values[codes])
    signs = st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)
    zeros = signs.map(lambda negative: np.where(negative, -0.0, 0.0))
    kinds = st.sampled_from([per_code, per_code, zeros, column])
    return RowBlock(tuple(fields), tuple(draw(draw(kinds)) for _ in fields), codes)


VALUES = st.recursive(
    SCALARS | arrays() | row_blocks(),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.integers(-3, 3) | TEXT, children, max_size=4)
    ),
    max_leaves=25,
)


def plain(value):
    """``value`` with every ``RowBlock`` replaced by its row dicts."""
    if isinstance(value, RowBlock):
        return plain(value.tolist())
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


# the writer's chunk size, cli._CHUNK_ROWS
CHUNK = 4096


def dumped(envelope) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        _dump(envelope, None)
    return out.getvalue()


def reference(envelope) -> str:
    return json.dumps(json_safe(plain(envelope)), indent=2, sort_keys=True) + "\n"


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.dictionaries(st.integers(-3, 3) | TEXT, VALUES, max_size=5),
    st.sampled_from([1, 2, 3, CHUNK]),
)
def test_dump_writes_the_bytes_of_json_dumps(envelope, chunk_rows):
    with patch.object(cli, "_CHUNK_ROWS", chunk_rows):
        assert dumped(envelope) == reference(envelope)


@pytest.mark.parametrize("n_rows", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_row_blocks_across_chunk_boundaries(n_rows):
    rng = np.random.default_rng(n_rows)
    block = RowBlock(
        ("id", "observed", "estimate", "flag", "serial"),
        (
            np.arange(n_rows) * 3 - 2**40,
            rng.integers(0, 5, n_rows),
            rng.choice([0.0, -0.0, 0.1, math.nan, -2.5], n_rows),
            rng.integers(0, 2, n_rows).astype(bool),
            np.arange(n_rows) + 2**40,
        ),
    )
    envelope = {"table": {"rows": block, "n": n_rows}}
    assert dumped(envelope) == reference(envelope)


def test_keys_colliding_as_strings_keep_the_last_value():
    envelope = {1: "int", "1": "str", "rows": RowBlock(("a",), (np.array([]),))}
    assert dumped(envelope) == '{\n  "1": "str",\n  "rows": []\n}\n'


def test_row_codes_refine_across_chunks():
    # coded by "base", the columns "half" and "odd" are functions of it and
    # rendered once per code, while "id" and "noise" are rendered per row
    n_rows = 2 * CHUNK + 7
    rng = np.random.default_rng(7)
    base = rng.integers(0, 9, n_rows)
    noise = rng.choice([0.0, -0.0, math.nan, 0.25], n_rows)
    block = RowBlock(
        ("half", "id", "odd", "base", "noise"),
        (np.where(base == 0, -0.0, base / 2), np.arange(n_rows), base % 2 == 1, base, noise),
        codes=base,
    )
    assert block.coding()[2] == (True, False, True, True, False)
    envelope = {"table": {"rows": block}}
    assert dumped(envelope) == reference(envelope)


def csv_reference(block: RowBlock) -> str:
    """What a ``csv.writer`` loop writes for the fields and rows of ``block``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(block.fields)
    for row in block.tolist():
        writer.writerow(row.values())
    return buf.getvalue()


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(row_blocks(), st.sampled_from([1, 2, 3, CHUNK]))
def test_csv_writes_the_bytes_of_csv_writer(block, chunk_rows):
    with patch.object(cli, "_CHUNK_ROWS", chunk_rows):
        try:
            expected = csv_reference(block)
        except csv.Error:
            # before Python 3.11 the writer refuses a NUL in a field name
            with pytest.raises(csv.Error):
                "".join(cli._csv(block))
            return
        assert "".join(cli._csv(block)) == expected
