"""Score-matrix CSV I/O: the byte-block fast paths against csv-module references.

``load_score_matrix`` parses canonical files (rows written exactly as
``c,c,...,c\\n``) as 16-bit (cell, separator) pairs, in place, and sends
everything else to the kept csv-module parser,
``data_model._load_with_csv``.  The property tests perturb random
matrices in every way that leaves the canonical form, and an exhaustive
oracle substitutes every byte value at every position of small files;
both loaders must return the same matrix or raise the same error, from
bytes, text or a path.  ``write_score_matrix`` is compared byte for byte with a
``csv.writer`` reference.
"""

import csv
import io
import mmap
import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splitrel import ScoreMatrix, ToolkitError, load_score_matrix, write_score_matrix
from splitrel import data_model

PERTURBATIONS = (
    "crlf",
    "padded_cell",
    "quoted_cell",
    "blank_line",
    "no_final_newline",
    "bad_cell",
    "ragged_row",
    "bad_utf8",
    "other_delimiter",
)
# separators of the other_delimiter perturbation; score files use ","
OTHER_DELIMITERS = (";", "\t")
BAD_CELLS = ("2", "", "x", "01", "1 1", "-0", "é")
ID_ALPHABET = "abXY_-.é\"'; \t,"

PROPERTY = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def describe(m):
    return m.entries.tolist(), m.entries.dtype, m.item_ids


def outcome(load, source, **kwargs):
    """What a loader makes of an input: the matrix and ids, or the error."""
    try:
        return describe(load(source, **kwargs))
    except ToolkitError as exc:
        return type(exc), str(exc)


def reference_load(source, *, has_header=False):
    return data_model._load_with_csv(source, has_header)


def reference_write(m, header):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if header and m.item_ids is not None:
        writer.writerow(m.item_ids)
    for row in m.entries:
        writer.writerow([int(v) for v in row])
    return out.getvalue()


@st.composite
def score_files(draw):
    """A random 0/1 matrix as delimited bytes, with random perturbations."""
    n_rows = draw(st.integers(1, 7))
    n_cols = draw(st.integers(1, 7))
    size = n_rows * n_cols
    cells = draw(st.lists(st.sampled_from("01"), min_size=size, max_size=size))
    rows = [cells[r * n_cols : (r + 1) * n_cols] for r in range(n_rows)]
    chosen = draw(st.sets(st.sampled_from(PERTURBATIONS), max_size=3))
    delimiter = ","
    if "other_delimiter" in chosen:
        delimiter = draw(st.sampled_from(OTHER_DELIMITERS))

    def pick_cell():
        r = draw(st.integers(0, n_rows - 1))
        return r, draw(st.integers(0, len(rows[r]) - 1))

    if "padded_cell" in chosen:
        r, c = pick_cell()
        pad = draw(st.sampled_from([" ", "  "]))
        rows[r][c] = pad + rows[r][c] + draw(st.sampled_from(["", " "]))
    if "quoted_cell" in chosen:
        r, c = pick_cell()
        rows[r][c] = f'"{rows[r][c]}"'
    if "bad_cell" in chosen:
        r, c = pick_cell()
        rows[r][c] = draw(st.sampled_from(BAD_CELLS))
    if "ragged_row" in chosen:
        r = draw(st.integers(0, n_rows - 1))
        if draw(st.booleans()) and len(rows[r]) > 1:
            rows[r].pop()
        else:
            rows[r].append(draw(st.sampled_from("01")))
    lines = [delimiter.join(row) for row in rows]
    if "blank_line" in chosen:
        blank = draw(st.sampled_from(["", " ", delimiter]))
        lines.insert(draw(st.integers(0, len(lines))), blank)

    has_header = draw(st.booleans())
    if draw(st.booleans()):
        n_labels = draw(st.integers(n_cols, n_cols + 1))
        label = st.text(ID_ALPHABET, min_size=1, max_size=4)
        ids = draw(st.lists(label, min_size=n_labels, max_size=n_labels))
        head = io.StringIO()
        csv.writer(head, delimiter=delimiter, lineterminator="\n").writerow(ids)
        lines.insert(0, head.getvalue()[:-1])

    newline = "\r\n" if "crlf" in chosen else "\n"
    text = newline.join(lines)
    if "no_final_newline" not in chosen:
        text += newline
    data = text.encode("utf-8")
    if "bad_utf8" in chosen:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    as_text = draw(st.booleans()) and "bad_utf8" not in chosen
    return data, as_text, has_header


@pytest.fixture(scope="module")
def score_path(tmp_path_factory):
    return tmp_path_factory.mktemp("score_files") / "scores.csv"


@PROPERTY
@given(case=score_files())
def test_loader_agrees_with_csv_reference(case, score_path):
    data, as_text, has_header = case
    content = data.decode("utf-8") if as_text else data
    source = io.StringIO(content) if as_text else data
    got = outcome(load_score_matrix, source, has_header=has_header)
    want = outcome(reference_load, content, has_header=has_header)
    assert got == want
    # the CLI passes a path, which a non-empty file reaches as a memory map
    score_path.write_bytes(data)
    assert outcome(load_score_matrix, score_path, has_header=has_header) == want


@pytest.mark.parametrize(
    "data, has_header, kind",
    [
        (b"", False, data_model.TooSmall),
        (b"0,1\n1,0\n1,1", False, list),
        (b"a,b,c\n0,1,1\n1,0,0\n", True, list),
        (b"q1,q2\n0,1\n1,1", True, list),
        (b"q1,q2\n", True, data_model.TooSmall),
    ],
    ids=["empty", "no_final_newline", "header", "header_no_final_newline", "header_only"],
)
def test_file_by_path_agrees_with_csv_reference(tmp_path, data, has_header, kind):
    # kind: the error class, or list for the cells of a loaded matrix
    path = tmp_path / "scores.csv"
    path.write_bytes(data)
    want = outcome(reference_load, data, has_header=has_header)
    assert want[0] is kind or type(want[0]) is kind
    assert outcome(load_score_matrix, path, has_header=has_header) == want
    assert outcome(load_score_matrix, str(path), has_header=has_header) == want


@pytest.mark.parametrize(
    "data", [b"0,1\n1,0\n", b"0,1\n1,2\n", b"0, 1\n1,0\n"], ids=["canonical", "bad_cell", "csv"]
)
def test_memory_map_is_closed_on_return(tmp_path, monkeypatch, data):
    maps = []

    class RecordedMap(mmap.mmap):
        def __new__(cls, *args, **kwargs):
            maps.append(super().__new__(cls, *args, **kwargs))
            return maps[-1]

    monkeypatch.setattr(mmap, "mmap", RecordedMap)
    path = tmp_path / "scores.csv"
    path.write_bytes(data)
    want = outcome(reference_load, data)
    assert outcome(load_score_matrix, path) == want
    assert len(maps) == 1 and maps[0].closed


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_fifo_is_read_like_a_file(tmp_path):
    # a FIFO reports size 0 and cannot be mapped, so it is read to its end
    data = b"0,1,1\n1,0,1\n1,1,0\n"
    path = tmp_path / "scores.fifo"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
    writer.start()
    got = outcome(load_score_matrix, path)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert got == outcome(reference_load, data)


# canonical files whose every byte the exhaustive oracle replaces by each of 0-255
SMALL_FILES = (
    (b"0,1,1\n1,0,0\n1,1,0\n", False),
    (b"a,b,c\n0,1,1\n1,0,0\n1,1,0\n", True),
)


@pytest.mark.parametrize("data, has_header", SMALL_FILES, ids=["plain", "header"])
@pytest.mark.parametrize("block_cells", [None, 1], ids=["one_block", "block_per_row"])
def test_every_byte_substitution_matches_the_csv_reference(
    monkeypatch, data, has_header, block_cells
):
    if block_cells is not None:
        monkeypatch.setattr(data_model, "_BLOCK_CELLS", block_cells)
    for at in range(len(data)):
        for byte in range(256):
            mutated = data[:at] + bytes([byte]) + data[at + 1 :]
            want = outcome(reference_load, mutated, has_header=has_header)
            parsed = data_model._load_canonical(mutated, has_header)
            assert parsed is None or describe(parsed) == want, (at, byte)
            assert outcome(load_score_matrix, mutated, has_header=has_header) == want, (at, byte)


@st.composite
def matrices(draw):
    n_rows = draw(st.integers(2, 6))
    n_cols = draw(st.integers(2, 6))
    size = n_rows * n_cols
    flat = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    ids = None
    if draw(st.booleans()):
        # the loader trims cells, so labels carry no edge whitespace
        label = st.text(ID_ALPHABET.replace(" ", "").replace("\t", ""), min_size=1, max_size=4)
        ids = draw(st.lists(label, min_size=n_cols, max_size=n_cols))
    return ScoreMatrix(np.array(flat).reshape(n_rows, n_cols), item_ids=ids)


@PROPERTY
@given(matrices(), st.booleans(), st.booleans())
def test_canonical_files_take_the_byte_block_path(m, header, final_newline):
    with_header = header and m.item_ids is not None and not any(
        "," in label or '"' in label for label in m.item_ids
    )
    text = reference_write(m, with_header)
    data = text.encode("utf-8") if final_newline else text[:-1].encode("utf-8")
    parsed = data_model._load_canonical(data, with_header)
    assert parsed is not None
    want = outcome(reference_load, data, has_header=with_header)
    assert describe(parsed) == want


@PROPERTY
@given(matrices())
def test_writer_matches_csv_writer_and_round_trips(m):
    out = io.StringIO()
    write_score_matrix(m, out)
    text = out.getvalue()
    assert text == reference_write(m, False)
    back = load_score_matrix(io.StringIO(text))
    assert np.array_equal(back.entries, m.entries)
    assert back.item_ids is None


def test_writer_to_path_matches_reference_bytes(tmp_path):
    rng = np.random.default_rng(4)
    ids = [f"qé{j}" for j in range(8)] + ['say "hi"']
    m = ScoreMatrix((rng.random((30, 9)) < 0.5).astype(int), item_ids=ids)
    path = tmp_path / "m.csv"
    write_score_matrix(m, path)
    assert path.read_bytes() == reference_write(m, False).encode("utf-8")
    back = load_score_matrix(path)
    assert np.array_equal(back.entries, m.entries) and back.item_ids is None


@pytest.mark.parametrize("data", [b"0,1,1\n1,0\r0\n1,1,0\n", b"0,1\n1,\r1\n0,0\n"])
def test_lone_carriage_return_in_a_cell_is_a_domain_violation(tmp_path, data):
    path = tmp_path / "cr.csv"
    path.write_bytes(data)
    message = r"^unreadable CSV at line 2: new-line character seen in unquoted field$"
    with pytest.raises(data_model.DomainViolation, match=message):
        load_score_matrix(path)


def test_invalid_utf8_is_a_domain_violation_with_offset():
    with pytest.raises(data_model.DomainViolation, match="not valid UTF-8: byte 0xff at offset 6"):
        load_score_matrix(b"0,1\n1,\xff\n0,0\n")
