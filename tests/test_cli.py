"""CLI end-to-end: envelopes, schema conformance, exit codes, file outputs."""

import argparse
import csv
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import splitrel
from splitrel import ScoreMatrix, cli, write_score_matrix
from splitrel.cli import load_schema, main

from conftest import TABLE2_TOTALS, TABLE2_N, column_fill

# the true-score table's columns, in the order of the CSV header
TABLE_COLUMNS = ("observed", "estimate", "low", "high", "prediction_error", "out_of_range")


@pytest.fixture(scope="module")
def schema():
    return load_schema()


@pytest.fixture
def matrix_csv(tmp_path):
    rng = np.random.default_rng(60)
    m = ScoreMatrix((rng.random((120, 21)) < 0.6).astype(int))
    path = tmp_path / "m.csv"
    write_score_matrix(m, path)
    return str(path)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_json(schema, *argv):
    code, out, err = run_cli(*argv)
    assert code == 0, err
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    return doc


def test_split_reports_balanced_halves(schema, tmp_path):
    m = column_fill([TABLE2_TOTALS[j] for j in sorted(TABLE2_TOTALS)], TABLE2_N)
    path = tmp_path / "table2.csv"
    write_score_matrix(m, path)
    doc = run_json(schema, "split", "--input", str(path))
    assert doc["tool"] == "splitrel"
    assert doc["command"] == "split"
    report = doc["report"]
    assert report["sum_g"] == report["sum_h"] == 5011
    assert report["abs_S"] == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert doc["inputs"][str(path)] == digest


def test_split_envelope_has_no_timestamps(schema, matrix_csv):
    doc = run_json(schema, "split", "--input", matrix_csv)
    text = json.dumps(doc)
    assert "time" not in text and "date" not in text


def test_split_output_is_byte_stable(matrix_csv):
    code1, out1, _ = run_cli("split", "--input", matrix_csv)
    code2, out2, _ = run_cli("split", "--input", matrix_csv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_split_csv_format(matrix_csv):
    code, out, _ = run_cli("split", "--input", matrix_csv, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 10  # 21 items: one dropped, 10 rows of pairs
    assert {"g_item", "g_score", "h_item", "h_score", "difference"} <= set(rows[0])


def test_split_product_criterion(schema, matrix_csv):
    doc = run_json(schema, "split", "--input", matrix_csv, "--criterion", "product")
    assert doc["parameters"]["criterion"] == "product"
    assert doc["report"]["criterion"] == "product"


def test_reliability_report_structure(schema, matrix_csv):
    doc = run_json(schema, "reliability", "--input", matrix_csv)
    rep = doc["report"]
    assert set(rep["stats"]) == {"full", "g", "h"}
    assert rep["stats"]["full"]["N"] == 120
    assert 0.0 <= rep["reliability"]["r_tt"] <= 1.0 or rep["reliability"]["r_tt"] < 0
    hists = rep["histograms"]
    assert hists["bin_width"] == 1
    for key in ("full", "g", "h"):
        assert sum(hists[key]) == 120
    # geometry agrees with the reliability block
    geo = rep["true_score_geometry"]
    if geo is not None:
        assert geo["S_T_sq"] == pytest.approx(
            rep["reliability"]["r_tt"] * rep["stats"]["full"]["variance"], rel=1e-9
        )


def test_reliability_bin_width(schema, matrix_csv):
    doc = run_json(schema, "reliability", "--input", matrix_csv, "--bin-width", "5")
    hists = doc["report"]["histograms"]
    assert sum(hists["full"]) == 120
    assert hists["bin_width"] == 5


def test_truescore_table_and_percentile(schema, matrix_csv):
    doc = run_json(
        schema, "truescore", "--input", matrix_csv,
        "--kind", "split_half", "--percentile-of", "12",
    )
    rep = doc["report"]
    assert rep["table"]["reliability_kind"] == "split_half"
    assert len(rep["table"]["rows"]) == 120
    assert 0.0 <= rep["percentile"]["rank"] <= 100.0
    assert rep["table"]["rows"][0].keys() == set(TABLE_COLUMNS)
    assert rep["comparison"]["rows"][0].keys() == {"observed", "difference", "sign"}


# items 1-2 give every examinee one point and items 3-4 give 0 or 2, so
# the balanced split has a constant g half: r_gh is NaN and r_tt 0
CONSTANT_HALF = "1,0,1,1\n1,0,1,1\n1,0,0,0\n1,0,0,0\n0,1,1,1\n0,1,0,0\n"


def test_truescore_with_a_constant_half_writes_null_differences(schema, tmp_path):
    p = tmp_path / "constant-half.csv"
    p.write_text(CONSTANT_HALF)
    rep = run_json(schema, "truescore", "--input", str(p))["report"]
    assert rep["reliability"]["r_gh"] is None
    assert rep["reliability"]["r_tt"] == 0.0
    rows = rep["comparison"]["rows"]
    assert len(rows) == 6
    assert all(row["difference"] is None and row["sign"] == 0 for row in rows)


def test_truescore_with_a_negative_reliability_exits_two(tmp_path):
    # a well-formed D4 draw whose classical reliability is just below 0
    path = str(tmp_path / "d4.csv")
    code, _, err = run_cli("simulate", "--model", "D4", "--N", "500", "--n", "30",
                           "--seed", "1", "--output", path)
    assert code == 0, err
    code, out, err = run_cli("truescore", "--input", path)
    assert (code, out) == (2, "")
    assert err == (
        "error[Degenerate]: classical reliability is -0.0040497145204050735, "
        "outside [0, 1], so true scores are undefined\n"
    )


def test_truescore_on_an_undefined_split_half_reliability_exits_two(tmp_path):
    p = tmp_path / "constant-half.csv"
    p.write_text(CONSTANT_HALF)
    code, out, err = run_cli("truescore", "--input", str(p), "--kind", "split_half")
    assert (code, out) == (2, "")
    assert err == (
        "error[Degenerate]: split_half reliability is nan, "
        "outside [0, 1], so true scores are undefined\n"
    )


def test_truescore_csv_lists_every_examinee(matrix_csv):
    code, out, _ = run_cli("truescore", "--input", matrix_csv, "--format", "csv")
    assert code == 0
    reader = csv.DictReader(io.StringIO(out))
    assert tuple(reader.fieldnames) == TABLE_COLUMNS
    assert len(list(reader)) == 120
    assert "\r" not in out


def test_truescore_rows_are_numbered_by_position(tmp_path):
    # three chunks of rows; row i of each table and CSV data line i is
    # examinee i, and no column or list repeats the position
    path = str(tmp_path / "m.csv")
    assert main(["simulate", "--model", "D3", "--N", "12000", "--n", "41",
                 "--seed", "34", "--output", path]) == 0
    m = splitrel.load_score_matrix(path)
    scores = splitrel.sub_test_scores(m, splitrel.split(m).assignment).combined().tolist()

    code, out, err = run_cli("truescore", "--input", path)
    assert code == 0, err
    report = json.loads(out)["report"]
    assert "bins" not in report["table"]
    for name in ("table", "comparison"):
        rows = report[name]["rows"]
        assert not any("examinee_id" in row for row in rows)
        assert [row["observed"] for row in rows] == scores

    code, out, err = run_cli("truescore", "--input", path, "--format", "csv")
    assert code == 0, err
    header, *lines = out.split("\n")
    assert header.split(",") == list(TABLE_COLUMNS)
    assert lines.pop() == ""
    assert [int(line.split(",")[0]) for line in lines] == scores


def test_truescore_csv_streams_in_chunks_of_rows(tmp_path, monkeypatch):
    # four chunks of rows: the table is written piece by piece, never whole
    path = str(tmp_path / "m.csv")
    n_rows = 3 * cli._CHUNK_ROWS + 1
    assert main(["simulate", "--model", "D3", "--N", str(n_rows), "--n", "21",
                 "--seed", "7", "--output", path]) == 0
    pieces = []
    emit = cli._emit

    def recording(texts, output):
        pieces.extend(texts)
        emit(pieces, output)

    monkeypatch.setattr(cli, "_emit", recording)
    code, out, _ = run_cli("truescore", "--input", path, "--format", "csv")
    assert code == 0
    assert "".join(pieces) == out
    lines = out.splitlines(keepends=True)[1:]
    chunks = range(0, n_rows, cli._CHUNK_ROWS)
    longest = max(len("".join(lines[i : i + cli._CHUNK_ROWS])) for i in chunks)
    assert len(pieces) > 1
    assert max(map(len, pieces)) <= longest


def test_battery_two_inputs(schema, tmp_path):
    rng = np.random.default_rng(61)
    paths = []
    for i in range(2):
        m = ScoreMatrix((rng.random((90, 14)) < rng.random()).astype(int))
        p = tmp_path / f"t{i}.csv"
        write_score_matrix(m, p)
        paths.append(str(p))
    doc = run_json(schema, "battery", "--inputs", *paths)
    rep = doc["report"]["battery"]
    assert len(rep["per_test"]) == 2
    assert rep["weights"]["method"] == "lagrange"
    assert sum(rep["weights"]["w"]) == pytest.approx(1.0)
    assert len(doc["report"]["component_details"]) == 2
    assert len(doc["inputs"]) == 2


@pytest.mark.parametrize("method,expect", [
    ("nonneg", "nonneg_qp"),
    ("eigen-cov", "eigen_cov"),
    ("eigen-corr", "eigen_corr"),
    ("equal", "equal"),
])
def test_battery_weight_methods(schema, tmp_path, method, expect):
    rng = np.random.default_rng(62)
    paths = []
    for i in range(2):
        m = ScoreMatrix((rng.random((60, 12)) < 0.5).astype(int))
        p = tmp_path / f"w{i}.csv"
        write_score_matrix(m, p)
        paths.append(str(p))
    doc = run_json(schema, "battery", "--inputs", *paths, "--weights", method)
    assert doc["report"]["battery"]["weights"]["method"] == expect


def test_simulate_writes_matrix_and_sidecar(schema, tmp_path):
    out_path = tmp_path / "sim.csv"
    code, out, err = run_cli(
        "simulate", "--model", "D3", "--N", "50", "--n", "12",
        "--seed", "9", "--output", str(out_path),
    )
    assert code == 0, err
    meta = json.loads((tmp_path / "sim.csv.meta.json").read_text())
    jsonschema.validate(meta, load_schema())
    assert meta["report"]["generator"] == "numpy-pcg64"
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert meta["report"]["matrix_sha256"] == digest
    from splitrel import load_score_matrix
    m = load_score_matrix(out_path)
    assert m.n_examinees == 50 and m.n_items == 12


def test_simulate_round_trips_through_reliability(schema, tmp_path):
    out_path = tmp_path / "sim2.csv"
    assert run_cli(
        "simulate", "--model", "D1", "--N", "200", "--n", "20",
        "--seed", "4", "--output", str(out_path),
    )[0] == 0
    doc = run_json(schema, "reliability", "--input", str(out_path))
    assert doc["report"]["reliability"]["r_tt"] > 0.5


def test_output_flag_writes_file(schema, matrix_csv, tmp_path):
    dest = tmp_path / "report.json"
    code, out, _ = run_cli("split", "--input", matrix_csv, "--output", str(dest))
    assert code == 0
    assert out == ""
    jsonschema.validate(json.loads(dest.read_text()), schema)


def test_usage_errors_exit_one():
    assert run_cli("split")[0] == 1
    assert run_cli("frobnicate")[0] == 1


def test_the_schema_and_the_parser_name_the_same_commands(schema):
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    commands = list(subparsers.choices)
    assert schema["properties"]["command"]["enum"] == commands
    branches = [branch["if"]["properties"]["command"]["const"] for branch in schema["allOf"]]
    assert branches == commands
    reports = [name for name in schema["definitions"] if name.endswith("Report")]
    assert reports == [f"{command}Report" for command in commands]

    # a removed command is a usage error
    code, out, err = run_cli("scale", "--model", "D3", "--sizes", "40,9", "--seed", "3")
    assert (code, out) == (1, "")
    errors = [line for line in err.splitlines() if line.startswith("error")]
    assert len(errors) == 1
    assert errors[0].startswith("error[_UsageError]: argument command: invalid choice: 'scale' ")


@pytest.mark.parametrize("argv", [
    ("reliability", "--input", "m.csv", "--bin-width", "0"),
    ("simulate", "--model", "D3", "--N", "10", "--n", "4", "--seed", "-1", "--output", "s.csv"),
    ("simulate", "--model", "D3", "--N", "10", "--n", "4", "--seed", str(2**64), "--output", "s.csv"),
])
def test_out_of_range_options_are_usage_errors(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(*argv)
    assert code == 1
    assert "error[_UsageError]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_non_finite_percentile_of_is_a_usage_error(matrix_csv, t):
    # the report schema types percentile.t as a number, which null is not
    code, out, err = run_cli("truescore", "--input", matrix_csv, f"--percentile-of={t}")
    assert code == 1
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error")]
    message = f"argument --percentile-of: expected a finite number, got {t!r}"
    assert errors == [f"error[_UsageError]: {message}"]


def test_percentile_of_with_csv_format_is_a_usage_error(tmp_path, monkeypatch):
    # the CSV table has no place for the rank, which it used to drop silently
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(5)
    write_score_matrix(ScoreMatrix((rng.random((50, 10)) < 0.6).astype(int)), "m.csv")
    code, out, err = run_cli(
        "truescore", "--input", "m.csv", "--format", "csv", "--percentile-of", "5"
    )
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "error[_UsageError]: argument --percentile-of: not allowed with --format csv"
    ]
    assert sorted(os.listdir(tmp_path)) == ["m.csv"]


def test_bin_width_beyond_int64_gives_one_bin(schema, matrix_csv):
    width = 10**20
    doc = run_json(schema, "reliability", "--input", matrix_csv, "--bin-width", str(width))
    hists = doc["report"]["histograms"]
    assert hists["bin_width"] == doc["parameters"]["bin_width"] == width
    assert [hists["full"], hists["g"], hists["h"]] == [[120]] * 3


@pytest.mark.parametrize("argv, shape", [
    (("simulate", "--model", "D3", "--N", str(10**20), "--n", "4", "--seed", "1",
      "--output", "s.csv"), f"{10**20} x 4"),
    (("simulate", "--model", "D3", "--N", "3", "--n", str(10**20), "--seed", "1",
      "--output", "s.csv"), f"3 x {10**20}"),
], ids=["simulate", "simulate-n"])
def test_matrices_too_large_to_index_are_range_errors(argv, shape, tmp_path, monkeypatch):
    # the model rejects the size before numpy allocates anything
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(*argv)
    assert code == 1
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error")]
    assert errors == [f"error[RangeError]: a {shape} matrix has too many cells to index"]
    assert list(tmp_path.iterdir()) == []


def test_parameter_draw_too_large_to_index_is_a_range_error(tmp_path, monkeypatch):
    # N * n fits the index, but the float64 ability draw needs 8 * N bytes;
    # the model rejects it before numpy allocates anything
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli("simulate", "--model", "D1", "--N", "2305843009213693952",
                             "--n", "2", "--seed", "1", "--output", "big.csv")
    assert code == 1
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error")]
    assert errors == [
        "error[RangeError]: a 2305843009213693952 x 2 matrix needs too large a parameter draw"
    ]
    assert not (tmp_path / "big.csv").exists()


@pytest.mark.parametrize("raised, message", [
    (MemoryError("Unable to allocate 8.00 EiB"), "Unable to allocate 8.00 EiB"),
    (MemoryError(), "not enough memory"),
], ids=["message", "bare"])
def test_memory_error_is_an_error_line_not_a_traceback(raised, message, tmp_path, monkeypatch):
    def generate(*args, **kwargs):
        raise raised

    monkeypatch.setattr("splitrel.cli.generate", generate)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli("simulate", "--model", "D1", "--N", "10", "--n", "4",
                             "--seed", "1", "--output", "s.csv")
    assert (code, out) == (1, "")
    assert err == f"error[MemoryError]: {message}\n"


def test_missing_input_exits_one(tmp_path):
    code, _, err = run_cli("split", "--input", str(tmp_path / "absent.csv"))
    assert code == 1
    assert "error" in err


CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}


def test_piped_input_is_digested_as_the_bytes_it_gave(schema, matrix_csv):
    data = Path(matrix_csv).read_bytes()
    out = subprocess.run(
        [sys.executable, "-m", "splitrel.cli", "split", "--input", "/dev/stdin"],
        input=data, env=CLI_ENV, capture_output=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["inputs"] == {"/dev/stdin": hashlib.sha256(data).hexdigest()}
    assert doc["report"] == run_json(schema, "split", "--input", matrix_csv)["report"]


def test_fifo_input_is_read_once(schema, matrix_csv, tmp_path):
    # a second open of the FIFO would wait for a writer that never comes,
    # so the run is bounded and a hang fails the test
    fifo = tmp_path / "scores.fifo"
    os.mkfifo(fifo)
    other = tmp_path / "other.csv"
    rng = np.random.default_rng(63)
    write_score_matrix(ScoreMatrix((rng.random((120, 16)) < 0.5).astype(int)), other)
    data = Path(matrix_csv).read_bytes()
    copy = "import sys; open(sys.argv[2], 'wb').write(open(sys.argv[1], 'rb').read())"
    writer = subprocess.Popen([sys.executable, "-c", copy, matrix_csv, str(fifo)])
    try:
        out = subprocess.run(
            [sys.executable, "-m", "splitrel.cli", "battery", "--inputs", str(fifo),
             str(other), "--weights", "equal"],
            env=CLI_ENV, capture_output=True, timeout=60,
        )
    finally:
        writer.kill()
        writer.wait()
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    jsonschema.validate(doc, schema)
    assert doc["inputs"] == {
        str(fifo): hashlib.sha256(data).hexdigest(),
        str(other): hashlib.sha256(other.read_bytes()).hexdigest(),
    }
    expected = run_json(
        schema, "battery", "--inputs", matrix_csv, str(other), "--weights", "equal"
    )["report"]["battery"]
    got = doc["report"]["battery"]
    assert got["covariance_matrix"] == expected["covariance_matrix"]
    assert got["r_battery"] == expected["r_battery"]


def test_simulate_into_a_fifo_ends(schema, tmp_path):
    # the sidecar digest is taken from the bytes written: re-opening the
    # FIFO to hash it would wait for a writer that never comes, so the run
    # is bounded and a hang fails the test
    fifo = tmp_path / "m.fifo"
    os.mkfifo(fifo)
    got = tmp_path / "got.csv"
    copy = "import sys; open(sys.argv[2], 'wb').write(open(sys.argv[1], 'rb').read())"
    reader = subprocess.Popen([sys.executable, "-c", copy, str(fifo), str(got)])
    try:
        out = subprocess.run(
            [sys.executable, "-m", "splitrel.cli", "simulate", "--model", "D1", "--N", "50",
             "--n", "6", "--seed", "1", "--output", str(fifo)],
            env=CLI_ENV, capture_output=True, timeout=60,
        )
        assert reader.wait(timeout=60) == 0
    finally:
        reader.kill()
        reader.wait()
    assert out.returncode == 0, out.stderr
    meta = json.loads((tmp_path / "m.fifo.meta.json").read_text())
    jsonschema.validate(meta, schema)
    assert meta["report"]["matrix_sha256"] == hashlib.sha256(got.read_bytes()).hexdigest()
    m = splitrel.load_score_matrix(got)
    assert m.n_examinees == 50 and m.n_items == 6


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_simulate_writes_no_matrix_when_its_sidecar_cannot_be_made():
    # /dev/fd/N.meta.json cannot be created, and that ends the run before
    # the first matrix byte: a reader gets no matrix from a failed run
    read_end, write_end = os.pipe()
    with os.fdopen(read_end, "rb") as reader:
        try:
            out = subprocess.run(
                [sys.executable, "-m", "splitrel.cli", "simulate", "--model", "D1", "--N", "50",
                 "--n", "6", "--seed", "1", "--output", f"/dev/fd/{write_end}"],
                env=CLI_ENV, capture_output=True, text=True, timeout=60, pass_fds=(write_end,),
            )
        finally:
            os.close(write_end)
        got = reader.read()
    assert out.returncode == 1
    assert re.fullmatch(r"error\[\w+\]: [^\n]*\n", out.stderr), out.stderr
    assert got == b""


def test_simulate_removes_its_sidecar_when_the_matrix_write_fails(tmp_path):
    matrix = tmp_path / "m.csv"
    matrix.mkdir()
    code, _, err = run_cli("simulate", "--model", "D1", "--N", "50", "--n", "6", "--seed", "1",
                           "--output", str(matrix))
    assert code == 1 and err.startswith("error[IsADirectoryError]: ")
    assert not (tmp_path / "m.csv.meta.json").exists()


def test_malformed_matrix_exits_one(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,0\n0,2\n")
    code, _, err = run_cli("reliability", "--input", str(p))
    assert code == 1
    assert "DomainViolation" in err


def test_degenerate_matrix_exits_two(tmp_path):
    # constant totals: zero variance is a computation degeneracy, exit 2
    p = tmp_path / "flat.csv"
    p.write_text("\n".join(["1,0,1,0"] * 6) + "\n")
    code, _, err = run_cli("reliability", "--input", str(p))
    assert code == 2
    assert "ZeroVariance" in err


def test_near_ceiling_long_test_gets_a_report(schema, tmp_path):
    # 30 examinees, 5000 items, all correct but 0-2 misses each: float
    # cancellation in the stats cross-check once ended this in a traceback
    entries = np.ones((30, 5000), dtype=int)
    for i in range(30):
        entries[i, [(i * 7 + k * 1013) % 5000 for k in range(i % 3)]] = 0
    path = tmp_path / "ceiling.csv"
    write_score_matrix(ScoreMatrix(entries), path)
    doc = run_json(schema, "reliability", "--input", str(path))
    assert doc["report"]["stats"]["full"]["n"] == 5000


def test_near_ceiling_true_score_geometry_gets_a_report(schema, tmp_path):
    # 40 x 4000, all correct but 0-5 misses each: the true-score variance
    # cross-check once raised a false ArithmeticError on this input
    rng = np.random.default_rng(0)
    entries = np.ones((40, 4000), dtype=int)
    for row in entries:
        row[rng.choice(4000, size=rng.integers(0, 6), replace=False)] = 0
    path = tmp_path / "ceiling.csv"
    write_score_matrix(ScoreMatrix(entries), path)
    doc = run_json(schema, "reliability", "--input", str(path))
    assert 0.0 <= doc["report"]["reliability"]["r_tt"] <= 1.0
    assert doc["report"]["true_score_geometry"]["cos_theta_T"] > 0.0


def test_invalid_utf8_input_exits_one(tmp_path):
    p = tmp_path / "latin.csv"
    p.write_bytes(b"0,1\n1,\xff\n0,0\n")
    code, out, err = run_cli("reliability", "--input", str(p))
    assert (code, out) == (1, "")
    assert err == "error[DomainViolation]: input is not valid UTF-8: byte 0xff at offset 6\n"


def test_readme_python_sketch_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    sketch = readme.split("```python\n", 1)[1].split("```", 1)[0]
    rng = np.random.default_rng(63)
    entries = (rng.random((80, 15)) < rng.random((80, 1))).astype(int)
    write_score_matrix(ScoreMatrix(entries), tmp_path / "scores.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(sketch, "README.md", "exec"), {})


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0


# the package's exported names, as listed before each module's __all__
# became their only declaration, less the true-score row tuples, which
# left the API when the tables became their columns, and less the four
# names only tests called (the exhaustive split, its error, and the two
# variance helpers), whose checks moved onto exact oracles and report
# fields, less mean_from_norms, whose identity is now a property test,
# and less examinee_totals, which nothing in the program called
PUBLIC_API = {
    "__version__",
    "ToolkitError", "DomainViolation", "ShapeError", "TooSmall",
    "RangeError", "DegeneracyError", "ZeroVariance", "SingularMatrix", "Degenerate",
    "CrossCheckFailed",
    "ScoreMatrix", "ItemScores", "ExamineeScores", "TestStats", "load_score_matrix",
    "write_score_matrix", "item_totals", "descriptive_stats",
    "Assignment", "SplitResult", "seed_allocation", "swap_refine", "product_refine",
    "split",
    "SubTestScores", "ReliabilityReport", "TrueScoreGeometry", "sub_test_scores",
    "split_half_correlation", "f_test_equal_variance",
    "classical_reliability", "true_score_geometry",
    "TrueScoreTable", "EstimatorComparison",
    "estimate_true_scores", "compare_estimators", "percentile_rank",
    "ComponentTest", "BatteryInput", "CovMatrix", "WeightVector", "BatteryReport",
    "covariance_matrix", "summative_reliability", "weighted_reliability",
    "optimal_weights", "nonnegative_weights", "eigen_weights", "equal_weights",
    "jacobi_eigh",
    "SimModel", "GENERATOR_ID", "generate",
}


def test_public_api_surface():
    names = splitrel.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(splitrel, name) for name in names)
    assert set(names) == PUBLIC_API
    assert "RowBlock" not in names
    assert set(names) <= set(dir(splitrel))
    # importing the package loads its version and nothing else, not even
    # numpy; a star import then gives every public name
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    code = (
        "import sys, splitrel\n"
        "print(*sorted(m for m in sys.modules if m.startswith('splitrel')), 'numpy' in sys.modules)\n"
        "star = {}\n"
        "exec('from splitrel import *', star)\n"
        "print(sorted(set(star) - {'__builtins__'}) == sorted(splitrel.__all__), len(star) - 1)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == f"splitrel splitrel._version False\nTrue {len(PUBLIC_API)}\n", out.stderr


# the parameters of the entry points whose settings the CLI uses (a
# value only a test would set is a constant, not a parameter), with the
# ones that have defaults; perfbench's tracer reads the loader's first
# argument by the keyword "source"
ENTRY_POINT_PARAMETERS = {
    "load_score_matrix": (("source", "has_header"), {"has_header"}),
    "write_score_matrix": (("m", "dest"), set()),
    "generate": (("model",), set()),
    "estimate_true_scores": (("x", "stats", "r", "kind"), set()),
    "compare_estimators": (("x", "stats", "r_tt", "r_gh"), set()),
    "ScoreMatrix": (("entries",), set()),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINT_PARAMETERS))
def test_entry_points_take_only_the_parameters_in_use(name):
    names, settable = ENTRY_POINT_PARAMETERS[name]
    params = inspect.signature(getattr(splitrel, name)).parameters.values()
    assert tuple(p.name for p in params) == names
    assert {p.name for p in params if p.default is not p.empty} == settable
