"""Every CLI run on a small well-formed input ends in a report or in one
documented error line.

Hypothesis draws 0/1 score matrices of 2-6 examinees by 2-7 items,
constant columns and all-0 or all-1 matrices among them, and options for
every subcommand, and calls ``main`` in process.  A run exits 0, 1 or 2.
It exits 1 only for the input classes the README documents for these
options; a failing run prints exactly one ``error[...]`` line on stderr
and nothing on stdout.  A successful JSON report validates against the
schema, a CSV table has a header and a line per row, and a rerun writes
the same bytes.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splitrel.cli import load_schema, main

SCHEMA = load_schema()
MODELS = st.sampled_from(["D1", "D2", "D3", "D4"])
SEEDS = st.integers(0, 2**64 - 1)


@st.composite
def matrices(draw, n_examinees):
    """A 0/1 matrix as rows of ints: random, all 0 or all 1, and some
    columns held constant."""
    n_items = draw(st.integers(2, 7))
    # mostly random, since most tiny matrices already have a constant half
    fill = draw(st.sampled_from(["random"] * 4 + ["zeros", "ones"]))
    if fill != "random":
        return [[int(fill == "ones")] * n_items for _ in range(n_examinees)]
    cells = st.lists(st.integers(0, 1), min_size=n_items, max_size=n_items)
    rows = draw(st.lists(cells, min_size=n_examinees, max_size=n_examinees))
    for j in draw(st.sets(st.integers(0, n_items - 1), max_size=2)):
        value = draw(st.integers(0, 1))
        for row in rows:
            row[j] = value
    return rows


def split_options(draw):
    argv = []
    if draw(st.booleans()):
        argv += ["--criterion", draw(st.sampled_from(["abs_S", "product"]))]
    if draw(st.booleans()):
        argv += ["--policy", draw(st.sampled_from(["single", "all"]))]
    if draw(st.booleans()):
        argv += ["--max-iter", str(draw(st.integers(0, 5)))]
    return argv


@st.composite
def runs(draw):
    """(argv, matrices to write as m0.csv, m1.csv, ..., the error type an
    exit 1 must name or None)."""
    command = draw(st.sampled_from(["split", "reliability", "truescore", "battery", "simulate"]))
    n_examinees = draw(st.integers(2, 6))
    if command == "simulate":
        argv = ["simulate", "--model", draw(MODELS), "--N", str(n_examinees),
                "--n", str(draw(st.integers(2, 7))), "--seed", str(draw(SEEDS)),
                "--output", "sim.csv"]
        return argv, [], None
    if command == "battery":
        tests = draw(st.lists(matrices(n_examinees), min_size=1, max_size=3))
        weights = draw(st.sampled_from(["optimal", "nonneg", "eigen-cov", "eigen-corr", "equal"]))
        argv = ["battery", "--inputs", *(f"m{k}.csv" for k in range(len(tests))),
                "--weights", weights, *split_options(draw)]
        return argv, tests, None
    argv = [command, "--input", "m0.csv", *split_options(draw)]
    expected = None
    if command == "reliability":
        argv += ["--bin-width", str(draw(st.integers(1, 10)))]
    elif draw(st.booleans()):
        argv += ["--format", "csv"]
    if command == "truescore":
        argv += ["--kind", draw(st.sampled_from(["classical", "split_half"]))]
        if draw(st.booleans()):
            t = draw(st.floats(-5.0, 15.0, allow_nan=False) | st.integers(-2, 10))
            argv += [f"--percentile-of={t}"]
            if "csv" in argv:
                expected = "_UsageError"  # the CSV table has no place for the rank
    return argv, [draw(matrices(n_examinees))], expected


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def outputs(argv, stdout):
    """The report bytes of a run: stdout, or the files ``simulate`` writes."""
    if argv[0] == "simulate":
        return [Path("sim.csv").read_text(), Path("sim.csv.meta.json").read_text()]
    return [stdout]


def check_report(argv, stdout):
    if argv[0] == "simulate":
        assert stdout == ""
        jsonschema.validate(json.loads(Path("sim.csv.meta.json").read_text()), SCHEMA)
    elif "csv" in argv:
        lines = stdout.splitlines()
        assert len(lines) >= 2 and all(lines)
    else:
        jsonschema.validate(json.loads(stdout), SCHEMA)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(runs())
def test_every_run_ends_in_a_report_or_one_documented_error(run):
    argv, tests, expected = run
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for k, rows in enumerate(tests):
                Path(f"m{k}.csv").write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
            code, stdout, stderr = run_cli(argv)
            assert code in (0, 1, 2), stderr
            if code:
                assert stdout == ""
                lines = stderr.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error["), stderr
                if code == 1:
                    assert expected is not None, stderr
                    assert lines[0].startswith(f"error[{expected}]: "), stderr
                return
            assert expected is None and stderr == ""
            check_report(argv, stdout)
            first = outputs(argv, stdout)
            assert outputs(argv, run_cli(argv)[1]) == first
        finally:
            os.chdir(cwd)
