"""The CLI as a process: ``run`` flushes its outputs and ends without the
interpreter's teardown, and a worker thread digests the input files while
the command parses them.

The subprocess tests run with buffered stdout, as a shell pipeline does.
"""

import gc
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from splitrel import SimModel, __version__, cli, generate, write_score_matrix

ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = os.pathsep.join(sys.path)

NOISE = ("Exception ignored", "Exception in thread", "Traceback")


def cli_process(*argv, stdout=subprocess.PIPE, env=ENV) -> subprocess.CompletedProcess:
    out = subprocess.run(
        [sys.executable, "-m", "splitrel.cli", *argv],
        env=env, stdout=stdout, stderr=subprocess.PIPE, timeout=120,
    )
    assert not any(noise.encode() in out.stderr for noise in NOISE), out.stderr
    return out


def in_process(*argv) -> tuple[int, str, str]:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def simulated(path: Path, kind="D3", N=300, n=21, seed=5) -> str:
    write_score_matrix(generate(SimModel(kind=kind, N=N, n=n, seed=seed)), path)
    return str(path)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_a_report_sent_through_a_pipe_arrives_whole(tmp_path):
    matrix = simulated(tmp_path / "m.csv", N=3000)
    piped = cli_process("truescore", "--input", matrix)
    assert (piped.returncode, piped.stderr) == (0, b"")
    written = cli_process("truescore", "--input", matrix, "--output", str(tmp_path / "t.json"))
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    assert piped.stdout == (tmp_path / "t.json").read_bytes()
    assert len(json.loads(piped.stdout)["report"]["table"]["rows"]) == 3000


def test_exit_codes_and_messages(tmp_path):
    matrix = simulated(tmp_path / "m.csv")
    done = cli_process("split", "--input", matrix)
    assert (done.returncode, done.stderr) == (0, b"")
    assert json.loads(done.stdout)["inputs"] == {matrix: sha256(matrix)}

    usage = cli_process("reliability")
    assert (usage.returncode, usage.stdout) == (1, b"")
    assert usage.stderr.startswith(b"usage: splitrel reliability")
    assert usage.stderr.endswith(
        b"error[_UsageError]: the following arguments are required: --input\n"
    )

    # a well-formed D4 draw whose classical reliability is just below 0
    d4 = simulated(tmp_path / "d4.csv", kind="D4", N=500, n=30, seed=1)
    degenerate = cli_process("truescore", "--input", d4)
    assert (degenerate.returncode, degenerate.stdout) == (2, b"")
    assert degenerate.stderr == (
        b"error[Degenerate]: classical reliability is -0.0040497145204050735, "
        b"outside [0, 1], so true scores are undefined\n"
    )

    version = cli_process("--version")
    assert (version.returncode, version.stdout, version.stderr) == (
        0, f"splitrel {__version__}\n".encode(), b""
    )
    helped = cli_process("--help")
    assert (helped.returncode, helped.stderr) == (0, b"")
    assert helped.stdout.startswith(b"usage: splitrel")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_final_write_to_stdout_is_an_error_line(tmp_path):
    matrix = simulated(tmp_path / "m.csv")
    # --version and --help are written by argparse, not by the report writer
    for argv in [("split", "--input", matrix), ("--version",), ("--help",)]:
        with open("/dev/full", "wb") as full:
            out = cli_process(*argv, stdout=full)
        assert out.returncode == 1, argv
        assert out.stderr == b"error[OSError]: [Errno 28] No space left on device\n", argv


class FullStream(StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


def test_a_failed_unbuffered_write_of_help_or_version_is_an_error_line():
    # an unbuffered stdout fails at the write, which argparse itself drops
    for flag in ("--version", "--help"):
        err = StringIO()
        with redirect_stdout(FullStream()), redirect_stderr(err):
            assert cli.main([flag]) == 1
        assert err.getvalue() == "error[OSError]: [Errno 28] No space left on device\n"


def collector_and_threads():
    return gc.isenabled(), gc.get_freeze_count(), threading.active_count()


@pytest.mark.parametrize(
    "matrix, exit_code", [("1,0,1\n0,1,1\n1,1,0\n", 0), ("1,0\n1,0\n", 2)],
    ids=["success", "zero_variance"],
)
def test_main_leaves_no_thread_or_collector_state(tmp_path, monkeypatch, matrix, exit_code):
    # a slow digest: the worker is still hashing when the command ends
    digest = cli._sha256
    monkeypatch.setattr(cli, "_sha256", lambda path: time.sleep(0.2) or digest(path))
    path = tmp_path / "m.csv"
    path.write_text(matrix)
    before = collector_and_threads()
    code, _, err = in_process("reliability", "--input", str(path))
    assert code == exit_code, err
    assert collector_and_threads() == before


def test_a_digest_that_fails_only_in_the_worker_is_an_error_line(tmp_path, monkeypatch):
    path = simulated(tmp_path / "m.csv")

    def refused(name):
        raise PermissionError(13, "Permission denied", name)

    monkeypatch.setattr(cli, "_sha256", refused)
    before = threading.active_count()
    code, out, err = in_process("reliability", "--input", path)
    assert (code, out) == (1, "")
    assert err == f"error[PermissionError]: [Errno 13] Permission denied: '{path}'\n"
    assert threading.active_count() == before


def test_a_missing_input_is_an_error_line(tmp_path):
    path = str(tmp_path / "absent.csv")
    out = cli_process("reliability", "--input", path)
    assert (out.returncode, out.stdout) == (1, b"")
    message = f"error[FileNotFoundError]: [Errno 2] No such file or directory: '{path}'\n"
    assert out.stderr == message.encode()


@pytest.mark.skipif(os.geteuid() == 0, reason="root reads a file of mode 000")
def test_an_unreadable_input_is_an_error_line(tmp_path):
    path = tmp_path / "m.csv"
    simulated(path)
    path.chmod(0)
    out = cli_process("reliability", "--input", str(path))
    assert (out.returncode, out.stdout) == (1, b"")
    message = f"error[PermissionError]: [Errno 13] Permission denied: '{path}'\n"
    assert out.stderr == message.encode()


def test_a_repeated_battery_input_is_digested_once(tmp_path):
    a = simulated(tmp_path / "a.csv", seed=5)
    b = simulated(tmp_path / "b.csv", seed=6)
    argv = ("battery", "--inputs", a, b, a, "--weights", "equal")
    out = cli_process(*argv)
    assert (out.returncode, out.stderr) == (0, b"")
    doc = json.loads(out.stdout)
    assert doc["inputs"] == {a: sha256(a), b: sha256(b)}
    assert [d["name"] for d in doc["report"]["component_details"]] == [a, b, a]
    assert out.stdout.decode() == in_process(*argv)[1]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_the_worker_and_the_fifo_reader_lose_no_digest(tmp_path):
    # both threads add to one digest map; with a thread switch every
    # microsecond, none of the digests may go missing
    files = [simulated(tmp_path / f"t{seed}.csv", seed=seed) for seed in range(4)]
    fifo = tmp_path / "scores.fifo"
    os.mkfifo(fifo)
    data = Path(files[0]).read_bytes()
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        writer.start()
        code, out, err = in_process(
            "battery", "--inputs", *files, str(fifo), files[1], "--weights", "equal"
        )
    finally:
        sys.setswitchinterval(interval)
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert code == 0, err
    want = {path: sha256(path) for path in files}
    want[str(fifo)] = hashlib.sha256(data).hexdigest()
    assert json.loads(out)["inputs"] == want


@pytest.fixture(scope="module")
def thread_count_runs(tmp_path_factory):
    """argv of three reports on D3 matrices of 12000 rows.  OpenBLAS
    splits a float64 dot product over more than 10000 elements across its
    threads, and with a dot over the score deviations each of these
    reports had different bytes under 1 and 2 threads."""
    d = tmp_path_factory.mktemp("threads")
    wide = simulated(d / "wide.csv", N=12000, n=21, seed=7)
    tests = [simulated(d / f"t{seed}.csv", N=12000, n=11, seed=seed) for seed in (1, 2, 3, 4)]
    return {
        "reliability": ("reliability", "--input", wide, "--bin-width", "5"),
        "truescore": ("truescore", "--input", tests[2]),
        "battery": ("battery", "--inputs", *tests, "--weights", "eigen-corr"),
    }


@pytest.mark.parametrize("command", ["reliability", "truescore", "battery"])
def test_report_bytes_do_not_depend_on_the_blas_thread_count(thread_count_runs, command):
    digests = set()
    for threads in ("1", "2"):
        out = cli_process(*thread_count_runs[command], env={**ENV, "OPENBLAS_NUM_THREADS": threads})
        assert (out.returncode, out.stderr) == (0, b"")
        digests.add(hashlib.sha256(out.stdout).hexdigest())
    assert len(digests) == 1
