"""CLI start-up: what each subcommand loads, and the OpenBLAS idle wait.

Each test runs a fresh interpreter, since this process has loaded every
module and numpy long before.
"""

import os
import subprocess
import sys

import pytest

from splitrel import SimModel, generate, write_score_matrix

ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
ENV.pop("OPENBLAS_THREAD_TIMEOUT", None)

# the toolkit modules each subcommand runs, besides the CLI and _version
LOADED = {
    "simulate": {"errors", "data_model", "simulate"},
    "reliability": {"errors", "data_model", "splitter", "reliability"},
}


def python(code: str, *args: str, env=ENV) -> str:
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("command", sorted(LOADED))
def test_a_subcommand_loads_only_the_modules_it_runs(command, tmp_path):
    matrix = tmp_path / "m.csv"
    write_score_matrix(generate(SimModel(kind="D3", N=40, n=9, seed=5)), matrix)
    argv = {
        "simulate": ["simulate", "--model", "D1", "--N", "30", "--n", "6", "--seed", "2",
                     "--output", str(tmp_path / "s.csv")],
        "reliability": ["reliability", "--input", str(matrix),
                        "--output", str(tmp_path / "r.json")],
    }[command]
    code = (
        "import sys\n"
        "from splitrel.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(*sorted(m for m in sys.modules if m.startswith('splitrel.')))\n"
    )
    loaded = set(python(code, *argv).split())
    assert loaded == {f"splitrel.{m}" for m in LOADED[command] | {"cli", "_version"}}


@pytest.mark.parametrize("given, seen", [(None, "4"), ("28", "28")])
def test_the_cli_sets_the_blas_idle_wait_unless_the_caller_did(given, seen):
    env = ENV if given is None else {**ENV, "OPENBLAS_THREAD_TIMEOUT": given}
    code = "import os, splitrel.cli\nprint(os.environ['OPENBLAS_THREAD_TIMEOUT'])\n"
    assert python(code, env=env) == f"{seen}\n"


def test_the_blas_idle_wait_leaves_the_report_bytes_unchanged(tmp_path):
    # 12000 examinees: the float64 dots of the statistics are long
    # enough for OpenBLAS to split them across its threads
    matrix = tmp_path / "tall.csv"
    write_score_matrix(generate(SimModel(kind="D3", N=12000, n=21, seed=3)), matrix)
    reports = []
    for env in (ENV, {**ENV, "OPENBLAS_THREAD_TIMEOUT": "28"}):
        out = tmp_path / f"r{len(reports)}.json"
        cmd = [sys.executable, "-m", "splitrel.cli", "reliability", "--input", str(matrix),
               "--output", str(out)]
        subprocess.run(cmd, env=env, check=True)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_importlib_resources_waits_for_the_schema(tmp_path):
    # -S skips the site hook, which on some hosts imports the module itself
    code = (
        "import sys\n"
        "from splitrel.cli import load_schema, main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print('importlib.resources' in sys.modules)\n"
        "print(load_schema()['title'])\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, "simulate", "--model", "D1", "--N", "30",
         "--n", "6", "--seed", "2", "--output", str(tmp_path / "s.csv")],
        env=ENV, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\nsplitrel report envelope\n"
